"""Ultra-discretization: subtraction-free expressions become max-plus programs.

The compilation rules are the (max, +) convention: products map to sums,
quotients to differences, sums to maxima, positive constants to 0, and an
integer power to a repeated sum or difference.  Named parameters stay
variables.  Only subtraction-free expressions compile; anything
containing a difference or a negative constant is refused with the path
of the offending node.

Compiled programs are total piecewise-linear maps on integer points and
all identity checking down here is exact integer sampling over a box,
through the one checker :func:`box_check`; the ``check_*`` functions of
the ud suite are built on it.
The crystal-flavored derivations (one-parameter operators, the parameter
split on products, the combinatorial R) are obtained by compiling the
corresponding rational expressions from the model layer rather than by
re-coding their shapes, so the two layers cannot drift apart.
"""

from __future__ import annotations

import functools
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .crystal import (
    LEFT_SUFFIX,
    RIGHT_SUFFIX,
    SCALAR,
    CheckOutcome,
    pack_pair,
    product,
    product_split_exprs,
    split_pair,
)
from .expr import (
    ADD,
    DIV,
    MUL,
    TROP_CONST,
    VAR,
    Add,
    Const,
    Div,
    Mul,
    Pow,
    RatExpr,
    TropicalizationError,
    Var,
    certify_subtraction_free,
    program_for,
    run_maxplus,
    tree_program,
)
from .models import affine_a_model
from .rmap import product_systems, r_images, unit_r_map

TropPoint = dict[str, int]


class NonUnitConstantWarning(UserWarning):
    """A positive constant other than 1 was flattened to tropical 0."""


@dataclass(frozen=True)
class TropExpr:
    def __str__(self):
        return trop_pretty(self)


@dataclass(frozen=True)
class TVar(TropExpr):
    _op = VAR

    name: str


@dataclass(frozen=True)
class TConst(TropExpr):
    _op = TROP_CONST

    value: int


@dataclass(frozen=True)
class TMax(TropExpr):
    _op = ADD  # the tropical sum

    left: TropExpr
    right: TropExpr


@dataclass(frozen=True)
class TAdd(TropExpr):
    _op = MUL  # the tropical product

    left: TropExpr
    right: TropExpr


@dataclass(frozen=True)
class TSub(TropExpr):
    _op = DIV  # the tropical quotient

    left: TropExpr
    right: TropExpr


def trop_eval(t: TropExpr, point: TropPoint) -> int:
    """Value of ``t`` at an integer point, by the max-plus interpreter."""
    return run_maxplus(tree_program(t), point)[0]


def reference_trop_eval(t: TropExpr, point: TropPoint) -> int:
    """Tree-walking evaluation; the test oracle for the compiled path."""
    if isinstance(t, TVar):
        return point[t.name]
    if isinstance(t, TConst):
        return t.value
    if isinstance(t, TMax):
        return max(reference_trop_eval(t.left, point), reference_trop_eval(t.right, point))
    if isinstance(t, TAdd):
        return reference_trop_eval(t.left, point) + reference_trop_eval(t.right, point)
    if isinstance(t, TSub):
        return reference_trop_eval(t.left, point) - reference_trop_eval(t.right, point)
    raise TypeError(f"unknown tropical node {t!r}")


def trop_free_variables(t: TropExpr) -> set[str]:
    if isinstance(t, TVar):
        return {t.name}
    if isinstance(t, TConst):
        return set()
    return trop_free_variables(t.left) | trop_free_variables(t.right)


def trop_pretty(t: TropExpr) -> str:
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, TConst):
        return str(t.value)
    if isinstance(t, TMax):
        return f"max({trop_pretty(t.left)}, {trop_pretty(t.right)})"
    op = " + " if isinstance(t, TAdd) else " - "
    left = trop_pretty(t.left)
    right = trop_pretty(t.right)
    if isinstance(t.left, (TAdd, TSub)):
        left = f"({left})"
    if isinstance(t.right, (TAdd, TSub, TMax)) and not isinstance(t.right, TMax):
        right = f"({right})"
    return f"{left}{op}{right}"


def trop_to_json_obj(t: TropExpr):
    if isinstance(t, TVar):
        return {"op": "var", "name": t.name}
    if isinstance(t, TConst):
        return {"op": "int", "value": t.value}
    kind = {TMax: "max", TAdd: "add", TSub: "sub"}[type(t)]
    return {"op": kind, "args": [trop_to_json_obj(t.left), trop_to_json_obj(t.right)]}


def trop_substitute(t: TropExpr, mapping: dict[str, TropExpr]) -> TropExpr:
    """Plug programs in for variables; lets compiled maps compose symbolically."""
    if isinstance(t, TVar):
        return mapping.get(t.name, t)
    if isinstance(t, TConst):
        return t
    return type(t)(trop_substitute(t.left, mapping), trop_substitute(t.right, mapping))


# --- the compiler -----------------------------------------------------------------


def tropicalize(e: RatExpr) -> TropExpr:
    """Compile a subtraction-free rational expression to a max-plus program."""
    cert = certify_subtraction_free(e)
    if not cert:
        raise TropicalizationError(cert.blocked_path)

    def compile_(node: RatExpr) -> TropExpr:
        if isinstance(node, Var):
            return TVar(node.name)
        if isinstance(node, Const):
            if node.value != 1:
                warnings.warn(
                    f"constant {node.value} becomes tropical 0",
                    NonUnitConstantWarning,
                    stacklevel=3,
                )
            return TConst(0)
        if isinstance(node, Add):
            return TMax(compile_(node.left), compile_(node.right))
        if isinstance(node, Mul):
            return TAdd(compile_(node.left), compile_(node.right))
        if isinstance(node, Div):
            return TSub(compile_(node.left), compile_(node.right))
        if isinstance(node, Pow):
            if node.exponent == 0:
                return TConst(0)
            base = compile_(node.base)
            acc = base
            for _ in range(abs(node.exponent) - 1):
                acc = TAdd(acc, base)
            return acc if node.exponent > 0 else TSub(TConst(0), acc)
        raise TypeError(f"unknown node {node!r}")

    return compile_(e)


def sample_box(bounds: dict[str, tuple[int, int]], samples: int, seed: int = 0):
    """Integer points; each coordinate is drawn by ``randint(lo, hi)`` in key order."""
    rng = random.Random(seed)
    for _ in range(samples):
        yield {v: rng.randint(lo, hi) for v, (lo, hi) in bounds.items()}


def box_check(
    fn: Callable[[TropPoint], dict | None],
    bounds: dict[str, tuple[int, int]],
    samples: int,
    seed: int = 0,
) -> CheckOutcome:
    """Run ``fn`` at ``samples`` points of the integer box ``bounds``.

    ``fn`` returns ``None`` on success and a witness dict on failure; the
    first failure ends the check and counts the points drawn up to it.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    for done, point in enumerate(sample_box(bounds, samples, seed), start=1):
        witness = fn(point)
        if witness is not None:
            return CheckOutcome(False, done, witness)
    return CheckOutcome(True, samples)


def check_tropical_identity(
    t1: TropExpr,
    t2: TropExpr,
    lo: int = -50,
    hi: int = 50,
    samples: int = 1000,
    seed: int = 0,
) -> CheckOutcome:
    """Exact integer agreement of two programs on a sampled box."""
    variables = sorted(trop_free_variables(t1) | trop_free_variables(t2))

    def fn(point):
        a, b = trop_eval(t1, point), trop_eval(t2, point)
        return None if a == b else {"point": point, "lhs": a, "rhs": b}

    return box_check(fn, dict.fromkeys(variables, (lo, hi)), samples, seed)


# --- crystal shadows ---------------------------------------------------------------

UD_SCALAR = SCALAR  # the tropicalized action parameter keeps its name


@dataclass(frozen=True)
class TropMap:
    """A piecewise-linear coordinate map: one program per output coordinate."""

    exprs: dict[str, TropExpr]

    def apply(self, point: TropPoint, **params: int) -> TropPoint:
        env = dict(point)
        env.update(params)
        program = program_for(self, "map", tuple(self.exprs.values()))
        return dict(zip(self.exprs, run_maxplus(program, env)))


def _silent_tropicalize(e: RatExpr) -> TropExpr:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitConstantWarning)
        return tropicalize(e)


@functools.lru_cache(maxsize=None)
def ud_crystal_operator(n: int, i: int) -> TropMap:
    """Tropical shadow of the torus-model action: add the parameter at slot i,
    subtract it at slot i+1 (cyclically); the coordinate sum is preserved."""
    model = affine_a_model(n, Fraction(1))
    exprs = {
        v: _silent_tropicalize(e) for v, e in zip(model.variables, model.actions[i])
    }
    return TropMap(exprs)


@functools.lru_cache(maxsize=None)
def ud_gamma(n: int, i: int) -> TropExpr:
    return _silent_tropicalize(affine_a_model(n, Fraction(1)).gamma[i])


@functools.lru_cache(maxsize=None)
def ud_eps(n: int, i: int) -> TropExpr:
    return _silent_tropicalize(affine_a_model(n, Fraction(1)).eps[i])


@functools.lru_cache(maxsize=None)
def ud_tensor_coeffs(n: int, i: int) -> tuple[TropExpr, TropExpr]:
    """Tropical split of the action parameter on a product.

    Compiles to C1 = max(C + Phi_i(x), E_i(y)) - max(Phi_i(x), E_i(y)) and
    C2 = C - C1, so C1 + C2 = C identically; at C = 1 whichever of
    Phi_i(x), E_i(y) is strictly larger receives the whole increment, ties
    going to the left factor.
    """
    model = affine_a_model(n, Fraction(1))
    c1, c2 = product_split_exprs(model, model, i)
    return _silent_tropicalize(c1), _silent_tropicalize(c2)


def ud_product_operator(n: int, i: int) -> "TropPairMap":
    return TropPairMap(n, ud_tensor_coeffs(n, i), ud_crystal_operator(n, i))


@dataclass(frozen=True)
class TropPairMap:
    """Tropical action on a pair of torus points via the parameter split."""

    n: int
    coeffs: tuple[TropExpr, TropExpr]
    factor_op: TropMap

    def split(self, x: TropPoint, y: TropPoint, c: int) -> tuple[int, int]:
        env = {f"{k}{LEFT_SUFFIX}": v for k, v in x.items()}
        env.update({f"{k}{RIGHT_SUFFIX}": v for k, v in y.items()})
        env[UD_SCALAR] = c
        c1 = trop_eval(self.coeffs[0], env)
        c2 = trop_eval(self.coeffs[1], env)
        return c1, c2

    def apply(self, x: TropPoint, y: TropPoint, c: int) -> tuple[TropPoint, TropPoint]:
        c1, c2 = self.split(x, y, c)
        return self.factor_op.apply(x, **{UD_SCALAR: c1}), self.factor_op.apply(
            y, **{UD_SCALAR: c2}
        )


@functools.lru_cache(maxsize=None)
def combinatorial_r(n: int) -> tuple[TropMap, TropMap]:
    """Tropical shadow of the birational R map, as (left outputs, right outputs).

    Components are l'_i = m_i + UDP_i - UDP_{i-1} and m'_i = l_i + UDP_{i-1}
    - UDP_i where UDP_i is the max over the window sums of the rational P_i.
    """
    inst = unit_r_map(n)
    l_out = {
        f"l{k}": _silent_tropicalize(inst.l_out[k - 1]) for k in range(1, n + 2)
    }
    m_out = {
        f"l{k}": _silent_tropicalize(inst.m_out[k - 1]) for k in range(1, n + 2)
    }
    return TropMap(l_out), TropMap(m_out)


def apply_combinatorial_r(n: int, l: TropPoint, m: TropPoint) -> tuple[TropPoint, TropPoint]:
    """The combinatorial R at integer points.

    Runs the rational R map's own program (see :func:`rmap.r_program`) in
    (max, +), so each UDP_i is computed once for all 2(n+1) outputs.
    """
    return r_images(unit_r_map(n), l, m, run_maxplus)


# --- checks on integer boxes ---------------------------------------------------------
#
# Every check below samples the box [-box, box] through :func:`box_check`, one
# coordinate after another: the coordinates of x, then those of y (then z),
# then the parameter c, then the index i, drawn from [0, n].


def _coords(n: int, suffix: str = "") -> tuple[str, ...]:
    return tuple(f"l{k}{suffix}" for k in range(1, n + 2))


def _pair_bounds(n: int, box: int, *scalars: str) -> dict[str, tuple[int, int]]:
    names = _coords(n, LEFT_SUFFIX) + _coords(n, RIGHT_SUFFIX) + scalars
    return dict.fromkeys(names, (-box, box))


def check_gamma_shadow(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """gamma_j after the C-shadow of e_i equals gamma_j + a_ij * C."""
    cartan = affine_a_model(n, Fraction(1)).cartan
    labels = cartan.labels
    ops = {i: ud_crystal_operator(n, i) for i in labels}
    gammas = {j: ud_gamma(n, j) for j in labels}
    names = _coords(n)

    def fn(point):
        c = point[UD_SCALAR]
        base = {k: point[k] for k in names}
        for i in labels:
            moved = ops[i].apply(base, c=c)
            for j in labels:
                if trop_eval(gammas[j], moved) != trop_eval(gammas[j], base) + cartan.a(i, j) * c:
                    return {"i": i, "j": j, "point": base, "c": c}
        return None

    return box_check(fn, dict.fromkeys(names + (UD_SCALAR,), (-box, box)), samples, seed)


def check_eps_shadow(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """eps_i drops by C under its own shadow; orthogonal shadows fix it."""
    cartan = affine_a_model(n, Fraction(1)).cartan
    labels = cartan.labels
    ops = {i: ud_crystal_operator(n, i) for i in labels}
    epss = {i: ud_eps(n, i) for i in labels}
    names = _coords(n)

    def fn(point):
        c = point[UD_SCALAR]
        base = {k: point[k] for k in names}
        for i in labels:
            for j in labels:
                if i != j and not (cartan.a(i, j) == 0 and cartan.a(j, i) == 0):
                    continue
                moved = ops[j].apply(base, c=c)
                if trop_eval(epss[i], moved) != trop_eval(epss[i], base) - (c if i == j else 0):
                    return {"i": i, "j": j, "point": base, "c": c}
        return None

    return box_check(fn, dict.fromkeys(names + (UD_SCALAR,), (-box, box)), samples, seed)


def check_operator_sum(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """The shadow operator preserves the coordinate sum and is additive in C."""
    ops = {i: ud_crystal_operator(n, i) for i in range(n + 1)}
    names = _coords(n)

    def fn(point):
        base = {k: point[k] for k in names}
        c1, c2, i = point["c1"], point["c2"], point["i"]
        joint = ops[i].apply(base, c=c1 + c2)
        if ops[i].apply(ops[i].apply(base, c=c2), c=c1) != joint or sum(joint.values()) != sum(base.values()):
            return {"i": i, "point": base, "c": (c1, c2)}
        return None

    bounds = dict.fromkeys(names + ("c1", "c2"), (-box, box)) | {"i": (0, n)}
    return box_check(fn, bounds, samples, seed)


def check_split(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """C1 + C2 = C for the tensor parameter split."""
    c1, c2 = ud_tensor_coeffs(n, 1)
    return check_tropical_identity(TAdd(c1, c2), TVar(UD_SCALAR), -box, box, samples, seed)


def check_dichotomy(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """At C = +-1 exactly one tensor factor changes."""
    pair_ops = {i: ud_product_operator(n, i) for i in range(n + 1)}
    names = _coords(n)

    def fn(point):
        x, y = split_pair(point, names, names)
        i = point["i"]
        for c in (1, -1):
            c1, c2 = pair_ops[i].split(x, y, c)
            if sorted((c1, c2)) != sorted((c, 0)):
                return {"i": i, "c": c, "split": (c1, c2)}
            x2, y2 = pair_ops[i].apply(x, y, c)
            if (x2 != x) + (y2 != y) != 1:
                return {"i": i, "c": c, "x": x, "y": y}
        return None

    return box_check(fn, _pair_bounds(n, box) | {"i": (0, n)}, samples, seed)


def check_levels(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """The combinatorial R swaps the coordinate sums."""
    names = _coords(n)

    def fn(point):
        l, m = split_pair(point, names, names)
        l2, m2 = apply_combinatorial_r(n, l, m)
        if sum(l2.values()) != sum(m.values()) or sum(m2.values()) != sum(l.values()):
            return {"l": l, "m": m}
        return None

    return box_check(fn, _pair_bounds(n, box), samples, seed)


def check_r_invariant(n: int, box: int, samples: int, seed: int, which: str = "eps") -> CheckOutcome:
    """Tropical functions of a pair (x, y) agree before and after the combinatorial R.

    ``which`` names the functions: ``"eps"`` or ``"gamma"`` are eps_i or
    gamma_i of the product crystal, compared with themselves; ``"product-eps"``
    compares the product eps table of (L, M) before with that of (M, L)
    after, interval by interval.
    """
    if which == "product-eps":
        sys_lm, sys_ml = product_systems(n, Fraction(1), Fraction(1))
        key = "interval"
        before = {J: _silent_tropicalize(sys_lm.eps_at(*J)) for J in sys_lm.intervals()}
        after = {J: _silent_tropicalize(sys_ml.eps_at(*J)) for J in sys_ml.intervals()}
    else:
        model = affine_a_model(n, Fraction(1))
        z = product(model, model)
        key = "i"
        before = after = {i: _silent_tropicalize(getattr(z, which)[i]) for i in z.cartan.labels}
    names = _coords(n)

    def fn(point):
        x, y = split_pair(point, names, names)
        image = pack_pair(*apply_combinatorial_r(n, x, y))
        for k in before:
            if trop_eval(before[k], point) != trop_eval(after[k], image):
                return {key: k, "x": x, "y": y}
        return None

    return box_check(fn, _pair_bounds(n, box), samples, seed)


def check_r_commutation(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """The combinatorial R commutes with the tensor shadow operators."""
    pair_ops = {i: ud_product_operator(n, i) for i in range(n + 1)}
    names = _coords(n)

    def fn(point):
        x, y = split_pair(point, names, names)
        c, i = point[UD_SCALAR], point["i"]
        lhs = apply_combinatorial_r(n, *pair_ops[i].apply(x, y, c))
        rhs = pair_ops[i].apply(*apply_combinatorial_r(n, x, y), c)
        if lhs != rhs:
            return {"i": i, "c": c, "x": x, "y": y}
        return None

    return box_check(fn, _pair_bounds(n, box, UD_SCALAR) | {"i": (0, n)}, samples, seed)


def check_r_braid(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """(12)(23)(12) = (23)(12)(23) for the combinatorial R on integer triples."""
    names = _coords(n)
    suffixes = (".a", ".b", ".c")

    def act(triple, pos):
        if pos == 0:
            return (*apply_combinatorial_r(n, triple[0], triple[1]), triple[2])
        return (triple[0], *apply_combinatorial_r(n, triple[1], triple[2]))

    def fn(point):
        triple = tuple({v: point[v + s] for v in names} for s in suffixes)
        if act(act(act(triple, 0), 1), 0) != act(act(act(triple, 1), 0), 1):
            return {"triple": triple}
        return None

    bounds = dict.fromkeys((v + s for s in suffixes for v in names), (-box, box))
    return box_check(fn, bounds, samples, seed)
