"""Ultra-discretization: the model layer's subtraction-free programs read in (max, +).

The reading is the (max, +) convention: products become sums, quotients
differences, sums maxima, positive constants 0, and an integer power k
becomes k times its base.  Named parameters stay variables.  Only
subtraction-free programs are read; anything containing a difference or
a negative constant is refused with the path of the offending node.

There is one evaluator, :func:`expr.run_maxplus`, and it runs the programs
the model layer already compiles: the shadow of e_i^C is the torus
model's action program (the one :func:`crystal.apply_e` runs exactly), the
tensor split (C1, C2) is :func:`crystal.product_split_exprs`, gamma_i,
eps_i and the product eps tables are the model's own expressions, and the
combinatorial R is the rational R program of :func:`rmap.r_program`.  So
the shadows cannot drift from the rational layer.

:func:`tropicalize` spells the same reading out as a :class:`TropExpr`
tree.  It serves the ``gcrystal ud trop`` display and, with
:func:`reference_trop_eval`, is the oracle of the tests.

The readings are total piecewise-linear maps on integer points, and all
identity checking down here is exact integer sampling over a box, through
the one checker :func:`box_check`; the ``check_*`` functions of the ud
suite are built on it.
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
    CrystalModel,
    action_program,
    pack_pair,
    product,
    product_split_exprs,
    split_pair,
)
from .expr import (
    Add,
    CheckOutcome,
    Const,
    Div,
    Mul,
    Pow,
    Program,
    RatExpr,
    TropicalizationError,
    Var,
    certify_subtraction_free,
    compile_program,
    free_variables,
    run_maxplus,
    tree_program,
)
from .models import affine_a_model
from .rmap import product_systems, r_images, unit_r_map

TropPoint = dict[str, int]


class NonUnitConstantWarning(UserWarning):
    """A positive constant other than 1 was flattened to tropical 0."""


def trop_eval(e: RatExpr, point: TropPoint) -> int:
    """Value of the subtraction-free ``e`` at an integer point, read in (max, +)."""
    return run_maxplus(tree_program(e), point)[0]


# --- the reading spelled out as a tree -------------------------------------------------


@dataclass(frozen=True)
class TropExpr:
    def __str__(self):
        return trop_pretty(self)


@dataclass(frozen=True)
class TVar(TropExpr):
    name: str


@dataclass(frozen=True)
class TConst(TropExpr):
    value: int


@dataclass(frozen=True)
class TMax(TropExpr):
    left: TropExpr
    right: TropExpr


@dataclass(frozen=True)
class TAdd(TropExpr):
    left: TropExpr
    right: TropExpr


@dataclass(frozen=True)
class TSub(TropExpr):
    left: TropExpr
    right: TropExpr


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


def tropicalize(e: RatExpr) -> TropExpr:
    """The (max, +) reading of a subtraction-free rational expression as a tree."""
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


# --- integer boxes -------------------------------------------------------------------


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
    e1: RatExpr,
    e2: RatExpr,
    lo: int = -50,
    hi: int = 50,
    samples: int = 1000,
    seed: int = 0,
) -> CheckOutcome:
    """Exact integer agreement of the (max, +) readings of two expressions on a sampled box."""
    variables = sorted(free_variables(e1) | free_variables(e2))

    def fn(point):
        a, b = trop_eval(e1, point), trop_eval(e2, point)
        return None if a == b else {"point": point, "lhs": a, "rhs": b}

    return box_check(fn, dict.fromkeys(variables, (lo, hi)), samples, seed)


# --- crystal shadows ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def unit_torus(n: int) -> CrystalModel:
    """The torus model at level 1; its expressions do not involve the level."""
    return affine_a_model(n, Fraction(1))


@functools.lru_cache(maxsize=None)
def split_program(n: int, i: int) -> Program:
    """The program of the parameter split (c1, c2) of e_i on the torus square."""
    model = unit_torus(n)
    return compile_program(product_split_exprs(model, model, i))


def shadow(n: int, i: int, point: TropPoint, c: int) -> TropPoint:
    """The shadow of e_i^C: add C at slot i, subtract it at slot i+1 (cyclically)."""
    model = unit_torus(n)
    env = dict(point)
    env[SCALAR] = c
    return dict(zip(model.variables, run_maxplus(action_program(model, i), env)))


def split(n: int, i: int, x: TropPoint, y: TropPoint, c: int) -> tuple[int, int]:
    """The shadow (C1, C2) of the parameter split of e_i^C on the pair (x, y).

    It reads C1 = max(C + Phi_i(x), E_i(y)) - max(Phi_i(x), E_i(y)) and
    C2 = C - C1; at C = 1 whichever of Phi_i(x), E_i(y) is strictly larger
    receives the whole increment, ties going to the left factor.
    """
    env = pack_pair(x, y)
    env[SCALAR] = c
    c1, c2 = run_maxplus(split_program(n, i), env)
    return c1, c2


def pair_shadow(n: int, i: int, x: TropPoint, y: TropPoint, c: int) -> tuple[TropPoint, TropPoint]:
    """The shadow of e_i^C on a pair: the split, then each factor's own shadow."""
    c1, c2 = split(n, i, x, y, c)
    return shadow(n, i, x, c1), shadow(n, i, y, c2)


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
    model = unit_torus(n)
    cartan = model.cartan
    labels = cartan.labels
    names = model.variables

    def fn(point):
        c = point[SCALAR]
        base = {k: point[k] for k in names}
        for i in labels:
            moved = shadow(n, i, base, c)
            for j in labels:
                gamma = model.gamma[j]
                if trop_eval(gamma, moved) != trop_eval(gamma, base) + cartan.a(i, j) * c:
                    return {"i": i, "j": j, "point": base, "c": c}
        return None

    return box_check(fn, dict.fromkeys(names + (SCALAR,), (-box, box)), samples, seed)


def check_eps_shadow(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """eps_i drops by C under its own shadow; orthogonal shadows fix it."""
    model = unit_torus(n)
    cartan = model.cartan
    labels = cartan.labels
    names = model.variables

    def fn(point):
        c = point[SCALAR]
        base = {k: point[k] for k in names}
        for i in labels:
            for j in labels:
                if i != j and not (cartan.a(i, j) == 0 and cartan.a(j, i) == 0):
                    continue
                moved = shadow(n, j, base, c)
                eps = model.eps[i]
                if trop_eval(eps, moved) != trop_eval(eps, base) - (c if i == j else 0):
                    return {"i": i, "j": j, "point": base, "c": c}
        return None

    return box_check(fn, dict.fromkeys(names + (SCALAR,), (-box, box)), samples, seed)


def check_operator_sum(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """The shadow operator preserves the coordinate sum and is additive in C."""
    names = _coords(n)

    def fn(point):
        base = {k: point[k] for k in names}
        c1, c2, i = point["c1"], point["c2"], point["i"]
        joint = shadow(n, i, base, c1 + c2)
        if shadow(n, i, shadow(n, i, base, c2), c1) != joint or sum(joint.values()) != sum(base.values()):
            return {"i": i, "point": base, "c": (c1, c2)}
        return None

    bounds = dict.fromkeys(names + ("c1", "c2"), (-box, box)) | {"i": (0, n)}
    return box_check(fn, bounds, samples, seed)


def check_split(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """C1 + C2 = C for the tensor parameter split of every index."""
    names = _coords(n)

    def fn(point):
        x, y = split_pair(point, names, names)
        c = point[SCALAR]
        for i in range(n + 1):
            c1, c2 = split(n, i, x, y, c)
            if c1 + c2 != c:
                return {"i": i, "c": c, "x": x, "y": y, "split": (c1, c2)}
        return None

    return box_check(fn, _pair_bounds(n, box, SCALAR), samples, seed)


def check_dichotomy(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """At C = +-1 exactly one tensor factor changes."""
    names = _coords(n)

    def fn(point):
        x, y = split_pair(point, names, names)
        i = point["i"]
        for c in (1, -1):
            c1, c2 = split(n, i, x, y, c)
            if sorted((c1, c2)) != sorted((c, 0)):
                return {"i": i, "c": c, "split": (c1, c2)}
            x2, y2 = pair_shadow(n, i, x, y, c)
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
        before = {J: sys_lm.eps_at(*J) for J in sys_lm.intervals()}
        after = {J: sys_ml.eps_at(*J) for J in sys_ml.intervals()}
    else:
        model = unit_torus(n)
        z = product(model, model)
        key = "i"
        before = after = {i: getattr(z, which)[i] for i in z.cartan.labels}
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
    names = _coords(n)

    def fn(point):
        x, y = split_pair(point, names, names)
        c, i = point[SCALAR], point["i"]
        lhs = apply_combinatorial_r(n, *pair_shadow(n, i, x, y, c))
        rhs = pair_shadow(n, i, *apply_combinatorial_r(n, x, y), c)
        if lhs != rhs:
            return {"i": i, "c": c, "x": x, "y": y}
        return None

    return box_check(fn, _pair_bounds(n, box, SCALAR) | {"i": (0, n)}, samples, seed)


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
