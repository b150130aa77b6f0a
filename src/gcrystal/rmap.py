"""The explicit birational R map between two affine type-A torus crystals.

The map sends a pair of points (l, m) with coordinate products L and M to
a pair (l', m') with products M and L (the levels swap).  Components:

    l'_i = m_i * P_i / P_{i-1},    m'_i = l_i * P_{i-1} / P_i,

where P_i(l, m) sums, over k = 1..n+1, the product of the leading window
m_{i+1} ... m_{i+k} with the trailing window l_{i+k} ... l_{i+n+1} (all
indices cyclic with representatives 1..n+1).  The tree of P_i does not
multiply each window out afresh: the leading windows are the running
prefix products of m from m_{i+1}, the trailing windows the running
suffix products of l down to l_{i+n+1}, and term k multiplies the k-th of
each.  So P_i takes about 4(n+1) nodes and the whole map O(n^2), where
writing out every monomial would take O(n^3).  It is still, as a
function, a sum of monomials built from sums and products alone, hence
subtraction-free and tropicalizable.  The map has a pole wherever some
P_i vanishes.

Besides the map itself this module hosts the exact checkers for its
defining properties: commutation with every one-parameter action on the
product crystal, preservation of the eps/gamma functions, the braid
consistency on triple products, interval-wise invariance of product
epsilon systems, and the fixed-point probe that solves the invariance
equations at the homogeneous point by hand and confirms the solution is
forced.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .arith import Assignment, SampleSpec, product as fraction_product
from .crystal import (
    CheckOutcome,
    CrystalModel,
    apply_e,
    pack_pair,
    pointwise_check,
    split_pair,
    _split_scalars,
)
from .epsilon import EpsilonSystem, product_epsilon
from .expr import Program, RatExpr, div, evaluate, mul, program_for, run, var
from .models import affine_a_local_system, affine_a_model


def _wrap(k: int, n: int) -> int:
    return (k - 1) % (n + 1) + 1


def p_expr(n: int, i: int) -> RatExpr:
    """P_i over the variables l1..l{n+1}, m1..m{n+1}.

    Term k is the prefix product m_{i+1}..m_{i+k} times the suffix product
    l_{i+k}..l_{i+n+1}; both come from running products, so P_i costs
    about 4(n+1) nodes instead of (n+1)(n+2).
    """
    prefixes = [var(f"m{_wrap(i + 1, n)}")]
    for j in range(2, n + 2):
        prefixes.append(mul(prefixes[-1], var(f"m{_wrap(i + j, n)}")))
    suffixes = [var(f"l{_wrap(i + n + 1, n)}")]
    for j in range(n, 0, -1):
        suffixes.append(mul(var(f"l{_wrap(i + j, n)}"), suffixes[-1]))
    suffixes.reverse()  # suffixes[k - 1] = l_{i+k} ... l_{i+n+1}
    out = mul(prefixes[0], suffixes[0])
    for k in range(1, n + 1):
        out = out + mul(prefixes[k], suffixes[k])
    return out


@dataclass(frozen=True)
class RMapInstance:
    """Component expressions of the R map for a fixed size and level pair."""

    n: int
    level_left: Fraction
    level_right: Fraction
    p: tuple[RatExpr, ...]  # P_0 .. P_n
    l_out: tuple[RatExpr, ...]
    m_out: tuple[RatExpr, ...]


@functools.lru_cache(maxsize=None)
def unit_r_map(n: int) -> RMapInstance:
    """The map at levels (1, 1); every instance of size ``n`` shares its trees.

    The components do not involve the levels, so they are built once per n.
    """
    p = tuple(p_expr(n, i) for i in range(n + 1))
    l_out = []
    m_out = []
    for i in range(1, n + 2):
        pi = p[i % (n + 1)]
        pim1 = p[(i - 1) % (n + 1)]
        l_out.append(div(mul(var(f"m{i}"), pi), pim1))
        m_out.append(div(mul(var(f"l{i}"), pim1), pi))
    return RMapInstance(n, Fraction(1), Fraction(1), p, tuple(l_out), tuple(m_out))


def build_r_map(n: int, level_left: Fraction, level_right: Fraction) -> RMapInstance:
    unit = unit_r_map(n)
    inst = RMapInstance(n, Fraction(level_left), Fraction(level_right), unit.p, unit.l_out, unit.m_out)
    # same tree objects, so the same compiled programs
    inst.__dict__["_programs"] = unit.__dict__.setdefault("_programs", {})
    return inst


def r_program(inst: RMapInstance) -> Program:
    """One program for all 2(n+1) outputs (l' then m'), so each P_i runs once."""
    return program_for(inst, "r", inst.l_out + inst.m_out)


def r_images(inst: RMapInstance, l: dict, m: dict, interpret) -> tuple[dict, dict]:
    """Images (l', m') of the pair under ``interpret`` (``run`` or ``run_maxplus``).

    Both inputs and both outputs use coordinate names l1..l{n+1}.
    """
    names = [f"l{k}" for k in range(1, inst.n + 2)]
    values = interpret(r_program(inst), _pair_env(inst.n, l, m))
    return dict(zip(names, values[: inst.n + 1])), dict(zip(names, values[inst.n + 1 :]))


def window_sums(inst: RMapInstance, l: Assignment, m: Assignment) -> list[Fraction]:
    """Exact P_0 .. P_n at the pair; R has a pole where one of them is 0."""
    return run(program_for(inst, "p", inst.p), _pair_env(inst.n, l, m))


def _pair_env(n: int, l: dict, m: dict) -> dict:
    """The program inputs l1..l{n+1}, m1..m{n+1} of two points named l1..l{n+1}."""
    env = {f"l{k}": l[f"l{k}"] for k in range(1, n + 2)}
    env.update({f"m{k}": m[f"l{k}"] for k in range(1, n + 2)})
    return env


def apply_r(inst: RMapInstance, l: Assignment, m: Assignment) -> tuple[Assignment, Assignment]:
    """Exact images (l', m'); both inputs use coordinate names l1..l{n+1}."""
    return r_images(inst, l, m, run)


def _pair_spec(n: int, ll: Fraction, lr: Fraction, seed: int, extra: tuple[str, ...] = ()) -> SampleSpec:
    left = tuple(f"l{k}.x" for k in range(1, n + 2))
    right = tuple(f"l{k}.y" for k in range(1, n + 2))
    return SampleSpec(
        variables=left + right + extra,
        positive=True,
        constraints=((left, Fraction(ll)), (right, Fraction(lr))),
        seed=seed,
    )


def _split_pair_point(point: Assignment, n: int) -> tuple[Assignment, Assignment]:
    names = tuple(f"l{k}" for k in range(1, n + 2))
    return split_pair(point, names, names)


def check_level_swap(n: int, ll: Fraction, lr: Fraction, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """The coordinate products of the two output points trade places exactly."""
    inst = build_r_map(n, ll, lr)

    def fn(point):
        l, m = _split_pair_point(point, n)
        l2, m2 = apply_r(inst, l, m)
        got = (fraction_product(l2.values()), fraction_product(m2.values()))
        if got != (Fraction(lr), Fraction(ll)):
            return {"l": l, "m": m, "products": got}
        return None

    return pointwise_check(fn, _pair_spec(n, ll, lr, seed), trials)


def check_commutation(
    n: int, ll: Fraction, lr: Fraction, i: int, trials: int = 100, seed: int = 0
) -> CheckOutcome:
    """R intertwines e_i^c on the two product crystals."""
    inst = build_r_map(n, ll, lr)
    z_lm = _product_model(n, ll, lr)
    z_ml = _product_model(n, lr, ll)

    def fn(point):
        x, (c,) = _split_scalars(point, ("s1",))
        l, m = _split_pair_point(x, n)
        lhs = apply_e(z_ml, i, c, pack_pair(*apply_r(inst, l, m)))
        la, ma = _split_pair_point(apply_e(z_lm, i, c, x), n)
        rhs = pack_pair(*apply_r(inst, la, ma))
        if lhs != rhs:
            return {"i": i, "c": c, "l": l, "m": m, "lhs": lhs, "rhs": rhs}
        return None

    return pointwise_check(fn, _pair_spec(n, ll, lr, seed, extra=("s1",)), trials)


def _product_model(n: int, ll: Fraction, lr: Fraction) -> CrystalModel:
    from .crystal import product

    return product(affine_a_model(n, ll), affine_a_model(n, lr))


def check_preserved(
    n: int, ll: Fraction, lr: Fraction, i: int, which: str, trials: int = 100, seed: int = 0
) -> CheckOutcome:
    """eps_i (``which="eps"``) or gamma_i (``which="gamma"``) of the product
    before R equals the same function of the swapped product after R."""
    inst = build_r_map(n, ll, lr)
    before = getattr(_product_model(n, ll, lr), which)[i]
    after = getattr(_product_model(n, lr, ll), which)[i]

    def fn(point):
        l, m = _split_pair_point(point, n)
        lhs = evaluate(before, point)
        rhs = evaluate(after, pack_pair(*apply_r(inst, l, m)))
        if lhs != rhs:
            return {"i": i, "l": l, "m": m, "lhs": lhs, "rhs": rhs}
        return None

    return pointwise_check(fn, _pair_spec(n, ll, lr, seed), trials)


def check_braid(
    n: int,
    levels: tuple[Fraction, Fraction, Fraction],
    trials: int = 100,
    seed: int = 0,
) -> CheckOutcome:
    """Adjacent-pair applications in orders (12)(23)(12) and (23)(12)(23) agree.

    The component formulas do not involve the levels, so one instance acts on
    every adjacent pair; the levels only specify the sampling domain.
    """
    la, lb, lc = (Fraction(x) for x in levels)
    inst = build_r_map(n, la, lb)

    def act(triple, pos):
        x, y, z = triple
        if pos == 0:
            x2, y2 = apply_r(inst, x, y)
            return (x2, y2, z)
        y2, z2 = apply_r(inst, y, z)
        return (x, y2, z2)

    coords = tuple(f"l{k}" for k in range(1, n + 2))
    names_a = tuple(f"{v}.a" for v in coords)
    names_b = tuple(f"{v}.b" for v in coords)
    names_c = tuple(f"{v}.c" for v in coords)
    spec = SampleSpec(
        variables=names_a + names_b + names_c,
        positive=True,
        constraints=((names_a, la), (names_b, lb), (names_c, lc)),
        seed=seed,
    )

    def fn(point):
        triple = (
            {v: point[f"{v}.a"] for v in coords},
            {v: point[f"{v}.b"] for v in coords},
            {v: point[f"{v}.c"] for v in coords},
        )
        lhs = act(act(act(triple, 0), 1), 0)
        rhs = act(act(act(triple, 1), 0), 1)
        if lhs != rhs:
            return {"triple": triple, "lhs": lhs, "rhs": rhs}
        return None

    return pointwise_check(fn, spec, trials)


def check_cyclic_shift(n: int, ll: Fraction, lr: Fraction, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """Shifting every index by one commutes with the map."""
    inst = build_r_map(n, ll, lr)

    def shift(pt: Assignment) -> Assignment:
        return {f"l{k}": pt[f"l{_wrap(k + 1, n)}"] for k in range(1, n + 2)}

    def fn(point):
        l, m = _split_pair_point(point, n)
        l2, m2 = apply_r(inst, l, m)
        l3, m3 = apply_r(inst, shift(l), shift(m))
        if (l3, m3) != (shift(l2), shift(m2)):
            return {"l": l, "m": m}
        return None

    return pointwise_check(fn, _pair_spec(n, ll, lr, seed), trials)


def homogeneous_point(n: int, value: Fraction) -> Assignment:
    return {f"l{k}": Fraction(value) for k in range(1, n + 2)}


def check_fixed_point(n: int, a: Fraction, b: Fraction) -> CheckOutcome:
    """R swaps the two homogeneous points exactly (levels a^{n+1}, b^{n+1})."""
    a, b = Fraction(a), Fraction(b)
    inst = build_r_map(n, a ** (n + 1), b ** (n + 1))
    l0, m0 = homogeneous_point(n, a), homogeneous_point(n, b)
    l2, m2 = apply_r(inst, l0, m0)
    if (l2, m2) != (m0, l0):
        return CheckOutcome(False, 1, {"l'": l2, "m'": m2})
    return CheckOutcome(True, 1)


def check_diagonal_identity(n: int, level: Fraction, trials: int = 20, seed: int = 0) -> CheckOutcome:
    """With equal levels, the map fixes every diagonal pair (l, l)."""
    inst = build_r_map(n, level, level)
    coords = tuple(f"l{k}" for k in range(1, n + 2))
    spec = SampleSpec(variables=coords, positive=True, constraints=((coords, Fraction(level)),), seed=seed)

    def fn(point):
        l2, m2 = apply_r(inst, point, point)
        if l2 != point or m2 != point:
            return {"l": point, "l'": l2, "m'": m2}
        return None

    return pointwise_check(fn, spec, trials)


# --- invariance of product epsilon systems ------------------------------------------


def product_systems(n: int, ll: Fraction, lr: Fraction) -> tuple[EpsilonSystem, EpsilonSystem]:
    """Product epsilon systems on (left x right) and (right x left)."""
    from .epsilon import restrict_model

    chain = tuple(range(1, n + 1))
    base = affine_a_local_system(n)
    left = restrict_model(affine_a_model(n, ll), chain)
    right = restrict_model(affine_a_model(n, lr), chain)
    return product_epsilon(base, base, left), product_epsilon(base, base, right)


def check_epsilon_invariance(
    n: int, ll: Fraction, lr: Fraction, trials: int = 100, seed: int = 0, starred: bool = False
) -> CheckOutcome:
    """Every interval's product eps (or eps*) is constant along the map."""
    inst = build_r_map(n, ll, lr)
    sys_lm, sys_ml = product_systems(n, ll, lr)

    def fn(point):
        l, m = _split_pair_point(point, n)
        image = pack_pair(*apply_r(inst, l, m))
        for interval in sys_lm.intervals():
            before = sys_lm.star_at(*interval) if starred else sys_lm.eps_at(*interval)
            after = sys_ml.star_at(*interval) if starred else sys_ml.eps_at(*interval)
            lhs = evaluate(before, point)
            rhs = evaluate(after, image)
            if lhs != rhs:
                return {"interval": interval, "starred": starred, "l": l, "m": m, "lhs": lhs, "rhs": rhs}
        return None

    return pointwise_check(fn, _pair_spec(n, ll, lr, seed), trials)


# --- uniqueness probe ---------------------------------------------------------------


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of the homogeneous fixed-point probe.

    The probe (1) verifies the swap at the homogeneous pair, (2) eliminates
    the invariance equations down to one linear condition and confirms the
    unique solution is the swapped pair, and (3) checks that random
    constraint-preserving perturbations each violate at least one equation.
    Global uniqueness additionally needs the dense-orbit property of the
    product crystal, which is assumed, not derived here.
    """

    n: int
    a: Fraction
    b: Fraction
    fixed_point_verified: bool
    pair_product_forced: Fraction | None
    linear_coefficient: Fraction | None
    forced_left: tuple[Fraction, ...] | None
    forced_right: tuple[Fraction, ...] | None
    solution_matches_swap: bool
    equations_hold_at_solution: bool
    perturbation_trials: int
    perturbations_all_violate: bool
    orbit_density_assumed: bool = True


def _invariance_equations(n: int, a: Fraction, b: Fraction, l2: dict, m2: dict) -> list[bool]:
    """The displayed equation system at the homogeneous pair.

    Returns one boolean per equation: eps_i preserved (i = 1..n), gamma_i
    trivial (i = 1..n), the adjacent starred pairs (i = 1..n-1), and the
    two level constraints.
    """
    out = []
    for i in range(1, n + 1):
        lhs = l2[i + 1] + l2[i + 1] * m2[i + 1] / l2[i]
        out.append(lhs == a + b)
    for i in range(1, n + 1):
        out.append(l2[i] * m2[i] == l2[i + 1] * m2[i + 1])
    for i in range(1, n):
        out.append(l2[i + 2] * m2[i + 2] == a * b)
    out.append(fraction_product(l2.values()) == b ** (n + 1))
    out.append(fraction_product(m2.values()) == a ** (n + 1))
    return out


def uniqueness_probe(n: int, a: Fraction, b: Fraction, perturbations: int = 50, seed: int = 0) -> UniquenessReport:
    """Solve the invariance equations at the homogeneous point by elimination.

    Writing x_i for the left output coordinates, the pair products are
    forced to the constant a*b, the eps equations become the recursion
    x_{i+1} = a + b - a*b/x_i, and iterating that recursion makes the
    level constraint a *linear* equation in x_1 with coefficient
    (a^{n+1} - b^{n+1})/(a - b) != 0; its unique root is x_1 = b.  Needs
    n >= 2 so that at least one starred-pair equation pins the product.
    """
    a, b = Fraction(a), Fraction(b)
    if n < 2:
        raise ValueError("the probe needs n >= 2")
    if a <= 0 or b <= 0:
        raise ValueError("parameters must be positive rationals")

    fixed = check_fixed_point(n, a, b).ok

    if a == b:
        hom = tuple(Fraction(a) for _ in range(n + 1))
        l2 = {k: a for k in range(1, n + 2)}
        return UniquenessReport(
            n, a, b, fixed, a * b, None, hom, hom, True,
            all(_invariance_equations(n, a, b, l2, l2)),
            0, True,
        )

    # Linear recursion u_{k+1} = (a+b) u_k - ab u_{k-1}, tracked as
    # (constant, coefficient of x1); the product of the orbit is u_{n+1}.
    pair_product = a * b
    u_prev = (Fraction(1), Fraction(0))
    u_cur = (Fraction(0), Fraction(1))
    for _ in range(n):
        u_next = tuple((a + b) * c - a * b * p for c, p in zip(u_cur, u_prev))
        u_prev, u_cur = u_cur, u_next
    alpha, beta = u_cur
    if beta == 0:
        raise ArithmeticError("degenerate elimination; the linear coefficient vanished")
    x1 = (b ** (n + 1) - alpha) / beta

    left = [x1]
    for _ in range(n):
        left.append(a + b - a * b / left[-1])
    right = [pair_product / x for x in left]
    l2 = {k: v for k, v in zip(range(1, n + 2), left)}
    m2 = {k: v for k, v in zip(range(1, n + 2), right)}
    matches = all(v == b for v in left) and all(v == a for v in right)
    holds = all(_invariance_equations(n, a, b, l2, m2))

    rng = random.Random(seed)
    all_violate = True
    for _ in range(perturbations):
        pl = dict(l2)
        pm = dict(m2)
        tau = Fraction(rng.randint(2, 9), rng.randint(10, 19))
        p, q = rng.sample(range(1, n + 2), 2)
        pl[p] *= tau
        pl[q] /= tau
        if rng.random() < 0.5:
            sigma = Fraction(rng.randint(2, 9), rng.randint(10, 19))
            p, q = rng.sample(range(1, n + 2), 2)
            pm[p] *= sigma
            pm[q] /= sigma
        if (pl, pm) == (l2, m2):
            continue
        if all(_invariance_equations(n, a, b, pl, pm)):
            all_violate = False
            break

    return UniquenessReport(
        n, a, b, fixed, pair_product, beta, tuple(left), tuple(right),
        matches, holds, perturbations, all_violate,
    )
