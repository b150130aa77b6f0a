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

:func:`build_r_map` builds R once per size, and the map it returns keeps
every program compiled from its trees: :func:`apply_r` runs one of them,
exactly or in (max, +) (the combinatorial R), :func:`window_sums` another
(the pole report), and :func:`r_step` the trees renamed onto product
coordinates, the step that the checks of R's defining properties share
in identity rows run by :func:`gcrystal.crystal.check_identity_rows`:
the level swap, commutation with every one-parameter action on the
product crystal, preservation of the eps/gamma functions, the cyclic
shift and interval-wise invariance of product epsilon systems.  The
braid relation on triple products (three R steps a side) and the
diagonal rename the trees their own way.  The row builders
take the factor models and the indices they cover, so the ud suite reads
the same rows in (max, +) on the torus model at level 1.  The fixed
point is checked at one point, and the uniqueness probe solves the
invariance equations at the homogeneous point by hand and confirms the
solution is forced.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .arith import Assignment, SampleSpec, product as fraction_product
from .crystal import (
    LEFT_SUFFIX,
    RIGHT_SUFFIX,
    S1,
    CheckOutcome,
    CrystalModel,
    check_identity_rows,
    product,
    word_step,
)
from .epsilon import EpsilonSystem, product_epsilon
from .expr import Program, RatExpr, div, mul, prod, program_for, rename_variables, run, var
from .models import affine_a_local_system, affine_a_model, wrap


def p_expr(n: int, i: int) -> RatExpr:
    """P_i over the variables l1..l{n+1}, m1..m{n+1}.

    Term k is the prefix product m_{i+1}..m_{i+k} times the suffix product
    l_{i+k}..l_{i+n+1}; both come from running products, so P_i costs
    about 4(n+1) nodes instead of (n+1)(n+2).
    """
    prefixes = [var(f"m{wrap(i + 1, n)}")]
    for j in range(2, n + 2):
        prefixes.append(mul(prefixes[-1], var(f"m{wrap(i + j, n)}")))
    suffixes = [var(f"l{wrap(i + n + 1, n)}")]
    for j in range(n, 0, -1):
        suffixes.append(mul(var(f"l{wrap(i + j, n)}"), suffixes[-1]))
    suffixes.reverse()  # suffixes[k - 1] = l_{i+k} ... l_{i+n+1}
    out = mul(prefixes[0], suffixes[0])
    for k in range(1, n + 1):
        out = out + mul(prefixes[k], suffixes[k])
    return out


@dataclass(frozen=True)
class RMapInstance:
    """The component trees of the R map of size ``n``; its programs are kept on it (:func:`expr.program_for`)."""

    n: int
    p: tuple[RatExpr, ...]  # P_0 .. P_n
    l_out: tuple[RatExpr, ...]
    m_out: tuple[RatExpr, ...]


@functools.lru_cache(maxsize=None)
def build_r_map(n: int) -> RMapInstance:
    """The R map of size ``n``, built once: the components do not involve the levels."""
    p = tuple(p_expr(n, i) for i in range(n + 1))
    l_out = []
    m_out = []
    for i in range(1, n + 2):
        pi = p[i % (n + 1)]
        pim1 = p[(i - 1) % (n + 1)]
        l_out.append(div(mul(var(f"m{i}"), pi), pim1))
        m_out.append(div(mul(var(f"l{i}"), pim1), pi))
    return RMapInstance(n, p, tuple(l_out), tuple(m_out))


def r_program(r: RMapInstance) -> Program:
    """One program for all 2(n+1) outputs (l' then m'), so each P_i runs once."""
    return program_for(r, "r", r.l_out + r.m_out)


def window_sums(r: RMapInstance, l: Assignment, m: Assignment) -> list[Fraction]:
    """Exact P_0 .. P_n at the pair; R has a pole where one of them is 0."""
    return run(program_for(r, "p", r.p), _pair_env(r.n, l, m))


def _pair_env(n: int, l: dict, m: dict) -> dict:
    """The program inputs l1..l{n+1}, m1..m{n+1} of two points named l1..l{n+1}."""
    env = {f"l{k}": l[f"l{k}"] for k in range(1, n + 2)}
    env.update({f"m{k}": m[f"l{k}"] for k in range(1, n + 2)})
    return env


def apply_r(r: RMapInstance, l: dict, m: dict, reading=run) -> tuple[dict, dict]:
    """Images (l', m') of the pair, exact, or in (max, +) with ``reading=run_maxplus``.

    Both inputs and both outputs use coordinate names l1..l{n+1}.
    """
    names = [f"l{k}" for k in range(1, r.n + 2)]
    values = reading(r_program(r), _pair_env(r.n, l, m))
    return dict(zip(names, values[: r.n + 1])), dict(zip(names, values[r.n + 1 :]))


def _r_trees(n: int, left: str, right: str) -> tuple[RatExpr, ...]:
    """The trees of :func:`build_r_map` (l' then m'), reading l_k as ``l{k}{left}`` and m_k as ``l{k}{right}``."""
    r = build_r_map(n)
    onto = {}
    for k in range(1, n + 2):
        onto[f"l{k}"] = f"l{k}{left}"
        onto[f"m{k}"] = f"l{k}{right}"
    return tuple(rename_variables(e, onto) for e in r.l_out + r.m_out)


def _product_model(n: int, ll: Fraction, lr: Fraction) -> CrystalModel:
    """The product crystal of the torus models at levels ``ll`` and ``lr``; R acts on its coordinates."""
    return product(affine_a_model(n, ll), affine_a_model(n, lr))


def r_step(n: int) -> Program:
    """R as a step of identity rows on the product coordinates, l' onto ``.x`` and m' onto ``.y``.

    Renamed and compiled once, and kept on :func:`build_r_map`'s map.
    """
    return program_for(build_r_map(n), "step", lambda: _r_trees(n, LEFT_SUFFIX, RIGHT_SUFFIX))


def level_swap_rows(n: int) -> list:
    """The coordinate products of R(l, m) against those of (m, l), over the product coordinates.

    The rhs is the products of the coordinates, not the levels, so the row
    holds off the level variety too (the P_i telescope).
    """
    products = tuple(prod([var(f"l{k}{s}") for k in range(1, n + 2)]) for s in (LEFT_SUFFIX, RIGHT_SUFFIX))
    return [({}, ((r_step(n),), products), ((), products[::-1]))]


def check_level_swap(n: int, ll: Fraction, lr: Fraction, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """The coordinate products of the two output points trade places exactly."""
    z = _product_model(n, ll, lr)
    return check_identity_rows(z.variables, level_swap_rows(n), z.domain_spec(seed), trials)


def _size(model: CrystalModel) -> int:
    """The n of a torus model, which has the n + 1 coordinates l1..l{n+1}."""
    return len(model.variables) - 1


def commutation_rows(x_model: CrystalModel, y_model: CrystalModel, indices) -> list:
    """(e_i^s1 on X x Y, then R) against (R, then e_i^s1 on Y x X) for every i of ``indices``, over X x Y.

    One row per i; the rows share one R step.
    """
    r = r_step(_size(x_model))
    z_lm, z_ml = product(x_model, y_model), product(y_model, x_model)
    return [
        ({"i": i}, ((word_step(z_lm, ((i, S1),)), r), None), ((r, word_step(z_ml, ((i, S1),))), None))
        for i in indices
    ]


def check_commutation(
    n: int, ll: Fraction, lr: Fraction, i: int, trials: int = 100, seed: int = 0
) -> CheckOutcome:
    """R intertwines e_i^c on the two product crystals."""
    z = _product_model(n, ll, lr)
    rows = commutation_rows(affine_a_model(n, ll), affine_a_model(n, lr), (i,))
    return check_identity_rows(z.variables, rows, z.domain_spec(seed, extra=("s1",)), trials)


def preserved_row(x_model: CrystalModel, y_model: CrystalModel, which: str, indices):
    """eps_i (``which="eps"``) or gamma_i (``which="gamma"``) of X x Y against that of Y x X after R.

    One row for every i of ``indices``, behind one R step; outputs are named by i.
    """
    before, after = (getattr(product(a, b), which) for a, b in ((x_model, y_model), (y_model, x_model)))
    lhs = {i: before[i] for i in indices}
    rhs = {i: after[i] for i in indices}
    return {}, ((), lhs), ((r_step(_size(x_model)),), rhs)


def check_preserved(
    n: int, ll: Fraction, lr: Fraction, i: int, which: str, trials: int = 100, seed: int = 0
) -> CheckOutcome:
    """eps_i (``which="eps"``) or gamma_i (``which="gamma"``) of the product
    before R equals the same function of the swapped product after R."""
    z = _product_model(n, ll, lr)
    _, lhs, rhs = preserved_row(affine_a_model(n, ll), affine_a_model(n, lr), which, (i,))
    return check_identity_rows(z.variables, [({"i": i}, lhs, rhs)], z.domain_spec(seed), trials)


def triple_names(n: int) -> tuple[tuple[str, ...], ...]:
    """The coordinates l1.a..l{n+1}.a, l1.b.., l1.c.. of the three points of a triple."""
    return tuple(tuple(f"l{k}.{t}" for k in range(1, n + 2)) for t in "abc")


def braid_rows(n: int) -> list:
    """(R12, R23, R12) against (R23, R12, R23) over the coordinates of a triple.

    The component formulas do not involve the levels, so one R acts on
    every adjacent pair.
    """
    a, _, c = triple_names(n)
    r12 = _r_trees(n, ".a", ".b") + tuple(var(v) for v in c)
    r23 = tuple(var(v) for v in a) + _r_trees(n, ".b", ".c")
    return [({}, ((r12, r23, r12), None), ((r23, r12, r23), None))]


def check_braid(
    n: int,
    levels: tuple[Fraction, Fraction, Fraction],
    trials: int = 100,
    seed: int = 0,
) -> CheckOutcome:
    """Adjacent-pair applications in orders (12)(23)(12) and (23)(12)(23) agree.

    The levels only specify the sampling domain.
    """
    names = triple_names(n)
    spec = SampleSpec(
        variables=sum(names, ()),
        positive=True,
        constraints=tuple(zip(names, (Fraction(x) for x in levels))),
        seed=seed,
    )
    return check_identity_rows(spec.variables, braid_rows(n), spec, trials)


def check_cyclic_shift(n: int, ll: Fraction, lr: Fraction, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """Shifting every index by one commutes with the map."""
    z = _product_model(n, ll, lr)
    shift = tuple(var(f"l{wrap(k + 1, n)}{s}") for s in (LEFT_SUFFIX, RIGHT_SUFFIX) for k in range(1, n + 2))
    r = r_step(n)
    rows = [({}, ((shift, r), None), ((r, shift), None))]
    return check_identity_rows(z.variables, rows, z.domain_spec(seed), trials)


def homogeneous_point(n: int, value: Fraction) -> Assignment:
    return {f"l{k}": Fraction(value) for k in range(1, n + 2)}


def check_fixed_point(n: int, a: Fraction, b: Fraction) -> CheckOutcome:
    """R swaps the two homogeneous points exactly (levels a^{n+1}, b^{n+1})."""
    l0, m0 = homogeneous_point(n, a), homogeneous_point(n, b)
    l2, m2 = apply_r(build_r_map(n), l0, m0)
    if (l2, m2) != (m0, l0):
        return CheckOutcome(False, 1, {"l'": l2, "m'": m2})
    return CheckOutcome(True, 1)


def check_diagonal_identity(n: int, level: Fraction, trials: int = 20, seed: int = 0) -> CheckOutcome:
    """With equal levels, the map fixes every diagonal pair (l, l): R with m read as l, against (l, l)."""
    model = affine_a_model(n, level)
    coords = tuple(var(v) for v in model.variables)
    rows = [({}, ((), _r_trees(n, "", "")), ((), coords + coords))]
    return check_identity_rows(model.variables, rows, model.domain_spec(seed), trials)


# --- invariance of product epsilon systems ------------------------------------------


def product_systems(n: int, ll: Fraction, lr: Fraction) -> tuple[EpsilonSystem, EpsilonSystem]:
    """Product epsilon systems on (left x right) and (right x left)."""
    from .epsilon import restrict_model

    chain = tuple(range(1, n + 1))
    base = affine_a_local_system(n)
    left = restrict_model(affine_a_model(n, ll), chain)
    right = restrict_model(affine_a_model(n, lr), chain)
    return product_epsilon(base, base, left), product_epsilon(base, base, right)


def invariance_row(n: int, ll: Fraction, lr: Fraction, starred: bool):
    """The L x M product eps (or eps*) table at x against the M x L table at R(x), outputs named by interval."""
    sys_lm, sys_ml = product_systems(n, ll, lr)

    def table(system):
        entry = system.star_at if starred else system.eps_at
        return {J: entry(*J) for J in system.intervals()}

    return {"starred": starred}, ((), table(sys_lm)), ((r_step(n),), table(sys_ml))


def check_epsilon_invariance(
    n: int, ll: Fraction, lr: Fraction, trials: int = 100, seed: int = 0, starred: bool = False
) -> CheckOutcome:
    """Every interval's product eps (or eps*) is constant along the map: one :func:`invariance_row`."""
    z = _product_model(n, ll, lr)
    return check_identity_rows(z.variables, [invariance_row(n, ll, lr, starred)], z.domain_spec(seed), trials)


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
