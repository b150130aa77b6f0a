"""Built-in crystal models.

Three families live here:

* ``affine_a_model(n, L)``: the (n+1)-torus with coordinates l1..l{n+1}
  constrained to the exact product L, with the cyclic index-shift actions.
* ``affine_d5_model(L)``: the nine-coordinate model (l1..l5, lb4..lb1)
  whose middle actions mix a coordinate with its barred partner through
  the ratio xi_i = (l_{i+1} + c*lb_{i+1}) / (l_{i+1} + lb_{i+1}).
* ``borel_model(n)``: lower-triangular unit-determinant (n+1)x(n+1)
  matrices, written as x = x_- x_0 with unipotent coordinates u_j (first
  subdiagonal) and u_{j,k} (entry in row k+1, column j), and torus
  coordinates t_1..t_{n+1} of product 1.

The Borel action e_i^c is *derived*, not transcribed: we multiply
x_i(a) * x * x_i(b) symbolically over the expression ring, with
a = (c-1)/eps_i and b = (1/c-1)/(eps_i*gamma_i), and read the new
coordinates off the product.  The single above-diagonal entry of that
product vanishes identically; it is exposed as ``conjugation_residual``
so the test-suite can verify the vanishing rather than assume it.

:class:`BorelElement` is the numeric twin: an exact matrix of unreduced
(numerator, denominator) int pairs, built from a sampled point's drawn
pairs and checked once (lower triangular, determinant 1).  The
conjugation x_i(a) * x * x_i(b) is one row operation (a times row i+1
added to row i) and one column operation (b times column i added to
column i+1), after which the entry (i, i+1) they create must be exactly
0.  Products sum only over c <= k <= r, and a minor is computed by
fraction-free (Bareiss) elimination with row swaps, not by the
first-column expansion the eps* table is written in.  No ``Fraction``
and no float enters this independent path, against which the
``borel_*_plan`` plans of the borel-oracle suite compare the
expression-level data as identity rows
(:func:`gcrystal.crystal.check_identity_rows`): the expression side runs
a batch of points at a time, and the twin is the row's exact side, run
at each point on its drawn pairs and returning pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, prod as prod_

from .arith import PairPoint
from .crystal import (
    S1,
    SCALAR,
    CrystalModel,
    cartan_affine_a,
    cartan_affine_d5,
    Plan,
    cartan_finite_a,
    split_pair,
    word_side,
)
from .epsilon import EpsilonSystem, Interval, system_from_eps
from .expr import (
    CheckOutcome,
    RatExpr,
    add,
    const,
    div,
    mul,
    prod,
    program_for,
    sub,
    vanishes_on_domain,
    var,
)


# --- affine type-A torus model ----------------------------------------------------


def _l(k: int) -> RatExpr:
    return var(f"l{k}")


def wrap(k: int, n: int) -> int:
    """The index k of l1..l{n+1} read cyclically: l_{n+2} is l_1 and l_0 is l_{n+1}."""
    return (k - 1) % (n + 1) + 1


def affine_a_model(n: int, level: Fraction) -> CrystalModel:
    """Coordinates l1..l{n+1} with exact product ``level``; cyclic actions.

    e_i^c scales l_i by c and l_{i+1} by 1/c (indices mod n+1, with l_{n+2}
    meaning l_1), gamma_i = l_i/l_{i+1} and eps_i = l_{i+1}.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    level = Fraction(level)
    if level <= 0:
        raise ValueError("the level must be positive")
    names = tuple(f"l{k}" for k in range(1, n + 2))

    c = var(SCALAR)
    gamma = {}
    eps = {}
    actions = {}
    for i in range(n + 1):
        lo = wrap(i, n)  # coordinate scaled by c; index 0 wraps to n+1
        hi = wrap(i + 1, n)
        gamma[i] = div(_l(lo), _l(hi))
        eps[i] = _l(hi)
        row = []
        for k in range(1, n + 2):
            if k == lo:
                row.append(mul(c, _l(k)))
            elif k == hi:
                row.append(div(_l(k), c))
            else:
                row.append(_l(k))
        actions[i] = tuple(row)

    return CrystalModel(
        name=f"A{n}-affine-level-{level}",
        cartan=cartan_affine_a(n),
        variables=names,
        constraints=((names, level),),
        positive=True,
        gamma=gamma,
        eps=eps,
        actions=actions,
    )


def affine_a_local_epsilon(n: int) -> dict[Interval, RatExpr]:
    """Unstarred table of the chain 1..n inside the affine torus model.

    eps over positions [a, b] is the window product l_{a+2} ... l_{b+2};
    the starred entries generated from it vanish identically off the
    diagonal, which the suite verifies by evaluation.
    """
    table: dict[Interval, RatExpr] = {}
    for a in range(n):
        for b in range(a, n):
            table[(a, b)] = prod([_l(k) for k in range(a + 2, b + 3)])
    return table


def affine_a_local_system(n: int) -> EpsilonSystem:
    return system_from_eps(tuple(range(1, n + 1)), affine_a_local_epsilon(n))


# --- affine D5 model ---------------------------------------------------------------

_D5_VARS = ("l1", "l2", "l3", "l4", "l5", "lb4", "lb3", "lb2", "lb1")


def _xi(i: int) -> RatExpr:
    """(l_{i+1} + c*lb_{i+1}) / (l_{i+1} + lb_{i+1})."""
    top = var(f"l{i + 1}")
    bar = var(f"lb{i + 1}")
    return div(add(top, mul(var(SCALAR), bar)), add(top, bar))


def affine_d5_model(level: Fraction) -> CrystalModel:
    level = Fraction(level)
    if level <= 0:
        raise ValueError("the level must be positive")
    c = var(SCALAR)
    one = const(1)

    gamma = {
        0: div(mul(var("lb1"), var("lb2")), mul(var("l1"), var("l2"))),
        4: div(var("l4"), mul(var("l5"), var("lb4"))),
        5: div(mul(var("l4"), var("l5")), var("lb4")),
    }
    eps = {
        0: mul(var("l1"), add(div(var("l2"), var("lb2")), one)),
        4: mul(var("l5"), var("lb4")),
        5: var("lb4"),
    }
    for i in (1, 2, 3):
        gamma[i] = div(
            mul(var(f"l{i}"), var(f"lb{i + 1}")), mul(var(f"lb{i}"), var(f"l{i + 1}"))
        )
        eps[i] = mul(var(f"lb{i}"), add(div(var(f"l{i + 1}"), var(f"lb{i + 1}")), one))

    def identity_row() -> dict[str, RatExpr]:
        return {v: var(v) for v in _D5_VARS}

    actions = {}
    row = identity_row()
    xi = _xi(1)
    row["l1"] = div(var("l1"), xi)
    row["l2"] = div(mul(xi, var("l2")), c)
    row["lb2"] = mul(xi, var("lb2"))
    row["lb1"] = div(mul(c, var("lb1")), xi)
    actions[0] = tuple(row[v] for v in _D5_VARS)

    for i in (1, 2, 3):
        row = identity_row()
        xi = _xi(i)
        row[f"l{i}"] = div(mul(c, var(f"l{i}")), xi)
        row[f"l{i + 1}"] = div(mul(xi, var(f"l{i + 1}")), c)
        row[f"lb{i + 1}"] = mul(xi, var(f"lb{i + 1}"))
        row[f"lb{i}"] = div(var(f"lb{i}"), xi)
        actions[i] = tuple(row[v] for v in _D5_VARS)

    row = identity_row()
    row["l4"] = mul(c, var("l4"))
    row["l5"] = div(var("l5"), c)
    actions[4] = tuple(row[v] for v in _D5_VARS)

    row = identity_row()
    row["l5"] = mul(c, var("l5"))
    row["lb4"] = div(var("lb4"), c)
    actions[5] = tuple(row[v] for v in _D5_VARS)

    return CrystalModel(
        name=f"D5-affine-level-{level}",
        cartan=cartan_affine_d5(),
        variables=_D5_VARS,
        constraints=((_D5_VARS, level),),
        positive=True,
        gamma=gamma,
        eps=eps,
        actions=actions,
    )


D5_CHAINS = ((0, 2, 3, 4), (0, 2, 3, 5))


def d5_local_tables(chain: tuple[int, ...]) -> tuple[dict[Interval, RatExpr], dict[Interval, RatExpr]]:
    """Explicit eps/eps* tables for the two type-A chains inside the D5 model.

    Both tables are written out in closed form (window products, some with
    the ratio factor l_{k}/lb_{k} + 1); the suite cross-checks the starred
    table against the partition sums of the unstarred one.
    """
    if chain not in D5_CHAINS:
        raise ValueError(f"no built-in tables for chain {chain}")
    one = const(1)

    def ratio(k: int) -> RatExpr:
        return add(div(var(f"l{k}"), var(f"lb{k}")), one)

    def m(*names: str) -> RatExpr:
        return prod([var(v) for v in names])

    eps: dict[Interval, RatExpr] = {
        (0, 0): mul(var("l1"), ratio(2)),
        (1, 1): mul(var("lb2"), ratio(3)),
        (2, 2): mul(var("lb3"), ratio(4)),
        (0, 1): mul(m("l1", "l2"), ratio(3)),
        (1, 2): mul(m("lb2", "l3"), ratio(4)),
        (0, 2): mul(m("l1", "l2", "l3"), ratio(4)),
    }
    star: dict[Interval, RatExpr] = {
        (0, 0): eps[(0, 0)],
        (1, 1): eps[(1, 1)],
        (2, 2): eps[(2, 2)],
        (0, 1): mul(m("l1", "lb2"), ratio(3)),
        (1, 2): mul(m("lb2", "lb3"), ratio(4)),
        (0, 2): mul(m("l1", "lb2", "lb3"), ratio(4)),
    }
    if chain == (0, 2, 3, 4):
        eps.update(
            {
                (3, 3): m("l5", "lb4"),
                (2, 3): m("lb3", "l4", "l5"),
                (1, 3): m("lb2", "l3", "l4", "l5"),
                (0, 3): m("l1", "l2", "l3", "l4", "l5"),
            }
        )
        star.update(
            {
                (3, 3): m("l5", "lb4"),
                (2, 3): m("lb3", "lb4", "l5"),
                (1, 3): m("lb2", "lb3", "lb4", "l5"),
                (0, 3): m("l1", "lb2", "lb3", "lb4", "l5"),
            }
        )
    else:
        eps.update(
            {
                (3, 3): var("lb4"),
                (2, 3): m("lb3", "l4"),
                (1, 3): m("lb2", "l3", "l4"),
                (0, 3): m("l1", "l2", "l3", "l4"),
            }
        )
        star.update(
            {
                (3, 3): var("lb4"),
                (2, 3): m("lb3", "lb4"),
                (1, 3): m("lb2", "lb3", "lb4"),
                (0, 3): m("l1", "lb2", "lb3", "lb4"),
            }
        )
    return eps, star


# --- Borel model: symbolic side -----------------------------------------------------


def borel_variables(n: int) -> tuple[str, ...]:
    subdiag = tuple(f"u{j}" for j in range(1, n + 1))
    deeper = tuple(f"u{j}{k}" for j in range(1, n) for k in range(j + 1, n + 1))
    torus = tuple(f"t{j}" for j in range(1, n + 2))
    return subdiag + deeper + torus


def _u(j: int, k: int) -> RatExpr:
    return var(f"u{j}" if j == k else f"u{j}{k}")


SymMatrix = list[list[RatExpr | None]]


def _sym_identity(size: int) -> SymMatrix:
    return [[const(1) if r == c else None for c in range(size)] for r in range(size)]


def _is_one(e: RatExpr | None) -> bool:
    from .expr import Const

    return isinstance(e, Const) and e.value == 1


def _sym_matmul(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    size = len(a)
    out: SymMatrix = [[None] * size for _ in range(size)]
    for r in range(size):
        for c in range(size):
            acc: RatExpr | None = None
            for k in range(size):
                if a[r][k] is None or b[k][c] is None:
                    continue
                # unit factors come from identity entries; dropping them keeps
                # the derived coordinate maps as small as the written forms
                if _is_one(a[r][k]):
                    term = b[k][c]
                elif _is_one(b[k][c]):
                    term = a[r][k]
                else:
                    term = mul(a[r][k], b[k][c])
                acc = term if acc is None else add(acc, term)
            out[r][c] = acc
    return out


def _borel_symbolic(n: int) -> SymMatrix:
    """The full matrix x = x_- x_0 with expression entries."""
    size = n + 1
    mat: SymMatrix = [[None] * size for _ in range(size)]
    for r in range(size):
        for c in range(r + 1):
            t = var(f"t{c + 1}")
            if r == c:
                mat[r][c] = t
            else:
                mat[r][c] = mul(_u(c + 1, r), t)
    return mat


def _sym_elementary(size: int, i: int, z: RatExpr) -> SymMatrix:
    """Identity plus ``z`` at (row i, column i+1), 1-indexed."""
    out = _sym_identity(size)
    out[i - 1][i] = z
    return out


@dataclass(frozen=True)
class BorelAction:
    """Symbolically derived coordinate maps of e_i^c, plus the residual entry."""

    exprs: dict[str, RatExpr]
    residual: RatExpr  # entry (i, i+1) of the product; identically zero


def borel_action(n: int, i: int) -> BorelAction:
    size = n + 1
    c = var(SCALAR)
    eps_i = var(f"u{i}")
    phi_i = div(mul(eps_i, var(f"t{i}")), var(f"t{i + 1}"))
    a = div(sub(c, const(1)), eps_i)
    b = div(sub(div(const(1), c), const(1)), phi_i)
    y = _sym_matmul(_sym_matmul(_sym_elementary(size, i, a), _borel_symbolic(n)), _sym_elementary(size, i, b))

    for r in range(size):
        for col in range(size):
            if col > r and (r, col) != (i - 1, i):
                assert y[r][col] is None, "unexpected fill-in above the diagonal"
    residual = y[i - 1][i]
    assert residual is not None

    exprs: dict[str, RatExpr] = {}
    for j in range(1, size + 1):
        exprs[f"t{j}"] = y[j - 1][j - 1]
    for j in range(1, size):
        for k in range(j, size):
            name = f"u{j}" if j == k else f"u{j}{k}"
            exprs[name] = div(y[k][j - 1], y[j - 1][j - 1])
    return BorelAction(exprs, residual)


def borel_model(n: int) -> CrystalModel:
    """Lower-triangular unit-determinant matrices as a finite type-A crystal."""
    if n < 1:
        raise ValueError("need n >= 1")
    names = borel_variables(n)
    torus = tuple(f"t{j}" for j in range(1, n + 2))
    gamma = {i: div(var(f"t{i}"), var(f"t{i + 1}")) for i in range(1, n + 1)}
    eps = {i: var(f"u{i}") for i in range(1, n + 1)}
    actions = {}
    for i in range(1, n + 1):
        derived = borel_action(n, i).exprs
        actions[i] = tuple(derived[v] for v in names)
    return CrystalModel(
        name=f"borel-sl{n + 1}",
        cartan=cartan_finite_a(n),
        variables=names,
        constraints=((torus, Fraction(1)),),
        positive=True,
        gamma=gamma,
        eps=eps,
        actions=actions,
    )


def minor_expr(s: int, t: int) -> RatExpr:
    """First-column expansion of the minor attached to the interval [s, t].

    det M_{s,t} = u_s det M_{s+1,t} - u_{s,s+1} det M_{s+2,t} + ...
    + (-1)^{t-s} u_{s,t}, with the empty minor counting as 1.
    """
    if s > t:
        return const(1)
    positives: list[RatExpr] = []
    negatives: list[RatExpr] = []
    for k in range(s, t + 1):
        term = _u(s, k) if k == t else mul(_u(s, k), minor_expr(k + 1, t))
        ((positives, negatives)[(k - s) % 2]).append(term)
    out = positives[0]
    for term in positives[1:]:
        out = add(out, term)
    for term in negatives:
        out = sub(out, term)
    return out


def borel_epsilon_system(n: int) -> EpsilonSystem:
    """eps over [s, t] is the unipotent entry u_{s,t}; eps* is the minor.

    Chain positions (a, b) correspond to labels (a+1, b+1).  The starred
    table is the determinant expansion, an independent route that the
    checkers compare against the partition sums.
    """
    eps: dict[Interval, RatExpr] = {}
    star: dict[Interval, RatExpr] = {}
    for a in range(n):
        for b in range(a, n):
            eps[(a, b)] = _u(a + 1, b + 1)
            star[(a, b)] = minor_expr(a + 1, b + 1)
    return EpsilonSystem(tuple(range(1, n + 1)), eps, star)


# --- Borel model: numeric side ------------------------------------------------------

Pair = tuple[int, int]
ZERO: Pair = (0, 1)


def _plus_times(p: Pair, a: Pair, q: Pair) -> Pair:
    """p + a·q on unreduced pairs; equal denominators are added over once."""
    (pn, pd), (an, ad), (qn, qd) = p, a, q
    tn, td = an * qn, ad * qd
    return (pn + tn, pd) if pd == td else (pn * td + tn * pd, pd * td)


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of the square int matrix ``m``, which it overwrites, by Bareiss's fraction-free elimination.

    An entry below and right of the pivot p becomes (entry·p − left·above)
    / (the previous pivot), exactly.  A zero pivot is swapped with the
    first lower row nonzero in its column, flipping the sign; none gives 0.
    """
    size, sign, last = len(m), 1, 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        top, p = m[col], m[col][col]
        for row in m[col + 1 :]:
            left = row[col]
            row[col + 1 :] = [(e * p - left * a) // last for e, a in zip(row[col + 1 :], top[col + 1 :])]
        last = p
    return sign * last


class BorelElement:
    """An exact lower-triangular matrix of determinant 1, each entry an unreduced int pair (no gcd).

    Building one checks it once: square, nonzero denominators, numerator
    0 above the diagonal, and ∏ diagonal numerators == ∏ diagonal
    denominators.  The product and the action of checked elements are
    built without a second check.
    """

    def __init__(self, mat: tuple[tuple[Pair, ...], ...]):
        num = den = 1
        for r, row in enumerate(mat):
            if len(row) != len(mat):
                raise ValueError("matrix must be square")
            nums, dens = zip(*row)
            if 0 in dens:
                raise ValueError("an entry has denominator 0")
            if any(nums[r + 1 :]):
                raise ValueError("matrix must be lower triangular")
            num, den = num * nums[r], den * dens[r]
        if num != den:
            raise ValueError(f"determinant must be 1, got {num}/{den}")
        self.mat = mat

    @classmethod
    def _checked(cls, mat) -> "BorelElement":
        """An element whose shape and determinant its construction guarantees."""
        element = cls.__new__(cls)
        element.mat = mat
        return element

    @cached_property
    def lower(self) -> tuple[tuple[Pair, ...], ...]:
        """x_-, built once per element: entry (r, c) of x over entry (c, c), as a pair."""
        mat, rows = self.mat, []
        for r, row in enumerate(mat):
            below = [(n * mat[c][c][1], d * mat[c][c][0]) for c, (n, d) in enumerate(row[:r])]
            # a tuple of a list, not of a generator: CPython resizes a tuple
            # grown from a generator in place, so it misses the per-size free
            # list it is returned to, which raised peak RSS by about 0.5 MB
            rows.append(tuple(below + [(1, 1)] + [ZERO] * (len(mat) - 1 - r)))
        return tuple(rows)

    def unipotent(self, r: int, c: int) -> Pair:
        """Entry (r, c) of x_-, 1-indexed; columns of x divide by the torus."""
        size = len(self.mat)
        if not (1 <= r <= size and 1 <= c <= size):
            raise ValueError(f"entry ({r}, {c}) is outside the {size}x{size} matrix")
        return self.lower[r - 1][c - 1]

    def eps_entry(self, s: int, t: int) -> Pair:
        """u_{s,t} (with u_{s,s} = u_s): the unipotent entry in row t+1, column s."""
        return self.unipotent(t + 1, s)

    def minor(self, s: int, t: int) -> Pair:
        """Determinant of the [s, t] minor of x_- (rows s+1..t+1, columns s..t), as a pair.

        Each row is scaled to integers by the product of its denominators;
        the :func:`_bareiss` determinant over the scales' product is put in
        lowest terms once, which cuts its bits about fivefold on products.
        """
        if not 1 <= s <= t + 1 <= len(self.mat):
            raise ValueError(f"[{s}, {t}] is not an interval of 1..{len(self.mat) - 1}")
        block, scale = [], 1
        for row in self.lower[s : t + 1]:
            den = prod_(d for _, d in row[s - 1 : t])
            block.append([n * den // d for n, d in row[s - 1 : t]])
            scale *= den
        det = _bareiss(block)
        g = gcd(det, scale)
        return det // g, scale // g

    def to_point(self) -> PairPoint:
        """The coordinates u_j, u_{j,k} and t_j of the element, as pairs."""
        names = _entry_names(len(self.mat) - 1)
        point = {name: self.lower[r][c] for r, row in enumerate(names) for c, name in enumerate(row)}
        return point | {f"t{j + 1}": row[j] for j, row in enumerate(self.mat)}


@cache
def _entry_names(n: int) -> tuple[tuple[str, ...], ...]:
    """Row r of x below the diagonal: the coordinate u_{c+1,r} that entry (r, c) carries."""
    return tuple(tuple(f"u{c + 1}" if r == c + 1 else f"u{c + 1}{r}" for c in range(r)) for r in range(n + 1))


def borel_from_point(point: PairPoint, n: int) -> BorelElement:
    """The element x = x_- x_0 at a drawn point: entry (r, c) is u_{c+1,r}·t_{c+1} below the diagonal, t_{c+1} on it."""
    torus = [point[f"t{c}"] for c in range(1, n + 2)]
    rows = []
    for r, names in enumerate(_entry_names(n)):
        below = [(un * tn, ud * td) for (un, ud), (tn, td) in zip(map(point.__getitem__, names), torus)]
        rows.append(tuple(below + [torus[r]] + [ZERO] * (n - r)))
    return BorelElement(tuple(rows))


def borel_multiply(x: BorelElement, y: BorelElement) -> BorelElement:
    """Product of two lower-triangular matrices: entry (r, c) sums only k in [c, r]; above the diagonal is 0."""
    if len(x.mat) != len(y.mat):
        raise ValueError("size mismatch")
    b, rows = y.mat, []
    for r, ar in enumerate(x.mat):
        row = []
        for c in range(r + 1):
            acc = ZERO
            for k in range(c, r + 1):
                acc = _plus_times(acc, ar[k], b[k][c])
            row.append(acc)
        rows.append(tuple(row + [ZERO] * (len(b) - 1 - r)))
    return BorelElement._checked(tuple(rows))


def borel_apply_e_matrix(x: BorelElement, i: int, c: Pair) -> BorelElement:
    """Numeric twin of the symbolic action, x_i(a) * x * x_i(b) done as one row
    and one column operation on pairs; the above-diagonal entry (i, i+1) that
    they create is computed and must cancel exactly.  A zero eps_i, c or
    torus entry raises ``ZeroDivisionError``.
    """
    (en, ed), (cn, cd) = x.unipotent(i + 1, i), c
    (pn, pd), (qn, qd) = x.mat[i - 1][i - 1], x.mat[i][i]
    if not (en and cn and pn and qn):
        raise ZeroDivisionError("action undefined at this point")
    a = ((cn - cd) * ed, cd * en)  # (c - 1)/eps_i
    b = ((cd - cn) * ed * pd * qn, cn * en * pn * qd)  # (1/c - 1)/(eps_i gamma_i), gamma_i = x_ii/x_{i+1,i+1}
    y = [list(row) for row in x.mat]
    upper, lower = y[i - 1], y[i]
    for col in range(i + 1):  # row i+1 is zero right of the diagonal
        upper[col] = _plus_times(upper[col], a, lower[col])
    for row in y[i - 1 :]:  # column i is zero above row i
        row[i] = _plus_times(row[i], b, row[i - 1])
    if upper[i][0] != 0:
        raise AssertionError("conjugation residual did not vanish")
    upper[i] = ZERO
    return BorelElement._checked(tuple(map(tuple, y)))


# --- Borel model: symbolic side against numeric side -------------------------------
#
# Each check takes a ``borel_model(n)`` and compares the expression data with
# exact matrix arithmetic on :class:`BorelElement` at sampled points; all but
# the residual are plans.


def check_borel_residual(model: CrystalModel, i: int, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """The above-diagonal entry created by the conjugation vanishes identically."""
    residual = borel_action(len(model.cartan.labels), i).residual
    return vanishes_on_domain(residual, model.domain_spec(seed, extra=(SCALAR,)), trials)


def borel_matrix_action_plan(model: CrystalModel, i: int) -> Plan:
    """The expression-level action equals the numeric elementary-matrix conjugation (c = s1).

    One row over the coordinates: the e_i step against the exact side
    :func:`borel_apply_e_matrix`, whose ``ZeroDivisionError`` is a pole.
    """
    n = len(model.cartan.labels)

    def via_matrix(point):
        image = borel_apply_e_matrix(borel_from_point(point, n), i, point["s1"]).to_point()
        return [image[v] for v in model.variables]

    return model.plan([({"i": i}, word_side(model, ((i, S1),)), via_matrix)], ("s1",))


def borel_display_plan(model: CrystalModel, i: int) -> Plan:
    """Frozen closed forms of the transformed coordinates, against the image of e_i^c (c = s1).

    One row, its outputs named by the coordinates: u_i, t_i, t_{i+1}, the
    row slots u_{j,i-1} (j < i), then the column slots u_{i+1,k} and
    u_{i,k} (k > i).
    """
    n = len(model.cartan.labels)
    c, ui = S1, _u(i, i)
    forms = {f"u{i}": ui / c, f"t{i}": c * var(f"t{i}"), f"t{i + 1}": var(f"t{i + 1}") / c}
    for j in range(1, i):
        forms[_u(j, i - 1).name] = _u(j, i - 1) + (c - 1) * _u(j, i) / ui
    for k in range(i + 1, n + 1):
        forms[_u(i + 1, k).name] = c * (_u(i + 1, k) + (1 / c - 1) * _u(i, k) / ui)
        forms[_u(i, k).name] = _u(i, k) / c
    image = word_side(model, ((i, S1),), {v: var(v) for v in forms})
    return model.plan([({"i": i}, image, ((), forms))], ("s1",))


def borel_table_plan(model: CrystalModel, table: EpsilonSystem, starred: bool, pair: CrystalModel | None) -> Plan:
    """Every interval [s, t] of ``table`` against the matrix it describes.

    eps_[s,t] must equal the unipotent entry u_{s,t} and eps*_[s,t] the
    minor determinant.  With ``pair``, the crystal ``product(model,
    model)``, the points are its pairs (x, y) and the matrix is the exact
    product of their elements.  One row: the intervals' program, cached
    on the table per ``starred``, against the exact side that reads the
    matrix; a failing ``output`` is the interval's place in
    :meth:`EpsilonSystem.intervals`.
    """
    n = len(model.cartan.labels)
    names = model.variables
    intervals = table.intervals()
    entry = table.star_at if starred else table.eps_at
    program = program_for(table, ("intervals", starred), lambda: [entry(a, b) for a, b in intervals])

    def via_matrix(point):
        if pair:
            x, y = split_pair(point, names, names)
            element = borel_multiply(borel_from_point(x, n), borel_from_point(y, n))
        else:
            element = borel_from_point(point, n)
        value = element.minor if starred else element.eps_entry
        return [value(a + 1, b + 1) for a, b in intervals]

    return (pair or model).plan([({}, ((), program), via_matrix)])


def borel_mult_eps_plan(model: CrystalModel, pair: CrystalModel) -> Plan:
    """eps_i(x y) = eps_i(x) + eps_i(y)/gamma_i(x) for exact matrix products.

    One row over i: the eps_i of ``pair``, the crystal ``product(model,
    model)``, against the exact side, the entry u_i of the product matrix.
    """
    n = len(model.cartan.labels)

    def via_matrix(point):
        x, y = split_pair(point, model.variables, model.variables)
        element = borel_multiply(borel_from_point(x, n), borel_from_point(y, n))
        return [element.eps_entry(i, i) for i in pair.cartan.labels]

    return pair.plan([({}, ((), {i: pair.eps[i] for i in pair.cartan.labels}), via_matrix)])


# --- model registry for the CLI ------------------------------------------------------


def build_named_model(name: str, n: int = 2, level: Fraction = Fraction(4)) -> CrystalModel:
    if name == "a-affine":
        return affine_a_model(n, level)
    if name == "d5-affine":
        return affine_d5_model(level)
    if name == "borel":
        return borel_model(n)
    raise ValueError(f"unknown model {name!r}; choose a-affine, d5-affine or borel")
