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

:class:`BorelElement` is the numeric twin: exact Fraction matrices.  The
conjugation x_i(a) * x * x_i(b) is one row operation (a times row i+1
added to row i) and one column operation (b times column i added to
column i+1), after which the entry (i, i+1) they create must be exactly
0.  Products of two elements sum only over the triangular range
c <= k <= r, and a minor determinant is computed by Gaussian elimination
with row swaps, not by the first-column expansion the eps* table is
written in.  This is the independent computation path (entries and
minor determinants of actual products) against which the
expression-level epsilon tables are checked.  The ``check_borel_*``
functions of the borel-oracle suite compare the two routes at sampled
points as identity rows (:func:`gcrystal.crystal.check_identity_rows`):
the expression side runs a batch of points at a time, and the twin is
the row's exact side, run at each point on its ``Fraction`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import Assignment, SampleSpec, sample_point
from .crystal import (
    S1,
    SCALAR,
    CrystalModel,
    cartan_affine_a,
    cartan_affine_d5,
    cartan_finite_a,
    check_identity_rows,
    product,
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

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class BorelElement:
    """An exact lower-triangular matrix of determinant 1."""

    mat: Matrix

    def __post_init__(self):
        size = self.size
        det = Fraction(1)
        for r in range(size):
            if len(self.mat[r]) != size:
                raise ValueError("matrix must be square")
            det *= self.mat[r][r]
            for c in range(r + 1, size):
                if self.mat[r][c] != 0:
                    raise ValueError("matrix must be lower triangular")
        if det != 1:
            raise ValueError(f"determinant must be 1, got {det}")

    @property
    def size(self) -> int:
        return len(self.mat)

    @property
    def n(self) -> int:
        return self.size - 1

    def torus(self) -> tuple[Fraction, ...]:
        return tuple(self.mat[j][j] for j in range(self.size))

    @cached_property
    def lower(self) -> Matrix:
        """x_-, built once per element: column c of x divided by its torus entry."""
        mat, size = self.mat, self.size
        zero, one = Fraction(0), Fraction(1)
        rows = [[row[c] / mat[c][c] for c in range(r)] + [one] + [zero] * (size - 1 - r) for r, row in enumerate(mat)]
        # tuples of lists, not of generators: CPython resizes a tuple grown
        # from a generator in place, so the tuple never comes from the
        # per-size free list it is later returned to; one such matrix per
        # element filled those lists and raised the borel-oracle peak RSS
        # by about 0.5 MB
        return tuple([tuple(row) for row in rows])

    def unipotent(self, r: int, c: int) -> Fraction:
        """Entry (r, c) of x_-, 1-indexed; columns of x divide by the torus."""
        size = len(self.mat)
        if not (1 <= r <= size and 1 <= c <= size):
            raise ValueError(f"entry ({r}, {c}) is outside the {size}x{size} matrix")
        return self.lower[r - 1][c - 1]

    def eps_entry(self, s: int, t: int) -> Fraction:
        """u_{s,t} (with u_{s,s} = u_s): the unipotent entry in row t+1, column s."""
        return self.unipotent(t + 1, s)

    def minor(self, s: int, t: int) -> Fraction:
        """Determinant of the [s, t] minor of x_- (rows s+1..t+1, columns s..t).

        Exact Gaussian elimination: a zero pivot is swapped with the first
        lower row that is nonzero in its column, flipping the sign.  Row
        updates skip the zero entries of the pivot row, so on these minors
        (zero above the superdiagonal) a step without a swap touches one
        column; nothing relies on that shape.
        """
        if not 1 <= s <= t + 1 <= self.size:
            raise ValueError(f"[{s}, {t}] is not an interval of 1..{self.n}")
        size = t - s + 1
        m = [list(row[s - 1 : t]) for row in self.lower[s : t + 1]]
        det = Fraction(1)
        for col in range(size):
            pivot = next((r for r in range(col, size) if m[r][col]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            top = m[col]
            det *= top[col]
            support = [c for c in range(col + 1, size) if top[c]]
            for r in range(col + 1, size):
                row = m[r]
                if row[col]:
                    factor = row[col] / top[col]
                    for c in support:
                        row[c] -= factor * top[c]
        return det

    def to_point(self) -> Assignment:
        out: Assignment = {}
        n = self.n
        for j in range(1, n + 1):
            out[f"u{j}"] = self.unipotent(j + 1, j)
        for j in range(1, n):
            for k in range(j + 1, n + 1):
                out[f"u{j}{k}"] = self.unipotent(k + 1, j)
        for j in range(1, n + 2):
            out[f"t{j}"] = self.mat[j - 1][j - 1]
        return out


def borel_from_point(point: Assignment, n: int) -> BorelElement:
    size = n + 1
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            if c > r:
                row.append(Fraction(0))
            elif c == r:
                row.append(point[f"t{c + 1}"])
            else:
                name = f"u{c + 1}" if r == c + 1 else f"u{c + 1}{r}"
                row.append(point[name] * point[f"t{c + 1}"])
        rows.append(tuple(row))
    return BorelElement(tuple(rows))


def borel_multiply(x: BorelElement, y: BorelElement) -> BorelElement:
    """Product of two lower-triangular matrices: entry (r, c) sums only
    k in [c, r], and every entry above the diagonal is an exact 0."""
    if x.size != y.size:
        raise ValueError("size mismatch")
    a, b = x.mat, y.mat
    size = x.size
    zero = Fraction(0)
    rows = []
    for r in range(size):
        ar = a[r]
        row = []
        for c in range(r + 1):
            acc = ar[c] * b[c][c]
            for k in range(c + 1, r + 1):
                acc += ar[k] * b[k][c]
            row.append(acc)
        row.extend([zero] * (size - 1 - r))
        rows.append(tuple(row))
    return BorelElement(tuple(rows))


def borel_apply_e_matrix(x: BorelElement, i: int, c: Fraction) -> BorelElement:
    """Numeric twin of the symbolic action, x_i(a) * x * x_i(b) done as one row
    and one column operation; the above-diagonal entry (i, i+1) that they
    create is computed and must cancel exactly."""
    eps_i = x.unipotent(i + 1, i)
    gamma_i = x.mat[i - 1][i - 1] / x.mat[i][i]
    if eps_i == 0 or gamma_i * eps_i == 0:
        raise ZeroDivisionError("action undefined at this point")
    a = (c - 1) / eps_i
    b = (1 / c - 1) / (eps_i * gamma_i)

    y = [list(row) for row in x.mat]
    upper, lower = y[i - 1], y[i]
    for col in range(i + 1):  # row i+1 is zero right of the diagonal
        upper[col] += a * lower[col]
    for row in y[i - 1 :]:  # column i is zero above row i
        row[i] += b * row[i - 1]
    if y[i - 1][i] != 0:
        raise AssertionError("conjugation residual did not vanish")
    return BorelElement(tuple(map(tuple, y)))


def borel_to_json_obj(x: BorelElement) -> list[list[str]]:
    """Dense row-major rational matrix, entries as exact fraction strings."""
    return [[str(v) for v in row] for row in x.mat]


def borel_from_json_obj(rows: list[list[str]]) -> BorelElement:
    return BorelElement(tuple(tuple(Fraction(v) for v in row) for row in rows))


def sample_borel(n: int, seed: int) -> BorelElement:
    model_spec = SampleSpec(
        variables=borel_variables(n),
        positive=True,
        constraints=((tuple(f"t{j}" for j in range(1, n + 2)), Fraction(1)),),
        seed=seed,
    )
    return borel_from_point(sample_point(model_spec), n)


# --- Borel model: symbolic side against numeric side -------------------------------
#
# Each check takes a ``borel_model(n)`` and compares the expression data with
# exact matrix arithmetic on :class:`BorelElement` at sampled points.


def check_borel_residual(model: CrystalModel, i: int, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """The above-diagonal entry created by the conjugation vanishes identically."""
    residual = borel_action(len(model.cartan.labels), i).residual
    return vanishes_on_domain(residual, model.domain_spec(seed, extra=(SCALAR,)), trials)


def check_borel_matrix_action(model: CrystalModel, i: int, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """The expression-level action equals the numeric elementary-matrix conjugation (c = s1).

    One row over the coordinates: the e_i step against the exact side
    :func:`borel_apply_e_matrix`, whose ``ZeroDivisionError`` is a pole.
    """
    n = len(model.cartan.labels)

    def via_matrix(point):
        image = borel_apply_e_matrix(borel_from_point(point, n), i, point["s1"]).to_point()
        return [image[v] for v in model.variables]

    rows = [({"i": i}, word_side(model, ((i, S1),)), via_matrix)]
    return check_identity_rows(model.variables, rows, model.domain_spec(seed, extra=("s1",)), trials)


def check_borel_display(model: CrystalModel, i: int, trials: int = 100, seed: int = 0) -> CheckOutcome:
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
    rows = [({"i": i}, word_side(model, ((i, S1),), {v: var(v) for v in forms}), ((), forms))]
    return check_identity_rows(model.variables, rows, model.domain_spec(seed, extra=("s1",)), trials)


def check_borel_table(
    model: CrystalModel,
    table: EpsilonSystem,
    starred: bool,
    pair: bool,
    trials: int = 100,
    seed: int = 0,
) -> CheckOutcome:
    """Every interval [s, t] of ``table`` against the matrix it describes.

    eps_[s,t] must equal the unipotent entry u_{s,t} and eps*_[s,t] the
    minor determinant.  With ``pair`` the points are pairs (x, y) of the
    product crystal and the matrix is the exact product of their elements.
    One row: the intervals' program, cached on the table per ``starred``,
    against the exact side that reads the matrix; a failing ``output`` is
    the interval's place in :meth:`EpsilonSystem.intervals`.
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

    space = product(model, model) if pair else model
    return check_identity_rows(space.variables, [({}, ((), program), via_matrix)], space.domain_spec(seed), trials)


def check_borel_mult_eps(model: CrystalModel, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """eps_i(x y) = eps_i(x) + eps_i(y)/gamma_i(x) for exact matrix products.

    One row over i: the product crystal's eps_i against the exact side,
    the entry u_i of the product matrix.
    """
    n = len(model.cartan.labels)
    z = product(model, model)

    def via_matrix(point):
        x, y = split_pair(point, model.variables, model.variables)
        element = borel_multiply(borel_from_point(x, n), borel_from_point(y, n))
        return [element.eps_entry(i, i) for i in z.cartan.labels]

    rows = [({}, ((), {i: z.eps[i] for i in z.cartan.labels}), via_matrix)]
    return check_identity_rows(z.variables, rows, z.domain_spec(seed), trials)


# --- model registry for the CLI ------------------------------------------------------


def build_named_model(name: str, n: int = 2, level: Fraction = Fraction(4)) -> CrystalModel:
    if name == "a-affine":
        return affine_a_model(n, level)
    if name == "d5-affine":
        return affine_d5_model(level)
    if name == "borel":
        return borel_model(n)
    raise ValueError(f"unknown model {name!r}; choose a-affine, d5-affine or borel")
