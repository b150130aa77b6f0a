"""Geometric crystals over exact rationals.

A crystal model is a named variety (variable list plus exact product
constraints) carrying Cartan data and, for each index ``i``, three pieces
of expression data:

* ``gamma[i]`` and ``eps[i]``: rational functions of the coordinates;
* ``actions[i]``: one expression per coordinate, over the coordinates
  plus the distinguished scalar variable ``c``, giving the one-parameter
  action ``e_i^c``.

Everything is an immutable expression tree, so the same data feeds exact
pointwise checking here and the tropicalization pass elsewhere.  Every
identity check here is a list of rows ``(label, lhs, rhs)``, each side a
list of coordinate-map steps (a word of actions is one step) and the
trees read at the last image, or, on the right, an exact side: a
function of the rational point, such as the matrix twin of
:mod:`gcrystal.models`.  :func:`row_plan` compiles the rows once,
and :func:`check_identity_rows`, the one row runner, reads the plan as
the domain it samples says: exactly at the rational points of a
:class:`SampleSpec`, in (max, +) at the integer points of a
:class:`Box` (the ud checks).  Either reading runs a batch of points at
a time through :func:`pointwise_check` (the one sampled-check loop,
defined in :mod:`gcrystal.expr` and re-exported here), each step and
tree program once per batch, and returns the :class:`CheckOutcome` that
a walk over single points gives.  Row
builders such as :func:`gamma_scaling_row` take the indices they cover,
so the ud checks read the same rows as the rational ones, with the
outputs that share a step in one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod as prod_
from typing import Mapping

from .arith import Assignment, Box, SampleSpec, fraction_point, point_at
from .expr import (  # CheckOutcome and pointwise_check are re-exported
    POLE,
    CheckOutcome,
    EvalDomainError,
    Program,
    RatExpr,
    add,
    compile_program,
    const,
    div,
    mul,
    pointwise_check,
    pow_,
    prod,
    program_for,
    rename_variables,
    run,
    run_columns,
    run_maxplus_columns,
    run_reduced_columns,
    settle_maxplus_row,
    settle_row,
    substitute,
    var,
)

SCALAR = "c"  # reserved action-parameter name; never a coordinate
S1, S2 = var("s1"), var("s2")  # the sampled group parameters of the identity rows


class CartanError(ValueError):
    """Matrix fails the generalized-Cartan conditions, or labels mismatch."""


@dataclass(frozen=True)
class CartanData:
    """An index set with a generalized Cartan matrix over it."""

    labels: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise CartanError("duplicate labels")
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise CartanError("matrix shape does not match the label count")
        for p in range(n):
            if self.rows[p][p] != 2:
                raise CartanError("diagonal entries must equal 2")
            for q in range(n):
                if p != q and self.rows[p][q] > 0:
                    raise CartanError("off-diagonal entries must be nonpositive")
                if (self.rows[p][q] == 0) != (self.rows[q][p] == 0):
                    raise CartanError("zero pattern must be symmetric")

    def a(self, i: int, j: int) -> int:
        return self.rows[self.labels.index(i)][self.labels.index(j)]


def _cartan_from_edges(labels: tuple[int, ...], edges) -> CartanData:
    """The Cartan data of the diagram ``edges`` on ``labels``: a_pp = 2, a_pq = -(number of edges joining p and q)."""
    rows = tuple(tuple(2 if p == q else -sum({p, q} == {a, b} for a, b in edges) for q in labels) for p in labels)
    return CartanData(labels, rows)


def cartan_finite_a(n: int) -> CartanData:
    """Type-A chain on labels 1..n: the path i -- i+1."""
    return _cartan_from_edges(tuple(range(1, n + 1)), [(i, i + 1) for i in range(1, n)])


def cartan_affine_a(n: int) -> CartanData:
    """Affine (cyclic) type-A data on labels 0..n: the cycle i -- i+1 mod n+1.

    At n = 1 the cycle joins 0 and 1 twice, the doubled bond.
    """
    if n < 1:
        raise CartanError("affine type A needs n >= 1")
    return _cartan_from_edges(tuple(range(n + 1)), [(i, (i + 1) % (n + 1)) for i in range(n + 1)])


_D5_EDGES = ((0, 2), (1, 2), (2, 3), (3, 4), (3, 5))


def cartan_affine_d5() -> CartanData:
    """Affine D-type data on labels 0..5 (two forks glued to a short chain)."""
    return _cartan_from_edges(tuple(range(6)), _D5_EDGES)


@dataclass(frozen=True)
class CrystalModel:
    """A variety with per-index actions and the functions gamma_i, eps_i."""

    name: str
    cartan: CartanData
    variables: tuple[str, ...]
    constraints: tuple[tuple[tuple[str, ...], Fraction], ...]
    positive: bool
    gamma: Mapping[int, RatExpr]
    eps: Mapping[int, RatExpr]
    actions: Mapping[int, tuple[RatExpr, ...]]

    def __post_init__(self):
        if SCALAR in self.variables:
            raise ValueError(f"{SCALAR!r} is reserved for the action parameter")
        for i in self.cartan.labels:
            if len(self.actions[i]) != len(self.variables):
                raise ValueError(f"action for index {i} must cover every variable")

    def domain_spec(self, seed: int, extra: tuple[str, ...] = ()) -> SampleSpec:
        """Sampling spec for the model's domain, optionally with scalar slots.

        Extra names (action parameters like ``c``) are sampled positive along
        with the coordinates: positive points are dense in the domain and keep
        the rational actions pole-free almost always.
        """
        return SampleSpec(
            variables=self.variables + tuple(extra),
            positive=self.positive,
            constraints=self.constraints,
            seed=seed,
        )


def apply_e(model: CrystalModel, i: int, c: Fraction, x: Assignment) -> Assignment:
    """One-parameter action: evaluate the action family at ``c`` and ``x``.

    All coordinates come from one program per model and index.
    """
    if c == 0:
        raise ValueError("the action parameter must be nonzero")
    env = dict(x)
    env[SCALAR] = c
    return dict(zip(model.variables, run(action_program(model, i), env)))


def action_program(model: CrystalModel, i: int) -> Program:
    """The program of the action family ``actions[i]``, compiled once per model and index."""
    return program_for(model, ("action", i), model.actions[i])


def apply_word(model: CrystalModel, word, x: Assignment) -> Assignment:
    """Apply a sequence of ``(index, parameter)`` actions, first entry first."""
    for i, c in word:
        x = apply_e(model, i, c, x)
    return x


# --- identity rows ---------------------------------------------------------------


def compose_word(model: CrystalModel, word) -> tuple[RatExpr, ...]:
    """The coordinates of the image of ``word`` as trees over the coordinates and the parameters' scalars."""
    coords = tuple(var(v) for v in model.variables)
    for i, parameter in word:
        env = dict(zip(model.variables, coords))
        env[SCALAR] = parameter
        coords = tuple(substitute(e, env) for e in model.actions[i])
    return coords


def word_step(model: CrystalModel, word) -> Program:
    """The step that acts with ``word`` on ``model``: :func:`compose_word`'s program, compiled once per model and word."""
    return program_for(model, ("word", word), lambda: compose_word(model, word))


def word_side(model: CrystalModel, word, trees=None):
    """The side that acts with ``word`` on ``model`` as one step, then reads ``trees``."""
    return (word_step(model, word),), trees


def row_plan(names: tuple[str, ...], rows) -> list:
    """The identity ``rows`` over the coordinates ``names``, compiled for either reading.

    A row is ``(label, lhs, rhs)`` and a side is ``(steps, trees)``.  A
    step is a coordinate map, one tree per name over the coordinates and
    the sampled scalars: a word of actions (:func:`word_step`), or the R
    map.  ``trees`` are read at the last image; they are a tuple, a
    mapping from output names to trees, a :class:`Program`, or ``None``
    for the coordinates.  The rhs may instead be an exact side (see
    :func:`exact_columns`), kept as it is in the plan.  Each entry of the
    plan is ``(label, lhs, rhs, outputs)`` with a side ``(step programs,
    tree program)``; the outputs take the lhs's names (``names`` for
    ``None``, else ``None``).  Every distinct step and tree object is
    compiled once per plan.
    """
    coords = tuple(var(v) for v in names)
    programs: dict[int, Program] = {}

    def program(trees) -> Program:
        key = id(trees)
        if key not in programs:
            roots = trees.values() if isinstance(trees, dict) else trees
            programs[key] = trees if isinstance(trees, Program) else compile_program(roots)
        return programs[key]

    def compiled(side):
        steps, trees = side
        return [program(step) for step in steps], program(coords if trees is None else trees)

    def output_names(trees):
        return names if trees is None else tuple(trees) if isinstance(trees, dict) else None

    plan = []
    for label, lhs, rhs in rows:
        left, right = compiled(lhs), rhs if callable(rhs) else compiled(rhs)
        if not callable(right) and len(left[1].outputs) != len(right[1].outputs):
            raise ValueError(f"the sides have {len(left[1].outputs)} and {len(right[1].outputs)} outputs")
        plan.append((label, left, right, output_names(lhs[1])))
    return plan


def exact_columns(fn, count: int, columns, width: int, outcomes: list):
    """The ``count`` outputs of the exact side ``fn``, as :func:`run_columns` gives them, at the points still open.

    ``fn`` reads a point as ``Fraction`` values and returns one value per
    output; a ``ZeroDivisionError`` or :class:`EvalDomainError` marks a
    pole.  It runs where ``outcomes`` is ``None``; elsewhere the entries
    are 0/1 and mean nothing.
    """
    values, poles = [], set()
    for j, outcome in enumerate(outcomes):
        value = [0] * count
        if outcome is None:
            try:
                value = fn(fraction_point(point_at(columns, j)))
            except (ZeroDivisionError, EvalDomainError):
                poles.add(j)
        if len(value) != count:
            raise ValueError(f"the exact side gave {len(value)} values for {count} outputs")
        values.append(value)
    outputs = list(zip(*values))
    return [[v.numerator for v in out] for out in outputs], [[v.denominator for v in out] for out in outputs], poles


def check_identity_rows(names: tuple[str, ...], rows, domain: SampleSpec | Box, trials: int) -> CheckOutcome:
    """Run the identity ``rows`` (see :func:`row_plan`) over ``names`` at ``trials`` points of ``domain``.

    The plan runs a batch of points at a time through
    :func:`pointwise_check`, each program once per batch, in the reading
    the domain picks.  At the rational points of a :class:`SampleSpec`
    each step runs to coordinate columns in lowest terms
    (:func:`run_reduced_columns`) that the next one reads, and the trees
    to unreduced columns that :func:`settle_row` compares; ``Fraction``
    values are built only for a witness and for an exact side.  At the
    integer points of a :class:`Box` every program runs unreduced in
    (max, +) (:func:`run_maxplus_columns`), :func:`settle_maxplus_row`
    compares, and an exact side, which has no (max, +) reading, is refused
    with ``ValueError``.  At each point the first row that poles or
    differs there settles it; a failing row's witness is
    ``{**label, output, point, lhs, rhs}``.
    """
    plan = row_plan(names, rows)

    def rational_side(steps, trees, columns, width):
        env, poles = columns, set()
        for step in steps:
            image, hit = run_reduced_columns(step, env, width)
            env = {**env, **dict(zip(names, image))}
            poles |= hit
        nums, dens, hit = run_columns(trees, env, width)
        return nums, dens, poles | hit

    def maxplus_side(steps, trees, columns, width):
        env = columns
        for step in steps:
            env = {**env, **dict(zip(names, run_maxplus_columns(step, env, width)))}
        return run_maxplus_columns(trees, env, width)

    if isinstance(domain, Box):
        if any(callable(rhs) for _, _, rhs, _ in plan):
            raise ValueError("an exact side has no (max, +) reading")
        side, settle = maxplus_side, settle_maxplus_row
    else:
        side, settle = rational_side, settle_row

    def fn(columns, width):
        outcomes = [None] * width
        for label, lhs, rhs, outputs in plan:
            left = side(*lhs, columns, width)
            if callable(rhs):
                right = exact_columns(rhs, len(left[0]), columns, width, outcomes)
            else:
                right = side(*rhs, columns, width)
            settle(outcomes, columns, label, left, right, outputs)
        return outcomes

    return pointwise_check(fn, domain, trials)


def tree_row(label: dict, lhs: RatExpr, rhs: RatExpr):
    """The row of the identity lhs = rhs between two trees read at the sampled point."""
    return label, ((), (lhs,)), ((), (rhs,))


def check_action_identity(model: CrystalModel, i: int, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """e_i^1 must fix every point."""
    rows = [({"i": i}, word_side(model, ((i, const(1)),)), ((), None))]
    return check_identity_rows(model.variables, rows, model.domain_spec(seed), trials)


def group_law_row(model: CrystalModel, i: int):
    """e_i^{s2} then e_i^{s1} against e_i^{s1 s2}, over the coordinates."""
    return {"i": i}, word_side(model, ((i, S2), (i, S1))), word_side(model, ((i, mul(S1, S2)),))


def check_group_law(model: CrystalModel, i: int, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """e_i^{c1} e_i^{c2} = e_i^{c1 c2}."""
    rows = [group_law_row(model, i)]
    return check_identity_rows(model.variables, rows, model.domain_spec(seed, extra=("s1", "s2")), trials)


def check_domain_preserved(model: CrystalModel, i: int, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """Every product constraint of the domain survives e_i^c exactly (c = s1), and no image coordinate is 0.

    No identity, for the nonzero clause: e_i's program runs once per batch,
    and both clauses read the reduced image pairs.
    """
    program = action_program(model, i)

    def fn(columns, width):
        image, poles = run_reduced_columns(program, {**columns, SCALAR: columns["s1"]}, width)

        def outcome(j):
            if j in poles:
                return POLE
            y = {v: (num[j], den[j]) for v, (num, den) in zip(model.variables, image)}
            for subset, target in model.constraints:
                num, den = prod_(y[v][0] for v in subset), prod_(y[v][1] for v in subset)
                if num * target.denominator != target.numerator * den:
                    c = Fraction(*point_at(columns, j)["s1"])
                    return {"i": i, "c": c, "constraint": subset, "expected": target, "got": Fraction(num, den)}
            if all(num for num, _ in y.values()):
                return None
            x = fraction_point(point_at(columns, j))
            c = x.pop("s1")
            return {"i": i, "c": c, "x": x, "zero coordinate in": fraction_point(y)}

        return map(outcome, range(width))

    return pointwise_check(fn, model.domain_spec(seed, extra=("s1",)), trials)


def gamma_scaling_row(model: CrystalModel, i: int, js):
    """gamma_j(e_i^{s1} x) against s1^{a_ij} gamma_j(x) for every j of ``js``, behind one e_i step.

    Outputs are named by j.
    """
    gammas = {j: model.gamma[j] for j in js}
    expected = {j: mul(pow_(S1, model.cartan.a(i, j)), gamma) for j, gamma in gammas.items()}
    return {"i": i}, word_side(model, ((i, S1),), gammas), ((), expected)


def check_gamma_scaling(model: CrystalModel, i: int, j: int, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """gamma_j(e_i^c x) = c^{a_ij} gamma_j(x)."""
    _, lhs, rhs = gamma_scaling_row(model, i, (j,))
    rows = [({"i": i, "j": j}, lhs, rhs)]
    return check_identity_rows(model.variables, rows, model.domain_spec(seed, extra=("s1",)), trials)


def has_eps_clause(cartan: CartanData, i: int, j: int) -> bool:
    """Whether the eps scaling axiom says how e_j moves eps_i: for i = j and for orthogonal pairs."""
    return i == j or (cartan.a(i, j) == 0 and cartan.a(j, i) == 0)


def eps_scaling_row(model: CrystalModel, j: int, indices):
    """eps_i(e_j^{s1} x) against eps_i(x)/s1 (i = j) or eps_i(x) for every i of ``indices``, behind one e_j step.

    Outputs are named by i; every i must have an eps clause with j.
    """
    eps = {i: model.eps[i] for i in indices}
    expected = {i: div(e, S1) if i == j else e for i, e in eps.items()}
    return {"j": j}, word_side(model, ((j, S1),), eps), ((), expected)


def check_eps_scaling(model: CrystalModel, i: int, j: int, trials: int = 100, seed: int = 0) -> CheckOutcome:
    """eps_i(e_i^c x) = c^{-1} eps_i(x); eps_i(e_j^c x) = eps_i(x) when a_ij = a_ji = 0.

    Pairs that are neither equal nor mutually orthogonal have no clause to
    check and are refused.
    """
    if not has_eps_clause(model.cartan, i, j):
        raise ValueError("eps scaling is checked for i = j and for orthogonal pairs only")
    _, lhs, rhs = eps_scaling_row(model, j, (i,))
    rows = [({"i": i, "j": j}, lhs, rhs)]
    return check_identity_rows(model.variables, rows, model.domain_spec(seed, extra=("s1",)), trials)


# --- composition relations -------------------------------------------------------

# Composition words for the supported Cartan patterns, written in
# application order (first pair acts first).  Each entry is
# (index place, (exponent of c1, exponent of c2)).
_LEFT_WORDS = {
    (0, 0): (("j", (0, 1)), ("i", (1, 0))),
    (-1, -1): (("i", (0, 1)), ("j", (1, 1)), ("i", (1, 0))),
}
_RIGHT_WORDS = {
    (0, 0): (("i", (1, 0)), ("j", (0, 1))),
    (-1, -1): (("j", (1, 0)), ("i", (1, 1)), ("j", (0, 1))),
}


class UnsupportedCartanPattern(ValueError):
    """(a_ij, a_ji) is neither (0, 0) nor (-1, -1), the two patterns with a composition relation."""


def composition_words(i: int, j: int, a_ij: int, a_ji: int):
    """Both sides of the composition relation for the pattern (a_ij, a_ji).

    Returns two tuples of ``(index, (p, q))`` meaning "act with e_index at
    parameter c1^p c2^q", in application order.
    """
    pattern = (a_ij, a_ji)
    if pattern not in _LEFT_WORDS:
        raise UnsupportedCartanPattern(f"no composition relation for (a_ij, a_ji) = {pattern}")
    place = {"i": i, "j": j}
    left = tuple((place[p], e) for p, e in _LEFT_WORDS[pattern])
    right = tuple((place[p], e) for p, e in _RIGHT_WORDS[pattern])
    return left, right


def composition_sides(i: int, j: int, a_ij: int, a_ji: int):
    """:func:`composition_words` as words of identity rows: c1^p c2^q written over ``s1`` and ``s2``."""
    words = composition_words(i, j, a_ij, a_ji)
    return tuple(tuple((k, prod([S1] * p + [S2] * q)) for k, (p, q) in word) for word in words)


def check_composition_relation(
    model: CrystalModel, i: int, j: int, trials: int = 100, seed: int = 0
) -> CheckOutcome:
    """The braid-like relation between e_i and e_j dictated by the Cartan entries."""
    left, right = composition_sides(i, j, model.cartan.a(i, j), model.cartan.a(j, i))
    rows = [({"i": i, "j": j}, word_side(model, left), word_side(model, right))]
    return check_identity_rows(model.variables, rows, model.domain_spec(seed, extra=("s1", "s2")), trials)


def applicable_pairs(cartan: CartanData):
    """Ordered pairs (i, j), i != j, whose Cartan pattern has a composition relation."""
    out = []
    for i in cartan.labels:
        for j in cartan.labels:
            if i != j and (cartan.a(i, j), cartan.a(j, i)) in _LEFT_WORDS:
                out.append((i, j))
    return out


# --- product of crystals ----------------------------------------------------------

LEFT_SUFFIX = ".x"
RIGHT_SUFFIX = ".y"


def _rename_map(variables: tuple[str, ...], suffix: str) -> dict[str, str]:
    return {v: v + suffix for v in variables}


def pack_pair(x: Assignment, y: Assignment) -> Assignment:
    out = {k + LEFT_SUFFIX: v for k, v in x.items()}
    out.update({k + RIGHT_SUFFIX: v for k, v in y.items()})
    return out


def split_pair(point: Assignment, left_vars: tuple[str, ...], right_vars: tuple[str, ...]):
    x = {v: point[v + LEFT_SUFFIX] for v in left_vars}
    y = {v: point[v + RIGHT_SUFFIX] for v in right_vars}
    return x, y


def product(x_model: CrystalModel, y_model: CrystalModel) -> CrystalModel:
    """Product crystal on the disjoint union of coordinates.

    Left coordinates get suffix ``.x``, right ones ``.y``.  The action
    splits the parameter ``c`` into c1 (left factor) and c2 = c/c1 (right
    factor) through the eps/gamma data of the left factor.
    """
    if x_model.cartan != y_model.cartan:
        raise CartanError("factors must share the same Cartan data")
    left = _rename_map(x_model.variables, LEFT_SUFFIX)
    right = _rename_map(y_model.variables, RIGHT_SUFFIX)
    variables = tuple(left[v] for v in x_model.variables) + tuple(
        right[v] for v in y_model.variables
    )
    constraints = tuple(
        (tuple(left[v] for v in subset), target) for subset, target in x_model.constraints
    ) + tuple((tuple(right[v] for v in subset), target) for subset, target in y_model.constraints)

    gamma = {}
    eps = {}
    actions = {}
    for i in x_model.cartan.labels:
        gx = rename_variables(x_model.gamma[i], left)
        gy = rename_variables(y_model.gamma[i], right)
        ex = rename_variables(x_model.eps[i], left)
        ey = rename_variables(y_model.eps[i], right)
        gamma[i] = mul(gx, gy)
        eps[i] = add(ex, div(ey, gx))
        c1, c2 = product_split_exprs(x_model, y_model, i)
        row = [
            substitute(rename_variables(e, left), {SCALAR: c1})
            for e in x_model.actions[i]
        ] + [
            substitute(rename_variables(e, right), {SCALAR: c2})
            for e in y_model.actions[i]
        ]
        actions[i] = tuple(row)

    return CrystalModel(
        name=f"({x_model.name} x {y_model.name})",
        cartan=x_model.cartan,
        variables=variables,
        constraints=constraints,
        positive=x_model.positive and y_model.positive,
        gamma=gamma,
        eps=eps,
        actions=actions,
    )


def product_split_exprs(x_model: CrystalModel, y_model: CrystalModel, i: int):
    """The (c1, c2) expressions used by :func:`product` for index ``i``."""
    left = _rename_map(x_model.variables, LEFT_SUFFIX)
    right = _rename_map(y_model.variables, RIGHT_SUFFIX)
    ex = rename_variables(x_model.eps[i], left)
    gx = rename_variables(x_model.gamma[i], left)
    ey = rename_variables(y_model.eps[i], right)
    phi = mul(ex, gx)
    c = var(SCALAR)
    c1 = div(add(mul(c, phi), ey), add(phi, ey))
    return c1, div(c, c1)


def check_product_formula(
    z: CrystalModel, x_model: CrystalModel, y_model: CrystalModel, which: str, trials: int = 100, seed: int = 0
) -> CheckOutcome:
    """The product's gamma_i or eps_i against the formula rebuilt from the factors' renamed trees.

    ``z`` is ``product(x_model, y_model)``.  ``which="gamma"`` checks
    gamma_i(x,y) = gamma_i(x) gamma_i(y); ``which="eps"`` checks
    eps_i(x,y) = eps_i(x) + eps_i(y)/gamma_i(x).  The formula is the
    product's definition, so the sides agree as trees when :func:`product`
    is right; the check catches a bent :func:`product`.
    """
    left = _rename_map(x_model.variables, LEFT_SUFFIX)
    right = _rename_map(y_model.variables, RIGHT_SUFFIX)
    rows = []
    for i in z.cartan.labels:
        gx = rename_variables(x_model.gamma[i], left)
        if which == "gamma":
            expected = mul(gx, rename_variables(y_model.gamma[i], right))
        else:
            ey = rename_variables(y_model.eps[i], right)
            expected = add(rename_variables(x_model.eps[i], left), div(ey, gx))
        rows.append(tree_row({"i": i}, getattr(z, which)[i], expected))
    return check_identity_rows(z.variables, rows, z.domain_spec(seed), trials)


def check_product_split(
    z: CrystalModel, x_model: CrystalModel, y_model: CrystalModel, trials: int = 100, seed: int = 0
) -> CheckOutcome:
    """c1 c2 = c for the parameter split of every index of ``z = product(x_model, y_model)``."""
    rows = product_split_rows(x_model, y_model, z.cartan.labels)
    return check_identity_rows(z.variables, rows, z.domain_spec(seed, extra=(SCALAR,)), trials)


def product_split_rows(x_model: CrystalModel, y_model: CrystalModel, indices) -> list:
    """c1 c2 against c for the parameter split of every index of ``indices``, one row each.

    The rows read the coordinates of ``product(x_model, y_model)`` and the scalar c.
    """
    return [tree_row({"i": i}, mul(*product_split_exprs(x_model, y_model, i)), var(SCALAR)) for i in indices]


def check_product_associativity(
    x_model: CrystalModel, y_model: CrystalModel, z_model: CrystalModel, trials: int = 100, seed: int = 0
) -> CheckOutcome:
    """(X x Y) x Z and X x (Y x Z) agree on gammas, epsilons and actions at matched points.

    The points are those of the right association (X is "v.x", Y "v.x.y",
    Z "v.y.y"); the left association's trees are renamed onto them, and c
    onto the sampled scalar ``s1``.  Each row compares gamma_i, eps_i and
    then the coordinates of e_i^c, in that output order.
    """
    left = product(product(x_model, y_model), z_model)
    right = product(x_model, product(y_model, z_model))
    onto_right = {**dict(zip(left.variables, right.variables)), SCALAR: "s1"}
    rows = []
    for i in right.cartan.labels:
        trees = (left.gamma[i], left.eps[i], *left.actions[i])
        lhs = tuple(rename_variables(e, onto_right) for e in trees)
        rhs = (right.gamma[i], right.eps[i], *(rename_variables(e, {SCALAR: "s1"}) for e in right.actions[i]))
        rows.append(({"i": i}, ((), lhs), ((), rhs)))
    return check_identity_rows(right.variables, rows, right.domain_spec(seed, extra=("s1",)), trials)


# --- JSON manifest ----------------------------------------------------------------


def model_manifest(model: CrystalModel) -> dict:
    """JSON-ready description: variables, constraints, Cartan matrix, expression trees."""
    from .expr import to_json_obj

    return {
        "name": model.name,
        "cartan": {"labels": list(model.cartan.labels), "matrix": [list(r) for r in model.cartan.rows]},
        "variables": list(model.variables),
        "domain": {
            "positive": model.positive,
            "products": [
                {"variables": list(subset), "value": str(target)}
                for subset, target in model.constraints
            ],
        },
        "gamma": {str(i): to_json_obj(model.gamma[i]) for i in model.cartan.labels},
        "eps": {str(i): to_json_obj(model.eps[i]) for i in model.cartan.labels},
        "actions": {
            str(i): [to_json_obj(e) for e in model.actions[i]] for i in model.cartan.labels
        },
    }
