"""Ultra-discretization: the model layer's subtraction-free programs read in (max, +).

The reading is the (max, +) convention: products become sums, quotients
differences, sums maxima, positive constants 0, and an integer power k
becomes k times its base.  Named parameters stay variables.  Only
subtraction-free programs are read; anything containing a difference or
a negative constant is refused with the path of the offending node.

This module says what the tropical checks are and runs none itself.
Every ud check but one is the rational layer's identity rows read in
(max, +): :data:`ROWS` maps each check id to a function of the size n
and the box bound, which gives the plan (:class:`gcrystal.crystal.Plan`)
of its rational twin's rows on :func:`unit_torus` or its square, over an
integer :class:`gcrystal.arith.Box`; :func:`crystal.check_identity_rows`
reads rows on a box in (max, +).  So a shadow cannot drift from the
identity it reads.  ``ud-dichotomy`` is not an identity: :func:`check_dichotomy` hands
:func:`expr.pointwise_check` a box and a body that runs a batch by sampled
index, the product split and then :func:`shadow_columns` (the torus action)
through :func:`expr.run_maxplus_columns`.  Only single points, in
:func:`trop_eval` and the combinatorial R of ``gcrystal ud rmap``, run
through :func:`expr.run_maxplus`; :func:`tropicalize` writes the reading
of an expression out as text for ``gcrystal ud trop``.
"""

from __future__ import annotations

import functools
import random
import warnings
from fractions import Fraction
from operator import ne

from .arith import Box, box_point
from .crystal import (
    LEFT_SUFFIX,
    RIGHT_SUFFIX,
    S1,
    SCALAR,
    CrystalModel,
    Plan,
    action_program,
    eps_scaling_row,
    gamma_scaling_row,
    group_law_row,
    has_eps_clause,
    pointwise_check,
    product,
    product_split_exprs,
    product_split_rows,
    word_side,
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
    UnboundVariableError,
    Var,
    certify_subtraction_free,
    compile_program,
    prod,
    render,
    run_maxplus,
    run_maxplus_columns,
    tree_program,
    var,
)
from .models import affine_a_model
from .rmap import (
    apply_r,
    braid_rows,
    build_r_map,
    commutation_rows,
    invariance_row,
    level_swap_rows,
    preserved_row,
    triple_names,
)

TropPoint = dict[str, int]


class NonUnitConstantWarning(UserWarning):
    """A positive constant other than 1 was flattened to tropical 0."""


def trop_eval(e: RatExpr, point: TropPoint) -> int:
    """Value of the subtraction-free ``e`` at an integer point, read in (max, +)."""
    return run_maxplus(tree_program(e), point)[0]


def tropicalize(e: RatExpr) -> str:
    """The (max, +) reading of the subtraction-free ``e``, written out.

    A sum reads ``max(a, b)``, a product ``a + b``, a quotient ``a - b``, a
    power k of a base ``k*base`` and a constant ``0`` (with a
    :class:`NonUnitConstantWarning` unless it is 1).  Raises
    :class:`TropicalizationError` on an expression that is not
    subtraction-free.
    """
    cert = certify_subtraction_free(e)
    if not cert:
        raise TropicalizationError(cert.blocked_path)
    return _reading(e)


def _reading(e: RatExpr) -> str:
    def parts(node: RatExpr) -> list:
        if isinstance(node, Var):
            return [node.name]
        if isinstance(node, Const):
            if node.value != 1:
                warnings.warn(f"constant {node.value} becomes tropical 0", NonUnitConstantWarning, stacklevel=5)
            return ["0"]
        if isinstance(node, Add):
            return ["max(", node.left, ", ", node.right, ")"]
        if isinstance(node, Pow):
            return [f"{node.exponent}*", *_operand(node.base)]
        return [*_operand(node.left), " + " if isinstance(node, Mul) else " - ", *_operand(node.right)]

    return render(e, parts)


def _operand(node: RatExpr) -> list:
    """An operand of a tropical sum, difference or multiple: a sum or difference goes in parentheses."""
    return ["(", node, ")"] if isinstance(node, (Mul, Div)) else [node]


# --- integer boxes -------------------------------------------------------------------


def sample_box(bounds: dict[str, tuple[int, int]], samples: int, seed: int = 0):
    """The points of :meth:`Box.draw` one at a time, ``samples`` of them from ``seed``."""
    columns = Box(bounds, seed).draw(random.Random(seed), samples)
    for j in range(samples):
        yield box_point(columns, j)


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


def shadow_columns(n: int, i: int, columns: dict[str, list[int]], width: int) -> dict[str, list[int]]:
    """The shadow of e_i^C at a batch: add C at slot i, subtract it at slot i+1 (cyclically).

    ``columns`` holds the torus coordinates and C (under ``SCALAR``).
    """
    model = unit_torus(n)
    return dict(zip(model.variables, run_maxplus_columns(action_program(model, i), columns, width)))


def apply_combinatorial_r(n: int, l: TropPoint, m: TropPoint) -> tuple[TropPoint, TropPoint]:
    """The combinatorial R at integer points: :func:`rmap.apply_r` read in (max, +).

    So each UDP_i is computed once for all 2(n+1) outputs.
    """
    return apply_r(build_r_map(n), l, m, reading=run_maxplus)


# --- the ud checks -------------------------------------------------------------------
#
# Each row check reads its rational twin's rows on the torus model at level 1
# (names l1..l{n+1}), its square (l1.x.., l1.y..) or a triple (l1.a.., l1.b..,
# l1.c..).  A builder gives (coordinates, sampled scalars, rows) at size n, and
# :func:`_on_box` makes its plan: the box is [-box, box] in every coordinate,
# then every scalar.  Outputs that share a step sit in one row, so the step
# runs once per point.


def _coords(n: int, suffix: str = "") -> tuple[str, ...]:
    return tuple(f"l{k}{suffix}" for k in range(1, n + 2))


def _pair_coords(n: int) -> tuple[str, ...]:
    return _coords(n, LEFT_SUFFIX) + _coords(n, RIGHT_SUFFIX)


def _gamma_rows(n: int):
    model = unit_torus(n)
    labels = model.cartan.labels
    return model.variables, ("s1",), [gamma_scaling_row(model, i, labels) for i in labels]


def _eps_rows(n: int):
    model = unit_torus(n)
    cartan = model.cartan
    rows = []
    for j in cartan.labels:
        rows.append(eps_scaling_row(model, j, [i for i in cartan.labels if has_eps_clause(cartan, i, j)]))
    return model.variables, ("s1",), rows


def _operator_rows(n: int):
    """The group law, and the coordinate product (the sum, in (max, +)) kept by e_i^{s1}."""
    model = unit_torus(n)
    level = (prod([var(v) for v in model.variables]),)
    rows = []
    for i in model.cartan.labels:
        rows.append(group_law_row(model, i))
        rows.append(({"i": i}, word_side(model, ((i, S1),), level), ((), level)))
    return model.variables, ("s1", "s2"), rows


def _split_rows(n: int):
    model = unit_torus(n)
    return _pair_coords(n), (SCALAR,), product_split_rows(model, model, model.cartan.labels)


def _preserved_rows(which: str):
    def build(n: int):
        model = unit_torus(n)
        z = product(model, model)  # R maps the torus square to itself
        return _pair_coords(n), (), [preserved_row(z, z, which, model.cartan.labels)]

    return build


def _commutation_rows(n: int):
    model = unit_torus(n)
    z = product(model, model)
    return _pair_coords(n), ("s1",), commutation_rows(z, z, model.cartan.labels)


def _on_box(build):
    """The plan of ``build``'s rows at size n, on the box [-box, box]: a function of (n, box)."""

    def plan(n: int, box: int) -> Plan:
        names, scalars, rows = build(n)
        return Plan(names, rows, Box(dict.fromkeys(names + scalars, (-box, box))))

    return plan


_BUILDERS = {
    "ud-gamma-shadow": _gamma_rows,
    "ud-eps-shadow": _eps_rows,
    "ud-operator-sum": _operator_rows,
    "ud-split": _split_rows,
    "ud-levels": lambda n: (_pair_coords(n), (), level_swap_rows(n)),
    "ud-r-eps": _preserved_rows("eps"),
    "ud-r-gamma": _preserved_rows("gamma"),
    "ud-r-commutation": _commutation_rows,
    "ud-r-braid": lambda n: (sum(triple_names(n), ()), (), braid_rows(n)),
    "ud-product-eps-shadow": lambda n: (_pair_coords(n), (), [invariance_row(n, Fraction(1), Fraction(1), False)]),
}
ROWS = {check: _on_box(build) for check, build in _BUILDERS.items()}


def check_dichotomy(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """At C = +-1 exactly one tensor factor changes.

    Samples the coordinates of x, then those of y, then the index i in [0, n].
    A batch runs by index (:func:`_settle_index`), and each point is settled
    as a walk over it alone settles it; an error a program raises surfaces
    when the sampling loop reaches the first point that ran it.
    """
    names = _coords(n)

    def fn(columns, width):
        outcomes = [None] * width
        groups: dict[int, list[int]] = {}
        for j, i in enumerate(columns["i"]):
            groups.setdefault(i, []).append(j)
        for i, points in groups.items():
            _settle_index(n, i, names, columns, points, outcomes)
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
            yield outcome

    domain = Box(dict.fromkeys(_pair_coords(n), (-box, box)) | {"i": (0, n)}, seed)
    return pointwise_check(fn, domain, samples)


def _settle_index(n: int, i: int, names, columns, points: list[int], outcomes: list) -> None:
    """Settle in ``outcomes`` the ``points`` of a batch that drew the index ``i``.

    For C = 1, then C = -1: the split runs once over them, then the shadow
    once per factor (C1 on x, C2 on y).  An open point fails where (C1, C2)
    is not (C, 0) or (0, C), then where not exactly one factor moved.  An
    error a program raises settles every point still open.
    """
    width = len(points)
    batch = {name: [column[j] for j in points] for name, column in columns.items()}
    x = dict(zip(names, map(batch.get, _coords(n, LEFT_SUFFIX))))
    y = dict(zip(names, map(batch.get, _coords(n, RIGHT_SUFFIX))))
    x_rows, y_rows = list(zip(*x.values())), list(zip(*y.values()))
    try:
        for c in (1, -1):
            c1, c2 = run_maxplus_columns(split_program(n, i), {**batch, SCALAR: [c] * width}, width)
            lands = sorted((c, 0))
            for j, s1, s2 in zip(points, c1, c2):
                if outcomes[j] is None and sorted((s1, s2)) != lands:
                    outcomes[j] = {"i": i, "c": c, "split": (s1, s2)}
            x2 = shadow_columns(n, i, {**x, SCALAR: c1}, width)
            y2 = shadow_columns(n, i, {**y, SCALAR: c2}, width)
            x_moved = map(ne, x_rows, zip(*map(x2.get, names)))
            y_moved = map(ne, y_rows, zip(*map(y2.get, names)))
            for j, a, b, xp, yp in zip(points, x_moved, y_moved, x_rows, y_rows):
                if outcomes[j] is None and a + b != 1:
                    outcomes[j] = {"i": i, "c": c, "x": dict(zip(names, xp)), "y": dict(zip(names, yp))}
    except (TropicalizationError, UnboundVariableError) as err:
        for j in points:
            if outcomes[j] is None:
                outcomes[j] = err
