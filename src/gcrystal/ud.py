"""Ultra-discretization: the model layer's subtraction-free programs read in (max, +).

The reading is the (max, +) convention: products become sums, quotients
differences, sums maxima, positive constants 0, and an integer power k
becomes k times its base.  Named parameters stay variables.  Only
subtraction-free programs are read; anything containing a difference or
a negative constant is refused with the path of the offending node.

This module says what the tropical checks are and runs none itself.
Every ud check but one is the rational layer's identity rows read in
(max, +): :data:`ROWS` maps each check id to the row builder of its
rational twin on :func:`unit_torus` or its square, and :func:`check_rows`
hands them with an integer :class:`gcrystal.arith.Box` to
:func:`crystal.check_identity_rows`, which reads rows on a box in
(max, +).  So a shadow cannot drift from the identity it reads.
``ud-dichotomy`` is not an identity: :func:`check_dichotomy` hands a body
over :func:`shadow`, :func:`split` and the combinatorial R (the torus
action, product split and R map programs) with a box to
:func:`expr.pointwise_check`.  Single points run through
:func:`expr.run_maxplus`, and :func:`tropicalize` writes the reading of
an expression out as text for ``gcrystal ud trop``.
"""

from __future__ import annotations

import functools
import random
import warnings
from fractions import Fraction

from .arith import Box, box_point
from .crystal import (
    LEFT_SUFFIX,
    RIGHT_SUFFIX,
    S1,
    SCALAR,
    CrystalModel,
    action_program,
    check_identity_rows,
    eps_scaling_row,
    gamma_scaling_row,
    group_law_row,
    has_eps_clause,
    pack_pair,
    pointwise_check,
    product_split_exprs,
    product_split_rows,
    split_pair,
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
    Var,
    certify_subtraction_free,
    compile_program,
    prod,
    render,
    run_maxplus,
    tree_program,
    var,
)
from .models import affine_a_model
from .rmap import (
    braid_rows,
    commutation_rows,
    invariance_row,
    level_swap_rows,
    preserved_row,
    r_images,
    triple_names,
    unit_r_map,
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


def maxplus_side(names: tuple[str, ...], side, point: TropPoint) -> list[int]:
    """A compiled side ``(step programs, tree program)`` of :func:`crystal.row_plan` at ``point``, in (max, +).

    Each step's image replaces the coordinates ``names`` for the next one,
    unreduced: integers need no lowest terms.  The tests' per-point oracle
    of :func:`crystal.check_identity_rows` on a box.
    """
    steps, trees = side
    env = point
    for step in steps:
        env = {**env, **dict(zip(names, run_maxplus(step, env)))}
    return run_maxplus(trees, env)


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


# --- the ud checks -------------------------------------------------------------------
#
# Each row check reads its rational twin's rows on the torus model at level 1
# (names l1..l{n+1}), its square (l1.x.., l1.y..) or a triple (l1.a.., l1.b..,
# l1.c..).  A builder gives (coordinates, sampled scalars, rows); the box is
# [-box, box] in every coordinate, then every scalar.  Outputs that share a
# step sit in one row, so the step runs once per point.


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
        return _pair_coords(n), (), [preserved_row(model, model, which, model.cartan.labels)]

    return build


def _commutation_rows(n: int):
    model = unit_torus(n)
    return _pair_coords(n), ("s1",), commutation_rows(model, model, model.cartan.labels)


ROWS = {
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


def check_rows(check: str, n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """The rows of the ud check ``check`` at size ``n``, read in (max, +) on the box [-box, box]."""
    names, scalars, rows = ROWS[check](n)
    return check_identity_rows(names, rows, Box(dict.fromkeys(names + scalars, (-box, box)), seed), samples)


def check_dichotomy(n: int, box: int, samples: int, seed: int) -> CheckOutcome:
    """At C = +-1 exactly one tensor factor changes.

    Samples the coordinates of x, then those of y, then the index i in [0, n].
    """
    names = _coords(n)

    def outcome(point):
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

    def fn(columns, width):
        return (outcome(box_point(columns, j)) for j in range(width))

    domain = Box(dict.fromkeys(_pair_coords(n), (-box, box)) | {"i": (0, n)}, seed)
    return pointwise_check(fn, domain, samples)
