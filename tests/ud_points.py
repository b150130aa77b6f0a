"""The ud readings one integer point at a time: the tests' per-point oracle.

The sampled ud checks run a batch of points as columns
(``ud.shadow_columns``, ``ud.check_dichotomy``, the box rows of
``crystal.check_identity_rows``).  These functions read the same programs
through ``expr.run_maxplus`` at a single point, so the tests can compare
each batch with the points it holds.  They look ``ud.unit_torus`` and
``ud.split_program`` up at each call, so a defect planted there reaches
them as it reaches the batches.
"""

from gcrystal import ud
from gcrystal.crystal import SCALAR, action_program, pack_pair, split_pair
from gcrystal.expr import run_maxplus
from gcrystal.ud import TropPoint


def maxplus_side(names: tuple[str, ...], side, point: TropPoint) -> list[int]:
    """A compiled side ``(step programs, tree program)`` of :func:`crystal.row_plan` at ``point``, in (max, +).

    Each step's image replaces the coordinates ``names`` for the next one,
    unreduced: integers need no lowest terms.  The per-point oracle of
    :func:`crystal.check_identity_rows` on a box.
    """
    steps, trees = side
    env = point
    for step in steps:
        env = {**env, **dict(zip(names, run_maxplus(step, env)))}
    return run_maxplus(trees, env)


def shadow(n: int, i: int, point: TropPoint, c: int) -> TropPoint:
    """The shadow of e_i^C: add C at slot i, subtract it at slot i+1 (cyclically)."""
    model = ud.unit_torus(n)
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
    c1, c2 = run_maxplus(ud.split_program(n, i), env)
    return c1, c2


def pair_shadow(n: int, i: int, x: TropPoint, y: TropPoint, c: int) -> tuple[TropPoint, TropPoint]:
    """The shadow of e_i^C on a pair: the split, then each factor's own shadow."""
    c1, c2 = split(n, i, x, y, c)
    return shadow(n, i, x, c1), shadow(n, i, y, c2)


def dichotomy_at(n: int, point: TropPoint):
    """The ``ud-dichotomy`` outcome at one sampled point: ``None``, or the witness of its first failure.

    C = 1 comes before C = -1, and at each the split before the shadows.
    """
    names = tuple(f"l{k}" for k in range(1, n + 2))
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
