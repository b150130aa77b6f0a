"""Every ud and borel-oracle check can fail.

Each defect below is planted by monkeypatching one building block; the
suite is then run and every check the defect should break must report
``fail`` with a real witness (not a crash).  The two partial defects hold
on only part of the integer box, so the first failing sample of each row
depends on the sampled stream; their rows are pinned.
"""

import pytest

import gcrystal.models as models
import gcrystal.ud as ud
from gcrystal.expr import const, mul
from gcrystal.harness import REGISTRY, run_suite

TRUE_OP = ud.ud_crystal_operator
TRUE_R = ud.apply_combinatorial_r
TRUE_COEFFS = ud.ud_tensor_coeffs
TRUE_ACTION = models.borel_action
TRUE_MATRIX_ACTION = models.borel_apply_e_matrix
TRUE_ENTRY = models.BorelElement.eps_entry
TRUE_MINOR = models.BorelElement.minor


class BentOperator:
    """The shadow operator, except that l1 gains 1 whenever C > threshold."""

    def __init__(self, op, threshold):
        self.op, self.threshold = op, threshold

    def apply(self, point, **params):
        out = self.op.apply(point, **params)
        if params[ud.UD_SCALAR] > self.threshold:
            out = {**out, "l1": out["l1"] + 1}
        return out


def bent_operator(threshold):
    return lambda mp: mp.setattr(ud, "ud_crystal_operator", lambda n, i: BentOperator(TRUE_OP(n, i), threshold))


def bent_r(mp):
    """The combinatorial R, except that l'1 gains 1 and m'2 loses 1 when l1 > 40."""

    def r(n, l, m):
        l2, m2 = TRUE_R(n, l, m)
        if l["l1"] > 40:
            l2, m2 = {**l2, "l1": l2["l1"] + 1}, {**m2, "l2": m2["l2"] - 1}
        return l2, m2

    mp.setattr(ud, "apply_combinatorial_r", r)


def bent_split(mp):
    def coeffs(n, i):
        c1, c2 = TRUE_COEFFS(n, i)
        return ud.TAdd(c1, ud.TConst(1)), c2

    mp.setattr(ud, "ud_tensor_coeffs", coeffs)


def bent_residual(mp):
    mp.setattr(models, "borel_action", lambda n, i: models.BorelAction(TRUE_ACTION(n, i).exprs, const(1)))


def bent_borel_action(mp):
    """The derived action with u_i doubled; the matrix route stays honest."""

    def action(n, i):
        true = TRUE_ACTION(n, i)
        return models.BorelAction({**true.exprs, f"u{i}": mul(const(2), true.exprs[f"u{i}"])}, true.residual)

    mp.setattr(models, "borel_action", action)


def bent_matrix_action(mp):
    mp.setattr(models, "borel_apply_e_matrix", lambda x, i, c: TRUE_MATRIX_ACTION(x, i, c * c))


def bent_entry(mp):
    mp.setattr(models.BorelElement, "eps_entry", lambda self, s, t: TRUE_ENTRY(self, s, t) + 1)


def bent_minor(mp):
    mp.setattr(models.BorelElement, "minor", lambda self, s, t: TRUE_MINOR(self, s, t) + 1)


UD = ("ud", {"trials": 200})
BOREL = ("borel-oracle", {"n": 2, "trials": 5})

# defect name -> (plant, suite run, checks that must fail)
DEFECTS = {
    "partial-operator": (
        bent_operator(40),
        UD,
        {"ud-gamma-shadow", "ud-eps-shadow", "ud-operator-sum", "ud-r-commutation"},
    ),
    "operator": (bent_operator(-1000), UD, {"ud-dichotomy"}),
    "partial-r": (
        bent_r,
        UD,
        {"ud-levels", "ud-r-eps", "ud-r-gamma", "ud-r-commutation", "ud-r-braid", "ud-product-eps-shadow"},
    ),
    "split": (bent_split, UD, {"ud-split"}),
    "residual": (bent_residual, BOREL, {"borel-residual"}),
    "borel-action": (bent_borel_action, BOREL, {"borel-display", "borel-matrix-action"}),
    "matrix-action": (bent_matrix_action, BOREL, {"borel-matrix-action"}),
    "entry": (bent_entry, BOREL, {"borel-eps-entries", "borel-mult-eps", "borel-product-eps"}),
    "minor": (bent_minor, BOREL, {"borel-minor", "borel-product-eps-star"}),
}

# (check, subject, verdict, trials) of every row under the partial defects,
# at ud {"trials": 200}: the trial count of a failing row is the index of
# its first failing sample, so these pin the sampled stream of every check
PINNED = {
    "partial-operator": [
        ("ud-dichotomy", "n=1", "pass", 200),
        ("ud-dichotomy", "n=2", "pass", 200),
        ("ud-eps-shadow", "n=1", "fail", 5),
        ("ud-eps-shadow", "n=2", "fail", 4),
        ("ud-gamma-shadow", "n=1", "fail", 7),
        ("ud-gamma-shadow", "n=2", "fail", 32),
        ("ud-levels", "n=1", "pass", 200),
        ("ud-levels", "n=2", "pass", 200),
        ("ud-operator-sum", "n=1", "fail", 3),
        ("ud-operator-sum", "n=2", "fail", 3),
        ("ud-product-eps-shadow", "n=1", "pass", 200),
        ("ud-product-eps-shadow", "n=2", "pass", 200),
        ("ud-r-braid", "n=1", "pass", 200),
        ("ud-r-braid", "n=2", "pass", 200),
        ("ud-r-commutation", "n=1", "fail", 5),
        ("ud-r-commutation", "n=2", "fail", 4),
        ("ud-r-eps", "n=1", "pass", 200),
        ("ud-r-eps", "n=2", "pass", 200),
        ("ud-r-gamma", "n=1", "pass", 200),
        ("ud-r-gamma", "n=2", "pass", 200),
        ("ud-split", "n=1", "pass", 200),
        ("ud-split", "n=2", "pass", 200),
    ],
    "partial-r": [
        ("ud-dichotomy", "n=1", "pass", 200),
        ("ud-dichotomy", "n=2", "pass", 200),
        ("ud-eps-shadow", "n=1", "pass", 200),
        ("ud-eps-shadow", "n=2", "pass", 200),
        ("ud-gamma-shadow", "n=1", "pass", 200),
        ("ud-gamma-shadow", "n=2", "pass", 200),
        ("ud-levels", "n=1", "fail", 10),
        ("ud-levels", "n=2", "fail", 3),
        ("ud-operator-sum", "n=1", "pass", 200),
        ("ud-operator-sum", "n=2", "pass", 200),
        ("ud-product-eps-shadow", "n=1", "fail", 12),
        ("ud-product-eps-shadow", "n=2", "fail", 63),
        ("ud-r-braid", "n=1", "fail", 4),
        ("ud-r-braid", "n=2", "fail", 1),
        ("ud-r-commutation", "n=1", "fail", 4),
        ("ud-r-commutation", "n=2", "fail", 17),
        ("ud-r-eps", "n=1", "fail", 5),
        ("ud-r-eps", "n=2", "fail", 4),
        ("ud-r-gamma", "n=1", "fail", 5),
        ("ud-r-gamma", "n=2", "fail", 14),
        ("ud-split", "n=1", "pass", 200),
        ("ud-split", "n=2", "pass", 200),
    ],
}


def test_defects_cover_every_ud_and_borel_check():
    covered = set().union(*(checks for _, _, checks in DEFECTS.values()))
    assert covered == {c for c, info in REGISTRY.items() if info.suite in ("ud", "borel-oracle")}


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_planted_defect_fails_with_witness(defect, monkeypatch):
    plant, (suite, params), checks = DEFECTS[defect]
    plant(monkeypatch)
    results = run_suite(suite, params)
    for check in checks:
        rows = [r for r in results if r.check == check]
        assert rows and all(r.verdict == "fail" for r in rows), check
        assert all(r.counterexample and "error" not in r.counterexample for r in rows), check
    if defect in PINNED:
        assert [(r.check, r.subject, r.verdict, r.trials) for r in results] == PINNED[defect]
