"""Every ud, borel-oracle, rmap and invariance check can fail.

Each defect below is planted by monkeypatching one building block; the
suite is then run and every check the defect should break must report
``fail`` with a real witness (not a crash).  The two partial defects hold
on only part of the integer box, so the first failing sample of each row
depends on the sampled stream; their rows are pinned.
"""

import pytest

import gcrystal.models as models
import gcrystal.rmap as rmap
import gcrystal.ud as ud
from gcrystal.expr import const, mul
from gcrystal.harness import REGISTRY, run_suite

TRUE_SHADOW = ud.shadow
TRUE_R = ud.apply_combinatorial_r
TRUE_SPLIT = ud.split
TRUE_APPLY_R = rmap.apply_r
TRUE_ACTION = models.borel_action
TRUE_MATRIX_ACTION = models.borel_apply_e_matrix
TRUE_ENTRY = models.BorelElement.eps_entry
TRUE_MINOR = models.BorelElement.minor


def bent_operator(threshold):
    """The shadow of e_i^C, except that l1 gains 1 whenever C > threshold."""

    def shadow(n, i, point, c):
        out = TRUE_SHADOW(n, i, point, c)
        return {**out, "l1": out["l1"] + 1} if c > threshold else out

    return lambda mp: mp.setattr(ud, "shadow", shadow)


def bent_r(mp):
    """The combinatorial R, except that l'1 gains 1 and m'2 loses 1 when l1 > 40."""

    def r(n, l, m):
        l2, m2 = TRUE_R(n, l, m)
        if l["l1"] > 40:
            l2, m2 = {**l2, "l1": l2["l1"] + 1}, {**m2, "l2": m2["l2"] - 1}
        return l2, m2

    mp.setattr(ud, "apply_combinatorial_r", r)


def bent_split(only=None):
    """The split shadow with C1 raised by 1 at index ``only`` (at every index if None)."""

    def split(n, i, x, y, c):
        c1, c2 = TRUE_SPLIT(n, i, x, y, c)
        return (c1 + 1, c2) if only is None or i == only else (c1, c2)

    return lambda mp: mp.setattr(ud, "split", split)


def scaled_r(compensated):
    """The rational R with l'_k scaled by 2^k; ``compensated`` divides m'_k by 2^k.

    The compensated bend keeps every pair product l'_k m'_k, so the product
    gamma (a product of coordinate ratios) does not see it.
    """

    def apply_r(inst, l, m):
        l2, m2 = TRUE_APPLY_R(inst, l, m)
        l2 = {name: v * 2**k for k, (name, v) in enumerate(l2.items(), start=1)}
        if compensated:
            m2 = {name: v / 2**k for k, (name, v) in enumerate(m2.items(), start=1)}
        return l2, m2

    return lambda mp: mp.setattr(rmap, "apply_r", apply_r)


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
RMAP = ("rmap", {"trials": 5})
INVARIANCE = ("invariance", {"trials": 5})
RMAP_CHECKS = {c for c, info in REGISTRY.items() if info.suite == "rmap"}

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
    "split": (bent_split(), UD, {"ud-split"}),
    "split-index-0": (bent_split(0), UD, {"ud-split"}),
    "residual": (bent_residual, BOREL, {"borel-residual"}),
    "borel-action": (bent_borel_action, BOREL, {"borel-display", "borel-matrix-action"}),
    "matrix-action": (bent_matrix_action, BOREL, {"borel-matrix-action"}),
    "entry": (bent_entry, BOREL, {"borel-eps-entries", "borel-mult-eps", "borel-product-eps"}),
    "minor": (bent_minor, BOREL, {"borel-minor", "borel-product-eps-star"}),
    "scaled-r": (scaled_r(True), RMAP, RMAP_CHECKS - {"rmap-gamma-preserved"}),
    "scaled-r-uncompensated": (scaled_r(False), RMAP, {"rmap-gamma-preserved"}),
    "scaled-r-invariance": (scaled_r(True), INVARIANCE, {"inv-eps", "inv-eps-star"}),
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


def test_defects_cover_every_check_of_the_planted_suites():
    covered = set().union(*(checks for _, _, checks in DEFECTS.values()))
    suites = ("ud", "borel-oracle", "rmap", "invariance")
    assert covered == {c for c, info in REGISTRY.items() if info.suite in suites}


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
