"""Every registered check can fail.

Each defect below is planted by monkeypatching one building block; the
suite is then run and every check the defect should break must report
``fail`` with a real witness (not a crash).  The uniqueness rows are
recorded by the suite rather than sampled, so their evidence is a note
naming the broken step.  The ud defects are planted where the ud rows
read: the torus action trees, the product's parameter split and the R
map's trees (only ``ud-dichotomy`` reads ``ud.shadow_columns``).  Each
bend adds a subtraction-free summand that wins the max on part of the
integer box, so the first failing sample of each row depends on the
sampled stream; the rows of the partial torus and R bends are pinned.
"""

import dataclasses
import functools
import hashlib

import pytest

import gcrystal.crystal as crystal
import gcrystal.harness as harness
import gcrystal.models as models
import gcrystal.rmap as rmap
import gcrystal.ud as ud
from gcrystal.arith import sample_points
from gcrystal.crystal import SCALAR
from gcrystal.epsilon import EpsilonSystem
from gcrystal.expr import const, div, mul, substitute, var
from gcrystal.harness import REGISTRY, report_json, run_suite
from ud_points import maxplus_side

TRUE_SHADOW = ud.shadow_columns
TRUE_UNIT_TORUS = ud.unit_torus
TRUE_R = rmap.build_r_map
TRUE_ACTION = models.borel_action
TRUE_MATRIX_ACTION = models.borel_apply_e_matrix
TRUE_MULTIPLY = models.borel_multiply
TRUE_ENTRY = models.BorelElement.eps_entry
TRUE_MINOR = models.BorelElement.minor
TRUE_TORUS = models.affine_a_model
TRUE_LOCAL_SYSTEM = models.affine_a_local_system
TRUE_PRODUCT = crystal.product
TRUE_SPLIT_EXPRS = crystal.product_split_exprs
TRUE_PRODUCT_EPSILON = harness.product_epsilon
TRUE_EQUATIONS = rmap._invariance_equations


def raised(e, by):
    """``e`` plus the subtraction-free summand ``e * by``: in (max, +), max(e, e + by), which wins where by > 0."""
    return e + mul(e, by)


def shifted_shadow(mp):
    """The shadow of e_i^C with 1 added to l1; only ud-dichotomy reads ``ud.shadow_columns``."""

    def shadow_columns(n, i, columns, width):
        out = TRUE_SHADOW(n, i, columns, width)
        return {**out, "l1": [v + 1 for v in out["l1"]]}

    mp.setattr(ud, "shadow_columns", shadow_columns)


def bent_unit_torus(only_last=False):
    """The level-1 torus model of the ud rows with l_{i+1} of e_i^c raised by itself times c.

    In (max, +) the coordinate e_i^C lowers by C reads max(l - C, l), so the
    bend shows wherever C > 0.  ``only_last`` bends the last index i = n
    alone.
    """
    models_by_size = {}

    def unit_torus(n):
        if n not in models_by_size:
            model = TRUE_UNIT_TORUS(n)
            bent = {
                i: row[:i] + (raised(row[i], var(SCALAR)),) + row[i + 1 :] if i == n or not only_last else row
                for i, row in model.actions.items()
            }
            models_by_size[n] = dataclasses.replace(model, actions=bent)
        return models_by_size[n]

    return lambda mp: mp.setattr(ud, "unit_torus", unit_torus)


def bent_unit_r(mp):
    """The R map's trees with l'_1 raised by itself times l1: in (max, +), l'_1 grows by l1 where l1 > 0."""

    def build_r_map(n):
        true = TRUE_R(n)
        return dataclasses.replace(true, l_out=(raised(true.l_out[0], var("l1")),) + true.l_out[1:])

    mp.setattr(rmap, "build_r_map", build_r_map)


def bent_suffix(mp):
    """The window sums with the suffix recursion reading B + D where B + D' belongs: B' = m_j (B + D).

    The R map is built afresh per size from the bent recursion.
    """

    def suffix_step(t, l, m):
        a, b, d = t
        return mul(m, a), mul(m, b + d), mul(l, d)

    mp.setattr(rmap, "_suffix_step", suffix_step)
    mp.setattr(rmap, "build_r_map", functools.lru_cache(maxsize=None)(TRUE_R.__wrapped__))


def bent_split_exprs(only=None):
    """The parameter split with c1 raised by itself times c at index ``only`` (at every index if None).

    In (max, +) C1 grows by C where C > 0, and C2 stays C - C1 of the true
    split.
    """

    def split(x_model, y_model, i):
        c1, c2 = TRUE_SPLIT_EXPRS(x_model, y_model, i)
        return (raised(c1, var(SCALAR)), c2) if only is None or i == only else (c1, c2)

    return lambda mp: mp.setattr(crystal, "product_split_exprs", split)


def scaled_r(compensated):
    """The rational R with l'_k scaled by 2^k; ``compensated`` divides m'_k by 2^k.

    The bend is planted in ``rmap.build_r_map``, the trees that both
    ``apply_r`` and the identity rows read.  The compensated bend keeps
    every pair product l'_k m'_k, so the product gamma (a product of
    coordinate ratios) does not see it.
    """

    def build_r_map(n):
        true = TRUE_R(n)
        l_out = tuple(mul(const(2**k), e) for k, e in enumerate(true.l_out, start=1))
        m_out = tuple(div(e, const(2**k)) for k, e in enumerate(true.m_out, start=1))
        return dataclasses.replace(true, l_out=l_out, m_out=m_out if compensated else true.m_out)

    return lambda mp: mp.setattr(rmap, "build_r_map", build_r_map)


def bent_residual(mp):
    mp.setattr(models, "borel_action", lambda n, i: models.BorelAction(TRUE_ACTION(n, i).exprs, const(1)))


def bent_borel_action(mp):
    """The derived action with u_i doubled; the matrix route stays honest."""

    def action(n, i):
        true = TRUE_ACTION(n, i)
        return models.BorelAction({**true.exprs, f"u{i}": mul(const(2), true.exprs[f"u{i}"])}, true.residual)

    mp.setattr(models, "borel_action", action)


def plus_one(pair):
    """The int pair (n, d) plus 1."""
    num, den = pair
    return num + den, den


def bent_matrix_action(mp):
    """The matrix action at c² instead of c, c an int pair."""
    mp.setattr(models, "borel_apply_e_matrix", lambda x, i, c: TRUE_MATRIX_ACTION(x, i, (c[0] ** 2, c[1] ** 2)))


def bent_multiply(mp):
    """The exact product with 1 added to entry (2, 1); the determinant stays 1."""

    def multiply(x, y):
        rows = [list(row) for row in TRUE_MULTIPLY(x, y).mat]
        rows[1][0] = plus_one(rows[1][0])
        return models.BorelElement(tuple(map(tuple, rows)))

    mp.setattr(models, "borel_multiply", multiply)


def bent_entry(mp):
    mp.setattr(models.BorelElement, "eps_entry", lambda self, s, t: plus_one(TRUE_ENTRY(self, s, t)))


def bent_minor(mp):
    mp.setattr(models.BorelElement, "minor", lambda self, s, t: plus_one(TRUE_MINOR(self, s, t)))


def bent_torus(bend):
    """The torus model with ``bend(n, i, row)`` applied to the action row of every index.

    On the torus model e_i^c scales l_{i+1} (the coordinate at position i
    of a row) by 1/c and its cyclic predecessor by c.
    """

    def build(n, level):
        model = TRUE_TORUS(n, level)
        return dataclasses.replace(model, actions={i: bend(n, i, row) for i, row in model.actions.items()})

    return lambda mp: mp.setattr(harness, "affine_a_model", build)


def halved(n, i, row):
    """l_{i+1} scaled by 1/(2c) instead of 1/c: e_i^1 is no longer the identity."""
    return row[:i] + (div(row[i], const(2)),) + row[i + 1 :]


def coupled(n, i, row):
    """The parameter of e_i read as c times l_{i+2}, a coordinate e_{i+1} and e_{i+2} move."""
    coupling = {SCALAR: mul(var(SCALAR), var(f"l{(i + 1) % (n + 1) + 1}"))}
    return tuple(substitute(e, coupling) for e in row)


def rotated_eps(mp):
    """eps_i of the torus model reads eps_{i+1}, a coordinate the orthogonal e_{i+2} moves."""

    def build(n, level):
        model = TRUE_TORUS(n, level)
        return dataclasses.replace(model, eps={i: model.eps[(i + 1) % (n + 1)] for i in model.eps})

    mp.setattr(harness, "affine_a_model", build)


def shifted_eps(name, true):
    """The epsilon systems built by ``harness.<name>`` with 1 added to every eps entry, eps* kept."""

    def build(*args):
        system = true(*args)
        return EpsilonSystem(system.chain, {J: e + 1 for J, e in system.eps.items()}, system.eps_star)

    return lambda mp: mp.setattr(harness, name, build)


def doubled_product_tables(mp):
    """The product crystal with gamma_i and eps_i doubled; its actions kept."""

    def build(x_model, y_model):
        z = TRUE_PRODUCT(x_model, y_model)
        return dataclasses.replace(
            z,
            gamma={i: mul(const(2), g) for i, g in z.gamma.items()},
            eps={i: mul(const(2), e) for i, e in z.eps.items()},
        )

    mp.setattr(crystal, "product", build)
    mp.setattr(harness, "product", build)


def doubled_split(mp):
    """The product's parameter split with c2 doubled, so c1 c2 = 2c."""

    def split(x_model, y_model, i):
        c1, c2 = TRUE_SPLIT_EXPRS(x_model, y_model, i)
        return c1, mul(const(2), c2)

    mp.setattr(crystal, "product_split_exprs", split)


def invariance_equations(pick):
    """The uniqueness probe's equation system, replaced by ``pick(true equations)``."""
    return lambda mp: mp.setattr(rmap, "_invariance_equations", lambda *args: pick(TRUE_EQUATIONS(*args)))


UD = ("ud", {"trials": 200})
BOREL = ("borel-oracle", {"n": 2, "trials": 5})
RMAP = ("rmap", {"trials": 5})
INVARIANCE = ("invariance", {"trials": 5})
RMAP_CHECKS = {c for c, info in REGISTRY.items() if info.suite == "rmap"}
VERMA = ("verma", {"n": 3, "trials": 5})
AXIOMS_A1 = ("axioms", {"model": "torus-a1", "trials": 5})
AXIOMS_A3 = ("axioms", {"model": "torus-a3", "trials": 5})
EPSILON = ("epsilon", {"model": "torus-a3-local", "trials": 5})
PRODUCT = ("product", {"n": 1, "trials": 5})
UNIQUENESS = ("uniqueness", {})

# defect name -> (plant, suite run, checks that must fail)
DEFECTS = {
    "partial-operator": (
        bent_unit_torus(),
        UD,
        {"ud-gamma-shadow", "ud-eps-shadow", "ud-operator-sum", "ud-r-commutation"},
    ),
    "operator-index-n": (
        bent_unit_torus(only_last=True),
        UD,
        {"ud-gamma-shadow", "ud-eps-shadow", "ud-operator-sum", "ud-r-commutation"},
    ),
    "operator": (shifted_shadow, UD, {"ud-dichotomy"}),
    "partial-r": (
        bent_unit_r,
        UD,
        {"ud-levels", "ud-r-eps", "ud-r-gamma", "ud-r-commutation", "ud-r-braid", "ud-product-eps-shadow"},
    ),
    # the split is also the product's, so the commutation rows see it
    "split": (bent_split_exprs(), UD, {"ud-split", "ud-r-commutation"}),
    "split-index-0": (bent_split_exprs(0), UD, {"ud-split", "ud-r-commutation"}),
    "residual": (bent_residual, BOREL, {"borel-residual"}),
    "borel-action": (bent_borel_action, BOREL, {"borel-display", "borel-matrix-action"}),
    "matrix-action": (bent_matrix_action, BOREL, {"borel-matrix-action"}),
    "multiply": (bent_multiply, BOREL, {"borel-product-eps", "borel-product-eps-star", "borel-mult-eps"}),
    "entry": (bent_entry, BOREL, {"borel-eps-entries", "borel-mult-eps", "borel-product-eps"}),
    "minor": (bent_minor, BOREL, {"borel-minor", "borel-product-eps-star"}),
    "scaled-r": (scaled_r(True), RMAP, RMAP_CHECKS - {"rmap-gamma-preserved"}),
    "scaled-r-uncompensated": (scaled_r(False), RMAP, {"rmap-gamma-preserved"}),
    "scaled-r-invariance": (scaled_r(True), INVARIANCE, {"inv-eps", "inv-eps-star"}),
    # the bent window sums are not homogeneous: only the telescoping level
    # swap and the pair products (so gamma) survive
    "bent-suffix": (bent_suffix, RMAP, RMAP_CHECKS - {"rmap-level-swap", "rmap-gamma-preserved"}),
    "bent-suffix-invariance": (bent_suffix, INVARIANCE, {"inv-eps", "inv-eps-star"}),
    "bent-suffix-ud": (bent_suffix, UD, {"ud-r-eps", "ud-r-commutation", "ud-r-braid", "ud-product-eps-shadow"}),
    "coupled-verma": (bent_torus(coupled), VERMA, {"verma-commuting", "verma-braid"}),
    "halved-action": (
        bent_torus(halved),
        AXIOMS_A1,
        {"axiom-identity", "axiom-group-law", "axiom-domain", "axiom-gamma", "axiom-eps-scale"},
    ),
    "rotated-eps": (rotated_eps, AXIOMS_A3, {"axiom-eps-commute"}),
    "local-eps": (
        shifted_eps("affine_a_local_system", TRUE_LOCAL_SYSTEM),
        EPSILON,
        {"eps-action-table", "eps-partition-sum", "eps-alternating", "eps-pair-identity"},
    ),
    "coupled-epsilon": (bent_torus(coupled), EPSILON, {"eps-well-defined"}),
    "halved-factors": (bent_torus(halved), PRODUCT, {"prod-identity", "prod-axiom-gamma", "prod-axiom-eps"}),
    "product-tables": (doubled_product_tables, PRODUCT, {"prod-gamma", "prod-eps", "prod-assoc"}),
    "product-split": (doubled_split, PRODUCT, {"prod-c-split"}),
    "product-epsilon": (shifted_eps("product_epsilon", TRUE_PRODUCT_EPSILON), PRODUCT, {"prod-eps-system"}),
    "scaled-r-uniqueness": (scaled_r(True), UNIQUENESS, {"uniq-fixed-point"}),
    "unsolvable-equations": (invariance_equations(lambda eqs: [*eqs, False]), UNIQUENESS, {"uniq-forced"}),
    "levels-only-equations": (invariance_equations(lambda eqs: eqs[-2:]), UNIQUENESS, {"uniq-perturbation"}),
}

# the note of a recorded uniqueness row that names its broken step
BROKEN_STEP = {
    "scaled-r-uniqueness": "R does not swap the homogeneous pair",
    "unsolvable-equations": "the invariance equations fail at the solution",
    "levels-only-equations": "one satisfies every invariance equation",
}

# (check, subject, verdict, trials) of every row under the partial torus and R bends,
# at ud {"trials": 200}: the trial count of a failing row is the index of
# its first failing sample, so these pin the sampled stream of every check
PINNED = {
    "partial-operator": [
        ("ud-dichotomy", "n=1", "pass", 200),
        ("ud-dichotomy", "n=2", "pass", 200),
        ("ud-eps-shadow", "n=1", "fail", 1),
        ("ud-eps-shadow", "n=2", "fail", 1),
        ("ud-gamma-shadow", "n=1", "fail", 2),
        ("ud-gamma-shadow", "n=2", "fail", 1),
        ("ud-levels", "n=1", "pass", 200),
        ("ud-levels", "n=2", "pass", 200),
        ("ud-operator-sum", "n=1", "fail", 1),
        ("ud-operator-sum", "n=2", "fail", 1),
        ("ud-product-eps-shadow", "n=1", "pass", 200),
        ("ud-product-eps-shadow", "n=2", "pass", 200),
        ("ud-r-braid", "n=1", "pass", 200),
        ("ud-r-braid", "n=2", "pass", 200),
        ("ud-r-commutation", "n=1", "fail", 7),
        ("ud-r-commutation", "n=2", "fail", 1),
        ("ud-r-eps", "n=1", "pass", 200),
        ("ud-r-eps", "n=2", "pass", 200),
        ("ud-r-gamma", "n=1", "pass", 200),
        ("ud-r-gamma", "n=2", "pass", 200),
        ("ud-split", "n=1", "pass", 200),
        ("ud-split", "n=2", "pass", 200),
    ],
    "operator-index-n": [
        ("ud-dichotomy", "n=1", "pass", 200),
        ("ud-dichotomy", "n=2", "pass", 200),
        ("ud-eps-shadow", "n=1", "fail", 1),
        ("ud-eps-shadow", "n=2", "fail", 1),
        ("ud-gamma-shadow", "n=1", "fail", 2),
        ("ud-gamma-shadow", "n=2", "fail", 1),
        ("ud-levels", "n=1", "pass", 200),
        ("ud-levels", "n=2", "pass", 200),
        ("ud-operator-sum", "n=1", "fail", 1),
        ("ud-operator-sum", "n=2", "fail", 1),
        ("ud-product-eps-shadow", "n=1", "pass", 200),
        ("ud-product-eps-shadow", "n=2", "pass", 200),
        ("ud-r-braid", "n=1", "pass", 200),
        ("ud-r-braid", "n=2", "pass", 200),
        ("ud-r-commutation", "n=1", "fail", 7),
        ("ud-r-commutation", "n=2", "fail", 1),
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
        ("ud-levels", "n=1", "fail", 2),
        ("ud-levels", "n=2", "fail", 3),
        ("ud-operator-sum", "n=1", "pass", 200),
        ("ud-operator-sum", "n=2", "pass", 200),
        ("ud-product-eps-shadow", "n=1", "fail", 4),
        ("ud-product-eps-shadow", "n=2", "fail", 3),
        ("ud-r-braid", "n=1", "fail", 1),
        ("ud-r-braid", "n=2", "fail", 1),
        ("ud-r-commutation", "n=1", "fail", 3),
        ("ud-r-commutation", "n=2", "fail", 2),
        ("ud-r-eps", "n=1", "fail", 2),
        ("ud-r-eps", "n=2", "fail", 1),
        ("ud-r-gamma", "n=1", "fail", 4),
        ("ud-r-gamma", "n=2", "fail", 2),
        ("ud-split", "n=1", "pass", 200),
        ("ud-split", "n=2", "pass", 200),
    ],

}


# sha256 of the canonical report of each planted run, first 16 hex digits:
# pins every row, trial count, witness and note the plant leaves
DIGESTS = {
    "partial-operator": "1ccda7975de3a75d",
    "operator-index-n": "4eb4878547d5dc45",
    "operator": "db0cbfde10bd42c0",
    "partial-r": "9106ab8bc2cee251",
    "split": "0a5cdadedb72dd0f",
    "split-index-0": "2476a5399d713075",
    "residual": "b3ecc3ce1486de22",
    "borel-action": "0f1f585608cb916b",
    "matrix-action": "b1762f8ca150b847",
    "multiply": "e9ed09ab7b242f50",
    "entry": "8c2e3ff692aac0ea",
    "minor": "11e897bc87a81236",
    "scaled-r": "56e400cb7cd6f203",
    "scaled-r-uncompensated": "e0be9063c91b5e94",
    "scaled-r-invariance": "84d8046b4da43690",
    "bent-suffix": "4e8bce15faf6354f",
    "bent-suffix-invariance": "36a34e4f7782a015",
    "bent-suffix-ud": "a621214301966283",
    "coupled-verma": "2a3f5ae0dad2027b",
    "halved-action": "23be150c00f6c82c",
    "rotated-eps": "7017d91b902361cf",
    "local-eps": "c980faaeaa045983",
    "coupled-epsilon": "88508b9d81688369",
    "halved-factors": "bbf456d6eceb3174",
    "product-tables": "e079896b9d2727c7",
    "product-split": "e1d4cc989bc8f4f3",
    "product-epsilon": "ba7d8a2a3d37fba5",
    "scaled-r-uniqueness": "860f68c9ec2f2fbc",
    "unsolvable-equations": "d7260735aafc1c5b",
    "levels-only-equations": "9785c7fb9e767635",
}


def test_defects_cover_every_check_of_the_planted_suites():
    covered = set().union(*(checks for _, _, checks in DEFECTS.values()))
    assert covered == set(REGISTRY) - {"uniq-orbit-density"}  # assumed, never checked


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_planted_defect_fails_with_witness(defect, monkeypatch):
    plant, (suite, params), checks = DEFECTS[defect]
    plant(monkeypatch)
    results = run_suite(suite, params)
    for check in checks:
        rows = [r for r in results if r.check == check]
        assert rows and all(r.verdict == "fail" for r in rows), check
        if defect in BROKEN_STEP:
            assert all(BROKEN_STEP[defect] in r.note for r in rows), check
        else:
            assert all(r.counterexample and "error" not in r.counterexample for r in rows), check
    if defect in PINNED:
        assert [(r.check, r.subject, r.verdict, r.trials) for r in results] == PINNED[defect]
    report = report_json(suite, params, None, results)
    assert hashlib.sha256(report.encode()).hexdigest()[:16] == DIGESTS[defect]


def test_a_bend_at_the_last_index_fails_as_early_as_one_at_every_index(monkeypatch):
    # the rows check every index at each point (the point loops they replace
    # drew one index per point), so the bend at i = n alone fails each row at
    # the same sample as the bend at every index, and names i = n
    bent_unit_torus(only_last=True)(monkeypatch)
    results = run_suite(*UD)
    everywhere = {(c, s): t for c, s, v, t in PINNED["partial-operator"] if v == "fail"}
    failed = [r for r in results if r.verdict == "fail"]
    assert {(r.check, r.subject): r.trials for r in failed} == everywhere
    for r in failed:
        n = int(r.subject.removeprefix("n="))
        assert r.counterexample.get("i", r.counterexample.get("j")) == n, r.check


def _row_spec(suite, params, model_of, extra):
    """The sample spec of a row, from its model builder and job seed (the plants leave the domain alone)."""
    p = harness.parse_params(suite, dict(params))

    def spec(subject, check):
        seed = harness._job_seed(harness.DEFAULT_SEEDS[suite], check, subject)
        return model_of(p, subject).domain_spec(seed, extra=extra)

    return spec


def _torus_pair(subject, ll, lr):
    """The product of the torus models that R acts on, at the size ``n`` a subject "n=... ..." names."""
    n = int(subject.split()[0].removeprefix("n="))
    return TRUE_PRODUCT(TRUE_TORUS(n, ll), TRUE_TORUS(n, lr))


# (defect, check, label keys of its rows, spec of a row, from (subject, check))
WITNESSES = {
    "borel-residual": (
        "residual",
        "borel-residual",
        set(),
        _row_spec(*BOREL, lambda p, subject: models.borel_model(2), (SCALAR,)),
    ),
    "borel-matrix-action": (
        "matrix-action",
        "borel-matrix-action",
        {"i", "output"},
        _row_spec(*BOREL, lambda p, subject: models.borel_model(2), ("s1",)),
    ),
    "borel-minor": (
        "minor",
        "borel-minor",
        {"output"},
        _row_spec(*BOREL, lambda p, subject: models.borel_model(2), ()),
    ),
    "borel-mult-eps": (
        "multiply",
        "borel-mult-eps",
        {"output"},
        _row_spec(*BOREL, lambda p, subject: TRUE_PRODUCT(models.borel_model(2), models.borel_model(2)), ()),
    ),
    "eps-action-table": (
        "local-eps",
        "eps-action-table",
        {"index", "output"},
        _row_spec(*EPSILON, lambda p, subject: harness._EPSILON_TARGETS[subject](p.L)[0], ("s1",)),
    ),
    "verma": (
        "coupled-verma",
        "verma-braid",
        {"i", "j", "output"},
        _row_spec(*VERMA, lambda p, subject: TRUE_TORUS(3, p.L), ("s1", "s2")),
    ),
    "rmap-commutation": (
        "scaled-r",
        "rmap-commutation",
        {"i", "output"},
        _row_spec(*RMAP, lambda p, subject: _torus_pair(subject, p.L, p.M), ("s1",)),
    ),
    "inv-eps": (
        "scaled-r-invariance",
        "inv-eps",
        {"starred", "output"},
        _row_spec(*INVARIANCE, lambda p, subject: _torus_pair(subject, p.L, p.M), ()),
    ),
}


@pytest.mark.parametrize("case", list(WITNESSES))
def test_failing_identity_row_keeps_its_witness_keys(case, monkeypatch):
    # a failing row's witness is its label plus {point, lhs, rhs}, and its
    # trials count is the index of the sampled point it names
    defect, check, label, spec = WITNESSES[case]
    plant, (suite, params), _ = DEFECTS[defect]
    plant(monkeypatch)
    rows = [r for r in run_suite(suite, params) if r.check == check]
    assert rows
    for r in rows:
        assert set(r.counterexample) == label | {"point", "lhs", "rhs"}
        assert r.counterexample["lhs"] != r.counterexample["rhs"]
        stream = sample_points(spec(r.subject, check), r.trials)
        assert {k: str(v) for k, v in stream[-1].items()} == r.counterexample["point"]
    if case == "borel-residual":  # the bent residual is the constant 1
        assert all(r.trials == 1 and r.counterexample["lhs"] == "1" for r in rows)


@pytest.mark.parametrize("defect", ["partial-operator", "partial-r"])
def test_failing_ud_row_keeps_its_witness_keys(defect, monkeypatch):
    # the (max, +) reading of the same witness: the row's label plus {point,
    # lhs, rhs} (and output, when the row has several), integers throughout;
    # the point is the box stream's point at index trials, and lhs and rhs
    # are the row's sides there
    plant, (suite, params), checks = DEFECTS[defect]
    plant(monkeypatch)
    box = harness.parse_params(suite, dict(params)).box
    failed = [r for r in run_suite(suite, params) if r.verdict == "fail"]
    assert {r.check for r in failed} == checks
    for r in failed:
        job = ud.ROWS[r.check](int(r.subject.removeprefix("n=")), box)
        names, rows = job.names, job.rows
        seed = harness._job_seed(harness.DEFAULT_SEEDS[suite], r.check, r.subject)
        point = list(ud.sample_box(job.domain.bounds, r.trials, seed))[-1]
        witness = r.counterexample
        assert witness["point"] == point
        assert all(type(v) is int for v in [*point.values(), witness["lhs"], witness["rhs"]])
        plan = crystal.row_plan(names, rows)
        label, lhs, rhs, outputs = next(row for row in plan if all(witness.get(k) == v for k, v in row[0].items()))
        count = len(lhs[1].outputs)
        assert set(witness) == set(label) | {"point", "lhs", "rhs"} | ({"output"} if count > 1 else set())
        k = 0 if count == 1 else [harness._jsonable(name) for name in outputs or range(count)].index(witness["output"])
        left, right = maxplus_side(names, lhs, point), maxplus_side(names, rhs, point)
        assert (witness["lhs"], witness["rhs"]) == (left[k], right[k]) and left[k] != right[k]
