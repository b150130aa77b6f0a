"""The verification suites: check registry, parameter parser and suites.

Every check has a stable id registered in :data:`REGISTRY` together with a
one-line statement of the identity it verifies; the generated ledger in
:mod:`gcrystal.ledger` is produced from the same table, so the ledger
lists exactly the checks that run.  The statements are written by hand,
though, so one can drift from the rows its check runs.  The check bodies live beside the
objects they check (:mod:`gcrystal.crystal`, :mod:`gcrystal.epsilon`,
:mod:`gcrystal.models`, :mod:`gcrystal.rmap`, :mod:`gcrystal.ud`) and all
return one result type, :class:`gcrystal.expr.CheckOutcome`; this module
only decides which jobs run.

:func:`parse_params` validates every parameter before any job runs and
raises :class:`SuiteError` on a bad one.  A suite is then one function
``(collector, params)`` that files its jobs (one per model / index /
size): ``collector.run`` runs a check with a seed derived
deterministically from the suite seed and the job's name, and
``collector.record`` files a row the suite decides itself.  Both collect
:class:`CheckResult` rows.  A failing or crashing job never aborts the
suite; results are sorted by (check id, subject) so run order is
irrelevant.

Reports serialize to canonical JSON.  Timings are kept on the result
objects for display but left out of the JSON so that a report is
bit-for-bit reproducible from (suite, params, seed).
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction

from . import rmap, ud
from .arith import DomainTooThinError
from .crystal import (
    applicable_pairs,
    check_action_identity,
    check_composition_relation,
    check_domain_preserved,
    check_eps_scaling,
    check_gamma_scaling,
    check_group_law,
    check_product_associativity,
    check_product_formula,
    check_product_split,
    product,
)
from .epsilon import (
    check_alternating_identities,
    check_epsilon_axiom,
    check_epsilon_system,
    check_pair_identity,
    check_partition_sum,
    check_well_defined,
    local_epsilon,
    product_epsilon,
    restrict_model,
)
from .models import (
    D5_CHAINS,
    affine_a_local_system,
    affine_a_model,
    affine_d5_model,
    borel_epsilon_system,
    borel_model,
    check_borel_display,
    check_borel_matrix_action,
    check_borel_mult_eps,
    check_borel_residual,
    check_borel_table,
    d5_local_tables,
)


@dataclass(frozen=True)
class CheckInfo:
    identity: str
    suite: str


REGISTRY: dict[str, CheckInfo] = {
    # verma
    "verma-commuting": CheckInfo(
        "e_i^{c1} e_j^{c2} = e_j^{c2} e_i^{c1} when a_ij = a_ji = 0", "verma"
    ),
    "verma-braid": CheckInfo(
        "e_i^{c1} e_j^{c1 c2} e_i^{c2} = e_j^{c2} e_i^{c1 c2} e_j^{c1} when a_ij = a_ji = -1",
        "verma",
    ),
    # axioms
    "axiom-identity": CheckInfo("e_i^1 = id", "axioms"),
    "axiom-group-law": CheckInfo("e_i^{c1} e_i^{c2} = e_i^{c1 c2}", "axioms"),
    "axiom-domain": CheckInfo("e_i^c preserves the domain constraints exactly", "axioms"),
    "axiom-gamma": CheckInfo("gamma_j(e_i^c x) = c^(a_ij) gamma_j(x)", "axioms"),
    "axiom-eps-scale": CheckInfo("eps_i(e_i^c x) = c^(-1) eps_i(x)", "axioms"),
    "axiom-eps-commute": CheckInfo(
        "eps_i(e_j^c x) = eps_i(x) when a_ij = a_ji = 0", "axioms"
    ),
    # epsilon
    "eps-action-table": CheckInfo(
        "eps_J(e_i^c x): 1/c-scaling at the left end, boundary corrections just "
        "outside J, invariance elsewhere; starred mirror scales at the right end",
        "epsilon",
    ),
    "eps-partition-sum": CheckInfo(
        "eps*_J = sum over ordered partitions P of J of (-1)^(|J|-|P|) times the "
        "product of eps over the blocks of P",
        "epsilon",
    ),
    "eps-alternating": CheckInfo(
        "sum_{j=s-1}^{t} (-1)^(j-s+1) eps_[s,j] eps*_[j+1,t] = 0, and the starred mirror",
        "epsilon",
    ),
    "eps-well-defined": CheckInfo(
        "eps_J and eps*_J agree along both sides of the commuting and braid relations",
        "epsilon",
    ),
    "eps-pair-identity": CheckInfo(
        "eps_[i,i+1] + eps*_[i,i+1] = eps_i eps_{i+1}", "epsilon"
    ),
    # product
    "prod-gamma": CheckInfo("gamma_i(x,y) = gamma_i(x) gamma_i(y)", "product"),
    "prod-eps": CheckInfo("eps_i(x,y) = eps_i(x) + eps_i(y)/gamma_i(x)", "product"),
    "prod-c-split": CheckInfo(
        "the action parameter splits as c = c1 c2 with "
        "c1 = (c phi_i(x) + eps_i(y))/(phi_i(x) + eps_i(y))",
        "product",
    ),
    "prod-identity": CheckInfo("the product action at c = 1 is the identity", "product"),
    "prod-axiom-gamma": CheckInfo(
        "the product crystal satisfies the gamma scaling axiom", "product"
    ),
    "prod-axiom-eps": CheckInfo(
        "the product crystal satisfies the eps scaling axiom", "product"
    ),
    "prod-assoc": CheckInfo(
        "(X x Y) x Z and X x (Y x Z) induce identical actions, gammas and epsilons",
        "product",
    ),
    "prod-eps-system": CheckInfo(
        "the product epsilon tables satisfy the action table and the partition sums",
        "product",
    ),
    # borel-oracle
    "borel-residual": CheckInfo(
        "the above-diagonal entry created by the elementary conjugation vanishes identically",
        "borel-oracle",
    ),
    "borel-matrix-action": CheckInfo(
        "the expression-level action equals the numeric elementary-matrix conjugation",
        "borel-oracle",
    ),
    "borel-display": CheckInfo(
        "the conjugated matrix has u_i/c on the subdiagonal and the mixed closed "
        "forms in row i and column i+1",
        "borel-oracle",
    ),
    "borel-eps-entries": CheckInfo(
        "eps_[s,t](x) equals the unipotent entry u_{s,t} read from the matrix",
        "borel-oracle",
    ),
    "borel-minor": CheckInfo(
        "eps*_[s,t](x): the first-column det recurrence equals the determinant of the "
        "unipotent minor, computed by exact elimination",
        "borel-oracle",
    ),
    "borel-mult-eps": CheckInfo(
        "eps_i(x y) = eps_i(x) + eps_i(y)/gamma_i(x) for matrix products", "borel-oracle"
    ),
    "borel-product-eps": CheckInfo(
        "the product-table eps_[s,t](x,y) equals u_{s,t} of the matrix product",
        "borel-oracle",
    ),
    "borel-product-eps-star": CheckInfo(
        "the product-table eps*_[s,t](x,y) equals the minor determinant of the matrix product",
        "borel-oracle",
    ),
    # rmap
    "rmap-level-swap": CheckInfo(
        "the coordinate products of R(l, m) are (M, L): the levels swap", "rmap"
    ),
    "rmap-commutation": CheckInfo("e_i^c R = R e_i^c on the product crystals", "rmap"),
    "rmap-eps-preserved": CheckInfo("eps_i = eps_i o R", "rmap"),
    "rmap-gamma-preserved": CheckInfo("gamma_i = gamma_i o R", "rmap"),
    "rmap-braid": CheckInfo(
        "adjacent-pair applications (12)(23)(12) = (23)(12)(23) on triple products",
        "rmap",
    ),
    "rmap-fixed-point": CheckInfo("R swaps the homogeneous pair exactly", "rmap"),
    "rmap-diagonal": CheckInfo("with equal levels, R fixes every diagonal pair", "rmap"),
    "rmap-cyclic-shift": CheckInfo("R commutes with the cyclic index shift", "rmap"),
    # invariance
    "inv-eps": CheckInfo(
        "eps_J(R(x,y)) = eps_J(x,y) for every interval J of the product systems",
        "invariance",
    ),
    "inv-eps-star": CheckInfo(
        "eps*_J(R(x,y)) = eps*_J(x,y) for every interval J of the product systems",
        "invariance",
    ),
    # uniqueness
    "uniq-fixed-point": CheckInfo("R swaps the homogeneous pair exactly", "uniqueness"),
    "uniq-forced": CheckInfo(
        "the invariance equations at the homogeneous pair eliminate to a linear "
        "condition whose unique solution is the swapped pair",
        "uniqueness",
    ),
    "uniq-perturbation": CheckInfo(
        "constraint-preserving perturbations of the solution each violate at "
        "least one invariance equation",
        "uniqueness",
    ),
    "uniq-orbit-density": CheckInfo(
        "uniqueness beyond the probed point rests on the dense-orbit property "
        "of the product crystal (assumed, not derived)",
        "uniqueness",
    ),
    # ud
    "ud-gamma-shadow": CheckInfo(
        "UD: gamma_j after the C-shadow of e_i equals gamma_j + a_ij * C", "ud"
    ),
    "ud-eps-shadow": CheckInfo(
        "UD: eps_i drops by C under its own shadow; orthogonal shadows fix it", "ud"
    ),
    "ud-operator-sum": CheckInfo(
        "UD: the shadow operator preserves the coordinate sum and is additive in C",
        "ud",
    ),
    "ud-split": CheckInfo("UD: C1 + C2 = C for the tensor parameter split", "ud"),
    "ud-dichotomy": CheckInfo(
        "UD: at C = +-1 exactly one tensor factor changes (split lands in {(C,0),(0,C)})",
        "ud",
    ),
    "ud-r-commutation": CheckInfo(
        "UD: the combinatorial R commutes with the tensor shadow operators", "ud"
    ),
    "ud-r-eps": CheckInfo("UD: tropical eps_i is invariant under the combinatorial R", "ud"),
    "ud-r-gamma": CheckInfo(
        "UD: tropical gamma_i is invariant under the combinatorial R", "ud"
    ),
    "ud-r-braid": CheckInfo(
        "UD: combinatorial R satisfies (12)(23)(12) = (23)(12)(23) on integer triples",
        "ud",
    ),
    "ud-product-eps-shadow": CheckInfo(
        "UD: the tropicalized product eps tables are invariant under the combinatorial R",
        "ud",
    ),
    "ud-levels": CheckInfo("UD: the combinatorial R swaps coordinate sums", "ud"),
}

SUITES = tuple(dict.fromkeys(info.suite for info in REGISTRY.values()))

DEFAULT_SEEDS = {name: 1000 + 17 * k for k, name in enumerate(SUITES)}


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    subject: str
    identity: str
    verdict: str  # pass | fail | skip | assumed
    trials: int
    elapsed: float
    counterexample: dict | None = None
    note: str = ""


class SuiteError(ValueError):
    """Unknown suite name or invalid parameters."""


def _job_seed(suite_seed: int, check: str, subject: str) -> int:
    return suite_seed ^ zlib.crc32(f"{check}|{subject}".encode())


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


class _Collector:
    def __init__(self, suite: str, seed: int):
        self.suite = suite
        self.seed = seed
        self.results: list[CheckResult] = []

    def run(self, check: str, subject: str, fn):
        """Run one job ``fn(seed) -> CheckOutcome``; failures and crashes are recorded, never raised."""
        info = REGISTRY[check]
        seed = _job_seed(self.seed, check, subject)
        start = time.perf_counter()
        try:
            outcome = fn(seed)
            verdict = "pass" if outcome.ok else "fail"
            trials, witness, note = outcome.trials, outcome.witness, ""
        except DomainTooThinError as err:
            verdict, trials, witness, note = "fail", 0, None, str(err)
        except Exception as err:  # noqa: BLE001 - a crashing check is a failing check
            verdict, trials, witness, note = "fail", 0, None, f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        if verdict == "fail" and witness is None:
            witness = {"error": note}  # a failure always carries its evidence
        self.results.append(
            CheckResult(
                self.suite,
                check,
                subject,
                info.identity,
                verdict,
                trials,
                elapsed,
                _jsonable(witness) if witness else None,
                note,
            )
        )

    def record(self, check: str, subject: str, verdict: str, note: str = ""):
        info = REGISTRY[check]
        detail = {"error": note or "recorded failure"} if verdict == "fail" else None
        self.results.append(
            CheckResult(self.suite, check, subject, info.identity, verdict, 0, 0.0, detail, note)
        )

    def sorted_results(self) -> list[CheckResult]:
        return sorted(self.results, key=lambda r: (r.check, r.subject))


# --- parameters --------------------------------------------------------------------

# The models the axioms and epsilon suites run, by name; ``--model`` picks one.
# The builders are lambdas so that each call looks its constructor up by name.
_AXIOM_MODELS = {
    **{f"torus-a{n}": (lambda L, n=n: affine_a_model(n, L)) for n in (1, 2, 3)},
    "d5": lambda L: affine_d5_model(L),
    **{f"borel-sl{n + 1}": (lambda L, n=n: borel_model(n)) for n in (1, 2, 3, 4)},
}


def _d5_local(chain, level):
    eps, star = d5_local_tables(chain)
    return local_epsilon(affine_d5_model(level), chain, eps, star)


def _torus_local(n, level):
    chain = tuple(range(1, n + 1))
    return restrict_model(affine_a_model(n, level), chain), affine_a_local_system(n)


_EPSILON_TARGETS = {
    **{f"borel-sl{n + 1}": (lambda L, n=n: (borel_model(n), borel_epsilon_system(n))) for n in (1, 2, 3, 4)},
    **{f"d5-{''.join(map(str, ch))}": (lambda L, ch=ch: _d5_local(ch, L)) for ch in D5_CHAINS},
    **{f"torus-a{n}-local": (lambda L, n=n: _torus_local(n, L)) for n in (2, 3)},
}

_MODELS = {"axioms": _AXIOM_MODELS, "epsilon": _EPSILON_TARGETS}

# (default sizes, allowed sizes) of the suites that take ``n``
_SIZES = {
    "verma": ((1, 2, 3), range(1, 5)),
    "product": ((1, 2), range(1, 5)),
    "borel-oracle": ((1, 2, 3, 4), range(1, 7)),
    "rmap": ((1, 2, 3), range(1, 5)),
    "invariance": ((2, 3), range(1, 5)),
    "uniqueness": ((2,), range(2, 5)),
    "ud": ((1, 2), range(1, 5)),
}

_DEFAULTS = {"trials": 100, "box": 50, "L": 4, "M": 9, "N": 25, "a": 2, "b": 3}


@dataclass(frozen=True)
class Params:
    """Validated parameters of one suite run; ``n`` is None unless given."""

    trials: int
    box: int
    n: int | None
    sizes: tuple[int, ...]  # (n,), or the suite's default sizes
    L: Fraction
    M: Fraction
    N: Fraction
    a: Fraction
    b: Fraction
    model: str | None


def _writable(key: str, number):
    """``number``, if Python can write it out: an int of more than 4,300 digits it cannot, by default."""
    try:
        str(number)
    except ValueError:
        raise SuiteError(f"{key} has too many digits to write out") from None
    return number


def _integer(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SuiteError(f"{key} must be an integer, got {value!r}")
    try:
        number = int(value)
    except ValueError:
        raise SuiteError(f"{key} must be an integer, got {value!r}") from None
    return _writable(key, number)


def _positive_int(key: str, value) -> int:
    number = _integer(key, value)
    if number < 1:
        raise SuiteError(f"{key} must be at least 1, got {number}")
    return number


def _positive_rational(key: str, value) -> Fraction:
    if isinstance(value, (bool, float)) or not isinstance(value, (int, str, Fraction)):
        raise SuiteError(f"{key} must be an exact rational, got {value!r}")
    try:
        number = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SuiteError(f"{key} must be an exact rational, got {value!r}") from None
    _writable(key, number)
    if number <= 0:
        raise SuiteError(f"{key} must be positive, got {number}")
    return number


def parse_params(suite: str, params: dict) -> Params:
    """Validate ``params`` for ``suite``; raises :class:`SuiteError` before any job runs.

    ``None`` values count as absent.  ``trials`` and ``box`` are integers
    of at least 1, ``L``, ``M``, ``N``, ``a`` and ``b`` positive exact
    rationals; ``n`` must lie in the suite's size range and ``model`` must
    name one of the suite's models.
    """
    given = {k: v for k, v in params.items() if v is not None}
    unknown = sorted(set(given) - set(_DEFAULTS) - {"n", "model"})
    if unknown:
        raise SuiteError(f"unknown parameter {unknown[0]!r}; choose from n, model, {', '.join(_DEFAULTS)}")
    values = {**_DEFAULTS, "trials": 1000 if suite == "ud" else 100, **given}
    n = given.get("n")
    sizes = ()
    if suite in _SIZES:
        default, allowed = _SIZES[suite]
        sizes = default
        if n is not None:
            n = _integer("n", n)
            if n not in allowed:
                raise SuiteError(
                    f"n must be between {allowed.start} and {allowed.stop - 1} for the {suite} suite"
                )
            sizes = (n,)
    elif n is not None:
        raise SuiteError(f"the {suite} suite takes no n")
    model = given.get("model")
    if model is not None:
        if suite not in _MODELS:
            raise SuiteError(f"the {suite} suite takes no model")
        if model not in _MODELS[suite]:
            raise SuiteError(
                f"unknown model {model!r} for the {suite} suite; choose from {', '.join(_MODELS[suite])}"
            )
    return Params(
        trials=_positive_int("trials", values["trials"]),
        box=_positive_int("box", values["box"]),
        n=n,
        sizes=sizes,
        model=model,
        **{key: _positive_rational(key, values[key]) for key in ("L", "M", "N", "a", "b")},
    )


# --- suites ----------------------------------------------------------------------------
#
# A suite is a function (collector, params) that files its jobs: col.run for a
# sampled check, col.record for a row it decides itself (verma's skips, the
# uniqueness probe).


def _suite_verma(col: _Collector, p: Params) -> None:
    targets = [(f"torus-a{n}", affine_a_model(n, p.L)) for n in p.sizes]
    if p.n is None:
        # the full run exercises every built-in model, not just the torus family
        targets.append(("d5", affine_d5_model(p.L)))
        targets.append(("borel-sl4", borel_model(3)))
    for name, model in targets:
        pairs = applicable_pairs(model.cartan)
        for kind, value in (("verma-commuting", 0), ("verma-braid", -1)):
            chosen = [(i, j) for i, j in pairs if model.cartan.a(i, j) == value]
            if not chosen:
                col.record(kind, name, "skip", "no index pairs with this Cartan pattern")
            for i, j in chosen:
                col.run(
                    kind,
                    f"{name} pair=({i},{j})",
                    lambda s: check_composition_relation(model, i, j, p.trials, s),
                )


def _suite_axioms(col: _Collector, p: Params) -> None:
    t = p.trials
    for name, build in _AXIOM_MODELS.items():
        if p.model not in (None, name):
            continue
        model = build(p.L)
        labels = model.cartan.labels
        for i in labels:
            col.run("axiom-identity", f"{name} i={i}", lambda s: check_action_identity(model, i, t, s))
            col.run("axiom-group-law", f"{name} i={i}", lambda s: check_group_law(model, i, t, s))
            col.run("axiom-domain", f"{name} i={i}", lambda s: check_domain_preserved(model, i, t, s))
            for j in labels:
                col.run(
                    "axiom-gamma",
                    f"{name} pair=({i},{j})",
                    lambda s: check_gamma_scaling(model, i, j, t, s),
                )
                if i == j:
                    col.run(
                        "axiom-eps-scale",
                        f"{name} i={i}",
                        lambda s: check_eps_scaling(model, i, i, t, s),
                    )
                elif model.cartan.a(i, j) == 0 and model.cartan.a(j, i) == 0:
                    col.run(
                        "axiom-eps-commute",
                        f"{name} pair=({j},{i})",
                        lambda s: check_eps_scaling(model, i, j, t, s),
                    )


def _suite_epsilon(col: _Collector, p: Params) -> None:
    t = p.trials
    for name, build in _EPSILON_TARGETS.items():
        if p.model not in (None, name):
            continue
        model, sy = build(p.L)
        col.run("eps-action-table", name, lambda s: check_epsilon_axiom(sy, model, t, s))
        for J in sy.intervals():
            col.run("eps-partition-sum", f"{name} J={J}", lambda s: check_partition_sum(sy, model, J, t, s))
            col.run(
                "eps-alternating",
                f"{name} J={J}",
                lambda s: check_alternating_identities(sy, model, J, t, s),
            )
        for a in range(len(sy.chain) - 1):
            col.run("eps-pair-identity", f"{name} a={a}", lambda s: check_pair_identity(sy, model, a, t, s))
        for i in model.cartan.labels:
            for j in model.cartan.labels:
                if i < j and (model.cartan.a(i, j), model.cartan.a(j, i)) in ((0, 0), (-1, -1)):
                    col.run(
                        "eps-well-defined",
                        f"{name} pair=({i},{j})",
                        lambda s: check_well_defined(sy, model, i, j, t, s),
                    )


def _suite_product(col: _Collector, p: Params) -> None:
    t = p.trials
    for n in p.sizes:
        x_model, y_model = affine_a_model(n, p.L), affine_a_model(n, p.M)
        z = product(x_model, y_model)
        subject = f"torus-a{n}"
        col.run("prod-gamma", subject, lambda s: check_product_formula(z, x_model, y_model, "gamma", t, s))
        col.run("prod-eps", subject, lambda s: check_product_formula(z, x_model, y_model, "eps", t, s))
        col.run("prod-c-split", subject, lambda s: check_product_split(z, x_model, y_model, t, s))
        for i in z.cartan.labels:
            col.run("prod-identity", f"{subject} i={i}", lambda s: check_action_identity(z, i, t, s))
            for j in z.cartan.labels:
                col.run(
                    "prod-axiom-gamma",
                    f"{subject} pair=({i},{j})",
                    lambda s: check_gamma_scaling(z, i, j, t, s),
                )
            col.run("prod-axiom-eps", f"{subject} i={i}", lambda s: check_eps_scaling(z, i, i, t, s))
        col.run(
            "prod-assoc",
            subject,
            lambda s: check_product_associativity(x_model, y_model, affine_a_model(n, p.N), t, s),
        )

    # product epsilon tables on the local chains
    for n in p.sizes if p.n is not None else (2, 3):
        chain = tuple(range(1, n + 1))
        left = restrict_model(affine_a_model(n, p.L), chain)
        right = restrict_model(affine_a_model(n, p.M), chain)
        base = affine_a_local_system(n)
        table = product_epsilon(base, base, left)
        zloc = product(left, right)
        col.run("prod-eps-system", f"torus-a{n}-local", lambda s: check_epsilon_system(table, zloc, t, s))


def _suite_borel_oracle(col: _Collector, p: Params) -> None:
    t = p.trials
    for n in p.sizes:
        model, system = borel_model(n), borel_epsilon_system(n)
        pair_table = product_epsilon(system, system, model)
        subject = f"sl{n + 1}"
        for i in range(1, n + 1):
            for check, fn in (
                ("borel-residual", check_borel_residual),
                ("borel-matrix-action", check_borel_matrix_action),
                ("borel-display", check_borel_display),
            ):
                col.run(check, f"{subject} i={i}", lambda s: fn(model, i, t, s))
        for check, table, starred, pair in (
            ("borel-eps-entries", system, False, False),
            ("borel-minor", system, True, False),
            ("borel-product-eps", pair_table, False, True),
            ("borel-product-eps-star", pair_table, True, True),
        ):
            col.run(check, subject, lambda s: check_borel_table(model, table, starred, pair, t, s))
        col.run("borel-mult-eps", subject, lambda s: check_borel_mult_eps(model, t, s))


def _suite_rmap(col: _Collector, p: Params) -> None:
    t, L, M = p.trials, p.L, p.M
    for n in p.sizes:
        subject = f"n={n}"
        col.run("rmap-level-swap", subject, lambda s: rmap.check_level_swap(n, L, M, t, s))
        for i in range(n + 1):
            col.run(
                "rmap-commutation", f"{subject} i={i}", lambda s: rmap.check_commutation(n, L, M, i, t, s)
            )
            for check, which in (("rmap-eps-preserved", "eps"), ("rmap-gamma-preserved", "gamma")):
                col.run(check, f"{subject} i={i}", lambda s: rmap.check_preserved(n, L, M, i, which, t, s))
        col.run("rmap-braid", subject, lambda s: rmap.check_braid(n, (L, M, p.N), t, s))
        col.run("rmap-braid", f"{subject} degenerate", lambda s: rmap.check_braid(n, (L, M, M), t, s))
        col.run("rmap-fixed-point", subject, lambda s: rmap.check_fixed_point(n, p.a, p.b))
        col.run(
            "rmap-diagonal",
            subject,
            lambda s: rmap.check_diagonal_identity(n, Fraction(2) ** (n + 1), min(t, 20), s),
        )
        col.run("rmap-cyclic-shift", subject, lambda s: rmap.check_cyclic_shift(n, L, M, t, s))


def _suite_invariance(col: _Collector, p: Params) -> None:
    t, L, M = p.trials, p.L, p.M
    for n in p.sizes:
        for check, starred in (("inv-eps", False), ("inv-eps-star", True)):
            col.run(check, f"n={n}", lambda s: rmap.check_epsilon_invariance(n, L, M, t, s, starred))


def _verdict(ok: bool, note: str, failure_note: str) -> tuple[str, str]:
    return ("pass", note) if ok else ("fail", failure_note)


def _suite_uniqueness(col: _Collector, p: Params) -> None:
    for n in p.sizes:
        subject = f"n={n} a={p.a} b={p.b}"
        seed = _job_seed(col.seed, "uniq", subject)
        report = rmap.uniqueness_probe(n, p.a, p.b, perturbations=50, seed=seed)
        fixed = report.fixed_point_verified
        col.record("uniq-fixed-point", subject, *_verdict(fixed, "", "R does not swap the homogeneous pair"))
        # the probe raises rather than report a vanishing linear coefficient
        broken = [
            why
            for ok, why in (
                (report.solution_matches_swap, "the eliminated solution is not the swapped pair"),
                (report.equations_hold_at_solution, "the invariance equations fail at the solution"),
            )
            if not ok
        ]
        forced = (
            f"pair product forced to {report.pair_product_forced}; "
            f"linear coefficient {report.linear_coefficient}"
        )
        col.record("uniq-forced", subject, *_verdict(not broken, forced, "; ".join([forced, *broken])))
        if report.perturbation_trials == 0:
            col.record("uniq-perturbation", subject, "skip", "degenerate parameters (a = b)")
        else:
            tried = f"{report.perturbation_trials} perturbations"
            failure = f"{tried}; one satisfies every invariance equation"
            ok = report.perturbations_all_violate
            col.record("uniq-perturbation", subject, *_verdict(ok, tried, failure))
        col.record(
            "uniq-orbit-density",
            subject,
            "assumed",
            "dense-orbit hypothesis on the product crystal taken as given",
        )


def _suite_ud(col: _Collector, p: Params) -> None:
    for n in p.sizes:
        subject = f"n={n}"
        for check in ud.ROWS:
            col.run(check, subject, lambda s: ud.check_rows(check, n, p.box, p.trials, s))
        col.run("ud-dichotomy", subject, lambda s: ud.check_dichotomy(n, p.box, p.trials, s))


_SUITES = {
    "verma": _suite_verma,
    "axioms": _suite_axioms,
    "epsilon": _suite_epsilon,
    "product": _suite_product,
    "borel-oracle": _suite_borel_oracle,
    "rmap": _suite_rmap,
    "invariance": _suite_invariance,
    "uniqueness": _suite_uniqueness,
    "ud": _suite_ud,
}


def run_suite(name: str, params: dict | None = None, seed: int | None = None) -> list[CheckResult]:
    """Run one named suite; returns results sorted by (check id, subject)."""
    if name not in SUITES:
        raise SuiteError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    p = parse_params(name, dict(params or {}))
    col = _Collector(name, DEFAULT_SEEDS[name] if seed is None else seed)
    _SUITES[name](col, p)
    return col.sorted_results()


def report_dict(
    name: str, params: dict, seed: int | None, results: list[CheckResult]
) -> dict:
    return {
        "suite": name,
        "params": {k: _jsonable(v) for k, v in sorted(params.items())},
        "seed": DEFAULT_SEEDS[name] if seed is None else seed,
        "results": [
            {
                "suite": r.suite,
                "check": r.check,
                "subject": r.subject,
                "identity": r.identity,
                "verdict": r.verdict,
                "trials": r.trials,
                "counterexample": r.counterexample,
                "note": r.note,
            }
            for r in results
        ],
    }


def report_json(name: str, params: dict, seed: int | None, results: list[CheckResult]) -> str:
    """Canonical (bit-for-bit reproducible) JSON of results in hand; timings omitted."""
    return json.dumps(report_dict(name, params, seed, results), sort_keys=True, indent=2) + "\n"


def all_pass(results: list[CheckResult]) -> bool:
    return all(r.verdict != "fail" for r in results)
