"""Named verification suites over the whole library.

Every check has a stable id registered in :data:`REGISTRY` together with a
one-line statement of the identity it verifies; the generated ledger in
:mod:`gcrystal.ledger` is produced from the same table, so documentation
cannot drift from what actually runs.  A suite expands its parameters into
jobs (one per model / index-pair / size), runs each with a seed derived
deterministically from the suite seed and the job's name, and collects
:class:`CheckResult` rows.  A failing or crashing job never aborts the
suite; results are sorted by (check id, subject) so aggregation order is
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
    CheckOutcome,
    applicable_pairs,
    apply_e,
    check_action_identity,
    check_composition_relation,
    check_domain_preserved,
    check_eps_scaling,
    check_gamma_scaling,
    check_group_law,
    pack_pair,
    pointwise_check,
    product,
    product_split_exprs,
    split_pair,
)
from .epsilon import (
    check_alternating_identities,
    check_epsilon_axiom,
    check_pair_identity,
    check_partition_sum,
    check_well_defined,
    product_epsilon,
    restrict_model,
)
from .expr import Verdict, evaluate, identical_on_domain, mul, var
from .models import (
    D5_CHAINS,
    affine_a_local_system,
    affine_a_model,
    affine_d5_model,
    borel_epsilon_system,
    borel_from_point,
    borel_model,
    borel_multiply,
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
        "eps*_[s,t](x): the first-column det recurrence equals the permutation-sum "
        "determinant of the unipotent minor",
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

SUITES = (
    "verma",
    "axioms",
    "epsilon",
    "product",
    "borel-oracle",
    "rmap",
    "invariance",
    "uniqueness",
    "ud",
)

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
    """Unknown suite name or out-of-range parameters."""


def _job_seed(suite_seed: int, check: str, subject: str) -> int:
    return suite_seed ^ zlib.crc32(f"{check}|{subject}".encode())


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    return str(value)


def _normalize(outcome) -> tuple[bool, int, dict | None]:
    if isinstance(outcome, CheckOutcome):
        return outcome.ok, outcome.trials, outcome.witness
    if isinstance(outcome, Verdict):
        detail = None
        if outcome.counterexample is not None:
            detail = {
                "point": outcome.counterexample.point,
                "lhs": outcome.counterexample.lhs,
                "rhs": outcome.counterexample.rhs,
            }
        return outcome.equal, outcome.trials, detail
    raise TypeError(f"unexpected outcome {outcome!r}")


class _Collector:
    def __init__(self, suite: str, seed: int):
        self.suite = suite
        self.seed = seed
        self.results: list[CheckResult] = []

    def run(self, check: str, subject: str, fn):
        """Run one job; failures and crashes are recorded, never raised."""
        info = REGISTRY[check]
        seed = _job_seed(self.seed, check, subject)
        start = time.perf_counter()
        try:
            ok, trials, witness = _normalize(fn(seed))
            verdict = "pass" if ok else "fail"
            note = ""
        except DomainTooThinError as err:
            ok, trials, witness, verdict, note = False, 0, None, "fail", str(err)
        except Exception as err:  # noqa: BLE001 - a crashing check is a failing check
            ok, trials, witness, verdict, note = False, 0, None, "fail", f"{type(err).__name__}: {err}"
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


def _as_fraction(value, default: Fraction) -> Fraction:
    if value is None:
        return default
    return Fraction(value)


def _n_values(params: dict, default: tuple[int, ...], cap: int) -> tuple[int, ...]:
    n = params.get("n")
    if n is None:
        return default
    n = int(n)
    if not 1 <= n <= cap:
        raise SuiteError(f"n must be between 1 and {cap}")
    return (n,)


# --- suite bodies ------------------------------------------------------------------


def _suite_verma(params: dict, seed: int) -> list[CheckResult]:
    col = _Collector("verma", seed)
    trials = int(params.get("trials", 100))
    level = _as_fraction(params.get("L"), Fraction(4))
    targets = [
        (f"torus-a{n}", affine_a_model(n, level))
        for n in _n_values(params, (1, 2, 3), 4)
    ]
    if params.get("n") is None:
        # the full run exercises every built-in model, not just the torus family
        targets.append(("d5", affine_d5_model(level)))
        targets.append(("borel-sl4", borel_model(3)))
    for name, model in targets:
        pairs = applicable_pairs(model.cartan)
        for kind, value in (("verma-commuting", 0), ("verma-braid", -1)):
            chosen = [(i, j) for i, j in pairs if model.cartan.a(i, j) == value]
            if not chosen:
                col.record(kind, name, "skip", "no index pairs with this Cartan pattern")
                continue
            for i, j in chosen:
                col.run(
                    kind,
                    f"{name} pair=({i},{j})",
                    lambda s, m=model, i=i, j=j: check_composition_relation(m, i, j, trials, s),
                )
    return col.sorted_results()


def _axiom_models(params: dict):
    level = _as_fraction(params.get("L"), Fraction(4))
    wanted = params.get("model")
    out = []
    for n in (1, 2, 3):
        out.append((f"torus-a{n}", affine_a_model(n, level)))
    out.append(("d5", affine_d5_model(level)))
    for n in (1, 2, 3, 4):
        out.append((f"borel-sl{n + 1}", borel_model(n)))
    if wanted is not None:
        names = [name for name, _ in out]
        out = [(name, m) for name, m in out if name == wanted]
        if not out:
            raise SuiteError(
                f"unknown model {wanted!r} for the axioms suite; choose from {', '.join(names)}"
            )
    return out


def _suite_axioms(params: dict, seed: int) -> list[CheckResult]:
    col = _Collector("axioms", seed)
    trials = int(params.get("trials", 100))
    for name, model in _axiom_models(params):
        labels = model.cartan.labels
        for i in labels:
            col.run(
                "axiom-identity",
                f"{name} i={i}",
                lambda s, m=model, i=i: check_action_identity(m, i, trials, s),
            )
            col.run(
                "axiom-group-law",
                f"{name} i={i}",
                lambda s, m=model, i=i: check_group_law(m, i, trials, s),
            )
            col.run(
                "axiom-domain",
                f"{name} i={i}",
                lambda s, m=model, i=i: check_domain_preserved(m, i, trials, s),
            )
            for j in labels:
                col.run(
                    "axiom-gamma",
                    f"{name} pair=({i},{j})",
                    lambda s, m=model, i=i, j=j: check_gamma_scaling(m, i, j, trials, s),
                )
                if i == j or (model.cartan.a(i, j) == 0 and model.cartan.a(j, i) == 0):
                    check = "axiom-eps-scale" if i == j else "axiom-eps-commute"
                    col.run(
                        check,
                        f"{name} pair=({j},{i})" if i != j else f"{name} i={i}",
                        lambda s, m=model, i=i, j=j: check_eps_scaling(m, i, j, trials, s),
                    )
    return col.sorted_results()


def _epsilon_targets(params: dict):
    wanted = params.get("model")
    targets = []
    for n in (1, 2, 3, 4):
        model = borel_model(n)
        targets.append((f"borel-sl{n + 1}", model, borel_epsilon_system(n)))
    level = _as_fraction(params.get("L"), Fraction(4))
    d5 = affine_d5_model(level)
    for chain in D5_CHAINS:
        eps, star = d5_local_tables(chain)
        from .epsilon import local_epsilon

        restricted, system = local_epsilon(d5, chain, eps, star)
        targets.append((f"d5-{''.join(map(str, chain))}", restricted, system))
    for n in (2, 3):
        model = restrict_model(affine_a_model(n, level), tuple(range(1, n + 1)))
        targets.append((f"torus-a{n}-local", model, affine_a_local_system(n)))
    if wanted is not None:
        names = [t[0] for t in targets]
        targets = [t for t in targets if t[0] == wanted]
        if not targets:
            raise SuiteError(
                f"unknown model {wanted!r} for the epsilon suite; choose from {', '.join(names)}"
            )
    return targets


def _suite_epsilon(params: dict, seed: int) -> list[CheckResult]:
    col = _Collector("epsilon", seed)
    trials = int(params.get("trials", 100))
    for name, model, system in _epsilon_targets(params):
        col.run(
            "eps-action-table",
            name,
            lambda s, m=model, sy=system: check_epsilon_axiom(sy, m, None, trials, s),
        )
        for interval in system.intervals():
            col.run(
                "eps-partition-sum",
                f"{name} J={interval}",
                lambda s, m=model, sy=system, J=interval: check_partition_sum(sy, m, J, trials, s),
            )
            col.run(
                "eps-alternating",
                f"{name} J={interval}",
                lambda s, m=model, sy=system, J=interval: check_alternating_identities(
                    sy, m, J, trials, s
                ),
            )
        for a in range(len(system.chain) - 1):
            col.run(
                "eps-pair-identity",
                f"{name} a={a}",
                lambda s, m=model, sy=system, a=a: check_pair_identity(sy, m, a, trials, s),
            )
        for i in model.cartan.labels:
            for j in model.cartan.labels:
                if i >= j:
                    continue
                if (model.cartan.a(i, j), model.cartan.a(j, i)) not in ((0, 0), (-1, -1)):
                    continue
                col.run(
                    "eps-well-defined",
                    f"{name} pair=({i},{j})",
                    lambda s, m=model, sy=system, i=i, j=j: check_well_defined(
                        sy, m, i, j, None, trials, s
                    ),
                )
    return col.sorted_results()


def _suite_product(params: dict, seed: int) -> list[CheckResult]:
    col = _Collector("product", seed)
    trials = int(params.get("trials", 100))
    ll = _as_fraction(params.get("L"), Fraction(4))
    lr = _as_fraction(params.get("M"), Fraction(9))
    third = _as_fraction(params.get("N"), Fraction(25))
    for n in _n_values(params, (1, 2), 4):
        x_model = affine_a_model(n, ll)
        y_model = affine_a_model(n, lr)
        z = product(x_model, y_model)
        subject = f"torus-a{n}"

        # The product model builds its gamma/eps from these formulas, so the
        # meaningful check is pointwise against separately evaluated factors.
        def prod_gamma(s, z=z, x_model=x_model, y_model=y_model):
            def fn(point):
                x, y = split_pair(point, x_model.variables, y_model.variables)
                for i in z.cartan.labels:
                    lhs = evaluate(z.gamma[i], point)
                    rhs = evaluate(x_model.gamma[i], x) * evaluate(y_model.gamma[i], y)
                    if lhs != rhs:
                        return {"i": i, "x": x, "y": y, "lhs": lhs, "rhs": rhs}
                return None

            return pointwise_check(fn, z.domain_spec(s), trials)

        col.run("prod-gamma", subject, prod_gamma)

        def prod_eps(s, z=z, x_model=x_model, y_model=y_model):
            def fn(point):
                x, y = split_pair(point, x_model.variables, y_model.variables)
                for i in z.cartan.labels:
                    lhs = evaluate(z.eps[i], point)
                    rhs = evaluate(x_model.eps[i], x) + evaluate(y_model.eps[i], y) / evaluate(
                        x_model.gamma[i], x
                    )
                    if lhs != rhs:
                        return {"i": i, "x": x, "y": y, "lhs": lhs, "rhs": rhs}
                return None

            return pointwise_check(fn, z.domain_spec(s), trials)

        col.run("prod-eps", subject, prod_eps)

        def c_split(s, x_model=x_model, y_model=y_model, z=z):
            for i in z.cartan.labels:
                c1, c2 = product_split_exprs(x_model, y_model, i)
                v = identical_on_domain(mul(c1, c2), var("c"), z.domain_spec(s, extra=("c",)), trials)
                if not v:
                    return v
            return v

        col.run("prod-c-split", subject, c_split)

        for i in z.cartan.labels:
            col.run(
                "prod-identity",
                f"{subject} i={i}",
                lambda s, z=z, i=i: check_action_identity(z, i, trials, s),
            )
            for j in z.cartan.labels:
                col.run(
                    "prod-axiom-gamma",
                    f"{subject} pair=({i},{j})",
                    lambda s, z=z, i=i, j=j: check_gamma_scaling(z, i, j, trials, s),
                )
            col.run(
                "prod-axiom-eps",
                f"{subject} i={i}",
                lambda s, z=z, i=i: check_eps_scaling(z, i, i, trials, s),
            )

        col.run(
            "prod-assoc",
            subject,
            lambda s, n=n: _check_product_associativity(n, ll, lr, third, trials, s),
        )

    # product epsilon tables on the local chains
    for n in _n_values(params, (2, 3), 4):
        chain = tuple(range(1, n + 1))
        left = restrict_model(affine_a_model(n, ll), chain)
        right = restrict_model(affine_a_model(n, lr), chain)
        base = affine_a_local_system(n)
        table = product_epsilon(base, base, left)
        zloc = product(left, right)
        col.run(
            "prod-eps-system",
            f"torus-a{n}-local",
            lambda s, t=table, z=zloc: _check_product_system(t, z, trials, s),
        )
    return col.sorted_results()


def _check_product_system(table, model, trials, seed):
    out = check_epsilon_axiom(table, model, None, trials, seed)
    if not out.ok:
        return out
    for interval in table.intervals():
        for verdict in (
            check_partition_sum(table, model, interval, trials, seed),
            check_alternating_identities(table, model, interval, trials, seed),
        ):
            if not verdict:
                return verdict
    return out


def _check_product_associativity(n, la, lb, lc, trials, seed) -> CheckOutcome:
    """Compare ((X x Y) x Z) with (X x (Y x Z)) on matched sample points."""
    x_model = affine_a_model(n, la)
    y_model = affine_a_model(n, lb)
    z_model = affine_a_model(n, lc)
    left = product(product(x_model, y_model), z_model)
    right = product(x_model, product(y_model, z_model))
    names = x_model.variables

    def to_left(x, y, z):
        return pack_pair(pack_pair(x, y), z)

    def to_right(x, y, z):
        return pack_pair(x, pack_pair(y, z))

    spec = right.domain_spec(seed, extra=("s1",))

    def fn(point):
        # sampled over the right association: X is "v.x", Y "v.x.y", Z "v.y.y"
        c = point["s1"]
        x = {v: point[f"{v}.x"] for v in names}
        y = {v: point[f"{v}.x.y"] for v in names}
        z = {v: point[f"{v}.y.y"] for v in names}
        lp, rp = to_left(x, y, z), to_right(x, y, z)
        for i in left.cartan.labels:
            lg = evaluate(left.gamma[i], lp)
            rg = evaluate(right.gamma[i], rp)
            le = evaluate(left.eps[i], lp)
            re = evaluate(right.eps[i], rp)
            if (lg, le) != (rg, re):
                return {"i": i, "gamma": (lg, rg), "eps": (le, re)}
            la_pt = apply_e(left, i, c, lp)
            ra_pt = apply_e(right, i, c, rp)
            x1 = {v: la_pt[f"{v}.x.x"] for v in names}
            y1 = {v: la_pt[f"{v}.y.x"] for v in names}
            z1 = {v: la_pt[f"{v}.y"] for v in names}
            x2 = {v: ra_pt[f"{v}.x"] for v in names}
            y2 = {v: ra_pt[f"{v}.x.y"] for v in names}
            z2 = {v: ra_pt[f"{v}.y.y"] for v in names}
            if (x1, y1, z1) != (x2, y2, z2):
                return {"i": i, "c": c, "left": (x1, y1, z1), "right": (x2, y2, z2)}
        return None

    return pointwise_check(fn, spec, trials)


def _suite_borel_oracle(params: dict, seed: int) -> list[CheckResult]:
    col = _Collector("borel-oracle", seed)
    trials = int(params.get("trials", 100))
    for n in _n_values(params, (1, 2, 3, 4), 6):
        subject = f"sl{n + 1}"
        model = borel_model(n)
        system = borel_epsilon_system(n)

        for i in range(1, n + 1):
            col.run(
                "borel-residual",
                f"{subject} i={i}",
                lambda s, n=n, i=i, m=model: _check_borel_residual(n, i, m, trials, s),
            )
            col.run(
                "borel-matrix-action",
                f"{subject} i={i}",
                lambda s, n=n, i=i, m=model: _check_borel_matrix_action(n, i, m, trials, s),
            )
            col.run(
                "borel-display",
                f"{subject} i={i}",
                lambda s, n=n, i=i, m=model: _check_borel_display(n, i, m, trials, s),
            )
        col.run(
            "borel-eps-entries",
            subject,
            lambda s, n=n, m=model, sy=system: _check_borel_eps_entries(n, m, sy, trials, s),
        )
        col.run(
            "borel-minor",
            subject,
            lambda s, n=n, m=model, sy=system: _check_borel_minor(n, m, sy, trials, s),
        )
        col.run(
            "borel-mult-eps",
            subject,
            lambda s, n=n, m=model: _check_borel_mult_eps(n, m, trials, s),
        )
        col.run(
            "borel-product-eps",
            subject,
            lambda s, n=n: _check_borel_product_oracle(n, trials, s, starred=False),
        )
        col.run(
            "borel-product-eps-star",
            subject,
            lambda s, n=n: _check_borel_product_oracle(n, trials, s, starred=True),
        )
    return col.sorted_results()


def _check_borel_residual(n, i, model, trials, seed) -> Verdict:
    from .expr import vanishes_on_domain
    from .models import borel_action

    residual = borel_action(n, i).residual
    return vanishes_on_domain(residual, model.domain_spec(seed, extra=("c",)), trials)


def _check_borel_matrix_action(n, i, model, trials, seed) -> CheckOutcome:
    from .models import borel_apply_e_matrix

    def fn(point):
        c = point["s1"]
        x = {k: v for k, v in point.items() if k != "s1"}
        try:
            via_matrix = borel_apply_e_matrix(borel_from_point(x, n), i, c).to_point()
        except ZeroDivisionError:
            from .expr import EvalDomainError

            raise EvalDomainError("action undefined at sample")
        via_exprs = apply_e(model, i, c, x)
        if via_matrix != via_exprs:
            return {"i": i, "c": c, "x": x, "matrix": via_matrix, "exprs": via_exprs}
        return None

    return pointwise_check(fn, model.domain_spec(seed, extra=("s1",)), trials)


def _check_borel_display(n, i, model, trials, seed) -> CheckOutcome:
    """Frozen closed forms of the transformed coordinates."""
    def fn(point):
        c = point["s1"]
        x = {k: v for k, v in point.items() if k != "s1"}
        y = apply_e(model, i, c, x)

        def u(j, k):
            return x[f"u{j}" if j == k else f"u{j}{k}"]

        def uy(j, k):
            return y[f"u{j}" if j == k else f"u{j}{k}"]

        if uy(i, i) != u(i, i) / c:
            return {"slot": ("u", i), "i": i}
        if y[f"t{i}"] != c * x[f"t{i}"] or y[f"t{i + 1}"] != x[f"t{i + 1}"] / c:
            return {"slot": ("t", i), "i": i}
        for j in range(1, i):
            expected = u(j, i - 1) + (c - 1) * u(j, i) / u(i, i)
            if uy(j, i - 1) != expected:
                return {"slot": ("row", j), "i": i}
        for k in range(i + 1, n + 1):
            expected = c * (u(i + 1, k) + (1 / c - 1) * u(i, k) / u(i, i))
            if uy(i + 1, k) != expected:
                return {"slot": ("col", k), "i": i}
            if uy(i, k) != u(i, k) / c:
                return {"slot": ("col-rescale", k), "i": i}
        return None

    return pointwise_check(fn, model.domain_spec(seed, extra=("s1",)), trials)


def _check_borel_eps_entries(n, model, system, trials, seed) -> CheckOutcome:
    def fn(point):
        element = borel_from_point(point, n)
        for a, b in system.intervals():
            expr_val = evaluate(system.eps_at(a, b), point)
            mat_val = element.eps_entry(a + 1, b + 1)
            if expr_val != mat_val:
                return {"interval": (a, b), "expr": expr_val, "matrix": mat_val}
        return None

    return pointwise_check(fn, model.domain_spec(seed), trials)


def _check_borel_minor(n, model, system, trials, seed) -> CheckOutcome:
    def fn(point):
        element = borel_from_point(point, n)
        for a, b in system.intervals():
            expr_val = evaluate(system.star_at(a, b), point)
            mat_val = element.minor(a + 1, b + 1)
            if expr_val != mat_val:
                return {"interval": (a, b), "expr": expr_val, "matrix": mat_val}
        return None

    return pointwise_check(fn, model.domain_spec(seed), trials)


def _check_borel_mult_eps(n, model, trials, seed) -> CheckOutcome:
    pair_spec = product(model, model).domain_spec(seed)

    def fn(point):
        x, y = split_pair(point, model.variables, model.variables)
        ex, ey = borel_from_point(x, n), borel_from_point(y, n)
        prod_el = borel_multiply(ex, ey)
        for i in range(1, n + 1):
            lhs = prod_el.eps_entry(i, i)
            rhs = evaluate(model.eps[i], x) + evaluate(model.eps[i], y) / evaluate(
                model.gamma[i], x
            )
            if lhs != rhs:
                return {"i": i, "lhs": lhs, "rhs": rhs}
        return None

    return pointwise_check(fn, pair_spec, trials)


def _check_borel_product_oracle(n, trials, seed, starred: bool) -> CheckOutcome:
    """Two routes to the epsilon data of a product of group elements.

    Route one evaluates the product-table expressions at the pair of
    points; route two multiplies the matrices and reads entries (or minors)
    off the product.  Exact agreement required.
    """
    model = borel_model(n)
    system = borel_epsilon_system(n)
    table = product_epsilon(system, system, model)
    pair_spec = product(model, model).domain_spec(seed)

    def fn(point):
        x, y = split_pair(point, model.variables, model.variables)
        prod_el = borel_multiply(borel_from_point(x, n), borel_from_point(y, n))
        for a, b in table.intervals():
            if starred:
                expr_val = evaluate(table.star_at(a, b), point)
                mat_val = prod_el.minor(a + 1, b + 1)
            else:
                expr_val = evaluate(table.eps_at(a, b), point)
                mat_val = prod_el.eps_entry(a + 1, b + 1)
            if expr_val != mat_val:
                return {
                    "interval": (a, b),
                    "starred": starred,
                    "table": expr_val,
                    "matrix": mat_val,
                }
        return None

    return pointwise_check(fn, pair_spec, trials)


def _suite_rmap(params: dict, seed: int) -> list[CheckResult]:
    col = _Collector("rmap", seed)
    trials = int(params.get("trials", 100))
    ll = _as_fraction(params.get("L"), Fraction(4))
    lr = _as_fraction(params.get("M"), Fraction(9))
    third = _as_fraction(params.get("N"), Fraction(25))
    for n in _n_values(params, (1, 2, 3), 4):
        subject = f"n={n}"
        col.run("rmap-level-swap", subject, lambda s, n=n: rmap.check_level_swap(n, ll, lr, trials, s))
        for i in range(n + 1):
            col.run(
                "rmap-commutation",
                f"{subject} i={i}",
                lambda s, n=n, i=i: rmap.check_commutation(n, ll, lr, i, trials, s),
            )
            col.run(
                "rmap-eps-preserved",
                f"{subject} i={i}",
                lambda s, n=n, i=i: rmap.check_eps_preserved(n, ll, lr, i, trials, s),
            )
            col.run(
                "rmap-gamma-preserved",
                f"{subject} i={i}",
                lambda s, n=n, i=i: rmap.check_gamma_preserved(n, ll, lr, i, trials, s),
            )
        col.run(
            "rmap-braid",
            subject,
            lambda s, n=n: rmap.check_braid(n, (ll, lr, third), trials, s),
        )
        col.run(
            "rmap-braid",
            f"{subject} degenerate",
            lambda s, n=n: rmap.check_braid(n, (ll, lr, lr), trials, s),
        )
        col.run(
            "rmap-fixed-point",
            subject,
            lambda s, n=n: rmap.check_fixed_point(n, Fraction(2), Fraction(3)),
        )
        col.run(
            "rmap-diagonal",
            subject,
            lambda s, n=n: rmap.check_diagonal_identity(n, Fraction(2) ** (n + 1), min(trials, 20), s),
        )
        col.run(
            "rmap-cyclic-shift",
            subject,
            lambda s, n=n: rmap.check_cyclic_shift(n, ll, lr, trials, s),
        )
    return col.sorted_results()


def _suite_invariance(params: dict, seed: int) -> list[CheckResult]:
    col = _Collector("invariance", seed)
    trials = int(params.get("trials", 100))
    ll = _as_fraction(params.get("L"), Fraction(4))
    lr = _as_fraction(params.get("M"), Fraction(9))
    for n in _n_values(params, (2, 3), 4):
        col.run(
            "inv-eps",
            f"n={n}",
            lambda s, n=n: rmap.check_epsilon_invariance(n, ll, lr, trials, s, starred=False),
        )
        col.run(
            "inv-eps-star",
            f"n={n}",
            lambda s, n=n: rmap.check_epsilon_invariance(n, ll, lr, trials, s, starred=True),
        )
    return col.sorted_results()


def _suite_uniqueness(params: dict, seed: int) -> list[CheckResult]:
    col = _Collector("uniqueness", seed)
    n = int(params.get("n") or 2)
    if n < 2 or n > 4:
        raise SuiteError("the uniqueness probe supports 2 <= n <= 4")
    a = _as_fraction(params.get("a"), Fraction(2))
    b = _as_fraction(params.get("b"), Fraction(3))
    subject = f"n={n} a={a} b={b}"
    report = rmap.uniqueness_probe(n, a, b, perturbations=50, seed=_job_seed(seed, "uniq", subject))

    col.record("uniq-fixed-point", subject, "pass" if report.fixed_point_verified else "fail")
    forced = (
        report.solution_matches_swap
        and report.equations_hold_at_solution
        and (report.linear_coefficient is None or report.linear_coefficient != 0)
    )
    col.record(
        "uniq-forced",
        subject,
        "pass" if forced else "fail",
        f"pair product forced to {report.pair_product_forced}; "
        f"linear coefficient {report.linear_coefficient}",
    )
    if report.perturbation_trials == 0:
        col.record("uniq-perturbation", subject, "skip", "degenerate parameters (a = b)")
    else:
        col.record(
            "uniq-perturbation",
            subject,
            "pass" if report.perturbations_all_violate else "fail",
            f"{report.perturbation_trials} perturbations",
        )
    col.record(
        "uniq-orbit-density",
        subject,
        "assumed",
        "dense-orbit hypothesis on the product crystal taken as given",
    )
    return col.sorted_results()


def _suite_ud(params: dict, seed: int) -> list[CheckResult]:
    col = _Collector("ud", seed)
    samples = int(params.get("trials", 1000))
    box = int(params.get("box", 50))
    for n in _n_values(params, (1, 2), 4):
        subject = f"n={n}"
        col.run("ud-gamma-shadow", subject, lambda s, n=n: _ud_gamma_shadow(n, box, samples, s))
        col.run("ud-eps-shadow", subject, lambda s, n=n: _ud_eps_shadow(n, box, samples, s))
        col.run("ud-operator-sum", subject, lambda s, n=n: _ud_operator_sum(n, box, samples, s))
        col.run("ud-split", subject, lambda s, n=n: _ud_split(n, box, samples, s))
        col.run("ud-dichotomy", subject, lambda s, n=n: _ud_dichotomy(n, box, samples, s))
        col.run("ud-levels", subject, lambda s, n=n: _ud_levels(n, box, samples, s))
        col.run("ud-r-eps", subject, lambda s, n=n: _ud_r_invariant(n, box, samples, s, "eps"))
        col.run("ud-r-gamma", subject, lambda s, n=n: _ud_r_invariant(n, box, samples, s, "gamma"))
        col.run("ud-r-commutation", subject, lambda s, n=n: _ud_r_commutation(n, box, samples, s))
        col.run("ud-r-braid", subject, lambda s, n=n: _ud_r_braid(n, box, samples, s))
        col.run(
            "ud-product-eps-shadow",
            subject,
            lambda s, n=n: _ud_product_eps_shadow(n, box, samples, s),
        )
    return col.sorted_results()


def _ud_points(n, box, samples, seed, extra=()):
    names = tuple(f"l{k}" for k in range(1, n + 2))
    return ud.sample_box(names + tuple(extra), -box, box, samples, seed), names


def _ud_gamma_shadow(n, box, samples, seed) -> CheckOutcome:
    model = affine_a_model(n, Fraction(1))
    ops = {i: ud.ud_crystal_operator(n, i) for i in model.cartan.labels}
    gammas = {j: ud.ud_gamma(n, j) for j in model.cartan.labels}
    points, names = _ud_points(n, box, samples, seed, extra=("c",))
    count = 0
    for point in points:
        count += 1
        c = point["c"]
        base = {k: point[k] for k in names}
        for i in model.cartan.labels:
            moved = ops[i].apply(base, c=c)
            for j in model.cartan.labels:
                lhs = ud.trop_eval(gammas[j], moved)
                rhs = ud.trop_eval(gammas[j], base) + model.cartan.a(i, j) * c
                if lhs != rhs:
                    return CheckOutcome(False, count, {"i": i, "j": j, "point": base, "c": c})
    return CheckOutcome(True, count)


def _ud_eps_shadow(n, box, samples, seed) -> CheckOutcome:
    model = affine_a_model(n, Fraction(1))
    ops = {i: ud.ud_crystal_operator(n, i) for i in model.cartan.labels}
    epss = {i: ud.ud_eps(n, i) for i in model.cartan.labels}
    points, names = _ud_points(n, box, samples, seed, extra=("c",))
    count = 0
    for point in points:
        count += 1
        c = point["c"]
        base = {k: point[k] for k in names}
        for i in model.cartan.labels:
            for j in model.cartan.labels:
                if i != j and not (
                    model.cartan.a(i, j) == 0 and model.cartan.a(j, i) == 0
                ):
                    continue
                moved = ops[j].apply(base, c=c)
                lhs = ud.trop_eval(epss[i], moved)
                rhs = ud.trop_eval(epss[i], base) - (c if i == j else 0)
                if lhs != rhs:
                    return CheckOutcome(False, count, {"i": i, "j": j, "point": base, "c": c})
    return CheckOutcome(True, count)


def _ud_operator_sum(n, box, samples, seed) -> CheckOutcome:
    import random as _random

    rng = _random.Random(seed)
    op = {i: ud.ud_crystal_operator(n, i) for i in range(n + 1)}
    names = tuple(f"l{k}" for k in range(1, n + 2))
    count = 0
    for _ in range(samples):
        count += 1
        base = {v: rng.randint(-box, box) for v in names}
        c1, c2 = rng.randint(-box, box), rng.randint(-box, box)
        i = rng.randrange(n + 1)
        once = op[i].apply(op[i].apply(base, c=c2), c=c1)
        joint = op[i].apply(base, c=c1 + c2)
        if once != joint or sum(joint.values()) != sum(base.values()):
            return CheckOutcome(False, count, {"i": i, "point": base, "c": (c1, c2)})
    return CheckOutcome(True, count)


def _ud_split(n, box, samples, seed) -> CheckOutcome:
    c1, c2 = ud.ud_tensor_coeffs(n, 1)
    verdict = ud.check_tropical_identity(ud.TAdd(c1, c2), ud.TVar("c"), -box, box, samples, seed)
    detail = None
    if verdict.counterexample:
        point, lhs, rhs = verdict.counterexample
        detail = {"point": point, "lhs": lhs, "rhs": rhs}
    return CheckOutcome(verdict.equal, verdict.samples, detail)


def _ud_dichotomy(n, box, samples, seed) -> CheckOutcome:
    import random as _random

    rng = _random.Random(seed)
    names = tuple(f"l{k}" for k in range(1, n + 2))
    pair_ops = {i: ud.ud_product_operator(n, i) for i in range(n + 1)}
    count = 0
    for _ in range(samples):
        count += 1
        x = {v: rng.randint(-box, box) for v in names}
        y = {v: rng.randint(-box, box) for v in names}
        i = rng.randrange(n + 1)
        for c in (1, -1):
            c1, c2 = pair_ops[i].split(x, y, c)
            if sorted((c1, c2)) != sorted((c, 0)):
                return CheckOutcome(False, count, {"i": i, "c": c, "split": (c1, c2)})
            x2, y2 = pair_ops[i].apply(x, y, c)
            if (x2 != x) + (y2 != y) != 1:
                return CheckOutcome(False, count, {"i": i, "c": c, "x": x, "y": y})
    return CheckOutcome(True, count)


def _ud_levels(n, box, samples, seed) -> CheckOutcome:
    import random as _random

    rng = _random.Random(seed)
    names = tuple(f"l{k}" for k in range(1, n + 2))
    count = 0
    for _ in range(samples):
        count += 1
        l = {v: rng.randint(-box, box) for v in names}
        m = {v: rng.randint(-box, box) for v in names}
        l2, m2 = ud.apply_combinatorial_r(n, l, m)
        if sum(l2.values()) != sum(m.values()) or sum(m2.values()) != sum(l.values()):
            return CheckOutcome(False, count, {"l": l, "m": m})
    return CheckOutcome(True, count)


def _ud_r_invariant(n, box, samples, seed, which: str) -> CheckOutcome:
    import random as _random

    rng = _random.Random(seed)
    model = affine_a_model(n, Fraction(1))
    z = product(model, model)
    funcs = {
        i: ud._silent_tropicalize((z.eps if which == "eps" else z.gamma)[i])
        for i in z.cartan.labels
    }
    names = tuple(f"l{k}" for k in range(1, n + 2))
    count = 0
    for _ in range(samples):
        count += 1
        x = {v: rng.randint(-box, box) for v in names}
        y = {v: rng.randint(-box, box) for v in names}
        x2, y2 = ud.apply_combinatorial_r(n, x, y)
        before = {f"{v}.x": x[v] for v in names} | {f"{v}.y": y[v] for v in names}
        after = {f"{v}.x": x2[v] for v in names} | {f"{v}.y": y2[v] for v in names}
        for i in z.cartan.labels:
            if ud.trop_eval(funcs[i], before) != ud.trop_eval(funcs[i], after):
                return CheckOutcome(False, count, {"i": i, "x": x, "y": y})
    return CheckOutcome(True, count)


def _ud_r_commutation(n, box, samples, seed) -> CheckOutcome:
    import random as _random

    rng = _random.Random(seed)
    names = tuple(f"l{k}" for k in range(1, n + 2))
    pair_ops = {i: ud.ud_product_operator(n, i) for i in range(n + 1)}
    count = 0
    for _ in range(samples):
        count += 1
        x = {v: rng.randint(-box, box) for v in names}
        y = {v: rng.randint(-box, box) for v in names}
        c = rng.randint(-box, box)
        i = rng.randrange(n + 1)
        ax, ay = pair_ops[i].apply(x, y, c)
        lhs = ud.apply_combinatorial_r(n, ax, ay)
        rx, ry = ud.apply_combinatorial_r(n, x, y)
        rhs = pair_ops[i].apply(rx, ry, c)
        if lhs != rhs:
            return CheckOutcome(False, count, {"i": i, "c": c, "x": x, "y": y})
    return CheckOutcome(True, count)


def _ud_r_braid(n, box, samples, seed) -> CheckOutcome:
    import random as _random

    rng = _random.Random(seed)
    names = tuple(f"l{k}" for k in range(1, n + 2))
    count = 0
    for _ in range(samples):
        count += 1
        triple = tuple({v: rng.randint(-box, box) for v in names} for _ in range(3))

        def act(tr, pos):
            if pos == 0:
                a, b = ud.apply_combinatorial_r(n, tr[0], tr[1])
                return (a, b, tr[2])
            a, b = ud.apply_combinatorial_r(n, tr[1], tr[2])
            return (tr[0], a, b)

        lhs = act(act(act(triple, 0), 1), 0)
        rhs = act(act(act(triple, 1), 0), 1)
        if lhs != rhs:
            return CheckOutcome(False, count, {"triple": triple})
    return CheckOutcome(True, count)


def _ud_product_eps_shadow(n, box, samples, seed) -> CheckOutcome:
    import random as _random

    rng = _random.Random(seed)
    sys_lm, sys_ml = rmap.product_systems(n, Fraction(1), Fraction(1))
    trop_lm = {J: ud._silent_tropicalize(sys_lm.eps_at(*J)) for J in sys_lm.intervals()}
    trop_ml = {J: ud._silent_tropicalize(sys_ml.eps_at(*J)) for J in sys_ml.intervals()}
    names = tuple(f"l{k}" for k in range(1, n + 2))
    count = 0
    for _ in range(samples):
        count += 1
        x = {v: rng.randint(-box, box) for v in names}
        y = {v: rng.randint(-box, box) for v in names}
        x2, y2 = ud.apply_combinatorial_r(n, x, y)
        before = {f"{v}.x": x[v] for v in names} | {f"{v}.y": y[v] for v in names}
        after = {f"{v}.x": x2[v] for v in names} | {f"{v}.y": y2[v] for v in names}
        for J in trop_lm:
            if ud.trop_eval(trop_lm[J], before) != ud.trop_eval(trop_ml[J], after):
                return CheckOutcome(False, count, {"interval": J, "x": x, "y": y})
    return CheckOutcome(True, count)


_SUITE_BODIES = {
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
    if name not in _SUITE_BODIES:
        raise SuiteError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    params = dict(params or {})
    if seed is None:
        seed = DEFAULT_SEEDS[name]
    try:
        return _SUITE_BODIES[name](params, seed)
    except SuiteError:
        raise
    except (ValueError, ZeroDivisionError) as err:
        # bad levels or sizes surface while the suite assembles its models
        raise SuiteError(f"invalid parameters for suite {name!r}: {err}") from err


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
