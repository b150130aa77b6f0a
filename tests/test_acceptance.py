"""Acceptance criteria, one test per criterion.

Every criterion runs the corresponding harness suite at its stated sample
count with zero tolerance (exact rational or integer equality) and a
wall-clock budget, and pins the first 16 hex digits of the sha256 of the
canonical report, so a change of any verdict, trial count or sampled
stream shows.  Each test prints one PASS/FAIL line; run with
``pytest tests/test_acceptance.py -s`` to see them.
"""

import hashlib
import time

from gcrystal.harness import report_json, run_suite


def _run(number, name, suite, params, budget_seconds, digest):
    start = time.perf_counter()
    results = run_suite(suite, params)
    elapsed = time.perf_counter() - start
    fails = [r for r in results if r.verdict == "fail"]
    ok = not fails and elapsed < budget_seconds
    print(
        f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} "
        f"({len(results)} checks, {elapsed:.1f}s < {budget_seconds}s)"
    )
    for r in fails[:5]:
        print(f"  failing: {r.check} [{r.subject}] {r.note} {r.counterexample}")
    assert not fails, f"{len(fails)} checks failed in suite {suite}"
    assert elapsed < budget_seconds, f"suite {suite} exceeded {budget_seconds}s ({elapsed:.1f}s)"
    assert hashlib.sha256(report_json(suite, params, None, results).encode()).hexdigest()[:16] == digest
    return results


def test_criterion_1_verma_relations():
    # composition relations on the torus models, sizes 1..3, 100 exact
    # points per applicable index pair
    _run(1, "verma relations", "verma", {"trials": 100}, 30.0, "f9bf8e8220d9fa68")


def test_criterion_2_crystal_axioms():
    # gamma scaling and eps scaling/invariance on every built-in model,
    # 100 exact points per (i, j)
    _run(2, "crystal axioms", "axioms", {"trials": 100}, 60.0, "7b76a54874426596")


def test_criterion_3_epsilon_systems():
    # action tables incl. boundary corrections, partition sums, alternating
    # convolutions and well-definedness, on the triangular-matrix systems
    # (sizes 1..4) and both fork-diagram local systems, every interval
    results = _run(3, "epsilon systems", "epsilon", {"trials": 100}, 120.0, "cb0307f52d896af5")
    subjects = {r.subject for r in results}
    assert any(s.startswith("borel-sl5") for s in subjects)
    assert any(s.startswith("d5-0234") for s in subjects)
    assert any(s.startswith("d5-0235") for s in subjects)


def test_criterion_4_product_oracle():
    # two independent routes to the epsilon data of matrix products:
    # product-table expressions vs entries/minors of exact matrix products,
    # 100 sampled pairs per size up to 4
    results = _run(4, "product oracle", "borel-oracle", {"trials": 100}, 120.0, "d035cd2ec1fdb8ac")
    checks = {r.check for r in results}
    assert "borel-product-eps" in checks and "borel-product-eps-star" in checks


def test_criterion_5_r_map_properties():
    # commutation, eps/gamma preservation and the braid consistency for
    # sizes 1..3 at rational levels, 100 exact points each
    results = _run(5, "birational R map", "rmap", {"trials": 100}, 120.0, "03afe8dd33c10be9")
    assert any(r.check == "rmap-braid" for r in results)


def test_criterion_6_epsilon_invariance():
    # interval-wise invariance of both product epsilon families, sizes 2..3
    _run(6, "epsilon invariance under R", "invariance", {"trials": 100}, 60.0, "12fd6609a1d08a7e")


def test_criterion_7_uniqueness_probe():
    # exact fixed point, forced solution by linear elimination, 50
    # perturbation trials; the dense-orbit hypothesis is reported as assumed
    results = _run(7, "uniqueness probe", "uniqueness", {}, 10.0, "6495295e518671d8")
    by_check = {r.check: r.verdict for r in results}
    assert by_check["uniq-orbit-density"] == "assumed"
    assert by_check["uniq-fixed-point"] == "pass"
    assert by_check["uniq-forced"] == "pass"
    assert by_check["uniq-perturbation"] == "pass"


def test_criterion_8_tropical_shadows():
    # integer sampling of the tropicalized identities in [-50, 50]:
    # 1000 points for the scaling shadows, the R-map shadows, the restricted
    # product tables, and the tensor dichotomy at C = +-1
    _run(8, "tropical shadows", "ud", {"trials": 1000, "box": 50}, 30.0, "5caa851e71648566")
