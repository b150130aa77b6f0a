"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

The traced-run tests start real worker passes (about a minute and a half
in all); the rest are fast.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --- metric names --------------------------------------------------------------------


def test_per_layer_metrics_match_benchmark_json():
    fake = {"layers": {}, "rows": [], "verdict_s": 1.0}
    got = {name: unit for name, (_value, unit) in run.layer_metrics(fake, fake).items()}
    want = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert got == want


def test_end_to_end_metrics_match_benchmark_json():
    passes = [{"verdict_s": 2.0, "peak_rss_mb": 20.0}]
    got = {name: unit for name, (_value, unit) in run.end_to_end_metrics([0.1], passes).items()}
    want = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert got == want


# --- known answers -------------------------------------------------------------------


def _rows_as_expected(workload):
    return [[*key, verdict, trials, 0.0] for key, (verdict, trials) in workloads.expected_rows(workload).items()]


@pytest.mark.parametrize("workload", sorted(workloads.SUITES))
def test_expected_table_shape(workload):
    expected = workloads.expected_rows(workload)
    verdicts = [v for v, _ in expected.values()]
    assert len(expected) == {"suites-rational": 513, "suites-oracle-ud": 76}[workload]
    if workload == "suites-rational":
        assert verdicts.count("skip") == 3
        assert verdicts.count("pass") == len(verdicts) - 3
    else:
        assert verdicts.count("assumed") == 1
        assert verdicts.count("pass") == len(verdicts) - 1


def test_wrong_rows_counts_every_kind_of_wrong_row():
    expected = workloads.expected_rows("suites-oracle-ud")
    rows = _rows_as_expected("suites-oracle-ud")
    assert workloads.wrong_rows(expected, rows) == (76, [])

    failed = [list(r) for r in rows]
    failed[0][3] = "fail"
    fewer_trials = [list(r) for r in rows]
    fewer_trials[0][4] -= 1
    missing = rows[1:]
    extra = rows + [["ud", "ud-levels", "n=3", "pass", 1000, 0.0]]
    duplicated = rows + rows[:1]
    for bad in (failed, fewer_trials, missing):
        attempted, wrong = workloads.wrong_rows(expected, bad)
        assert (attempted, len(wrong)) == (76, 1)
    for bad in (extra, duplicated):
        attempted, wrong = workloads.wrong_rows(expected, bad)
        assert (attempted, len(wrong)) == (77, 1)


def test_rmap_answers_match_the_documented_examples():
    # README: gcrystal rmap apply --n 1 --l '[1, 4]' --m '[2, 3]'
    got = workloads.expected_rmap_apply(1, ["1", "4"], ["2", "3"])
    assert got == {
        "l": [Fraction(9, 8), Fraction(16, 3)],
        "m": [Fraction(16, 9), Fraction(9, 4)],
        "levels": [Fraction(6), Fraction(4)],
    }
    # README: gcrystal ud rmap --n 1 --l '[5, -2]' --m '[0, 9]'
    assert workloads.expected_ud_rmap(1, [5, -2], [0, 9]) == {"l": [7, 2], "m": [-2, 5]}


def test_cli_output_check_rejects_a_changed_coordinate():
    call = {"kind": "rmap apply", "n": 1, "l": ["1", "4"], "m": ["2", "3"]}
    want = workloads.expected_rmap_apply(1, call["l"], call["m"])
    right = {"l": ["9/8", "16/3"], "m": ["16/9", "9/4"], "levels": ["6", "4"]}
    assert workloads.cli_output_ok(call, want, 0, json.dumps(right))
    for key, value in (("l", ["16/3", "9/8"]), ("levels", ["4", "6"]), ("m", ["16/9"])):
        assert not workloads.cli_output_ok(call, want, 0, json.dumps({**right, key: value}))
    assert not workloads.cli_output_ok(call, want, 1, json.dumps(right))
    assert not workloads.cli_output_ok(call, want, 0, "not json")


def test_a_planted_defect_makes_the_command_fail(tmp_path):
    """Swap P_i and P_{i-1} in a copy of the library: the outputs still swap
    levels, but every coordinate is wrong, and the command must say so."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    rmap_py = tmp_path / "src" / "gcrystal" / "rmap.py"
    source = rmap_py.read_text()
    planted = source.replace('div(mul(var(f"m{i}"), pi), pim1)', 'div(mul(var(f"m{i}"), pim1), pi)')
    assert planted != source
    rmap_py.write_text(planted)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rmap-large-n", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    # ud rmap tropicalizes the same component expressions, so every call is wrong
    assert result["failed"] == result["attempted"] > 0


def test_a_checkout_without_sources_is_refused(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites-rational", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- traced runs ---------------------------------------------------------------------


def _traced_pass(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(SEED), "trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (_traced_pass(w), _traced_pass(w)) for w in workloads.WORKLOADS}


def _counts(result):
    metrics = run.layer_metrics(result, result)
    return {
        name: value
        for name, (value, _unit) in metrics.items()
        if name.endswith((".calls", ".points", ".poles", ".per_trial")) or ".bits_" in name
        or name in ("harness.checks", "harness.trials_total")
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(traced_twice, workload):
    first, second = traced_twice[workload]
    assert _counts(first) == _counts(second)
    assert _counts(first)["expr.evaluate.calls"] > 0


def test_rmap_large_n_bypasses_sampling_and_the_harness(traced_twice):
    metrics = run.layer_metrics(*traced_twice["rmap-large-n"])
    assert metrics["arith.sample_point.calls"][0] == 0
    assert metrics["harness.checks"][0] == 0
    assert metrics["ud.tropicalize.calls"][0] > 0
    assert metrics["cli.self_s"][0] > 0


def test_suites_rational_bypasses_the_tropical_and_matrix_layers(traced_twice):
    result = traced_twice["suites-rational"][0]
    metrics = run.layer_metrics(result, result)
    assert metrics["ud.trop_eval.calls"][0] == 0
    assert metrics["models.borel_matrix.calls"][0] == 0
    assert metrics["arith.sample_point.calls"][0] > 0


@pytest.mark.parametrize("workload", sorted(workloads.SUITES))
def test_suite_workloads_never_enter_the_cli(traced_twice, workload):
    for result in traced_twice[workload]:
        assert "cli" not in result["layers"]
        assert result["layers"]["harness.job"]["calls"] == len(workloads.expected_rows(workload))
