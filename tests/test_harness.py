import hashlib
import json
import pathlib
import re
import shlex
import sys
from fractions import Fraction

import pytest

from gcrystal import cli
from gcrystal import harness
from gcrystal.expr import parse, to_json_obj
from gcrystal.harness import (
    REGISTRY,
    SUITES,
    SuiteError,
    all_pass,
    report_json,
    run_suite,
)
from gcrystal.ledger import emit_ledger

FAST = {"trials": 5}


def test_unknown_suite_rejected():
    with pytest.raises(SuiteError):
        run_suite("nope")


def test_out_of_range_params_rejected():
    with pytest.raises(SuiteError):
        run_suite("verma", {"n": 9})
    with pytest.raises(SuiteError):
        run_suite("uniqueness", {"n": 1})
    with pytest.raises(SuiteError):
        run_suite("axioms", {"model": "not-a-model"})


# invalid parameters, each once through run_suite and once through the CLI
BAD_PARAMS = [
    ("ud", {"trials": 0}),
    ("ud", {"trials": -3}),
    ("axioms", {"trials": 0}),
    ("rmap", {"n": 1, "L": 0}),
    ("rmap", {"n": 1, "L": -4}),
    ("invariance", {"M": 0}),
    ("product", {"N": 0}),
    ("uniqueness", {"n": 0}),
    ("ud", {"box": 0}),
]


@pytest.mark.parametrize(
    "suite, params", BAD_PARAMS, ids=[f"{s}-{'-'.join(f'{k}{v}' for k, v in p.items())}" for s, p in BAD_PARAMS]
)
def test_bad_params_exit_2_before_any_check(suite, params, monkeypatch, capsys):
    jobs = []
    monkeypatch.setattr(harness._Collector, "run", lambda self, *args: jobs.append(args))
    monkeypatch.setattr(harness._Collector, "record", lambda self, *args: jobs.append(args))
    with pytest.raises(SuiteError):
        run_suite(suite, params)
    if "box" not in params:  # box has no command-line flag
        argv = ["verify", suite] + [arg for k, v in params.items() for arg in (f"--{k}", str(v))]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
    assert jobs == []


def test_params_selecting_nothing_rejected():
    for suite, params in (
        ("axioms", {"n": 2}),
        ("rmap", {"model": "d5"}),
        ("rmap", {"trails": 5}),
        ("verma", {"L": 1.5}),
        ("verma", {"trials": "many"}),
    ):
        with pytest.raises(SuiteError):
            run_suite(suite, params)


def test_results_sorted_and_tagged():
    results = run_suite("verma", {"n": 2, **FAST})
    assert results == sorted(results, key=lambda r: (r.check, r.subject))
    assert all(r.suite == "verma" for r in results)
    assert all(REGISTRY[r.check].suite == "verma" for r in results)
    assert all(r.identity == REGISTRY[r.check].identity for r in results)


def test_reports_reproducible_bit_for_bit():
    params = {"n": 1, **FAST}
    a = report_json("rmap", params, None, run_suite("rmap", params))
    b = report_json("rmap", params, None, run_suite("rmap", params))
    assert a == b
    parsed = json.loads(a)
    assert parsed["suite"] == "rmap" and parsed["results"]


def test_different_seeds_change_sampled_points_not_verdicts():
    a = run_suite("verma", {"n": 2, **FAST}, seed=1)
    b = run_suite("verma", {"n": 2, **FAST}, seed=2)
    assert [r.verdict for r in a] == [r.verdict for r in b]


def test_failing_check_is_collected_not_raised(monkeypatch):
    import gcrystal.harness as h

    def broken(*args, **kwargs):
        raise RuntimeError("synthetic breakage")

    monkeypatch.setattr(h, "run_plan", broken)
    results = run_suite("verma", {"n": 2, **FAST})
    fails = [r for r in results if r.verdict == "fail"]
    assert fails and all("synthetic breakage" in r.note for r in fails)
    assert all(r.counterexample is not None for r in fails)  # fail => evidence
    assert not all_pass(results)


def test_vacuous_checks_are_skips():
    results = run_suite("verma", {"n": 1, **FAST})
    assert {r.verdict for r in results} == {"skip"}
    assert all_pass(results)


def test_uniqueness_suite_reports_assumption():
    results = run_suite("uniqueness", {})
    by_check = {r.check: r for r in results}
    assert by_check["uniq-orbit-density"].verdict == "assumed"
    assert by_check["uniq-fixed-point"].verdict == "pass"
    assert by_check["uniq-forced"].verdict == "pass"
    assert all_pass(results)


def test_every_registered_check_runs_in_its_suite():
    # ledger rows and executed checks are the same set
    seen: dict[str, set] = {name: set() for name in SUITES}
    params = {
        "verma": {"trials": 3},
        "axioms": {"trials": 3},
        "epsilon": {"trials": 3},
        "product": {"trials": 3},
        "borel-oracle": {"trials": 3},
        "rmap": {"trials": 3},
        "invariance": {"trials": 3},
        "uniqueness": {},
        "ud": {"trials": 20},
    }
    # sha256 of the canonical report, first 16 hex digits; pins every verdict,
    # trial count and sampled stream at these parameters
    digests = {
        "verma": "4a7c0cea3c858d9e",
        "axioms": "454aa58dd4d1e033",
        "epsilon": "e0143b650a1f88f8",
        "product": "337069b2569b05a4",
        "borel-oracle": "9d8e75f3451b45cc",
        "rmap": "a4dda763fe06a7c8",
        "invariance": "fb55a31a404d85c3",
        "uniqueness": "6495295e518671d8",
        "ud": "ff520469b8116243",
    }
    for name in SUITES:
        results = run_suite(name, params[name])
        for result in results:
            assert REGISTRY[result.check].suite == name
            seen[name].add(result.check)
        report = report_json(name, params[name], None, results)
        assert hashlib.sha256(report.encode()).hexdigest()[:16] == digests[name], name
    for check, info in REGISTRY.items():
        assert check in seen[info.suite], f"{check} never ran in suite {info.suite}"


def test_borel_oracle_report_at_the_largest_size():
    # n = 6 is an allowed size that the digests above never reach: it pins the
    # 7x7 products, actions and minors of the matrix twin
    params = {"n": 6, "trials": 10}
    results = run_suite("borel-oracle", params, 3)
    assert all(r.verdict == "pass" for r in results)
    report = report_json("borel-oracle", params, 3, results)
    assert hashlib.sha256(report.encode()).hexdigest()[:16] == "1fb1fc80b2d25cec"


@pytest.mark.parametrize(
    "suite, digest", [("rmap", "7dd7728932a8059c"), ("invariance", "0501f5110f5a4377")]
)
def test_r_map_reports_at_the_largest_size(suite, digest):
    # n = 4 is an allowed size that the digests above never reach: it pins
    # the R steps and the product epsilon tables at their largest
    params = {"n": 4, "trials": 10}
    results = run_suite(suite, params, 3)
    assert all(r.verdict == "pass" for r in results)
    report = report_json(suite, params, 3, results)
    assert hashlib.sha256(report.encode()).hexdigest()[:16] == digest


def test_ud_report_at_the_largest_size():
    # n = 4 is the largest ud size, which the digests above never reach: it
    # pins the rows read in (max, +) on the torus square and triple at n = 4
    params = {"n": 4, "trials": 20}
    results = run_suite("ud", params, 3)
    assert all(r.verdict == "pass" for r in results)
    report = report_json("ud", params, 3, results)
    assert hashlib.sha256(report.encode()).hexdigest()[:16] == "7ede4138ca79165b"


def test_rmap_fixed_point_is_checked_at_a_and_b(monkeypatch):
    from fractions import Fraction

    from gcrystal import rmap

    true_check, calls = rmap.check_fixed_point, []

    def recording(n, a, b):
        calls.append((n, a, b))
        return true_check(n, a, b)

    monkeypatch.setattr(rmap, "check_fixed_point", recording)
    results = run_suite("rmap", {"n": 1, "a": "5", "b": "7/2", "trials": 2})
    assert calls == [(1, Fraction(5), Fraction(7, 2))]
    assert [r.verdict for r in results if r.check == "rmap-fixed-point"] == ["pass"]


def test_counterexamples_serialize():
    # force a failure by monkeypatching nothing: craft a result through report
    # of a suite with a deliberately tiny domain is overkill; instead check the
    # JSON encoder on a synthetic result embedded in a report structure
    from gcrystal.harness import _jsonable
    from fractions import Fraction

    blob = _jsonable({"x": Fraction(3, 2), "nested": [Fraction(1), {"y": Fraction(-5, 7)}]})
    assert blob == {"x": "3/2", "nested": ["1", {"y": "-5/7"}]}
    json.dumps(blob)


# --- ledger ---------------------------------------------------------------------------


def test_ledger_contains_every_check_once():
    doc = emit_ledger()
    for check in REGISTRY:
        assert doc.count(f"| `{check}` |") == 1
    for suite in SUITES:
        assert f"## Suite `{suite}`" in doc


def test_ledger_has_catalog_and_dsl_reference():
    doc = emit_ledger()
    assert "# Model catalog" in doc
    assert "# Expression DSL" in doc
    assert "`l1`" in doc


# --- command-line interface -------------------------------------------------------------


def test_cli_verify_pass(capsys):
    code = cli.main(["verify", "verma", "--n", "2", "--trials", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verma: " in out and "0 failed" in out


def test_cli_verify_writes_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = cli.main(
        ["verify", "rmap", "--n", "1", "--trials", "3", "--json", str(out_file)]
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["suite"] == "rmap"
    assert all(r["verdict"] in ("pass", "fail", "skip", "assumed") for r in payload["results"])


def test_cli_parser_is_built_once_and_carries_nothing_between_calls(monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    seen = []
    for name in ("_cmd_verify", "_cmd_rmap_apply", "_cmd_ud_rmap", "_cmd_model_show"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
    verify_defaults = dict.fromkeys(("n", "L", "M", "N", "a", "b", "model", "trials", "seed", "json_out"))
    calls = [
        (
            ["verify", "verma", "--n", "2", "--L", "3/2", "--trials", "5", "--seed", "9", "--json", "out.json"],
            {**verify_defaults, "command": "verify", "suite": "verma", "n": 2, "L": Fraction(3, 2), "trials": 5,
             "seed": 9, "json_out": "out.json"},
        ),
        (["verify", "axioms"], {**verify_defaults, "command": "verify", "suite": "axioms"}),
        (
            ["model", "show", "borel", "--n", "3", "--L", "5", "--json"],
            {"command": "model", "model_command": "show", "name": "borel", "n": 3, "L": Fraction(5), "json": True},
        ),
        (
            ["model", "show", "a-affine"],
            {"command": "model", "model_command": "show", "name": "a-affine", "n": 2, "L": Fraction(4), "json": False},
        ),
        (
            ["rmap", "apply", "--n", "1", "--l", "[1, 4]", "--m", "[2, 3]"],
            {"command": "rmap", "rmap_command": "apply", "n": 1, "l": "[1, 4]", "m": "[2, 3]"},
        ),
        (
            ["ud", "rmap", "--n", "2", "--l", "[0, 1, 2]", "--m", "[3, 4, 5]"],
            {"command": "ud", "ud_command": "rmap", "n": 2, "l": "[0, 1, 2]", "m": "[3, 4, 5]"},
        ),
        (["verify", "verma", "--n", "1"], {**verify_defaults, "command": "verify", "suite": "verma", "n": 1}),
    ]
    for argv, expected in calls:
        assert cli.main(argv) == 0
        assert seen[-1] == expected
    assert len(seen) == len(calls)


def test_cli_verify_unknown_model(capsys):
    code = cli.main(["verify", "axioms", "--model", "bogus"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_rmap_apply(capsys):
    code = cli.main(["rmap", "apply", "--n", "1", "--l", "[1, 4]", "--m", "[2, 3]"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["l"] == ["9/8", "16/3"]
    assert payload["m"] == ["16/9", "9/4"]
    assert payload["levels"] == ["6", "4"]


def test_cli_rmap_apply_accepts_fraction_strings(capsys):
    code = cli.main(["rmap", "apply", "--n", "1", "--l", '["1/2", "8"]', "--m", "[2, 3]"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    from fractions import Fraction

    assert Fraction(payload["l"][0]) * Fraction(payload["l"][1]) == 6


@pytest.mark.parametrize(
    "l, m, zero",
    [("[1, -1]", "[1, 1]", "P_1 = 0"), ("[1, 1]", "[-1, -1]", "P_0 = P_1 = 0")],
    ids=["one-pole", "two-poles"],
)
def test_cli_rmap_apply_at_a_pole_exits_2(l, m, zero, capsys):
    assert cli.main(["rmap", "apply", "--n", "1", "--l", l, "--m", m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"window sum {zero}" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rmap", "apply", "--n", "1", "--l", "[1]", "--m", "[2, 3]"], "--l must be a JSON array of 2 rationals"),
        (["rmap", "apply", "--n", "1", "--l", "[1, 2]", "--m", "[2, 3"], "--m is not valid JSON"),
        (["rmap", "apply", "--n", "1", "--l", "[1, 0]", "--m", "[2, 3]"], "--l[1] must be nonzero"),
        (["rmap", "apply", "--n", "1", "--l", '["x", 2]', "--m", "[2, 3]"], "--l[0] = 'x' is not a rational"),
        (["ud", "rmap", "--n", "1", "--l", "[1, 2, 3]", "--m", "[0, 1]"], "--l must be a JSON array of 2 integers"),
        (["ud", "rmap", "--n", "1", "--l", "[1, 2]", "--m", "{0, 1}"], "--m is not valid JSON"),
        (["ud", "rmap", "--n", "1", "--l", "[1.5, 2]", "--m", "[0, 1]"], "--l must be a JSON array of 2 integers"),
    ],
    ids=[
        "rmap-apply-length",
        "rmap-apply-json",
        "rmap-apply-zero",
        "rmap-apply-not-rational",
        "ud-rmap-length",
        "ud-rmap-json",
        "ud-rmap-not-integer",
    ],
)
def test_cli_rmap_apply_bad_point(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.out == ""


def _exits_2(argv, capsys) -> str:
    """The one-line stderr of a command that must exit 2 and print nothing on stdout."""
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")


@_DIGIT_LIMIT
def test_a_level_too_long_to_write_out_exits_2_before_any_check(capsys):
    # 10^5000 parses, but Python writes no int of more than 4,300 digits, so a model name could not hold it
    assert _exits_2(["verify", "verma", "--n", "1", "--L", "1e5000", "--trials", "1"], capsys) == (
        "error: L has too many digits to write out\n"
    )


@_DIGIT_LIMIT
def test_a_point_too_long_to_write_out_exits_2(capsys):
    argv = ["rmap", "apply", "--n", "1", "--l", '["1e5000", 1]', "--m", "[1, 1]"]
    assert _exits_2(argv, capsys) == "error: --l[0] has too many digits to write out\n"
    literal = "[" + "9" * 4400 + ", 1]"  # an int JSON itself will not read
    assert _exits_2(["ud", "rmap", "--n", "1", "--l", literal, "--m", "[1, 1]"], capsys).startswith(
        "error: --l is not valid JSON"
    )


@_DIGIT_LIMIT
def test_an_image_too_long_to_write_out_exits_2(capsys):
    # every coordinate of the point has 3,001 digits or fewer; the image's have about 6,000
    argv = ["rmap", "apply", "--n", "1", "--l", '["1e3000", "1e3000"]', "--m", '["1e3000", 7]']
    assert _exits_2(argv, capsys).startswith("error: the result cannot be written out")


@pytest.mark.parametrize(
    "argv",
    [
        ["rmap", "apply", "--n", "-1", "--l", "[]", "--m", "[]"],
        ["rmap", "apply", "--n", "0", "--l", "[2]", "--m", "[3]"],
        ["ud", "rmap", "--n", "-1", "--l", "[]", "--m", "[]"],
        ["ud", "rmap", "--n", "0", "--l", "[2]", "--m", "[3]"],
    ],
    ids=["rmap-apply-n-1", "rmap-apply-n0", "ud-rmap-n-1", "ud-rmap-n0"],
)
def test_cli_rejects_sizes_below_one(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "n >= 1" in captured.err and captured.out == ""


def test_run_all_suites_runs_each_suite_once(tmp_path, monkeypatch, capsys):
    import importlib.util
    import pathlib

    from gcrystal.harness import CheckResult

    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_all_suites.py"
    spec = importlib.util.spec_from_file_location("run_all_suites", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []

    def fake_run_suite(name, params, seed):
        calls.append(name)
        return [CheckResult(name, "c", "s", "identity", "pass", 1, 0.0, None, "")]

    monkeypatch.setattr(script, "run_suite", fake_run_suite)
    assert script.main(["--trials", "0"]) == 2
    assert calls == []
    assert "trials must be at least 1" in capsys.readouterr().err
    assert script.main(["--out", str(tmp_path)]) == 0
    assert calls == list(SUITES)
    for name in SUITES:
        report = json.loads((tmp_path / f"{name}.json").read_text())
        assert [r["suite"] for r in report["results"]] == [name]


def test_cli_ud_trop(capsys):
    code = cli.main(["ud", "trop", "--expr", "l1*l2 + m1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tropical"] == "max(l1 + l2, m1)"
    assert payload["tree"] == to_json_obj(parse("l1*l2 + m1"))  # the tree the reading reads


def test_cli_ud_trop_reads_powers_as_multiples(capsys):
    # a power k is read as k times its base, not unrolled into k - 1 sums
    code = cli.main(["ud", "trop", "--expr", "x^5000 + y^-2/(x*y)^3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tropical"] == "max(5000*x, -2*y - 3*(x + y))"
    assert payload["tree"]["args"][0] == {"op": "pow", "args": [{"op": "var", "name": "x"}], "exponent": 5000}


def test_cli_ud_trop_readme_example(capsys):
    assert cli.main(["ud", "trop", "--expr", "l1*l2 + m1/l1"]) == 0
    assert json.loads(capsys.readouterr().out)["tropical"] == "max(l1 + l2, m1 - l1)"


def _readme_examples():
    """(command, stdout lines) of every ``$ gcrystal ...`` line in a ``sh`` block of README.md.

    The output of a command is the lines after it up to the next ``$`` line
    or the end of the block.
    """
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        current = None
        for line in block.splitlines():
            if line.startswith("$ "):
                current = (line[2:], [])
                examples.append(current)
            elif current is not None:
                current[1].append(line)
    return examples


def test_the_readme_shows_command_examples():
    assert [shlex.split(command)[:3] for command, _ in _readme_examples()] == [
        ["gcrystal", "rmap", "apply"],
        ["gcrystal", "ud", "trop"],
        ["gcrystal", "ud", "rmap"],
    ]


@pytest.mark.parametrize("command, stdout", [pytest.param(*example, id=example[0]) for example in _readme_examples()])
def test_each_readme_example_prints_what_the_readme_shows(command, stdout, capsys):
    program, *argv = shlex.split(command)
    assert program == "gcrystal"
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == stdout


def test_cli_ud_trop_rejects_subtraction(capsys):
    code = cli.main(["ud", "trop", "--expr", "x - y"])
    assert code == 2
    assert "blocked" in capsys.readouterr().err


def test_cli_ud_rmap_integer_tuples(capsys):
    code = cli.main(["ud", "rmap", "--n", "1", "--l", "[5, -2]", "--m", "[0, 9]"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(payload["l"]) == 9 and sum(payload["m"]) == 3  # sums swap


def test_cli_ud_rmap_rejects_non_integers():
    with pytest.raises(SystemExit):
        cli.main(["ud", "rmap", "--n", "1", "--l", "[1.5, 2]", "--m", "[0, 1]"])


def test_cli_model_show_json(capsys):
    code = cli.main(["model", "show", "borel", "--n", "2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "borel-sl3"
    assert "u12" in payload["variables"]


def test_cli_model_show_text(capsys):
    code = cli.main(["model", "show", "a-affine", "--n", "1", "--L", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "l1*l2 = 4" in out


def test_cli_ledger(capsys):
    code = cli.main(["ledger"])
    assert code == 0
    assert "# Identity ledger" in capsys.readouterr().out
