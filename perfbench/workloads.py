"""Workload inputs and known answers for the gcrystal benchmark.

Everything here is derived from the benchmark seed alone, and every known
answer is computed without gcrystal: the suite verdicts come from the
committed table ``expected_suites.json`` (every registered identity is a
theorem, so each row is ``pass`` apart from three vacuous skips and one
``assumed`` hypothesis), and the R-map outputs come from the window-sum
formulas of the paper, evaluated here in plain ``Fraction`` and ``int``
arithmetic.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("suites-rational", "suites-oracle-ud", "rmap-large-n")

# Suites run by each suite workload, in order, at their default parameters.
SUITES = {
    "suites-rational": ("verma", "axioms", "epsilon", "product", "rmap", "invariance"),
    "suites-oracle-ud": ("borel-oracle", "ud", "uniqueness"),
}
# Suites timed on their own; the short ones count only in verdict_s.
TIMED_SUITES = {
    "suites-rational": ("verma", "axioms", "epsilon", "product", "rmap"),
    "suites-oracle-ud": ("borel-oracle", "ud"),
}

# rmap-large-n: a few points on huge trees.  Each P_i has O(n^2) nodes and
# the cost grows cubically in n, so n = 32 already dominates a pass.
RMAP_SIZES = (16, 32)
RMAP_POINTS_PER_SIZE = 4
RMAP_MAGNITUDE = 99  # numerators and denominators of the rational points
UD_BOX = 50  # integer points lie in [-UD_BOX, UD_BOX], as in the ud suite

EXPECTED_TABLE = Path(__file__).resolve().parent / "expected_suites.json"


def suite_seed(seed: int, suite: str) -> int:
    """The seed handed to ``harness.run_suite`` for one suite."""
    return zlib.crc32(f"{seed}|{suite}".encode())


# --- rmap-large-n inputs ---------------------------------------------------------


def rmap_calls(seed: int) -> list[dict]:
    """The CLI calls of one rmap-large-n pass, in order.

    For each size, each point is sent through ``rmap apply`` (positive
    rationals) and then an integer point through ``ud rmap``.
    """
    rng = random.Random(f"rmap-large-n:{seed}")
    calls = []
    for n in RMAP_SIZES:
        for _ in range(RMAP_POINTS_PER_SIZE):
            l, m = (
                [f"{rng.randint(1, RMAP_MAGNITUDE)}/{rng.randint(1, RMAP_MAGNITUDE)}" for _ in range(n + 1)]
                for _ in range(2)
            )
            calls.append({"kind": "rmap apply", "n": n, "l": l, "m": m})
            l, m = ([rng.randint(-UD_BOX, UD_BOX) for _ in range(n + 1)] for _ in range(2))
            calls.append({"kind": "ud rmap", "n": n, "l": l, "m": m})
    return calls


def cli_argv(call: dict) -> list[str]:
    return [
        *call["kind"].split(),
        "--n", str(call["n"]),
        "--l", json.dumps(call["l"]),
        "--m", json.dumps(call["m"]),
    ]


def _windows(n: int, i: int, l: list, m: list):
    """For k = 1..n+1: (trailing window l_{i+k}..l_{i+n+1}, leading window m_{i+1}..m_{i+k}).

    Indices are cyclic with representatives 1..n+1; the lists are 0-based.
    """
    def wrap(k):
        return (k - 1) % (n + 1)

    for k in range(1, n + 2):
        yield [l[wrap(i + j)] for j in range(k, n + 2)], [m[wrap(i + j)] for j in range(1, k + 1)]


def _window_sums(n: int, l: list[Fraction], m: list[Fraction]) -> list[Fraction]:
    """P_0..P_n: P_i sums, over k, the trailing l window times the leading m window."""
    one = Fraction(1)
    return [
        sum(
            (math.prod(lw, start=one) * math.prod(mw, start=one) for lw, mw in _windows(n, i, l, m)),
            Fraction(0),
        )
        for i in range(n + 1)
    ]


def _window_maxima(n: int, l: list[int], m: list[int]) -> list[int]:
    """UDP_0..UDP_n: the max-plus shadow of P_i, a max over window sums."""
    return [max(sum(lw) + sum(mw) for lw, mw in _windows(n, i, l, m)) for i in range(n + 1)]


def expected_rmap_apply(n: int, l_text: list[str], m_text: list[str]) -> dict:
    """R(l, m) by the paper's formulas: l'_i = m_i P_i / P_{i-1}, m'_i = l_i P_{i-1} / P_i."""
    l = [Fraction(v) for v in l_text]
    m = [Fraction(v) for v in m_text]
    p = _window_sums(n, l, m)
    size = n + 1
    return {
        "l": [m[i - 1] * p[i % size] / p[(i - 1) % size] for i in range(1, size + 1)],
        "m": [l[i - 1] * p[(i - 1) % size] / p[i % size] for i in range(1, size + 1)],
        "levels": [math.prod(m, start=Fraction(1)), math.prod(l, start=Fraction(1))],
    }


def expected_ud_rmap(n: int, l: list[int], m: list[int]) -> dict:
    """Combinatorial R: l'_i = m_i + UDP_i - UDP_{i-1}, m'_i = l_i + UDP_{i-1} - UDP_i."""
    u = _window_maxima(n, l, m)
    size = n + 1
    return {
        "l": [m[i - 1] + u[i % size] - u[(i - 1) % size] for i in range(1, size + 1)],
        "m": [l[i - 1] + u[(i - 1) % size] - u[i % size] for i in range(1, size + 1)],
    }


def expected_outputs(calls: list[dict]) -> list[dict]:
    return [
        (expected_rmap_apply if c["kind"] == "rmap apply" else expected_ud_rmap)(c["n"], c["l"], c["m"])
        for c in calls
    ]


def cli_output_ok(call: dict, expected: dict, exit_code, stdout: str) -> bool:
    """Exact comparison of one CLI call's JSON output with the known answer.

    Besides the coordinates themselves, the level swap is checked on the
    output: the coordinate products (sums, for ``ud rmap``) trade places.
    """
    if exit_code != 0:
        return False
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    if call["kind"] == "ud rmap":
        l_in, m_in = call["l"], call["m"]
        return (
            got == expected
            and sum(got["l"]) == sum(m_in)
            and sum(got["m"]) == sum(l_in)
        )
    try:
        l2 = [Fraction(v) for v in got["l"]]
        m2 = [Fraction(v) for v in got["m"]]
        levels = [Fraction(v) for v in got["levels"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False
    big_l, big_m = expected["levels"][1], expected["levels"][0]
    return (
        l2 == expected["l"]
        and m2 == expected["m"]
        and levels == [big_m, big_l]
        and math.prod(l2, start=Fraction(1)) == big_m
        and math.prod(m2, start=Fraction(1)) == big_l
    )


# --- suite known answers ---------------------------------------------------------


def expected_rows(workload: str) -> dict[tuple[str, str, str], tuple[str, int]]:
    """(suite, check, subject) -> (verdict, trials) for every suite of the workload."""
    table = json.loads(EXPECTED_TABLE.read_text())
    return {
        (suite, check, subject): (verdict, trials)
        for suite in SUITES[workload]
        for check, subject, verdict, trials in table[suite]
    }


def wrong_rows(expected: dict, rows: list[list]) -> tuple[int, list[str]]:
    """Compare one pass's rows with the known answers.

    ``rows`` holds ``[suite, check, subject, verdict, trials, elapsed]``.
    Returns the number of operations (expected rows plus extra rows) and a
    description of each wrong one: missing, extra, duplicated, or with a
    changed verdict or trial count.
    """
    wrong = []
    seen = set()
    surplus = 0
    for suite, check, subject, verdict, trials, _elapsed in rows:
        key = (suite, check, subject)
        want = expected.get(key)
        if key in seen or want is None:
            surplus += 1
            wrong.append(f"{'duplicate' if key in seen else 'extra'} row {key}: {verdict} trials={trials}")
            continue
        seen.add(key)
        if (verdict, trials) != want:
            wrong.append(f"{key}: got {verdict} trials={trials}, expected {want[0]} trials={want[1]}")
    for key in expected.keys() - seen:
        wrong.append(f"missing row {key}")
    return len(expected) + surplus, wrong
