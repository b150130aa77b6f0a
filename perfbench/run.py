#!/usr/bin/env python3
"""The gcrystal benchmark: time to verdict on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every pass runs in a fresh interpreter (``worker.py``), so gcrystal's
caches start cold as they do for a user of the CLI.  With ``--trace 0``
passes repeat until ``--seconds`` of measuring is spent, set-up is also
timed in import-only interpreters between them, and the end-to-end
metrics are medians.  With ``--trace 1`` one untraced and one
traced pass run; the per-layer metrics come from the traced pass, and the
tracing overhead is the difference of the two times to verdict.

Every result is checked against a known answer (see ``workloads.py``).
A human-readable summary comes first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 only when every answer is right.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    SUITES,
    WORKLOADS,
    cli_output_ok,
    expected_outputs,
    expected_rows,
    rmap_calls,
    wrong_rows,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench-traces"
SETUP_SAMPLES_PER_PASS = 3  # import-only interpreters before each pass
DEADLINE_S = 170.0  # a run must end within 180 s

# Layers reported as <layer>.calls and <layer>.self_s.
CALL_LAYERS = (
    "arith.sample_point",
    "expr.evaluate",
    "expr.identity",
    "crystal.pointwise_check",
    "crystal.apply_e",
    "crystal.product",
    "epsilon.product_epsilon",
    "models.build",
    "models.borel_matrix",
    "rmap.build_r_map",
    "rmap.apply_r",
    "ud.tropicalize",
    "ud.trop_eval",
)


class Checker:
    """Known answers for one workload and seed, and the tally of wrong ones."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        if workload in SUITES:
            self.expected = expected_rows(workload)
        else:
            self.calls = rmap_calls(seed)
            self.expected = expected_outputs(self.calls)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, result: dict | None) -> None:
        """Score one pass; a pass that crashed counts every operation as wrong."""
        if result is None:
            self.attempted += len(self.expected)
            self.failed += len(self.expected)
            self.notes.append("a pass ended without a result")
            return
        if self.workload in SUITES:
            attempted, wrong = wrong_rows(self.expected, result["rows"])
        else:
            attempted = len(self.calls)
            wrong = [
                f"call {k} ({call['kind']} n={call['n']}): exit {out['exit']}, output {out['stdout'][:200]!r}"
                for k, (call, want, out) in enumerate(zip(self.calls, self.expected, result["outputs"]))
                if not cli_output_ok(call, want, out["exit"], out["stdout"])
            ]
        self.attempted += attempted
        self.failed += len(wrong)
        self.notes.extend(wrong)


def run_worker(workload: str, seed: int, mode: str, timeout: float) -> tuple[dict | None, float]:
    """One fresh interpreter; returns its JSON result (None if it failed) and its wall time."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"error: {workload} {mode} pass timed out", file=sys.stderr)
        return None, time.perf_counter() - start
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} {mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None, wall
    return json.loads(lines[-1]), wall


def end_to_end_metrics(setup: list[float], passes: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s": (statistics.median(p["verdict_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def measure(workload: str, seed: int, seconds: int, checker: Checker, deadline: float) -> tuple[dict, dict]:
    """Untraced passes until ``seconds`` are spent; returns (end-to-end metrics, summary-only metrics)."""
    def time_imports(count: int) -> list[float]:
        found = []
        for _ in range(count):
            result, _ = run_worker(workload, seed, "setup", deadline - time.monotonic())
            if result is None:
                raise SystemExit(1)
            found.append(result["setup_s"])
        return found

    time_imports(1)  # the first import also writes the bytecode cache
    setup = []
    passes = []
    spent = 0.0
    while True:
        # imports are timed between passes, so that they sample the whole run
        setup += time_imports(SETUP_SAMPLES_PER_PASS)
        result, wall = run_worker(workload, seed, "measure", deadline - time.monotonic())
        checker.check(result)
        if result is None:
            raise SystemExit(1)
        passes.append(result)
        setup.append(result["setup_s"])
        spent += wall
        if spent >= seconds or time.monotonic() + 2 * wall > deadline:
            break

    metrics = end_to_end_metrics(setup, passes)
    summary = {"wrong_share": (checker.failed / checker.attempted, "share")}
    for part in passes[0]["parts"]:
        summary[part] = (statistics.median(p["parts"][part] for p in passes), "s")
    summary["passes"] = (len(passes), "count")
    summary["verdict_s min"] = (min(p["verdict_s"] for p in passes), "s")
    summary["verdict_s max"] = (max(p["verdict_s"] for p in passes), "s")
    summary["setup_samples"] = (len(setup), "count")
    return metrics, summary


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced pass; a layer never entered reads 0."""
    layers = traced["layers"]

    def stat(layer: str, key: str):
        return layers.get(layer, {}).get(key, 0)

    rows = traced.get("rows", [])
    trials_total = sum(r[4] for r in rows)
    out = {}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = (stat(layer, "calls"), "count")
        out[f"{layer}.self_s"] = (float(stat(layer, "self_s")), "s")
    out["arith.sample_point.per_trial"] = (
        stat("arith.sample_point", "calls") / trials_total if trials_total else 0.0,
        "calls/trial",
    )
    out["expr.evaluate.poles"] = (stat("expr.evaluate", "poles"), "count")
    out["expr.evaluate.bits_max"] = (stat("expr.evaluate", "bits_max"), "bit")
    out["expr.evaluate.bits_mean"] = (float(stat("expr.evaluate", "bits_mean")), "bit")
    out["epsilon.check.self_s"] = (float(stat("epsilon.check", "self_s")), "s")
    out["ud.sample_box.points"] = (stat("ud.sample_box", "points"), "count")
    out["harness.checks"] = (stat("harness.job", "calls"), "count")
    out["harness.trials_total"] = (trials_total, "count")
    out["harness.self_s"] = (float(stat("harness.suite", "self_s") + stat("harness.job", "self_s")), "s")
    out["harness.check_max_s"] = (max((r[5] for r in rows), default=0.0), "s")
    out["cli.self_s"] = (float(stat("cli", "self_s")), "s")
    out["trace.overhead_s"] = (traced["verdict_s"] - untraced["verdict_s"], "s")
    return out


def slowest_jobs(spans: list, count: int = 10) -> list[tuple[float, str]]:
    """The slowest (check, subject) jobs of a traced pass, with their suite."""
    jobs = []
    for layer, label, parent, start, end in spans:
        if layer == "harness.job":
            suite = spans[parent][1] if parent >= 0 else "?"
            jobs.append((end - start, f"{suite}: {label}"))
    return sorted(jobs, reverse=True)[:count]


def trace(workload: str, seed: int, checker: Checker, deadline: float) -> tuple[dict, dict]:
    """One untraced and one traced pass; returns (per-layer metrics, summary-only metrics)."""
    untraced, _ = run_worker(workload, seed, "measure", deadline - time.monotonic())
    checker.check(untraced)
    traced, _ = run_worker(workload, seed, "trace", deadline - time.monotonic())
    checker.check(traced)
    if untraced is None or traced is None:
        raise SystemExit(1)
    TRACE_DIR.mkdir(exist_ok=True)
    out_file = TRACE_DIR / f"{workload}-seed{seed}.json"
    out_file.write_text(json.dumps({"layers": traced["layers"], "spans": traced["spans"]}))
    summary = {
        "verdict_s untraced": (untraced["verdict_s"], "s"),
        "verdict_s traced": (traced["verdict_s"], "s"),
        "wrong_share": (checker.failed / checker.attempted, "share"),
    }
    print(f"spans written to {out_file.relative_to(ROOT)}")
    jobs = slowest_jobs(traced["spans"])
    if jobs:
        print("slowest jobs of the traced pass:")
        for seconds, label in jobs:
            print(f"  {seconds:8.4f} s  {label}")
    return layer_metrics(traced, untraced), summary


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> tuple[Checker, dict]:
    deadline = time.monotonic() + DEADLINE_S
    checker = Checker(workload, seed)
    if traced:
        metrics, summary = trace(workload, seed, checker, deadline)
    else:
        metrics, summary = measure(workload, seed, seconds, checker, deadline)
    print(f"{workload} seed={seed}: {checker.attempted} operations, {checker.failed} wrong")
    for name, (value, unit) in {**metrics, **summary}.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for note in checker.notes[:20]:
        print(f"  WRONG {note}")
    return checker, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25, help="measuring time per workload (untraced)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gcrystal" / "__init__.py").is_file():
        print(f"error: no gcrystal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        checker, found = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        attempted += checker.attempted
        failed += checker.failed
        prefix = f"{workload}:" if len(workloads) > 1 else ""
        metrics.update({prefix + name: {"value": value, "unit": unit} for name, (value, unit) in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
