"""One measured pass of a workload, in a fresh interpreter.

Usage (``run.py`` starts it):

    python3 perfbench/worker.py WORKLOAD SEED [measure|trace|setup]

Imports the gcrystal modules the workload calls (timed as set-up), runs
the workload once, and prints one JSON line: the set-up time, the time to
the last verdict, the per-suite or per-command times, the peak resident
memory, every result row or CLI output for ``run.py`` to check, and with
``trace`` the per-layer counters and spans.  ``setup`` only times the
import.  Arguments are read without argparse, so that nothing but the
interpreter itself is loaded before the timed import.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRY_MODULE = {
    "suites-rational": "gcrystal.harness",
    "suites-oracle-ud": "gcrystal.harness",
    "rmap-large-n": "gcrystal.cli",
}


def _import_gcrystal(workload: str):
    """Import the workload's entry module from this checkout; returns (module, seconds)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    __import__(ENTRY_MODULE[workload])
    elapsed = time.perf_counter() - start
    module = sys.modules[ENTRY_MODULE[workload]]
    if not os.path.abspath(module.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported {module.__file__}, not the checkout's src/gcrystal")
    return module, elapsed


def _run_suites(harness, workload: str, seed: int) -> dict:
    from workloads import SUITES, TIMED_SUITES, suite_seed

    parts = {}
    rows = []
    start = time.perf_counter()
    for suite in SUITES[workload]:
        t0 = time.perf_counter()
        results = harness.run_suite(suite, {}, suite_seed(seed, suite))
        if suite in TIMED_SUITES[workload]:
            parts[f"suite.{suite}_s"] = time.perf_counter() - t0
        rows.extend([r.suite, r.check, r.subject, r.verdict, r.trials, r.elapsed] for r in results)
    verdict_s = time.perf_counter() - start
    return {"verdict_s": verdict_s, "parts": parts, "rows": rows}


def _run_cli(cli, seed: int) -> dict:
    import contextlib
    import io

    from workloads import cli_argv, rmap_calls

    parts = {"rmap_apply_s": 0.0, "ud_rmap_s": 0.0}
    outputs = []
    start = time.perf_counter()
    for call in rmap_calls(seed):
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(cli_argv(call))
        except SystemExit as err:
            code = err.code
        except Exception as err:  # noqa: BLE001 - a crashing call is a wrong answer
            code = f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - t0
        parts["rmap_apply_s" if call["kind"] == "rmap apply" else "ud_rmap_s"] += elapsed
        outputs.append({"exit": code, "stdout": buf.getvalue()})
    verdict_s = time.perf_counter() - start
    return {"verdict_s": verdict_s, "parts": parts, "outputs": outputs}


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), (argv[2] if len(argv) > 2 else "measure")
    if workload not in ENTRY_MODULE or mode not in ("measure", "trace", "setup"):
        raise SystemExit(f"usage: worker.py {{{'|'.join(ENTRY_MODULE)}}} SEED [measure|trace|setup]")

    module, setup_s = _import_gcrystal(workload)

    import json
    import resource

    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if workload == "rmap-large-n":
        result = _run_cli(module, seed)
    else:
        result = _run_suites(module, workload, seed)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.report()
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
