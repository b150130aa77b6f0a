#!/usr/bin/env python3
"""Run every verification suite and print a summary table.

Usage:
    python scripts/run_all_suites.py [--trials T] [--seed S] [--out DIR]

With --out, one canonical JSON report per suite is written into DIR along
with the generated identity ledger (identities.md).  Exit code 0 iff no
check failed, 2 if the parameters are invalid (checked before any suite
runs).
"""

import argparse
import collections
import pathlib
import sys
import time

from gcrystal.harness import SUITES, SuiteError, parse_params, report_json, run_suite
from gcrystal.ledger import emit_ledger


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=None, help="override per-check sample count")
    ap.add_argument("--seed", type=int, default=None, help="override per-suite seeds")
    ap.add_argument("--out", default=None, help="directory for JSON reports and the ledger")
    args = ap.parse_args(argv)

    params = {} if args.trials is None else {"trials": args.trials}
    try:
        for name in SUITES:
            parse_params(name, params)
    except SuiteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    total = collections.Counter()
    print(f"{'suite':<14} {'checks':>6} {'pass':>5} {'fail':>5} {'skip':>5} {'assumed':>8} {'time':>8}")
    for name in SUITES:
        start = time.perf_counter()
        results = run_suite(name, params, args.seed)
        elapsed = time.perf_counter() - start
        counts = collections.Counter(r.verdict for r in results)
        total.update(counts)
        print(
            f"{name:<14} {len(results):>6} {counts['pass']:>5} {counts['fail']:>5} "
            f"{counts['skip']:>5} {counts['assumed']:>8} {elapsed:>7.1f}s"
        )
        for r in results:
            if r.verdict == "fail":
                print(f"    FAIL {r.check} [{r.subject}] {r.note}")
                if r.counterexample:
                    print(f"         {r.counterexample}")
        if out_dir:
            (out_dir / f"{name}.json").write_text(report_json(name, params, args.seed, results))

    if out_dir:
        (out_dir / "identities.md").write_text(emit_ledger())
        print(f"reports and ledger written to {out_dir}/")

    print(
        f"{'total':<14} {sum(total.values()):>6} {total['pass']:>5} {total['fail']:>5} "
        f"{total['skip']:>5} {total['assumed']:>8}"
    )
    return 0 if total["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
