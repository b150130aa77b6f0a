"""Command-line interface.

    gcrystal verify <suite> [--n N] [--L p/q] [--M p/q] [--N p/q]
                            [--a p/q] [--b p/q] [--model NAME]
                            [--trials T] [--seed S] [--json OUT]
    gcrystal rmap apply --n N --l JSON --m JSON
    gcrystal ud trop --expr EXPR
    gcrystal ud rmap --n N --l JSON --m JSON
    gcrystal model show <name> [--n N] [--L p/q] [--json]
    gcrystal ledger

`verify` exits 0 iff no check failed (skipped/assumed checks do not fail
a run), and 2 without running any check when a parameter is invalid.
Points for `rmap apply` are JSON arrays of nonzero rationals, either
numbers or "p/q" strings, and for `ud rmap` JSON arrays of integers; the
output is JSON on stdout.  A malformed point, or a point at a pole of R
(some window sum P_i vanishes), exits 2 with the error on stderr and
nothing on stdout; so does a number too long for Python to write out,
in a point or in the image.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import harness
from .arith import product as fraction_product
from .crystal import model_manifest
from .expr import EvalDomainError, parse, pretty, to_json
from .models import build_named_model
from .rmap import apply_r, build_r_map, window_sums
from .ud import tropicalize


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from err


def _size(text: str) -> int:
    """An affine type-A size n; the R map needs n >= 1."""
    try:
        n = int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from err
    if n < 1:
        raise argparse.ArgumentTypeError(f"affine type A needs n >= 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gcrystal", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=harness.SUITES)
    verify.add_argument("--n", type=int, default=None, help="restrict to one size")
    verify.add_argument("--L", type=_fraction, default=None, help="left level")
    verify.add_argument("--M", type=_fraction, default=None, help="right level")
    verify.add_argument("--N", type=_fraction, default=None, help="third level")
    verify.add_argument("--a", type=_fraction, default=None, help="homogeneous left value")
    verify.add_argument("--b", type=_fraction, default=None, help="homogeneous right value")
    verify.add_argument("--model", default=None, help="restrict to one model (axioms/epsilon)")
    verify.add_argument("--trials", type=int, default=None, help="sample points per check")
    verify.add_argument("--seed", type=int, default=None, help="suite seed override")
    verify.add_argument("--json", dest="json_out", default=None, metavar="OUT", help="write a JSON report")

    rmap_cmd = sub.add_parser("rmap", help="apply the birational R map")
    rmap_sub = rmap_cmd.add_subparsers(dest="rmap_command", required=True)
    rmap_apply = rmap_sub.add_parser("apply")
    rmap_apply.add_argument("--n", type=_size, required=True)
    rmap_apply.add_argument("--l", required=True, help="JSON array of n+1 rationals")
    rmap_apply.add_argument("--m", required=True, help="JSON array of n+1 rationals")

    ud_cmd = sub.add_parser("ud", help="tropicalization tools")
    ud_sub = ud_cmd.add_subparsers(dest="ud_command", required=True)
    ud_trop = ud_sub.add_parser("trop")
    ud_trop.add_argument("--expr", required=True, help="expression in the DSL")
    ud_rmap = ud_sub.add_parser("rmap", help="apply the combinatorial R to integer tuples")
    ud_rmap.add_argument("--n", type=_size, required=True)
    ud_rmap.add_argument("--l", required=True, help="JSON array of n+1 integers")
    ud_rmap.add_argument("--m", required=True, help="JSON array of n+1 integers")

    model_cmd = sub.add_parser("model", help="inspect built-in models")
    model_sub = model_cmd.add_subparsers(dest="model_command", required=True)
    model_show = model_sub.add_parser("show")
    model_show.add_argument("name", choices=("a-affine", "d5-affine", "borel"))
    model_show.add_argument("--n", type=int, default=2)
    model_show.add_argument("--L", type=_fraction, default=Fraction(4))
    model_show.add_argument("--json", action="store_true", help="print the JSON manifest")

    sub.add_parser("ledger", help="print the generated identity ledger (markdown)")
    return top


def _cmd_verify(args) -> int:
    params = {}
    for key in ("n", "L", "M", "N", "a", "b", "model", "trials"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    try:
        results = harness.run_suite(args.suite, params, args.seed)
    except harness.SuiteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    width = max(len(f"{r.check} {r.subject}") for r in results)
    for r in results:
        label = f"{r.check} {r.subject}"
        print(f"{label:<{width}}  {r.verdict.upper():<7} trials={r.trials:<5} {r.elapsed:6.2f}s")
        if r.verdict == "fail":
            detail = r.note or json.dumps(r.counterexample)
            print(f"  -> {detail}")
    fails = sum(r.verdict == "fail" for r in results)
    print(f"{args.suite}: {len(results)} checks, {fails} failed")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(harness.report_json(args.suite, params, args.seed, results))
        print(f"report written to {args.json_out}")
    return 0 if fails == 0 else 1


def _reject(message: str):
    """Refuse a bad command-line point as argparse refuses a bad option: stderr, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _json_array(text: str, n: int, what: str, kind: str) -> list:
    try:
        raw = json.loads(text)
    except ValueError as err:  # malformed, or an integer past the digit limit of int parsing
        _reject(f"{what} is not valid JSON: {err}")
    if not isinstance(raw, list) or len(raw) != n + 1:
        _reject(f"{what} must be a JSON array of {n + 1} {kind}")
    return raw


def _parse_point(text: str, n: int, what: str) -> dict[str, Fraction]:
    out = {}
    for k, value in enumerate(_json_array(text, n, what, "rationals"), start=1):
        try:
            out[f"l{k}"] = Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            _reject(f"{what}[{k - 1}] = {value!r} is not a rational")
        if out[f"l{k}"] == 0:
            _reject(f"{what}[{k - 1}] must be nonzero")
        try:
            str(out[f"l{k}"])
        except ValueError:  # past the digit limit of int printing
            _reject(f"{what}[{k - 1}] has too many digits to write out")
    return out


def _parse_int_point(text: str, n: int, what: str) -> dict[str, int]:
    raw = _json_array(text, n, what, "integers")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in raw):
        _reject(f"{what} must be a JSON array of {n + 1} integers")
    return {f"l{k}": v for k, v in enumerate(raw, start=1)}


def _cmd_rmap_apply(args) -> int:
    l = _parse_point(args.l, args.n, "--l")
    m = _parse_point(args.m, args.n, "--m")
    r = build_r_map(args.n)
    try:
        l2, m2 = apply_r(r, l, m)
    except EvalDomainError:
        zero = " = ".join(f"P_{i}" for i, p in enumerate(window_sums(r, l, m)) if p == 0)
        print(f"error: the point is a pole of R: window sum {zero} = 0", file=sys.stderr)
        return 2
    return _print_json(
        lambda: {
            "l": [str(l2[f"l{k}"]) for k in range(1, args.n + 2)],
            "m": [str(m2[f"l{k}"]) for k in range(1, args.n + 2)],
            "levels": [str(fraction_product(m.values())), str(fraction_product(l.values()))],
        }
    )


def _print_json(result) -> int:
    """Print ``result()`` as JSON; exit status 2, the error on stderr, if a number is too long to write out."""
    try:
        text = json.dumps(result(), indent=2)
    except ValueError as err:  # an int past the digit limit of int printing
        print(f"error: the result cannot be written out: {err}", file=sys.stderr)
        return 2
    print(text)
    return 0


def _cmd_ud_trop(args) -> int:
    try:
        expr = parse(args.expr)
        tropical = tropicalize(expr)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # ``tree`` is the expression tree that the (max, +) reading reads, on one
    # line: indenting it would grow as the square of its depth
    fields = {"input": json.dumps(pretty(expr)), "tropical": json.dumps(tropical), "tree": to_json(expr)}
    print("{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields.items()) + "\n}")
    return 0


def _cmd_ud_rmap(args) -> int:
    from .ud import apply_combinatorial_r

    l = _parse_int_point(args.l, args.n, "--l")
    m = _parse_int_point(args.m, args.n, "--m")
    l2, m2 = apply_combinatorial_r(args.n, l, m)
    return _print_json(
        lambda: {"l": [l2[f"l{k}"] for k in range(1, args.n + 2)], "m": [m2[f"l{k}"] for k in range(1, args.n + 2)]}
    )


def _cmd_model_show(args) -> int:
    try:
        model = build_named_model(args.name, n=args.n, level=args.L)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(model_manifest(model), indent=2))
        return 0
    print(f"{model.name}")
    print(f"  variables: {', '.join(model.variables)}")
    for subset, target in model.constraints:
        print(f"  constraint: {'*'.join(subset)} = {target}")
    for i in model.cartan.labels:
        print(f"  i={i}: gamma = {pretty(model.gamma[i])}; eps = {pretty(model.eps[i])}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "rmap":
        return _cmd_rmap_apply(args)
    if args.command == "ud":
        return _cmd_ud_rmap(args) if args.ud_command == "rmap" else _cmd_ud_trop(args)
    if args.command == "model":
        return _cmd_model_show(args)
    if args.command == "ledger":
        from .ledger import emit_ledger

        print(emit_ledger())
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
