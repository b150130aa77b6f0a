"""Per-layer tracing of gcrystal from outside the library.

The tracer wraps the functions listed in :data:`BOUNDARIES` at the names
their callers look up: every ``gcrystal`` module attribute that is the
original function object (``gcrystal.crystal.evaluate``,
``gcrystal.rmap.evaluate``, ``gcrystal.ud.trop_eval`` as ``harness``
reaches it, ...) and, for methods, the class attribute.  No file of the
library changes.

The recursive evaluators ``expr.evaluate`` and ``ud.trop_eval`` call
themselves through their own module's global name.  The wrapper for them
calls a copy of the function whose globals point the name at the copy, so
only the outer call from another function is counted and the recursion
(over ten million inner calls on the rational suites) runs unwrapped.

Every boundary keeps a call count and accumulated self time: its time
minus the time of wrapped calls made inside it.  A call into a layer
from inside the same layer passes straight through, so ``calls`` counts
entries into the layer.  Only the coarse boundaries (checkers, builders,
compilers, suites and CLI calls) also keep spans in memory; the hot leaves
keep counters only.
"""

from __future__ import annotations

import sys
import time
import types
from dataclasses import dataclass

# (layer, defining module, attributes, keeps spans)
BOUNDARIES = (
    ("arith.sample_point", "gcrystal.arith", ("sample_point",), False),
    ("expr.evaluate", "gcrystal.expr", ("evaluate",), False),
    ("expr.identity", "gcrystal.expr", ("identical_on_domain", "vanishes_on_domain"), False),
    ("crystal.pointwise_check", "gcrystal.crystal", ("pointwise_check",), False),
    ("crystal.apply_e", "gcrystal.crystal", ("apply_e",), False),
    ("crystal.product", "gcrystal.crystal", ("product",), True),
    ("epsilon.product_epsilon", "gcrystal.epsilon", ("product_epsilon",), True),
    (
        "epsilon.check",
        "gcrystal.epsilon",
        (
            "check_epsilon_axiom",
            "check_partition_sum",
            "check_alternating_identities",
            "check_pair_identity",
            "check_well_defined",
        ),
        True,
    ),
    (
        "models.build",
        "gcrystal.models",
        (
            "affine_a_model",
            "affine_a_local_system",
            "affine_d5_model",
            "d5_local_tables",
            "borel_action",
            "borel_model",
            "borel_epsilon_system",
        ),
        True,
    ),
    (
        "models.borel_matrix",
        "gcrystal.models",
        (
            "borel_from_point",
            "borel_multiply",
            "borel_apply_e_matrix",
            "BorelElement.minor",
            "BorelElement.unipotent",
        ),
        False,
    ),
    ("rmap.build_r_map", "gcrystal.rmap", ("build_r_map",), True),
    ("rmap.apply_r", "gcrystal.rmap", ("apply_r",), False),
    ("ud.tropicalize", "gcrystal.ud", ("tropicalize",), True),
    ("ud.trop_eval", "gcrystal.ud", ("trop_eval",), False),
    ("harness.suite", "gcrystal.harness", ("run_suite",), True),
    ("harness.job", "gcrystal.harness", ("_Collector.run", "_Collector.record"), True),
    ("cli", "gcrystal.cli", ("main",), True),
)

# Functions that recurse through their own global name.
RECURSIVE = {("gcrystal.expr", "evaluate"), ("gcrystal.ud", "trop_eval")}


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    # expr.evaluate only: calls ending in EvalDomainError, and the bit size
    # (numerator plus denominator) of the values returned
    poles: int = 0
    values: int = 0
    bits_sum: int = 0
    bits_max: int = 0


def _span_label(layer: str, name: str, args: tuple) -> str:
    if layer == "harness.job":
        return f"{args[1]} | {args[2]}"
    if layer == "harness.suite":
        return str(args[0])
    if layer == "cli":
        argv = args[0]
        return f"{argv[0]} {argv[1]} n={argv[3]}"
    return name


def _private_recursion(fn):
    """A copy of ``fn`` whose recursive calls reach the copy, not the module global."""
    namespace = dict(fn.__globals__)
    copy = types.FunctionType(fn.__code__, namespace, fn.__name__, fn.__defaults__, fn.__closure__)
    copy.__kwdefaults__ = fn.__kwdefaults__
    namespace[fn.__name__] = copy
    return copy


class Tracer:
    """Counters, self time and spans for the boundaries of one process."""

    def __init__(self):
        self.stats: dict[str, LayerStat] = {}
        self.sample_box_points = 0
        # frames: [stat, time spent in wrapped children, span index or -1]
        self._stack: list[list] = []
        # spans: [layer, label, parent span index or -1, start, end]
        self.spans: list[list] = []

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary of the gcrystal modules imported so far; call once."""
        modules = [m for name, m in sys.modules.items() if name == "gcrystal" or name.startswith("gcrystal.")]
        for layer, module_name, attrs, keep_spans in BOUNDARIES:
            home = sys.modules.get(module_name)
            if home is None:
                continue
            stat = self.stats.setdefault(layer, LayerStat())
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(getattr(cls, meth), layer, meth, stat, keep_spans))
                    continue
                original = getattr(home, attr)
                target = _private_recursion(original) if (module_name, attr) in RECURSIVE else original
                if layer == "expr.evaluate":
                    wrapper = self._wrap_evaluate(target, stat, home.EvalDomainError)
                else:
                    wrapper = self._wrap(target, layer, attr, stat, keep_spans)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
        ud = sys.modules.get("gcrystal.ud")
        if ud is not None:
            ud.sample_box = self._wrap_sample_box(ud.sample_box)

    # -- wrappers -----------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, stat: LayerStat, keep_spans: bool):
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is stat:
                return fn(*args, **kwargs)
            span = -1
            if keep_spans:
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                span = len(spans)
                spans.append([layer, _span_label(layer, name, args), parent, 0.0, 0.0])
            frame = [stat, 0.0, span]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span >= 0:
                    spans[span][3:] = [start, end]

        return wrapper

    def _wrap_evaluate(self, fn, stat: LayerStat, pole_error):
        stack = self._stack
        perf = time.perf_counter

        def evaluate(e, point):
            frame = [stat, 0.0, -1]
            stack.append(frame)
            start = perf()
            try:
                value = fn(e, point)
            except pole_error:
                stat.poles += 1
                raise
            finally:
                elapsed = perf() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            bits = value.numerator.bit_length() + value.denominator.bit_length()
            stat.values += 1
            stat.bits_sum += bits
            if bits > stat.bits_max:
                stat.bits_max = bits
            return value

        return evaluate

    def _wrap_sample_box(self, fn):
        def sample_box(*args, **kwargs):
            for point in fn(*args, **kwargs):
                self.sample_box_points += 1
                yield point

        return sample_box

    # -- report -------------------------------------------------------------------

    def report(self) -> dict:
        """Counters of every layer that was entered; layers never entered are absent."""
        out = {}
        for layer, stat in self.stats.items():
            if stat.calls == 0:
                continue
            entry = {"calls": stat.calls, "self_s": stat.self_s}
            if layer == "expr.evaluate":
                entry["poles"] = stat.poles
                entry["bits_max"] = stat.bits_max
                entry["bits_mean"] = stat.bits_sum / stat.values if stat.values else 0.0
            out[layer] = entry
        if self.sample_box_points:
            out["ud.sample_box"] = {"points": self.sample_box_points}
        return out
