"""In-memory spans around calls into the fewweights layers.

A traced run swaps the public functions of the library modules for wrappers
that record a span (name, start, end, parent span, operation id) per call,
then puts the originals back.  Because the library calls its own layers
through module globals, the wrappers also see the calls one layer makes into
another (``kernelize_with_report`` into ``group``, ``reduce_ilp`` into
``frank_tardos_reduce``, and so on) without any change to the library.
Counters are gathered at the same boundaries, after the span has closed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext

# (module attribute on the library namespace, function name, layer name)
WRAPPED = (
    ("generators", "gen_rss", "generators.gen_rss"),
    ("generators", "gen_knapsack", "generators.gen_knapsack"),
    ("composition", "compose", "composition.compose"),
    ("solvers", "solve_meet_in_middle", "solvers.mim"),
    ("kernel", "kernelize_with_report", "kernel.kernelize"),
    ("kernel", "group", "kernel.group"),
    ("kernel", "solve_grouped", "kernel.solve_grouped"),
    ("kernel", "solve_meet_in_middle", "solvers.mim"),
    ("kernel", "reduce_ilp", "kernel.reduce_ilp"),
    ("kernel", "frank_tardos_reduce", "frank_tardos.reduce"),
    ("kernel", "ilp_to_knapsack", "kernel.ilp_to_knapsack"),
)

# Layers with a calls / busy_s (span time) / self_s (span time minus the
# time of its child spans) triple.  "op" is the root span of one timed
# operation; "check" is the untimed verdict check, run with the library
# unwrapped so oracle time spent checking stays out of the solver layers.
LAYERS = (
    "op",
    "generators.gen_rss",
    "generators.gen_knapsack",
    "composition.compose",
    "serialize.load",
    "serialize.dump",
    "solvers.mim",
    "kernel.kernelize",
    "kernel.group",
    "kernel.solve_grouped",
    "kernel.reduce_ilp",
    "frank_tardos.reduce",
    "kernel.ilp_to_knapsack",
    "check",
)

COUNTERS = (
    "solvers.mim.half_masks",
    "kernel.group.variables",
    "kernel.ilp_to_knapsack.items_out",
    "frank_tardos.dim_max",
    "frank_tardos.coeff_bits_in",
    "frank_tardos.coeff_bits_out",
    "serialize.bytes",
    "composition.items",
    "composition.w_distinct",
    "composition.p_distinct",
)


def unit(key: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if key.endswith("_s"):
        return "s"
    if "frac" in key or "ratio" in key:
        return "ratio"
    if "bits" in key:
        return "bits"
    if "bytes" in key:
        return "bytes"
    return "count"


def _bits(values) -> int:
    return sum(abs(v).bit_length() for v in values)


def _count_mim(tr, args, result):
    n = len(args[0].items)
    tr.add("solvers.mim.half_masks", 2 ** ((n + 1) // 2) + 2 ** (n // 2))


def _count_group(tr, args, result):
    tr.add("kernel.group.variables", result.variable_count)
    tr.add("kernel.group.nonzero", sum(1 for row in result.counts for c in row if c))


def _count_frank_tardos(tr, args, result):
    vector = args[0]
    tr.peak("frank_tardos.dim_max", len(set(vector)))
    tr.add("frank_tardos.coeff_bits_in", _bits(vector))
    tr.add("frank_tardos.coeff_bits_out", _bits(result))


def _count_ilp_to_knapsack(tr, args, result):
    tr.add("kernel.ilp_to_knapsack.items_out", len(result.items))


def _count_compose(tr, args, result):
    items = result.knapsack.items
    tr.add("composition.items", len(items))
    tr.peak("composition.w_distinct", len({it.weight for it in items}))
    tr.peak("composition.p_distinct", len({it.profit for it in items}))


HOOKS = {
    "solvers.mim": _count_mim,
    "kernel.group": _count_group,
    "frank_tardos.reduce": _count_frank_tardos,
    "kernel.ilp_to_knapsack": _count_ilp_to_knapsack,
    "composition.compose": _count_compose,
}


class _Span:
    __slots__ = ("tracer", "name", "span_id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.span_id = len(tr.spans)
        tr.spans.append(None)  # reserve the id so children number after it
        self.parent = tr.stack[-1] if tr.stack else None
        tr.stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.span_id] = (
            self.span_id,
            self.parent,
            tr.op_id,
            self.name,
            self.start,
            end,
            exc_type.__name__ if exc_type else None,
        )
        return False


class NullTracer:
    """What untraced code paths call: records nothing."""

    op_id = None

    def install(self, lib) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def span(self, name: str):
        return nullcontext()

    def add(self, key: str, amount) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.op_id = None
        self._originals: list = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, key: str, amount) -> None:
        self.counters[key] += amount

    def peak(self, key: str, value) -> None:
        self.counters[key] = max(self.counters[key], value)

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)

        def wrapped(*args, **kwargs):
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapped

    def install(self, lib) -> None:
        """Wrap the library's layer functions; ``uninstall`` restores them."""
        for module_name, attr, name in WRAPPED:
            module = getattr(lib, module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s and self_s per layer, the counters, and the grouped
        B&B's budget refusals."""
        child_time = defaultdict(float)
        for span_id, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        grouped_failed = 0
        for span_id, _, _, name, start, end, error in self.spans:
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child_time[span_id]
            if name == "kernel.solve_grouped" and error == "GuardError":
                grouped_failed += 1
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        out["kernel.solve_grouped.failed"] = grouped_failed
        for key in COUNTERS:
            out[key] = self.counters[key]
        variables = self.counters["kernel.group.variables"]
        out["kernel.group.nonzero_frac"] = (
            self.counters["kernel.group.nonzero"] / variables if variables else 0.0
        )
        return out

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "op", "name", "start", "end", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
