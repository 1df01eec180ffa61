"""In-memory spans around flowscope's public functions, installed from outside.

The tracer replaces a function on every ``flowscope.*`` module namespace
that holds it, so calls made inside the package (``find_causal_flow``
calling ``acyclic_order``, ``iter_saturating_assignments`` calling
``max_matching_size``) are recorded as well as the benchmark's own calls.
No file of the package changes.  A function the package no longer defines
is skipped and reported as absent rather than failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, function) pairs wrapped with a span.  Generators get a counting
# wrapper instead, since their frames interleave with the caller's spans.
SPANNED = (
    ("flowscope.matching", "max_matching_size"),
    ("flowscope.flow", "find_causal_flow"),
    ("flowscope.flow", "build_influencing_digraph"),
    ("flowscope.flow", "acyclic_order"),
    ("flowscope.flow", "flow_from_cover"),
    ("flowscope.flow", "verify_flow"),
    ("flowscope.flow", "dump_flow"),
    ("flowscope.flow", "load_flow"),
    ("flowscope.geometry", "load_geometry"),
    ("flowscope.geometry", "serialize_geometry"),
    ("flowscope.extremal", "generate_extremal"),
    ("flowscope.simulate", "draw_angles"),
    ("flowscope.simulate", "simulate_postselected"),
    ("flowscope.simulate", "isometry_defect"),
)
COUNTED_GENERATORS = (("flowscope.matching", "iter_saturating_assignments"),)

# Spans kept for the trace file; aggregates keep counting past the cap.
SPAN_CAP = 200_000


def layer_name(module: str, func: str) -> str:
    """``flowscope.flow`` + ``acyclic_order`` -> ``flow.acyclic_order``."""
    return f"{module.rsplit('.', 1)[-1]}.{func}"


@dataclass
class Aggregate:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class Tracer:
    """Span recorder.

    A span is (id, name, start_ns, end_ns, parent id, op id); ids number
    spans in the order they open, and parent -1 marks a root.  Recording
    happens only between ``begin_op`` and ``end_op``, so checks the
    benchmark makes on an op's result are not traced.
    """

    names: dict[str, int] = field(default_factory=dict)
    spans: list[tuple[int, int, int, int, int, int]] = field(default_factory=list)
    dropped: int = 0
    aggregates: dict[str, Aggregate] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    active: bool = False
    op_id: int = -1
    _next_id: int = 0
    # Open spans as [span id, name id, start_ns, child_ns].
    _stack: list[list[int]] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.aggregates.setdefault(name, Aggregate())
        return self.names.setdefault(name, len(self.names))

    def _enter(self, name_id: int) -> None:
        self._stack.append([self._next_id, name_id, time.perf_counter_ns(), 0])
        self._next_id += 1

    def _exit(self, name: str) -> None:
        end = time.perf_counter_ns()
        span_id, name_id, start, child_ns = self._stack.pop()
        dur = end - start
        agg = self.aggregates[name]
        agg.calls += 1
        agg.total_ns += dur
        agg.self_ns += dur - child_ns
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name_id, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def begin_op(self, kind: str) -> None:
        """Open the root span of one benchmark op and start recording."""
        self.op_id += 1
        self.active = True
        self._enter(self._name_id(f"op.{kind}"))

    def end_op(self, kind: str) -> None:
        self._exit(f"op.{kind}")
        self.active = False

    # -- installation ----------------------------------------------------

    def _spanned(self, name: str, fn):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            if name == "flow.build_influencing_digraph":
                arcs = getattr(result, "arcs", None)
                if arcs is not None:
                    tracer.count("flow.digraph_arcs", len(arcs))
            return result

        return traced

    def _counted(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.active:
                    tracer.count(f"{name}.yielded")
                yield item

        return counted

    def install(self) -> None:
        """Wrap every listed function on each flowscope module that holds it."""
        for targets, make in ((SPANNED, self._spanned), (COUNTED_GENERATORS, self._counted)):
            for module_name, func in targets:
                name = layer_name(module_name, func)
                original = getattr(sys.modules.get(module_name), func, None)
                if original is None:
                    self.absent.append(name)
                    continue
                wrapper = make(name, original)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "flowscope" or module is None:
                        continue
                    if getattr(module, func, None) is original:
                        self._patches.append((module, func, original))
                        setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patches):
            setattr(module, func, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def seconds(self, name: str, *, self_time: bool = False) -> float:
        agg = self.aggregates.get(name)
        if agg is None:
            return 0.0
        return (agg.self_ns if self_time else agg.total_ns) / 1e9

    def calls(self, name: str) -> int:
        agg = self.aggregates.get(name)
        return agg.calls if agg is not None else 0

    def write(self, path: Path) -> None:
        """Write every kept span as JSON: a name table plus span rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "names": sorted(self.names, key=self.names.get),
            "spans": self.spans,
            "dropped": self.dropped,
            "absent": self.absent,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
