"""Spans and counts recorded from outside the library.

The tracer replaces the names each calling module imports (for example
``orbitpieces.harness.all_subgroups`` and ``orbitpieces.scott.successor_level``)
with thin wrappers that record a span per call: name, start, end, parent span
and operation id.  Self time is a span's duration minus the time its child
spans cover.  Nothing under ``src/`` changes; ``uninstall`` puts every
original back.

Tiny hot helpers (``bits``, ``translate_set``, ``saturate``, ``local_orbit``)
stay unwrapped so the overhead stays readable.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager

from orbitpieces import classify, harness, saturation, scott, topology

MAX_SPANS = 200_000

_TRANSFORMS = ("delta", "star", "local_delta", "local_star", "local_delta_n", "local_star_n")


def _after_analyze(tr, table):
    tr.counts["scott.analyze.cells"] += len(table.cells)
    tr.counts["scott.analyze.blocks"] += sum(len(b) for b in table.levels[-1])
    tr.counts["scott.analyze.levels"] += table.stabilization


def _after_topology(tr, topo):
    tr.counts["topology.generate_topology.opens"] += len(topo.opens)


def _after_invariant(tr, rep):
    tr.counts["classify.invariant_containment_check.checked"] += rep["checked"]


def _after_serialize(tr, text):
    tr.counts["harness.serialize_analysis.bytes"] += len(text)


def _after_build(tr, doc):
    tr.counts["harness.oracle_entries"] += len(doc["oracle_log"])


# (span name, [(module, attribute), ...], hook on the result or None)
WRAPS = [
    ("algebra.group_from_table", [(harness, "group_from_table")], None),
    ("algebra.all_subgroups", [(harness, "all_subgroups")], None),
    ("gspace.build_instance", [(harness, "build_instance")], None),
    ("gspace.instance_from_families", [(topology, "instance_from_families")], None),
    ("saturation.orbit_partition", [(scott, "orbit_partition"), (classify, "orbit_partition")], None),
    ("saturation.cached_reach", [(scott, "cached_reach"), (harness, "cached_reach")], None),
    *((f"transforms.{t}", [(harness, t)], None) for t in _TRANSFORMS),
    ("scott.analyze", [(scott, "analyze"), (harness, "analyze"), (topology, "analyze")],
     _after_analyze),
    ("scott.successor_level", [(scott, "successor_level"), (harness, "successor_level")], None),
    ("scott.lookup", [(scott, "piece"), (scott, "signature"), (harness, "piece"),
                      (classify, "piece"), (topology, "piece")], None),
    ("scott.scott_rank", [(scott, "scott_rank"), (harness, "scott_rank"),
                          (classify, "scott_rank")], None),
    ("scott.stable_partition", [(scott, "stable_partition"), (harness, "stable_partition")], None),
    ("scott.pattern_partition", [(harness, "pattern_partition")], None),
    ("scott.piece_from_decomposition", [(harness, "piece_from_decomposition")], None),
    ("topology.generate_topology", [(topology, "generate_topology"), (harness, "generate_topology")],
     _after_topology),
    ("topology.refined_family", [(topology, "refined_family"), (harness, "refined_family")], None),
    ("topology.refined_space", [(topology, "refined_space")], None),
    ("topology.relative_pieces", [(harness, "relative_pieces")], None),
    ("topology.open_map_check", [(topology, "open_map_check"), (classify, "open_map_check")], None),
    ("classify.classification_report", [(classify, "classification_report"),
                                        (harness, "classification_report")], None),
    ("classify.eventual_openness", [(classify, "eventual_openness")], None),
    ("classify.invariant_containment_check", [(classify, "invariant_containment_check")],
     _after_invariant),
    ("harness.parse_instance", [(harness, "parse_instance")], None),
    ("harness.build_analysis", [(harness, "build_analysis")], _after_build),
    ("harness.run_oracles", [(harness, "run_oracles")], None),
    ("harness.serialize_analysis", [(harness, "serialize_analysis")], _after_serialize),
]

# Memoized layer entry points: a call is a miss when the per-instance cache grew.
CACHES = {
    "saturation.orbit_partition": saturation._ORBIT_CACHE,
    "saturation.cached_reach": saturation._REACH_CACHE,
}

LAYERS = ("algebra", "gspace", "saturation", "transforms", "scott", "topology", "classify",
          "harness")


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = "op"
        self.op_id = -1
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_ns: Counter = Counter()   # (phase, name) -> ns
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []        # [span id, name, start, child ns]
        self._next = 0
        self._suspended = 0
        self._main = threading.get_ident()
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enabled(self) -> bool:
        return self.active and not self._suspended and threading.get_ident() == self._main

    def _enter(self, name: str) -> list:
        frame = [self._next, name, time.perf_counter_ns(), 0]
        self._next += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        sid, name, start, child = frame
        dur = end - start
        key = (self.phase, name)
        self.self_ns[key] += dur - child
        self.incl_ns[key] += dur
        self.calls[key] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent[0] if parent else None, self.op_id))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself (one op or one query)."""
        if not self._enabled():
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    @contextmanager
    def opaque(self, name: str):
        """One span whose callees are not traced (an evidence-only call)."""
        frame = self._enter(name) if self._enabled() else None
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1
            if frame is not None:
                self._exit(frame)

    @contextmanager
    def suspended(self):
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, name, fn, hook, cache):
        tr = self

        def traced(*args, **kwargs):
            if not tr._enabled():
                return fn(*args, **kwargs)
            before = len(cache.get(args[0], ())) if cache is not None else 0
            frame = tr._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._exit(frame)
            if cache is not None:
                tr.counts[name + ".misses"] += len(cache.get(args[0], ())) - before
            if hook is not None:
                hook(tr, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, sites, hook in WRAPS:
            for module, attr in sites:
                fn = getattr(module, attr)
                self._undo.append((module, attr, fn))
                setattr(module, attr, self._wrapper(name, fn, hook, CACHES.get(name)))
        suites = harness._SUITE_FUNCS
        for token, fn in list(suites.items()):
            self._undo.append((suites, token, fn))
            suites[token] = self._wrapper(f"harness.suite.{token}", fn, None, None)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for target, attr, fn in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = fn
            else:
                setattr(target, attr, fn)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    # A phase is "op:<source>", "query" or "extra"; a selector "op" matches
    # every "op:<source>" phase, "op:walls" only that one.

    def _select(self, table: Counter, prefix: str, phases) -> int:
        return sum(
            v for (phase, name), v in table.items()
            if (phase in phases or phase.split(":")[0] in phases)
            and (name == prefix or name.startswith(prefix + "."))
        )

    def self_s(self, prefix: str, phases=("op", "query", "extra")) -> float:
        """Summed self time of the spans whose name equals or starts with prefix."""
        return self._select(self.self_ns, prefix, phases) / 1e9

    def incl_s(self, name: str, phases=("op",)) -> float:
        """Summed inclusive time of the spans called exactly ``name``."""
        return sum(v for (phase, n), v in self.incl_ns.items()
                   if n == name and (phase in phases or phase.split(":")[0] in phases)) / 1e9

    def n_calls(self, prefix: str, phases=("op", "query", "extra")) -> int:
        return self._select(self.calls, prefix, phases)
