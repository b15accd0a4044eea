"""The library names and calls the benchmark depends on.

``perfbench/bench.py`` imports ``perfbench/tracer.py`` on every run, and the
tracer wraps the names listed in its ``WRAPS`` and reads the saturation caches
at import, so renaming any of them breaks the benchmark.  The workloads in
``perfbench/workloads.py`` build their inputs with the library's templates
and call it with fixed arguments, so removing one of those breaks it too.
Both files are loaded here, not copies of their lists or calls.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from orbitpieces import harness
from orbitpieces.gspace import make_random
from orbitpieces.scott import analyze

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")  # reads the saturation caches at import


def test_tracer_wraps_resolve_to_callables():
    tracer = _load_tracer()
    assert tracer.WRAPS
    for span, targets, _ in tracer.WRAPS:
        for module, attr in targets:
            assert callable(getattr(module, attr, None)), (span, module.__name__, attr)


def test_tracer_caches_are_read_per_instance():
    tracer = _load_tracer()
    spans = {span for span, _, _ in tracer.WRAPS}
    inst = make_random(7)
    analyze(inst)
    assert tracer.CACHES
    for name, cache in tracer.CACHES.items():
        # the tracer counts a miss as growth of cache.get(instance)
        assert name in spans
        assert len(cache.get(inst, ())) >= 0


def test_analyze_accepts_the_benchmark_workers_keyword():
    inst = make_random(7)
    assert analyze(inst, workers=2).levels == analyze(inst).levels


def test_the_workloads_build_and_call_the_library():
    w = _load("workloads")
    corpus, wide = w.corpus(0), w.wide(0)
    assert {o.kind for o in corpus} == {"report"}
    assert {o.kind for o in wide} == {"wide", "claschar", "topology"}
    # a signature answer goes through Signature.canonical()
    o = next(o for o in wide if o.kind == "wide")
    inst = harness.parse_instance(o.document)
    table = analyze(inst)
    q = next(q for q in w.make_queries(o, table, inst) if q[0] == "signature")
    sig = w.run_query(q, table, inst)
    assert str(sig.entries) in w.query_text(q, sig)
    # the claschar call, on a corpus document small enough to run here
    small = w.Op("small", "claschar", "corpus", corpus[0].document, {"seed": 1})
    report, _table, _inst = w.run_op(small)
    assert set(report["conditions"]) == {
        "eventually_open", "invariant_containment", "orbit_equals_final_piece", "open_map"}
