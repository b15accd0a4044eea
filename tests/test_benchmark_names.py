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
import subprocess
import sys
from pathlib import Path

from orbitpieces import harness
from orbitpieces.gspace import make_random
from orbitpieces.saturation import cached_reach
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
    # the tracer counts a miss as growth of cache.get(instance): each view
    # reads 0 on a fresh instance and grows with the calls it is named for
    tracer = _load_tracer()
    spans = {span for span, _, _ in tracer.WRAPS}
    assert set(tracer.CACHES) == {"saturation.orbit_partition", "saturation.cached_reach"}
    assert set(tracer.CACHES) <= spans
    inst = make_random(7)

    def sizes():
        return {name: len(cache.get(inst, ())) for name, cache in tracer.CACHES.items()}

    assert sizes() == {"saturation.orbit_partition": 0, "saturation.cached_reach": 0}
    analyze(inst)
    after_analyze = sizes()
    assert after_analyze["saturation.orbit_partition"] > 0
    cached_reach(inst, 0, inst.full_points, inst.group.full)
    assert sizes()["saturation.cached_reach"] > after_analyze["saturation.cached_reach"]


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


def test_query_tail_reads_one_wide_round():
    # tools/query_tail.py runs the workloads' own operations and queries
    tool = PERFBENCH.parent / "tools" / "query_tail.py"
    proc = subprocess.run([sys.executable, str(tool), "--workload", "wide", "--rounds", "1"],
                          capture_output=True, text=True, timeout=120, check=True)
    head, tail, *kinds = proc.stdout.splitlines()
    assert head.startswith("wide seed 0, 1 rounds, ") and " p99 " in head
    n_tail = int(tail.split()[2])
    counts = {line.split()[0]: int(line.split()[1]) for line in kinds}
    assert set(counts) <= {"piece", "signature", "local_orbit", "scott_rank", "open_map_check"}
    assert sum(counts.values()) == n_tail > 0
