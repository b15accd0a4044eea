"""The library names the benchmark's tracer depends on.

``perfbench/bench.py`` imports ``perfbench/tracer.py`` on every run, and the
tracer wraps the names listed in its ``WRAPS`` and reads the saturation caches
at import, so renaming any of them breaks the benchmark.  The tracer file
itself is loaded here, not a copy of its lists.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from orbitpieces.gspace import make_random
from orbitpieces.scott import analyze

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # reads the saturation caches at import
    return module


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
