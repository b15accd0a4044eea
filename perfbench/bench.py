"""One workload in one process: set up, run whole rounds, check, report.

Started by ``run.py`` with ``src`` and ``perfbench`` on ``PYTHONPATH``; it
prints an information line and then the result object as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import orbitpieces
from orbitpieces import scott

import workloads as W
from tracer import LAYERS, Tracer

SETUP_REPEATS = 3
SETUP_INTERVAL_S = 5
MIN_ROUNDS = 3
OP_LIMIT_S = 60
ADDRESS_SPACE_BYTES = 2 << 30
PINNED = Path(__file__).with_name("pinned.json")

E2E_UNITS = {
    "setup_s": "s",
    "analyses_per_s": "1/s",
    "analysis_ms_p50": "ms",
    "query_us_p50": "us",
    "query_us_p99": "us",
    "peak_rss_mb": "MB",
}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_LIMIT_S} s")


def install_guards() -> None:
    """Runaway guard for this process only: address-space cap, per-op alarm."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    signal.signal(signal.SIGALRM, _alarm)


def _percentile(values, pct: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = Path(".git") / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    src = hashlib.sha256()
    for path in sorted(Path(orbitpieces.__file__).parent.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def execute(o: W.Op, tracer: Tracer | None = None, op_id: int = 0, check: bool = True):
    """Run one operation and its read phase and digest the output.

    With ``check`` the output is also verified structurally (the digest is
    compared by the caller).  Returns (op latency ns, [query latency ns],
    digest).  Raises on failure.
    """
    if tracer is not None:
        tracer.op_id = op_id
        tracer.phase = f"op:{o.source}"
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        with tracer.span("op") if tracer else nullcontext():
            t0 = time.perf_counter_ns()
            out, table, inst = W.run_op(o)
            t1 = time.perf_counter_ns()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    text = W.canonical_output(o, out, table, inst, check)
    if table is None:
        with tracer.suspended() if tracer else nullcontext():
            table = scott.analyze(inst)
    if tracer is not None:
        # Thread-pool evidence: the same analysis with two workers, timed
        # as one span outside the operation.
        tracer.phase = "extra"
        with tracer.opaque("scott.analyze_workers2"):
            scott.analyze(inst, workers=2)
        tracer.phase = "query"
    digest = hashlib.sha256(text.encode())
    query_ns = []
    for q in W.make_queries(o, table, inst):
        with tracer.span("query") if tracer else nullcontext():
            q0 = time.perf_counter_ns()
            answer = W.run_query(q, table, inst)
            q1 = time.perf_counter_ns()
        query_ns.append(q1 - q0)
        if check:
            W.check_query(q, answer, inst)
        digest.update(W.query_text(q, answer).encode())
    return t1 - t0, query_ns, digest.hexdigest()


def setup(workload: str, seed: int, repeats: int, expect=None):
    """Generate the workload's documents ``repeats`` times.

    Returns (ops, seconds per repeat, fingerprint); every repeat must give the
    same documents as ``expect`` (or as the first repeat).
    """
    times, ops = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        ops = W.WORKLOADS[workload](seed)
        times.append(time.perf_counter() - t0)
        got = [(o.key, o.document, sorted(o.args.items())) for o in ops]
        if expect is None:
            expect = got
        elif got != expect:
            raise RuntimeError("workload generation is not deterministic")
    return ops, times, expect


class Run:
    """Rounds of operations with failure accounting and digest checks.

    Every round runs every operation and its queries once, with the same
    inputs, so latencies are kept per operation (and per query) and each is
    represented by its fastest round.  On a shared machine whose speed drifts
    in episodes of a few seconds, that keeps an episode out of the result
    unless it covers every round of an operation.
    """

    def __init__(self, ops, pinned: dict | None):
        self.ops = ops
        self.pinned = pinned
        self.seen: dict[str, str] = {}
        self.lat: dict[bool, dict] = {False: {}, True: {}}   # traced -> key -> [ns]
        self.qlat: dict[bool, dict] = {False: {}, True: {}}  # traced -> (key, i) -> [ns]
        self.attempted = 0
        self.failed = 0
        self.rounds_done = 0
        self.errors: list[str] = []

    def one(self, o: W.Op, tracer=None) -> None:
        self.attempted += 1
        try:
            lat, qns, digest = execute(o, tracer, self.attempted, o.key not in self.seen)
        except Exception as exc:  # timeouts, MemoryError, failed checks, library errors
            self.failed += 1
            self.errors.append(f"{o.key}: {type(exc).__name__}: {exc}"[:300])
            return
        expected = self.pinned.get(o.key) if self.pinned else None
        first = self.seen.setdefault(o.key, digest)
        if digest != first or (expected is not None and digest != expected):
            self.failed += 1
            self.errors.append(f"{o.key}: digest {digest[:16]} differs from "
                               f"{(expected or first)[:16]}")
            return
        traced = tracer is not None
        self.lat[traced].setdefault(o.key, []).append(lat)
        for i, ns in enumerate(qns):
            self.qlat[traced].setdefault((o.key, i), []).append(ns)

    def round(self, tracer=None) -> None:
        """Every operation once; with a tracer, every operation traced and then
        untraced, back to back, so both runs see the same machine state."""
        for o in self.ops:
            if tracer is not None:
                tracer.install()
                try:
                    self.one(o, tracer)
                finally:
                    tracer.uninstall()
            self.one(o)
        self.rounds_done += 1

    def op_best(self, traced: bool = False) -> dict:
        return {k: min(v) for k, v in self.lat[traced].items()}

    def query_best(self, traced: bool = False) -> list:
        return [min(v) for v in self.qlat[traced].values()]


def run_rounds(run: Run, seconds: float, tracer: Tracer | None, between) -> None:
    """At least MIN_ROUNDS whole rounds (one when traced, since a traced
    round already runs every operation twice), then more while another
    round fits in ``seconds``.  ``between`` runs after every round, outside
    the measured operations.
    """
    start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        enough = run.rounds_done >= (1 if tracer is not None else MIN_ROUNDS)
        if enough and elapsed + longest > seconds:
            return
        run.round(tracer)
        between()
        longest = max(longest, time.perf_counter() - start - elapsed)


def e2e_metrics(run: Run, setup_s: float) -> dict:
    lat_ms = [ns / 1e6 for ns in run.op_best().values()]
    q_us = [ns / 1e3 for ns in run.query_best()]
    values = {
        "setup_s": setup_s,
        "analyses_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "analysis_ms_p50": statistics.median(lat_ms),
        "query_us_p50": statistics.median(q_us),
        "query_us_p99": _percentile(q_us, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def layer_metrics(tr: Tracer, n_ops: int, overhead: float) -> dict:
    op_s = tr.incl_s("op")
    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in ("algebra.group_from_table", "gspace.build_instance", "harness.parse_instance",
                 "saturation.orbit_partition", "scott.analyze", "scott.successor_level",
                 "scott.analyze_workers2", "scott.lookup", "scott.scott_rank",
                 "topology.open_map_check"):
        put(f"{name}.self_s", tr.self_s(name) / n_ops, "s/op")
    put("scott.analyze.incl_s", tr.incl_s("scott.analyze") / n_ops, "s/op")

    for layer in LAYERS:
        put(f"{layer}.share", tr.self_s(layer, ("op",)) / op_s, "frac")
    put("scott.analyze.incl_share", tr.incl_s("scott.analyze") / op_s, "frac")
    put("harness.run_oracles.incl_share", tr.incl_s("harness.run_oracles") / op_s, "frac")
    for token in orbitpieces.SUITES:
        put(f"harness.suite.{token}.incl_share", tr.incl_s(f"harness.suite.{token}") / op_s, "frac")
    put("algebra.all_subgroups.share", tr.incl_s("algebra.all_subgroups") / op_s, "frac")
    put("topology.generate_topology.share", tr.incl_s("topology.generate_topology") / op_s, "frac")

    work = ("op", "query")
    for name in ("algebra.all_subgroups", "saturation.orbit_partition", "saturation.cached_reach",
                 "transforms", "scott.successor_level", "scott.piece_from_decomposition",
                 "topology.generate_topology", "topology.open_map_check"):
        put(f"{name}.calls", tr.n_calls(name, work) / n_ops, "count/op")
    for name in ("saturation.orbit_partition", "saturation.cached_reach"):
        calls = tr.n_calls(name, work)
        misses = tr.counts[name + ".misses"]
        put(f"{name}.hit_ratio", (calls - misses) / calls if calls else 0.0, "frac")
    for name in ("scott.analyze.cells", "scott.analyze.blocks", "scott.analyze.levels",
                 "topology.generate_topology.opens",
                 "classify.invariant_containment_check.checked", "harness.oracle_entries"):
        put(name, tr.counts[name] / n_ops, "count/op")
    put("harness.serialize_analysis.bytes", tr.counts["harness.serialize_analysis.bytes"] / n_ops,
        "B/op")
    put("trace.overhead_frac", overhead, "frac")
    return out


def write_trace(tr: Tracer, workload: str, seed: int) -> str:
    out_dir = Path(".perfbench")
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-{seed}.json"
    agg = [
        {"phase": p, "name": n, "calls": tr.calls[(p, n)], "self_ns": tr.self_ns[(p, n)],
         "incl_ns": tr.incl_ns[(p, n)]}
        for (p, n) in sorted(tr.calls)
    ]
    doc = {
        "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
        "spans": tr.spans,
        "spans_dropped": tr.dropped,
        "aggregates": agg,
        "counts": dict(tr.counts),
    }
    path.write_text(json.dumps(doc))
    return str(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    install_guards()
    # Set-up is repeated at the start and again after the first round that
    # ends SETUP_INTERVAL_S after the last set-up, so its median is taken over
    # samples spread across the whole run without taking much of it.
    ops, setup_times, fingerprint = setup(args.workload, args.seed, SETUP_REPEATS)
    last_setup = time.perf_counter()

    def set_up_again():
        nonlocal last_setup
        if time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
            setup_times.extend(setup(args.workload, args.seed, 1, fingerprint)[1])
            last_setup = time.perf_counter()

    pinned = json.loads(PINNED.read_text()).get(args.workload, {}).get(str(args.seed))
    run = Run(ops, pinned)
    tracer = Tracer() if args.trace else None
    run_rounds(run, args.seconds, tracer, set_up_again)
    setup_s = statistics.median(setup_times)

    info = {"env": environment(args.seed), "workload": args.workload, "rounds": run.rounds_done,
            "ops_per_round": len(ops), "pinned_seed": pinned is not None,
            "samples": {"ops": len(run.lat[False]), "queries": len(run.qlat[False]),
                        "executions": run.attempted}}
    if not run.lat[False] or (tracer is not None and not run.lat[True]):
        print(json.dumps(info, sort_keys=True))
        print(f"error: every operation failed; first errors: {run.errors[:3]}", file=sys.stderr)
        return 1
    if tracer is not None:
        traced, plain = run.op_best(True), run.op_best(False)
        both = [k for k in traced if k in plain]
        overhead = sum(traced[k] for k in both) / sum(plain[k] for k in both) - 1
        n_traced = sum(len(v) for v in run.lat[True].values())
        metrics = layer_metrics(tracer, n_traced, overhead)
        info["trace_file"] = write_trace(tracer, args.workload, args.seed)
    else:
        metrics = e2e_metrics(run, setup_s)
    info["errors"] = run.errors[:20]
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
