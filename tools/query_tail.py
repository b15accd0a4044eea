"""Where the point-query tail of one benchmark workload sits, by query kind.

Run from the root of a checkout:

    python3 tools/query_tail.py --workload wide --seed 0 --rounds 5

The rounds run in this process through ``perfbench/workloads.py``, as
``perfbench/bench.py`` runs them but without its guards, tracer and digests:
each operation's timed region (``run_op``), then its seeded point queries,
each timed alone.  Every query keeps its fastest round, as the benchmark's
``query_us_p50`` and ``query_us_p99`` do.  The tool prints those two
percentiles and how many of the slowest 2% of queries each kind makes up.
``--src`` imports the library from another checkout's ``src`` directory
while the workload code stays this tree's, so two commits can be compared on
the same queries.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL = 0.02


def query_best(W, scott, workload: str, seed: int, rounds: int) -> dict:
    """{(op key, query index): (kind, fastest ns)} over ``rounds`` whole rounds."""
    ops = W.WORKLOADS[workload](seed)
    best: dict = {}
    for _ in range(rounds):
        for o in ops:
            _, table, inst = W.run_op(o)
            if table is None:  # a report keeps no table; the benchmark analyzes it untimed
                table = scott.analyze(inst)
            for i, q in enumerate(W.make_queries(o, table, inst)):
                t0 = time.perf_counter_ns()
                W.run_query(q, table, inst)
                ns = time.perf_counter_ns() - t0
                key = (o.key, i)
                if key not in best or ns < best[key][1]:
                    best[key] = (q[0], ns)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the directory the orbitpieces package is imported from")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sys.path[:0] = [str(args.src), str(ROOT / "perfbench")]
    import workloads as W
    from orbitpieces import scott

    if args.workload not in W.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(W.WORKLOADS)}")

    best = query_best(W, scott, args.workload, args.seed, args.rounds)
    slowest = sorted(((ns / 1e3, kind) for kind, ns in best.values()), reverse=True)
    us = [u for u, _ in slowest]
    p99 = statistics.quantiles(us, n=100, method="inclusive")[98]
    tail = slowest[:max(1, round(len(slowest) * TAIL))]
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds, {len(us)} queries: "
          f"p50 {statistics.median(us):.2f} us, p99 {p99:.2f} us")
    print(f"slowest {TAIL:.0%}: {len(tail)} queries, {tail[-1][0]:.2f}-{tail[0][0]:.2f} us")
    for kind, n in Counter(kind for _, kind in tail).most_common():
        print(f"  {kind:<16} {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
