"""Time a change against its parent commit in alternating benchmark pairs.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --workload corpus --parent HEAD~1 --label corpus

The parent commit (``--parent``) is exported with ``git archive`` into a
temporary directory.  Each of the ten pairs runs this tree's own
``perfbench/run.py`` once from that directory and once from the working
tree, alternating which side goes first; ``run.py`` reads the library from
the directory it runs in, so both sides run the same benchmark code on their
own library sources.  Every run lasts ``run_seconds`` from
``BENCHMARK.json``; ten pairs is the fewest the benchmark's gain rule
counts.  The record ``BENCH_<label>.json`` holds every run's
result object and environment line, per end-to-end metric each side's median
and quartiles and the pairs the change won, the commits, seed, run length
and machine.  The temporary directory is removed at the end.

Only the standard library is used.  A pair's two runs share the seed; with
seed 0 or 7919 every operation's output is also checked against the digests
pinned in ``perfbench/pinned.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """Write the files of ``commit`` into ``dest``."""
    data = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                          capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data, check=True)


def run_once(cwd: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run from ``cwd``: its environment line and result."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"benchmark run in {cwd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        sides = {side: [r["result"]["metrics"][name]["value"] for r in runs if r["side"] == side]
                 for side in ("parent", "change")}
        wins = sum(
            (c > p) if direction == "higher" else (c < p)
            for p, c in zip(sides["parent"], sides["change"])
        )
        out[name] = {"better": direction, "parent": spread(sides["parent"]),
                     "change": spread(sides["change"]), "change_wins": wins}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--label", required=True, help="the record is written to BENCH_<label>.json")
    ap.add_argument("--parent", required=True, help="commit to compare the working tree against")
    ap.add_argument("--seed", type=int, default=7919)
    args = ap.parse_args()

    parent = git("rev-parse", args.parent)
    change = {"head": git("rev-parse", "HEAD"),
              "uncommitted": bool(git("status", "--porcelain", "--untracked-files=no"))}
    if parent == change["head"] and not change["uncommitted"]:
        print(f"error: the working tree is {args.parent} itself; name the commit before the change",
              file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export(parent, Path(tmp))
        sides = {"parent": Path(tmp), "change": ROOT}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                got = run_once(sides[side], args.workload, args.seed, seconds)
                runs.append({"pair": i, "side": side, "position": position, **got})
                metrics = got["result"]["metrics"]
                print(f"pair {i} {side}: " + ", ".join(
                    f"{k} {metrics[k]['value']:.4g}" for k in better), flush=True)
    record = {
        "label": args.label,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "parent": parent,
        "change": change,
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over each side's runs",
        "failed": {side: sum(r["result"]["failed"] for r in runs if r["side"] == side)
                   for side in ("parent", "change")},
        "summary": summarize(runs, better),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
