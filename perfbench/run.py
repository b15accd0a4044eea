"""Benchmark entry point for orbitpieces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

The workload runs in a process of its own (``bench.py``) with an address-space
limit and a per-operation time limit; this process only checks the tree,
starts it, waits for it and passes its exit code on.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "wide")
CHILD_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if not (src / "orbitpieces" / "__init__.py").is_file():
        print(f"error: no orbitpieces sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: workload process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
