"""Record the SHA-256 digest of every operation's canonical output.

Run from the repository root:

    python3 perfbench/pin.py

It runs each operation of every workload once, for the default seed and the
held-out seed, and rewrites ``perfbench/pinned.json``.  A timed run on one of
these seeds then counts an operation whose digest differs as failed.  Re-pin
only when a change is meant to alter outputs, and say so in its description.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

import bench  # noqa: E402
import workloads as W  # noqa: E402

SEEDS = (0, 7919)  # default seed, held-out seed


def main() -> int:
    bench.install_guards()
    pinned: dict = {}
    for name, make in W.WORKLOADS.items():
        for seed in SEEDS:
            digests = {}
            for o in make(seed):
                _lat, _q, digests[o.key] = bench.execute(o)
            pinned.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} operations", flush=True)
    bench.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
