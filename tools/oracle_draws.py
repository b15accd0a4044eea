"""Digest every oracle suite's log and random draws on a fixed slice of instances.

Run from the root of a checkout, with the library sources to test first on
the path:

    PYTHONPATH=src python3 tools/oracle_draws.py            # tier-1 slice
    PYTHONPATH=src python3 tools/oracle_draws.py --large    # larger slice

For each instance × seed × trials of the slice, every suite runs alone on a
fresh context, reseeded as ``run_oracles`` reseeds it.  The suite's log, in
the order its entries were appended, and the state of its generator after it
are hashed into that suite's digest.  One line per suite is printed,
``<suite> <sha256>``, so two trees whose outputs differ name the suites that
draw or check differently.  A last line, ``instances <sha256>``, hashes the
``serialize_instance`` document of every instance of the slice, so a change
to how instances are built shows apart from the suites.

The state after a suite catches an added, dropped or resized draw; the log
catches a reorder in a suite that logs entries.  A pure reorder of draws in
a suite whose log stays empty leaves both unchanged.

Only the standard library and the package are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from orbitpieces import harness
from orbitpieces.gspace import NAMED_INSTANCES, make_random, named_instance
from orbitpieces.scott import analyze

SEEDS = (0, 3)
TRIALS = (4, 16)


def instances(large: bool = False):
    """The slice: the named instances and ``make_random`` 0-15 and strict 0-7,
    or with ``large`` ``make_random`` 0-199 and strict 0-99."""
    if not large:
        yield from (named_instance(key) for key in NAMED_INSTANCES)
    yield from (make_random(s) for s in range(200 if large else 16))
    yield from (make_random(s, strict=True) for s in range(100 if large else 8))


def digests(large: bool = False) -> dict[str, str]:
    """The digest of every suite over the slice, keyed by suite token, and of
    the slice's instance documents, keyed ``instances``."""
    hashes = {token: hashlib.sha256() for token in harness.SUITES}
    documents = hashlib.sha256()
    for inst in instances(large):
        documents.update(harness.serialize_instance(inst).encode())
        table = analyze(inst)
        for seed in SEEDS:
            for trials in TRIALS:
                for token, h in hashes.items():
                    ctx = harness._Ctx(inst, table, seed, trials)
                    ctx.reseed(token)
                    harness._SUITE_FUNCS[token](ctx)
                    h.update(json.dumps(ctx.entries, sort_keys=True).encode())
                    h.update(repr(ctx.rng.getstate()).encode())
    return {token: h.hexdigest() for token, h in hashes.items()} | {
        "instances": documents.hexdigest()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--large", action="store_true",
                        help="make_random 0-199 and strict 0-99 instead of the tier-1 slice")
    args = parser.parse_args(argv)
    for token, digest in digests(args.large).items():
        print(token, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
