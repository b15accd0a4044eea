"""Nanoseconds per call of byte-table bit listing against the bit walk.

Run from the root of a checkout:

    python3 tools/bits_micro.py --repeat 5

``orbitpieces.bits`` lists a mask below 2^16 from two byte tables and walks
a wider one a set bit at a time.  For each width (8, 12, 16, 17, 24, 60 and
1,440 bits) and density (the chance that a bit below the top one is set;
the top bit always is), the tool times three forms of ``to_list`` (a fresh
list) and of ``bits`` (iterated once):

- ``walk``: the reference loop, one ``mask & -mask`` per set bit;
- ``table``: the byte tables extended to the width, one table per byte of
  the mask, unrolled up to four bytes.  Below 2^16 this is the library's
  form, so the 17- and 24-bit rows show what a wider cap would give;
- ``lib``: the library's own function, with its guard.

Each figure is the best of ``--repeat`` timings, in ns per call.  Every form
is first checked against the walk on every mask; a mismatch prints an
``error:`` line and exits 1.  The last line names the widths at which the
table form beats the walk at every density.  Only the standard library is
used; the library is imported from this tree's ``src``.
"""

from __future__ import annotations

import argparse
import random
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orbitpieces.bits import bits, to_list  # noqa: E402

WIDTHS = (8, 12, 16, 17, 24, 60, 1440)
DENSITIES = (0.1, 0.5, 0.9)
MASKS = 64


def walk_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def walk_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def table_forms(nbytes: int):
    """(to_list, bits) reading one offset table per byte of an nbytes-byte mask."""
    tables = [[tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256)]
              for k in range(nbytes)]
    if nbytes == 1:
        (t0,) = tables
        return (lambda m: [*t0[m]]), (lambda m: t0[m])
    if nbytes == 2:
        t0, t1 = tables
        return ((lambda m: [*t0[m & 255], *t1[m >> 8]]),
                (lambda m: t0[m & 255] + t1[m >> 8]))
    if nbytes == 3:
        t0, t1, t2 = tables
        return ((lambda m: [*t0[m & 255], *t1[m >> 8 & 255], *t2[m >> 16]]),
                (lambda m: t0[m & 255] + t1[m >> 8 & 255] + t2[m >> 16]))
    if nbytes == 4:
        t0, t1, t2, t3 = tables
        return ((lambda m: [*t0[m & 255], *t1[m >> 8 & 255], *t2[m >> 16 & 255], *t3[m >> 24]]),
                (lambda m: t0[m & 255] + t1[m >> 8 & 255] + t2[m >> 16 & 255] + t3[m >> 24]))

    def as_list(m):
        return [p for t, b in zip(tables, m.to_bytes(nbytes, "little")) for p in t[b]]

    return as_list, as_list


def masks_of(width: int, density: float, rng: random.Random) -> list[int]:
    top = 1 << (width - 1)
    return [top | sum(1 << i for i in range(width - 1) if rng.random() < density)
            for _ in range(MASKS)]


def ns_per_call(fn, masks: list[int], iterate: bool, repeat: int, number: int) -> float:
    if iterate:
        def run():
            for m in masks:
                for _ in fn(m):
                    pass
    else:
        def run():
            for m in masks:
                fn(m)
    return min(timeit.repeat(run, number=number, repeat=repeat)) / (number * len(masks)) * 1e9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="timings per figure; the best is kept")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.repeat < 1:
        print("error: --repeat must be at least 1", file=sys.stderr)
        return 1
    rng = random.Random(args.seed)
    print(f"{'width':>5} {'density':>7}  to_list: {'walk':>8} {'table':>8} {'lib':>8}"
          f"   bits: {'walk':>8} {'table':>8} {'lib':>8}   (ns per call)")
    table_wins = []
    for width in WIDTHS:
        t_list, t_bits = table_forms((width + 7) // 8)
        number = max(1, 4096 // width)
        wins = True
        for density in DENSITIES:
            masks = masks_of(width, density, rng)
            forms = {"to_list": (walk_list, t_list, to_list), "bits": (walk_bits, t_bits, bits)}
            row = []
            for kind, fns in forms.items():
                for fn in fns[1:]:
                    bad = next((m for m in masks if list(fn(m)) != walk_list(m)), None)
                    if bad is not None:
                        print(f"error: {kind} form {fn.__name__} differs from the walk on {bad:#x}",
                              file=sys.stderr)
                        return 1
                times = [ns_per_call(fn, masks, kind == "bits", args.repeat, number) for fn in fns]
                wins = wins and times[1] < times[0]
                row.append(" ".join(f"{t:8.1f}" for t in times))
            print(f"{width:5d} {density:7.2f}  to_list: {row[0]}   bits: {row[1]}")
        if wins:
            table_wins.append(width)
    print("table beats walk at every density at widths:", " ".join(map(str, table_wins)) or "none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
