"""Subsets of {0, ..., n-1} represented as int bitmasks.

``bits`` and ``to_list`` read a mask below 2^16 from two byte tables (Knuth,
*TAOCP* Vol. 4A, §7.1.3): ``_LO[b]`` holds the set bit positions of the byte
b, ``_HI[b]`` the same positions plus 8.  A wider mask is walked one set bit
at a time, as is a negative one: the guards ``not mask >> 8`` and
``not mask >> 16`` are false for every negative int, so no table answers for
it.  ``tools/bits_micro.py`` times both paths at several widths.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

_LO = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]
_HI = [tuple(i + 8 for i in lo) for lo in _LO]


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


def _walk(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits(mask: int) -> Iterable[int]:
    """The set bit positions of ``mask`` in increasing order, to iterate once.

    Below 2^16 this is a tuple from the byte tables, one shared table entry
    below 2^8; a wider or negative mask gives a generator over its set bits.
    """
    if not mask >> 8:
        return _LO[mask]
    if not mask >> 16:
        return _LO[mask & 255] + _HI[mask >> 8]
    return _walk(mask)


def to_list(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in increasing order, as a fresh list.

    Below 2^16 the list is built from the byte tables.  Wider masks run the
    loop written out rather than drawn from ``bits``: the set kernels list
    each operand once per call, and a generator costs a frame resume per
    element.
    """
    if not mask >> 8:
        return [*_LO[mask]]
    if not mask >> 16:
        return [*_LO[mask & 255], *_HI[mask >> 8]]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def image_mask(row, pts: list[int]) -> int:
    """The mask {row[x] : x in pts}: the image of listed points under one table row.

    The set kernels list an operand once with ``to_list`` and call this once
    per group element.
    """
    m = 0
    for x in pts:
        m |= 1 << row[x]
    return m


def union_over(rows, mask: int) -> int:
    """The OR of ``rows[p]`` over the members p of ``mask``.

    With ``rows`` a per-point image table this is the image of the whole set,
    one OR per member.
    """
    m = 0
    while mask:
        low = mask & -mask
        m |= rows[low.bit_length() - 1]
        mask ^= low
    return m


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def universe(n: int) -> int:
    """The full subset of an n-element ground set."""
    return (1 << n) - 1
