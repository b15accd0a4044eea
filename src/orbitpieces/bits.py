"""Subsets of {0, ..., n-1} represented as int bitmasks."""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_list(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in increasing order, as a list.

    The loop is written out rather than drawn from ``bits``: the set kernels
    list each operand once per call, and a generator costs a frame resume
    per element.
    """
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
