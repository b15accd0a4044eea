from __future__ import annotations

import random
from itertools import islice

from hypothesis import given, strategies as st

from orbitpieces.bits import bits, is_subset, mask_of, to_list, universe
from test_kernel_reference import ref_bits


def test_mask_of_examples():
    assert mask_of([]) == 0
    assert mask_of([0]) == 1
    assert mask_of([0, 1, 3]) == 0b1011
    assert mask_of([3, 1, 0]) == 0b1011


def test_bits_increasing():
    assert list(bits(0)) == []
    assert list(bits(0b1011)) == [0, 1, 3]


def test_universe():
    assert universe(0) == 0
    assert universe(4) == 0b1111


@given(st.sets(st.integers(min_value=0, max_value=30)))
def test_round_trip(items):
    assert to_list(mask_of(items)) == sorted(items)


@given(st.integers(min_value=0, max_value=2**20), st.integers(min_value=0, max_value=2**20))
def test_subset_matches_set_semantics(a, b):
    assert is_subset(a, b) == set(to_list(a)).issubset(to_list(b))


def _boundary_masks() -> list[int]:
    """Masks on both sides of the byte-table cap at 2^16."""
    rng = random.Random(2016)
    masks = [0, 1, 255, 256, 257, 2**15, 65535, 65536, 65537, 2**17 - 1]
    masks += [rng.getrandbits(w) for w in (15, 16, 17) for _ in range(200)]
    masks += [rng.getrandbits(w) | 1 << (w - 1) for w in (15, 16, 17) for _ in range(200)]
    masks += [rng.getrandbits(1440), (1 << 1440) - 1, 1 << 1439]
    return masks


def test_listers_match_the_reference_across_the_cap():
    for m in _boundary_masks():
        want = ref_bits(m)
        assert to_list(m) == want, m
        assert list(bits(m)) == want, m


def test_to_list_is_fresh():
    # callers may shuffle or extend the list they get
    for m in (0, 5, 300, 65535, 65536, 1 << 100 | 7):
        first = to_list(m)
        first.append(-1)
        first.reverse()
        assert to_list(m) == ref_bits(m), m


def test_negative_masks_walk_as_before():
    # no table answers for a negative mask: it is walked bit by bit, without
    # end, from its lowest set bit
    for m in (-1, -2, -256, -(1 << 20)):
        got = bits(m)
        assert not isinstance(got, tuple), m
        low = (m & -m).bit_length() - 1
        assert list(islice(got, 12)) == list(range(low, low + 12)), m
