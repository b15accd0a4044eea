from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from orbitpieces.algebra import all_subgroups
from orbitpieces.bits import bits, is_subset
from orbitpieces.gspace import make_random, named_instance, translate_set
from orbitpieces.saturation import reach_sets, saturate
from orbitpieces.transforms import (
    delta,
    local_delta,
    local_delta_n,
    local_star,
    local_star_n,
    star,
)

seeds = st.integers(min_value=0, max_value=400)
masks = st.integers(min_value=0, max_value=(1 << 12) - 1)


def brute_delta(inst, a: int, h: int) -> int:
    """x is in A^{delta H} iff some g in H moves x into A."""
    out = 0
    for x in range(inst.size):
        if any(a >> inst.act[g][x] & 1 for g in bits(h)):
            out |= 1 << x
    return out


def brute_star(inst, a: int, h: int) -> int:
    out = 0
    for x in range(inst.size):
        if all(a >> inst.act[g][x] & 1 for g in bits(h)):
            out |= 1 << x
    return out


def test_empty_element_set_is_an_error():
    inst = named_instance("z4self")
    with pytest.raises(ValueError, match="empty"):
        delta(inst, 0b1111, 0)
    with pytest.raises(ValueError, match="empty"):
        star(inst, 0b1111, 0)


def test_local_transforms_need_identity():
    inst = named_instance("z4self")
    u = inst.basisU[0]
    for fn in (local_delta, local_star):
        with pytest.raises(ValueError, match="identity"):
            fn(inst, 0b0011, u, 0b0010)
    for fn in (local_delta_n, local_star_n):
        with pytest.raises(ValueError, match="identity"):
            fn(inst, 0b0011, u, 0b0010, 1)
        with pytest.raises(ValueError, match="stage"):
            fn(inst, 0b0011, u, 0b0011, 0)


def test_global_transform_examples():
    inst = named_instance("z4self")
    # H = {+1}: delta pulls A back by one step, star likewise
    assert delta(inst, 0b0010, 0b0010) == 0b0001
    assert star(inst, 0b0110, 0b0010) == 0b0011
    # H = whole group: delta is the orbit saturation, star the invariant core
    assert delta(inst, 0b0010, 0b1111) == 0b1111
    assert star(inst, 0b0111, 0b1111) == 0


@settings(max_examples=60, deadline=None)
@given(seeds, masks, st.integers(min_value=1, max_value=255))
def test_global_transforms_match_brute_force(seed, a, h):
    inst = make_random(seed)
    a &= inst.full_points
    h &= inst.group.full
    if not h:
        h = 1
    assert delta(inst, a, h) == brute_delta(inst, a, h)
    assert star(inst, a, h) == brute_star(inst, a, h)


@settings(max_examples=40, deadline=None)
@given(seeds, masks)
def test_subgroup_delta_is_group_image(seed, a):
    inst = make_random(seed)
    a &= inst.full_points
    for k in all_subgroups(inst.group):
        img = 0
        for g in bits(k):
            img |= translate_set(inst, a, g)
        assert delta(inst, a, k) == img


@settings(max_examples=50, deadline=None)
@given(seeds, masks, st.data())
def test_stagewise_transforms_match_reach(seed, a, data):
    inst = make_random(seed)
    n = data.draw(st.integers(min_value=0, max_value=len(inst.basisU) - 1))
    m = data.draw(st.integers(min_value=0, max_value=len(inst.basisV) - 1))
    u, v = inst.basisU[n], inst.basisV[m]
    a &= inst.full_points
    for stage in (1, 2, 3):
        d = local_delta_n(inst, a, u, v, stage)
        s = local_star_n(inst, a, u, v, stage)
        assert is_subset(d, u) and is_subset(s, u)
        for x in bits(u):
            r = reach_sets(inst, x, u, v, stage)
            assert bool(d >> x & 1) == bool(delta(inst, a, r) >> x & 1)
            assert bool(s >> x & 1) == bool(star(inst, a, r) >> x & 1)


@settings(max_examples=50, deadline=None)
@given(seeds, masks, st.data())
def test_limit_transforms_are_fixpoints(seed, a, data):
    inst = make_random(seed)
    n = data.draw(st.integers(min_value=0, max_value=len(inst.basisU) - 1))
    m = data.draw(st.integers(min_value=0, max_value=len(inst.basisV) - 1))
    u, v = inst.basisU[n], inst.basisV[m]
    a &= inst.full_points
    ld = local_delta(inst, a, u, v)
    ls = local_star(inst, a, u, v)
    # the limits appear among the finite stages and then stay put
    stages_d = [local_delta_n(inst, a, u, v, i) for i in range(1, inst.size + 2)]
    stages_s = [local_star_n(inst, a, u, v, i) for i in range(1, inst.size + 2)]
    assert stages_d[-1] == ld
    assert stages_s[-1] == ls
    for i in range(len(stages_d) - 1):
        assert is_subset(stages_d[i], stages_d[i + 1])
        assert is_subset(stages_s[i + 1], stages_s[i])


@settings(max_examples=50, deadline=None)
@given(seeds, masks, masks, st.data())
def test_duality_and_lattice_laws(seed, a, b, data):
    inst = make_random(seed)
    n = data.draw(st.integers(min_value=0, max_value=len(inst.basisU) - 1))
    m = data.draw(st.integers(min_value=0, max_value=len(inst.basisV) - 1))
    u, v = inst.basisU[n], inst.basisV[m]
    a &= inst.full_points
    b &= inst.full_points
    assert local_delta(inst, u & ~a, u, v) == u & ~local_star(inst, a, u, v)
    assert local_delta(inst, a | b, u, v) == local_delta(inst, a, u, v) | local_delta(inst, b, u, v)
    assert local_star(inst, a & b, u, v) == local_star(inst, a, u, v) & local_star(inst, b, u, v)
    # sandwich between the star and the saturation
    assert is_subset(local_star(inst, a, u, v), local_delta(inst, a, u, v))
    assert is_subset(local_delta(inst, a, u, v), saturate(inst, a, u, v))


@settings(max_examples=50, deadline=None)
@given(seeds, masks, st.data())
def test_saturation_equals_limit_delta(seed, a, data):
    # in the finite discrete setting the limit delta of any set is its
    # saturation; the suites re-check this on hypothesis-shaped inputs too
    inst = make_random(seed)
    n = data.draw(st.integers(min_value=0, max_value=len(inst.basisU) - 1))
    m = data.draw(st.integers(min_value=0, max_value=len(inst.basisV) - 1))
    u, v = inst.basisU[n], inst.basisV[m]
    a &= inst.full_points
    assert local_delta(inst, a, u, v) == saturate(inst, a, u, v)


def test_invariant_sets_pass_through():
    inst = named_instance("z4pairs")
    u, v = inst.basisU[4], inst.basisV[0]
    a = saturate(inst, 0b0001, u, v)
    assert local_delta(inst, a, u, v) == a
    assert local_star(inst, a, u, v) == a


def test_stage_transforms_stop_at_the_limit():
    # the stage loops end once two stages agree, so a huge stage costs no
    # more than the limit instead of 10^9 rounds
    inst = make_random(5)
    for u in inst.basisU:
        for v in inst.basisV:
            a = u & 0b1010101010
            assert local_delta_n(inst, a, u, v, 10**9) == local_delta(inst, a, u, v)
            assert local_star_n(inst, a, u, v, 10**9) == local_star(inst, a, u, v)
