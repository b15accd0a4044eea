from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from orbitpieces.algebra import cyclic_group, symmetric_group_3
from orbitpieces.bits import to_list, universe
from orbitpieces.gspace import (
    InstanceError,
    NAMED_INSTANCES,
    build_instance,
    instance_from_families,
    make_coset_action,
    make_cyclic_self,
    make_product,
    make_random,
    make_swap_fix,
    named_instance,
    orbit,
    translate_set,
)


def test_z4self_families_frozen():
    inst = named_instance("z4self")
    assert [to_list(u) for u in inst.basisU.members] == [
        [0, 1], [1, 2], [2, 3], [0, 3], [0, 1, 2, 3],
    ]
    assert [to_list(v) for v in inst.basisV.members] == [[0, 1, 3], [0, 1, 2, 3]]
    assert inst.mode == "exploratory"


def test_z4pairs_families_frozen():
    inst = named_instance("z4pairs")
    assert [to_list(u) for u in inst.basisU.members] == [
        [0, 1], [2, 3], [1, 2], [0, 3], [0, 1, 2, 3],
    ]
    assert [to_list(v) for v in inst.basisV.members] == [[0, 2], [0, 1, 2, 3]]


def test_z4coarse_has_trivial_u_family():
    inst = named_instance("z4coarse")
    assert inst.basisU.members == (0b1111,)


def test_swapfix_is_strict():
    inst = make_swap_fix()
    assert inst.mode == "strict"
    assert inst.act == ((0, 1, 2, 3), (1, 0, 2, 3))
    # singletons present, identity neighbourhood present
    for x in range(4):
        assert 1 << x in inst.basisU.members
    assert 1 in inst.basisV.members


def test_named_instance_unknown():
    with pytest.raises(InstanceError, match="unknown instance name"):
        named_instance("nope")
    assert set(NAMED_INSTANCES) == {"z4self", "swapfix", "z4coarse", "z4pairs"}


def test_translate_and_orbit():
    inst = named_instance("z4self")
    assert translate_set(inst, 0b0011, 1) == 0b0110
    assert orbit(inst, 2) == 0b1111
    sw = make_swap_fix()
    assert orbit(sw, 0) == 0b0011
    assert orbit(sw, 3) == 0b1000


def test_action_validation_messages():
    g = cyclic_group(2)
    with pytest.raises(InstanceError, match="is not a permutation"):
        build_instance(g, 2, [[0, 1], [0, 0]], [], [], "exploratory")
    with pytest.raises(InstanceError, match="identity element does not act"):
        build_instance(g, 2, [[1, 0], [0, 1]], [], [], "exploratory")
    with pytest.raises(InstanceError, match="not compatible with the group"):
        # rows are permutations but (gh)x = g(hx) fails
        build_instance(cyclic_group(4), 3, [[0, 1, 2], [1, 2, 0], [1, 0, 2], [2, 0, 1]],
                       [], [], "exploratory")
    with pytest.raises(InstanceError, match="at least one point"):
        build_instance(g, 0, [], [], [], "exploratory")
    with pytest.raises(InstanceError, match="unknown mode"):
        build_instance(g, 2, [[0, 1], [1, 0]], [], [], "loose")


def test_strict_mode_requirements():
    g = cyclic_group(2)
    act = [[0, 1], [1, 0]]
    # seeds are bitmasks: {0} closes to {{0},{1}} under translation, but a
    # seeded {0,1} alone has no singletons at all
    with pytest.raises(InstanceError, match="singleton"):
        build_instance(g, 2, act, [0b11], [0b01], "strict")
    ok = build_instance(g, 2, act, [0b01], [0b01], "strict")
    assert ok.mode == "strict"
    assert ok.basisV.members == (0b01, 0b11)
    # and {identity} must be a V-member, not merely identity-containing sets
    with pytest.raises(InstanceError, match="identity"):
        instance_from_families(
            g, 2, act, [1, 2, 3], [0b11], "strict"
        )


def test_point_family_closure_is_translation_closed():
    inst = named_instance("z4self")
    for u in inst.basisU.members:
        for h in range(4):
            assert translate_set(inst, u, h) in inst.basisU.members


def test_instance_from_families_validation():
    g = cyclic_group(2)
    act = [[0, 1], [1, 0]]
    with pytest.raises(InstanceError, match="full point set"):
        instance_from_families(g, 2, act, [1], [1, 3], "exploratory")
    with pytest.raises(InstanceError, match="full group"):
        instance_from_families(g, 2, act, [3], [1], "exploratory")
    with pytest.raises(InstanceError, match="duplicate-free"):
        instance_from_families(g, 2, act, [1, 1, 3], [1, 3], "exploratory")
    # strict U-families must be translation-closed: {0,1} on Z/3 moves to {1,2}
    g3 = cyclic_group(3)
    act3 = [[(i + x) % 3 for x in range(3)] for i in range(3)]
    with pytest.raises(RuntimeError, match="translation"):
        instance_from_families(g3, 3, act3, [1, 2, 4, 3, 7], [1, 7], "strict")
    ok = instance_from_families(g3, 3, act3, [1, 2, 4, 3, 6, 5, 7], [1, 7], "strict")
    assert ok.basisU.members == (1, 2, 4, 3, 6, 5, 7)


def test_make_coset_action_is_transitive():
    g = symmetric_group_3()
    sub = 0b000011  # an order-2 subgroup
    inst = make_coset_action(g, sub)
    assert inst.size == 3
    assert orbit(inst, 0) == universe(3)
    assert inst.mode == "strict"
    with pytest.raises(InstanceError, match="not a subgroup"):
        make_coset_action(g, 0b000110)


def test_make_product_shapes():
    a = named_instance("z4self")
    b = make_swap_fix()
    p = make_product(a, b)
    assert p.size == 8
    assert p.group.order == 8
    assert p.mode == "exploratory"  # strict only when both factors are strict
    assert p.basisU.members[-1] == universe(8)
    # the left factor's orbit structure survives on the embedded copy
    assert orbit(p, 0) & universe(4) == orbit(a, 0)


def test_make_cyclic_self_sizes():
    for n in (2, 3, 6):
        inst = make_cyclic_self(n)
        assert inst.size == n
        assert inst.group.order == n
        assert orbit(inst, 0) == universe(n)


def test_make_random_is_deterministic():
    for seed in (0, 7, 23):
        a = make_random(seed)
        b = make_random(seed)
        assert a.group.mul == b.group.mul
        assert a.act == b.act
        assert a.basisU.members == b.basisU.members
        assert a.basisV.members == b.basisV.members
    assert make_random(0).name == "random0"
    assert make_random(0, strict=True).name == "strict0"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_make_random_respects_caps(seed, strict):
    inst = make_random(seed, strict=strict)
    assert inst.group.order <= 8
    assert inst.size <= (8 if strict else 12)
    assert len(inst.basisU) <= 24
    assert len(inst.basisV) <= 6
    assert inst.mode == ("strict" if strict else "exploratory")
    # families closed and well-formed by construction
    for u in inst.basisU.members:
        for h in range(inst.group.order):
            assert translate_set(inst, u, h) in inst.basisU.members
