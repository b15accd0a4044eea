from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from orbitpieces.bits import is_subset, to_list, universe
from orbitpieces.gspace import NAMED_INSTANCES, make_random, named_instance, orbit
from orbitpieces.scott import STABLE, analyze, piece
from orbitpieces.topology import (
    generate_topology,
    minimal_neighborhood,
    open_map_check,
    refined_family,
    refined_space,
    relative_pieces,
)

seeds = st.integers(min_value=0, max_value=200)


def test_generate_topology_small():
    ground = 0b1111
    topo = generate_topology(ground, [0b0011, 0b0110])
    # minimal neighbourhoods: N(0)={0,1}, N(1)={1}, N(2)={1,2}, N(3)=ground
    assert topo.opens == frozenset(
        {0, 0b0010, 0b0011, 0b0110, 0b0111, 0b1111}
    )
    assert topo.is_open(0b0010)
    assert not topo.is_open(0b0001)
    assert not topo.is_open(0b0100)


def test_generate_topology_relativizes_subbasis():
    topo = generate_topology(0b0011, [0b0110])
    # the subbasis member is cut down to the ground first
    assert sorted(topo.opens) == [0, 0b0010, 0b0011]


def test_minimal_neighborhood_defaults_to_ground():
    assert minimal_neighborhood(0b0111, [0b0011], 2) == 0b0111
    assert minimal_neighborhood(0b0111, [0b0011], 0) == 0b0011


def test_refined_family_frozen_z4pairs():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    fam = refined_family(t, 0, 3)
    assert [to_list(s) for s in fam] == [
        [0, 1], [2, 3], [1, 2], [0, 3], [0, 1, 2, 3],
        [0], [1], [2], [3],
        [0, 2], [1, 3],
    ]
    # the level argument is capped at the stabilization, so deeper requests
    # (or the STABLE sentinel) add nothing new
    assert refined_family(t, 0, 9) == fam
    assert refined_family(t, 0, STABLE) == fam
    with pytest.raises(ValueError, match="level"):
        refined_family(t, 0, 0)


def test_refined_family_level_one_is_just_the_u_family():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    assert refined_family(t, 0, 1) == list(inst.basisU.members)


def test_refined_space_and_openmap_z4self():
    inst = named_instance("z4self")
    t = analyze(inst)
    ground, topo = refined_space(t, 0, 3)
    assert ground == 0b1111
    assert len(topo.opens) == 16  # discrete: level-1 pieces are singletons
    ok, witness = open_map_check(t, 0, 3)
    assert ok and witness is None


@pytest.mark.parametrize("key", [*NAMED_INSTANCES, 0, 4, 7, 11])
def test_open_map_memo_matches_a_fresh_table(key):
    # One warm table answers every point of an orbit from the entry its first
    # point stored; each answer must equal a cold table's.
    inst = named_instance(key) if isinstance(key, str) else make_random(key)
    t = analyze(inst)
    for x in range(inst.size):
        for alpha in [*range(1, t.stabilization + 3), STABLE]:
            assert open_map_check(t, x, alpha) == open_map_check(analyze(inst), x, alpha)


def test_open_map_memo_shares_stable_and_deep_levels():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    assert orbit(inst, 0) == inst.full_points
    for x in range(inst.size):
        open_map_check(t, x, STABLE)
        for alpha in range(t.stabilization + 1, t.stabilization + 4):
            open_map_check(t, x, alpha)
    assert len(t._caches["openmap"]) == 1
    # one entry per piece level 0..stabilization collected below α
    for x in range(inst.size):
        for alpha in range(1, t.stabilization + 1):
            open_map_check(t, x, alpha)
    assert len(t._caches["openmap"]) == t.stabilization + 1
    with pytest.raises(ValueError, match="level"):
        open_map_check(t, 0, 0)


def test_refined_space_z4coarse_is_indiscrete():
    inst = named_instance("z4coarse")
    t = analyze(inst)
    ground, topo = refined_space(t, 0, 3)
    assert ground == 0b1111
    assert topo.opens == frozenset({0, 0b1111})
    ok, witness = open_map_check(t, 0, 3)
    assert not ok and witness == 0


def test_relative_pieces_z4pairs():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    rel = relative_pieces(t, 0, 3, 2, 0, 4, 0)
    assert rel.ground == 0b1111
    assert rel.d_parent == 0b0101  # even rotation class B_2(0, {0,1}-cell)
    assert rel.d_index == 8
    assert rel.to_parent(rel.sub_instance.basisU[rel.d_index]) == 0b0101
    # the level-offset identity the re-analysis is for: pieces of the parent
    # from level alpha on match pieces of the subspace from level 1 on
    for y in to_list(rel.d_parent):
        ys = rel.to_sub_point(y)
        assert rel.to_parent(1 << ys) == 1 << y
        for beta in (0, 1, 2):
            lhs = piece(t, y, 4, 0, 3 + beta)
            rhs = rel.to_parent(piece(rel.sub_table, ys, rel.d_index, 0, beta + 1))
            assert lhs == rhs
        assert piece(t, y, 4, 0, STABLE) == rel.to_parent(
            piece(rel.sub_table, ys, rel.d_index, 0, STABLE)
        )


def test_relative_pieces_distinguished_full():
    # with gamma = 1 the distinguished set is the whole ground, which lives
    # at the appended full member of the sub family
    inst = named_instance("z4pairs")
    t = analyze(inst)
    rel = relative_pieces(t, 0, 3, 1, 0, 4, 0)
    assert rel.d_parent == rel.ground == 0b1111
    assert rel.d_index == len(rel.sub_instance.basisU) - 1
    assert [to_list(rel.to_parent(u)) for u in rel.sub_instance.basisU.members] == [
        [0, 1], [2, 3], [1, 2], [0, 3],
        [0], [1], [2], [3],
        [0, 2], [1, 3],
        [0, 1, 2, 3],
    ]


def test_relative_pieces_validation():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    with pytest.raises(ValueError, match="gamma"):
        relative_pieces(t, 0, 2, 2, 0, 4, 0)
    with pytest.raises(ValueError, match="gamma"):
        relative_pieces(t, 0, 2, 0, 0, 4, 0)
    with pytest.raises(ValueError, match="x2"):
        relative_pieces(t, 0, 3, 1, 2, 0, 0)  # 2 is not in U_0 = {0,1}


def test_sub_family_is_the_relativized_refined_family():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    rel = relative_pieces(t, 0, 3, 2, 0, 4, 0)
    expected = []
    seen = set()
    for s in refined_family(t, 0, 3):
        trace = s & rel.ground
        if trace == 0 or trace == rel.ground or trace in seen:
            continue
        seen.add(trace)
        expected.append(trace)
    got = [rel.to_parent(u) for u in rel.sub_instance.basisU.members[:-1]]
    assert got == expected
    assert rel.to_parent(rel.sub_instance.basisU.members[-1]) == rel.ground


@settings(max_examples=25, deadline=None)
@given(seeds, st.data())
def test_minimal_neighborhoods_generate_the_topology(seed, data):
    inst = make_random(seed)
    t = analyze(inst)
    x = data.draw(st.integers(min_value=0, max_value=inst.size - 1))
    alpha = data.draw(st.integers(min_value=1, max_value=t.stabilization + 1))
    ground, topo = refined_space(t, x, alpha)
    fam = refined_family(t, x, alpha)
    for s in topo.opens:
        assert is_subset(s, ground)
        # every open is the union of the minimal neighbourhoods of its points
        rebuilt = 0
        for y in to_list(s):
            n = minimal_neighborhood(ground, fam, y)
            assert is_subset(n, s)
            rebuilt |= n
        assert rebuilt == s
    # is_open reads the minimal neighbourhoods; it must agree with the
    # enumerated opens on every subset of the ground and reject a set that
    # reaches outside it
    sub = ground
    while True:
        assert topo.is_open(sub) == (sub in topo.opens)
        if not sub:
            break
        sub = (sub - 1) & ground
    outside = ground | (1 << inst.size)
    assert not topo.is_open(outside) and outside not in topo.opens
    # the enumerated opens form a topology
    assert {0, ground} <= topo.opens
    for a in topo.opens:
        for b in topo.opens:
            assert a | b in topo.opens and a & b in topo.opens


def test_large_discrete_topology_is_not_enumerated():
    # 2^48 open sets: equality and openness must come from the minimal
    # neighbourhoods alone
    ground = universe(48)
    topo = generate_topology(ground, [1 << y for y in range(48)])
    assert topo == generate_topology(ground, [1 << y for y in range(48)])
    assert topo != generate_topology(ground, [1 << y for y in range(47)])
    assert topo.is_open(0b1010) and topo.is_open(ground)
    assert not topo.is_open(1 << 48)
    coarse = generate_topology(ground, [0b11])
    assert coarse.is_open(0b11) and not coarse.is_open(0b1)
    assert "opens" not in vars(topo) and "opens" not in vars(coarse)


@settings(max_examples=25, deadline=None)
@given(seeds, st.data())
def test_open_map_matches_minimal_neighborhood_singletons(seed, data):
    inst = make_random(seed)
    t = analyze(inst)
    x = data.draw(st.integers(min_value=0, max_value=inst.size - 1))
    alpha = data.draw(st.integers(min_value=1, max_value=t.stabilization + 2))
    ok, witness = open_map_check(t, x, alpha)
    fam = refined_family(t, x, alpha)
    orb = orbit(inst, x)
    failing = [
        y for y in to_list(orb) if minimal_neighborhood(orb, fam, y) != 1 << y
    ]
    if ok:
        assert witness is None and not failing
    else:
        assert witness == failing[0]
