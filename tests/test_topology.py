from __future__ import annotations

import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from orbitpieces.bits import is_subset, mask_of, to_list, universe
from orbitpieces import gspace
from orbitpieces.gspace import NAMED_INSTANCES, InstanceError, make_random, named_instance, orbit
from orbitpieces.scott import STABLE, analyze, piece, scott_rank
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
    with pytest.raises(ValueError, match="refined families need level >= 1"):
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


@pytest.mark.parametrize("level", ["2", 2.5, "x", None])
def test_refined_levels_refuse_what_a_piece_lookup_refuses(level):
    # a level that is neither an int nor STABLE is refused, not read as STABLE
    t = analyze(named_instance("z4pairs"))
    for query in (refined_family, refined_space, open_map_check):
        with pytest.raises(ValueError, match="bad level"):
            query(t, 0, level)
    with pytest.raises(ValueError, match="bad level"):
        t.resolve_level(level)


@pytest.mark.parametrize("x", [-1, 4])
def test_points_outside_the_instance_are_refused(x):
    # -1 used to read the last point's orbit, so swapfix answered for point 3,
    # and 4 raised a bare IndexError
    inst = named_instance("swapfix")
    t = analyze(inst)
    assert inst.size == 4
    for query in (
        lambda: orbit(inst, x),
        lambda: scott_rank(t, x),
        lambda: open_map_check(t, x, 2),
        lambda: refined_family(t, x, 2),
    ):
        with pytest.raises(ValueError, match=f"point {x} is not in the space of 4 points"):
            query()
    with pytest.raises(ValueError):
        refined_space(t, x, 2)


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


def test_relative_pieces_always_finds_the_distinguished_set():
    # the docstring's proof that D is a sub-family member, on seeded draws
    rng = random.Random("relative-d")
    insts = [named_instance(k) for k in NAMED_INSTANCES]
    insts += [make_random(s, strict=strict) for s in range(64) for strict in (False, True)]
    for inst in insts:
        t = analyze(inst)
        for _ in range(30):
            x = rng.randrange(inst.size)
            orb = orbit(inst, x)
            u_idx = rng.choice([n for n, u in enumerate(inst.basisU) if u & orb])
            x2 = rng.choice(to_list(orb & inst.basisU[u_idx]))
            alpha = rng.randrange(2, t.stabilization + 3)
            rel = relative_pieces(t, x, alpha, rng.randrange(1, alpha), x2, u_idx,
                                  rng.randrange(len(inst.basisV)))
            assert rel.to_parent(rel.sub_instance.basisU[rel.d_index]) == rel.d_parent
            assert rel.d_parent >> x2 & 1


def test_relative_pieces_validation():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    with pytest.raises(ValueError, match="gamma"):
        relative_pieces(t, 0, 2, 2, 0, 4, 0)
    with pytest.raises(ValueError, match="gamma"):
        relative_pieces(t, 0, 2, 0, 0, 4, 0)
    with pytest.raises(ValueError, match="x2"):
        relative_pieces(t, 0, 3, 1, 2, 0, 0)  # 2 is not in U_0 = {0,1}


@pytest.mark.parametrize("x2", [-1, 4])
def test_relative_pieces_refuses_x2_outside_the_space(x2):
    # x2 = -1 used to fail with a bare "negative shift count"
    t = analyze(named_instance("z4pairs"))
    with pytest.raises(ValueError, match=f"^point {x2} is not in the space of 4 points$"):
        relative_pieces(t, 0, 2, 1, x2, 4, 1)


def test_relative_pieces_refuses_cell_indices_outside_the_bases():
    # u_idx = 5 used to fail with a bare IndexError on z4pairs' 5 x 2 cells
    t = analyze(named_instance("z4pairs"))
    with pytest.raises(ValueError, match=r"^U-index 5 is not in range\(5\)$"):
        relative_pieces(t, 0, 2, 1, 0, 5, 1)
    with pytest.raises(ValueError, match=r"^V-index 2 is not in range\(2\)$"):
        relative_pieces(t, 0, 2, 1, 0, 4, 2)


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


def test_relative_pieces_refuses_more_than_max_cells(monkeypatch):
    # the refined family outgrows the parent's: 27 U-members and 3 V-members
    # (81 cells) against the parent's 11 and 3 (33 cells)
    table = analyze(make_random(1))
    assert len(relative_pieces(table, 0, 3, 1, 1, 1, 0).sub_instance.basisU) == 27
    monkeypatch.setattr(gspace, "MAX_CELLS", 80)
    with pytest.raises(InstanceError, match="27 U-members and 3 V-members, 81 cells; at most 80"):
        relative_pieces(table, 0, 3, 1, 1, 1, 0)


def _doubling_opens(topo) -> frozenset[int]:
    """The opens by the doubling closure over the distinct neighbourhoods,
    the reference the listed view is compared against."""
    opens = {0, topo.ground}
    for n in set(topo.minimal):
        opens |= {o | n for o in opens}
    return frozenset(opens)


def _random_topologies(count: int):
    rng = random.Random("topology:opens-view")
    for _ in range(count):
        ground = mask_of(rng.sample(range(16), rng.randint(0, 14)))
        family = [rng.getrandbits(16) for _ in range(rng.randint(0, 5))]
        yield generate_topology(ground, family)


def _named_refined_topologies():
    for key in NAMED_INSTANCES:
        t = analyze(named_instance(key))
        for x in range(t.instance.size):
            for alpha in [*range(1, t.stabilization + 2), STABLE]:
                yield refined_space(t, x, alpha)[1]


def test_opens_view_matches_the_doubling_closure():
    topologies = [*_random_topologies(300), *_named_refined_topologies()]
    assert max(t.ground.bit_count() for t in topologies) == 14
    for topo in topologies:
        ref = _doubling_opens(topo)
        view = topo.opens
        listed = list(view)
        assert listed == sorted(ref)
        assert all(a < b for a, b in zip(listed, listed[1:]))
        assert len(view) == len(ref) == len(listed)
        ground = topo.ground
        sub = ground
        while True:
            assert (sub in view) == (sub in ref)
            if not sub:
                break
            sub = (sub - 1) & ground
        # only non-negative ints are members: 0.0 == 0 and 0 is open
        for value in (-1, -1 - ground, ground | 1 << 16, 0.0, "0", None, []):
            assert value not in view
        assert view == ref and ref == view and not view != ref
        assert view <= ref and ref <= view and view >= ref and ref >= view
        smaller = ref - {max(ref)}
        assert smaller < view and view > smaller and smaller <= view
        assert not view <= smaller and view != smaller and smaller != view
        assert view & smaller == smaller and view - smaller == {max(ref)}


def test_opens_view_holds_one_chunk_while_listing():
    # 2^16 opens; the frozenset the doubling closure built peaked at 8 MB
    topo = generate_topology(universe(16), [1 << y for y in range(16)])
    tracemalloc.start()
    try:
        count = sum(1 for _ in topo.opens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1 << 16
    assert peak < 1 << 20


def test_opens_view_keeps_no_reference_to_its_topology():
    topo = generate_topology(0b111, [0b1])
    view = topo.opens
    assert topo.opens is view
    ref = weakref.ref(topo)
    gc.disable()
    try:
        del topo
        assert ref() is None
    finally:
        gc.enable()
    assert list(view) == [0, 0b1, 0b111]
