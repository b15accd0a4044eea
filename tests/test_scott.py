from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from orbitpieces.bits import is_subset, mask_of, to_list
from orbitpieces.gspace import make_random, named_instance
from orbitpieces.saturation import local_orbit, orbit_partition, reach_sets, reach_stages
from orbitpieces.scott import (
    STABLE,
    analyze,
    pattern_partition,
    piece,
    piece_from_decomposition,
    scott_rank,
    signature,
    stable_partition,
    successor_level,
)

seeds = st.integers(min_value=0, max_value=300)


def test_stable_sentinel_ordering():
    assert repr(STABLE) == "STABLE"
    t = analyze(named_instance("z4pairs"))
    assert t.resolve_level(STABLE) == t.stabilization == 2


@pytest.mark.parametrize("x", [-1, 4])
def test_point_queries_refuse_points_outside_the_space(x):
    # one past the end used to read as an empty set (0, or [0] for the
    # stages) and a negative point failed with a bare "negative shift count"
    inst = named_instance("swapfix")
    t = analyze(inst)
    top_u, top_v = len(inst.basisU) - 1, len(inst.basisV) - 1
    u, v = inst.basisU[top_u], inst.basisV[top_v]
    queries = {
        "local_orbit": lambda: local_orbit(inst, x, u, v),
        "reach_sets": lambda: reach_sets(inst, x, u, v),
        "reach_stages": lambda: reach_stages(inst, x, u, v),
        "piece": lambda: piece(t, x, top_u, top_v, 1),
        "signature": lambda: signature(t, x, top_u, top_v, 1),
        "piece_from_decomposition": lambda: piece_from_decomposition(t, x, top_u, top_v, 1),
    }
    for name, query in queries.items():
        with pytest.raises(ValueError, match=f"^point {x} is not in the space of 4 points$"):
            query()
            pytest.fail(name)


@pytest.mark.parametrize("u_idx, v_idx", [(0, -1), (0, 2), (5, 0), (-1, 1)])
def test_cell_queries_refuse_indices_outside_the_bases(u_idx, v_idx):
    # z4pairs has 5 x 2 cells: (0, -1) used to answer the piece of the last
    # cell, (0, 2) raised an "internal error" and (5, 0) a bare IndexError
    t = analyze(named_instance("z4pairs"))
    if 0 <= u_idx < 5:
        text = f"^V-index {v_idx} is not in range\\(2\\)$"
    else:
        text = f"^U-index {u_idx} is not in range\\(5\\)$"
    queries = {
        "blocks": lambda: t.blocks(u_idx, v_idx, 1),
        "piece": lambda: piece(t, 0, u_idx, v_idx, 1),
        "piece at level 0": lambda: piece(t, 0, u_idx, v_idx, 0),
        "signature": lambda: signature(t, 0, u_idx, v_idx, 1),
        "piece_from_decomposition": lambda: piece_from_decomposition(t, 0, u_idx, v_idx, 1),
    }
    for name, query in queries.items():
        with pytest.raises(ValueError, match=text):
            query()
            pytest.fail(name)


def test_z4self_table_frozen():
    inst = named_instance("z4self")
    t = analyze(inst)
    assert t.stabilization == 1
    assert signature(t, 0, 0, 0, 1).entries == (0, 1, 3, 4)
    assert piece(t, 0, 0, 0, 1) == 0b0011
    assert piece(t, 0, 0, 0, STABLE) == 0b0011
    assert stable_partition(t) == [0b1111]
    assert [scott_rank(t, x) for x in range(4)] == [1, 1, 1, 1]


def test_z4pairs_table_frozen():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    assert t.stabilization == 2
    # the top cell with the {0,2}-neighbourhood is the interesting one: one
    # piece at level 1, split into the even/odd rotation classes at level 2
    assert [mask for _, mask in t.blocks(4, 0, 1)] == [0b1111]
    assert [mask for _, mask in t.blocks(4, 0, 2)] == [0b0101, 0b1010]
    assert [mask for _, mask in t.blocks(4, 0, STABLE)] == [0b0101, 0b1010]
    assert stable_partition(t) == [0b1111]  # cell (4,1) uses the full group
    assert [scott_rank(t, x) for x in range(4)] == [2, 2, 2, 2]
    # all other cells are already stable at level 1 (as point partitions; the
    # ids differ because levels hash different payloads)
    for (n, m) in t.cells:
        if (n, m) != (4, 0):
            assert [mask for _, mask in t.blocks(n, m, 1)] == [
                mask for _, mask in t.blocks(n, m, 2)
            ]


def test_swapfix_strict_collapse():
    inst = named_instance("swapfix")
    t = analyze(inst)
    assert t.stabilization == 1
    assert stable_partition(t) == [0b0011, 0b0100, 0b1000]
    for ci, (n, m) in enumerate(t.cells):
        u, v = inst.basisU[n], inst.basisV[m]
        assert [mask for _, mask in t.levels[0][ci]] == list(orbit_partition(inst, u, v))


def test_piece_level_semantics():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    assert piece(t, 0, 0, 0, 0) == inst.basisU[0]  # level 0 is U itself
    assert piece(t, 0, 4, 0, 99) == piece(t, 0, 4, 0, STABLE)  # clamped
    with pytest.raises(ValueError, match="not in U"):
        piece(t, 2, 0, 0, 1)
    with pytest.raises(ValueError, match="bad level"):
        t.resolve_level(-1)
    with pytest.raises(ValueError, match="bad level"):
        t.resolve_level("stable")
    with pytest.raises(ValueError):
        signature(t, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="levels >= 1"):
        t.blocks(0, 0, 0)


def test_blocks_ordered_by_least_point():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    for lvl in range(1, t.stabilization + 1):
        for ci in range(len(t.cells)):
            lows = [(mask & -mask) for _, mask in t.levels[lvl - 1][ci]]
            assert lows == sorted(lows)


def test_piece_ids_are_content_hashes():
    # two fresh but identical instances produce identical piece ids
    a = analyze(named_instance("z4pairs"))
    b = analyze(named_instance("z4pairs"))
    for ci in range(len(a.cells)):
        for lvl in range(a.stabilization):
            assert a.levels[lvl][ci] == b.levels[lvl][ci]


def test_pattern_partition_matches_top_cell():
    for name in ("z4self", "swapfix", "z4coarse", "z4pairs"):
        inst = named_instance(name)
        t = analyze(inst)
        top = [m for _, m in t.blocks(len(inst.basisU) - 1, len(inst.basisV) - 1, 1)]
        assert top == pattern_partition(inst)


def test_swapfix_pattern_partition_value():
    inst = named_instance("swapfix")
    # orbits {0,1}, {2}, {3} have distinct singleton-membership patterns
    assert pattern_partition(inst) == [0b0011, 0b0100, 0b1000]


def test_decomposition_matches_successor_on_named_instances():
    for name in ("z4self", "swapfix", "z4coarse", "z4pairs"):
        inst = named_instance(name)
        t = analyze(inst)
        for ci, (n, m) in enumerate(t.cells):
            for part in t.cell_orbits[ci]:
                x = (part & -part).bit_length() - 1
                for alpha in range(1, t.stabilization + 2):
                    got = piece_from_decomposition(t, x, n, m, alpha)
                    assert got == piece(t, x, n, m, alpha + 1), (name, n, m, x, alpha)


def test_decomposition_validates_input():
    t = analyze(named_instance("z4self"))
    with pytest.raises(ValueError, match="not in U"):
        piece_from_decomposition(t, 3, 0, 0, 1)
    with pytest.raises(ValueError):
        piece_from_decomposition(t, 0, 0, 0, 0)


def test_extra_successor_level_is_fixed():
    for name in ("z4self", "z4pairs"):
        t = analyze(named_instance(name))
        data, _ = successor_level(
            t.instance, t.cells, t.cell_orbits, t.levels[-1]
        )
        for ci in range(len(t.cells)):
            assert [m for _, m in data[ci]] == [m for _, m in t.levels[-1][ci]]


@settings(max_examples=40, deadline=None)
@given(seeds, st.booleans())
def test_analysis_invariants_on_random_instances(seed, strict):
    inst = make_random(seed, strict=strict)
    t = analyze(inst)
    assert 1 <= t.stabilization <= inst.size * len(inst.basisU) * len(inst.basisV)
    for lvl in range(1, t.stabilization + 1):
        for ci, (n, m) in enumerate(t.cells):
            u = inst.basisU[n]
            union = 0
            for _, mask in t.levels[lvl - 1][ci]:
                assert mask and not mask & union
                union |= mask
            assert union == u
            if lvl > 1:
                coarse = t.levels[lvl - 2][ci]
                for _, mask in t.levels[lvl - 1][ci]:
                    assert any(is_subset(mask, cm) for _, cm in coarse)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_strict_collapse(seed):
    inst = make_random(seed, strict=True)
    t = analyze(inst)
    for ci, (n, m) in enumerate(t.cells):
        parts = list(orbit_partition(inst, inst.basisU[n], inst.basisV[m]))
        for lvl in range(1, t.stabilization + 1):
            assert [mask for _, mask in t.levels[lvl - 1][ci]] == parts


@settings(max_examples=25, deadline=None)
@given(seeds, st.booleans())
def test_ranks_bounded_and_final(seed, strict):
    inst = make_random(seed, strict=strict)
    t = analyze(inst)
    for x in range(inst.size):
        r = scott_rank(t, x)
        assert 1 <= r <= t.stabilization
        # pieces of x are final from rank + 2 on, at every cell containing x
        for (n, m) in t.cells:
            if inst.basisU[n] >> x & 1:
                assert piece(t, x, n, m, r + 2) == piece(t, x, n, m, STABLE)


class _FixedDigest:
    def __init__(self, digest: str):
        self.digest = digest

    def hexdigest(self) -> str:
        return self.digest


def test_piece_id_collision_raises(monkeypatch):
    monkeypatch.setattr(
        "orbitpieces.scott.blake2b", lambda data, digest_size: _FixedDigest("0" * 16)
    )
    with pytest.raises(RuntimeError, match="collision"):
        analyze(named_instance("z4pairs"))


def test_piece_id_collision_within_a_level_raises(monkeypatch):
    # Every level-1 payload hashes as the first one; successor payloads hash
    # truly, so only the check inside the level can see the clash.
    from hashlib import blake2b

    first: list[bytes] = []

    def fake(data: bytes, digest_size: int):
        if data.startswith(b"1|"):
            first[:] = first or [data]
            data = first[0]
        return _FixedDigest(blake2b(data, digest_size=digest_size).hexdigest())

    monkeypatch.setattr("orbitpieces.scott.blake2b", fake)
    with pytest.raises(RuntimeError, match="collision"):
        analyze(named_instance("z4pairs"))


def test_piece_id_collision_across_levels_raises(monkeypatch):
    # Only the first successor payload is given a level-1 id, so the clash is
    # invisible inside any one level.
    from hashlib import blake2b

    level1: list[str] = []
    clashed: list[bytes] = []

    def fake(data: bytes, digest_size: int):
        digest = blake2b(data, digest_size=digest_size).hexdigest()
        if data.startswith(b"1|"):
            level1.append(digest)
        elif not clashed:
            clashed.append(data)
            digest = level1[0]
        return _FixedDigest(digest)

    monkeypatch.setattr("orbitpieces.scott.blake2b", fake)
    with pytest.raises(RuntimeError, match="collision") as exc:
        analyze(named_instance("z4pairs"))
    assert clashed and level1[0] in str(exc.value)


def test_mask_of_helper():
    assert mask_of(to_list(0b1010)) == 0b1010
