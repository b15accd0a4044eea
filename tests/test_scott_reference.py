"""The piece engine against its per-cell reference.

The engine keys each distinct local orbit once per level by an exact integer
set of previous-level blocks, hashes ids only for stored levels, detects the
fixpoint by block counts, and memoises ``scott_rank`` per orbit without
scanning the stable level.  The references below build every orbit
occurrence's sorted triples by scanning all blocks of all cells, hash every
level, compare whole mask lists, and scan every level up to the stable one;
tables and ranks must agree exactly.
"""

from __future__ import annotations

import random
from hashlib import blake2b
from itertools import islice

import pytest

from orbitpieces import harness, scott
from orbitpieces.algebra import (
    conjugate,
    cyclic_group,
    group_from_generators,
    subgroup_closure,
    symmetric_closure,
)
from orbitpieces.bits import bits, is_subset, mask_of
from orbitpieces.gspace import (
    build_instance,
    make_coset_action,
    make_cyclic_self,
    make_random,
    orbit,
    translate_set,
)
from orbitpieces.saturation import orbit_partition, reach_sets, saturate_by_parts
from orbitpieces.scott import (
    Signature,
    analyze,
    scott_rank,
    successor_level,
)

from test_acceptance import GOLDEN


def _encode_level1(indices: tuple[int, ...]) -> str:
    return "1|" + ",".join(map(str, indices))


def _encode_successor(triples) -> str:
    return "s|" + ";".join(f"{n},{m},{pid}" for (n, m, pid) in triples)


def _group_blocks(labelled) -> list[tuple[str, int]]:
    merged: dict[str, int] = {}
    for pid, mask in labelled:
        merged[pid] = merged.get(pid, 0) | mask
    out = list(merged.items())
    out.sort(key=lambda pm: pm[1] & -pm[1])
    return out


def _ref_label_cells(cell_orbits, key_of, encode):
    ids: dict[tuple, str] = {}
    keys: dict[str, tuple] = {}
    data = []
    for parts in cell_orbits:
        labelled = []
        for part in parts:
            key = key_of(part)
            pid = ids.get(key)
            if pid is None:
                pid = blake2b(encode(key).encode(), digest_size=8).hexdigest()
                if pid in keys:
                    raise RuntimeError(f"piece-id hash collision on {pid}")
                ids[key] = pid
                keys[pid] = key
            labelled.append((pid, part))
        data.append(_group_blocks(labelled))
    return data, keys


def _ref_successor_level(cells, cell_orbits, prev_level):
    def triples_of(part: int) -> tuple:
        triples = []
        for cj, (n2, m2) in enumerate(cells):
            for pid, mask in prev_level[cj]:
                if part & mask:
                    triples.append((n2, m2, pid))
        triples.sort()
        return tuple(triples)

    return _ref_label_cells(cell_orbits, triples_of, _encode_successor)


def _ref_same_partitions(a, b) -> bool:
    for ca, cb in zip(a, b):
        if [m for _, m in ca] != [m for _, m in cb]:
            return False
    return True


def _ref_analyze(inst):
    """(levels, signatures) of the reference engine."""
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    cells = tuple((n, m) for n in range(len(membersU)) for m in range(len(membersV)))
    cell_orbits = tuple(orbit_partition(inst, membersU[n], membersV[m]) for (n, m) in cells)

    def indices_of(part: int) -> tuple:
        return tuple(l for l, ul in enumerate(membersU) if part & ul)

    data, keys = _ref_label_cells(cell_orbits, indices_of, _encode_level1)
    signatures = {pid: Signature(1, key) for pid, key in keys.items()}
    levels = [data]
    while True:
        data, keys = _ref_successor_level(cells, cell_orbits, levels[-1])
        for pid in keys:
            if pid in signatures:
                raise RuntimeError(f"piece-id hash collision on {pid}")
        if _ref_same_partitions(data, levels[-1]):
            break
        for pid, key in keys.items():
            signatures[pid] = Signature(len(levels) + 1, tuple((p, n, m) for (n, m, p) in key))
        levels.append(data)
    return levels, signatures


def _ref_scott_rank(table, x: int) -> int:
    orb = orbit(table.instance, x)
    stable = table.levels[table.stabilization - 1]
    for gamma in range(1, table.stabilization + 1):
        data = table.levels[gamma - 1]
        ok = True
        for ci in range(len(table.cells)):
            stable_blocks = stable[ci]
            for _, mask in data[ci]:
                trace = mask & orb
                if not trace:
                    continue
                low = trace & -trace
                for _, smask in stable_blocks:
                    if smask & low:
                        if trace & ~smask:
                            ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return gamma
    return table.stabilization


# (n, interval lengths, neighbourhood generators) of ten Z/n self-actions with
# 3-4 interval windows and 2 neighbourhood seeds, 129-171 cells each, all
# stabilizing at level 2: the engine's widest everyday tables.
WIDE_SHAPES = [
    (14, (2, 6, 7), (1, 2)),
    (14, (2, 4, 5), (2, 7)),
    (14, (2, 3, 5, 6), (1, 6)),
    (14, (3, 5, 6), (2, 5)),
    (14, (4, 5, 6), (2, 7)),
    (14, (2, 3, 4, 6), (1, 6)),
    (15, (3, 6, 7), (1, 3)),
    (16, (2, 4, 7), (3, 6)),
    (16, (2, 5, 6), (2, 8)),
    (16, (2, 4, 8), (4, 6)),
]


def _wide_corpus():
    for i, (n, lengths, gens) in enumerate(WIDE_SHAPES):
        rng = random.Random(f"wide{i}")
        g = cyclic_group(n)
        act = [[(a + x) % n for x in range(n)] for a in range(n)]
        seedsU = []
        for k in lengths:
            start = rng.randrange(n)
            seedsU.append(mask_of((start + j) % n for j in range(k)))
        seedsV = [symmetric_closure(1 << a, g) for a in gens]
        yield f"wide{i}z{n}", build_instance(g, n, act, seedsU, seedsV, "exploratory")


def _corpus():
    yield from GOLDEN.items()  # z10l3 among them
    for s in range(32):
        yield f"random{s}", make_random(s)
    for s in range(16):
        yield f"strict{s}", make_random(s, strict=True)
    yield "z12self", make_cyclic_self(12)
    # Z/16 with three interval windows: 363 orbit occurrences, 107 distinct
    g = cyclic_group(16)
    act = [[(a + x) % 16 for x in range(16)] for a in range(16)]
    seedsU = [mask_of(range(0, 2)), mask_of(range(3, 8)), mask_of(range(7, 13))]
    seedsV = [symmetric_closure(1 << 2, g), symmetric_closure(1 << 8, g)]
    yield "z16windows", build_instance(g, 16, act, seedsU, seedsV, "exploratory")
    yield from _wide_corpus()
    s5 = group_from_generators([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    # elements 1 and 2 are the generators: a transposition and a 5-cycle
    yield "s5c60", make_coset_action(s5, subgroup_closure(1 << 1, s5))
    yield "s5c24", make_coset_action(s5, subgroup_closure(1 << 2, s5))


def test_analyze_matches_the_per_cell_reference():
    for key, inst in _corpus():
        t = analyze(inst)
        levels, signatures = _ref_analyze(inst)
        assert t.levels == levels, key
        assert t.signatures == signatures, key
        assert t.stabilization == len(levels), key


def test_wide_tables_have_their_stated_shape():
    for key, inst in _wide_corpus():
        t = analyze(inst)
        assert 129 <= len(t.cells) <= 171 and t.stabilization == 2, key


def _counting_hash(monkeypatch, digest_of=None):
    """Route the engine's hash through a counter; ``digest_of(payload)``
    overrides the id of a payload when it returns one."""
    payloads = []

    class Hash:
        def __init__(self, data, digest_size):
            payloads.append(data.decode())
            self._id = digest_of(data.decode()) if digest_of else None
            self._real = blake2b(data, digest_size=digest_size)

        def hexdigest(self):
            return self._id or self._real.hexdigest()

    monkeypatch.setattr(scott, "blake2b", Hash)
    return payloads


def test_only_stored_levels_are_hashed(monkeypatch):
    payloads = _counting_hash(monkeypatch)
    for key, inst in [*GOLDEN.items(), *islice(_wide_corpus(), 2)]:
        payloads.clear()
        t = analyze(inst)
        # once per distinct key of a stored level; the check level hashes nothing
        assert len(payloads) == len(set(payloads)) == len(t.signatures), key


def test_a_collision_within_a_stored_level_raises(monkeypatch):
    inst = GOLDEN["z10l3"]
    t = analyze(inst)
    _counting_hash(monkeypatch, lambda payload: "0" * 16)
    with pytest.raises(RuntimeError, match="collision on 0000000000000000"):
        analyze(inst)
    with pytest.raises(RuntimeError, match="collision on 0000000000000000"):
        successor_level(inst, t.cells, t.cell_orbits, t.levels[0])


def test_a_collision_with_an_earlier_level_raises(monkeypatch):
    inst = GOLDEN["z10l3"]
    level1 = next(iter(analyze(inst).signatures))
    successors = []

    def digest_of(payload):
        # the first successor payload is given the id of a level-1 piece
        if payload[0] == "s":
            successors.append(payload)
            return level1 if len(successors) == 1 else None
        return None

    _counting_hash(monkeypatch, digest_of)
    with pytest.raises(RuntimeError, match=f"collision on {level1}"):
        analyze(inst)


def test_successor_level_matches_the_per_cell_reference():
    for key, inst in GOLDEN.items():
        t = analyze(inst)
        for prev in t.levels:
            got = successor_level(inst, t.cells, t.cell_orbits, prev)
            assert got == _ref_successor_level(t.cells, t.cell_orbits, prev), key


RANK_CASES = {
    **GOLDEN,  # the named instances and z10l3 among them
    **{f"random{s}": make_random(s) for s in range(32)},
    **{f"strict{s}": make_random(s, strict=True) for s in range(16)},
}


@pytest.mark.parametrize("key", RANK_CASES)
def test_scott_rank_matches_the_full_scan(key):
    inst = RANK_CASES[key]
    t = analyze(inst)
    points = list(range(inst.size))
    random.Random(key).shuffle(points)
    fresh = {x: _ref_scott_rank(t, x) for x in points}
    for _ in range(2):  # the second pass answers from the per-orbit memo
        assert {x: scott_rank(t, x) for x in points} == fresh
    assert set(t._caches["rank"]) == {orbit(inst, x) for x in points}
    ranks = [fresh[x] for x in range(inst.size)]
    if key in ("random1", "random4", "random5", "random7"):
        # stabilization 2 with points already final at level 1
        assert t.stabilization == 2 and 1 in ranks
    if key == "z10l3":
        assert t.stabilization == 3 and ranks == [3] * inst.size


# ---------------------------------------------------------------------------
# the successor-piece decomposition
#
# The engine's ``piece_from_decomposition`` builds each cell's candidate
# pairs (U_j = hU_i, cells over m) once per table, memoises each orbit's hit
# blocks and the (X∖U_n)-padded part per level, and ORs per U_i before ORing
# over the subsets of each U_n.  The reference is the earlier per-call form: it rebuilds the candidate
# set of every U_n from the reach sets, and evaluates hit blocks lazily;
# ``memo`` holds its per-table index maps and reach sets common to each U_i.


def _ref_decomp_tables(inst):
    membersU = inst.basisU.members
    order = inst.group.order
    t_u = [[inst.basisU.index(translate_set(inst, u, g)) for g in range(order)]
           for u in membersU]
    c_v = [[inst.basisV.index(conjugate(v, g, inst.group)) for g in range(order)]
           for v in inst.basisV.members]
    subsets = [[i for i, ui in enumerate(membersU) if is_subset(ui, un)] for un in membersU]
    return t_u, c_v, subsets


def _ref_piece_from_decomposition(table, x: int, u_idx: int, v_idx: int, level, memo: dict) -> int:
    inst = table.instance
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    u = membersU[u_idx]
    v = membersV[v_idx]
    if not u >> x & 1:
        raise ValueError(f"point {x} is not in U_{u_idx}")
    lvl = table.resolve_level(level)
    if lvl < 1:
        raise ValueError("the decomposition needs level >= 1")
    data = table.levels[lvl - 1]
    if not memo:
        memo["tables"] = _ref_decomp_tables(inst)
    t_u, c_v, subsets = memo["tables"]
    common_reach = memo.setdefault("reach", {})

    reach = reach_sets(inst, x, u, v)
    orb = 0
    for g in bits(reach):
        orb |= 1 << inst.act[g][x]

    hits: dict[int, int] = {}

    def blocks_hit(ci: int) -> int:
        got = hits.get(ci)
        if got is None:
            got = 0
            for _, mask in data[ci]:
                if mask & orb:
                    got |= mask
            hits[ci] = got
        return got

    n_v = len(membersV)
    full = inst.full_points
    result = full
    for n, un in enumerate(membersU):
        candidates: set[tuple[int, int]] = set()  # (U-index of hU_i, h)
        for i in subsets[n]:
            key = (u_idx, v_idx, i)
            ru = common_reach.get(key)
            if ru is None:
                ru = inst.group.full
                for t in bits(membersU[i]):
                    ru &= reach_sets(inst, t, u, v)
                common_reach[key] = ru
            row = t_u[i]
            for h in bits(ru):
                j = row[h]
                if membersU[j] & orb:
                    candidates.add((j, h))
        for m in range(n_v):
            second = (full & ~un) | blocks_hit(n * n_v + m)
            result &= second
            if candidates:
                first = 0
                for j, h in candidates:
                    first |= blocks_hit(j * n_v + c_v[m][h])
                result &= first
    return result


def _small_corpus():
    yield from GOLDEN.items()  # the named instances and z10l3 among them
    for s in range(32):
        yield f"random{s}", make_random(s)
    for s in range(16):
        yield f"strict{s}", make_random(s, strict=True)


def _decomposition_corpus():
    yield from _small_corpus()
    yield from _wide_corpus()


def _check_packed_hits(table):
    # Every V-index is ANDed into the result, but part (b) makes each field
    # alone give the same result: a point of the result in a candidate's hit
    # field for V-index m lies in that candidate's U_j, and part (b) puts it
    # in the hit blocks of every cell (j, m'), so in the field of every m'.
    # No instance can show a field packed at the wrong offset through the
    # results (none did on make_random 0-1999, exploratory and strict, or on
    # 400 make_product pairs): read the fields back directly.
    inst = table.instance
    full, width = inst.full_points, inst.size
    for (lvl, orb), (packed, _) in table._caches["hits"].items():
        for cells, p in packed.items():
            for ci in cells:
                want = 0
                for _, mask in table.levels[lvl - 1][ci]:
                    if mask & orb:
                        want |= mask
                assert p & full == want
                p >>= width
            assert p == 0


def test_piece_from_decomposition_matches_the_per_call_reference():
    calls = 0
    moved = set()  # instances where conjugating some V_m moves its index
    for key, inst in _decomposition_corpus():
        t = analyze(inst)
        memo: dict = {}
        c_v = _ref_decomp_tables(inst)[1]
        if any(row[h] != m for m, row in enumerate(c_v) for h in range(len(row))):
            moved.add(key)
        for ci, (n, m) in enumerate(t.cells):
            for part in t.cell_orbits[ci]:
                x = (part & -part).bit_length() - 1
                for alpha in range(1, t.stabilization + 2):
                    want = _ref_piece_from_decomposition(t, x, n, m, alpha, memo)
                    assert scott.piece_from_decomposition(t, x, n, m, alpha) == want, (
                        key, x, n, m, alpha)
                    calls += 1
        _check_packed_hits(t)
    assert calls > 14000
    # the packed hit masks are laid out by V-index, so the instances whose
    # candidate cell tuples are permuted must be among those compared
    assert {"random7", "random8", "random11", "random13"} <= moved


# The ``phar`` suite's successor agreement applies the intersection formula
# over the distinct saturations of a level's distinct block masks.  The
# reference is the earlier loop over every (cell, block) pair, which ANDs a
# recurring saturation in once per occurrence.


def _ref_successor_formula(inst, data, parts, u: int, v: int) -> list[int]:
    full = inst.full_points
    sat_cache: dict[tuple[int, int], int] = {}
    got: dict[int, int] = {}
    for part in parts:
        b = u
        for cj in range(len(data)):
            for _, mask in data[cj]:
                key = (cj, mask)
                s = sat_cache.get(key)
                if s is None:
                    s = saturate_by_parts(inst, mask, u, v)
                    sat_cache[key] = s
                b &= s if part & s else full & ~s
        got[b] = got.get(b, 0) | part
    return sorted(got.values(), key=lambda m2: m2 & -m2)


def test_successor_formula_matches_the_per_block_loop():
    cells = 0
    for key, inst in _small_corpus():
        t = analyze(inst)
        for lvl in range(1, t.stabilization + 1):
            data = t.levels[lvl - 1]
            for ci, (n, m) in enumerate(t.cells):
                u, v = inst.basisU[n], inst.basisV[m]
                parts = t.cell_orbits[ci]
                want = _ref_successor_formula(inst, data, parts, u, v)
                assert harness._successor_formula(inst, data, parts, u, v) == want, (key, lvl, n, m)
                cells += 1
    assert cells > 1000
