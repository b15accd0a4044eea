"""The piece engine against its per-cell reference.

The engine keys each distinct local orbit once per level by an exact integer
set of previous-level blocks, hashes ids only for stored levels, detects the
fixpoint by block counts, and keeps each level's point keys, off which
``scott_rank`` (memoised per orbit) and ``open_map_check`` are read by bit
counts and key containment.  The references below build every orbit
occurrence's sorted triples by scanning all blocks of all cells, hash every
level, compare whole mask lists, scan every block of every level against the
stable one for the rank, and intersect the refined family's members for the
open-map verdict; tables, ranks and verdicts must agree exactly.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError
from hashlib import blake2b
from itertools import chain, islice

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
    instance_from_families,
    make_coset_action,
    make_cyclic_self,
    make_random,
    orbit,
    translate_set,
)
from orbitpieces.saturation import orbit_partition, reach_sets, saturate_by_parts
from orbitpieces.scott import (
    STABLE,
    Signature,
    analyze,
    scott_rank,
    successor_level,
)
from orbitpieces.topology import minimal_neighborhood, open_map_check, refined_family

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


def _counting_decode(monkeypatch):
    """Route the engine's signature decoding through a counter of its keys."""
    keys = []
    decode = scott._decode

    def counted(key, items):
        keys.append(key)
        return decode(key, items)

    monkeypatch.setattr(scott, "_decode", counted)
    return keys


def test_analyze_decodes_no_signature(monkeypatch):
    decoded = _counting_decode(monkeypatch)
    for key, inst in GOLDEN.items():
        assert analyze(inst).signatures and not decoded, key


def test_entries_are_decoded_once_on_first_read(monkeypatch):
    decoded = _counting_decode(monkeypatch)
    t = analyze(GOLDEN["z10l3"])
    assert {sig.level for sig in t.signatures.values()} == {1, 2, 3}
    for pid, sig in t.signatures.items():
        before = len(decoded)
        entries = sig.entries
        assert len(decoded) == before + 1, pid
        assert sig.entries is entries and len(decoded) == before + 1, pid


def test_a_stored_signature_is_its_level_and_entries():
    inst = GOLDEN["z10l3"]
    _, eager = _ref_analyze(inst)
    for pid, sig in analyze(inst).signatures.items():
        # hashed before anything reads its entries, then compared both ways
        assert hash(sig) == hash(eager[pid]) == hash((eager[pid].level, eager[pid].entries)), pid
        assert sig == eager[pid] and eager[pid] == sig and {sig: pid}[eager[pid]] == pid
        assert sig != Signature(sig.level + 1, sig.entries)
        assert repr(sig) == f"Signature(level={sig.level}, entries={eager[pid].entries!r})"
        for name in ("level", "entries", "_entries"):
            with pytest.raises(AttributeError):
                setattr(sig, name, None)
        for s in (sig, eager[pid]):
            assert s != (s.level, s.entries)  # another type: __eq__ declines
            with pytest.raises(FrozenInstanceError):
                del s.level
            for name in ("level", "entries", "_entries"):
                with pytest.raises(FrozenInstanceError):
                    setattr(s, name, None)


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
# the point keys that ``scott_rank`` and ``open_map_check`` read
#
# Both proofs rest on the stored keys: level 0 holds U-membership, and above
# each point has one bit per cell whose U holds it, the bit of the block that
# holds it.  The checks below rebuild that from ``t.levels`` in (cell, pid)
# order, and compare both queries with the full scan and with the refined
# family's minimal neighbourhoods on families that are not translation-closed,
# where keys on one orbit can differ in width.


def _check_point_keys(t):
    inst = t.instance
    membersU = inst.basisU.members
    assert len(t.point_keys) == t.stabilization + 1
    assert t.point_keys[0] == [
        sum(1 << l for l, u in enumerate(membersU) if u >> p & 1) for p in range(inst.size)
    ]
    for beta in range(1, t.stabilization + 1):
        keys = t.point_keys[beta]
        start = 0
        for (n, _), blocks in zip(t.cells, t.levels[beta - 1]):
            masks = [mask for _, mask in sorted(blocks)]
            for p in range(inst.size):
                held = [mask for i, mask in enumerate(masks) if keys[p] >> (start + i) & 1]
                assert len(held) == membersU[n] >> p & 1
                assert all(mask >> p & 1 for mask in held)
            start += len(masks)
        assert all(key >> start == 0 for key in keys)


def _z_n(n):
    return cyclic_group(n), [[(a + x) % n for x in range(n)] for a in range(n)]


NON_CLOSED_SEEDS = 60


def _non_closed(seed):
    """Z/n, 3 ≤ n ≤ 8, with 1-4 random U-members and 0-2 symmetric
    V-members, taken verbatim: the U-family is not re-closed."""
    rng = random.Random(f"nonclosed{seed}")
    n = rng.randrange(3, 9)
    g, act = _z_n(n)
    us = sorted({rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 5))} - {(1 << n) - 1})
    vs = sorted({symmetric_closure(1 | 1 << rng.randrange(n), g)
                 for _ in range(rng.randrange(3))} - {g.full})
    return instance_from_families(g, n, act, [*us, (1 << n) - 1], [*vs, g.full], "exploratory")


def _ref_open_map(t, x, alpha):
    fam = refined_family(t, x, alpha)
    orb = orbit(t.instance, x)
    return next(((False, y) for y in bits(orb) if minimal_neighborhood(orb, fam, y) != 1 << y),
                (True, None))


def test_point_keys_match_the_stored_levels():
    for key, inst in _corpus():
        _check_point_keys(analyze(inst))
    for seed in range(NON_CLOSED_SEEDS):
        _check_point_keys(analyze(_non_closed(seed)))


def test_open_map_on_a_family_that_is_not_translation_closed():
    # Z/3 with U = [{0}, {0,1}, X]: the keys of 0, 1, 2 have widths 3, 2, 1
    # at level 0, and 1 fails only because 0's wider key contains its own
    g, act = _z_n(3)
    inst = instance_from_families(g, 3, act, [0b001, 0b011, 0b111], [g.full], "exploratory")
    t = analyze(inst)
    _check_point_keys(t)
    assert all(len(set(keys)) == 3 for keys in t.point_keys)
    assert t.point_keys[0] == [0b111, 0b110, 0b100]
    for x in range(3):
        assert scott_rank(t, x) == 1
        for alpha in [*range(1, t.stabilization + 3), STABLE]:
            assert open_map_check(t, x, alpha) == (False, 1) == _ref_open_map(t, x, alpha)


def test_queries_match_the_references_on_families_that_are_not_translation_closed():
    stabilizations = set()
    uneven = 0
    for seed in range(NON_CLOSED_SEEDS):
        inst = _non_closed(seed)
        t = analyze(inst)
        stabilizations.add(t.stabilization)
        for x in range(inst.size):
            t._caches.clear()
            assert scott_rank(t, x) == _ref_scott_rank(t, x), (seed, x)
            for alpha in [*range(1, t.stabilization + 3), STABLE]:
                t._caches.clear()
                assert open_map_check(t, x, alpha) == _ref_open_map(t, x, alpha), (seed, x, alpha)
        for keys in t.point_keys:
            uneven += any(len({keys[y].bit_count() for y in bits(orb)}) > 1
                          for orb in set(inst.orbits))
    # the sweep reaches stabilization 3 and checks orbits whose keys differ in width
    assert max(stabilizations) >= 3 and uneven


def test_cold_open_map_matches_the_minimal_neighbourhoods():
    # every call on a cold table, at the least point of every orbit: the
    # benchmark's shapes (the corpus) and families that are not closed
    seen = set()
    non_closed = ((f"nonclosed{s}", _non_closed(s)) for s in range(NON_CLOSED_SEEDS))
    for key, inst in chain(_corpus(), non_closed):
        t = analyze(inst)
        for orb in set(inst.orbits):
            x = (orb & -orb).bit_length() - 1
            for alpha in [*range(1, t.stabilization + 3), STABLE]:
                t._caches.clear()
                verdict = open_map_check(t, x, alpha)
                assert verdict == _ref_open_map(t, x, alpha), (key, x, alpha)
                beta = t.stabilization if alpha is STABLE else min(alpha - 1, t.stabilization)
                own = [t.point_keys[beta][y] for y in bits(orb)]
                distinct = len(set(own)) == len(own)
                seen.add((verdict[0], distinct, len({k.bit_count() for k in own}) == 1))
    # (verdict, keys distinct, one width): a True the set sizes decide, a False
    # from a shared key, a False from a strictly wider key, and a True over
    # keys of unequal width that only the witness loop decides
    assert {(True, True, True), (False, False, True), (False, True, False),
            (True, True, False)} <= seen


# ---------------------------------------------------------------------------
# the successor-piece decomposition
#
# The engine's ``piece_from_decomposition`` intersects part (b) with, per U_n,
# the union of the candidate translates U_j = hU_i that meet the orbit: part
# (b) makes every hit field of a candidate's cells agree with U_j (see its
# docstring), so no per-V-index hit blocks are formed.  Part (b) is memoised
# per (level, orbit), the candidate union per (cell, orbit).  The reference is
# the earlier per-call form: it rebuilds the candidate set of every U_n from
# the reach sets, and ANDs the hit blocks of every conjugated cell (j, m^h);
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


def _check_hit_facts(table):
    # The two facts that let the engine drop the hit blocks of part (a), for
    # every (level, orbit) it memoised part (b) for: the hits of a cell (j, m)
    # lie in U_j, and part (b) meets U_j inside the hits of every cell (j, m').
    inst = table.instance
    full = inst.full_points
    membersU = inst.basisU.members
    for (lvl, orb), second in table._caches["hits"].items():
        want = full
        for ci, (j, _) in enumerate(table.cells):
            hits = 0
            for _, mask in table.levels[lvl - 1][ci]:
                if mask & orb:
                    hits |= mask
            assert is_subset(hits, membersU[j])
            assert is_subset(second & membersU[j], hits)
            want &= (full & ~membersU[j]) | hits
        assert second == want


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
        _check_hit_facts(t)
    assert calls > 14000
    # the reference ANDs the hit blocks of the conjugated cells (j, m^h), so
    # instances where conjugation permutes the V-indices must be compared
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
            masks = {mask for blocks in data for _, mask in blocks}
            for ci, (n, m) in enumerate(t.cells):
                u, v = inst.basisU[n], inst.basisV[m]
                parts = t.cell_orbits[ci]
                want = _ref_successor_formula(inst, data, parts, u, v)
                got = harness._formula_blocks(inst, masks, parts, u, v)
                assert sorted(got.values(), key=lambda b: b & -b) == want, (key, lvl, n, m)
                cells += 1
    assert cells > 1000
