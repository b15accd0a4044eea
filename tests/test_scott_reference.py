"""The piece engine against its per-cell reference.

The engine labels each distinct local orbit once per level, detects the
fixpoint by block counts, and never scans the stable level in ``scott_rank``.
The references below label every orbit occurrence, compare whole mask lists,
and scan every level up to the stable one; tables and ranks must agree
exactly.
"""

from __future__ import annotations

from hashlib import blake2b

import pytest

from orbitpieces.algebra import cyclic_group, symmetric_closure
from orbitpieces.bits import mask_of
from orbitpieces.gspace import build_instance, make_cyclic_self, make_random, orbit
from orbitpieces.saturation import orbit_partition
from orbitpieces.scott import (
    Signature,
    _encode_level1,
    _encode_successor,
    _group_blocks,
    analyze,
    scott_rank,
    successor_level,
)

from test_acceptance import GOLDEN


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


def _corpus():
    yield from GOLDEN.items()
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


def test_analyze_matches_the_per_cell_reference():
    for key, inst in _corpus():
        t = analyze(inst)
        levels, signatures = _ref_analyze(inst)
        assert t.levels == levels, key
        assert t.signatures == signatures, key
        assert t.stabilization == len(levels), key


def test_successor_level_matches_the_per_cell_reference():
    for key, inst in GOLDEN.items():
        t = analyze(inst)
        for prev in t.levels:
            got = successor_level(inst, t.cells, t.cell_orbits, prev)
            assert got == _ref_successor_level(t.cells, t.cell_orbits, prev), key


RANK_CASES = {**GOLDEN, "random1": make_random(1), "random5": make_random(5)}


@pytest.mark.parametrize("key", RANK_CASES)
def test_scott_rank_matches_the_full_scan(key):
    inst = RANK_CASES[key]
    t = analyze(inst)
    ranks = [scott_rank(t, x) for x in range(inst.size)]
    assert ranks == [_ref_scott_rank(t, x) for x in range(inst.size)]
    if key in ("random1", "random4", "random5", "random7"):
        # stabilization 2 with points already final at level 1
        assert t.stabilization == 2 and 1 in ranks
    if key == "z10l3":
        assert t.stabilization == 3 and ranks == [3] * inst.size
