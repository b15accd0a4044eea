"""End-to-end acceptance gate.

Seven checks, each exact (set equality, zero tolerance) at a fixed corpus
volume: definitional suites on 200 exploratory instances plus the named
trio, theorem suites plus the classification report on 100 strict instances,
the strict collapse law, the two named counterexample regressions, the
membership-pattern cross-check, byte-identical analysis documents (against the
pinned golden files, and again after other analyses in the same process), and
the stabilization bound with its fixpoint. Wall-clock targets (60 s / 300 s)
are asserted on the two corpus sweeps.

The golden files under ``tests/golden/`` are
``serialize_analysis(build_analysis(inst, seed=0, trials=4))`` for each
instance in ``GOLDEN``; a change that alters them changes the document format.
"""

from __future__ import annotations

import time
from pathlib import Path

from orbitpieces.algebra import cyclic_group
from orbitpieces.bits import mask_of, to_list
from orbitpieces.classify import (
    classification_report,
    eventual_openness,
    invariant_containment_check,
)
from orbitpieces.gspace import build_instance, make_random, named_instance
from orbitpieces.harness import build_analysis, run_oracles, serialize_analysis
from orbitpieces.saturation import orbit_partition
from orbitpieces.scott import (
    STABLE,
    analyze,
    pattern_partition,
    piece,
    piece_from_decomposition,
    stable_partition,
    successor_level,
)

EXPLORATORY_SEEDS = range(200)
STRICT_SEEDS = range(100)
GOLDEN_DIR = Path(__file__).parent / "golden"


def _z10_level3():
    # the Z/10 self-action whose analysis stabilizes at level 3 (11 x 3 cells)
    n = 10
    act = [[(g + x) % n for x in range(n)] for g in range(n)]
    seedsU = [mask_of([0, 1, 2, 3, 5, 8, 9])]
    seedsV = [mask_of([0, 3, 7]), mask_of([0, 2, 8])]
    return build_instance(cyclic_group(n), n, act, seedsU, seedsV, "exploratory", "z10l3")


GOLDEN = {
    **{name: named_instance(name) for name in ("z4self", "swapfix", "z4coarse", "z4pairs")},
    **{f"random{s}": make_random(s) for s in (0, 4, 7)},
    **{f"strict{s}": make_random(s, strict=True) for s in (0, 1, 2)},
    "z10l3": _z10_level3(),
}


def _exploratory_corpus():
    for seed in EXPLORATORY_SEEDS:
        yield seed, make_random(seed)
    for name in ("z4self", "swapfix", "z4coarse"):
        yield name, named_instance(name)


def _strict_corpus():
    for seed in STRICT_SEEDS:
        yield seed, make_random(seed, strict=True)


def test_definitional_suites_clean_on_exploratory_corpus():
    started = time.monotonic()
    for key, inst in _exploratory_corpus():
        assert inst.group.order <= 8
        assert inst.size <= 12
        assert len(inst.basisU) <= 24
        assert len(inst.basisV) <= 6
        seed = key if isinstance(key, int) else 0
        for suite in ("locsat", "bH", "vaught", "phar"):
            log = run_oracles(inst, suite, seed=seed)
            assert log == [], (key, suite, log[:1])
    assert time.monotonic() - started < 60.0


def test_theorem_suites_and_classification_clean_on_strict_corpus():
    started = time.monotonic()
    for seed, inst in _strict_corpus():
        table = analyze(inst)
        for suite in ("hist", "vb", "list", "translate", "orb", "subs"):
            log = run_oracles(inst, suite, seed=seed, table=table)
            assert log == [], (seed, suite, log[:1])
        # the successor decomposition, exhaustively at every cell and level
        for ci, (n, m) in enumerate(table.cells):
            for part in table.cell_orbits[ci]:
                x = (part & -part).bit_length() - 1
                for alpha in range(1, table.stabilization + 2):
                    got = piece_from_decomposition(table, x, n, m, alpha)
                    assert got == piece(table, x, n, m, alpha + 1), (seed, n, m, x, alpha)
        rep = classification_report(inst, table)
        assert rep["conditions"]["eventually_open"], seed
        assert rep["conditions"]["orbit_equals_final_piece"], seed
        assert rep["conditions"]["open_map"], seed
        inv = rep["invariant_containment"]
        assert all(inst.basisU[n].bit_count() <= 12 for n in range(len(inst.basisU)))
        assert inv["exhaustive"] and inv["verdict"], (seed, inv["violations"][:1])
        assert rep["divergences"] == [] and rep["flags"] == []
    assert time.monotonic() - started < 300.0


def test_strict_mode_collapses_pieces_to_local_orbits():
    for seed, inst in _strict_corpus():
        table = analyze(inst)
        assert table.stabilization == 1, seed
        for ci, (n, m) in enumerate(table.cells):
            parts = list(orbit_partition(inst, inst.basisU[n], inst.basisV[m]))
            for alpha in (1, STABLE):
                masks = [mask for _, mask in table.blocks(n, m, alpha)]
                assert masks == parts, (seed, n, m, alpha)
        full_u = inst.basisU.members[-1]
        full_v = inst.basisV.members[-1]
        assert stable_partition(table) == list(
            orbit_partition(inst, full_u, full_v)
        ), seed


def test_named_counterexample_regressions():
    coarse = named_instance("z4coarse")
    assert to_list(coarse.basisV[0]) == [0, 1, 3]
    verdict, witnesses = eventual_openness(coarse)
    assert verdict is False
    assert witnesses[0] == [None, [0, 0]]
    assert all(row == [None, [0, 0]] for row in witnesses)

    pairs = named_instance("z4pairs")
    assert to_list(pairs.basisV[0]) == [0, 2]
    u_sets = [to_list(u) for u in pairs.basisU.members]
    assert [0, 1] in u_sets and [2, 3] in u_sets and [0, 1, 2, 3] in u_sets
    out = invariant_containment_check(pairs, analyze(pairs))
    assert out["verdict"] is False and out["exhaustive"] is True
    assert out["violations"][0] == {
        "u": 4,
        "v": 0,
        "alpha": 1,
        "x": 0,
        "witness_set": [0, 2],
        "piece": [0, 1, 2, 3],
    }


def test_membership_pattern_partition_matches_level_one():
    corpus = list(_exploratory_corpus()) + list(_strict_corpus())
    corpus.append(("z4pairs", named_instance("z4pairs")))
    for key, inst in corpus:
        table = analyze(inst)
        top_u = len(inst.basisU) - 1
        top_v = len(inst.basisV) - 1
        level_one = [mask for _, mask in table.blocks(top_u, top_v, 1)]
        assert level_one == pattern_partition(inst), key


def test_analysis_documents_are_byte_stable():
    # the pinned bytes, analysed in order and then again in reverse order, so
    # every instance is re-run after the others in the same process
    for key in list(GOLDEN) + list(reversed(GOLDEN)):
        got = serialize_analysis(build_analysis(GOLDEN[key], seed=0, trials=4))
        assert got == (GOLDEN_DIR / f"{key}.json").read_text(), key


def test_stabilization_bound_and_extra_level_fixpoint():
    corpus = list(_exploratory_corpus()) + list(_strict_corpus())
    for key, inst in corpus:
        table = analyze(inst)
        bound = inst.size * len(inst.basisU) * len(inst.basisV)
        assert 1 <= table.stabilization <= bound, key
        data, _ = successor_level(
            inst, table.cells, table.cell_orbits, table.levels[-1]
        )
        for ci in range(len(table.cells)):
            got = [mask for _, mask in data[ci]]
            want = [mask for _, mask in table.levels[-1][ci]]
            assert got == want, (key, table.cells[ci])
