from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from orbitpieces.algebra import group_from_generators, subgroup_closure
from orbitpieces.bits import bits, to_list
from orbitpieces.classify import (
    _CONDITION_KEYS,
    classification_report,
    eventual_openness,
    invariant_containment_check,
)
from orbitpieces.gspace import NAMED_INSTANCES, make_coset_action, make_random, named_instance, orbit
from orbitpieces.scott import analyze

strict_seeds = st.integers(min_value=0, max_value=150)


def test_condition_keys():
    assert _CONDITION_KEYS == (
        "eventually_open",
        "invariant_containment",
        "orbit_equals_final_piece",
        "open_map",
    )


def test_eventual_openness_z4self():
    inst = named_instance("z4self")
    verdict, witnesses = eventual_openness(inst)
    assert verdict
    assert len(witnesses) == inst.size
    for row in witnesses:
        assert len(row) == len(inst.basisV)
        assert all(w is not None for w in row)


def test_eventual_openness_z4coarse():
    # the coarse family has no small opens, so nothing witnesses openness
    # against the identity neighbourhood; the full group is always witnessed
    inst = named_instance("z4coarse")
    verdict, witnesses = eventual_openness(inst)
    assert not verdict
    for x in range(inst.size):
        assert witnesses[x] == [None, [0, 0]]


def test_invariant_containment_z4pairs_violation():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    out = invariant_containment_check(inst, t, 1)
    assert not out["verdict"]
    assert out["exhaustive"]
    assert out["level"] == 1
    assert out["violations"][0] == {
        "u": 4,
        "v": 0,
        "alpha": 1,
        "x": 0,
        "witness_set": [0, 2],
        "piece": [0, 1, 2, 3],
    }


def test_invariant_containment_z4pairs_clean_at_stable_level():
    # at the stable level the pieces inside the top cell are exactly the
    # rotation classes, which every orbit union respects
    inst = named_instance("z4pairs")
    t = analyze(inst)
    out = invariant_containment_check(inst, t, 2)
    assert out["verdict"]
    assert out["violations"] == []


def test_invariant_containment_budget_sampling():
    inst = named_instance("z4pairs")
    t = analyze(inst)
    tiny = invariant_containment_check(inst, t, 1, budget=2, seed=5)
    assert not tiny["exhaustive"]
    again = invariant_containment_check(inst, t, 1, budget=2, seed=5)
    assert tiny == again  # seeded sampling is reproducible


def test_classification_report_z4coarse():
    inst = named_instance("z4coarse")
    t = analyze(inst)
    rep = classification_report(inst, t)
    assert rep["mode"] == "exploratory"
    assert rep["conditions"] == {
        "eventually_open": False,
        "invariant_containment": True,
        "orbit_equals_final_piece": True,
        "open_map": False,
    }
    assert rep["divergences"] == [
        ["eventually_open", "invariant_containment"],
        ["eventually_open", "orbit_equals_final_piece"],
        ["invariant_containment", "open_map"],
        ["orbit_equals_final_piece", "open_map"],
    ]
    assert rep["flags"] == []
    for p in rep["points"]:
        assert not p["open_map"]
        assert p["open_map_witness"] == 0  # every orbit point fails first
        assert p["final_piece_matches_stable"]


def test_classification_report_z4pairs():
    # only the containment law fails: the rotation classes split the level-1
    # piece of the (X, V0) cell, while the top-cell pieces stay whole
    inst = named_instance("z4pairs")
    t = analyze(inst)
    rep = classification_report(inst, t)
    assert rep["conditions"] == {
        "eventually_open": True,
        "invariant_containment": False,
        "orbit_equals_final_piece": True,
        "open_map": True,
    }
    assert rep["divergences"] == [
        ["eventually_open", "invariant_containment"],
        ["invariant_containment", "orbit_equals_final_piece"],
        ["invariant_containment", "open_map"],
    ]
    for p in rep["points"]:
        assert p["rank"] == 2
        assert p["orbit_equals_final_piece"]
    assert rep["flags"] == []


def test_classification_report_z4self_all_conditions_hold():
    inst = named_instance("z4self")
    t = analyze(inst)
    rep = classification_report(inst, t)
    assert all(rep["conditions"].values())
    assert rep["divergences"] == []
    assert rep["flags"] == []
    for p in rep["points"]:
        assert p["open_map_witness"] is None
        assert len(p["open_map_levels"]) == t.stabilization + 2


def test_report_deterministic():
    inst = make_random(31)
    t = analyze(inst)
    a = classification_report(inst, t, budget=64, seed=9)
    b = classification_report(inst, t, budget=64, seed=9)
    assert a == b


@settings(max_examples=20, deadline=None)
@given(strict_seeds)
def test_strict_instances_satisfy_all_conditions(seed):
    inst = make_random(seed, strict=True)
    t = analyze(inst)
    rep = classification_report(inst, t)
    assert all(rep["conditions"].values())
    assert rep["divergences"] == []
    assert rep["flags"] == []


@settings(max_examples=20, deadline=None)
@given(strict_seeds)
def test_strict_orbits_equal_final_pieces(seed):
    inst = make_random(seed, strict=True)
    t = analyze(inst)
    rep = classification_report(inst, t)
    for p in rep["points"]:
        assert p["orbit_equals_final_piece"]
        assert orbit(inst, p["x"]).bit_count() >= 1


def _enumerated_containment_check(inst, table, alpha=1, budget=4096, seed=0):
    """The check with every cell enumerated, one-orbit pieces included."""
    lvl = table.resolve_level(alpha)
    violations = []
    checked = 0
    exhaustive = True
    for ci, (n, m) in enumerate(table.cells):
        u = inst.basisU[n]
        parts = table.cell_orbits[ci]
        k = len(parts)
        blocks = table.levels[lvl - 1][ci]

        def scan(a):
            for _, mask in blocks:
                if mask & a and mask & ~a:
                    return {
                        "u": n,
                        "v": m,
                        "alpha": lvl,
                        "x": (mask & a & -(mask & a)).bit_length() - 1,
                        "witness_set": to_list(a),
                        "piece": to_list(mask),
                    }
            return None

        if u.bit_count() <= 12 and (1 << k) <= budget:
            counters = range(1, 1 << k)
        else:
            exhaustive = False
            rng = random.Random(f"invariant:{seed}:{n}:{m}")
            counters = (rng.randrange(1, 1 << k) for _ in range(budget)) if k else ()
        for counter in counters:
            a = 0
            for i in bits(counter):
                a |= parts[i]
            checked += 1
            found = scan(a)
            if found:
                violations.append(found)
                break
    return {
        "level": lvl,
        "verdict": not violations,
        "violations": violations,
        "exhaustive": exhaustive,
        "checked": checked,
        "budget": budget,
    }


def _containment_corpus():
    for name in NAMED_INSTANCES:
        yield name, named_instance(name)
    for s in range(32):
        yield f"random{s}", make_random(s)
    for s in range(16):
        yield f"strict{s}", make_random(s, strict=True)
    s5 = group_from_generators([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    # elements 1 and 2 are the generators: a transposition and a 5-cycle
    yield "s5c60", make_coset_action(s5, subgroup_closure(1 << 1, s5))
    yield "s5c24", make_coset_action(s5, subgroup_closure(1 << 2, s5))


def test_containment_check_matches_full_enumeration():
    seen = set()
    for key, inst in _containment_corpus():
        t = analyze(inst)
        for alpha in (1, 2):
            for budget in (2, 4096):
                got = invariant_containment_check(inst, t, alpha, budget, seed=3)
                assert got == _enumerated_containment_check(inst, t, alpha, budget, seed=3), (
                    key, alpha, budget)
                seen.add((got["verdict"], got["exhaustive"]))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
