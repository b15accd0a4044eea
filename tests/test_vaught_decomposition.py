"""The vaught suite's elementwise decomposition against the subset listing.

The decomposition states that x ∈ U lies in A^{Δ_U V} iff x ∈ star(A, V2·g)
for some symmetric V2 ∋ 1 in V and some g in the reach set r of x with
V2·g ⊆ r, and in A^{*_U V} iff x ∈ delta(A, V2·g) for all of them.  The
suite decides both sides by V2 = {1}: the union side is "r·x meets A", the
intersection side "r·x ⊆ A".  The reference below is the earlier form, which
lists every such V2 and every translate V2·g inside r; the verdicts must
agree exactly.
"""

from __future__ import annotations

import random

from orbitpieces import harness
from orbitpieces.algebra import cyclic_group, group_from_generators
from orbitpieces.bits import bits, is_subset, mask_of, to_list
from orbitpieces.gspace import build_instance, make_coset_action, make_random
from orbitpieces.saturation import cached_reach
from orbitpieces.transforms import delta, star

from test_acceptance import GOLDEN


def _ref_sym_subsets_with_identity(v: int, inv) -> list[int]:
    """Every symmetric subset of v that contains the identity."""
    pairs = []
    seen = 0
    for e in bits(v):
        if e == 0 or seen >> e & 1:
            continue
        ie = inv[e]
        seen |= (1 << e) | (1 << ie)
        pairs.append((1 << e) | (1 << ie))
    out = [1]
    for p in pairs:
        out += [m | p for m in out]
    return out


def _ref_translates(inst, v: int, r: int) -> set[int]:
    """Every translate V2·g ⊆ r, V2 a symmetric subset of v containing 1, g ∈ r."""
    mul = inst.group.mul
    out = set()
    for v2 in _ref_sym_subsets_with_identity(v, inst.group.inv):
        rows = [mul[e] for e in to_list(v2)]
        for g in to_list(r):
            v2g = mask_of(row[g] for row in rows)
            if is_subset(v2g, r):
                out.add(v2g)
    return out


def _ref_decomposition(inst, a: int, x: int, translates) -> tuple[bool, bool]:
    in_union = any(star(inst, a, h) >> x & 1 for h in translates)
    in_inter = all(delta(inst, a, h) >> x & 1 for h in translates)
    return in_union, in_inter


def _law(inst, a: int, x: int, u: int, v: int) -> tuple[bool, bool]:
    img = harness._reach_image(inst, x, u, v)
    return bool(img & a), not img & ~a


def _compare_every_cell(inst, rng, n_sets: int) -> int:
    """Compare law and listing on every cell and point; count the non-singleton
    translates the listing met."""
    memo = {}
    wide = 0
    for u in inst.basisU.members:
        for v in inst.basisV.members:
            sets = [rng.getrandbits(inst.size) for _ in range(n_sets)]
            for x in bits(u):
                r = cached_reach(inst, x, u, v)
                if (v, r) not in memo:
                    memo[v, r] = _ref_translates(inst, v, r)
                translates = memo[v, r]
                wide += sum(1 for h in translates if h & (h - 1))
                for a in sets:
                    want = _ref_decomposition(inst, a, x, translates)
                    assert _law(inst, a, x, u, v) == want, (inst.name, u, v, x, a)
    return wide


def test_the_singleton_law_matches_the_subset_listing():
    rng = random.Random(20101)
    instances = (
        list(GOLDEN.values())
        + [make_random(s) for s in range(32)]
        + [make_random(s, strict=True) for s in range(16)]
    )
    wide = sum(_compare_every_cell(inst, rng, 3) for inst in instances)
    # the listing is not vacuous: translates larger than one element occur
    assert wide > 0


def test_a_non_singleton_translate_inside_the_reach_set():
    # Z/6 acting on itself, U the whole space, V = {0, 1, 5}: the reach set of
    # every point is the whole group, and {0, 1, 5} + g lies inside it
    g = cyclic_group(6)
    act = [[(i + x) % 6 for x in range(6)] for i in range(6)]
    inst = build_instance(g, 6, act, [], [mask_of([0, 1, 5])], "exploratory", "z6wide")
    u, v = inst.full_points, mask_of([0, 1, 5])
    assert v in inst.basisV.members
    for x in range(6):
        r = cached_reach(inst, x, u, v)
        assert r == (1 << 6) - 1
        translates = _ref_translates(inst, v, r)
        assert {mask_of((e + s) % 6 for e in (0, 1, 5)) for s in range(6)} <= translates
        for a in range(1 << 6):
            assert _law(inst, a, x, u, v) == _ref_decomposition(inst, a, x, translates)


def _worst_cell_calls(monkeypatch, group) -> int:
    """Run the vaught suite on the regular action of ``group`` with every drawn
    cell U = X, V = G, counting ``star``/``delta`` calls."""
    inst = make_coset_action(group, 1)
    worst = (len(inst.basisU) - 1, len(inst.basisV) - 1)
    assert inst.basisU.members[worst[0]] == inst.full_points
    assert inst.basisV.members[worst[1]] == (1 << group.order) - 1
    monkeypatch.setattr(harness._Ctx, "cell", lambda self: worst)
    budget = 8 * group.order
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            if calls[0] > budget:
                raise AssertionError(f"more than {budget} star/delta calls")
            return fn(*args)

        return wrapper

    monkeypatch.setattr(harness, "star", counted(star))
    monkeypatch.setattr(harness, "delta", counted(delta))
    assert harness.run_oracles(inst, "vaught", trials=8) == []
    return calls[0]


def test_the_worst_cell_costs_no_subset_listing(monkeypatch):
    # with U the whole space and V the whole group, the listing translated all
    # 2^k symmetric subsets by every g ∈ G and transformed each distinct
    # translate (S4, k = 16: 70 s for one point); the law reads one reach set
    # per point, so the star/delta calls left are the other laws' few per
    # trial and per subgroup (74 on Z/16, 124 on S4 at this seed)
    for group in (cyclic_group(16), group_from_generators([(1, 0, 2, 3), (1, 2, 3, 0)])):
        assert 0 < _worst_cell_calls(monkeypatch, group) <= 8 * group.order
