"""The point-set kernels and the semi-naive fixpoints against their references.

``translate_set``, ``act_image``, ``delta`` and ``star`` list each operand once
per call and index the action rows directly; ``reach_sets`` and ``saturate``
expand only what the last round added, and the local stage transforms stop
once two stages agree.  The references below are the earlier forms: one
generator walk and one translate per element, every stage expanded from
scratch, every stage applied.  Results must agree exactly.

``saturate``, ``orbit_partition`` and the local stage transforms read a
per-point table of V (``point_images``), and ``local_star_n`` is computed by
duality from the delta stages.  The ``par_`` references are their forms
before the tables: one ``act_image`` per saturation round, one ``delta`` or
padded ``star`` per stage, each stopping once two stages agree.

``reach_sets``, ``reach_stages`` and ``cached_reach`` read one memoised list
of reach stages per (x, U, V).  On fresh instances they are called at
shuffled depths, the full set first or last, so that a memo shaped by the
depth of the call that filled it shows against ``ref_reach_sets``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitpieces import saturation
from orbitpieces.bits import bits, to_list
from orbitpieces.gspace import (
    NAMED_INSTANCES,
    make_cyclic_self,
    make_random,
    named_instance,
    translate_set,
)
from orbitpieces.saturation import (
    act_image,
    cached_reach,
    local_orbit,
    orbit_partition,
    point_images,
    reach_sets,
    reach_stages,
    saturate,
)
from orbitpieces.transforms import (
    delta,
    local_delta,
    local_delta_n,
    local_star,
    local_star_n,
    star,
)

INSTANCES = (
    [named_instance(k) for k in NAMED_INSTANCES]
    + [make_random(s) for s in range(32)]
    + [make_random(s, strict=True) for s in range(16)]
)


def ref_translate_set(inst, a, g):
    row = inst.act[g]
    m = 0
    for x in bits(a):
        m |= 1 << row[x]
    return m


def ref_act_image(inst, a, v):
    m = 0
    for g in bits(v):
        m |= ref_translate_set(inst, a, g)
    return m


def ref_delta(inst, a, h):
    out = 0
    for g in bits(h):
        out |= ref_translate_set(inst, a, inst.group.inv[g])
    return out


def ref_star(inst, a, h):
    out = inst.full_points
    for g in bits(h):
        out &= ref_translate_set(inst, a, inst.group.inv[g])
    return out


def ref_reach_sets(inst, x, u, v, depth=None):
    if not u >> x & 1:
        return 0
    mul, act = inst.group.mul, inst.act
    cur = 1
    n = 0
    while depth is None or n < depth:
        nxt = cur
        for h in bits(cur):
            for g in bits(v):
                gh = mul[g][h]
                if u >> act[gh][x] & 1:
                    nxt |= 1 << gh
        if nxt == cur:
            return cur
        cur = nxt
        n += 1
    return cur


def ref_saturate(inst, a, u, v):
    cur = a & u
    while True:
        nxt = (cur | ref_act_image(inst, cur, v)) & u
        if nxt == cur:
            return cur
        cur = nxt


def ref_local_delta_n(inst, a, u, v, n):
    cur = ref_delta(inst, a & u, v) & u
    for _ in range(n - 1):
        cur = ref_delta(inst, cur, v) & u
    return cur


def ref_local_star_n(inst, a, u, v, n):
    pad = inst.full_points & ~u
    cur = ref_star(inst, (a & u) | pad, v) & u
    for _ in range(n - 1):
        cur = ref_star(inst, cur | pad, v) & u
    return cur


def par_saturate(inst, a, u, v):
    cur = new = a & u
    while new:
        new = act_image(inst, new, v) & u & ~cur
        cur |= new
    return cur


def par_orbit_partition(inst, u, v):
    parts = []
    rem = u
    while rem:
        x = (rem & -rem).bit_length() - 1
        part = par_saturate(inst, 1 << x, u, v)
        parts.append(part)
        rem &= ~part
    return tuple(parts)


def par_local_delta_n(inst, a, u, v, n):
    cur = delta(inst, a & u, v) & u
    for _ in range(n - 1):
        nxt = delta(inst, cur, v) & u
        if nxt == cur:
            break
        cur = nxt
    return cur


def par_local_star_n(inst, a, u, v, n):
    pad = inst.full_points & ~u
    cur = star(inst, (a & u) | pad, v) & u
    for _ in range(n - 1):
        nxt = star(inst, cur | pad, v) & u
        if nxt == cur:
            break
        cur = nxt
    return cur


# One example sweeps every instance and every cell of it, under the V-family
# and three more neighbourhoods (about 0.7 s).
@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_kernels_match_references_on_every_cell(seed):
    rng = random.Random(seed)
    for inst in INSTANCES:
        _check_set_kernels(inst, rng)
        _check_fixpoints(inst, rng)


def _check_set_kernels(inst, rng):
    order = inst.group.order
    a = rng.getrandbits(inst.size)
    h = rng.getrandbits(order) or 1 << rng.randrange(order)
    for g in range(order):
        assert translate_set(inst, a, g) == ref_translate_set(inst, a, g)
    assert act_image(inst, a, h) == ref_act_image(inst, a, h)
    assert delta(inst, a, h) == ref_delta(inst, a, h)
    assert star(inst, a, h) == ref_star(inst, a, h)
    assert act_image(inst, 0, h) == delta(inst, 0, h) == 0
    assert star(inst, inst.full_points, h) == inst.full_points


def _neighbourhoods(inst, rng):
    """The V-family plus random element sets holding the identity, at least
    one of them not closed under inverses when the group has such a set."""
    order = inst.group.order
    inv = inst.group.inv
    out = list(inst.basisV)
    out += [rng.getrandbits(order) | 1 for _ in range(2)]
    lopsided = [g for g in range(order) if inv[g] != g]
    if lopsided:
        out.append(1 | 1 << rng.choice(lopsided))
    return out


def _check_fixpoints(inst, rng):
    inv = inst.group.inv
    for v in _neighbourhoods(inst, rng):
        nb = point_images(inst, v)
        back = point_images(inst, v, inverse=True)
        if all(v >> inv[g] & 1 for g in to_list(v)):
            assert nb == back
        for p in range(inst.size):
            assert nb[p] == act_image(inst, 1 << p, v)
            assert back[p] == delta(inst, 1 << p, v)
        for u in inst.basisU:
            _check_cell(inst, rng, u, v)


def _check_cell(inst, rng, u, v):
    k = u.bit_count()
    outside = [x for x in range(inst.size) if not u >> x & 1]
    a = rng.getrandbits(inst.size)
    assert saturate(inst, a, u, v) == ref_saturate(inst, a, u, v) == par_saturate(inst, a, u, v)
    assert orbit_partition(inst, u, v) == par_orbit_partition(inst, u, v)
    stage_d = [ref_local_delta_n(inst, a, u, v, n) for n in range(1, k + 3)]
    stage_s = [ref_local_star_n(inst, a, u, v, n) for n in range(1, k + 3)]
    for n in range(1, k + 3):
        assert local_delta_n(inst, a, u, v, n) == stage_d[n - 1]
        assert local_star_n(inst, a, u, v, n) == stage_s[n - 1]
        assert par_local_delta_n(inst, a, u, v, n) == stage_d[n - 1]
        assert par_local_star_n(inst, a, u, v, n) == stage_s[n - 1]
    # stage |U| + 1 is already the limit, and so is any later stage
    assert local_delta(inst, a, u, v) == stage_d[k] == stage_d[k + 1]
    assert local_star(inst, a, u, v) == stage_s[k] == stage_s[k + 1]
    assert local_delta_n(inst, a, u, v, 10**9) == stage_d[k]
    assert local_star_n(inst, a, u, v, 10**9) == stage_s[k]
    if u:
        x = rng.choice([y for y in range(inst.size) if u >> y & 1])
        want = [ref_reach_sets(inst, x, u, v, depth) for depth in [*range(k + 2), None]]
        for depth, w in zip([*range(k + 2), None], want):
            assert reach_sets(inst, x, u, v, depth) == w, (inst.name, x, depth)
        assert reach_stages(inst, x, u, v, k + 1) == want[1:k + 2]
    if outside:
        x = rng.choice(outside)
        assert local_orbit(inst, x, u, v) == 0
        for depth in [*range(k + 2), None]:
            assert reach_sets(inst, x, u, v, depth) == 0
        assert reach_stages(inst, x, u, v, k + 1) == [0] * (k + 1)


def _fresh_instances():
    for k in NAMED_INSTANCES:
        yield named_instance(k)
    for s in range(32):
        yield make_random(s)
    for s in range(16):
        yield make_random(s, strict=True)


@pytest.mark.parametrize("none_first", [True, False], ids=["none-first", "none-last"])
def test_reach_memo_answers_depths_in_any_order(none_first):
    # One stage list per (x, U, V) serves every depth.  A memo filled by the
    # first call must not depend on that call's depth: fresh instances start
    # with an empty memo, and the depths come shuffled, the full set first
    # or last.
    rng = random.Random(f"reach-order:{none_first}")
    for inst in _fresh_instances():
        assert inst not in saturation._REACH_CACHE
        for u in inst.basisU:
            k = u.bit_count()
            inside = [y for y in range(inst.size) if u >> y & 1]
            outside = [y for y in range(inst.size) if not u >> y & 1]
            points = rng.sample(inside, min(2, len(inside))) + rng.sample(outside, min(1, len(outside)))
            for v in inst.basisV:
                for x in points:
                    want = [ref_reach_sets(inst, x, u, v, d) for d in range(k + 3)]
                    full = ref_reach_sets(inst, x, u, v)
                    depths = list(range(k + 3))
                    rng.shuffle(depths)
                    for d in [None, *depths] if none_first else [*depths, None]:
                        if d is None:
                            assert cached_reach(inst, x, u, v) == full, (inst.name, x)
                            assert reach_sets(inst, x, u, v) == full, (inst.name, x)
                        elif rng.random() < 0.5:
                            assert reach_stages(inst, x, u, v, d) == want[1:d + 1], (inst.name, x, d)
                            assert reach_sets(inst, x, u, v, d) == want[d], (inst.name, x, d)
                        else:
                            assert reach_sets(inst, x, u, v, d) == want[d], (inst.name, x, d)
                            assert reach_stages(inst, x, u, v, d) == want[1:d + 1], (inst.name, x, d)


def test_a_negative_depth_is_rejected():
    inst = named_instance("z4self")
    u, v = inst.basisU[0], inst.basisV[0]
    for x in range(inst.size):  # inside U_0 and outside it
        with pytest.raises(ValueError, match="depth must be >= 0"):
            reach_sets(inst, x, u, v, -1)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            reach_stages(inst, x, u, v, -1)


def test_a_lopsided_neighbourhood_is_read_through_its_inverse():
    # Z/5 acting on itself with V = {0, 1}: V·p = {p, p+1} but V⁻¹·p = {p, p-1}
    inst = make_cyclic_self(5)
    v = 0b11
    assert point_images(inst, v)[0] == 0b00011
    assert point_images(inst, v, inverse=True)[0] == 0b10001
    u = 0b01111
    for a in range(1 << 5):
        for n in (1, 2, 3, 10**9):
            assert local_delta_n(inst, a, u, v, n) == par_local_delta_n(inst, a, u, v, n)
            assert local_star_n(inst, a, u, v, n) == par_local_star_n(inst, a, u, v, n)
    # delta moves a set backwards along V: {3} pulls in 2 and then 1, 0
    assert local_delta_n(inst, 0b01000, u, v, 1) == 0b01100
    assert local_delta_n(inst, 0b01000, u, v, 10**9) == 0b01111
    # star keeps a point only while every V-step stays in the set or leaves U
    assert local_star_n(inst, 0b00011, u, v, 1) == 0b00001
    assert local_star_n(inst, 0b01100, u, v, 10**9) == 0b01100
