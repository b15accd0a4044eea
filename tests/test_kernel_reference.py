"""The point-set kernels and the semi-naive fixpoints against their references.

``translate_set``, ``act_image``, ``delta`` and ``star`` list each operand once
per call and index the action rows directly; ``reach_sets`` and ``saturate``
expand only what the last round added, and the local stage transforms stop
once two stages agree.  The references below are the earlier forms: one
generator walk and one translate per element, every stage expanded from
scratch, every stage applied.  Results must agree exactly.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from orbitpieces.bits import bits
from orbitpieces.gspace import NAMED_INSTANCES, make_random, named_instance, translate_set
from orbitpieces.saturation import act_image, reach_sets, saturate
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


# One example sweeps every instance and every cell of it (about 0.3 s).
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


def _check_fixpoints(inst, rng):
    for u in inst.basisU:
        k = u.bit_count()
        outside = [x for x in range(inst.size) if not u >> x & 1]
        for v in inst.basisV:
            a = rng.getrandbits(inst.size)
            assert saturate(inst, a, u, v) == ref_saturate(inst, a, u, v)
            stage_d = [ref_local_delta_n(inst, a, u, v, n) for n in range(1, k + 3)]
            stage_s = [ref_local_star_n(inst, a, u, v, n) for n in range(1, k + 3)]
            for n in range(1, k + 3):
                assert local_delta_n(inst, a, u, v, n) == stage_d[n - 1]
                assert local_star_n(inst, a, u, v, n) == stage_s[n - 1]
            # stage |U| + 1 is already the limit
            assert local_delta(inst, a, u, v) == stage_d[k] == stage_d[k + 1]
            assert local_star(inst, a, u, v) == stage_s[k] == stage_s[k + 1]
            if u:
                x = rng.choice([y for y in range(inst.size) if u >> y & 1])
                for depth in [*range(k + 2), None]:
                    want = ref_reach_sets(inst, x, u, v, depth)
                    assert reach_sets(inst, x, u, v, depth) == want, (inst.name, x, depth)
            if outside:
                x = rng.choice(outside)
                for depth in [*range(k + 2), None]:
                    assert reach_sets(inst, x, u, v, depth) == 0
