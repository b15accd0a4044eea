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

``local_delta_n`` reads one list of delta stages up to the fixpoint
(``local_delta_stages``), and the ``vaught`` suite takes every stage of a
trial from such lists, the star stages by duality.  Each entry, and every
index past the fixpoint, must agree with ``ref_local_delta_n`` and
``ref_local_star_n``.

``reach_sets``, ``reach_stages`` and ``cached_reach`` read one memoised list
of reach stages per (x, U, V).  On fresh instances they are called at
shuffled depths, the full set first or last, so that a memo shaped by the
depth of the call that filled it shows against ``ref_reach_sets``.  The list
stops expanding once a stage is the whole group; cells that get there at
stage 1 and at a later stage are checked on their own.

``subgroup_closure`` and ``all_subgroups`` share one breadth-first closure
under right multiplication; ``ref_subgroup_closure`` is the earlier loop over
every pair of the current set in every round.

The references list a mask's points with ``ref_bits``, one position at a
time, not with ``orbitpieces.bits``, whose listers the kernels themselves use.
"""

from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from orbitpieces.algebra import (
    Group,
    GroupError,
    _inverses,
    close_family,
    conjugate,
    generating_set,
    group_from_generators,
    group_from_table,
    subgroup_closure,
)
from orbitpieces.cli import main
from orbitpieces.gspace import (
    NAMED_INSTANCES,
    InstanceError,
    _group_catalogue,
    _translates,
    _validate_action,
    make_coset_action,
    make_cyclic_self,
    make_random,
    named_instance,
    orbit,
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
    local_delta_stages,
    local_star,
    local_star_n,
    star,
)
from test_scott_reference import _wide_corpus


def ref_bits(m: int) -> list[int]:
    """The set bit positions of ``m`` in increasing order, read one position
    at a time, so that no reference shares ``orbitpieces.bits``'s lister."""
    return [i for i in range(m.bit_length()) if m >> i & 1]


INSTANCES = (
    [named_instance(k) for k in NAMED_INSTANCES]
    + [make_random(s) for s in range(32)]
    + [make_random(s, strict=True) for s in range(16)]
)


def ref_translate_set(inst, a, g):
    row = inst.act[g]
    m = 0
    for x in ref_bits(a):
        m |= 1 << row[x]
    return m


def ref_act_image(inst, a, v):
    m = 0
    for g in ref_bits(v):
        m |= ref_translate_set(inst, a, g)
    return m


def ref_delta(inst, a, h):
    out = 0
    for g in ref_bits(h):
        out |= ref_translate_set(inst, a, inst.group.inv[g])
    return out


def ref_star(inst, a, h):
    out = inst.full_points
    for g in ref_bits(h):
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
        for h in ref_bits(cur):
            for g in ref_bits(v):
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
        if all(v >> inv[g] & 1 for g in ref_bits(v)):
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
    _check_stage_lists(inst, a, u, v, stage_d, stage_s)
    if u:
        x = rng.choice([y for y in range(inst.size) if u >> y & 1])
        want = [ref_reach_sets(inst, x, u, v, depth) for depth in [*range(k + 2), None]]
        for depth, w in zip([*range(k + 2), None], want):
            assert reach_sets(inst, x, u, v, depth) == w, (inst.name, x, depth)
        # the list ends at the first depth that adds nothing, and every later
        # depth equals its last entry
        fixed = reach_stages(inst, x, u, v)
        f = len(fixed)
        assert fixed == [ref_reach_sets(inst, x, u, v, d) for d in range(1, f + 1)]
        assert _padded_stages(inst, x, u, v, k + 1) == want[1:k + 2]
        assert fixed[-1] == want[-1] and (f == 1 or fixed[-1] == fixed[-2])
        assert all(fixed[i] != fixed[i + 1] for i in range(f - 2))
    if outside:
        x = rng.choice(outside)
        assert local_orbit(inst, x, u, v) == 0
        for depth in [*range(k + 2), None]:
            assert reach_sets(inst, x, u, v, depth) == 0
        assert reach_stages(inst, x, u, v) == [0]


def _check_stage_lists(inst, a, u, v, stage_d, stage_s):
    """``local_delta_stages`` against the reference stages 1..|U|+2, directly
    and by duality: a list ends at the first stage that adds nothing, and
    every later stage equals its last entry."""
    k = u.bit_count()
    stages_d = local_delta_stages(inst, a, u, v)
    stages_s = [u & ~d for d in local_delta_stages(inst, u & ~a, u, v)]
    for got, want in ((stages_d, stage_d), (stages_s, stage_s)):
        f = len(got)
        assert 1 <= f <= k + 1
        assert got == want[:f], (inst.name, a, u, v)
        assert want[f - 1:] == [got[-1]] * (k + 3 - f)
        assert all(got[i] != got[i + 1] for i in range(f - 2))
        assert f == 1 or got[-1] == got[-2]


def test_stage_lists_of_the_empty_set_and_of_x():
    # _check_cell covers a random A on every cell; here A = ∅ and A = X
    for inst in INSTANCES:
        for v in inst.basisV:
            for u in inst.basisU:
                k = u.bit_count()
                for a in (0, inst.full_points):
                    stage_d = [ref_local_delta_n(inst, a, u, v, n) for n in range(1, k + 3)]
                    stage_s = [ref_local_star_n(inst, a, u, v, n) for n in range(1, k + 3)]
                    _check_stage_lists(inst, a, u, v, stage_d, stage_s)
                    for n in (1, 2, k + 1, k + 2, 10**9):
                        assert local_delta_n(inst, a, u, v, n) == stage_d[min(n, k + 2) - 1]
                        assert local_star_n(inst, a, u, v, n) == stage_s[min(n, k + 2) - 1]


@pytest.mark.parametrize("kind", ["local-delta", "local-star"])
def test_cli_stages_match_the_references(capsys, kind):
    ref = ref_local_delta_n if kind == "local-delta" else ref_local_star_n
    inst = named_instance("z4self")
    for u_idx, u in enumerate(inst.basisU):
        for v_idx, v in enumerate(inst.basisV):
            for a in (0b0010, 0b1101, 0b1111):
                for n in (1, 2, 10**9, None):  # no --stage: the limit, stage |U|+1
                    stage = () if n is None else ("--stage", str(n))
                    assert main(["transform", "--instance", "z4self", "--kind", kind,
                                 "--set", ",".join(map(str, ref_bits(a))),
                                 "--u", str(u_idx), "--v", str(v_idx), *stage, "--json"]) == 0
                    got = json.loads(capsys.readouterr().out)["transform"]
                    want = ref(inst, a, u, v, min(n or 10**9, u.bit_count() + 1))
                    assert got == ref_bits(want), (a, u_idx, v_idx, n)


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
        assert not inst._reach
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
                            assert _padded_stages(inst, x, u, v, d) == want[1:d + 1], (inst.name, x, d)
                            assert reach_sets(inst, x, u, v, d) == want[d], (inst.name, x, d)
                        else:
                            assert reach_sets(inst, x, u, v, d) == want[d], (inst.name, x, d)
                            assert _padded_stages(inst, x, u, v, d) == want[1:d + 1], (inst.name, x, d)


def _padded_stages(inst, x, u, v, d):
    """Depths 1..d read off ``reach_stages``, its last entry repeated past the
    fixpoint."""
    fixed = reach_stages(inst, x, u, v)
    return (fixed + fixed[-1:] * d)[:d]


def test_reach_stages_that_reach_the_whole_group():
    # Once a stage is all of G the next entry is the fixpoint, appended
    # without expanding it.  On U = X, V = G every point reaches G at stage 1;
    # on Z/n with V = {0, ±1} and U = X it takes n // 2 stages.
    cells = [(make_coset_action(_symmetric_group(4), 1), 1), (make_cyclic_self(6), 1)]
    cells += [(make_cyclic_self(n), n // 2) for n in (8, 9)]
    for inst, first_full in cells:
        full = inst.group.full
        u = inst.basisU[-1]
        v = full if first_full == 1 else inst.basisV[0]
        assert u == inst.full_points and v.bit_count() in (inst.group.order, 3)
        for x in range(inst.size):
            fixed = reach_stages(inst, x, u, v)
            assert fixed == [ref_reach_sets(inst, x, u, v, d) for d in range(1, first_full + 2)]
            assert fixed.index(full) == first_full - 1 and fixed[-2:] == [full, full]
            for d in range(first_full + 3):
                assert reach_sets(inst, x, u, v, d) == ref_reach_sets(inst, x, u, v, d), (inst.name, x, d)
    # the trivial group is whole before any stage, so stage 1 is the fixpoint
    z1 = make_cyclic_self(1)
    assert reach_stages(z1, 0, 1, 1) == [1] == [ref_reach_sets(z1, 0, 1, 1, 1)]


def test_a_negative_depth_is_rejected():
    inst = named_instance("z4self")
    u, v = inst.basisU[0], inst.basisV[0]
    for x in range(inst.size):  # inside U_0 and outside it
        with pytest.raises(ValueError, match="depth must be >= 0"):
            reach_sets(inst, x, u, v, -1)


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


# ---------------------------------------------------------------------------
# instance construction: one expansion per G-orbit, whole-row table checks


def ref_close_family(seeds, images, full):
    """Every member expanded under ``images``, in first-seen order."""
    ordered, seen = [], {full}
    for m in seeds:
        if m not in seen:
            seen.add(m)
            ordered.append(m)
    i = 0
    while i < len(ordered):
        for m in images(ordered[i]):
            if m not in seen:
                seen.add(m)
                ordered.append(m)
        i += 1
    return tuple(ordered) + (full,)


def ref_orbit(inst, x):
    m = 0
    for g in range(inst.group.order):
        m |= 1 << inst.act[g][x]
    return m


def ref_group_from_table(mul_rows, name="G"):
    """Per-entry range checks, Light's test over every (a, b, c), and the
    first two-sided inverse by a linear search."""
    mul = [list(row) for row in mul_rows]
    n = len(mul)
    if n == 0:
        raise GroupError("empty multiplication table")
    for g, row in enumerate(mul):
        if len(row) != n:
            raise GroupError(f"row {g} has length {len(row)}, expected {n}")
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                raise GroupError(f"entry {v!r} in row {g} out of range")
    e = next((e for e in range(n) if all(mul[e][h] == h and mul[h][e] == h for h in range(n))), None)
    if e is None:
        raise GroupError("no identity element")
    if e != 0:
        p = list(range(n))
        p[0], p[e] = e, 0
        new = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                new[p[a]][p[b]] = p[mul[a][b]]
        mul = new
    gens = generating_set(mul)
    for a in range(n):
        for b in range(n):
            for c in gens:
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise GroupError(f"associativity fails at ({a},{b},{c})")
    return tuple(tuple(r) for r in mul), tuple(ref_inverses(mul))


def ref_inverses(mul):
    inv = []
    for g in range(len(mul)):
        for h in range(len(mul)):
            if mul[g][h] == 0 and mul[h][g] == 0:
                inv.append(h)
                break
        else:
            raise GroupError(f"element {g} has no inverse")
    return inv


def ref_validate_action(group, size, act):
    """The action law checked one point at a time."""
    if size < 1:
        raise InstanceError("space must have at least one point")
    rows = [tuple(r) for r in act]
    if len(rows) != group.order:
        raise InstanceError(f"action table has {len(rows)} rows, expected {group.order}")
    for g, row in enumerate(rows):
        if len(row) != size or sorted(row) != list(range(size)):
            raise InstanceError(f"action row for element {g} is not a permutation")
    if rows[0] != tuple(range(size)):
        raise InstanceError("identity element does not act as the identity map")
    for g in generating_set(group.mul):
        for h in range(group.order):
            gh = group.mul[g][h]
            for x in range(size):
                if rows[g][rows[h][x]] != rows[gh][x]:
                    raise InstanceError(
                        f"action is not compatible with the group at (g={g}, h={h}, x={x})"
                    )
    return tuple(rows)


def _s5_cosets():
    # elements 1 and 2 of S5 are the generating transposition and 5-cycle
    s5 = group_from_generators([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], name="S5")
    for elem, size in ((2, 24), (1, 60)):
        inst = make_coset_action(s5, subgroup_closure(1 << elem, s5), name=f"s5c{size}")
        assert inst.size == size
        yield inst


CONSTRUCTED = INSTANCES + [inst for _, inst in _wide_corpus()] + list(_s5_cosets())


def _outcome(fn, *args):
    """The result of ``fn`` (a group as its tables), or the type and text of
    the error it raised."""
    try:
        got = fn(*args)
    except (GroupError, InstanceError) as exc:
        return type(exc).__name__, str(exc)
    return (got.mul, got.inv) if isinstance(got, Group) else got


def _conjugates(group):
    return lambda v: (conjugate(v, h, group) for h in range(group.order))


def test_families_close_in_the_reference_order():
    # Seeds are drawn from each closed family in random order, with repeats
    # and the full set among them; the member order must match the full scan.
    rng = random.Random("close-family")
    for inst in CONSTRUCTED:
        for family, images, full in (
            (inst.basisU.members, _translates(inst.act), inst.full_points),
            (inst.basisV.members, _conjugates(inst.group), inst.group.full),
        ):
            assert close_family(family[:-1], images, full).members == family, inst.name
            for _ in range(4):
                seeds = rng.choices(family, k=rng.randint(0, 4))
                got = close_family(seeds, images, full).members
                assert got == ref_close_family(seeds, images, full), (inst.name, seeds)


def test_images_are_taken_once_per_orbit():
    # close_family expands the first member of each orbit and no other
    for inst in CONSTRUCTED:
        for family, images, full in (
            (inst.basisU.members, _translates(inst.act), inst.full_points),
            (inst.basisV.members, _conjugates(inst.group), inst.group.full),
        ):
            calls = []

            def counted(m, images=images):
                calls.append(m)
                return images(m)

            seeds = list(family[:-1])
            close_family(seeds, counted, full)
            orbits = [frozenset(images(m)) for m in calls]
            assert len(set(orbits)) == len(calls), inst.name
            assert set(orbits) == {frozenset(images(m)) for m in seeds}, inst.name


def test_orbit_table_matches_the_per_point_scan():
    for inst in CONSTRUCTED:
        want = tuple(ref_orbit(inst, x) for x in range(inst.size))
        assert inst.orbits == want, inst.name
        assert all(orbit(inst, x) == want[x] for x in range(inst.size)), inst.name


def test_table_and_action_checks_match_the_references():
    for inst in CONSTRUCTED:
        group = inst.group
        got = group_from_table(group.mul)
        assert (got.mul, got.inv) == ref_group_from_table(group.mul), inst.name
        assert _validate_action(group, inst.size, inst.act) == ref_validate_action(
            group, inst.size, inst.act), inst.name


def _small_groups():
    seen = set()
    for inst in INSTANCES:
        if inst.group.mul not in seen:
            seen.add(inst.group.mul)
            yield inst


def test_corrupted_tables_and_actions_fail_with_the_reference_text():
    # Seeded single-entry corruptions of every small group table and action
    # in the corpus, and swaps inside one action row (which keep the row a
    # permutation, so the action law decides them).
    rng = random.Random("corruptions")
    kinds = set()
    for inst in _small_groups():
        n, size = inst.group.order, inst.size
        for _ in range(60):
            mul = [list(row) for row in inst.group.mul]
            a, b = rng.randrange(n), rng.randrange(n)
            mul[a][b] = rng.randrange(n)
            want = _outcome(ref_group_from_table, mul)
            assert _outcome(group_from_table, mul) == want, (inst.name, a, b)
            act = [list(row) for row in inst.act]
            g, x, y = rng.randrange(n), rng.randrange(size), rng.randrange(size)
            if rng.random() < 0.5:
                act[g][x] = y
            else:
                act[g][x], act[g][y] = act[g][y], act[g][x]
            want_act = _outcome(ref_validate_action, inst.group, size, act)
            assert _outcome(_validate_action, inst.group, size, act) == want_act, (inst.name, g, x)
            kinds |= {re.sub(r"\d+", "N", w[1]) for w in (want, want_act) if isinstance(w[0], str)}
    assert kinds >= {
        "associativity fails at (N,N,N)",
        "no identity element",
        "action row for element N is not a permutation",
        "action is not compatible with the group at (g=N, h=N, x=N)",
    }


def test_malformed_tables_fail_with_the_reference_text():
    # One or two faults per table, a bad entry or a bad row length, so that
    # the error must name the first fault in row order.
    rng = random.Random("malformed")
    for inst in _small_groups():
        n = inst.group.order
        for _ in range(40):
            mul = [list(row) for row in inst.group.mul]
            for _ in range(rng.randint(1, 2)):
                g = rng.randrange(n)
                if rng.random() < 0.3:
                    mul[g] = mul[g][:-1] if rng.random() < 0.5 else mul[g] + [0]
                else:
                    bad = rng.choice([-1, -n, n, n + 3, True, 1.0, "1", None])
                    mul[g][rng.randrange(len(mul[g]))] = bad
            assert _outcome(group_from_table, mul) == _outcome(ref_group_from_table, mul), mul


def _loops(order, count, rng):
    """Random Latin squares with identity 0 (loops), by randomised backtracking."""
    out = []
    while len(out) < count:
        sq = [list(range(order))] + [[r] + [None] * (order - 1) for r in range(1, order)]

        def fill(k):
            if k == order * order:
                return True
            r, c = divmod(k, order)
            if sq[r][c] is not None:
                return fill(k + 1)
            used = set(sq[r]) | {sq[i][c] for i in range(order)}
            for v in rng.sample(range(order), order):
                if v not in used:
                    sq[r][c] = v
                    if fill(k + 1):
                        return True
            sq[r][c] = None
            return False

        if fill(0):
            out.append(sq)
    return out


def test_inverses_match_the_two_sided_search_on_loops():
    # In a loop every row holds 0 once, but a left inverse need not be a
    # right inverse, so the two-sided condition decides.
    rng = random.Random("loops")
    one_sided = 0
    for sq in _loops(5, 40, rng):
        want = _outcome(ref_inverses, sq)
        assert _outcome(_inverses, sq) == want, sq
        one_sided += isinstance(want[0], str)
    assert one_sided


# ---------------------------------------------------------------------------
# subgroup closure: one breadth-first routine under right multiplication


def ref_subgroup_closure(seed, g):
    """Each round adds every inverse and every product of two members."""
    cur = seed | 1
    while True:
        nxt = cur
        for a in ref_bits(cur):
            nxt |= 1 << g.inv[a]
            row = g.mul[a]
            for b in ref_bits(cur):
                nxt |= 1 << row[b]
        if nxt == cur:
            return cur
        cur = nxt


def _symmetric_group(n):
    return group_from_generators([(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)], f"S{n}")


def test_subgroup_closure_matches_the_pairwise_reference():
    # every element and every pair in the small groups, seeded pairs in S5, S6
    for g in [build() for build in _group_catalogue(16)] + [_symmetric_group(4)]:
        for a in range(g.order):
            for b in range(a, g.order):
                seed = 1 << a | 1 << b
                assert subgroup_closure(seed, g) == ref_subgroup_closure(seed, g), (g.name, a, b)
    rng = random.Random("subgroup-closure")
    for g, pairs in ((_symmetric_group(5), 40), (_symmetric_group(6), 4)):
        for _ in range(pairs):
            seed = 1 << rng.randrange(g.order) | 1 << rng.randrange(g.order)
            assert subgroup_closure(seed, g) == ref_subgroup_closure(seed, g), (g.name, seed)
