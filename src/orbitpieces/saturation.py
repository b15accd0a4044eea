"""Local saturations, local orbits, reach sets, and local invariance.

The central recursion: V⁰_U A = A∩U, V^[n+1]_U A = V(V^[n]_U A) ∩ U, and the
local saturation V_U A is the union of the stages — computed here as a
monotone fixpoint, which terminates within |U| rounds.

Reach sets ⟨V⟩ˣ_U collect the group elements expressible as products of
V-steps all of whose partial applications keep x inside U; the local orbit is
exactly the reach set applied to x.  For x ∉ U every reach set is empty, at
every depth, including depth 0.

Both fixpoints are computed semi-naively: a round expands only what the round
before it added, since everything reachable from older members is already in
the current stage.  The stages, and so every finite depth and the limit, are
the same as when the whole stage is expanded each round.  The reach stages of
one (x, U, V) are computed once, up to the fixpoint, and kept as a list: any
depth, the stage lists of ``reach_stages`` and the full set of
``cached_reach`` are read from it (depth 0 is {e} and any depth past the
fixpoint is the last stage).

A neighbourhood V is applied to many sets, so ``point_images`` tabulates it
once per instance: ``nb[p] = V·p`` (or ``V⁻¹·p``) as one mask per point.  V·A
is then the OR of ``nb`` over the points of A, and each saturation round is
one such OR over the points the last round added; the local stage transforms
in ``transforms`` read the ``V⁻¹`` table the same way.  The kernels for an
arbitrary element set H (``act_image`` here, ``translate_set`` in ``gspace``,
``delta``/``star`` in ``transforms``), used with reach sets that are seldom
repeated, list each operand's members once per call and index the action
rows directly.  ``is_locally_invariant`` checks the table-based saturation
against a one-step ``act_image``, so the two stay independent computations.

Instances are immutable, so the three memos are fields of the instance
(``ActionInstance._images``, ``_reach`` and ``_partitions``): the
``point_images`` tables keyed by V (by ~V for V⁻¹), the reach-stage lists
keyed by (x, U, V), and the ``orbit_partition`` tuples keyed by (U, V).  A
memo lives exactly as long as its instance, and this module keeps no state.
"""

from __future__ import annotations

from types import SimpleNamespace

from .bits import bits, image_mask, to_list, union_over
from .gspace import ActionInstance


def act_image(inst: ActionInstance, a: int, v: int) -> int:
    """The set V·A = {g·x : g ∈ V, x ∈ A}."""
    act = inst.act
    pts = to_list(a)
    m = 0
    for g in to_list(v):
        m |= image_mask(act[g], pts)
    return m


def _saturate(nb, a: int, u: int) -> int:
    """``saturate`` with V given by its ``point_images`` table."""
    cur = new = a & u
    while new:
        new = union_over(nb, new) & u & ~cur
        cur |= new
    return cur


def saturate(inst: ActionInstance, a: int, u: int, v: int) -> int:
    """The local V_U-saturation of A: least fixpoint of S ↦ (V·S ∪ S) ∩ U from A∩U.

    V·S is a union over the points of S, so each round applies V only to the
    points the last round added; the images of older points are already in.
    """
    return _saturate(point_images(inst, v), a, u)


def local_orbit(inst: ActionInstance, x: int, u: int, v: int) -> int:
    """The local V_U-orbit of a point; empty exactly when x ∉ U."""
    return saturate(inst, 1 << x, u, v)


def _reach_stages(inst: ActionInstance, x: int, u: int, v: int) -> list[int]:
    """⟨V⟩ˣ_U at depths 1, 2, ... for x ∈ U, up to and including the first
    depth that adds nothing (the fixpoint).

    Once a stage is the whole group no product can add to it, so the next
    stage is the fixpoint and is appended without expanding it: with V = G
    that round would be |G|² products for nothing.
    """
    rows = [inst.group.mul[g] for g in to_list(v)]
    act = inst.act
    full = inst.group.full
    cur = 1  # {identity}
    new = [0]
    out = []
    while new:  # no new elements: fixed
        if cur == full:
            out.append(cur)
            break
        added = []
        for h in new:
            for row in rows:
                gh = row[h]
                if not cur >> gh & 1 and u >> act[gh][x] & 1:
                    cur |= 1 << gh
                    added.append(gh)
        new = added
        out.append(cur)
    return out


def _stages(inst: ActionInstance, x: int, u: int, v: int) -> list[int]:
    """The ``_reach_stages`` list of x ∈ U, memoised in ``inst._reach``."""
    key = (x, u, v)
    got = inst._reach.get(key)
    if got is None:
        got = inst._reach[key] = _reach_stages(inst, x, u, v)
    return got


def reach_sets(inst: ActionInstance, x: int, u: int, v: int, depth: int | None = None) -> int:
    """⟨V⟩ˣ_U at the given depth ≥ 0 (None = the full, stabilized union).

    Stage 0 is {identity} when x ∈ U; stage n+1 collects the products g·h
    with h in stage n, g ∈ V and (g·h)·x ∈ U.  The stages increase, so the
    full set is the fixpoint.

    The stages are computed semi-naively: the products g·h with h already in
    stage n-1 lie in stage n, so stage n+1 is stage n plus the admissible
    products whose h is new at stage n.  Each element is expanded once, and
    every finite depth, as well as the fixpoint, gives the same set as
    expanding the whole stage each time.  All depths of one (x, U, V) read
    one memoised list of stages, and a depth at or past the fixpoint reads
    its last entry.
    """
    if depth is not None and depth < 0:
        raise ValueError("depth must be >= 0")
    if not u >> x & 1:
        return 0
    if depth == 0:
        return 1
    stages = _stages(inst, x, u, v)
    return stages[-1] if depth is None or depth >= len(stages) else stages[depth - 1]


def reach_stages(inst: ActionInstance, x: int, u: int, v: int) -> list[int]:
    """The list of ``reach_sets(inst, x, u, v, d)`` for d = 1, 2, ..., up to
    and including the first depth that adds nothing (the fixpoint); every
    later depth equals its last entry.
    """
    return _stages(inst, x, u, v)[:] if u >> x & 1 else [0]


def reach_common(inst: ActionInstance, a: int, u: int, v: int) -> int:
    """⟨V⟩^A_U  =  the intersection of ⟨V⟩ᵗ_U over t ∈ A (full group if A = ∅)."""
    out = inst.group.full
    for t in bits(a):
        out &= cached_reach(inst, t, u, v)
        if not out:
            break
    return out


def is_locally_invariant(inst: ActionInstance, a: int, u: int, v: int) -> bool:
    """Whether V_U A = A∩U; the one-step criterion V(A∩U)∩U = A∩U must agree."""
    trace = a & u
    fix = saturate(inst, a, u, v) == trace
    one_step = act_image(inst, trace, v) & u == trace
    if fix != one_step:
        raise RuntimeError("local invariance criteria disagree (internal error)")
    return fix


def group_coset_partition(inst: ActionInstance, x: int, u: int, v: int) -> list[int]:
    """The blocks ⟨V⟩^{hx}_U · h over h with h·x ∈ U, in first-seen order.

    These partition {h ∈ G : h·x ∈ U}; the partition property itself is an
    oracle-checked consequence, not enforced here.
    """
    mul = inst.group.mul
    act = inst.act
    domain = 0
    for h in range(inst.group.order):
        if u >> act[h][x] & 1:
            domain |= 1 << h
    blocks: list[int] = []
    assigned = 0
    for h in bits(domain):
        if assigned >> h & 1:
            continue
        r = reach_sets(inst, act[h][x], u, v)
        block = 0
        for s in bits(r):
            block |= 1 << mul[s][h]
        blocks.append(block)
        assigned |= block
    return blocks


# ---------------------------------------------------------------------------
# memos held in fields of the instance

# Read only by perfbench/tracer.py, which counts a miss as growth of
# ``.get(inst)``; delete both with ROADMAP item 1a.
_ORBIT_CACHE = SimpleNamespace(get=lambda inst, default=None: inst._partitions)
_REACH_CACHE = SimpleNamespace(get=lambda inst, default=None: inst._reach)


def point_images(inst: ActionInstance, v: int, inverse: bool = False) -> tuple[int, ...]:
    """The table ``nb[p] = V·p``, or ``V⁻¹·p`` with ``inverse``: one mask per point.

    V·A is the OR of the table over the points of A (``bits.union_over``);
    delta(A, V) = {x : V·x meets A} is the same OR over the ``V⁻¹`` table.
    """
    table = inst._images
    key = ~v if inverse else v  # v >= 0, so the two kinds of key never meet
    got = table.get(key)
    if got is None:
        elems = to_list(v)
        if inverse:
            inv = inst.group.inv
            elems = [inv[g] for g in elems]
        nb = [0] * inst.size
        for g in elems:
            for p, q in enumerate(inst.act[g]):
                nb[p] |= 1 << q
        got = table[key] = tuple(nb)
    return got


def orbit_partition(inst: ActionInstance, u: int, v: int) -> tuple[int, ...]:
    """The distinct local V_U-orbits inside U, ordered by least point."""
    table = inst._partitions
    key = (u, v)
    got = table.get(key)
    if got is not None:
        return got
    nb = point_images(inst, v)
    parts = []
    rem = u
    while rem:
        part = _saturate(nb, rem & -rem, u)
        parts.append(part)
        rem &= ~part
    out = tuple(parts)
    table[key] = out
    return out


def cached_reach(inst: ActionInstance, x: int, u: int, v: int) -> int:
    """The full reach set ⟨V⟩ˣ_U, read from the instance's stage memo."""
    return reach_sets(inst, x, u, v)


def saturate_by_parts(inst: ActionInstance, a: int, u: int, v: int) -> int:
    """Saturation as the union of the local orbits meeting A, read from
    ``orbit_partition``.

    The fixpoint route (``saturate``) is the definition; the ``locsat`` check
    ``saturate-orbit-union`` compares the two, and the ``phar`` intersection
    formulas saturate through this one.  ``analyze`` reads ``orbit_partition``
    itself.
    """
    out = 0
    if a & u:
        for part in orbit_partition(inst, u, v):
            if part & a:
                out |= part
    return out
