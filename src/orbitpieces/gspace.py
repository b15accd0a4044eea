"""Finite G-space instances: points, action table, and the two basis families.

An instance bundles a finite group, an action table ``act[g][x]``, a
translation-closed family of point sets (the U-family, full space appended
last) and a conjugation-closed neighbourhood family (the V-family, full group
appended last).  Point sets are int bitmasks.

Modes:

* ``strict`` — every singleton {x} is a U-family member and {identity} is a
  V-family member, so both families are genuine bases of the discrete
  topologies and every theorem-tier identity is asserted downstream.
* ``exploratory`` — arbitrary closed families; definitional identities are
  still asserted downstream, theorem-tier identities are merely reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import (
    Group,
    SetFamily,
    all_subgroups,
    close_family,
    close_neighborhood_family,
    cyclic_group,
    dihedral_group,
    direct_product,
    generating_set,
    is_subgroup,
    symmetric_closure,
    symmetric_group_3,
)
from .bits import bits, image_mask, mask_of, to_list, universe

MODES = ("strict", "exploratory")


class InstanceError(ValueError):
    """An instance description fails validation."""


@dataclass(frozen=True, eq=False)
class ActionInstance:
    group: Group
    size: int
    act: tuple[tuple[int, ...], ...]
    basisU: SetFamily
    basisV: SetFamily
    mode: str
    name: str = ""

    @property
    def full_points(self) -> int:
        return universe(self.size)


def translate_set(inst: ActionInstance, a: int, g: int) -> int:
    """Pointwise image g·A of a point set under one group element."""
    return image_mask(inst.act[g], to_list(a))


def orbit(inst: ActionInstance, x: int) -> int:
    """The global orbit G·x."""
    m = 0
    for g in range(inst.group.order):
        m |= 1 << inst.act[g][x]
    return m


def _validate_action(group: Group, size: int, act) -> tuple[tuple[int, ...], ...]:
    if size < 1:
        raise InstanceError("space must have at least one point")
    rows = [tuple(r) for r in act]
    if len(rows) != group.order:
        raise InstanceError(
            f"action table has {len(rows)} rows, expected {group.order}"
        )
    for g, row in enumerate(rows):
        if len(row) != size or sorted(row) != list(range(size)):
            raise InstanceError(f"action row for element {g} is not a permutation")
    if rows[0] != tuple(range(size)):
        raise InstanceError("identity element does not act as the identity map")
    # (gh)x = g(hx) for every generator g suffices: with an associative
    # table, the g for which it holds for all h are closed under products.
    for g in generating_set(group.mul):
        for h in range(group.order):
            gh = group.mul[g][h]
            for x in range(size):
                if rows[g][rows[h][x]] != rows[gh][x]:
                    raise InstanceError(
                        f"action is not compatible with the group at (g={g}, h={h}, x={x})"
                    )
    return tuple(rows)


def _translates(rows):
    """The images of a point set under every row of an action table."""

    def images(u: int):
        pts = to_list(u)
        for row in rows:
            yield image_mask(row, pts)

    return images


def _check_strict(size: int, basisU: SetFamily, basisV: SetFamily) -> None:
    membersU = set(basisU.members)
    for x in range(size):
        if (1 << x) not in membersU:
            raise InstanceError(f"strict mode: singleton {{{x}}} missing from basisU")
    if 1 not in set(basisV.members):
        raise InstanceError("strict mode: {identity} missing from basisV")


def build_instance(
    group: Group,
    size: int,
    act,
    seedsU,
    seedsV,
    mode: str,
    name: str = "",
) -> ActionInstance:
    """Validate the action, close both families, and assemble an instance.

    ``seedsU``/``seedsV`` are bitmasks.  X is always appended to the U-family
    and G to the V-family, so the top pair (X, G) is always addressable.
    """
    if mode not in MODES:
        raise InstanceError(f"unknown mode {mode!r}")
    rows = _validate_action(group, size, act)
    basisU = close_family(seedsU, _translates(rows), universe(size))
    basisV = close_neighborhood_family(seedsV, group)
    if mode == "strict":
        _check_strict(size, basisU, basisV)
    return ActionInstance(group, size, rows, basisU, basisV, mode, name)


def instance_from_families(
    group: Group,
    size: int,
    act,
    membersU,
    membersV,
    mode: str,
    name: str = "",
) -> ActionInstance:
    """Assemble an instance from already-ordered families, without re-closing.

    Used for relativized sub-spaces whose basis enumeration must be taken
    verbatim.  The full point set must be the last U-member and the full group
    the last V-member.  In strict mode the U-family must also be
    translation-closed, and a violation is an internal error.
    """
    if mode not in MODES:
        raise InstanceError(f"unknown mode {mode!r}")
    rows = _validate_action(group, size, act)
    membersU = tuple(membersU)
    membersV = tuple(membersV)
    if not membersU or membersU[-1] != universe(size):
        raise InstanceError("U-family must end with the full point set")
    if not membersV or membersV[-1] != group.full:
        raise InstanceError("V-family must end with the full group")
    if len(set(membersU)) != len(membersU) or len(set(membersV)) != len(membersV):
        raise InstanceError("families must be duplicate-free")
    basisU = SetFamily(membersU)
    basisV = SetFamily(membersV)
    if mode == "strict":
        _check_strict(size, basisU, basisV)
        if len(close_family(membersU, _translates(rows), universe(size))) != len(membersU):
            raise RuntimeError("relativized U-family is not translation-closed")
    return ActionInstance(group, size, rows, basisU, basisV, mode, name)


# ---------------------------------------------------------------------------
# templates


def make_cyclic_self(n: int, name: str = "") -> ActionInstance:
    """Z/n acting on itself by addition, with the standard small seeds."""
    g = cyclic_group(n)
    act = [[(i + x) % n for x in range(n)] for i in range(n)]
    seedsU = [mask_of([0, 1 % n])]
    seedsV = [symmetric_closure(1 << (1 % n), g)]
    return build_instance(g, n, act, seedsU, seedsV, "exploratory", name or f"z{n}self")


def make_swap_fix(name: str = "swapfix") -> ActionInstance:
    """Z/2 on four points swapping 0 and 1 and fixing 2, 3; strict families."""
    g = cyclic_group(2)
    act = [[0, 1, 2, 3], [1, 0, 2, 3]]
    seedsU = [1 << x for x in range(4)]
    seedsV = [1, 3]
    return build_instance(g, 4, act, seedsU, seedsV, "strict", name)


def make_z4_coarse(name: str = "z4coarse") -> ActionInstance:
    """Z/4 self-action with the coarsest U-family {X} and V = {{0,1,3}, G}."""
    g = cyclic_group(4)
    act = [[(i + x) % 4 for x in range(4)] for i in range(4)]
    return build_instance(g, 4, act, [], [symmetric_closure(1 << 1, g)], "exploratory", name)


def make_z4_pairs(name: str = "z4pairs") -> ActionInstance:
    """Z/4 self-action with paired U-seeds {0,1},{2,3} and V-seed {2}."""
    g = cyclic_group(4)
    act = [[(i + x) % 4 for x in range(4)] for i in range(4)]
    seedsU = [mask_of([0, 1]), mask_of([2, 3])]
    seedsV = [1 << 2]
    return build_instance(g, 4, act, seedsU, seedsV, "exploratory", name)


def make_coset_action(
    group: Group,
    subgroup_mask: int,
    seedsU=None,
    seedsV=None,
    mode: str = "strict",
    name: str = "",
) -> ActionInstance:
    """Left translation on the left cosets of a subgroup.

    Cosets are numbered in first-seen order scanning elements 0..order-1, so
    the coset of the identity is point 0.  The default seeds (all singletons,
    {identity}) give a strict instance.
    """
    if not is_subgroup(subgroup_mask, group):
        raise InstanceError("subgroup mask is not a subgroup")
    coset_of = [-1] * group.order
    reps: list[int] = []
    for e in range(group.order):
        if coset_of[e] >= 0:
            continue
        idx = len(reps)
        reps.append(e)
        for h in bits(subgroup_mask):
            coset_of[group.mul[e][h]] = idx
    size = len(reps)
    act = [[coset_of[group.mul[g][r]] for r in reps] for g in range(group.order)]
    if seedsU is None:
        seedsU = [1 << x for x in range(size)]
    if seedsV is None:
        seedsV = [1]
    return build_instance(group, size, act, seedsU, seedsV, mode, name)


def make_product(a: ActionInstance, b: ActionInstance, name: str = "") -> ActionInstance:
    """Direct-product group acting on the disjoint union of the point sets.

    U-seeds are the embedded members of both U-families; V-seeds are the
    pairwise products of the two V-families.  The result is strict exactly
    when both factors are strict.
    """
    g = direct_product(a.group, b.group)
    nb = b.group.order
    size = a.size + b.size
    act = []
    for i in range(a.group.order):
        for j in range(b.group.order):
            row = [a.act[i][x] for x in range(a.size)]
            row += [a.size + b.act[j][x] for x in range(b.size)]
            act.append(row)
    seedsU = [u for u in a.basisU.members[:-1]]
    seedsU += [
        mask_of(a.size + x for x in to_list(u)) for u in b.basisU.members[:-1]
    ]
    seedsV = []
    for va in a.basisV.members:
        for vb in b.basisV.members:
            m = 0
            for i in bits(va):
                for j in bits(vb):
                    m |= 1 << (i * nb + j)
            seedsV.append(m)
    mode = "strict" if a.mode == "strict" and b.mode == "strict" else "exploratory"
    return build_instance(g, size, act, seedsU, seedsV, mode, name or f"{a.name}*{b.name}")


def _group_catalogue(max_order: int) -> list[Group]:
    groups: list[Group] = [cyclic_group(n) for n in range(2, max_order + 1)]
    z2 = cyclic_group(2)
    if max_order >= 4:
        groups.append(direct_product(z2, z2))
    if max_order >= 6:
        groups.append(symmetric_group_3())
    if max_order >= 8:
        groups.append(direct_product(z2, cyclic_group(4)))
        groups.append(dihedral_group(4))
    return groups


def make_random(
    seed: int,
    max_group: int = 8,
    max_points: int = 12,
    max_u: int = 24,
    max_v: int = 6,
    strict: bool = False,
    name: str = "",
) -> ActionInstance:
    """A deterministic pseudo-random instance within the given bounds.

    The space is a disjoint union of coset actions (subgroups drawn at
    random, so fixed points and regular blocks both occur).  Seeds are
    re-drawn deterministically until the closed families fit the caps.
    """
    rng = random.Random(f"orbitpieces:{seed}:{int(strict)}")
    group = rng.choice(_group_catalogue(max_group))
    order = group.order
    subgroups = all_subgroups(group)
    if strict and max_points > 8:
        max_points = 8

    target = rng.randint(2, max_points)
    blocks: list[list[list[int]]] = []
    size = 0
    while size < target:
        room = target - size
        options = [h for h in subgroups if order // h.bit_count() <= room]
        if not options:
            break
        h = rng.choice(options)
        block = make_coset_action(group, h, seedsU=[], seedsV=[1], mode="exploratory")
        blocks.append([list(row) for row in block.act])
        size += block.size
    if not blocks:
        blocks.append([[0] for _ in range(order)])
        size = 1
    act = []
    for g in range(order):
        row: list[int] = []
        off = 0
        for b in blocks:
            row += [off + v for v in b[g]]
            off += len(b[0])
        act.append(row)

    full = universe(size)

    def random_point_set(max_sz: int) -> int:
        k = rng.randint(1, max_sz)
        return mask_of(rng.sample(range(size), min(k, size)))

    if strict:
        seedsU = [1 << x for x in range(size)]
        if rng.random() < 0.4:
            extra = random_point_set(max(2, size // 2))
            trial = close_family(seedsU + [extra], _translates(act), full)
            if len(trial) <= max_u:
                seedsU.append(extra)
        seedsV = [1]
        if rng.random() < 0.5:
            extra_v = symmetric_closure(mask_of(rng.sample(range(order), 1)), group)
            trial_v = close_neighborhood_family(seedsV + [extra_v], group)
            if len(trial_v) <= max_v:
                seedsV.append(extra_v)
        mode = "strict"
    else:
        seedsU = []
        for _ in range(rng.randint(1, 3)):
            seedsU.append(random_point_set(max(2, size // 2)))
        while True:
            trial = close_family(seedsU, _translates(act), full)
            if len(trial) <= max_u or not seedsU:
                break
            seedsU.pop()
        seedsV = []
        for _ in range(rng.randint(1, 2)):
            seedsV.append(symmetric_closure(mask_of(rng.sample(range(order), rng.randint(1, 2))), group))
        while True:
            trial_v = close_neighborhood_family(seedsV, group)
            if len(trial_v) <= max_v or not seedsV:
                break
            seedsV.pop()
        mode = "exploratory"

    label = name or (f"strict{seed}" if strict else f"random{seed}")
    return build_instance(group, size, act, seedsU, seedsV, mode, label)


def named_instance(key: str) -> ActionInstance:
    """The four built-in instances used throughout the docs and tests."""
    builders = {
        "z4self": lambda: make_cyclic_self(4, "z4self"),
        "swapfix": make_swap_fix,
        "z4coarse": make_z4_coarse,
        "z4pairs": make_z4_pairs,
    }
    if key not in builders:
        raise InstanceError(f"unknown instance name {key!r}")
    return builders[key]()


NAMED_INSTANCES = ("z4self", "swapfix", "z4coarse", "z4pairs")
