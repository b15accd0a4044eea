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
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

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

# `build_instance` refuses more cells (U, V) than this: `analyze` and the
# oracle suites grow faster than the square of the cell count.  `orbitpieces
# report` on Z/32 with interval windows of lengths 2..k+1 and V seeds {±1},
# {±2}, 2-core VM: 195 cells 0.34 s and 25 MB, 387 cells 0.62 s and 33 MB,
# 771 cells 2.3 s and 86 MB, 1,539 cells 11 s and 361 MB, 2,307 cells 36 s
# and 1.1 GB.  The benchmark, golden and test instances have at most 200.
MAX_CELLS = 1600


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
    _orbits: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    # the ``saturation`` memos, filled on demand: instances are immutable, so
    # a memo lives exactly as long as its instance
    _images: dict = field(default_factory=dict, repr=False, compare=False)
    _reach: dict = field(default_factory=dict, repr=False, compare=False)
    _partitions: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def full_points(self) -> int:
        return universe(self.size)

    @property
    def orbits(self) -> tuple[int, ...]:
        """The G-orbit mask of every point, ``orbits[x]`` = G·x.

        Built on first read, one column scan of the action table per orbit:
        the orbit of x is read off column x and stored for all its points.
        It is kept in a declared field, since a key added to the instance
        dict after construction would slow every later attribute read.
        """
        if self._orbits is None:
            out = [0] * self.size
            for x in range(self.size):
                if not out[x]:
                    m = 0
                    for row in self.act:
                        m |= 1 << row[x]
                    for p in to_list(m):
                        out[p] = m
            object.__setattr__(self, "_orbits", tuple(out))
        return self._orbits


def translate_set(inst: ActionInstance, a: int, g: int) -> int:
    """Pointwise image g·A of a point set under one group element."""
    return image_mask(inst.act[g], to_list(a))


def orbit(inst: ActionInstance, x: int) -> int:
    """The global orbit G·x, read from the instance's orbit table."""
    return inst.orbits[x]


def _validate_action(group: Group, size: int, act) -> tuple[tuple[int, ...], ...]:
    """Check that ``act`` is a permutation action of ``group``; return its rows.

    Every row must be a permutation of the points, the identity row the
    identity map, and (gh)x = g(hx) must hold for every generator g, every h
    and every x.  The last check compares a whole row at a time: the row
    x ↦ g(hx) is row_g read at row_h, against row_gh.  A mismatching row is
    rescanned in x order, so the error names the same first (g, h, x) as a
    loop over single points would.
    """
    if size < 1:
        raise InstanceError("space must have at least one point")
    rows = [tuple(r) for r in act]
    if len(rows) != group.order:
        raise InstanceError(
            f"action table has {len(rows)} rows, expected {group.order}"
        )
    points = range(size)
    point_set = set(points)
    for g, row in enumerate(rows):
        if len(row) != size or set(row) != point_set:
            raise InstanceError(f"action row for element {g} is not a permutation")
    if rows[0] != tuple(points):
        raise InstanceError("identity element does not act as the identity map")
    # (gh)x = g(hx) for every generator g suffices: with an associative
    # table, the g for which it holds for all h are closed under products.
    # With one point every row is (0,), and itemgetter would return a scalar.
    reads = [itemgetter(*row) for row in rows] if size > 1 else []
    for g in generating_set(group.mul):
        row_g, mul_g = rows[g], group.mul[g]
        for h, read_h in enumerate(reads):
            row_gh = rows[mul_g[h]]
            if read_h(row_g) != row_gh:
                x = next(x for x in points if row_g[rows[h][x]] != row_gh[x])
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


def _checked_rows(group: Group, size: int, act, mode: str) -> tuple[tuple[int, ...], ...]:
    """Refuse an unknown mode, then validate the action; return its rows."""
    if mode not in MODES:
        raise InstanceError(f"unknown mode {mode!r}")
    return _validate_action(group, size, act)


def _assemble(group: Group, size: int, rows, basisU: SetFamily, basisV: SetFamily,
              mode: str, name: str) -> ActionInstance:
    """The instance over checked rows and closed families.

    Families with more than ``MAX_CELLS`` cells |𝒰|·|𝒱| are refused, and in
    strict mode every singleton {x} must be a U-member and {identity} a
    V-member.
    """
    cells = len(basisU) * len(basisV)
    if cells > MAX_CELLS:
        raise InstanceError(
            f"the families have {len(basisU)} U-members and {len(basisV)} V-members, "
            f"{cells} cells; at most {MAX_CELLS} are accepted"
        )
    if mode == "strict":
        membersU = set(basisU.members)
        for x in range(size):
            if (1 << x) not in membersU:
                raise InstanceError(f"strict mode: singleton {{{x}}} missing from basisU")
        if 1 not in basisV.members:
            raise InstanceError("strict mode: {identity} missing from basisV")
    return ActionInstance(group, size, rows, basisU, basisV, mode, name)


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
    Families closing to more than ``MAX_CELLS`` cells |𝒰|·|𝒱| are refused.
    """
    rows = _checked_rows(group, size, act, mode)
    basisU = close_family(seedsU, _translates(rows), universe(size))
    basisV = close_neighborhood_family(seedsV, group)
    return _assemble(group, size, rows, basisU, basisV, mode, name)


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
    translation-closed, and a violation is an internal error.  Families with
    more than ``MAX_CELLS`` cells are refused, as by ``build_instance``.
    """
    rows = _checked_rows(group, size, act, mode)
    membersU = tuple(membersU)
    membersV = tuple(membersV)
    if not membersU or membersU[-1] != universe(size):
        raise InstanceError("U-family must end with the full point set")
    if not membersV or membersV[-1] != group.full:
        raise InstanceError("V-family must end with the full group")
    if len(set(membersU)) != len(membersU) or len(set(membersV)) != len(membersV):
        raise InstanceError("families must be duplicate-free")
    inst = _assemble(group, size, rows, SetFamily(membersU), SetFamily(membersV), mode, name)
    if mode == "strict":
        if len(close_family(membersU, _translates(rows), universe(size))) != len(membersU):
            raise RuntimeError("relativized U-family is not translation-closed")
    return inst


# ---------------------------------------------------------------------------
# templates


def make_cyclic_self(n: int) -> ActionInstance:
    """Z/n acting on itself by addition, with the standard small seeds."""
    g = cyclic_group(n)
    act = [[(i + x) % n for x in range(n)] for i in range(n)]
    seedsU = [mask_of([0, 1 % n])]
    seedsV = [symmetric_closure(1 << (1 % n), g)]
    return build_instance(g, n, act, seedsU, seedsV, "exploratory", f"z{n}self")


def make_swap_fix() -> ActionInstance:
    """Z/2 on four points swapping 0 and 1 and fixing 2, 3; strict families."""
    g = cyclic_group(2)
    act = [[0, 1, 2, 3], [1, 0, 2, 3]]
    seedsU = [1 << x for x in range(4)]
    seedsV = [1, 3]
    return build_instance(g, 4, act, seedsU, seedsV, "strict", "swapfix")


def make_z4_coarse() -> ActionInstance:
    """Z/4 self-action with the coarsest U-family {X} and V = {{0,1,3}, G}."""
    g = cyclic_group(4)
    act = [[(i + x) % 4 for x in range(4)] for i in range(4)]
    return build_instance(g, 4, act, [], [symmetric_closure(1 << 1, g)], "exploratory", "z4coarse")


def make_z4_pairs() -> ActionInstance:
    """Z/4 self-action with paired U-seeds {0,1},{2,3} and V-seed {2}."""
    g = cyclic_group(4)
    act = [[(i + x) % 4 for x in range(4)] for i in range(4)]
    seedsU = [mask_of([0, 1]), mask_of([2, 3])]
    seedsV = [1 << 2]
    return build_instance(g, 4, act, seedsU, seedsV, "exploratory", "z4pairs")


def _coset_rows(group: Group, subgroup_mask: int) -> list[list[int]]:
    """The action table of left translation on the left cosets of a subgroup.

    Cosets are numbered in first-seen order scanning elements 0..order-1, so
    the coset of the identity is point 0.
    """
    coset_of = [-1] * group.order
    reps: list[int] = []
    for e in range(group.order):
        if coset_of[e] >= 0:
            continue
        idx = len(reps)
        reps.append(e)
        for h in bits(subgroup_mask):
            coset_of[group.mul[e][h]] = idx
    return [[coset_of[group.mul[g][r]] for r in reps] for g in range(group.order)]


def make_coset_action(group: Group, subgroup_mask: int, name: str = "") -> ActionInstance:
    """Left translation on the left cosets of a subgroup (``_coset_rows``),
    strict, with the singletons and {identity} as seeds."""
    if not is_subgroup(subgroup_mask, group):
        raise InstanceError("subgroup mask is not a subgroup")
    act = _coset_rows(group, subgroup_mask)
    size = len(act[0])
    return build_instance(group, size, act, [1 << x for x in range(size)], [1], "strict", name)


def make_product(a: ActionInstance, b: ActionInstance) -> ActionInstance:
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
    return build_instance(g, size, act, seedsU, seedsV, mode, f"{a.name}*{b.name}")


def _group_catalogue(max_order: int) -> list[Callable[[], Group]]:
    """Builders of the groups ``make_random`` draws from, so that only the
    drawn one is built."""
    builders = [partial(cyclic_group, n) for n in range(2, max_order + 1)]
    if max_order >= 4:
        builders.append(lambda: direct_product(cyclic_group(2), cyclic_group(2)))
    if max_order >= 6:
        builders.append(symmetric_group_3)
    if max_order >= 8:
        builders.append(lambda: direct_product(cyclic_group(2), cyclic_group(4)))
        builders.append(partial(dihedral_group, 4))
    return builders


def make_random(seed: int, strict: bool = False) -> ActionInstance:
    """A deterministic pseudo-random instance, named ``random{seed}`` or
    ``strict{seed}``.

    The group has order at most 8 and the space 2-12 points (2-8 when
    strict): a disjoint union of coset actions (subgroups drawn at random,
    so fixed points and regular blocks both occur).  Seeds are dropped from
    the end until the closed families have at most 24 U-members and 6
    V-members; strict singletons and {identity} alone always fit, so only a
    strict instance's one extra seed can be dropped.
    """
    rng = random.Random(f"orbitpieces:{seed}:{int(strict)}")
    group = rng.choice(_group_catalogue(8))()
    order = group.order
    subgroups = all_subgroups(group)

    # G itself is a subgroup with one coset, so some block always fits
    target = rng.randint(2, 8 if strict else 12)
    act: list[list[int]] = [[] for _ in range(order)]
    size = 0
    while size < target:
        fits = [h for h in subgroups if order // h.bit_count() <= target - size]
        block = _coset_rows(group, rng.choice(fits))
        for row, block_row in zip(act, block):
            row += [size + v for v in block_row]
        size += len(block[0])

    def random_point_set(max_sz: int) -> int:  # max_sz <= size, as size >= 2
        return mask_of(rng.sample(range(size), rng.randint(1, max_sz)))

    if strict:
        seedsU = [1 << x for x in range(size)]
        if rng.random() < 0.4:
            seedsU.append(random_point_set(max(2, size // 2)))
        seedsV = [1]
        if rng.random() < 0.5:
            seedsV.append(symmetric_closure(mask_of(rng.sample(range(order), 1)), group))
        mode = "strict"
    else:
        seedsU = [random_point_set(max(2, size // 2)) for _ in range(rng.randint(1, 3))]
        seedsV = [
            symmetric_closure(mask_of(rng.sample(range(order), rng.randint(1, 2))), group)
            for _ in range(rng.randint(1, 2))
        ]
        mode = "exploratory"

    rows = _checked_rows(group, size, act, mode)
    while len(basisU := close_family(seedsU, _translates(rows), universe(size))) > 24:
        seedsU.pop()
    while len(basisV := close_neighborhood_family(seedsV, group)) > 6:
        seedsV.pop()
    label = f"strict{seed}" if strict else f"random{seed}"
    return _assemble(group, size, rows, basisU, basisV, mode, label)


_NAMED = {
    "z4self": partial(make_cyclic_self, 4),
    "swapfix": make_swap_fix,
    "z4coarse": make_z4_coarse,
    "z4pairs": make_z4_pairs,
}
NAMED_INSTANCES = tuple(_NAMED)


def named_instance(key: str) -> ActionInstance:
    """The four built-in instances used throughout the docs and tests."""
    if key not in _NAMED:
        raise InstanceError(f"unknown instance name {key!r}")
    return _NAMED[key]()
