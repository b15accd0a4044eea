"""Finite groups as multiplication tables, plus identity-neighbourhood families.

Group elements are indices ``0..order-1`` with the identity always at index 0
(tables are relabelled at build time if needed).  Subsets of the group
("element sets") are int bitmasks, as everywhere else in this package.

A neighbourhood family is an ordered, duplicate-free list of symmetric element
sets containing the identity, closed under conjugation by every group element.
The ordering is the deterministic first-seen order of the closure scan: seeds
first (in input order), then conjugates discovered by scanning members in
order against elements in index order, with the full group kept out of the
middle of the list and appended last.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bits import bits, universe


class GroupError(ValueError):
    """A multiplication table or generator list violates the group axioms."""


@dataclass(frozen=True, eq=False)
class Group:
    """A finite group given by its full multiplication and inverse tables.

    ``mul[g][h]`` is the product g*h; ``inv[g]`` the inverse of g.  Identity
    is element 0.  Instances compare and hash by identity (they are built
    once and shared).
    """

    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    name: str = "G"

    @property
    def order(self) -> int:
        return len(self.inv)

    @property
    def full(self) -> int:
        """Bitmask of all elements."""
        return universe(self.order)

    def conjugate_element(self, g: int, h: int) -> int:
        """h * g * h^-1."""
        return self.mul[self.mul[h][g]][self.inv[h]]


def _validate_table(mul: list[list[int]]) -> None:
    n = len(mul)
    if n == 0:
        raise GroupError("empty multiplication table")
    for g, row in enumerate(mul):
        if len(row) != n:
            raise GroupError(f"row {g} has length {len(row)}, expected {n}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise GroupError(f"entry {v!r} in row {g} out of range")


def _find_identity(mul: list[list[int]]) -> int:
    n = len(mul)
    for e in range(n):
        if all(mul[e][h] == h and mul[h][e] == h for h in range(n)):
            return e
    raise GroupError("no identity element")


def group_from_table(mul_rows, name: str = "G") -> Group:
    """Build and fully validate a group from a multiplication table.

    The identity is located and, if necessary, the elements are relabelled so
    that it sits at index 0.  Associativity and existence of inverses are
    checked exhaustively.
    """
    mul = [list(row) for row in mul_rows]
    _validate_table(mul)
    n = len(mul)
    e = _find_identity(mul)
    if e != 0:
        # swap labels 0 and e
        p = list(range(n))
        p[0], p[e] = e, 0
        new = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                new[p[a]][p[b]] = p[mul[a][b]]
        mul = new
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            for c in range(n):
                if mul[ab][c] != mul[a][mul[b][c]]:
                    raise GroupError(
                        f"associativity fails at ({a},{b},{c})"
                    )
    inv = [-1] * n
    for g in range(n):
        for h in range(n):
            if mul[g][h] == 0 and mul[h][g] == 0:
                inv[g] = h
                break
        else:
            raise GroupError(f"element {g} has no inverse")
    return Group(tuple(tuple(r) for r in mul), tuple(inv), name)


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(x) = p(q(x)), matching the action convention (gh)x = g(hx)
    return tuple(p[q[x]] for x in range(len(p)))


def group_from_generators(generators, name: str = "G", max_order: int = 10000) -> Group:
    """The permutation group generated by the given permutations.

    Elements are enumerated breadth-first from the identity, so the identity
    lands at index 0 and the ordering is deterministic in the generator list.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        raise GroupError("no generators")
    degree = len(gens[0])
    for i, g in enumerate(gens):
        if len(g) != degree:
            raise GroupError(f"generator {i} has degree {len(g)}, expected {degree}")
        if sorted(g) != list(range(degree)):
            raise GroupError(f"generator {i} is not a permutation")
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _perm_mul(g, p)
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
                    if len(elems) > max_order:
                        raise GroupError("generated group exceeds size cap")
        frontier = nxt
    n = len(elems)
    mul = [[index[_perm_mul(elems[a], elems[b])] for b in range(n)] for a in range(n)]
    return group_from_table(mul, name)


def build_group(spec, name: str = "G") -> Group:
    """Dispatch on a group description: {"mul": table} or {"generators": perms}."""
    if isinstance(spec, dict):
        if "mul" in spec:
            return group_from_table(spec["mul"], name)
        if "generators" in spec:
            return group_from_generators(spec["generators"], name)
        raise GroupError("group spec needs 'mul' or 'generators'")
    return group_from_table(spec, name)


# ---------------------------------------------------------------------------
# element-set operations


def symmetric_closure(seed: int, g: Group) -> int:
    """seed ∪ seed⁻¹ ∪ {identity}, as an element bitmask."""
    m = seed | 1
    for e in bits(seed):
        m |= 1 << g.inv[e]
    return m


def conjugate(v: int, h: int, g: Group) -> int:
    """The conjugate h·V·h⁻¹ of an element set V."""
    m = 0
    for e in bits(v):
        m |= 1 << g.conjugate_element(e, h)
    return m


def is_subgroup(mask: int, g: Group) -> bool:
    if not mask & 1:
        return False
    for a in bits(mask):
        if not mask >> g.inv[a] & 1:
            return False
        row = g.mul[a]
        for b in bits(mask):
            if not mask >> row[b] & 1:
                return False
    return True


def all_subgroups(g: Group) -> list[int]:
    """Every subgroup of g as a bitmask, ordered by (size, mask value).

    Exhaustive scan over submasks; intended for the desk-scale orders
    (≤ 8) this package works at.
    """
    out = [m for m in range(1, g.full + 1) if m & 1 and is_subgroup(m, g)]
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def subgroup_closure(seed: int, g: Group) -> int:
    """The subgroup generated by the elements of ``seed``."""
    cur = seed | 1
    while True:
        nxt = cur
        for a in bits(cur):
            nxt |= 1 << g.inv[a]
            row = g.mul[a]
            for b in bits(cur):
                nxt |= 1 << row[b]
        if nxt == cur:
            return cur
        cur = nxt


@dataclass(frozen=True, eq=False)
class SetFamily:
    """Ordered duplicate-free family of bitmask sets with its full set last.

    Both basis families of an instance use it: translation-closed point sets
    (U) and conjugation-closed identity neighbourhoods (V).
    """

    members: tuple[int, ...]
    _index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self._index.update({m: i for i, m in enumerate(self.members)})

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> int:
        return self.members[i]

    def index(self, mask: int) -> int:
        return self._index[mask]


def close_family(seeds, images, full: int) -> SetFamily:
    """Close the seeds under ``images(member)``, in first-seen order.

    Seeds come first (in input order), then new images found by scanning the
    members in order; the full set is never kept mid-list and is appended last.
    """
    ordered: list[int] = []
    seen = {full}

    def push(masks) -> None:
        for m in masks:
            if m not in seen:
                seen.add(m)
                ordered.append(m)

    push(seeds)
    i = 0
    while i < len(ordered):
        push(images(ordered[i]))
        i += 1
    ordered.append(full)
    return SetFamily(tuple(ordered))


def close_neighborhood_family(seeds, g: Group) -> SetFamily:
    """Symmetrize the seeds and close under conjugation by every element."""
    return close_family(
        [symmetric_closure(s, g) for s in seeds],
        lambda v: (conjugate(v, h, g) for h in range(g.order)),
        g.full,
    )


# ---------------------------------------------------------------------------
# a small catalogue of concrete groups


def cyclic_group(n: int) -> Group:
    if n < 1:
        raise GroupError("cyclic group needs n >= 1")
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(mul, f"Z{n}")


def symmetric_group_3() -> Group:
    return group_from_generators([(1, 0, 2), (0, 2, 1)], "S3")


def dihedral_group(n: int) -> Group:
    """The symmetry group of the regular n-gon (order 2n), n >= 2."""
    if n < 2:
        raise GroupError("dihedral group needs n >= 2")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return group_from_generators([rot, ref], f"D{n}")


def direct_product(a: Group, b: Group) -> Group:
    """Direct product; element (i, j) gets index i*|b| + j, identity at 0."""
    nb = b.order
    n = a.order * nb
    mul = [[0] * n for _ in range(n)]
    for i1 in range(a.order):
        for j1 in range(nb):
            e1 = i1 * nb + j1
            for i2 in range(a.order):
                for j2 in range(nb):
                    mul[e1][i2 * nb + j2] = a.mul[i1][i2] * nb + b.mul[j1][j2]
    return group_from_table(mul, f"{a.name}x{b.name}")
