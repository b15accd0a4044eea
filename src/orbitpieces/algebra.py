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
from operator import itemgetter

from .bits import bits, is_subset, to_list, universe


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
            if type(v) is not int or not 0 <= v < n:
                raise GroupError(f"entry {v!r} in row {g} out of range")


def _find_identity(mul: list[list[int]]) -> int:
    n = len(mul)
    for e in range(n):
        if all(mul[e][h] == h and mul[h][e] == h for h in range(n)):
            return e
    raise GroupError("no identity element")


def generating_set(mul) -> list[int]:
    """A generating set of the table with the identity at index 0.

    Elements are picked greedily in index order: each pick is the least
    element not yet reached from the identity by right multiplication by the
    earlier picks, and the reached set is then closed again under every pick
    so far (``_closure``).  Every element is therefore a left-nested product
    (((e·s₁)·s₂)·…) of picks, whether or not the table is associative.
    """
    gens: list[int] = []
    reached = 1  # {identity}
    for g in range(1, len(mul)):
        if not reached >> g & 1:
            gens.append(g)
            reached = _closure(reached, gens, mul)
    return gens


def _inverses(mul) -> list[int]:
    """The inverse of every element of a table whose identity is element 0.

    The candidate for g is the first h with gh = e, ``row.index(0)``, and it is
    kept only if hg = e as well.  With an associative finite table this is the
    first two-sided inverse: if gh = e then g is invertible, so h is its only
    right inverse, and hg = e.
    """
    inv = []
    for g, row in enumerate(mul):
        h = row.index(0) if 0 in row else -1
        if h < 0 or mul[h][g] != 0:
            raise GroupError(f"element {g} has no inverse")
        inv.append(h)
    return inv


def group_from_table(mul_rows, name: str = "G") -> Group:
    """Build and fully validate a group from a multiplication table.

    The identity is located and, if necessary, the elements are relabelled so
    that it sits at index 0.  Associativity is checked as (ab)c = a(bc) for
    all a, b and every c in ``generating_set`` (Light's test): the set of c
    for which it holds contains the identity and is closed under products,
    since (ab)(cd) = ((ab)c)d = (a(bc))d = a((bc)d) = a(b(cd)) when c and d
    are in it, so holding on the generators it holds on the whole table.

    The test runs one whole row per (a, c): with col_c[x] = xc, the row
    b ↦ (ab)c is col_c read at row_a, and b ↦ a(bc) is row_a read at col_c,
    each one ``itemgetter`` call.  On a mismatch row a is rescanned in
    (b, c) order, so the error names the same first (a, b, c) as a
    triple loop over a, b and c would.  Inverses are then checked for every
    element (``_inverses``).
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
    gens = generating_set(mul)
    # col_c and its reader per generator; none when n = 1
    cols = [(col, itemgetter(*col)) for col in ([row[c] for row in mul] for c in gens)]
    for a, row_a in enumerate(mul):
        read_a = itemgetter(*row_a)
        for col, read_col in cols:
            if read_a(col) != read_col(row_a):
                b, c = next((b, c) for b in range(n) for c in gens
                            if mul[row_a[b]][c] != row_a[mul[b][c]])
                raise GroupError(f"associativity fails at ({a},{b},{c})")
    return Group(tuple(tuple(r) for r in mul), tuple(_inverses(mul)), name)


# `group_from_generators` refuses larger groups, reading this at call time:
# the table has |G|² entries.  Timed through `orbitpieces validate` on the regular action,
# 2-core VM: S6 (720) 0.8 s and 32 MB, Z2×S6 (1,440) 3.2 s and 70 MB, A7 (2,520)
# 19.5 s and 168 MB; S7 (5,040) would build a 25-million-entry table.
MAX_GENERATED_ORDER = 1440


def group_from_generators(generators, name: str = "G") -> Group:
    """The permutation group generated by the given permutations.

    Elements are enumerated breadth-first from the identity, so the identity
    lands at index 0 and the ordering is deterministic in the generator list.
    Each later element q is first reached as gens[i]∘elems[p] with p < q, so
    row q of the table is row p mapped through left multiplication by gens[i].
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        raise GroupError("no generators")
    degree = len(gens[0])
    for i, g in enumerate(gens):
        if len(g) != degree:
            raise GroupError(f"generator {i} has degree {len(g)}, expected {degree}")
        if any(type(p) is not int for p in g) or sorted(g) != list(range(degree)):
            raise GroupError(f"generator {i} is not a permutation")
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    left: list[list[int]] = [[] for _ in gens]  # left[i][p]: index of gens[i]∘elems[p]
    parents: list[tuple[int, int]] = []  # parents[q - 1]: elems[q] is gens[i]∘elems[p]
    for p, e in enumerate(elems):  # elems grows during the walk: a BFS queue
        for i, g in enumerate(gens):
            q = tuple(g[y] for y in e)  # (g∘e)(x) = g(e(x)), as in (gh)x = g(hx)
            j = index.get(q)
            if j is None:
                j = index[q] = len(elems)
                elems.append(q)
                parents.append((i, p))
                if len(elems) > MAX_GENERATED_ORDER:
                    raise GroupError(
                        f"generated group exceeds the size cap of {MAX_GENERATED_ORDER} elements"
                    )
            left[i].append(j)
    mul = [list(range(len(elems)))]
    for i, p in parents:
        row = left[i]
        mul.append([row[c] for c in mul[p]])
    return group_from_table(mul, name)


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


def _closure(start: int, gens, mul) -> int:
    """The closure of the element set ``start`` under right multiplication by
    every element of ``gens``, breadth first.

    Started from a subgroup H (or from {e}), this is ⟨H, gens⟩: the closure is
    the submonoid generated, and in a finite group every element's inverse is
    one of its powers.
    """
    k = start
    frontier = to_list(start)
    while frontier:
        new = []
        for p in frontier:
            row = mul[p]
            for s in gens:
                q = row[s]
                if not k >> q & 1:
                    k |= 1 << q
                    new.append(q)
        frontier = new
    return k


def all_subgroups(g: Group) -> list[int]:
    """Every subgroup of g as a bitmask, ordered by (size, mask value).

    Cyclic extension (Neubüser 1960): every subgroup is generated by its
    cyclic subgroups, so starting from the distinct ⟨e⟩ and joining each
    subgroup found with each cyclic subgroup it does not contain reaches all
    of them.  A join ⟨H, e⟩ is the ``_closure`` of H under H's kept
    generators and e.  The cost is about (#subgroups) × (#cyclic subgroups)
    joins of at most |G| × (#generators) products each, not 2^|G| masks: S5
    (156 subgroups, 67 cyclic) takes well under a second.
    """
    mul = g.mul
    cyclic: dict[int, int] = {}  # ⟨e⟩ -> e, for the least e generating it
    for e in range(g.order):
        cyclic.setdefault(_closure(1, (e,), mul), e)
    gens_of = {m: (e,) for m, e in cyclic.items()}
    todo = list(gens_of)
    while todo:
        h = todo.pop()
        gens = gens_of[h]
        for e in cyclic.values():
            if h >> e & 1:
                continue
            joined = gens + (e,)
            k = _closure(h, joined, mul)
            if k not in gens_of:
                gens_of[k] = joined
                todo.append(k)
    return sorted(gens_of, key=lambda m: (m.bit_count(), m))


def subgroup_closure(seed: int, g: Group) -> int:
    """The subgroup generated by the elements of ``seed``."""
    return _closure(1, tuple(bits(seed)), g.mul)


@dataclass(frozen=True, eq=False)
class SetFamily:
    """Ordered duplicate-free family of bitmask sets with its full set last.

    Both basis families of an instance use it: translation-closed point sets
    (U) and conjugation-closed identity neighbourhoods (V).
    """

    members: tuple[int, ...]
    _index: dict = field(repr=False, default_factory=dict)
    _subsets: list = field(repr=False, default_factory=list)

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

    @property
    def subsets(self) -> list[tuple[int, ...]]:
        """For each member, the indices of the members inside it, ascending.

        Built on first read into a field: a ``cached_property`` would add a
        key to the instance dict, and every later attribute read of the
        family (``members`` on each index) would run about 25% slower.
        """
        if not self._subsets:
            members = self.members
            self._subsets.extend(
                tuple(i for i, s in enumerate(members) if is_subset(s, m)) for m in members
            )
        return self._subsets


def close_family(seeds, images, full: int) -> SetFamily:
    """Close the seeds under ``images(member)``, in first-seen order.

    Seeds come first (in input order), then new images found by scanning the
    members in order; the full set is never kept mid-list and is appended last.

    Precondition: ``images(m)`` yields the whole G-orbit of m, m included (the
    translates of a point set under every action row, or the conjugates of an
    element set under every group element).  A member is then expanded only
    if no earlier member of its orbit was: its images would be that orbit
    again, every set of which was pushed when the orbit was first expanded,
    so skipping it pushes nothing and the first-seen order is unchanged.
    ``images`` is called once per orbit that meets the seeds, not once per
    member.
    """
    ordered: list[int] = []
    seen = {full}
    expanded: set[int] = set()  # the members of every orbit expanded so far

    def push(masks) -> None:
        for m in masks:
            if m not in seen:
                seen.add(m)
                ordered.append(m)

    push(seeds)
    # every member after the seeds was pushed by an expansion, so only a seed
    # can start a new orbit
    for m in tuple(ordered):
        if m not in expanded:
            orb = list(images(m))
            expanded.update(orb)
            push(orb)
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
