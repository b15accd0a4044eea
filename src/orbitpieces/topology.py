"""Finite topologies, refined piece-generated families, and relative re-analysis.

A finite topology is stored as the minimal neighbourhood N(y) of each ground
point y (Alexandrov): N(y) is the intersection of all subbasis members
containing y (the ground set if there are none), a set is open exactly when it
contains N(y) for each of its points, and the opens are the unions of minimal
neighbourhoods.  The family of opens is never stored: ``FiniteTopology.opens``
is a read-only set view that answers membership from the neighbourhoods and
lists the opens in increasing order, at most 2^12 of them held at a time.

The refined family of a point x at level α collects the basic opens together
with every piece B_β(x', U, V) for 1 ≤ β < α and x' in the orbit of x; the
refined space is the top-cell piece of x carrying the topology this family
generates.  Relative re-analysis re-runs the piece engine on that subspace
with the relativized family enumeration taken verbatim.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

from .bits import bits, to_list, universe
from .gspace import (
    ActionInstance,
    _check_point,
    instance_from_families,
    orbit,
    translate_set,
)
from .scott import _BIT_BYTES, STABLE, PieceTable, analyze, piece


# An open-set listing branches on ground points until at most this many are
# undecided, then builds that branch's opens (at most 2^12) in one piece.
_CHUNK_POINTS = 12


def _is_open(ground: int, minimal: tuple[int, ...], s: int) -> bool:
    if s & ~ground:
        return False
    return all(not n & ~s for y, n in zip(bits(ground), minimal) if s >> y & 1)


class OpenSets(Set):
    """The opens of a finite topology as a read-only set that stores none of them.

    ``s in opens`` is ``is_open(s)``; a value that is not a non-negative int
    is not in it.  Iteration yields the opens in increasing integer order,
    each once.  It decides the ground points from the highest down, trying
    "p excluded" before "p included": including p adds N(p), excluding p
    excludes every z with p ∈ N(z).  Neither can conflict with an earlier
    choice, because z ∈ N(y) implies N(z) ⊆ N(y): N(y) is an open holding z
    and N(z) is the least one.  So an undecided p has no excluded point in
    N(p) and no included z with p ∈ N(z); the included points stay a union
    of neighbourhoods and the excluded ones stay closed upward.  An open of
    the "excluded" branch lacks p and agrees with every open of the
    "included" branch above p, so it is the smaller.  Once at most
    ``_CHUNK_POINTS`` points are undecided, the branch's opens are the
    included set joined with every union of the undecided points' N(q),
    built by set doubling and sorted.  ``len`` counts those chunks once per
    view.

    The view keeps ``ground`` and ``minimal``, not the topology, so it makes
    no reference cycle.
    """

    __slots__ = ("ground", "minimal", "_len")

    def __init__(self, ground: int, minimal: tuple[int, ...]):
        self.ground = ground
        self.minimal = minimal
        self._len = None

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __contains__(self, s) -> bool:
        return isinstance(s, int) and _is_open(self.ground, self.minimal, s)

    def __iter__(self):
        return chain.from_iterable(map(sorted, self._chunks()))

    def __len__(self) -> int:
        if self._len is None:
            self._len = sum(map(len, self._chunks()))
        return self._len

    def _chunks(self):
        """The opens as sets, each below every member of the next."""
        ground = self.ground
        nbhd = dict(zip(bits(ground), self.minimal))
        up = dict.fromkeys(nbhd, 0)  # up[p]: the z with p ∈ N(z)
        for z, n in nbhd.items():
            for p in bits(n):
                up[p] |= 1 << z
        stack = [(0, 0)]  # (included, excluded)
        while stack:
            inc, exc = stack.pop()
            free = ground & ~(inc | exc)
            if free.bit_count() <= _CHUNK_POINTS:
                opens = {inc}
                for q in bits(free):
                    opens |= set(map(nbhd[q].__or__, opens))
                yield opens
            else:
                p = free.bit_length() - 1
                stack.append((inc | nbhd[p], exc))
                stack.append((inc, exc | up[p]))


@dataclass(frozen=True)
class FiniteTopology:
    ground: int
    minimal: tuple[int, ...]  # N(y) for the ground points y in increasing order

    def is_open(self, s: int) -> bool:
        return _is_open(self.ground, self.minimal, s)

    @cached_property
    def opens(self) -> OpenSets:
        """Every open set (at most 2^k for k distinct minimal neighbourhoods),
        as a read-only view that lists them on demand; see ``OpenSets``."""
        return OpenSets(self.ground, self.minimal)


def minimal_neighborhood(ground: int, family, y: int) -> int:
    """The smallest set containing y generable from the family, inside ground."""
    out = ground
    for s in family:
        if s >> y & 1:
            out &= s
    return out


def generate_topology(ground: int, subbasis) -> FiniteTopology:
    """The topology on ``ground`` generated by the (relativized) subbasis."""
    rel = [s & ground for s in subbasis]
    return FiniteTopology(
        ground, tuple(minimal_neighborhood(ground, rel, y) for y in bits(ground))
    )


def _top_piece_level(table: PieceTable, alpha) -> int:
    """The highest piece level β < α that the refined family collects, capped
    at stabilization (STABLE gives stabilization).  A level that a piece
    lookup refuses is refused here too."""
    if isinstance(alpha, int) and alpha < 1:
        raise ValueError("refined families need level >= 1")
    table.resolve_level(alpha)
    return table.stabilization if alpha is STABLE else min(alpha - 1, table.stabilization)


def refined_family(table: PieceTable, x: int, alpha) -> list[int]:
    """ℬˣ_{<α}: the basic opens plus all pieces of orbit points below level α.

    Deterministic first-seen order: U-members first, then levels β = 1, 2, …
    (capped at stabilization), cells in (n, m) order, orbit points ascending.
    """
    inst = table.instance
    top_beta = _top_piece_level(table, alpha)
    orb = orbit(inst, x)
    out = list(inst.basisU.members)
    seen = set(out)
    for beta in range(1, top_beta + 1):
        data = table.levels[beta - 1]
        for ci, (n, m) in enumerate(table.cells):
            u = inst.basisU[n]
            pts = orb & u
            for y in bits(pts):
                for _, mask in data[ci]:
                    if mask >> y & 1:
                        if mask not in seen:
                            seen.add(mask)
                            out.append(mask)
                        break
    return out


def refined_space(table: PieceTable, x: int, alpha) -> tuple[int, FiniteTopology]:
    """The top-cell piece of x with the topology its refined family generates."""
    inst = table.instance
    u_idx = len(inst.basisU) - 1
    v_idx = len(inst.basisV) - 1
    ground = piece(table, x, u_idx, v_idx, alpha)
    for g in range(inst.group.order):
        if translate_set(inst, ground, g) != ground:
            raise RuntimeError("top-cell piece is not G-invariant (internal error)")
    return ground, generate_topology(ground, refined_family(table, x, alpha))


def open_map_check(table: PieceTable, x: int, alpha) -> tuple[bool, int | None]:
    """Whether g ↦ g·x is open onto the orbit in the refined relative topology.

    Over a discrete group this says every orbit singleton is relatively open;
    the witness is the first point y whose minimal relative neighbourhood N(y)
    exceeds {y}.  With K = ``point_keys[β]`` at the capped piece level β, the
    refined members holding y are the U_n ∋ y and the blocks B_γ(c, y), γ ≤ β;
    levels refine and blocks lie in their U_n, so N(y) ∩ orb = ⋂_c B_β(c, y) ∩
    orb (⋂ U_n ∋ y at β = 0) = {z ∈ orb : K[y] ⊆ K[z]}.  Keys on an orbit of a
    translation-closed family have one width, so a shared key decides; only a
    strictly wider key needs a subset test.  The answer depends on x and α only
    through (orbit, β), and is memoised per (orbit, β) on the table.

    Two set sizes decide the common case.  If the orbit's keys are pairwise
    distinct (as many distinct keys as points) and share one bit count (one
    distinct width), then K[y] ⊆ K[z] forces K[y] = K[z], since a subset with
    as many bits is the whole set, and so z = y.  So N(y) ∩ orb = {y} for every
    y and the verdict is (True, None): the witness loop meets no shared key
    and no strictly wider one, so it never stops.  Every other orbit runs it.
    """
    top_beta = _top_piece_level(table, alpha)
    orb = orbit(table.instance, x)
    memo = table._caches.setdefault("openmap", {})
    key = (orb, top_beta)
    verdict = memo.get(key)
    if verdict is None:
        keys = table.point_keys[top_beta]
        distinct = set(compress(keys, bin(orb)[:1:-1].encode().translate(_BIT_BYTES)))
        verdict = True, None
        if len(distinct) < orb.bit_count() or len(set(map(int.bit_count, distinct))) > 1:
            pts = to_list(orb)
            own = [keys[y] for y in pts]
            count = Counter(own)
            widest = max(k.bit_count() for k in count)
            for y, k in zip(pts, own):
                if count[k] > 1 or k.bit_count() < widest and any(w != k and not k & ~w for w in count):
                    verdict = False, y
                    break
        memo[key] = verdict
    return verdict


# ---------------------------------------------------------------------------
# relative re-analysis


@dataclass(frozen=True, eq=False)
class RelativeAnalysis:
    """A re-analyzed subspace, with translations back to parent coordinates."""

    sub_instance: ActionInstance
    sub_table: PieceTable
    parent_points: tuple[int, ...]  # sub index -> parent point
    ground: int                     # the top-cell piece of x, parent coordinates
    d_parent: int                   # the distinguished member D, parent coordinates
    d_index: int                    # U-index of D in the sub family

    def to_parent(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << self.parent_points[i]
        return out

    def to_sub_point(self, x: int) -> int:
        return self.parent_points.index(x)


def relative_pieces(
    table: PieceTable,
    x: int,
    alpha: int,
    gamma: int,
    x2: int,
    u_idx: int,
    v_idx: int,
) -> RelativeAnalysis:
    """Re-run the engine on the refined subspace of x at level α.

    The subspace ground is the top-cell piece B_α(x, X, G); its U-family is
    the relativized refined-family enumeration taken verbatim (empty traces
    dropped), and the V-family is unchanged.  Requires 1 ≤ γ < α and x2 in
    the orbit of x inside U.

    The sub-family always holds the distinguished set D = ground ∩
    B_γ(x2, U, V).  The top-cell piece is a union of G-orbits, so x2 ∈ G·x ⊆
    ground, and D ∋ x2 is not empty.  B_γ(x2, U, V) is a member of ℬˣ_{<α},
    since min(γ, L) ≤ min(α−1, L), and its trace on ground is D.  So D's
    sub-mask is either a sub-family member or the full set, appended last.
    """
    inst = table.instance
    if not (isinstance(alpha, int) and isinstance(gamma, int) and 1 <= gamma < alpha):
        raise ValueError("need levels 1 <= gamma < alpha")
    table.cell_index(u_idx, v_idx)  # refuses an index outside the bases
    u = inst.basisU[u_idx]
    if x2 < 0 or not (u >> x2 & 1) or not (orbit(inst, x) >> x2 & 1):
        _check_point(inst, x2)
        raise ValueError("x2 must lie in the orbit of x and in U")
    top_u = len(inst.basisU) - 1
    top_v = len(inst.basisV) - 1
    ground = piece(table, x, top_u, top_v, alpha)
    d_parent = ground & piece(table, x2, u_idx, v_idx, gamma)

    pts = tuple(to_list(ground))
    pmap = {p: i for i, p in enumerate(pts)}
    size = len(pts)
    full_sub = universe(size)

    def to_sub(mask: int) -> int:
        out = 0
        for p in bits(mask & ground):
            out |= 1 << pmap[p]
        return out

    members_sub: list[int] = []
    seen: set[int] = set()
    for s in refined_family(table, x, alpha):
        rel = to_sub(s)
        if rel == 0 or rel == full_sub or rel in seen:
            continue
        seen.add(rel)
        members_sub.append(rel)
    members_sub.append(full_sub)

    act_sub = [
        [pmap[inst.act[g][p]] for p in pts] for g in range(inst.group.order)
    ]
    sub = instance_from_families(
        inst.group,
        size,
        act_sub,
        members_sub,
        inst.basisV.members,
        inst.mode,
        name=f"{inst.name or 'instance'}/refined",
    )
    sub_table = analyze(sub)
    d_index = sub.basisU.index(to_sub(d_parent))
    return RelativeAnalysis(sub, sub_table, pts, ground, d_parent, d_index)
