"""The level-by-level piece engine: signatures, canonical partitions, ranks.

For every cell (U_n, V_m) and level α the points of U_n are partitioned into
α-pieces.  Level 0 treats U_n itself as the single 0-piece.  The level-1
signature of x records which U_l the local orbit of x meets; the successor
signature records which level-α pieces of which cells the local orbit meets,
as canonical triples.  Pieces are the classes of signature equality, so they
are unions of local orbits; the per-cell orbit partitions are computed once,
and each distinct orbit is keyed once per level.

A key is an exact integer set.  At level 1 bit l stands for U_l; above, the
previous level's blocks are numbered in (cell, pid) order, which is the sorted
order of their (n, m, pid) triples, and each point carries the bitmask of the
blocks that hold it.  An orbit's key is the OR of its points' masks, and each
cell is partitioned by these keys, so the partition test is exact and no hash
takes part in it.  The table keeps each level's point masks as ``point_keys``.

Partitions refine downward and the successor table is a function of the
current table, so the first level whose partitions equal the next level's is
a genuine fixpoint; that level is the stabilization L.  Its check level is
keyed, compared by block counts and dropped without hashing anything or
writing its payload names.  Piece ids are content hashes of the canonical
signature encoding, hence stable across runs and instances; a stored level
hashes each distinct key once, reading its bits in ascending order, and every
new id is checked against all earlier ids of the analysis.  A stored level
decodes nothing: each signature keeps its key and the level's items, and its
entries are decoded on first read.  The engine is a plain single-threaded
loop over cells and keeps no state between analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from itertools import compress, count

from .bits import mask_of, to_list, union_over
from .gspace import ActionInstance, _check_point, _translates, orbit
from .saturation import cached_reach, orbit_partition, reach_common


class _Stable:
    """Sentinel for 'any level at or beyond stabilization'."""

    def __repr__(self):
        return "STABLE"


STABLE = _Stable()


@dataclass(frozen=True, eq=False, repr=False)
class Signature:
    """Canonical level invariant, stored in canonical order: the sorted
    U-indices at level 1, and (pid, n, m) triples ordered by (n, m, pid) above.

    ``analyze`` stores the integer key it already has and the level's shared
    ``items``, one per key bit; ``entries`` decodes the key on first read and
    caches the tuple.  Equality, hash and repr are those of (level, entries).
    """

    level: int
    _entries: tuple | None = None
    _key: int = 0
    _items: object = ()

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            object.__setattr__(self, "_entries", _decode(self._key, self._items))
        return self._entries

    def canonical(self) -> tuple:
        # an alias of ``entries``: only perfbench/workloads.py::query_text calls it
        return self.entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.level == other.level and self.entries == other.entries

    def __hash__(self):
        return hash((self.level, self.entries))

    def __repr__(self):
        return f"Signature(level={self.level!r}, entries={self.entries!r})"


class PieceTable:
    """All piece partitions of one instance, per cell and level, plus lookups."""

    def __init__(self, instance, cells, cell_orbits, levels, point_keys, signatures, stabilization):
        self.instance = instance
        self.cells = cells
        self.cell_orbits = cell_orbits
        self.levels = levels
        # point_keys[β][p]: the l with p ∈ U_l at β = 0, else the level-β blocks holding p
        self.point_keys = point_keys
        self.signatures = signatures
        self.stabilization = stabilization
        self._caches: dict = {}
        # the basis lengths, read by every cell lookup
        self._n_u = len(instance.basisU.members)
        self._n_v = len(instance.basisV.members)

    def cell_index(self, u_idx: int, v_idx: int) -> int:
        """The position of the cell (U_u_idx, V_v_idx) in ``cells``; an index
        outside its basis is refused with ``ValueError``."""
        n_u, n_v = self._n_u, self._n_v
        if not 0 <= u_idx < n_u:
            raise ValueError(f"U-index {u_idx} is not in range({n_u})")
        if not 0 <= v_idx < n_v:
            raise ValueError(f"V-index {v_idx} is not in range({n_v})")
        return u_idx * n_v + v_idx

    def resolve_level(self, level) -> int:
        """Clamp a requested level (int or STABLE) to a stored table index ≥ 1."""
        if level is STABLE:
            return self.stabilization
        if not isinstance(level, int) or level < 0:
            raise ValueError(f"bad level {level!r}")
        return min(level, self.stabilization)

    def blocks(self, u_idx: int, v_idx: int, level) -> list[tuple[str, int]]:
        """The (pieceId, mask) blocks of one cell at one level ≥ 1."""
        lvl = self.resolve_level(level)
        if lvl == 0:
            raise ValueError("blocks are defined for levels >= 1")
        return self.levels[lvl - 1][self.cell_index(u_idx, v_idx)]


def _refine(cell_orbits, point_keys) -> list[dict[int, int]]:
    """Each cell's blocks as {key: mask}: its orbits grouped by exact integer key.

    An orbit's key is the OR of ``point_keys`` over its points, computed once
    per distinct orbit.  A cell's orbits come ordered by least point, so the
    order in which keys first occur orders the blocks by least point too.
    """
    keys: dict[int, int] = {}
    data = []
    for parts in cell_orbits:
        blocks: dict[int, int] = {}
        for part in parts:
            key = keys.get(part)
            if key is None:
                key = keys[part] = union_over(point_keys, part)
            blocks[key] = blocks.get(key, 0) | part
        data.append(blocks)
    return data


# Turns a binary string's digits into the 0/1 selector bytes of ``compress``.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _decode(key: int, items) -> tuple:
    """The items of a key's set bits, in ascending bit order."""
    # via a list: a tuple grown from the bare iterator fragmented the
    # small-object arenas (+0.7 MB peak RSS over 20 corpus rounds)
    return tuple(list(compress(items, bin(key)[:1:-1].encode().translate(_BIT_BYTES))))


def _name(data, head: str, sep: str, names):
    """Name a stored level: hash each distinct key once, check for collisions.

    ``names[b]`` is the payload text of key bit b; a key's set bits are read
    in ascending order, so its payload is ``head`` plus its names joined by
    ``sep``.  Returns the level's (pieceId, mask) blocks per cell and each
    new id's key.
    """
    ids: dict[int, str] = {}
    keys: dict[str, int] = {}
    for blocks in data:
        for key in blocks:
            if key not in ids:
                sel = bin(key)[:1:-1].encode().translate(_BIT_BYTES)
                payload = (head + sep.join(compress(names, sel))).encode()
                pid = ids[key] = blake2b(payload, digest_size=8).hexdigest()
                if pid in keys:
                    raise RuntimeError(f"piece-id hash collision on {pid}")
                keys[pid] = key
    return [[(ids[key], mask) for key, mask in blocks.items()] for blocks in data], keys


def _block_keys(size: int, cells, prev_level):
    """Number the previous level's blocks in (cell, pid) order, the sorted
    order of their (n, m, pid) triples, and give each point the bitmask of
    the blocks that hold it.  Returns the triples and the point keys."""
    triples = []
    point_keys = [0] * size
    for (n, m), blocks in zip(cells, prev_level):
        for pid, mask in sorted(blocks):
            bit = 1 << len(triples)
            triples.append((n, m, pid))
            for p in to_list(mask):
                point_keys[p] |= bit
    return triples, point_keys


def successor_level(inst: ActionInstance, cells, cell_orbits, prev_level):
    """One refinement step: label every cell's orbits against the previous level.

    Returns the level's blocks per cell and, for each new piece id, its
    signature key: the sorted (n, m, pid) triples.  Exposed separately so the
    oracle suites and the stabilization-bound check can re-run single steps.
    """
    triples, point_keys = _block_keys(inst.size, cells, prev_level)
    names = [f"{n},{m},{pid}" for (n, m, pid) in triples]
    data, keys = _name(_refine(cell_orbits, point_keys), "s|", ";", names)
    return data, {pid: _decode(key, triples) for pid, key in keys.items()}


def analyze(inst: ActionInstance, workers: int = 1) -> PieceTable:
    """Run the refinement to its fixpoint and return the full piece table.

    ``workers`` is accepted and ignored: the engine is single-threaded, and the
    keyword stays only because perfbench/bench.py still passes ``workers=2``.

    The stable level L is the first α whose successor has, in every cell, as
    many blocks as α.  When every cell's α-blocks are already its local
    orbits, α is that level without refining once more: every piece is a
    union of local orbits, so a cell never has more blocks than orbits, and
    levels refine, so the α+1 blocks are the α blocks again.  The table and
    ``point_keys`` are then the ones the extra refinement would return.
    """
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    cells = tuple((n, m) for n in range(len(membersU)) for m in range(len(membersV)))
    cell_orbits = tuple(orbit_partition(inst, membersU[n], membersV[m]) for (n, m) in cells)
    # level 1: key bit l stands for U_l
    level_keys = [mask_of(l for l, u in enumerate(membersU) if u >> p & 1) for p in range(inst.size)]
    point_keys = [level_keys]
    keyed = _refine(cell_orbits, level_keys)
    head, sep, items = "1|", ",", range(len(membersU))
    names = list(map(str, items))
    levels, signatures = [], {}
    for level in count(1):
        data, keys = _name(keyed, head, sep, names)
        for pid, key in keys.items():
            # Payloads never repeat across levels (each level names the previous
            # level's ids), so an id already taken in this analysis is a collision.
            if pid in signatures:
                raise RuntimeError(f"piece-id hash collision on {pid}")
            signatures[pid] = Signature(level, None, key, items)
        levels.append(data)
        triples, level_keys = _block_keys(inst.size, cells, data)
        point_keys.append(level_keys)
        if all(len(blocks) == len(parts) for blocks, parts in zip(data, cell_orbits)):
            break
        keyed = _refine(cell_orbits, level_keys)
        # keys hold the orbit's own previous piece, so levels refine: same counts, same partition
        if all(len(a) == len(b) for a, b in zip(keyed, data)):
            break
        head, sep, items = "s|", ";", [(pid, n, m) for (n, m, pid) in triples]
        names = [f"{n},{m},{pid}" for (n, m, pid) in triples]
    return PieceTable(inst, cells, cell_orbits, levels, point_keys, signatures, level)


# ---------------------------------------------------------------------------
# lookups


def _block_of(table: PieceTable, x: int, u_idx: int, v_idx: int, lvl: int):
    """The stored (pieceId, mask) block holding x at one cell, or None at level 0."""
    ci = table.cell_index(u_idx, v_idx)
    if x < 0 or not table.instance.basisU.members[u_idx] >> x & 1:
        _check_point(table.instance, x)
        raise ValueError(f"point {x} is not in U_{u_idx}")
    if lvl == 0:
        return None
    for block in table.levels[lvl - 1][ci]:
        if block[1] >> x & 1:
            return block
    raise RuntimeError("piece table does not cover the cell (internal error)")


def piece(table: PieceTable, x: int, u_idx: int, v_idx: int, level) -> int:
    """The level-α piece of x at cell (U_n, V_m); level 0 returns U_n itself."""
    block = _block_of(table, x, u_idx, v_idx, table.resolve_level(level))
    return table.instance.basisU[u_idx] if block is None else block[1]


def signature(table: PieceTable, x: int, u_idx: int, v_idx: int, level) -> Signature:
    """The canonical signature whose equality class is the piece of x."""
    lvl = table.resolve_level(level)
    if lvl < 1:
        raise ValueError("signatures are defined for levels >= 1")
    return table.signatures[_block_of(table, x, u_idx, v_idx, lvl)[0]]


def scott_rank(table: PieceTable, x: int) -> int:
    """The least level γ ≥ 1 at which orbit-internal piece distinctions are final.

    For every cell and every pair of orbit points inside its U: equal γ-pieces
    must already imply equal stable pieces.  The stable level L always passes.
    The OR of ``point_keys[γ]`` over the orbit is the set of γ-blocks, over all
    cells, that meet it.  L refines γ, so mapping each L-block that meets the
    orbit to the γ-block of its cell holding it is onto; γ is final iff that
    map is one-to-one, iff both ORs have equally many bits.  The rank depends
    on x only through its orbit, so it is memoised per orbit on the table.
    """
    orb = orbit(table.instance, x)
    memo = table._caches.setdefault("rank", {})
    if orb not in memo:
        memo[orb] = 1
        if table.stabilization > 1:  # at L = 1 the rank is 1, with no count
            met = [union_over(keys, orb).bit_count() for keys in table.point_keys[1:]]
            memo[orb] = met.index(met[-1]) + 1
    return memo[orb]


def stable_partition(table: PieceTable) -> list[int]:
    """The stable pieces of the top cell (X, G): a partition of all of X."""
    u_idx = len(table.instance.basisU) - 1
    v_idx = len(table.instance.basisV) - 1
    return [mask for _, mask in table.blocks(u_idx, v_idx, STABLE)]


def pattern_partition(inst: ActionInstance) -> list[int]:
    """Canonical partition computed independently of the piece engine.

    Points are grouped by the pattern {n : orbit(x) meets U_n} — equivalently
    by membership in the saturations G·U_n.  Used as the cross-check for the
    level-1 (X, G) pieces.
    """
    membersU = inst.basisU.members
    blocks: dict[frozenset, int] = {}
    for x in range(inst.size):
        gx = orbit(inst, x)
        pat = frozenset(n for n, un in enumerate(membersU) if gx & un)
        blocks[pat] = blocks.get(pat, 0) | 1 << x
    out = list(blocks.values())
    out.sort(key=lambda m: m & -m)
    return out


# ---------------------------------------------------------------------------
# the successor-piece decomposition (differential oracle target)


def _decomp_translates(table: PieceTable):
    """Lazy per-table translates, ``translates[i][g]`` = gU_i."""
    translates = table._caches.get("decomp")
    if translates is None:
        images = _translates(table.instance.act)
        translates = table._caches["decomp"] = [
            list(images(u)) for u in table.instance.basisU.members
        ]
    return translates


def _decomp_candidates(table: PieceTable, u_idx: int, v_idx: int) -> list[tuple[int, ...]]:
    """The candidates of the cell (U, V): for each U_n that has any, the
    distinct translates hU_i over the U_i inside U_n and h ∈ ⟨V⟩^{U_i}_U.

    A point outside U has no reach set, so only the U_i inside U can have
    candidates.  None of this depends on the level or the point, so it is
    built once per cell.
    """
    memo = table._caches.setdefault("candidates", {})
    got = memo.get((u_idx, v_idx))
    if got is None:
        inst = table.instance
        membersU = inst.basisU.members
        u = membersU[u_idx]
        v = inst.basisV[v_idx]
        translates = _decomp_translates(table)
        subsets = inst.basisU.subsets
        cands = {}
        for i in subsets[u_idx]:
            row = translates[i]
            cands[i] = {row[h] for h in to_list(reach_common(inst, membersU[i], u, v))}
        got = []
        for sub in subsets:
            found = set().union(*(cands[i] for i in sub if i in cands))
            if found:
                got.append(tuple(found))
        memo[(u_idx, v_idx)] = got
    return got


def _orbit_hits(table: PieceTable, lvl: int, orb: int) -> int:
    """Part (b) for one orbit at one level: the intersection over cells (n, m)
    of (X∖U_n) ∪ the union of the blocks of (n, m) that the orbit meets.
    Orbits recur across cells, so it is memoised per (level, orbit).
    """
    memo = table._caches.setdefault("hits", {})
    got = memo.get((lvl, orb))
    if got is None:
        inst = table.instance
        full = inst.full_points
        membersU = inst.basisU.members
        got = full
        for (n, _), blocks in zip(table.cells, table.levels[lvl - 1]):
            hit = full & ~membersU[n]
            for _, mask in blocks:
                if mask & orb:
                    hit |= mask
            got &= hit
        memo[(lvl, orb)] = got
    return got


def piece_from_decomposition(table: PieceTable, x: int, u_idx: int, v_idx: int, level) -> int:
    """Evaluate the successor piece via the translated-subcell decomposition.

    This is the right-hand side of the structural successor identity: over all
    cells (n, m), intersect (a) the union of level-α pieces at translated
    subcells (hU_i, V_m^h) hit by the local orbit of x — skipping pairs (n, m)
    that admit no candidate (U_i, h, g) at all — and (b) the complement of U_n
    joined with the union of level-α pieces at (n, m) hit by the local orbit.
    The result is the candidate for the level-(α+1) piece of x at (U, V),
    compared against the engine's table by the differential suite.

    Write hits[j, m] for the union of the blocks of cell (j, m) that the orbit
    meets and ``second`` for part (b).  Two facts collapse part (a):

    - the blocks of (j, m) partition U_j, so hits[j, m] ⊆ U_j;
    - ``second`` ⊆ (X∖U_j) ∪ hits[j, m'] for every m', so
      ``second`` ∩ U_j ⊆ hits[j, m'].

    Hence ``second`` ∩ hits[j, m'] = ``second`` ∩ U_j for every candidate U_j
    = hU_i and every V-index, whatever the conjugate index of V_m under h.
    Intersected with ``second``, part (a) at (n, m) is the union of the
    candidate U_j over the U_i inside U_n whose U_j meets the orbit (hits of a
    U_j that misses the orbit are empty), the same for every m; an n whose
    union is empty has no candidate and is skipped.  That part depends only on
    (U, V, orbit), so it is memoised per (u_idx, v_idx, orbit) and shared by
    every level; part (b) is memoised per (level, orbit) by ``_orbit_hits``.
    """
    inst = table.instance
    table.cell_index(u_idx, v_idx)  # refuses an index outside the bases
    u = inst.basisU[u_idx]
    v = inst.basisV[v_idx]
    if x < 0 or not u >> x & 1:
        _check_point(inst, x)
        raise ValueError(f"point {x} is not in U_{u_idx}")
    lvl = table.resolve_level(level)
    if lvl < 1:
        raise ValueError("the decomposition needs level >= 1")

    orb = 0
    for g in to_list(cached_reach(inst, x, u, v)):
        orb |= 1 << inst.act[g][x]
    memo = table._caches.setdefault("first", {})
    key = (u_idx, v_idx, orb)
    first = memo.get(key)
    if first is None:
        first = inst.full_points
        for cands in _decomp_candidates(table, u_idx, v_idx):
            union = 0
            for uj in cands:
                if uj & orb:
                    union |= uj
            if union:
                first &= union
        memo[key] = first
    return _orbit_hits(table, lvl, orb) & first
