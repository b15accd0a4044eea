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
takes part in it.

Partitions refine downward and the successor table is a function of the
current table, so the first level whose partitions equal the next level's is
a genuine fixpoint; that level is the stabilization L.  Its check level is
keyed, compared by block counts and dropped without hashing anything.  Piece
ids are content hashes of the canonical signature encoding, hence stable
across runs and instances; a stored level hashes each distinct key once,
decoding its bits in ascending order, and every new id is checked against all
earlier ids of the analysis.  The engine is a plain single-threaded loop over
cells and keeps no state between analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from itertools import compress

from .bits import is_subset, mask_of, to_list
from .gspace import ActionInstance, orbit, translate_set
from .algebra import conjugate
from .saturation import cached_reach, orbit_partition, reach_common


class _Stable:
    """Sentinel for 'any level at or beyond stabilization'."""

    def __repr__(self):
        return "STABLE"


STABLE = _Stable()


@dataclass(frozen=True)
class Signature:
    """Canonical level invariant, stored in canonical order: the sorted
    U-indices at level 1, and (pid, n, m) triples ordered by (n, m, pid) above."""

    level: int
    entries: tuple

    def canonical(self) -> tuple:
        return self.entries


class PieceTable:
    """All piece partitions of one instance, per cell and level, plus lookups."""

    def __init__(self, instance, cells, cell_orbits, levels, signatures, stabilization):
        self.instance = instance
        self.cells = cells
        self.cell_orbits = cell_orbits
        self.levels = levels
        self.signatures = signatures
        self.stabilization = stabilization
        self._caches: dict = {}

    def cell_index(self, u_idx: int, v_idx: int) -> int:
        return u_idx * len(self.instance.basisV) + v_idx

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
                key = 0
                for p in to_list(part):
                    key |= point_keys[p]
                keys[part] = key
            blocks[key] = blocks.get(key, 0) | part
        data.append(blocks)
    return data


# Turns a binary string's digits into the 0/1 selector bytes of ``compress``.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _name(data, head: str, sep: str, names, items):
    """Name a stored level: hash each distinct key once, check for collisions.

    ``names[b]`` and ``items[b]`` are the payload text and the signature item
    of key bit b; a key's set bits are decoded in ascending order, so its
    payload is ``head`` plus its names joined by ``sep``.  Returns the level's
    (pieceId, mask) blocks per cell and each new id's tuple of items.
    """
    ids: dict[int, str] = {}
    keys: dict[str, tuple] = {}
    for blocks in data:
        for key in blocks:
            if key not in ids:
                sel = bin(key)[:1:-1].encode().translate(_BIT_BYTES)
                payload = (head + sep.join(compress(names, sel))).encode()
                pid = ids[key] = blake2b(payload, digest_size=8).hexdigest()
                if pid in keys:
                    raise RuntimeError(f"piece-id hash collision on {pid}")
                # via a list: a tuple grown from the bare iterator fragmented
                # the small-object arenas (+0.7 MB peak RSS over 20 corpus rounds)
                keys[pid] = tuple(list(compress(items, sel)))
    return [[(ids[key], mask) for key, mask in blocks.items()] for blocks in data], keys


def _block_keys(size: int, cells, prev_level):
    """Number the previous level's blocks in (cell, pid) order, the sorted
    order of their (n, m, pid) triples, and give each point the bitmask of
    the blocks that hold it.  Returns the triples, their "n,m,pid" payload
    names and the point keys."""
    triples = []
    point_keys = [0] * size
    for (n, m), blocks in zip(cells, prev_level):
        for pid, mask in sorted(blocks):
            bit = 1 << len(triples)
            triples.append((n, m, pid))
            for p in to_list(mask):
                point_keys[p] |= bit
    return triples, [f"{n},{m},{pid}" for (n, m, pid) in triples], point_keys


def successor_level(inst: ActionInstance, cells, cell_orbits, prev_level):
    """One refinement step: label every cell's orbits against the previous level.

    Returns the level's blocks per cell and, for each new piece id, its
    signature key: the sorted (n, m, pid) triples.  Exposed separately so the
    oracle suites and the stabilization-bound check can re-run single steps.
    """
    triples, names, point_keys = _block_keys(inst.size, cells, prev_level)
    return _name(_refine(cell_orbits, point_keys), "s|", ";", names, triples)


def analyze(inst: ActionInstance, workers: int = 1) -> PieceTable:
    """Run the refinement to its fixpoint and return the full piece table.

    ``workers`` is accepted and ignored: the engine is single-threaded, and the
    keyword stays only because the benchmark harness still passes it.
    """
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    cells = tuple((n, m) for n in range(len(membersU)) for m in range(len(membersV)))
    cell_orbits = tuple(orbit_partition(inst, membersU[n], membersV[m]) for (n, m) in cells)
    # level 1: key bit l stands for U_l
    point_keys = [mask_of(l for l, u in enumerate(membersU) if u >> p & 1) for p in range(inst.size)]
    head, sep, items = "1|", ",", range(len(membersU))
    names = list(map(str, items))
    levels, signatures = [], {}
    while True:
        keyed = _refine(cell_orbits, point_keys)
        # keys hold the orbit's own previous piece, so levels refine: same counts, same partition
        if levels and all(len(a) == len(b) for a, b in zip(keyed, levels[-1])):
            break
        data, keys = _name(keyed, head, sep, names, items)
        for pid, key in keys.items():
            # Payloads never repeat across levels (each level names the previous
            # level's ids), so an id already taken in this analysis is a collision.
            if pid in signatures:
                raise RuntimeError(f"piece-id hash collision on {pid}")
            signatures[pid] = Signature(len(levels) + 1, key)
        levels.append(data)
        triples, names, point_keys = _block_keys(inst.size, cells, data)
        head, sep, items = "s|", ";", [(pid, n, m) for (n, m, pid) in triples]
    return PieceTable(inst, cells, cell_orbits, levels, signatures, len(levels))


# ---------------------------------------------------------------------------
# lookups


def _block_of(table: PieceTable, x: int, u_idx: int, v_idx: int, lvl: int):
    """The stored (pieceId, mask) block holding x at one cell, or None at level 0."""
    if not table.instance.basisU[u_idx] >> x & 1:
        raise ValueError(f"point {x} is not in U_{u_idx}")
    if lvl == 0:
        return None
    for block in table.levels[lvl - 1][table.cell_index(u_idx, v_idx)]:
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


def _final_at(data, stable, orb: int) -> bool:
    """Whether every block of ``data`` meets ``orb`` inside one stable block."""
    for blocks, stable_blocks in zip(data, stable):
        for _, mask in blocks:
            trace = mask & orb
            if trace:
                low = trace & -trace
                for _, smask in stable_blocks:
                    if smask & low:
                        if trace & ~smask:
                            return False
                        break
    return True


def scott_rank(table: PieceTable, x: int) -> int:
    """The least level γ ≥ 1 at which orbit-internal piece distinctions are final.

    For every cell and every pair of orbit points inside its U: equal γ-pieces
    must already imply equal stable pieces.  The stable level always passes.
    The rank depends on x only through its orbit, so it is memoised per orbit
    on the table.
    """
    orb = orbit(table.instance, x)
    memo = table._caches.setdefault("rank", {})
    if orb not in memo:
        stable = table.levels[-1]
        memo[orb] = next((gamma for gamma, data in enumerate(table.levels[:-1], 1)
                          if _final_at(data, stable, orb)), table.stabilization)
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


def _decomp_tables(table: PieceTable):
    """Lazy per-table translate/conjugate index maps and U-subset lists."""
    cache = table._caches.get("decomp")
    if cache is not None:
        return cache
    inst = table.instance
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    order = inst.group.order
    t_u = [
        [inst.basisU.index(translate_set(inst, u, g)) for g in range(order)]
        for u in membersU
    ]
    c_v = [
        [inst.basisV.index(conjugate(v, g, inst.group)) for g in range(order)]
        for v in membersV
    ]
    subsets = [
        [i for i, ui in enumerate(membersU) if is_subset(ui, un)]
        for un in membersU
    ]
    cache = (t_u, c_v, subsets)
    table._caches["decomp"] = cache
    return cache


def _decomp_pairs(table: PieceTable, u_idx: int, v_idx: int):
    """The candidates of the cell (U, V), and per U_n the U_i inside it that have any.

    A candidate of U_i is a pair (U_j, cells), one per h ∈ ⟨V⟩^{U_i}_U, with
    U_j = hU_i and ``cells`` the tuple of the indices of the cells
    (j, conjugate of m by h) over the V-indices m.  A point outside U has no
    reach set, so only the U_i inside U can have candidates.  None of this
    depends on the level or the point, so it is built once per cell.
    """
    memo = table._caches.setdefault("pairs", {})
    got = memo.get((u_idx, v_idx))
    if got is None:
        inst = table.instance
        membersU = inst.basisU.members
        n_v = len(inst.basisV)
        u = membersU[u_idx]
        v = inst.basisV[v_idx]
        t_u, c_v, subsets = _decomp_tables(table)
        cands = {}
        for i in subsets[u_idx]:
            common = reach_common(inst, membersU[i], u, v)
            if common:
                cands[i] = [
                    (membersU[t_u[i][h]], tuple(t_u[i][h] * n_v + c_v[m][h] for m in range(n_v)))
                    for h in to_list(common)
                ]
        within = [[i for i in sub if i in cands] for sub in subsets]
        got = memo[(u_idx, v_idx)] = (cands, within)
    return got


class _Packed(dict):
    """Cell tuple → the hit blocks of its cells packed into one int, the
    entry for V-index m at bit offset m·|X|; filled on first use."""

    def __init__(self, hits, width: int):
        super().__init__()
        self.hits = hits
        self.width = width

    def __missing__(self, cells):
        p = 0
        for ci in reversed(cells):
            p = p << self.width | self.hits[ci]
        self[cells] = p
        return p


def _orbit_hits(table: PieceTable, lvl: int, orb: int):
    """For one orbit at one level: per cell, the union of its blocks that the
    orbit meets, packed per candidate cell tuple (``_Packed``); and the
    intersection over cells (n, m) of (X∖U_n) ∪ that union.  Orbits recur
    across cells, so both are memoised per (level, orbit).
    """
    memo = table._caches.setdefault("hits", {})
    got = memo.get((lvl, orb))
    if got is None:
        inst = table.instance
        n_v = len(inst.basisV)
        full = inst.full_points
        hits = []
        for blocks in table.levels[lvl - 1]:
            hit = 0
            for _, mask in blocks:
                if mask & orb:
                    hit |= mask
            hits.append(hit)
        second = full
        for n, un in enumerate(inst.basisU.members):
            outside = full & ~un
            for ci in range(n * n_v, (n + 1) * n_v):
                second &= outside | hits[ci]
        got = memo[(lvl, orb)] = (_Packed(hits, inst.size), second)
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

    Part (b) and the hit blocks come from ``_orbit_hits`` and the candidates
    of each U_i from ``_decomp_pairs``.  The hit blocks of a candidate's cells
    come packed into one int, the block for V-index m at bit offset m·|X|, so
    a call ORs one int per candidate that meets the orbit, ORs those over the
    U_i inside each U_n, ANDs the unions in packed form and unpacks the
    result once, one |X|-bit field per m.
    """
    inst = table.instance
    u = inst.basisU[u_idx]
    v = inst.basisV[v_idx]
    if not u >> x & 1:
        raise ValueError(f"point {x} is not in U_{u_idx}")
    lvl = table.resolve_level(level)
    if lvl < 1:
        raise ValueError("the decomposition needs level >= 1")
    cands, within = _decomp_pairs(table, u_idx, v_idx)

    orb = 0
    for g in to_list(cached_reach(inst, x, u, v)):
        orb |= 1 << inst.act[g][x]
    packed, result = _orbit_hits(table, lvl, orb)
    # per U_i, the packed union of hit blocks over the candidates of U_i that
    # meet the orbit; U_i is left out when none does
    firsts = {}
    for i, pairs in cands.items():
        first = None
        for uj, cells in pairs:
            if uj & orb:
                first = packed[cells] if first is None else first | packed[cells]
        if first is not None:
            firsts[i] = first
    acc = -1  # every field full
    for idxs in within:
        found = [firsts[i] for i in idxs if i in firsts]
        if found:
            first = 0
            for f in found:
                first |= f
            acc &= first
    full, width = inst.full_points, inst.size
    for _ in range(len(inst.basisV)):
        result &= acc & full
        acc >>= width
    return result
