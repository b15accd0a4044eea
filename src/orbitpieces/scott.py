"""The level-by-level piece engine: signatures, canonical partitions, ranks.

For every cell (U_n, V_m) and level α the points of U_n are partitioned into
α-pieces.  Level 0 treats U_n itself as the single 0-piece.  The level-1
signature of x records which U_l the local orbit of x meets; the successor
signature records which level-α pieces of which cells the local orbit meets,
as canonical triples.  Pieces are the classes of signature equality, so they
are unions of local orbits; the per-cell orbit partitions are computed once,
and each distinct orbit is labelled once per level.

Partitions refine downward and the successor table is a function of the
current table, so the first level whose partitions equal the next level's is
a genuine fixpoint; that level is the stabilization L.  Piece ids are content
hashes of the canonical signature encoding, hence stable across runs and
instances.  The engine is a plain single-threaded loop over cells and keeps no
state between analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b

from .bits import bits, is_subset
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


def _encode_level1(indices: tuple[int, ...]) -> str:
    return "1|" + ",".join(map(str, indices))


def _encode_successor(triples) -> str:
    return "s|" + ";".join(f"{n},{m},{pid}" for (n, m, pid) in triples)


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


def _group_blocks(labelled) -> list[tuple[str, int]]:
    """Merge (pid, mask) pairs by pid, order blocks by least point."""
    merged: dict[str, int] = {}
    for pid, mask in labelled:
        merged[pid] = merged.get(pid, 0) | mask
    out = list(merged.items())
    out.sort(key=lambda pm: pm[1] & -pm[1])
    return out


def _label_cells(cell_orbits, key_of, encode):
    """Label every orbit of every cell with the content hash of its signature.

    ``key_of(orbit)`` is the orbit's signature as a sorted tuple and
    ``encode(key)`` its payload.  Each distinct orbit is keyed and hashed once
    per level; a new key whose id is already taken is a hash collision.
    Returns the level's blocks per cell and the new ids with their keys.
    """
    labels: dict[int, str] = {}
    keys: dict[str, tuple] = {}
    data = []
    for parts in cell_orbits:
        labelled = []
        for part in parts:
            pid = labels.get(part)
            if pid is None:
                key = key_of(part)
                pid = blake2b(encode(key).encode(), digest_size=8).hexdigest()
                if keys.setdefault(pid, key) != key:
                    raise RuntimeError(f"piece-id hash collision on {pid}")
                labels[part] = pid
            labelled.append((pid, part))
        data.append(_group_blocks(labelled))
    return data, keys


def successor_level(inst: ActionInstance, cells, cell_orbits, prev_level):
    """One refinement step: label every cell's orbits against the previous level.

    Returns the level's blocks per cell and, for each new piece id, its
    signature key: the sorted (n, m, pid) triples.  Exposed separately so the
    oracle suites and the stabilization-bound check can re-run single steps.
    """

    def triples_of(part: int) -> tuple:
        triples = []
        for cj, (n2, m2) in enumerate(cells):
            for pid, mask in prev_level[cj]:
                if part & mask:
                    triples.append((n2, m2, pid))
        triples.sort()
        return tuple(triples)

    return _label_cells(cell_orbits, triples_of, _encode_successor)


def analyze(inst: ActionInstance, workers: int = 1) -> PieceTable:
    """Run the refinement to its fixpoint and return the full piece table.

    ``workers`` is accepted and ignored: the engine is single-threaded, and the
    keyword stays only because the benchmark harness still passes it.
    """
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    cells = tuple((n, m) for n in range(len(membersU)) for m in range(len(membersV)))
    cell_orbits = tuple(
        orbit_partition(inst, membersU[n], membersV[m]) for (n, m) in cells
    )

    def indices_of(part: int) -> tuple:
        return tuple(l for l, ul in enumerate(membersU) if part & ul)

    data, keys = _label_cells(cell_orbits, indices_of, _encode_level1)
    signatures = {pid: Signature(1, key) for pid, key in keys.items()}
    levels = [data]
    while True:
        data, keys = successor_level(inst, cells, cell_orbits, levels[-1])
        # Payloads never repeat across levels (each level names the previous
        # level's ids), so an id already taken in this analysis is a collision.
        for pid in keys:
            if pid in signatures:
                raise RuntimeError(f"piece-id hash collision on {pid}")
        # keys hold the orbit's own previous piece, so levels refine: same counts, same partition
        if all(len(a) == len(b) for a, b in zip(data, levels[-1])):
            break
        for pid, key in keys.items():
            signatures[pid] = Signature(
                len(levels) + 1, tuple((p, n, m) for (n, m, p) in key)
            )
        levels.append(data)
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
    """
    orb = orbit(table.instance, x)
    stable = table.levels[-1]
    for gamma, data in enumerate(table.levels[:-1], 1):
        if _final_at(data, stable, orb):
            return gamma
    return table.stabilization


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
    cache = (t_u, c_v, subsets, {})
    table._caches["decomp"] = cache
    return cache


def piece_from_decomposition(table: PieceTable, x: int, u_idx: int, v_idx: int, level) -> int:
    """Evaluate the successor piece via the translated-subcell decomposition.

    This is the right-hand side of the structural successor identity: over all
    cells (n, m), intersect (a) the union of level-α pieces at translated
    subcells (hU_i, V_m^h) hit by the local orbit of x — skipping pairs (n, m)
    that admit no candidate (U_i, h, g) at all — and (b) the complement of U_n
    joined with the union of level-α pieces at (n, m) hit by the local orbit.
    The result is the candidate for the level-(α+1) piece of x at (U, V),
    compared against the engine's table by the differential suite.
    """
    inst = table.instance
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    u = membersU[u_idx]
    v = membersV[v_idx]
    if not u >> x & 1:
        raise ValueError(f"point {x} is not in U_{u_idx}")
    lvl = table.resolve_level(level)
    if lvl < 1:
        raise ValueError("the decomposition needs level >= 1")
    data = table.levels[lvl - 1]
    t_u, c_v, subsets, common_reach = _decomp_tables(table)

    reach = cached_reach(inst, x, u, v)
    orb = 0
    for g in bits(reach):
        orb |= 1 << inst.act[g][x]

    hits: dict[int, int] = {}

    def blocks_hit(ci: int) -> int:
        got = hits.get(ci)
        if got is None:
            got = 0
            for _, mask in data[ci]:
                if mask & orb:
                    got |= mask
            hits[ci] = got
        return got

    n_v = len(membersV)
    full = inst.full_points
    result = full
    for n, un in enumerate(membersU):
        candidates: set[tuple[int, int]] = set()  # (U-index of hU_i, h)
        for i in subsets[n]:
            key = (u_idx, v_idx, i)
            ru = common_reach.get(key)
            if ru is None:
                ru = reach_common(inst, membersU[i], u, v)
                common_reach[key] = ru
            row = t_u[i]
            for h in bits(ru):
                j = row[h]
                if membersU[j] & orb:
                    candidates.add((j, h))
        for m in range(n_v):
            second = (full & ~un) | blocks_hit(n * n_v + m)
            result &= second
            if candidates:
                first = 0
                for j, h in candidates:
                    first |= blocks_hit(j * n_v + c_v[m][h])
                result &= first
    return result
