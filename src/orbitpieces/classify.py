"""Eventual openness and the four-condition classification report.

The classification ties together:

1. eventual openness — every point has, for every V in the family, some cell
   (U_n, V_m) whose local orbit of x stays inside V·x;
2. the invariant-containment law — every locally V_U-invariant set containing
   x contains the whole level-1 piece of x (decided per cell by counting its
   blocks against its local orbits);
3. orbit completeness — the orbit of x equals its top-cell piece at level
   rank(x)+2;
4. openness of the evaluation map in the refined topology at rank(x)+2.

In strict mode all four are theorem-backed and the oracle layer asserts them;
in exploratory mode the report records the truth vector and any divergences
as findings.
"""

from __future__ import annotations

import random

from .bits import to_list, union_over
from .gspace import ActionInstance, orbit
from .saturation import orbit_partition, point_images
from .scott import STABLE, PieceTable, piece, scott_rank
from .topology import open_map_check

# The orbit unions `invariant_containment_check` counts per cell: a cell with
# |U| ≤ 12 and at most this many counts them all, a larger one counts this
# many seeded draws, which a failing cell replays up to its first split.  Read
# at call time; the report prints it as "budget".
BUDGET = 4096


def _witness(inst: ActionInstance, x: int, target: int) -> list[int] | None:
    """The first pair (n, m) in family order with x ∈ U_n and the local orbit
    of x at (U_n, V_m) inside ``target``, or None."""
    for n, un in enumerate(inst.basisU.members):
        if un >> x & 1:
            for m, vm in enumerate(inst.basisV.members):
                for part in orbit_partition(inst, un, vm):
                    if part >> x & 1:  # the local orbit of x; U_n holds x
                        break
                if not part & ~target:
                    return [n, m]
    return None


def eventual_openness(inst: ActionInstance):
    """The per-(x, V) witness table and the global verdict.

    For each point x and each V-family member, the first pair (n, m) in
    family order with x ∈ U_n and local orbit of x at (U_n, V_m) inside V·x;
    None when the exhaustive search finds no such pair.
    """
    images = [point_images(inst, v) for v in inst.basisV.members]
    witnesses = [[_witness(inst, x, nb[x]) for nb in images] for x in range(inst.size)]
    verdict = all(w is not None for row in witnesses for w in row)
    return verdict, witnesses


def _violation(n: int, m: int, blocks, a: int) -> dict | None:
    """The record of the first level-1 block of cell (n, m) that the orbit
    union A splits, with x the least point of A in it; None if A splits none."""
    for _, mask in blocks:
        if mask & a and mask & ~a:
            return {
                "u": n,
                "v": m,
                "alpha": 1,
                "x": (mask & a & -(mask & a)).bit_length() - 1,
                "witness_set": to_list(a),
                "piece": to_list(mask),
            }
    return None


def invariant_containment_check(
    inst: ActionInstance,
    table: PieceTable,
    seed: int = 0,
) -> dict:
    """Check x ∈ A ⇒ B_1(x, U, V) ⊆ A over locally invariant sets A, per cell.

    Locally V_U-invariant sets are exactly unions of local orbits inside U
    joined with arbitrary subsets of X∖U; the verdict only depends on A∩U
    (pieces live inside U), so the law ranges over orbit unions A, and
    witnesses are recorded padding-free.  The engine labels each distinct
    orbit once per level, so a piece is a union of whole orbits, and A splits
    a block B (meets it without holding it) iff B holds one orbit inside A and
    one outside it.  So a cell violates the law iff one of its blocks holds
    two or more orbits, iff it has fewer blocks than orbits: the piece table
    decides each cell without listing any union.

    The record is that of a scan over orbit unions in a fixed order, stopped
    at the first union that splits a block; ``checked`` counts the unions it
    tries.  Take the k orbits of a cell ordered by least point, and let
    counter c stand for the union of orbit i over the bits i of c.

    - A cell with |U| ≤ 12 and 2^k ≤ ``BUDGET`` is exhaustive: the scan tries
      c = 1, ..., 2^k − 1.  A passing cell counts 2^k − 1.  In a failing one,
      let i be the least index of an orbit in a block with two or more
      orbits.  Every c < 2^i takes only orbits 0..i−1, each alone in its
      block, so it splits nothing; c = 2^i is orbit i alone, which splits
      exactly its own block.  So the cell counts 2^i and records A = orbit i,
      the block holding it, and x the least point of orbit i.
    - A larger cell is sampled: the scan tries ``BUDGET`` seeded draws of c.
      A passing cell counts ``BUDGET``; a failing one replays the draws up to
      the first that splits a block.
    """
    budget = BUDGET
    violations: list[dict] = []
    checked = 0
    exhaustive = True
    for (n, m), parts, blocks in zip(table.cells, table.cell_orbits, table.levels[0]):
        k = len(parts)
        small = inst.basisU[n].bit_count() <= 12 and (1 << k) <= budget
        exhaustive = exhaustive and small
        if len(blocks) == k:
            checked += (1 << k) - 1 if small else budget
        elif small:
            alone = {mask for _, mask in blocks}
            i = next(i for i, part in enumerate(parts) if part not in alone)
            checked += 1 << i
            violations.append(_violation(n, m, blocks, parts[i]))
        else:
            rng = random.Random(f"invariant:{seed}:{n}:{m}")
            for _ in range(budget):
                checked += 1
                found = _violation(n, m, blocks, union_over(parts, rng.randrange(1, 1 << k)))
                if found:
                    violations.append(found)
                    break
    return {
        "level": 1,
        "verdict": not violations,
        "violations": violations,
        "exhaustive": exhaustive,
        "checked": checked,
        "budget": budget,
    }


_CONDITION_KEYS = (
    "eventually_open",
    "invariant_containment",
    "orbit_equals_final_piece",
    "open_map",
)


def classification_report(
    inst: ActionInstance,
    table: PieceTable,
    seed: int = 0,
) -> dict:
    """Assemble the full classification report (JSON-ready dict).

    Per point: the rank, the orbit-vs-final-piece verdict at rank+2, the
    open-map verdict at rank+2 with its witness, and the open-map verdicts at
    every level up to stabilization+2 (the existence-vs-canonical-level
    cross-check).  Global: the four condition booleans, recorded divergences
    between them, and consistency flags.
    """
    top_u = len(inst.basisU) - 1
    top_v = len(inst.basisV) - 1
    ev_verdict, witnesses = eventual_openness(inst)
    inv = invariant_containment_check(inst, table, seed)

    points = []
    flags: list[str] = []
    for x in range(inst.size):
        rank = scott_rank(table, x)
        orb = orbit(inst, x)
        p_rank = piece(table, x, top_u, top_v, rank + 2)
        p_stable = piece(table, x, top_u, top_v, STABLE)
        if p_rank != p_stable:
            flags.append(f"final piece at rank+2 differs from stable piece at x={x}")
        om_verdict, om_witness = open_map_check(table, x, rank + 2)
        levels = [
            open_map_check(table, x, a)[0]
            for a in range(1, table.stabilization + 3)
        ]
        if any(levels) != om_verdict:
            flags.append(f"open-map level scan disagrees with rank+2 verdict at x={x}")
        points.append(
            {
                "x": x,
                "rank": rank,
                "orbit_equals_final_piece": orb == p_rank,
                "final_piece_matches_stable": p_rank == p_stable,
                "open_map": om_verdict,
                "open_map_witness": om_witness,
                "open_map_levels": levels,
            }
        )

    conditions = {
        "eventually_open": ev_verdict,
        "invariant_containment": inv["verdict"],
        "orbit_equals_final_piece": all(p["orbit_equals_final_piece"] for p in points),
        "open_map": all(p["open_map"] for p in points),
    }
    divergences = []
    for i, a in enumerate(_CONDITION_KEYS):
        for b in _CONDITION_KEYS[i + 1 :]:
            if conditions[a] != conditions[b]:
                divergences.append([a, b])

    return {
        "mode": inst.mode,
        "eventually_open": ev_verdict,
        "witnesses": witnesses,
        "invariant_containment": inv,
        "points": points,
        "conditions": conditions,
        "divergences": divergences,
        "flags": flags,
    }
