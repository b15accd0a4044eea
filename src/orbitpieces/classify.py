"""Eventual openness and the four-condition classification report.

The classification ties together:

1. eventual openness — every point has, for every V in the family, some cell
   (U_n, V_m) whose local orbit of x stays inside V·x;
2. the invariant-containment law — every locally V_U-invariant set containing
   x contains the whole piece of x (checked over enumerated invariant sets);
3. orbit completeness — the orbit of x equals its top-cell piece at level
   rank(x)+2;
4. openness of the evaluation map in the refined topology at rank(x)+2.

In strict mode all four are theorem-backed and the oracle layer asserts them;
in exploratory mode the report records the truth vector and any divergences
as findings.
"""

from __future__ import annotations

import random

from .bits import bits, to_list
from .gspace import ActionInstance, orbit
from .saturation import orbit_partition, point_images
from .scott import STABLE, PieceTable, piece, scott_rank
from .topology import open_map_check


def eventual_openness(inst: ActionInstance):
    """The per-(x, V) witness table and the global verdict.

    For each point x and each V-family member, the first pair (n, m) in
    family order with x ∈ U_n and local orbit of x at (U_n, V_m) inside V·x;
    None when the exhaustive search finds no such pair.
    """
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    images = [point_images(inst, v) for v in membersV]
    witnesses: list[list] = []
    for x in range(inst.size):
        row: list = []
        for nb in images:
            target = nb[x]
            found = None
            for n, un in enumerate(membersU):
                if not un >> x & 1:
                    continue
                for m, vm in enumerate(membersV):
                    for part in orbit_partition(inst, un, vm):
                        if part >> x & 1:
                            if part & ~target == 0:
                                found = [n, m]
                            break
                    if found:
                        break
                if found:
                    break
            row.append(found)
        witnesses.append(row)
    verdict = all(w is not None for row in witnesses for w in row)
    return verdict, witnesses


def invariant_containment_check(
    inst: ActionInstance,
    table: PieceTable,
    alpha: int = 1,
    budget: int = 4096,
    seed: int = 0,
) -> dict:
    """Check x ∈ A ⇒ piece(x) ⊆ A over locally invariant sets A, per cell.

    Locally V_U-invariant sets are exactly unions of local orbits inside U
    joined with arbitrary subsets of X∖U; the verdict only depends on A∩U
    (pieces live inside U), so the enumeration ranges over orbit unions and
    witnesses are recorded padding-free.  Cells with |U| ≤ 12 and at most
    ``budget`` orbit unions are exhausted; larger cells fall back to seeded
    sampling within the budget.  The first violation per cell is recorded.
    The engine labels each distinct orbit once per level, so a piece is a
    union of whole orbits; a cell with as many blocks as orbits has one orbit
    per piece, cannot fail, and is counted as checked without enumeration.
    """
    lvl = table.resolve_level(alpha)
    violations: list[dict] = []
    checked = 0
    exhaustive = True
    for ci, (n, m) in enumerate(table.cells):
        u = inst.basisU[n]
        parts = table.cell_orbits[ci]
        k = len(parts)
        blocks = table.levels[lvl - 1][ci]

        def scan(a: int):
            for _, mask in blocks:
                if mask & a and mask & ~a:
                    return {
                        "u": n,
                        "v": m,
                        "alpha": lvl,
                        "x": (mask & a & -(mask & a)).bit_length() - 1,
                        "witness_set": to_list(a),
                        "piece": to_list(mask),
                    }
            return None

        small = u.bit_count() <= 12 and (1 << k) <= budget
        exhaustive = exhaustive and small
        if len(blocks) == k:
            checked += (1 << k) - 1 if small else max(budget, 0)
            continue
        if small:
            counters = range(1, 1 << k)
        else:
            rng = random.Random(f"invariant:{seed}:{n}:{m}")
            counters = (rng.randrange(1, 1 << k) for _ in range(budget))
        for counter in counters:
            a = 0
            for i in bits(counter):
                a |= parts[i]
            checked += 1
            found = scan(a)
            if found:
                violations.append(found)
                break
    return {
        "level": lvl,
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
    budget: int = 4096,
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
    inv = invariant_containment_check(inst, table, 1, budget, seed)

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
