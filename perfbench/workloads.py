"""Seeded inputs and operations for the two benchmark workloads.

Each workload is a list of operations run in whole rounds by one client in a
closed loop.  An operation carries an instance document (canonical JSON, the
only thing the program sees of the input) plus the arguments of its library
calls; every run of an operation starts with ``parse_instance(document)``.

Generators refuse, up front, any input shape outside the bounds stated for
their workload, so a later change to a generator cannot silently push a run
into one of the exhaustive walls.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from dataclasses import dataclass, field

import orbitpieces as op
from orbitpieces import classify, harness, saturation, scott, topology
from orbitpieces.algebra import cyclic_group, subgroup_closure, symmetric_closure

STABLE = op.STABLE

# Shape bounds per workload (see README.md for the walls that set them).
CORPUS_BOUNDS = {"group": 8, "points": 12, "U": 24, "V": 6}
WIDE_N = (14, 16)
WIDE_CELLS = (120, 200)
WALLS_REPORT_GROUP = 16
WALLS_CLASSCHAR_GROUP = 120
WALLS_TOPOLOGY_POINTS = 20

QUERY_KINDS = ("piece", "signature", "local_orbit", "scott_rank", "open_map_check")
QUERY_WEIGHTS = (40, 40, 8, 6, 6)


class ShapeError(ValueError):
    """A generated input lies outside the bounds of its workload."""


@dataclass
class Op:
    key: str          # stable label, used for pinned digests
    kind: str         # report | claschar | topology | wide
    source: str       # corpus | wide | walls: which input family it comes from
    document: str     # canonical instance document
    args: dict = field(default_factory=dict)
    queries: int = 0  # read-phase queries after each run of the op


# ---------------------------------------------------------------------------
# documents


def _relabel(inst, rng: random.Random, name: str) -> str:
    """An isomorphic copy with group elements (identity kept at 0) and points
    permuted by the seed, written as a mul-table instance document."""
    order, size = inst.group.order, inst.size
    pg = [0] + rng.sample(range(1, order), order - 1)
    px = rng.sample(range(size), size)
    mul = [[0] * order for _ in range(order)]
    act = [[0] * size for _ in range(order)]
    for a in range(order):
        for b in range(order):
            mul[pg[a]][pg[b]] = pg[inst.group.mul[a][b]]
        for x in range(size):
            act[pg[a]][px[x]] = px[inst.act[a][x]]

    def pts(mask):
        return sorted(px[x] for x in op.bits(mask))

    def els(mask):
        return sorted(pg[g] for g in op.bits(mask))

    doc = {
        "schema": harness.INSTANCE_SCHEMA,
        "name": name,
        "mode": inst.mode,
        "group": {"mul": mul},
        "space": {"size": size, "action": act},
        "basisU": {"seeds": [pts(u) for u in inst.basisU.members[:-1]]},
        "basisV": {"seeds": [els(v) for v in inst.basisV.members[:-1]]},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise ShapeError(what)


def corpus(seed: int) -> list[Op]:
    """The acceptance gate's traffic: many small fresh instances, all suites.

    The shapes are fixed: the named instances, exploratory seeds 0-31 and
    strict seeds 0-15, 52 in all so that the 80th percentile has ten
    latencies beyond it while a round stays near 2 s.  A round's work then
    does not depend on the workload seed, which relabels points and
    elements and draws the oracle seeds.
    """
    rng = random.Random(f"perfbench:corpus:{seed}")
    insts = [op.named_instance(k) for k in op.NAMED_INSTANCES]
    insts += [op.make_random(s) for s in range(32)]
    insts += [op.make_random(s, strict=True) for s in range(16)]
    b = CORPUS_BOUNDS
    ops = []
    for inst in insts:
        _check(
            inst.group.order <= b["group"] and inst.size <= b["points"]
            and len(inst.basisU) <= b["U"] and len(inst.basisV) <= b["V"],
            f"corpus instance {inst.name} exceeds {b}",
        )
        ops.append(Op(f"corpus:{inst.name}", "report", "corpus", _relabel(inst, rng, inst.name),
                      {"seed": rng.randrange(2**16)}, queries=32))
    ops += walls_reports(seed)
    rng.shuffle(ops)
    return ops


def _interval(start: int, length: int, n: int) -> int:
    return op.mask_of((start + k) % n for k in range(length))


# (n, interval lengths, neighbourhood generators) of each wide instance: drawn
# once from n in [14, 16] with 3-4 interval windows and 2 neighbourhood seeds,
# keeping draws that stabilize at level 2 and cost 25-55 ms each on a 2-core
# Xeon.  Small operations keep a round near 2 s, so every operation is timed
# about thirty times in a 60 s run (see README.md, "Why small rounds").
# Fixing the shapes keeps the round's cost independent of the workload seed,
# which relabels points and elements and orders the seeds.
WIDE_SHAPES = [
    (14, (2, 6, 7), (1, 2)),
    (14, (2, 4, 5), (2, 7)),
    (14, (2, 3, 5, 6), (1, 6)),
    (14, (3, 5, 6), (2, 5)),
    (14, (4, 5, 6), (2, 7)),
    (14, (2, 3, 4, 6), (1, 6)),
    (15, (3, 6, 7), (1, 3)),
    (16, (2, 4, 7), (3, 6)),
    (16, (2, 5, 6), (2, 8)),
    (16, (2, 4, 8), (4, 6)),
]


def wide(seed: int) -> list[Op]:
    """Cyclic self-actions with many interval windows: the piece engine's load."""
    rng = random.Random(f"perfbench:wide:{seed}")
    ops = []
    for i, (n, lengths, gens) in enumerate(WIDE_SHAPES):
        _check(WIDE_N[0] <= n <= WIDE_N[1], f"wide group order {n} out of {WIDE_N}")
        _check(3 <= len(lengths) <= 4 and len(gens) == 2, f"wide shape {i} has the wrong seeds")
        g = cyclic_group(n)
        act = [[(a + x) % n for x in range(n)] for a in range(n)]
        seedsU = [_interval(rng.randrange(n), k, n) for k in rng.sample(lengths, len(lengths))]
        seedsV = [symmetric_closure(1 << a, g) for a in rng.sample(gens, 2)]
        inst = op.build_instance(g, n, act, seedsU, seedsV, "exploratory", f"wide{i}z{n}")
        cells = len(inst.basisU) * len(inst.basisV)
        _check(WIDE_CELLS[0] <= cells <= WIDE_CELLS[1],
               f"wide instance has {cells} cells, outside {WIDE_CELLS}")
        ops.append(Op(f"wide{i}:z{n}", "wide", "wide", _relabel(inst, rng, inst.name),
                      {"seed": rng.randrange(2**16)}, queries=200))
    ops += walls_tables(seed)
    rng.shuffle(ops)
    return ops


def _cyclic_sub(g, order: int, class_size: int, rng: random.Random) -> int:
    """The subgroup generated by a seeded element of the given order and
    conjugacy-class size (so the coset action's shape does not depend on the seed)."""
    pool = []
    for e in range(1, g.order):
        sub = subgroup_closure(1 << e, g)
        klass = {g.conjugate_element(e, h) for h in range(g.order)}
        if sub.bit_count() == order and len(klass) == class_size:
            pool.append(sub)
    return rng.choice(pool)


def walls_reports(seed: int) -> list[Op]:
    """A report operation at the 2^|G| subgroup-scan wall (|G| = 16).

    One such report, at the smallest wall order, keeps corpus rounds short;
    see README.md, "Why small rounds".
    """
    rng = random.Random(f"perfbench:walls-reports:{seed}")
    cs = op.make_cyclic_self
    reports = [
        op.make_product(op.make_swap_fix(), cs(8)),
    ]
    ops = []
    for inst in reports:
        _check(inst.group.order <= WALLS_REPORT_GROUP,
               f"report op on |G|={inst.group.order} > {WALLS_REPORT_GROUP}")
        ops.append(Op(f"report:{inst.name}", "report", "walls", _relabel(inst, rng, inst.name),
                      {"seed": rng.randrange(2**16)}, queries=120))
    return ops


def walls_tables(seed: int) -> list[Op]:
    """Table operations at the |G|^3 table-check and 2^n topology walls."""
    rng = random.Random(f"perfbench:walls-tables:{seed}")
    ops = []
    s5 = op.group_from_generators([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], name="S5")
    _check(s5.order <= WALLS_CLASSCHAR_GROUP, f"claschar op on |G|={s5.order}")
    # 5-cycles give 24 cosets, transpositions (class size 10) give 60.
    for label, order, klass in (("s5c24", 5, 24), ("s5c60", 2, 10)):
        inst = op.make_coset_action(s5, _cyclic_sub(s5, order, klass, rng), name=label)
        ops.append(Op(f"claschar:{label}", "claschar", "walls", _relabel(inst, rng, label),
                      {"seed": rng.randrange(2**16)}, queries=120))
    for n in (18, 20):
        _check(n <= WALLS_TOPOLOGY_POINTS, f"topology op on {n} points")
        inst = op.make_coset_action(cyclic_group(n), 1, name=f"z{n}reg")
        ops.append(Op(f"topology:z{n}reg", "topology", "walls", _relabel(inst, rng, inst.name),
                      {"x": rng.randrange(n)}, queries=120))
    return ops


WORKLOADS = {"corpus": corpus, "wide": wide}


# ---------------------------------------------------------------------------
# operations


class CheckError(AssertionError):
    """An operation's output violates a structural property."""


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _check_table(table) -> None:
    """Every level partitions every window and refines the level below it."""
    inst = table.instance
    for lvl, data in enumerate(table.levels):
        for ci, (n, _m) in enumerate(table.cells):
            union = 0
            for _pid, mask in data[ci]:
                _need(mask and not union & mask, f"overlapping blocks at level {lvl + 1}")
                union |= mask
                if lvl:
                    coarse = [m for _, m in table.levels[lvl - 1][ci] if m & mask]
                    _need(len(coarse) == 1, f"level {lvl + 1} does not refine level {lvl}")
            _need(union == inst.basisU[n], f"blocks do not cover U_{n} at level {lvl + 1}")
    stable = scott.stable_partition(table)
    _need(sum(stable) == inst.full_points and sum(b.bit_count() for b in stable) == inst.size,
          "stable partition is not a partition of X")


def _render_table(table) -> list:
    return [
        table.stabilization,
        [[[list(b) for b in cell] for cell in data] for data in table.levels],
    ]


def run_op(o: Op):
    """Run one operation; return (canonical output, table, instance).

    This is the timed region.  Library functions are looked up on their
    modules at call time so the tracer's wrappers, when installed, see them.
    """
    inst = harness.parse_instance(o.document)
    if o.kind == "report":
        doc = harness.build_analysis(inst, seed=o.args["seed"], suite="all")
        return harness.serialize_analysis(doc), None, inst
    table = scott.analyze(inst)
    if o.kind == "claschar":
        return classify.classification_report(inst, table, seed=o.args["seed"]), table, inst
    if o.kind == "topology":
        return topology.refined_space(table, o.args["x"], 2), table, inst
    ranks = [scott.scott_rank(table, x) for x in range(inst.size)]
    stable = scott.stable_partition(table)
    blocks = [
        table.blocks(n, m, lvl)
        for lvl in range(1, table.stabilization + 1)
        for (n, m) in table.cells
    ]
    return (ranks, stable, len(blocks)), table, inst


def canonical_output(o: Op, out, table, inst, check: bool) -> str:
    """An operation's canonical output text; with ``check``, also verify it."""
    if o.kind == "report":
        if check:
            doc = json.loads(out)
            asserts = [e for e in doc["oracle_log"] if e["severity"] == "assert"]
            _need(not asserts, f"{len(asserts)} assert-severity oracle entries")
            _need(len(doc["ranks"]) == inst.size, "one rank per point")
            _need(all(1 <= r <= doc["stabilization"] for r in doc["ranks"]), "rank out of range")
        return out
    if o.kind == "claschar":
        if check:
            _check_table(table)
            _need(len(out["points"]) == inst.size, "one classification entry per point")
            _need(not out["flags"], f"classification flags: {out['flags']}")
        return json.dumps(out, sort_keys=True)
    if o.kind == "topology":
        ground, topo = out
        if check:
            _need(ground >> o.args["x"] & 1, "refined ground misses x")
            # Strict regular action: level-1 pieces are singletons, so the
            # refined space is discrete.
            _need(len(topo.opens) == 1 << ground.bit_count(), "refined space is not discrete")
            _need(all(not s & ~ground for s in topo.opens), "open set escapes the ground")
        opens = array("Q", sorted(topo.opens))
        return f"{ground}:" + hashlib.sha256(opens.tobytes()).hexdigest()
    ranks, stable, _n_blocks = out
    if check:
        _check_table(table)
        _need(all(1 <= r <= table.stabilization for r in ranks), "rank out of range")
    return json.dumps([_render_table(table), ranks, stable])


# ---------------------------------------------------------------------------
# read phase


def make_queries(o: Op, table, inst) -> list[tuple]:
    """Seeded point queries against one table (drawn outside the timed region).

    Each kind gets a fixed share of the queries and cycles through the
    levels 1..L and STABLE, so the mix does not depend on the seed.
    """
    rng = random.Random(f"perfbench:queries:{o.key}:{o.args.get('seed', 0)}")
    n_u, n_v = len(inst.basisU), len(inst.basisV)
    levels = list(range(1, table.stabilization + 1)) + [STABLE]
    total = sum(QUERY_WEIGHTS)
    out = []
    for kind, weight in zip(QUERY_KINDS, QUERY_WEIGHTS):
        for i in range(round(o.queries * weight / total)):
            level = levels[i % len(levels)]
            if kind in ("piece", "signature", "local_orbit"):
                u_idx = rng.randrange(n_u)
                x = rng.choice(op.to_list(inst.basisU[u_idx]))
                out.append((kind, x, u_idx, rng.randrange(n_v), level))
            elif kind == "scott_rank":
                out.append((kind, rng.randrange(inst.size)))
            else:
                out.append((kind, rng.randrange(inst.size), level))
    rng.shuffle(out)
    return out


def run_query(q: tuple, table, inst):
    kind = q[0]
    if kind == "piece":
        return scott.piece(table, *q[1:])
    if kind == "signature":
        return scott.signature(table, *q[1:])
    if kind == "local_orbit":
        _, x, u_idx, v_idx, _lvl = q
        return saturation.local_orbit(inst, x, inst.basisU[u_idx], inst.basisV[v_idx])
    if kind == "scott_rank":
        return scott.scott_rank(table, q[1])
    return topology.open_map_check(table, q[1], q[2])


def check_query(q: tuple, answer, inst) -> None:
    kind = q[0]
    if kind in ("piece", "local_orbit"):
        x, u = q[1], inst.basisU[q[2]]
        _need(answer >> x & 1 and not answer & ~u, f"{kind} of {x} is not inside U and around x")
    elif kind == "scott_rank":
        _need(answer >= 1, "rank below 1")


def query_text(q: tuple, answer) -> str:
    if q[0] == "signature":
        answer = (answer.level, answer.canonical())
    return repr((tuple("STABLE" if a is STABLE else a for a in q), answer))
