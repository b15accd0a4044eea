"""Command-line front end.

Exit codes: 0 on success, 1 on usage or validation errors, 2 when an oracle
run (or a strict-mode classification) produced assert-severity failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bits import bits, mask_of, to_list
from .classify import classification_report, eventual_openness
from .gspace import (
    NAMED_INSTANCES,
    make_cyclic_self,
    make_random,
    named_instance,
    orbit,
)
from .harness import (
    DEFAULT_TRIALS,
    InstanceFormatError,
    build_analysis,
    canonical_json,
    load_instance,
    run_oracles,
    serialize_analysis,
    serialize_instance,
    SUITES,
)
from .saturation import local_orbit, reach_sets, saturate
from .scott import STABLE, analyze, piece, scott_rank, stable_partition
from .topology import open_map_check, refined_family, refined_space, relative_pieces
from .transforms import (
    delta,
    local_delta,
    local_delta_n,
    local_star,
    local_star_n,
    star,
)


# The `topology` listing refuses a topology with more distinct minimal
# neighbourhoods than this, to bound the output: its opens could number 2^k,
# each written out in full.
MAX_LISTED_NEIGHBORHOODS = 16

# `generate --template cyclic` refuses orders above this: Z/n's document holds
# n×n tables.  Timed in-process through `main` on a 2-core VM, n = 256, 512,
# 768 and 1,000 took 0.24, 1.1, 2.2 and 4.6 s and peaked at 33, 79, 158 and
# 259 MB; 2,000 took 16.5 s and 1 GB.
MAX_CYCLIC_ORDER = 512


def _fmt_set(mask: int) -> str:
    return "{" + ",".join(str(i) for i in bits(mask)) + "}"


def _parse_set(text: str, bound: int) -> int:
    body = text.strip().strip("{}")
    if not body:
        return 0
    try:
        items = [int(part) for part in body.split(",")]
    except ValueError:
        raise InstanceFormatError(f"bad set literal {text!r}") from None
    for i in items:
        if not 0 <= i < bound:
            raise InstanceFormatError(f"bad set literal {text!r}: {i} is not in range({bound})")
    return mask_of(items)


def _parse_level(text: str):
    if text.lower() == "stable":
        return STABLE
    try:
        return int(text)
    except ValueError:
        raise InstanceFormatError(f"bad level {text!r}") from None


def _emit(args, payload: dict, text_lines) -> None:
    if getattr(args, "json", False):
        print(canonical_json(payload))
    else:
        for line in text_lines:
            print(line)


def _instance(args):
    """The instance named by --instance, with its point and family indices checked.

    Python would read a negative index from the end; one past the end would
    read as an empty set (``1 << x`` beyond the space), and a huge one would
    allocate that many bits.
    """
    inst = load_instance(args.instance, getattr(args, "mode_override", None))
    bounds = {"x": inst.size, "x2": inst.size, "u": len(inst.basisU), "v": len(inst.basisV)}
    for name, bound in bounds.items():
        value = getattr(args, name, None)
        if value is not None and not 0 <= value < bound:
            raise InstanceFormatError(
                f"index out of range: --{name} must be a non-negative index below {bound}, "
                f"got {value}"
            )
    return inst


# ---------------------------------------------------------------------------
# handlers


def _cmd_validate(args) -> int:
    inst = _instance(args)
    payload = {
        "name": inst.name,
        "mode": inst.mode,
        "group_order": inst.group.order,
        "points": inst.size,
        "basisU": [to_list(u) for u in inst.basisU.members],
        "basisV": [to_list(v) for v in inst.basisV.members],
    }
    _emit(args, payload, [
        f"instance {inst.name or '(unnamed)'}: valid",
        f"mode {inst.mode}, group order {inst.group.order}, {inst.size} points",
        f"basisU ({len(inst.basisU)}): " + " ".join(_fmt_set(u) for u in inst.basisU.members),
        f"basisV ({len(inst.basisV)}): " + " ".join(_fmt_set(v) for v in inst.basisV.members),
    ])
    return 0


def _cmd_saturate(args) -> int:
    inst = _instance(args)
    a = _parse_set(args.set, inst.size)
    u = inst.basisU[args.u]
    v = inst.basisV[args.v]
    result = saturate(inst, a, u, v)
    _emit(args, {"saturation": to_list(result)}, [_fmt_set(result)])
    return 0


def _cmd_orbit(args) -> int:
    inst = _instance(args)
    if args.u is None and args.v is None:
        result = orbit(inst, args.x)
    else:
        u_idx = args.u if args.u is not None else len(inst.basisU) - 1
        v_idx = args.v if args.v is not None else len(inst.basisV) - 1
        result = local_orbit(inst, args.x, inst.basisU[u_idx], inst.basisV[v_idx])
    _emit(args, {"orbit": to_list(result)}, [_fmt_set(result)])
    return 0


def _cmd_reach(args) -> int:
    inst = _instance(args)
    result = reach_sets(
        inst, args.x, inst.basisU[args.u], inst.basisV[args.v], args.depth
    )
    _emit(args, {"reach": to_list(result)}, [_fmt_set(result)])
    return 0


def _cmd_transform(args) -> int:
    inst = _instance(args)
    a = _parse_set(args.set, inst.size)
    kind = args.kind
    if kind in ("delta", "star"):
        if args.elems is None:
            raise InstanceFormatError(f"transform kind {kind!r} needs --elems")
        h = _parse_set(args.elems, inst.group.order)
        result = delta(inst, a, h) if kind == "delta" else star(inst, a, h)
    else:
        if args.u is None or args.v is None:
            raise InstanceFormatError(f"transform kind {kind!r} needs --u and --v")
        u = inst.basisU[args.u]
        v = inst.basisV[args.v]
        if args.stage is None:
            fn = local_delta if kind == "local-delta" else local_star
            result = fn(inst, a, u, v)
        else:
            fn = local_delta_n if kind == "local-delta" else local_star_n
            result = fn(inst, a, u, v, args.stage)
    _emit(args, {"transform": to_list(result)}, [_fmt_set(result)])
    return 0


def _cmd_pieces(args) -> int:
    inst = _instance(args)
    table = analyze(inst)
    level = _parse_level(args.level)
    if args.x is not None:
        result = piece(table, args.x, args.u, args.v, level)
        _emit(args, {"piece": to_list(result)}, [_fmt_set(result)])
        return 0
    blocks = table.blocks(args.u, args.v, level)
    payload = {
        "stabilization": table.stabilization,
        "blocks": [{"id": pid, "points": to_list(mask)} for pid, mask in blocks],
    }
    _emit(args, payload, [f"{pid} {_fmt_set(mask)}" for pid, mask in blocks])
    return 0


def _cmd_rank(args) -> int:
    inst = _instance(args)
    table = analyze(inst)
    if args.x is not None:
        r = scott_rank(table, args.x)
        _emit(args, {"rank": r, "stabilization": table.stabilization}, [str(r)])
        return 0
    ranks = [scott_rank(table, x) for x in range(inst.size)]
    payload = {
        "ranks": ranks,
        "stabilization": table.stabilization,
        "stable_partition": [to_list(b) for b in stable_partition(table)],
    }
    _emit(args, payload, [
        "ranks " + " ".join(map(str, ranks)),
        f"stabilization {table.stabilization}",
        "stable partition " + " ".join(_fmt_set(b) for b in stable_partition(table)),
    ])
    return 0


def _cmd_topology(args) -> int:
    inst = _instance(args)
    table = analyze(inst)
    level = _parse_level(args.level)
    fam = refined_family(table, args.x, level)
    ground, topo = refined_space(table, args.x, level)
    k = len(set(topo.minimal))
    if k > MAX_LISTED_NEIGHBORHOODS:
        raise ValueError(
            f"the refined topology has {k} distinct minimal neighbourhoods; "
            f"listing its opens (up to 2^{k} sets) is refused above "
            f"{MAX_LISTED_NEIGHBORHOODS}"
        )
    opens = list(topo.opens)
    payload = {
        "ground": to_list(ground),
        "family": [to_list(s) for s in fam],
        "opens": [to_list(s) for s in opens],
    }
    _emit(args, payload, [
        f"ground {_fmt_set(ground)}",
        f"family ({len(fam)}): " + " ".join(_fmt_set(s) for s in fam),
        f"opens ({len(opens)}): " + " ".join(_fmt_set(s) for s in opens),
    ])
    return 0


def _cmd_relpieces(args) -> int:
    inst = _instance(args)
    table = analyze(inst)
    rel = relative_pieces(table, args.x, args.level_int, args.gamma, args.x2, args.u, args.v)
    rows = []
    for y in bits(rel.d_parent):
        ys = rel.to_sub_point(y)
        rows.append(
            {
                "y": y,
                "parent_stable": to_list(piece(table, y, args.u, args.v, STABLE)),
                "sub_stable": to_list(
                    rel.to_parent(piece(rel.sub_table, ys, rel.d_index, args.v, STABLE))
                ),
            }
        )
    payload = {
        "ground": to_list(rel.ground),
        "D": to_list(rel.d_parent),
        "sub_stabilization": rel.sub_table.stabilization,
        "sub_basisU": [to_list(rel.to_parent(u)) for u in rel.sub_instance.basisU.members],
        "points": rows,
    }
    _emit(args, payload, [
        f"ground {_fmt_set(rel.ground)}",
        f"D {_fmt_set(rel.d_parent)} (sub index {rel.d_index})",
        f"sub stabilization {rel.sub_table.stabilization}",
    ] + [
        f"y={row['y']} parent {_fmt_set(mask_of(row['parent_stable']))}"
        f" sub {_fmt_set(mask_of(row['sub_stable']))}"
        for row in rows
    ])
    return 0


def _cmd_openmap(args) -> int:
    inst = _instance(args)
    table = analyze(inst)
    level = _parse_level(args.level)
    ok, witness = open_map_check(table, args.x, level)
    payload = {"open": ok, "witness": witness}
    _emit(args, payload, [f"open {str(ok).lower()}" + ("" if ok else f" witness {witness}")])
    return 0


def _cmd_check(args) -> int:
    inst = _instance(args)
    if args.kind == "eventual-openness":
        verdict, witnesses = eventual_openness(inst)
        payload = {"eventually_open": verdict, "witnesses": witnesses}
        lines = [f"eventually open {str(verdict).lower()}"]
        for x, per_v in enumerate(witnesses):
            for v_idx, cell in enumerate(per_v):
                if cell is None:
                    lines.append(f"x={x} v={v_idx} witness none")
        _emit(args, payload, lines)
        return 0
    report = classification_report(inst, analyze(inst), seed=args.seed)
    payload = report
    lines = [f"mode {report['mode']}"]
    for key, value in sorted(report["conditions"].items()):
        lines.append(f"{key} {str(value).lower()}")
    if report["divergences"]:
        lines.append("divergences " + " ".join("/".join(pair) for pair in report["divergences"]))
    for flag in report["flags"]:
        lines.append(f"flag {flag}")
    _emit(args, payload, lines)
    if inst.mode == "strict" and (
        not all(report["conditions"].values()) or report["divergences"] or report["flags"]
    ):
        return 2
    return 0


def _cmd_oracle(args) -> int:
    inst = _instance(args)
    entries = run_oracles(inst, args.suite, seed=args.seed, trials=args.trials)
    if args.json:
        print(canonical_json(entries))
    else:
        if not entries:
            print("ok: empty log")
        for e in entries:
            cell = "-" if e["cell"] is None else f"({e['cell'][0]},{e['cell'][1]})"
            print(f"[{e['severity']}] {e['suite']}/{e['check']} cell {cell} {json.dumps(e['witness'], sort_keys=True)}")
    if any(e["severity"] == "assert" for e in entries):
        return 2
    return 0


def _cmd_generate(args) -> int:
    if args.template in NAMED_INSTANCES:
        inst = named_instance(args.template)
    elif args.template == "random":
        inst = make_random(args.seed)
    elif args.template == "strict":
        inst = make_random(args.seed, strict=True)
    elif args.template == "cyclic":
        if not 1 <= args.n <= MAX_CYCLIC_ORDER:
            raise InstanceFormatError(
                f"--n must be between 1 and {MAX_CYCLIC_ORDER} for the cyclic template, "
                f"got {args.n}"
            )
        inst = make_cyclic_self(args.n)
    else:
        raise InstanceFormatError(f"unknown template {args.template!r}")
    text = serialize_instance(inst)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_report(args) -> int:
    inst = _instance(args)
    doc = build_analysis(inst, seed=args.seed, trials=args.trials, suite=args.suite)
    text = serialize_analysis(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if any(e["severity"] == "assert" for e in doc["oracle_log"]):
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, instance=True):
    if instance:
        sub.add_argument("--instance", required=True,
                         help="built-in instance name or document path")
        sub.add_argument("--mode-override", choices=("strict", "exploratory"))
    sub.add_argument("--json", action="store_true", help="machine-readable output")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with an ``error:`` line, like every other rejected
    input; argparse's own code 2 means assert failures here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbitpieces",
        description="finite local-orbit piece analysis: saturations, transforms, "
                    "canonical partitions, ranks, refined topologies, oracles",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="parse and validate an instance")
    _add_common(p)
    p.set_defaults(fn=_cmd_validate)

    p = subs.add_parser("saturate", help="saturation of a point set at a cell")
    _add_common(p)
    p.add_argument("--set", required=True, help="point set, e.g. 0,1 or {0,1}")
    p.add_argument("--u", type=int, required=True, help="U-family index")
    p.add_argument("--v", type=int, required=True, help="V-family index")
    p.set_defaults(fn=_cmd_saturate)

    p = subs.add_parser("orbit", help="global or local orbit of a point")
    _add_common(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--u", type=int)
    p.add_argument("--v", type=int)
    p.set_defaults(fn=_cmd_orbit)

    p = subs.add_parser("reach", help="reach set of a point at a cell")
    _add_common(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--depth", type=int, help="stage bound (default: limit)")
    p.set_defaults(fn=_cmd_reach)

    p = subs.add_parser("transform", help="Vaught transforms, global or local")
    _add_common(p)
    p.add_argument("--kind", required=True,
                   choices=("delta", "star", "local-delta", "local-star"))
    p.add_argument("--set", required=True)
    p.add_argument("--elems", help="group element set for global kinds")
    p.add_argument("--u", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--stage", type=int, help="finite stage (default: limit)")
    p.set_defaults(fn=_cmd_transform)

    p = subs.add_parser("pieces", help="piece partition of a cell, or one piece")
    _add_common(p)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--level", required=True, help="level >= 1 or 'stable'")
    p.add_argument("--x", type=int)
    p.set_defaults(fn=_cmd_pieces)

    p = subs.add_parser("rank", help="generalized ranks and the stable partition")
    _add_common(p)
    p.add_argument("--x", type=int)
    p.set_defaults(fn=_cmd_rank)

    p = subs.add_parser("topology", help="refined family and generated topology")
    _add_common(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--level", required=True)
    p.set_defaults(fn=_cmd_topology)

    p = subs.add_parser("relpieces", help="re-analysis of the refined subspace")
    _add_common(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--level", dest="level_int", type=int, required=True,
                   help="parent level alpha >= 2")
    p.add_argument("--gamma", type=int, required=True, help="1 <= gamma < alpha")
    p.add_argument("--x2", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.set_defaults(fn=_cmd_relpieces)

    p = subs.add_parser("openmap", help="relative openness of g -> g.x")
    _add_common(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--level", required=True)
    p.set_defaults(fn=_cmd_openmap)

    p = subs.add_parser("check", help="eventual openness / classification report")
    _add_common(p)
    p.add_argument("--kind", required=True, choices=("eventual-openness", "claschar"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_check)

    p = subs.add_parser("oracle", help="run differential oracle suites")
    _add_common(p)
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.set_defaults(fn=_cmd_oracle)

    p = subs.add_parser("generate", help="emit an instance document")
    _add_common(p, instance=False)
    p.add_argument("--template", required=True,
                   help="z4self, swapfix, z4coarse, z4pairs, random, strict, cyclic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=4, help="order for the cyclic template")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_generate)

    p = subs.add_parser("report", help="full analysis document with oracle log")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (say, `| head`).  Point stdout at devnull
        # so the interpreter's final flush does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:  # InstanceFormatError, InstanceError and GroupError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IndexError as exc:
        print(f"error: index out of range: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
