"""Instance/analysis documents and the differential oracle runner.

Documents are canonical JSON (sorted keys, two-space indent, trailing
newline).  An instance document round-trips losslessly: serialization writes
the closed families back as seeds, and re-closing an already closed family is
the identity on the ordering.

The oracle runner drives every structural identity the engine relies on.
Each suite is addressed by a fixed opaque token (the CLI vocabulary):

    locsat     saturation calculus (monotone, union, idempotent, symmetry,
               decomposition, equivariance)
    bH         reach-set composition and coset laws
    vaught     transform identities, stagewise and in the limit
    hist       piece invariance, partition, cross-scale and equivariance laws
    vb         successor-piece decomposition against the engine
    phar       engine-vs-oracle piece partitions, canonical pattern partition,
               stabilization bound
    list       surrounding property of saturated pieces
    translate  translate containment and decomposition of translated pieces
    orb        rank+2 pieces are final
    subs       relative re-analysis equalities and the successor-basis remark
    all        everything above

Definitional checks carry severity "assert" in every mode; theorem-tier
checks are "assert" on strict instances and "report" on exploratory ones.
A nonempty set of "assert" entries is an oracle failure; "report" entries are
findings.
"""

from __future__ import annotations

import json
import random
from json.encoder import encode_basestring_ascii as _quote

from .algebra import all_subgroups, conjugate, group_from_generators, group_from_table
from .bits import bits, is_subset, mask_of, to_list
from .classify import classification_report
from .gspace import (
    ActionInstance,
    build_instance,
    named_instance,
    NAMED_INSTANCES,
    orbit,
    translate_set,
)
from .saturation import (
    act_image,
    cached_reach,
    group_coset_partition,
    is_locally_invariant,
    local_orbit,
    reach_common,
    reach_sets,
    reach_stages,
    saturate,
    saturate_by_parts,
)
from .scott import (
    PieceTable,
    STABLE,
    analyze,
    pattern_partition,
    piece,
    piece_from_decomposition,
    scott_rank,
    stable_partition,
    successor_level,
)
from .topology import generate_topology, refined_family, relative_pieces
from .transforms import (
    delta,
    local_delta,
    local_delta_n,
    local_star,
    local_star_n,
    star,
)

INSTANCE_SCHEMA = "orbitpieces-instance/1"
ANALYSIS_SCHEMA = "orbitpieces-analysis/1"


class InstanceFormatError(ValueError):
    """An instance document is syntactically or structurally invalid."""


# ---------------------------------------------------------------------------
# instance documents


def instance_to_dict(inst: ActionInstance) -> dict:
    """Canonical document: explicit tables, closed families written as seeds."""
    return {
        "schema": INSTANCE_SCHEMA,
        "name": inst.name,
        "mode": inst.mode,
        "group": {"mul": [list(row) for row in inst.group.mul]},
        "space": {"size": inst.size, "action": [list(row) for row in inst.act]},
        "basisU": {"seeds": [to_list(u) for u in inst.basisU.members[:-1]]},
        "basisV": {"seeds": [to_list(v) for v in inst.basisV.members[:-1]]},
    }


def serialize_instance(inst: ActionInstance) -> str:
    return canonical_json(instance_to_dict(inst)) + "\n"


def canonical_json(value) -> str:
    """The bytes of ``json.dumps(value, sort_keys=True, indent=2)``.

    With ``indent`` set, CPython's ``json`` runs its pure-Python encoder: a
    generator per container and a ``yield`` per separator.  This writer
    builds each container with one join over its parts, and quotes strings
    with the C routine ``json`` itself uses.  It takes only what documents
    hold: dicts with str keys, lists and tuples, str, int, bool and None
    (exactly these types, not subclasses).  Anything else, a float or a
    non-str key included, raises ``TypeError``.
    """
    return _write(value, "\n")


def _write(v, pad: str) -> str:
    # pad starts a line at v's own depth
    t = type(v)
    if t is str:
        return _quote(v)
    if t is int:
        return int.__repr__(v)
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = pad + "  "
        # scalars inline: a call per list element is most of the cost
        parts = [
            _quote(x) if type(x) is str else int.__repr__(x) if type(x) is int else _write(x, inner)
            for x in v
        ]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    if t is dict:
        if not v:
            return "{}"
        inner = pad + "  "
        keys = sorted(v)
        for k in keys:
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        parts = [_quote(k) + ": " + _write(v[k], inner) for k in keys]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def parse_instance(document) -> ActionInstance:
    """Parse and validate an instance document (a JSON string or a dict)."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"not valid JSON: {exc}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be an object")
    for key in ("group", "space", "basisU", "basisV", "mode"):
        if key not in doc:
            raise InstanceFormatError(f"missing field {key!r}")
    try:
        if "mul" in doc["group"]:
            group = group_from_table(doc["group"]["mul"])
        else:
            group = group_from_generators(doc["group"]["generators"])
    except (KeyError, TypeError) as exc:
        raise InstanceFormatError(f"bad group description: {exc}") from None

    space = doc["space"]
    if space == "self-left-multiplication":
        size = group.order
        action = [list(row) for row in group.mul]
    else:
        try:
            size = space["size"]
            action = space["action"]
        except (KeyError, TypeError) as exc:
            raise InstanceFormatError(f"bad space description: {exc}") from None
        if type(size) is not int:
            raise InstanceFormatError("space.size must be an int")
        if not isinstance(action, list) or not all(
            isinstance(row, list) and all(type(p) is int for p in row) for row in action
        ):
            raise InstanceFormatError("space.action must be a list of lists of ints")

    def seeds_of(key: str, bound: int) -> list[int]:
        section = doc[key]
        if not isinstance(section, dict):
            raise InstanceFormatError(f"{key} must be an object with a seeds list")
        raw = section.get("seeds", [])
        if not isinstance(raw, list) or not all(
            isinstance(arr, list) and all(type(i) is int and 0 <= i < bound for i in arr)
            for arr in raw
        ):
            raise InstanceFormatError(
                f"{key}.seeds must be a list of index lists in range({bound})"
            )
        return [mask_of(arr) for arr in raw]

    return build_instance(
        group,
        size,
        action,
        seeds_of("basisU", size),
        seeds_of("basisV", group.order),
        doc["mode"],
        name=str(doc.get("name", "")),
    )


def load_instance(spec: str, mode_override: str | None = None) -> ActionInstance:
    """Resolve a built-in instance name or a document path."""
    if spec in NAMED_INSTANCES:
        inst = named_instance(spec)
    else:
        try:
            with open(spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise InstanceFormatError(
                f"{spec!r} is neither a built-in instance name nor a readable file: {exc}"
            ) from None
        inst = parse_instance(text)
    if mode_override and mode_override != inst.mode:
        inst = build_instance(
            inst.group,
            inst.size,
            inst.act,
            inst.basisU.members[:-1],
            inst.basisV.members[:-1],
            mode_override,
            name=inst.name,
        )
    return inst


# ---------------------------------------------------------------------------
# oracle plumbing


class _Ctx:
    def __init__(self, inst, table, seed, trials):
        self.inst = inst
        self.table = table
        self.seed = seed
        self.trials = trials
        self.strict = inst.mode == "strict"
        self.entries: list[dict] = []
        self.rng = random.Random()

    def reseed(self, token: str) -> None:
        self.rng.seed(f"oracle:{self.seed}:{token}")

    def fail(self, suite, check, cell=None, severity="assert", **witness):
        self.entries.append(
            {
                "suite": suite,
                "check": check,
                "cell": list(cell) if cell is not None else None,
                "witness": witness,
                "mode": self.inst.mode,
                "severity": severity,
            }
        )

    def theorem_severity(self) -> str:
        return "assert" if self.strict else "report"

    # -- samplers ----------------------------------------------------------

    def point_set(self) -> int:
        return self.rng.getrandbits(self.inst.size)

    def elem_set(self) -> int:
        return self.rng.getrandbits(self.inst.group.order)

    def cell(self) -> tuple[int, int]:
        return (
            self.rng.randrange(len(self.inst.basisU)),
            self.rng.randrange(len(self.inst.basisV)),
        )

    def sym_subset(self, v: int) -> int:
        """A random symmetric subset of v containing the identity."""
        inv = self.inst.group.inv
        out = 1
        for e in bits(v):
            if e and self.rng.random() < 0.5:
                out |= (1 << e) | (1 << inv[e])
        return out

    def point_in(self, u: int) -> int:
        pts = to_list(u)
        return pts[self.rng.randrange(len(pts))]


class _Memo(dict):
    """A dict that fills each missing key with ``fn(key)``."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        got = self[key] = self.fn(key)
        return got


def _padded_star_limit(inst: ActionInstance, a: int, u: int, v: int) -> int:
    """A^{*_U V} from its definition, independent of ``local_star``: from A∩U,
    S ← star(S ∪ (X∖U), V) ∩ U until S stops changing."""
    pad = inst.full_points & ~u
    cur = a & u
    while True:
        nxt = star(inst, cur | pad, v) & u
        if nxt == cur:
            return cur
        cur = nxt


def _reach_image(inst: ActionInstance, x: int, u: int, v: int) -> int:
    """r·x for r = ⟨V⟩ˣ_U: the points the reach set of x takes x to."""
    act = inst.act
    img = 0
    for g in to_list(cached_reach(inst, x, u, v)):
        img |= 1 << act[g][x]
    return img


# ---------------------------------------------------------------------------
# suite: locsat


def _suite_locsat(ctx: _Ctx):
    inst = ctx.inst
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    t = ctx.trials

    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        b = ctx.point_set()
        a = b & ctx.point_set()
        u2 = u & ctx.point_set()
        v2 = ctx.sym_subset(v)
        if not is_subset(saturate(inst, a, u2, v2), saturate(inst, b, u, v)):
            ctx.fail("locsat", "saturate-monotone", (n, m), A=to_list(a), B=to_list(b))

    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        a, b = ctx.point_set(), ctx.point_set()
        if saturate(inst, a | b, u, v) != saturate(inst, a, u, v) | saturate(inst, b, u, v):
            ctx.fail("locsat", "saturate-union", (n, m), A=to_list(a), B=to_list(b))
        byp = 0
        for x in bits(a):
            byp |= local_orbit(inst, x, u, v)
        if saturate(inst, a, u, v) != byp:
            ctx.fail("locsat", "saturate-pointwise-union", (n, m), A=to_list(a))

    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        a = ctx.point_set()
        s = saturate(inst, a, u, v)
        if saturate(inst, s, u, v) != s:
            ctx.fail("locsat", "saturate-idempotent", (n, m), A=to_list(a))
        if saturate_by_parts(inst, a, u, v) != s:
            ctx.fail("locsat", "saturate-orbit-union", (n, m), A=to_list(a))

    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        if not u:
            continue
        x, y = ctx.point_in(u), ctx.point_in(u)
        ox, oy = local_orbit(inst, x, u, v), local_orbit(inst, y, u, v)
        if (ox == oy) != bool(oy >> x & 1):
            ctx.fail("locsat", "orbit-symmetry", (n, m), x=x, y=y)

    # decomposition of a local orbit along its reach set
    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        if not u:
            continue
        x = ctx.point_in(u)
        u2 = ctx.point_set() | 1 << x
        v2 = ctx.sym_subset(v)
        mul = inst.group.mul
        rhs = 0
        for g in bits(reach_sets(inst, x, u, v)):
            gv = mask_of(mul[g][e] for e in bits(v2))
            vg = mask_of(mul[e][g] for e in bits(v2))
            rhs |= act_image(inst, 1 << x, gv & vg) & translate_set(inst, u2, g)
        if rhs & u != local_orbit(inst, x, u, v):
            ctx.fail("locsat", "orbit-reach-decomposition", (n, m), x=x,
                     U2=to_list(u2), V2=to_list(v2))

    for f in range(inst.group.order):
        for _ in range(max(2, t // 4)):
            n, m = ctx.cell()
            u, v = membersU[n], membersV[m]
            a = ctx.point_set()
            lhs = translate_set(inst, saturate(inst, a, u, v), f)
            rhs = saturate(
                inst,
                translate_set(inst, a, f),
                translate_set(inst, u, f),
                conjugate(v, f, inst.group),
            )
            if lhs != rhs:
                ctx.fail("locsat", "saturate-equivariance", (n, m), f=f, A=to_list(a))

    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        if not u:
            continue
        x = ctx.point_in(u)
        r = reach_sets(inst, x, u, v)
        img = 0
        for g in bits(r):
            img |= 1 << inst.act[g][x]
        if img != local_orbit(inst, x, u, v):
            ctx.fail("locsat", "orbit-via-reach", (n, m), x=x)


# ---------------------------------------------------------------------------
# suite: bH


def _suite_bH(ctx: _Ctx):
    inst = ctx.inst
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    mul = inst.group.mul
    t = ctx.trials

    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        if not u:
            continue
        x = ctx.point_in(u)
        for depth in (1, 2, inst.group.order):
            lhs = reach_sets(inst, x, u, v, depth + 1)
            stage1 = reach_sets(inst, x, u, v, 1)
            rhs = 0
            for h in bits(stage1):
                hx = inst.act[h][x]
                for g in bits(reach_sets(inst, hx, u, v, depth)):
                    rhs |= 1 << mul[g][h]
            if lhs != rhs:
                ctx.fail("bH", "reach-composition", (n, m), x=x, depth=depth)

    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        if not u:
            continue
        x = ctx.point_in(u)
        r = reach_sets(inst, x, u, v)
        for h in bits(r):
            rh = 0
            for s in bits(reach_sets(inst, inst.act[h][x], u, v)):
                rh |= 1 << mul[s][h]
            if rh != r:
                ctx.fail("bH", "reach-coset-law", (n, m), x=x, h=h)
                break

    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        x = ctx.rng.randrange(inst.size)
        blocks = group_coset_partition(inst, x, u, v)
        domain = 0
        for h in range(inst.group.order):
            if u >> inst.act[h][x] & 1:
                domain |= 1 << h
        union = 0
        ok = True
        for blk in blocks:
            if blk & union:
                ok = False
            union |= blk
        if not ok or union != domain:
            ctx.fail("bH", "coset-partition", (n, m), x=x,
                     blocks=[to_list(b) for b in blocks])


# ---------------------------------------------------------------------------
# suite: vaught


def _suite_vaught(ctx: _Ctx):
    inst = ctx.inst
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    mul = inst.group.mul
    inv = inst.group.inv
    t = ctx.trials

    for _ in range(t):
        a = ctx.point_set()
        h = ctx.elem_set()
        if not h:
            h = 1
        g = ctx.rng.randrange(inst.group.order)
        hg = mask_of(mul[e][g] for e in bits(h))
        if translate_set(inst, star(inst, a, h), inv[g]) != star(inst, a, hg):
            ctx.fail("vaught", "translation-rule-star", None, A=to_list(a), H=to_list(h), g=g)
        if translate_set(inst, delta(inst, a, h), inv[g]) != delta(inst, a, hg):
            ctx.fail("vaught", "translation-rule-delta", None, A=to_list(a), H=to_list(h), g=g)

    for k in all_subgroups(inst.group):
        for _ in range(max(2, t // 4)):
            a = ctx.point_set()
            if delta(inst, a, k) != act_image(inst, a, k):
                ctx.fail("vaught", "subgroup-delta-saturation", None, K=to_list(k), A=to_list(a))

    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        a = ctx.point_set()
        stages_d = [local_delta_n(inst, a, u, v, i) for i in range(1, u.bit_count() + 2)]
        stages_s = [local_star_n(inst, a, u, v, i) for i in range(1, u.bit_count() + 2)]
        for i in range(len(stages_d) - 1):
            if not is_subset(stages_d[i], stages_d[i + 1]):
                ctx.fail("vaught", "delta-stages-increase", (n, m), A=to_list(a), stage=i + 1)
            if not is_subset(stages_s[i + 1], stages_s[i]):
                ctx.fail("vaught", "star-stages-decrease", (n, m), A=to_list(a), stage=i + 1)
        # reach sets repeat across stages and points once they stop growing
        delta_of = _Memo(lambda r: delta(inst, a, r))
        star_of = _Memo(lambda r: star(inst, a, r))
        for x in bits(u):
            rs = reach_stages(inst, x, u, v, len(stages_d))
            for i, sd in enumerate(stages_d):
                if bool(sd >> x & 1) != bool(delta_of[rs[i]] >> x & 1):
                    ctx.fail("vaught", "stage-reach-delta", (n, m), A=to_list(a), x=x, stage=i + 1)
                    break
            for i, ss in enumerate(stages_s):
                if bool(ss >> x & 1) != bool(star_of[rs[i]] >> x & 1):
                    ctx.fail("vaught", "stage-reach-star", (n, m), A=to_list(a), x=x, stage=i + 1)
                    break
        ld = local_delta(inst, a, u, v)
        ls = local_star(inst, a, u, v)
        for x in bits(u):
            r = reach_sets(inst, x, u, v)
            if bool(ld >> x & 1) != bool(delta_of[r] >> x & 1):
                ctx.fail("vaught", "limit-reach-delta", (n, m), A=to_list(a), x=x)
            if bool(ls >> x & 1) != bool(star_of[r] >> x & 1):
                ctx.fail("vaught", "limit-reach-star", (n, m), A=to_list(a), x=x)

    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        a, b = ctx.point_set(), ctx.point_set()
        v2 = ctx.sym_subset(v)
        ld = local_delta(inst, a, u, v)
        ls = local_star(inst, a, u, v)
        if not is_subset(local_delta(inst, a, u, v2), ld):
            ctx.fail("vaught", "delta-monotone-in-V", (n, m), A=to_list(a), V2=to_list(v2))
        if not is_subset(ls, local_star(inst, a, u, v2)):
            ctx.fail("vaught", "star-antitone-in-V", (n, m), A=to_list(a), V2=to_list(v2))
        if local_delta(inst, u & ~a, u, v) != u & ~_padded_star_limit(inst, a, u, v):
            ctx.fail("vaught", "delta-star-duality", (n, m), A=to_list(a))
        if local_delta(inst, a | b, u, v) != ld | local_delta(inst, b, u, v):
            ctx.fail("vaught", "delta-union-law", (n, m), A=to_list(a), B=to_list(b))
        if local_star(inst, a & b, u, v) != ls & local_star(inst, b, u, v):
            ctx.fail("vaught", "star-intersection-law", (n, m), A=to_list(a), B=to_list(b))
        sat = saturate(inst, a, u, v)
        if not (is_subset(ls, ld) and is_subset(ld, sat)):
            ctx.fail("vaught", "transform-sandwich", (n, m), A=to_list(a))
        if not is_locally_invariant(inst, ld, u, v) or not is_locally_invariant(inst, ls, u, v):
            ctx.fail("vaught", "transform-invariance", (n, m), A=to_list(a))
        inv_a = sat | (ctx.point_set() & ~u)
        if local_delta(inst, inv_a, u, v) != inv_a & u or local_star(inst, inv_a, u, v) != inv_a & u:
            ctx.fail("vaught", "invariant-transform-trace", (n, m), A=to_list(inv_a))

    # the-two-paths proposition: a saturation generated under sub-cell
    # hypotheses has equal saturation and limit delta; and in the finite
    # category the identity holds for arbitrary sets
    for _ in range(t):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        subs = [u2 for u2 in membersU if is_subset(u2, u)]
        u2 = subs[ctx.rng.randrange(len(subs))]
        v2 = membersV[ctx.rng.randrange(len(membersV))]
        a = saturate(inst, ctx.point_set(), u2, v2)
        if saturate(inst, a, u, v) != local_delta(inst, a, u, v):
            ctx.fail("vaught", "saturation-equals-delta", (n, m), A=to_list(a),
                     U2=to_list(u2), V2=to_list(v2))
        b = ctx.point_set()
        if saturate(inst, b, u, v) != local_delta(inst, b, u, v):
            ctx.fail("vaught", "saturation-equals-delta-general", (n, m), A=to_list(b))

    # elementwise decomposition of the limit transforms.  With r the reach set
    # of x ∈ U, x lies in A^{Δ_U V} iff x ∈ star(A, V2·g) for some pair (V2, g),
    # V2 ∋ 1 a symmetric subset of V and g ∈ r with V2·g ⊆ r, and in A^{*_U V}
    # iff x ∈ delta(A, V2·g) for every pair.  The pairs with V2 = {1} decide:
    #   1. {1}·g = {g} ⊆ r, so every g ∈ r gives a pair ({1}, g);
    #   2. every pair has {g} ⊆ V2·g, star is antitone and delta monotone in H,
    #      so star(A, V2·g) ⊆ star(A, {g}) and delta(A, V2·g) ⊇ delta(A, {g});
    #   3. x ∈ star(A, {g}) iff x ∈ delta(A, {g}) iff g·x ∈ A.
    # So the union side is "r·x meets A" and the intersection side "r·x ⊆ A".
    for _ in range(max(2, t // 4)):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        if not u:
            continue
        a = ctx.point_set()
        ld = local_delta(inst, a, u, v)
        ls = local_star(inst, a, u, v)
        pts = to_list(u)
        ctx.rng.shuffle(pts)
        for x in pts[:3]:
            img = _reach_image(inst, x, u, v)
            if bool(img & a) != bool(ld >> x & 1):
                ctx.fail("vaught", "delta-star-decomposition", (n, m), A=to_list(a), x=x)
            if (not img & ~a) != bool(ls >> x & 1):
                ctx.fail("vaught", "star-delta-decomposition", (n, m), A=to_list(a), x=x)


# ---------------------------------------------------------------------------
# suite: phar


def _oracle_level1_cell(inst, u, v):
    """Level-1 pieces from the intersection formula (no signatures involved).

    Returns (value, points) pairs ordered by least point, where value is the
    intersection the formula assigns to every point of the block.
    """
    full = inst.full_points
    sats = [saturate_by_parts(inst, ul, u, v) for ul in inst.basisU.members]
    out: dict[int, int] = {}
    for x in bits(u):
        b = _formula_block(local_orbit(inst, x, u, v), sats, u, full)
        out[b] = out.get(b, 0) | 1 << x
    return sorted(out.items(), key=lambda kv: kv[1] & -kv[1])


def _formula_block(orb: int, sats, u: int, full: int) -> int:
    """The intersection formula for one orbit: U ∩ every saturation it meets
    ∩ the complement of every one it misses."""
    b = u
    for s in sats:
        b &= s if orb & s else full & ~s
    return b


def _successor_formula(inst, data, parts, u: int, v: int) -> list[int]:
    """The blocks the intersection formula gives a cell's orbits ``parts``
    over the level ``data``, ordered by least point.

    Each distinct block mask of the level is saturated once, and only the
    distinct saturations enter the formula: a saturation that recurs would
    AND the same factor in again.
    """
    masks = {mask for blocks in data for _, mask in blocks}
    sats = {saturate_by_parts(inst, mask, u, v) for mask in masks}
    full = inst.full_points
    got: dict[int, int] = {}
    for part in parts:
        b = _formula_block(part, sats, u, full)
        got[b] = got.get(b, 0) | part
    return sorted(got.values(), key=lambda m2: m2 & -m2)


def _suite_phar(ctx: _Ctx):
    inst = ctx.inst
    table = ctx.table
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    cells = table.cells
    n_cells = len(cells)

    cell_ids = list(range(n_cells))
    budget = max(8, ctx.trials)
    if n_cells > budget:
        cell_ids = sorted(ctx.rng.sample(range(n_cells), budget))

    # level-1 agreement with the intersection formula
    for ci in cell_ids:
        n, m = cells[ci]
        u, v = membersU[n], membersV[m]
        pairs = _oracle_level1_cell(inst, u, v)
        blocks = [pts for _, pts in pairs]
        engine = [mask for _, mask in table.levels[0][ci]]
        if blocks != engine:
            ctx.fail("phar", "level1-intersection-formula", (n, m),
                     oracle=[to_list(b) for b in blocks],
                     engine=[to_list(b) for b in engine])
        for value, pts in pairs:
            if value != pts:
                ctx.fail("phar", "level1-block-self-membership", (n, m),
                         piece=to_list(pts), value=to_list(value))

    # successor agreement: intersection formula applied to the engine's level
    for lvl in range(1, table.stabilization + 1):
        data = table.levels[lvl - 1]
        nxt = table.levels[lvl] if lvl < table.stabilization else table.levels[lvl - 1]
        for ci in cell_ids:
            n, m = cells[ci]
            u, v = membersU[n], membersV[m]
            oracle = _successor_formula(inst, data, table.cell_orbits[ci], u, v)
            engine = [mask for _, mask in nxt[ci]]
            if oracle != engine:
                ctx.fail("phar", "successor-intersection-formula", (n, m), level=lvl,
                         oracle=[to_list(b) for b in oracle],
                         engine=[to_list(b) for b in engine])

    # refinement downward plus signature/identifier coherence
    for lvl in range(1, table.stabilization):
        for ci, (n, m) in enumerate(cells):
            coarse = table.levels[lvl - 1][ci]
            for _, mask in table.levels[lvl][ci]:
                if not any(is_subset(mask, cmask) for _, cmask in coarse):
                    ctx.fail("phar", "levels-refine", (n, m), level=lvl + 1, piece=to_list(mask))

    for ci, (n, m) in enumerate(cells):
        for lvl in range(1, table.stabilization + 1):
            seen_pids: dict[str, int] = {}
            for pid, mask in table.levels[lvl - 1][ci]:
                if pid in seen_pids:
                    ctx.fail("phar", "piece-id-collision-in-cell", (n, m), level=lvl)
                seen_pids[pid] = mask
                x = (mask & -mask).bit_length() - 1
                if piece(table, x, n, m, lvl) != mask:
                    ctx.fail("phar", "piece-lookup-roundtrip", (n, m), level=lvl, x=x)

    # canonical pattern partition against the level-1 top cell
    top = [mask for _, mask in table.levels[0][table.cell_index(len(membersU) - 1, len(membersV) - 1)]]
    if top != pattern_partition(inst):
        ctx.fail("phar", "canonical-pattern-partition", (len(membersU) - 1, len(membersV) - 1),
                 engine=[to_list(b) for b in top],
                 pattern=[to_list(b) for b in pattern_partition(inst)])

    # stabilization bound and one-step fixedness
    bound = inst.size * len(membersU) * len(membersV)
    if table.stabilization > bound:
        ctx.fail("phar", "stabilization-bound", None, stabilization=table.stabilization, bound=bound)
    extra, _ = successor_level(inst, cells, table.cell_orbits, table.levels[-1])
    for ci, (n, m) in enumerate(cells):
        if [mask for _, mask in extra[ci]] != [mask for _, mask in table.levels[-1][ci]]:
            ctx.fail("phar", "stable-level-fixed", (n, m))


# ---------------------------------------------------------------------------
# suite: hist


def _suite_hist(ctx: _Ctx):
    inst = ctx.inst
    table = ctx.table
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    sev = ctx.theorem_severity()

    for ci, (n, m) in enumerate(table.cells):
        u, v = membersU[n], membersV[m]
        for lvl in range(1, table.stabilization + 1):
            union = 0
            ok = True
            for _, mask in table.levels[lvl - 1][ci]:
                if mask & union or not is_subset(mask, u):
                    ok = False
                union |= mask
                if not is_locally_invariant(inst, mask, u, v):
                    ctx.fail("hist", "piece-locally-invariant", (n, m), level=lvl, piece=to_list(mask))
                x = (mask & -mask).bit_length() - 1
                if not is_subset(local_orbit(inst, x, u, v), mask):
                    ctx.fail("hist", "piece-contains-local-orbit", (n, m), level=lvl, x=x)
            if not ok or union != u:
                ctx.fail("hist", "pieces-partition-cell", (n, m), level=lvl)

    subsU = [[i for i, ui in enumerate(membersU) if is_subset(ui, un)] for un in membersU]
    subsV = [[j for j, vj in enumerate(membersV) if is_subset(vj, vm)] for vm in membersV]
    for _ in range(ctx.trials):
        bign = ctx.rng.randrange(len(membersU))
        bigm = ctx.rng.randrange(len(membersV))
        n = subsU[bign][ctx.rng.randrange(len(subsU[bign]))]
        m = subsV[bigm][ctx.rng.randrange(len(subsV[bigm]))]
        if not membersU[n]:
            continue
        x = ctx.point_in(membersU[n])
        alpha = ctx.rng.randrange(1, table.stabilization + 2)
        beta = ctx.rng.randrange(0, alpha + 1)
        inner = piece(table, x, n, m, alpha)
        outer = membersU[bign] if beta == 0 else piece(table, x, bign, bigm, beta)
        if not is_subset(inner, outer):
            ctx.fail("hist", "cross-scale-containment", (n, m), severity=sev,
                     outer_cell=[bign, bigm], x=x, alpha=alpha, beta=beta)

    for _ in range(ctx.trials):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        if not u:
            continue
        h = ctx.rng.randrange(inst.group.order)
        x = ctx.point_in(u)
        lvl = ctx.rng.randrange(1, table.stabilization + 2)
        lhs = translate_set(inst, piece(table, x, n, m, lvl), h)
        n2 = inst.basisU.index(translate_set(inst, u, h))
        m2 = inst.basisV.index(conjugate(v, h, inst.group))
        rhs = piece(table, inst.act[h][x], n2, m2, lvl)
        if lhs != rhs:
            ctx.fail("hist", "piece-equivariance", (n, m), severity=sev, x=x, h=h, level=lvl)


# ---------------------------------------------------------------------------
# suites: vb / list / translate / orb


def _suite_vb(ctx: _Ctx):
    table = ctx.table
    sev = ctx.theorem_severity()
    jobs = []
    for ci, (n, m) in enumerate(table.cells):
        for part in table.cell_orbits[ci]:
            x = (part & -part).bit_length() - 1
            for alpha in range(1, table.stabilization + 2):
                jobs.append((n, m, x, alpha))
    if len(jobs) > ctx.trials * 40:
        jobs = [jobs[i] for i in sorted(ctx.rng.sample(range(len(jobs)), ctx.trials * 40))]
    for n, m, x, alpha in jobs:
        got = piece_from_decomposition(table, x, n, m, alpha)
        want = piece(table, x, n, m, alpha + 1)
        if got != want:
            ctx.fail("vb", "successor-piece-decomposition", (n, m), severity=sev,
                     x=x, alpha=alpha, decomposition=to_list(got), piece=to_list(want))


def _suite_list(ctx: _Ctx):
    inst = ctx.inst
    table = ctx.table
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    sev = ctx.theorem_severity()
    subsU = [[i for i, ui in enumerate(membersU) if is_subset(ui, un)] for un in membersU]

    for _ in range(ctx.trials):
        u_idx, v_idx = ctx.cell()
        u, v = membersU[u_idx], membersV[v_idx]
        n = ctx.rng.randrange(len(membersU))
        if not membersU[n] & u:
            continue
        x = ctx.point_in(membersU[n] & u)
        m = ctx.rng.randrange(len(membersV))
        alpha = ctx.rng.randrange(1, table.stabilization + 1)
        sat = saturate(inst, piece(table, x, n, m, alpha), u, v)
        for y in bits(sat):
            found = False
            for i in subsU[n]:
                ui = membersU[i]
                for h in bits(reach_common(inst, ui, u, v)):
                    hui = translate_set(inst, ui, h)
                    if not hui >> y & 1:
                        continue
                    j = inst.basisU.index(hui)
                    m2 = inst.basisV.index(conjugate(membersV[m], h, inst.group))
                    if is_subset(piece(table, y, j, m2, alpha), sat):
                        found = True
                        break
                if found:
                    break
            if not found:
                ctx.fail("list", "surrounding-piece", (u_idx, v_idx), severity=sev,
                         source_cell=[n, m], x=x, y=y, alpha=alpha)
                break


def _suite_translate(ctx: _Ctx):
    inst = ctx.inst
    table = ctx.table
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    sev = ctx.theorem_severity()

    for _ in range(ctx.trials):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        if not u:
            continue
        x = ctx.point_in(u)
        h = ctx.rng.randrange(inst.group.order)
        hu = translate_set(inst, u, h)
        hv = conjugate(v, h, inst.group)
        hx = inst.act[h][x]
        alpha = ctx.rng.randrange(1, table.stabilization + 2)
        beta = ctx.rng.randrange(1, alpha + 1)
        translated = translate_set(inst, piece(table, x, n, m, beta), h)
        for j, uj in enumerate(membersU):
            if not (uj >> hx & 1 and is_subset(uj, hu)):
                continue
            for m2, vm2 in enumerate(membersV):
                if not is_subset(vm2, hv):
                    continue
                if not is_subset(piece(table, hx, j, m2, alpha), translated):
                    ctx.fail("translate", "h-translate-containment", (n, m), severity=sev,
                             x=x, h=h, alpha=alpha, beta=beta, inner_cell=[j, m2])

    for _ in range(ctx.trials):
        n, m = ctx.cell()
        u, v = membersU[n], membersV[m]
        if not u:
            continue
        x = ctx.point_in(u)
        h = ctx.rng.randrange(inst.group.order)
        alpha = ctx.rng.randrange(1, table.stabilization + 2)
        hb = translate_set(inst, piece(table, x, n, m, alpha), h)
        hu = translate_set(inst, u, h)
        hv = conjugate(v, h, inst.group)
        for y in bits(hb):
            found = False
            for j, uj in enumerate(membersU):
                if not (uj >> y & 1 and is_subset(uj, hu)):
                    continue
                for m2, vm2 in enumerate(membersV):
                    if is_subset(vm2, hv) and is_subset(piece(table, y, j, m2, alpha), hb):
                        found = True
                        break
                if found:
                    break
            if not found:
                ctx.fail("translate", "translated-piece-cover", (n, m), severity=sev,
                         x=x, h=h, alpha=alpha, y=y)
                break


def _suite_orb(ctx: _Ctx):
    inst = ctx.inst
    table = ctx.table
    sev = ctx.theorem_severity()
    for x in range(inst.size):
        rank = scott_rank(table, x)
        for ci, (n, m) in enumerate(table.cells):
            if not inst.basisU[n] >> x & 1:
                continue
            if piece(table, x, n, m, rank + 2) != piece(table, x, n, m, STABLE):
                ctx.fail("orb", "rank-plus-two-final", (n, m), severity=sev, x=x, rank=rank)


# ---------------------------------------------------------------------------
# suite: subs


def _suite_subs(ctx: _Ctx):
    inst = ctx.inst
    table = ctx.table
    membersU = inst.basisU.members
    membersV = inst.basisV.members
    sev = ctx.theorem_severity()

    # relative re-analysis comparison on sampled parameter tuples
    tried = 0
    attempts = 0
    while tried < max(2, ctx.trials // 8) and attempts < ctx.trials * 4:
        attempts += 1
        alpha = ctx.rng.randrange(2, table.stabilization + 3)
        gamma = ctx.rng.randrange(1, alpha)
        u_idx, v_idx = ctx.cell()
        x = ctx.rng.randrange(inst.size)
        candidates = orbit(inst, x) & membersU[u_idx]
        if not candidates:
            continue
        x2 = ctx.point_in(candidates)
        try:
            rel = relative_pieces(table, x, alpha, gamma, x2, u_idx, v_idx)
        except ValueError:
            continue
        tried += 1
        betas = list(range(0, table.stabilization + 2)) + [STABLE]
        for y in bits(rel.d_parent):
            ys = rel.to_sub_point(y)
            for beta in betas:
                if beta is STABLE:
                    lhs = piece(table, y, u_idx, v_idx, STABLE)
                    rhs = rel.to_parent(piece(rel.sub_table, ys, rel.d_index, v_idx, STABLE))
                    tag = "stable"
                else:
                    lhs = piece(table, y, u_idx, v_idx, alpha + beta)
                    rhs = rel.to_parent(piece(rel.sub_table, ys, rel.d_index, v_idx, beta + 1))
                    tag = beta
                if lhs != rhs:
                    ctx.fail("subs", "relative-piece-equality", (u_idx, v_idx), severity=sev,
                             x=x, x2=x2, alpha=alpha, gamma=gamma, y=y, beta=tag,
                             lhs=to_list(lhs), rhs=to_list(rhs))

    # the successor-basis remark: one level of pieces generates the same
    # relative topology as the whole refined family
    for _ in range(max(2, ctx.trials // 8)):
        x = ctx.rng.randrange(inst.size)
        beta = ctx.rng.randrange(0, table.stabilization + 1)
        alpha = beta + 1
        top_u = len(membersU) - 1
        top_v = len(membersV) - 1
        ground = piece(table, x, top_u, top_v, max(alpha, 1))
        fam_all = refined_family(table, x, max(alpha, 1))
        if beta == 0:
            fam_one = list(membersU)
        else:
            orb = orbit(inst, x)
            fam_one = []
            seen = set()
            for ci, (n, m) in enumerate(table.cells):
                pts = orb & membersU[n]
                for y in bits(pts):
                    p = piece(table, y, n, m, beta)
                    if p not in seen:
                        seen.add(p)
                        fam_one.append(p)
        t_all = generate_topology(ground, fam_all)
        t_one = generate_topology(ground, fam_one)
        if t_all != t_one:
            ctx.fail("subs", "successor-basis-topology", None, severity=sev, x=x, beta=beta)


_SUITE_FUNCS = {
    "locsat": _suite_locsat,
    "bH": _suite_bH,
    "vaught": _suite_vaught,
    "hist": _suite_hist,
    "vb": _suite_vb,
    "phar": _suite_phar,
    "list": _suite_list,
    "translate": _suite_translate,
    "orb": _suite_orb,
    "subs": _suite_subs,
}
SUITES = tuple(_SUITE_FUNCS)

DEFAULT_TRIALS = 16

# The vaught suite is refused past this many classes {g, g⁻¹} of non-identity
# elements.  The cap was set when the suite's elementwise decomposition listed
# every symmetric subset of a neighbourhood that contains the identity, 2^k
# of them for the full group (Z/40, k = 20, took 40 s).  The decomposition is
# now decided by its singleton law (see ``_suite_vaught``), and what remains
# grows with |G| and the subgroup count, not 2^k: with the cap lifted,
# `report` (build_analysis, default seed) on the regular action takes
# 0.03-0.04 s at k = 16-19 (Z/32, S4, D13), 0.07 s for Z/40, 0.05 s for D14
# (k = 21) and 0.44 s for the S5 24-coset action (k = 72), 2-core VM.  Every
# group of order ≤ 26 is accepted, and k ≤ 19 bounds |G| by 39.
MAX_VAUGHT_INVERSE_CLASSES = 19


def _check_suite_request(inst: ActionInstance, suite: str) -> None:
    """Refuse, before any work, an unknown suite or a vaught run past its cap."""
    if suite != "all" and suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r}")
    if suite in ("all", "vaught"):
        inv = inst.group.inv
        k = sum(1 for e in range(1, inst.group.order) if e <= inv[e])
        if k > MAX_VAUGHT_INVERSE_CLASSES:
            raise ValueError(
                f"the vaught suite is limited to groups with at most "
                f"{MAX_VAUGHT_INVERSE_CLASSES} classes {{g, g^-1}} of non-identity "
                f"elements (this one has {k}); choose another suite"
            )


def run_oracles(
    inst: ActionInstance,
    suite: str = "all",
    seed: int = 0,
    trials: int | None = None,
    table: PieceTable | None = None,
) -> list[dict]:
    """Run one differential suite (or all of them) and return the log.

    The log is a deterministic function of (instance, suite, seed, trials);
    each suite reseeds its own generator, so running "all" produces exactly
    the union of the individual runs.  Entries with severity "assert" signal
    oracle failures; "report" entries are exploratory findings.  A run that
    includes the vaught suite is refused with ``ValueError`` when the group
    has more than ``MAX_VAUGHT_INVERSE_CLASSES`` classes {g, g⁻¹}.
    """
    _check_suite_request(inst, suite)
    if table is None:
        table = analyze(inst)
    ctx = _Ctx(inst, table, seed, trials if trials is not None else DEFAULT_TRIALS)
    tokens = SUITES if suite == "all" else (suite,)
    for token in tokens:
        ctx.reseed(token)
        _SUITE_FUNCS[token](ctx)
    ctx.entries.sort(key=lambda e: json.dumps(e, sort_keys=True))
    return ctx.entries


# ---------------------------------------------------------------------------
# analysis documents


def _signature_entry(sig) -> dict:
    if sig.level == 1:
        return {"level": 1, "entries": list(sig.canonical())}
    return {"level": sig.level, "entries": [list(t) for t in sig.canonical()]}


def build_analysis(
    inst: ActionInstance,
    seed: int = 0,
    trials: int | None = None,
    suite: str = "all",
) -> dict:
    """The full analysis document: piece table, ranks, classification, oracle log.

    Raises ``ValueError`` up front for a suite that ``run_oracles`` refuses.
    """
    _check_suite_request(inst, suite)
    table = analyze(inst)
    levels = []
    for lvl in range(1, table.stabilization + 1):
        cells = []
        for ci, (n, m) in enumerate(table.cells):
            cells.append(
                {
                    "u": n,
                    "v": m,
                    "blocks": [
                        {"id": pid, "points": to_list(mask)}
                        for pid, mask in table.levels[lvl - 1][ci]
                    ],
                }
            )
        levels.append({"level": lvl, "cells": cells})
    used = {pid for data in table.levels for blocks in data for pid, _ in blocks}
    log = run_oracles(inst, suite, seed=seed, trials=trials, table=table)
    return {
        "schema": ANALYSIS_SCHEMA,
        "instance": instance_to_dict(inst),
        "stabilization": table.stabilization,
        "levels": levels,
        "signatures": {
            pid: _signature_entry(sig)
            for pid, sig in sorted(table.signatures.items())
            if pid in used
        },
        "ranks": [scott_rank(table, x) for x in range(inst.size)],
        "stable_partition": [to_list(b) for b in stable_partition(table)],
        "classification": classification_report(inst, table, seed=seed),
        "oracle_log": log,
        "parameters": {
            "seed": seed,
            "trials": trials if trials is not None else DEFAULT_TRIALS,
            "suite": suite,
        },
    }


def serialize_analysis(doc: dict) -> str:
    """The canonical analysis document text.

    The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2)`` plus
    a newline, but written by ``canonical_json``: with ``indent`` set
    ``json.dumps`` falls back to its pure-Python encoder, which took about
    13% of a report.
    """
    return canonical_json(doc) + "\n"
