from __future__ import annotations

import gc
import importlib.util
import json
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbitpieces import gspace, harness
from orbitpieces.algebra import (
    all_subgroups,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_generators,
    symmetric_group_3,
)
from orbitpieces.gspace import (
    NAMED_INSTANCES,
    InstanceError,
    make_coset_action,
    make_random,
    named_instance,
)
from orbitpieces.harness import (
    ANALYSIS_SCHEMA,
    DEFAULT_TRIALS,
    INSTANCE_SCHEMA,
    SUITES,
    InstanceFormatError,
    build_analysis,
    canonical_json,
    instance_to_dict,
    load_instance,
    parse_instance,
    run_oracles,
    serialize_analysis,
    serialize_instance,
)


def test_suite_vocabulary_is_stable():
    assert SUITES == (
        "locsat", "bH", "vaught", "hist", "vb",
        "phar", "list", "translate", "orb", "subs",
    )
    assert DEFAULT_TRIALS == 16
    assert INSTANCE_SCHEMA == "orbitpieces-instance/1"
    assert ANALYSIS_SCHEMA == "orbitpieces-analysis/1"


def test_round_trip_named_instances():
    for name in NAMED_INSTANCES:
        inst = named_instance(name)
        text = serialize_instance(inst)
        back = parse_instance(text)
        assert serialize_instance(back) == text
        assert back.mode == inst.mode
        assert back.basisU.members == inst.basisU.members
        assert back.basisV.members == inst.basisV.members


def test_round_trip_random_instances():
    for seed in range(40):
        inst = make_random(seed)
        assert serialize_instance(parse_instance(serialize_instance(inst))) == serialize_instance(inst)
    for seed in range(8):
        inst = make_random(seed, strict=True)
        text = serialize_instance(inst)
        assert serialize_instance(parse_instance(text)) == text


def test_instance_document_shape():
    inst = named_instance("z4pairs")
    doc = instance_to_dict(inst)
    assert doc["schema"] == INSTANCE_SCHEMA
    assert doc["space"]["size"] == inst.size
    # the trailing full sets are implied, never written
    assert [len(doc["basisU"]["seeds"])] == [len(inst.basisU) - 1]
    assert all(arr != list(range(inst.size)) for arr in doc["basisU"]["seeds"])


def test_parse_rejects_bad_documents():
    with pytest.raises(InstanceFormatError, match="not valid JSON"):
        parse_instance("{ nope")
    with pytest.raises(InstanceFormatError, match="must be an object"):
        parse_instance("[1, 2]")
    with pytest.raises(InstanceFormatError, match="missing field 'mode'"):
        parse_instance({"group": {}, "space": {}, "basisU": {}, "basisV": {}})
    base = {
        "mode": "exploratory",
        "group": {"mul": [[0, 1], [1, 0]]},
        "space": {"size": 2, "action": [[0, 1], [1, 0]]},
        "basisU": {"seeds": []},
        "basisV": {"seeds": []},
    }
    with pytest.raises(InstanceFormatError, match="bad group description"):
        parse_instance({**base, "group": {}})
    with pytest.raises(InstanceFormatError, match="bad space description"):
        parse_instance({**base, "space": {}})
    with pytest.raises(InstanceFormatError, match="seeds must be a list"):
        parse_instance({**base, "basisU": {"seeds": 5}})
    # structural validation happens with the usual instance errors
    with pytest.raises(InstanceError, match="not a permutation"):
        parse_instance({**base, "space": {"size": 2, "action": [[0, 0], [1, 0]]}})


def test_parse_generators_and_self_action():
    doc = {
        "mode": "exploratory",
        "name": "rot3",
        "group": {"generators": [[1, 2, 0]]},
        "space": "self-left-multiplication",
        "basisU": {"seeds": [[0]]},
        "basisV": {"seeds": []},
    }
    inst = parse_instance(doc)
    assert inst.size == inst.group.order == 3
    assert [list(r) for r in inst.act] == [list(r) for r in inst.group.mul]
    assert inst.name == "rot3"


def test_load_instance_names_paths_and_override(tmp_path):
    assert load_instance("z4self").name == "z4self"
    with pytest.raises(InstanceFormatError, match="neither a built-in instance name"):
        load_instance("no-such-instance")

    inst = make_random(3, strict=True)
    p = tmp_path / "inst.json"
    p.write_text(serialize_instance(inst))
    loaded = load_instance(str(p))
    assert loaded.mode == "strict"
    assert loaded.basisU.members == inst.basisU.members
    relaxed = load_instance(str(p), mode_override="exploratory")
    assert relaxed.mode == "exploratory"
    assert relaxed.basisU.members == inst.basisU.members
    # overriding to strict re-runs the strict requirements
    with pytest.raises(InstanceError, match="strict mode"):
        load_instance("z4coarse", mode_override="strict")


def test_run_oracles_unknown_suite():
    inst = named_instance("z4self")
    with pytest.raises(ValueError, match="unknown suite"):
        run_oracles(inst, suite="nope")


def test_fewer_than_one_trial_is_refused_before_any_work(monkeypatch):
    inst = named_instance("z4pairs")

    def no_analysis(*_):
        raise AssertionError("analyze ran")

    monkeypatch.setattr(harness, "analyze", no_analysis)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            build_analysis(inst, trials=trials)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_oracles(inst, trials=trials)


def test_vaught_runs_clean_past_the_old_cap():
    # the subgroup law runs on drawn subgroups, so no group is refused; these
    # regular actions have 12 to 21 classes {g, g^-1}, Z40 and D14 past the
    # old cap of 19
    z2 = cyclic_group(2)
    for group in (
        cyclic_group(24),
        group_from_generators([(1, 0, 2, 3), (1, 2, 3, 0)]),
        dihedral_group(12),
        direct_product(z2, dihedral_group(6)),
        direct_product(direct_product(z2, z2), symmetric_group_3()),
        dihedral_group(13),
        cyclic_group(40),
        dihedral_group(14),
    ):
        assert run_oracles(make_coset_action(group, 1), "vaught") == [], group.name


def test_the_subgroup_law_bites_on_a_non_subgroup(monkeypatch):
    # {e, 1} in Z5 is no subgroup: delta over it is {e, 4}·A, not {e, 1}·A
    monkeypatch.setattr(harness, "subgroup_closure", lambda seed, g: 0b11)
    log = run_oracles(make_coset_action(cyclic_group(5), 1), "vaught")
    assert "subgroup-delta-saturation" in {e["check"] for e in log}


def test_definitional_suites_empty_on_exploratory_corpus():
    for seed in range(25):
        inst = make_random(seed)
        for suite in ("locsat", "bH", "vaught", "phar"):
            assert run_oracles(inst, suite, seed=seed, trials=6) == []


def test_theorem_suites_empty_on_strict_corpus():
    for seed in range(15):
        inst = make_random(seed, strict=True)
        log = []
        for suite in ("hist", "vb", "list", "translate", "orb", "subs"):
            log += run_oracles(inst, suite, seed=seed, trials=6)
        assert log == []


def test_exploratory_findings_are_reports():
    # the surrounding-piece lemma needs arbitrarily small basic opens, so the
    # coarse families produce genuine findings — at report severity, never
    # assert severity
    inst = named_instance("z4self")
    log = run_oracles(inst, "list", trials=32)
    assert log
    for e in log:
        assert set(e) == {"suite", "check", "cell", "witness", "mode", "severity"}
        assert e["suite"] == "list"
        assert e["check"] == "surrounding-piece"
        assert e["severity"] == "report"
        assert e["mode"] == "exploratory"


def test_run_all_is_union_of_parts():
    inst = named_instance("z4pairs")
    merged = []
    for suite in SUITES:
        merged += run_oracles(inst, suite, seed=4, trials=8)
    merged.sort(key=lambda e: json.dumps(e, sort_keys=True))
    assert run_oracles(inst, "all", seed=4, trials=8) == merged


def test_run_oracles_deterministic():
    inst = make_random(11)
    a = run_oracles(inst, "all", seed=7, trials=4)
    b = run_oracles(inst, "all", seed=7, trials=4)
    assert a == b


def test_build_analysis_document():
    inst = named_instance("z4pairs")
    doc = build_analysis(inst, seed=2, trials=4)
    assert set(doc) == {
        "schema", "instance", "stabilization", "levels", "signatures",
        "ranks", "stable_partition", "classification", "oracle_log",
        "parameters",
    }
    assert doc["schema"] == ANALYSIS_SCHEMA
    assert doc["stabilization"] == 2
    assert len(doc["levels"]) == 2
    assert doc["ranks"] == [2, 2, 2, 2]
    assert doc["stable_partition"] == [[0, 1, 2, 3]]
    assert doc["parameters"] == {"seed": 2, "trials": 4, "suite": "all"}
    # every block id in the levels is resolvable in the signature table
    for level in doc["levels"]:
        for cell in level["cells"]:
            for block in cell["blocks"]:
                assert block["id"] in doc["signatures"]
    text = serialize_analysis(doc)
    assert text.endswith("\n")
    assert json.loads(text) == doc


def test_per_instance_memos_are_released_with_the_instance():
    # the saturation memos are fields of the instance: an oracle run fills
    # them, and once the caller drops the instance and its table nothing of
    # it stays behind
    inst = parse_instance(serialize_instance(make_random(4)))
    table = harness.analyze(inst)
    assert not any(e["severity"] == "assert" for e in run_oracles(inst, table=table))
    assert inst._images and inst._reach and inst._partitions
    ref = weakref.ref(inst)
    del inst, table
    gc.collect()
    assert ref() is None


def test_delta_star_duality_reads_the_padded_star_loop(monkeypatch):
    # local_star is computed as the complement of delta stages, so comparing
    # it with local_delta would hold by construction; the duality check uses
    # a star limit built on ``star`` instead, and a broken ``star`` shows there
    real_star = harness.star
    monkeypatch.setattr(harness, "star", lambda inst, a, h: real_star(inst, a, h) & ~1)
    checks = {e["check"] for s in range(4) for e in run_oracles(make_random(s), "vaught")}
    assert "delta-star-duality" in checks


@pytest.mark.parametrize("target", ["delta", "reach"])
def test_stage_reach_checks_reach_the_last_stage(monkeypatch, target):
    # Each point's stage-reach checks stop at the last fixpoint of the delta,
    # star and reach lists.  A wrong last entry of either list must still be
    # checked: the delta list gets the least point of U flipped, the reach
    # list the whole group, and no earlier entry changes.  The log must equal
    # the one from checking every stage 1..|U|+1, got by padding each delta
    # list past |U|+1.
    real_stages, real_reach = harness.local_delta_stages, harness.reach_stages

    def last_delta_wrong(inst, a, u, v):
        out = real_stages(inst, a, u, v)
        out[-1] ^= u & -u
        return out

    def last_reach_wrong(inst, x, u, v):
        out = real_reach(inst, x, u, v)
        out[-1] = inst.group.full
        return out

    if target == "delta":
        monkeypatch.setattr(harness, "local_delta_stages", last_delta_wrong)
    else:
        monkeypatch.setattr(harness, "reach_stages", last_reach_wrong)
    stages = harness.local_delta_stages

    def every_stage(inst, a, u, v):
        out = stages(inst, a, u, v)
        return out + out[-1:] * (u.bit_count() + 2 - len(out))

    insts = [make_random(s, strict=strict) for s in range(4) for strict in (False, True)]
    logs = [run_oracles(inst, "vaught") for inst in insts]
    assert "stage-reach-delta" in {e["check"] for log in logs for e in log}
    monkeypatch.setattr(harness, "local_delta_stages", every_stage)
    assert logs == [run_oracles(inst, "vaught") for inst in insts]


# str with every code point json escapes differently: quotes, backslashes,
# control characters, non-ASCII, astral and lone surrogates ("Cs")
_json_text = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800", "\udfff", "\U0001f600", ""]
)
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64 - 2, max_value=2**70)
    | st.integers(max_value=-(2**64))
    | _json_text
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_json_text, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_canonical_json_writes_the_bytes_of_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_canonical_json_on_empty_and_deeply_nested_containers():
    for value in ([], {}, (), [[]], {"a": {}}, [{}, [], ()]):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)
    deep = [0]
    for depth in range(60):
        deep = {"k": deep, "j": [depth, None, True]} if depth % 2 else [deep, "s", False]
    assert canonical_json(deep) == json.dumps(deep, sort_keys=True, indent=2)


def test_canonical_json_refuses_floats_and_non_str_keys():
    # json.dumps would write these; documents never hold them
    for value in (1.5, [0, [2.0]], {"a": float("nan")}, {1: "a"}, {"a": {2: 0}}, {None: 0}, b"x"):
        with pytest.raises(TypeError):
            canonical_json(value)


# tools/oracle_draws.py on its tier-1 slice, recorded before the suites were
# last rewritten: each suite's log and generator state on 28 instances ×
# seeds {0, 3} × trials {4, 16}; locsat since it draws one equivariance
# element per cell, and the slice's instance documents since before instance
# construction was last rewritten
PINNED_DRAWS = {
    "locsat": "3340f64f57de71d001c0ee063afdde21d64abab82dd0adae0e22b0f243858e8a",
    "bH": "72237391828a3e0d8153c0be24c43b2ecf53082ca6e4042b39492171b3bc5fa1",
    "vaught": "8013a918d9a642b1a97650d8262da80b93dd3243a2bb6c43fecc2c1aedae390e",
    "hist": "3191119ebc9d2821d0a525a5617505006b14cf07765e8e073d5128f3f28b16cb",
    "vb": "db0ccaa7f015eb596745abed216d26f91d2c33621f5cf926dd65f354abc91127",
    "phar": "ea01ca37c8563f1e02c6082c62148915e8c96b14c119e1e87e774c8c023b25b4",
    "list": "2218c8f55bba4f93cbebe30f91d0151007fc97301a61c97bd40acd9e82a89497",
    "translate": "4a230e27d2ecbfa010a6e601358dcba553e06ef47efaa29c47111beda6880093",
    "orb": "8ea214606cbbc7ab15e381fc178e7528cd1377010750290b460f1666499c88e5",
    "subs": "24c75ed2fd5db370fd69f1b328cacb76ca50b3e72769851358c3393acc0442fa",
    "instances": "02e4e09884325f59151cedf7ef30a903fe790c26dbfb793ece813c3e90ee96e5",
}


def _draw_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "oracle_draws.py"
    spec = importlib.util.spec_from_file_location("tools_oracle_draws", path)
    tool = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tool
    spec.loader.exec_module(tool)
    return tool


def test_suite_draws_are_pinned():
    # an added, dropped or resized draw moves the generator state after the
    # suite, and a reorder in a suite that logs entries moves its log; a pure
    # reorder in a suite whose log stays empty shows in neither
    assert _draw_tool().digests() == PINNED_DRAWS


def test_every_signature_names_a_stored_block():
    # build_analysis writes every signature, so each id must name a block of
    # a stored level
    for inst in _draw_tool().instances():
        table = harness.analyze(inst)
        stored = {pid for data in table.levels for blocks in data for pid, _ in blocks}
        assert set(table.signatures) == stored, inst.name


@pytest.mark.parametrize("group", [cyclic_group(2), dihedral_group(4), cyclic_group(40)])
def test_locsat_draws_one_equivariance_element_per_cell(monkeypatch, group):
    # the equivariance check conjugates V once per drawn cell, whatever |G|
    half = next(h for h in all_subgroups(group) if 2 * h.bit_count() == group.order)
    inst = make_coset_action(group, half)
    calls = []
    real = harness.conjugate
    monkeypatch.setattr(harness, "conjugate", lambda v, h, g: calls.append(h) or real(v, h, g))
    run_oracles(inst, "locsat", trials=8)
    assert len(calls) == 8


def test_subs_logs_refused_sub_instances(monkeypatch):
    # a sub-instance refused for its cell count is a report entry naming the
    # drawn tuple, not a silent skip
    monkeypatch.setattr(gspace, "MAX_CELLS", 40)
    log = run_oracles(make_random(1), "subs", trials=16)
    assert len(log) == 14
    for entry in log:
        assert (entry["check"], entry["severity"]) == ("relative-instance-refused", "report")
        assert {"x", "x2", "alpha", "gamma"} <= set(entry["witness"])
