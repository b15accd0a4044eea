from __future__ import annotations

import gc
import json
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from orbitpieces import harness, saturation
from orbitpieces.algebra import (
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


def test_vaught_cap_accepts_every_group_up_to_order_26(monkeypatch):
    # the cap counts classes {g, g^-1} of non-identity elements; the most at
    # orders <= 26 is 19 (Z2xD6 ~ Z2^2xS3 at 24, D13 at 26)
    monkeypatch.setitem(harness._SUITE_FUNCS, "vaught", lambda ctx: None)
    z2 = cyclic_group(2)
    accepted = {
        "Z24": (cyclic_group(24), 12),
        "S4": (group_from_generators([(1, 0, 2, 3), (1, 2, 3, 0)]), 16),
        "D12": (dihedral_group(12), 18),
        "Z2xD6": (direct_product(z2, dihedral_group(6)), 19),
        "Z2^2xS3": (direct_product(direct_product(z2, z2), symmetric_group_3()), 19),
        "D13": (dihedral_group(13), 19),
    }
    for name, (group, classes) in accepted.items():
        assert sum(1 for e in range(1, group.order) if e <= group.inv[e]) == classes, name
        assert run_oracles(make_coset_action(group, 1), "vaught") == [], name
    for group, classes in ((cyclic_group(40), 20), (dihedral_group(14), 21)):
        inst = make_coset_action(group, 1)
        for suite in ("all", "vaught"):
            with pytest.raises(ValueError, match=f"at most 19 classes .* has {classes}\\)"):
                run_oracles(inst, suite)
        assert run_oracles(inst, "orb", trials=1) == []
    assert harness.MAX_VAUGHT_INVERSE_CLASSES == 19


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
    # the saturation memos hold each instance weakly: once the caller drops
    # the instance and its table, nothing of it stays behind
    inst = parse_instance(serialize_instance(make_random(4)))
    table = harness.analyze(inst)
    assert not any(e["severity"] == "assert" for e in run_oracles(inst, table=table))
    caches = (saturation._IMAGE_CACHE, saturation._ORBIT_CACHE, saturation._REACH_CACHE)
    assert all(inst in cache for cache in caches)
    ref = weakref.ref(inst)
    before = [len(cache) for cache in caches]
    del inst, table
    gc.collect()
    assert ref() is None
    assert [len(cache) for cache in caches] == [n - 1 for n in before]


def test_delta_star_duality_reads_the_padded_star_loop(monkeypatch):
    # local_star is computed as the complement of delta stages, so comparing
    # it with local_delta would hold by construction; the duality check uses
    # a star limit built on ``star`` instead, and a broken ``star`` shows there
    real_star = harness.star
    monkeypatch.setattr(harness, "star", lambda inst, a, h: real_star(inst, a, h) & ~1)
    checks = {e["check"] for s in range(4) for e in run_oracles(make_random(s), "vaught")}
    assert "delta-star-duality" in checks


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
