from __future__ import annotations

import json
import subprocess
import sys

import pytest

from orbitpieces.algebra import group_from_generators, subgroup_closure
from orbitpieces.cli import MAX_CYCLIC_ORDER, main
from orbitpieces.gspace import make_coset_action, make_cyclic_self, make_random, named_instance
from orbitpieces.harness import build_analysis, parse_instance, run_oracles, serialize_instance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_named(capsys):
    code, out, err = run(capsys, "validate", "--instance", "z4self")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "instance z4self: valid"
    assert "mode exploratory, group order 4, 4 points" in out


def test_validate_unknown_instance(capsys):
    code, out, err = run(capsys, "validate", "--instance", "missing.json")
    assert code == 1
    assert "neither a built-in instance name" in err


def test_validate_mode_override_failure(capsys):
    code, out, err = run(
        capsys, "validate", "--instance", "z4coarse", "--mode-override", "strict"
    )
    assert code == 1
    assert "strict mode" in err


def test_saturate_text_and_json(capsys):
    code, out, _ = run(
        capsys, "saturate", "--instance", "z4self",
        "--set", "0", "--u", "0", "--v", "0",
    )
    assert code == 0 and out == "{0,1}\n"
    code, out, _ = run(
        capsys, "saturate", "--instance", "z4self",
        "--set", "0", "--u", "0", "--v", "0", "--json",
    )
    assert code == 0 and json.loads(out) == {"saturation": [0, 1]}


def test_saturate_bad_index(capsys):
    code, _, err = run(
        capsys, "saturate", "--instance", "z4self",
        "--set", "0", "--u", "99", "--v", "0",
    )
    assert code == 1 and "index out of range" in err


@pytest.mark.parametrize("section", [[], "seeds", 3])
def test_validate_non_object_basis_section(capsys, tmp_path, section):
    doc = json.loads(serialize_instance(make_random(0)))
    for key in ("basisU", "basisV"):
        bad = dict(doc, **{key: section})
        p = tmp_path / f"{key}.json"
        p.write_text(json.dumps(bad))
        code, _, err = run(capsys, "validate", "--instance", str(p))
        assert code == 1, key
        assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("key, value", [
    ("basisU", [["a"]]),
    ("basisU", [1]),
    ("basisU", [[99]]),
    ("basisV", [[99]]),
    ("basisU", [[-1]]),
    ("action", "a"),
    ("action", 5),
], ids=["u-not-int", "u-not-list", "u-range", "v-range", "u-negative",
        "action-entry", "action-not-list"])
def test_validate_malformed_seeds_and_action(capsys, tmp_path, key, value):
    doc = json.loads(serialize_instance(make_random(0)))
    if key == "action":
        if isinstance(value, str):
            doc["space"]["action"][1][0] = value
        else:
            doc["space"]["action"] = value
        field = "space.action"
    else:
        doc[key]["seeds"] = value
        field = f"{key}.seeds"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--instance", str(p))
    assert code == 1
    assert err.startswith("error: ") and field in err and "Traceback" not in err


SWAPFIX_ACTION = [[0, 1, 2, 3], [1, 0, 2, 3]]


@pytest.mark.parametrize("section, value, message", [
    ("space", {"size": 4.5, "action": SWAPFIX_ACTION}, "space.size"),
    ("space", {"size": "4", "action": SWAPFIX_ACTION}, "space.size"),
    ("group", {"mul": [[0, True], [True, 0]]}, "entry True"),
    ("group", {"generators": [[True, 0]]}, "generator 0 is not a permutation"),
], ids=["size-float", "size-string", "mul-bool", "generator-bool"])
def test_validate_rejects_non_int_numbers(capsys, tmp_path, section, value, message):
    # bools are ints to isinstance, and int() accepts 4.5 and "4"
    doc = json.loads(serialize_instance(named_instance("swapfix")))
    doc[section] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--instance", str(p))
    assert code == 1
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ("pieces", "--u", "-1", "--v", "0", "--level", "1"),
    ("pieces", "--u", "0", "--v", "-1", "--level", "1"),
    ("orbit", "--x", "-1"),
])
def test_negative_indices_rejected(capsys, flags):
    code, out, err = run(capsys, flags[0], "--instance", "z4self", *flags[1:])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "non-negative" in err


@pytest.mark.parametrize("flags, message", [
    (("orbit", "--x", "4", "--u", "0", "--v", "0"), "--x must be a non-negative index below 4"),
    (("orbit", "--x", str(2**20), "--u", "0", "--v", "0"), "below 4"),
    (("reach", "--x", "0", "--u", "0", "--v", "2"), "--v must be a non-negative index below 2"),
    (("saturate", "--set", "0,4", "--u", "0", "--v", "0"), "4 is not in range(4)"),
    (("transform", "--kind", "delta", "--set", "1", "--elems", "0,9"), "9 is not in range(4)"),
])
def test_indices_and_set_members_past_the_end_rejected(capsys, flags, message):
    # a point past the end used to read as an empty set, and 1 << x for a
    # huge x allocates x bits
    code, out, err = run(capsys, flags[0], "--instance", "z4self", *flags[1:])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_saturate_bad_set_literal(capsys):
    code, _, err = run(
        capsys, "saturate", "--instance", "z4self",
        "--set", "a,b", "--u", "0", "--v", "0",
    )
    assert code == 1 and "bad set literal" in err


def test_orbit_global_and_local(capsys):
    code, out, _ = run(capsys, "orbit", "--instance", "z4pairs", "--x", "0")
    assert code == 0 and out == "{0,1,2,3}\n"
    code, out, _ = run(
        capsys, "orbit", "--instance", "z4pairs", "--x", "0", "--u", "0", "--v", "0"
    )
    assert code == 0 and out == "{0}\n"


def test_reach_depth_conventions(capsys):
    code, out, _ = run(
        capsys, "reach", "--instance", "z4self", "--x", "0", "--u", "0", "--v", "0"
    )
    assert code == 0 and out == "{0,1}\n"
    code, out, _ = run(
        capsys, "reach", "--instance", "z4self",
        "--x", "0", "--u", "0", "--v", "0", "--depth", "0",
    )
    assert code == 0 and out == "{0}\n"  # just the identity element


@pytest.mark.parametrize("x", ["0", "1"])
def test_reach_rejects_a_negative_depth(capsys, x):
    # x = 1 lies outside U_0, where every depth used to read as the empty set
    code, out, err = run(
        capsys, "reach", "--instance", "z4self",
        "--x", x, "--u", "0", "--v", "0", "--depth", "-1",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "depth must be >= 0" in err


def test_transform_kinds(capsys):
    code, out, _ = run(
        capsys, "transform", "--instance", "z4self",
        "--kind", "delta", "--set", "1", "--elems", "1",
    )
    assert code == 0 and out == "{0}\n"
    code, out, _ = run(
        capsys, "transform", "--instance", "z4self",
        "--kind", "local-star", "--set", "0,1", "--u", "4", "--v", "0", "--stage", "1",
    )
    assert code == 0 and out.startswith("{")
    code, _, err = run(
        capsys, "transform", "--instance", "z4self", "--kind", "delta", "--set", "1"
    )
    assert code == 1 and "needs --elems" in err
    code, _, err = run(
        capsys, "transform", "--instance", "z4self", "--kind", "local-delta", "--set", "1"
    )
    assert code == 1 and "needs --u and --v" in err


def test_pieces_single_and_blocks(capsys):
    code, out, _ = run(
        capsys, "pieces", "--instance", "z4self",
        "--u", "0", "--v", "0", "--level", "1", "--x", "0",
    )
    assert code == 0 and out == "{0,1}\n"
    code, out, _ = run(
        capsys, "pieces", "--instance", "z4pairs",
        "--u", "4", "--v", "0", "--level", "stable",
    )
    assert code == 0
    assert [line.split(" ", 1)[1] for line in out.splitlines()] == ["{0,2}", "{1,3}"]
    code, out, _ = run(
        capsys, "pieces", "--instance", "z4pairs",
        "--u", "4", "--v", "0", "--level", "2", "--json",
    )
    payload = json.loads(out)
    assert payload["stabilization"] == 2
    assert [b["points"] for b in payload["blocks"]] == [[0, 2], [1, 3]]


def test_pieces_bad_level(capsys):
    code, _, err = run(
        capsys, "pieces", "--instance", "z4self",
        "--u", "0", "--v", "0", "--level", "-1",
    )
    assert code == 1 and "bad level" in err


def test_rank_output(capsys):
    code, out, _ = run(capsys, "rank", "--instance", "z4pairs")
    assert code == 0
    assert out.splitlines() == [
        "ranks 2 2 2 2",
        "stabilization 2",
        "stable partition {0,1,2,3}",
    ]
    code, out, _ = run(capsys, "rank", "--instance", "z4pairs", "--x", "1")
    assert code == 0 and out == "2\n"


def test_topology_output(capsys):
    code, out, _ = run(
        capsys, "topology", "--instance", "z4coarse", "--x", "0", "--level", "3"
    )
    assert code == 0
    assert "opens (2): {} {0,1,2,3}" in out
    code, out, _ = run(
        capsys, "topology", "--instance", "z4self", "--x", "0", "--level", "stable",
        "--json",
    )
    assert code == 0 and len(json.loads(out)["opens"]) == 16


def test_topology_listing_refuses_too_many_neighbourhoods(capsys, tmp_path):
    # The Z/20 regular action refines to the discrete topology on 20 points:
    # 20 distinct minimal neighbourhoods, so 2^20 opens.
    doc = tmp_path / "z20self.json"
    doc.write_text(serialize_instance(make_cyclic_self(20)))
    code, out, err = run(
        capsys, "topology", "--instance", str(doc), "--x", "0", "--level", "2"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "20 distinct minimal neighbourhoods" in err


def test_openmap_output(capsys):
    code, out, _ = run(
        capsys, "openmap", "--instance", "z4self", "--x", "0", "--level", "3"
    )
    assert code == 0 and out == "open true\n"
    code, out, _ = run(
        capsys, "openmap", "--instance", "z4coarse", "--x", "0", "--level", "3"
    )
    assert code == 0 and out == "open false witness 0\n"


def test_relpieces_output(capsys):
    code, out, _ = run(
        capsys, "relpieces", "--instance", "z4pairs",
        "--x", "0", "--level", "3", "--gamma", "2", "--x2", "0", "--u", "4", "--v", "0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ground {0,1,2,3}"
    assert lines[1] == "D {0,2} (sub index 8)"
    assert "y=0 parent {0,2} sub {0,2}" in lines
    code, _, err = run(
        capsys, "relpieces", "--instance", "z4pairs",
        "--x", "0", "--level", "2", "--gamma", "2", "--x2", "0", "--u", "4", "--v", "0",
    )
    assert code == 1 and "gamma" in err


def test_check_eventual_openness(capsys):
    code, out, _ = run(
        capsys, "check", "--instance", "z4coarse", "--kind", "eventual-openness"
    )
    assert code == 0  # exploratory: findings are reported, not fatal
    lines = out.splitlines()
    assert lines[0] == "eventually open false"
    assert "x=0 v=0 witness none" in lines


def test_check_claschar_exploratory(capsys):
    code, out, _ = run(capsys, "check", "--instance", "z4pairs", "--kind", "claschar")
    assert code == 0
    assert "invariant_containment false" in out
    assert "divergences" in out


def test_check_claschar_strict_failure_exits_2(capsys, tmp_path, monkeypatch):
    p = tmp_path / "strict.json"
    p.write_text(serialize_instance(make_random(0, strict=True)))

    def fake_report(inst, table, budget=4096, seed=0):
        return {
            "mode": "strict",
            "conditions": {"eventually_open": False, "open_map": True},
            "divergences": [["eventually_open", "open_map"]],
            "flags": [],
        }

    monkeypatch.setattr("orbitpieces.cli.classification_report", fake_report)
    code, out, _ = run(capsys, "check", "--instance", str(p), "--kind", "claschar")
    assert code == 2
    assert "eventually_open false" in out


def test_oracle_clean_and_findings(capsys):
    code, out, _ = run(
        capsys, "oracle", "--instance", "z4self", "--suite", "locsat", "--trials", "4"
    )
    assert code == 0 and out == "ok: empty log\n"
    code, out, _ = run(
        capsys, "oracle", "--instance", "z4self", "--suite", "list", "--trials", "16"
    )
    assert code == 0  # report severity only
    assert out.startswith("[report] list/surrounding-piece")


def test_oracle_assert_entries_exit_2(capsys, monkeypatch):
    entry = {
        "suite": "hist",
        "check": "pieces-partition-cell",
        "cell": [0, 0],
        "witness": {"x": 0},
        "mode": "strict",
        "severity": "assert",
    }

    def fake_run(inst, suite, seed=0, trials=None):
        return [entry]

    monkeypatch.setattr("orbitpieces.cli.run_oracles", fake_run)
    code, out, _ = run(capsys, "oracle", "--instance", "z4self")
    assert code == 2
    assert out == '[assert] hist/pieces-partition-cell cell (0,0) {"x": 0}\n'


def test_oracle_json_output(capsys):
    code, out, _ = run(
        capsys, "oracle", "--instance", "z4pairs", "--suite", "list",
        "--trials", "16", "--json",
    )
    assert code == 0
    entries = json.loads(out)
    assert entries and all(e["severity"] == "report" for e in entries)


def test_generate_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "--template", "z4pairs")
    assert code == 0
    inst = parse_instance(out)
    assert inst.name == "z4pairs"

    target = tmp_path / "gen.json"
    code, out, _ = run(
        capsys, "generate", "--template", "strict", "--seed", "7", "--out", str(target)
    )
    assert code == 0 and out == ""
    gen = parse_instance(target.read_text())
    assert gen.mode == "strict" and gen.name == "strict7"

    code, out, _ = run(capsys, "generate", "--template", "cyclic", "--n", "5")
    assert code == 0 and parse_instance(out).size == 5

    code, _, err = run(capsys, "generate", "--template", "bogus")
    assert code == 1 and "unknown template" in err


def test_report_document(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "report", "--instance", "z4self", "--trials", "2",
        "--suite", "phar", "--out", str(target),
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["schema"] == "orbitpieces-analysis/1"
    assert doc["parameters"] == {"seed": 0, "trials": 2, "suite": "phar"}
    assert doc["oracle_log"] == []


def test_report_completes_on_z32(capsys, tmp_path):
    # 16 classes {g, -g} for the vaught suite, and a 2^32 subgroup scan
    # before cyclic extension
    doc = tmp_path / "z32self.json"
    doc.write_text(serialize_instance(make_cyclic_self(32)))
    code, out, err = run(capsys, "report", "--instance", str(doc))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["stabilization"] >= 1
    assert not [e for e in report["oracle_log"] if e["severity"] == "assert"]


def test_report_refuses_the_vaught_wall_up_front(capsys, tmp_path):
    s5 = group_from_generators([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    inst = make_coset_action(s5, subgroup_closure(1 << 2, s5), name="s5c24")  # 5-cycles
    doc = tmp_path / "s5c24.json"
    doc.write_text(serialize_instance(inst))
    for suite in ("all", "vaught"):
        code, out, err = run(capsys, "report", "--instance", str(doc), "--suite", suite)
        assert code == 1 and out == ""
        assert err.startswith(
            "error: the vaught suite is limited to groups with at most 19 classes "
            "{g, g^-1} of non-identity elements (this one has 72)"
        )
        assert "Traceback" not in err
    for call in (
        lambda: build_analysis(inst),
        lambda: run_oracles(inst, "vaught"),
    ):
        with pytest.raises(ValueError, match="this one has 72\\)"):
            call()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orbitpieces", "rank", "--instance", "z4self"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "ranks 1 1 1 1"


def test_broken_pipe_exits_without_traceback(tmp_path):
    # The listing (about 270 KB) overflows the pipe buffer, so the writer is
    # still blocked when the reader closes its end, and its next write fails.
    doc = tmp_path / "z12self.json"
    doc.write_text(serialize_instance(make_cyclic_self(12)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitpieces", "topology", "--instance", str(doc),
         "--x", "0", "--level", "2", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["pieces", "--instance", "z4self"])  # missing required flags
    assert exc.value.code == 1  # argparse usage errors


@pytest.mark.parametrize("argv", [
    ["pieces", "--instance", "z4self"],                       # missing required flags
    ["orbit", "--instance", "z4self", "--x=abc"],             # not an int
    ["transform", "--instance", "z4self", "--kind", "nope", "--set", "0"],  # bad choice
    ["rank", "--instance", "z4self", "--bogus"],              # unknown flag
    ["nosuch"],                                               # unknown command
    [],                                                       # no command
])
def test_usage_errors_exit_1_with_an_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert any(line.startswith("error: ") for line in err.splitlines()), err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def test_generate_cyclic_order_is_capped_up_front(capsys, monkeypatch):
    code, out, _ = run(capsys, "generate", "--template", "cyclic", "--n", "32")
    assert code == 0 and parse_instance(out).size == 32

    def no_table(n, name=""):
        raise AssertionError("a refused order must not build a table")

    monkeypatch.setattr("orbitpieces.cli.make_cyclic_self", no_table)
    for n in (0, -3, MAX_CYCLIC_ORDER + 1, 10**6):
        code, out, err = run(capsys, "generate", "--template", "cyclic", "--n", str(n))
        assert code == 1 and out == "", n
        assert err.startswith("error: ") and str(MAX_CYCLIC_ORDER) in err, n


def test_s7_from_generators_is_refused(capsys, tmp_path):
    doc = json.loads(serialize_instance(named_instance("z4self")))
    doc["group"] = {"generators": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]}
    doc["space"] = "self-left-multiplication"
    p = tmp_path / "s7.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--instance", str(p))
    assert code == 1
    assert err.startswith("error: ") and "size cap" in err and "Traceback" not in err
