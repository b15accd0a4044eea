"""Malformed instance documents and CLI arguments end in exit 0 or 1, never a traceback.

Valid documents are mutated (keys dropped or given values of another type,
table rows cut short or lengthened, entries and seeds pushed out of range)
and read by ``validate``; the point, family, level and set arguments of the
query commands take arbitrary values, and some argument lists are ones
argparse itself rejects (a flag dropped, a value that is not an int or not a
choice, an unknown flag).  Every run must exit 0, or 1 with an ``error:``
line on stderr, and a ``reach`` with a negative depth must exit 1.  Index
values stay below 2^20 so that a missing bound check shows as a wrong exit,
not as a multi-gigabyte ``1 << x``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from orbitpieces.cli import main
from orbitpieces.gspace import make_random, named_instance
from orbitpieces.harness import serialize_instance

BASE_DOCS = [
    json.loads(serialize_instance(inst))
    for inst in (named_instance("swapfix"), named_instance("z4pairs"), make_random(3))
]

KEY_PATHS = [
    ("group",), ("group", "mul"), ("space",), ("space", "size"), ("space", "action"),
    ("basisU",), ("basisU", "seeds"), ("basisV",), ("basisV", "seeds"), ("mode",), ("name",),
]

BIG = 2**20

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=BIG),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-2, max_value=9), max_size=3),
    st.lists(st.lists(st.integers(min_value=-1, max_value=5), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["mul", "generators", "size", "action", "seeds"]),
                    st.integers(min_value=-1, max_value=5), max_size=2),
    st.just("self-left-multiplication"),
)
# mostly indices the small instances below have, so that commands get past
# the index checks to the computation
index = st.sampled_from([0, 1, 2, 3, 0, 1, 2, 3, -1, 4, 9, BIG])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's exits, as the process would see them
            code = exc.code
    return code, err.getvalue()


def _assert_clean_exit(argv):
    code, err = _run(argv)
    assert code in (0, 1), (argv, code, err)
    if code == 1:
        assert any(line.startswith("error: ") for line in err.splitlines()), (argv, err)
    return code


def _mutate(doc, data):
    kind = data.draw(st.sampled_from(["drop", "retype", "row", "entry", "seed"]))
    if kind in ("drop", "retype"):
        path = data.draw(st.sampled_from(KEY_PATHS))
        parent = doc
        for key in path[:-1]:
            if not isinstance(parent, dict) or key not in parent:
                return
            parent = parent[key]
        if not isinstance(parent, dict):
            return
        if kind == "drop":
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = data.draw(junk)
        return
    if kind in ("row", "entry"):
        section, key = data.draw(st.sampled_from([("group", "mul"), ("space", "action")]))
        table = doc.get(section, {}).get(key) if isinstance(doc.get(section), dict) else None
        if not isinstance(table, list) or not table or not isinstance(table[0], list):
            return
        i = data.draw(st.integers(min_value=0, max_value=len(table) - 1))
        row = table[i]
        if not isinstance(row, list):
            return
        if kind == "row":
            if data.draw(st.booleans()) and row:
                row.pop()
            else:
                row.append(data.draw(st.integers(min_value=-1, max_value=len(row))))
        elif row:
            j = data.draw(st.integers(min_value=0, max_value=len(row) - 1))
            row[j] = data.draw(st.one_of(st.integers(min_value=-2, max_value=BIG), junk))
        return
    basis = data.draw(st.sampled_from(["basisU", "basisV"]))
    section = doc.get(basis)
    if isinstance(section, dict) and isinstance(section.get("seeds"), list):
        section["seeds"].append([data.draw(st.one_of(index, junk))])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_exit_cleanly(tmp_path, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(BASE_DOCS)))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        _mutate(doc, data)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    _assert_clean_exit(["validate", "--instance", str(path)])


set_text = st.one_of(
    st.lists(index, max_size=3).map(lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="0123456789,{} -ab", max_size=6),
)
level_text = st.one_of(st.sampled_from(["stable", "STABLE", "x", ""]),
                       st.integers(min_value=-2, max_value=BIG).map(str))
stage = st.one_of(st.integers(min_value=-1, max_value=6), st.just(10**9))

COMMANDS = {
    "saturate": {"set": set_text, "u": index, "v": index},
    "orbit": {"x": index, "u": st.none() | index, "v": st.none() | index},
    "reach": {"x": index, "u": index, "v": index, "depth": st.none() | stage},
    "transform": {"kind": st.sampled_from(["delta", "star", "local-delta", "local-star"]),
                  "set": set_text, "elems": st.none() | set_text,
                  "u": st.none() | index, "v": st.none() | index, "stage": st.none() | stage},
    "pieces": {"u": index, "v": index, "level": level_text, "x": st.none() | index},
    "rank": {"x": st.none() | index},
    "openmap": {"x": index, "level": level_text},
    "relpieces": {"x": index, "level": st.integers(min_value=-1, max_value=4),
                  "gamma": st.integers(min_value=-1, max_value=4), "x2": index,
                  "u": index, "v": index},
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.sampled_from(["swapfix", "z4pairs", "z4coarse"]),
       st.data())
def test_cli_arguments_exit_cleanly(command, instance, data):
    argv = [command, "--instance", instance]
    for flag, values in COMMANDS[command].items():
        value = data.draw(values, label=flag)
        if value is not None:
            argv.append(f"--{flag}={value}")
    fault = data.draw(st.sampled_from([None] * 4 + ["drop", "unparsable", "unknown"]),
                      label="usage fault")
    if fault == "drop":
        del argv[data.draw(st.integers(min_value=0, max_value=len(argv) - 1), label="dropped")]
    elif fault == "unparsable" and len(argv) > 3:
        i = data.draw(st.integers(min_value=3, max_value=len(argv) - 1), label="replaced")
        value = data.draw(st.sampled_from(["abc", "1.5", "", "0x1", "nope"]), label="value")
        argv[i] = argv[i].split("=")[0] + "=" + value
    elif fault == "unknown":
        argv.append("--bogus=1")
    code = _assert_clean_exit(argv)
    if command == "reach" and any(arg.startswith("--depth=-") for arg in argv):
        assert code == 1, argv  # a negative depth is never answered
