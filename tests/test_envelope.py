"""The CLI's envelope writer and its once-per-process argument parser.

stdout must be json.dumps(envelope, sort_keys=True, indent=2) byte for byte,
so that call is the oracle: for drawn JSON trees, and for the envelope of
every command kind run in-process.  The element lists that ring info, ring
ideals, star ring and rho table print, each rendered in one batch, must be
the scalar renders of their elements.  The parser is built once and reused,
so a sequence of in-process calls must print and exit exactly as a fresh
process does for each command.
"""

import contextlib
import io
import json
import re
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import CLI, ENV
from unitlift import cli
from unitlift.rings import build_ring, enumerate_ideals
from unitlift.semiunits import rho_table
from unitlift.spectrum import idempotents, jacobson_radical
from unitlift.star import ring_has_star


class _Str(str):
    pass


class _Int(int):
    pass


# quotes, backslashes, control characters and non-ASCII, among any characters
_CHARS = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9 \U0001f600') | st.characters()
_TEXT = st.text(_CHARS, max_size=8)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers().map(_Int)
            | st.floats() | _TEXT | _TEXT.map(_Str))
# a column of records holds one scalar type, or several
_COLUMNS = st.sampled_from([st.none(), st.booleans(), st.integers(), _TEXT,
                            st.none() | st.booleans() | st.integers() | _TEXT])
_MISSES = ("extra key", "renamed key", "int keys", "empty dict", "no dict", "odd value")


@st.composite
def _records(draw, children):
    """Two or more dicts with one key set of str keys and str, int, bool or
    None values, which the writer lays out from a row template; or, in one
    row, first or later, a near miss that sends them back to the walk: an
    extra key, another str key in place of one, int keys, an empty dict, a
    tuple of the row's values, or a value of another type (a subclass, a
    float or a subtree)."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=3, unique=True))
    columns = {key: draw(_COLUMNS) for key in keys}
    rows = [{key: draw(column) for key, column in columns.items()}
            for _ in range(draw(st.integers(2, 5)))]
    at = draw(st.integers(0, len(rows) - 1))
    row = rows[at]
    miss = draw(st.sampled_from((None,) + _MISSES))
    if miss == "extra key":
        row[draw(_TEXT.filter(lambda key: key not in row))] = draw(columns[keys[0]])
    elif miss == "renamed key":
        row[draw(_TEXT.filter(lambda key: key not in row))] = row.pop(draw(st.sampled_from(keys)))
    elif miss == "int keys":
        # all of them, as the stdlib sorts no int among str keys
        ints = draw(st.lists(st.integers(), min_size=len(row), max_size=len(row), unique=True))
        rows[at] = dict(zip(ints, row.values()))
    elif miss == "empty dict":
        row.clear()
    elif miss == "no dict":
        rows[at] = tuple(row.values())
    elif miss == "odd value":
        row[draw(st.sampled_from(keys))] = draw(
            st.integers().map(_Int) | _TEXT.map(_Str) | st.floats() | children)
    return rows if draw(st.booleans()) else tuple(rows)


_TREES = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=4)
                      # keys the stdlib converts: the writer hands such a dict over
                      | st.dictionaries(st.integers(), children, max_size=3)
                      | _records(children)),
    max_leaves=30)


# derandomized, so every run draws the same 200 trees, in about 4 s
@settings(derandomize=True, max_examples=200, deadline=None)
@given(_TREES)
def test_writer_matches_the_stdlib_dump(tree):
    assert cli._dump(tree) == json.dumps(tree, sort_keys=True, indent=2)


# one ring of each spec kind: (spec, an element outside the radical, a
# radical element, a proper ideal, a kernel inside the radical, a matrix
# over the quotient by it)
_RINGS = [
    ("Z/12", "5", "6", "4", "6", "1,6;0,1"),
    ("GF(2)[x]/(x^3)", "x+1", "x", "x", "x^2", "1,x;0,1"),
    ("prod(Z/4,Z/9)", "(2,1)", "(2,0)", "(2,0)", "(2,0)", "(1,1),(1,0);(0,0),(1,1)"),
    ("quot(Z/12;4)", "3", "2", "2", "2", "1,1;0,1"),
]
_COMMANDS = [
    argv
    for spec, element, radical, ideal, kernel, matrix in _RINGS
    for argv in (["ring", "info", spec], ["ring", "ideals", spec],
                 ["rho", "table", spec], ["decompose", spec, element],
                 ["decompose", spec, radical], ["star", "check", spec, "--ideal", ideal],
                 ["star", "ring", spec], ["gl", "lift", spec, kernel, "--matrix", matrix])
] + [
    ["star", "presented", "Z", "5"],
    ["star", "presented", "GF(2)[x]", "x^2"],
    ["corpus", "run", "--max-carrier", "12", "--gl-samples", "10"],
]


def _in_process(argv):
    """(exit code, stdout, stderr) of one cli.main call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _COMMANDS, ids=" ".join)
def test_every_command_prints_the_stdlib_dump_of_its_envelope(argv, monkeypatch):
    envelopes, dump = [], cli._dump

    def recording(envelope):
        envelopes.append(envelope)
        return dump(envelope)

    monkeypatch.setattr(cli, "_dump", recording)
    code, stdout, _ = _in_process(argv)
    assert code == 0
    [envelope] = envelopes
    assert stdout == json.dumps(envelope, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("spec", ["Z/12", "GF(3)[x]/(x^3)", "prod(Z/2,Z/2,Z/2,Z/2,Z/2)",
                                  "quot(prod(Z/8,Z/4);(2,0))", "prod(Z/4,GF(2)[x]/(x^3),Z/9)"])
def test_printed_element_lists_are_the_scalar_renders(spec):
    ring = build_ring(spec)

    def result(*argv):
        code, stdout, _ = _in_process([*argv, spec])
        assert code == 0
        return json.loads(stdout)["result"]

    def shown(ideals):
        return [([ring.render(g) for g in ideal.generators], len(ideal)) for ideal in ideals]

    info = result("ring", "info")
    if ring.carrier_size <= 64:
        assert info["units"] == [ring.render(u) for u in sorted(ring.units())]
        assert info["rad"] == [ring.render(r) for r in sorted(jacobson_radical(ring))]
        assert info["idempotents"] == [ring.render(e) for e in sorted(idempotents(ring))]
    else:
        assert "units" not in info
    listed = result("ring", "ideals")["ideals"]
    assert [(i["generators"], i["size"]) for i in listed] == shown(enumerate_ideals(ring))
    listed = result("star", "ring")["ideals"]
    assert ([(i["generators"], i["size"]) for i in listed]
            == shown(ideal for ideal, _ in ring_has_star(ring).entries))
    rows = result("rho", "table")["table"]
    assert [row["element"] for row in rows] == [ring.render(a) for a in ring.elements()]
    assert [row["rho"] for row in rows] == [v.json() for v in rho_table(ring)]


def _without_elapsed(stdout):
    return re.sub(r'\n  "elapsedMs": \d+,', "", stdout)


def test_a_reused_parser_answers_as_a_fresh_process():
    sequence = [
        (["star", "presented", "Z", "5", "--fail-on-false"], 2),
        (["star", "presented", "Z", "5"], 0),
        (["star", "presented", "Z"], 64),
        (["ring", "ideals", "Z/8192"], 65),
        (["--version"], 0),
        (["ring", "info", "Z/12"], 0),
    ]
    for argv, want in sequence:
        code, stdout, stderr = _in_process(argv)
        fresh = subprocess.run(CLI + argv, capture_output=True, text=True, env=ENV)
        assert code == fresh.returncode == want, argv
        assert _without_elapsed(stdout) == _without_elapsed(fresh.stdout), argv
        assert stderr == fresh.stderr, argv
    assert cli._build_parser.cache_info().currsize == 1


def test_a_handler_replaced_after_the_parser_is_built_is_the_one_called(monkeypatch):
    # the benchmark's tracer wraps the handlers between calls
    _in_process(["ring", "info", "Z/12"])
    calls, handler = [], cli._cmd_ring_info

    def wrapped(args):
        calls.append(args.spec)
        return handler(args)

    monkeypatch.setattr(cli, "_cmd_ring_info", wrapped)
    code, stdout, _ = _in_process(["ring", "info", "Z/6"])
    assert (code, calls) == (0, ["Z/6"])
    assert json.loads(stdout)["spec"] == "Z/6"
