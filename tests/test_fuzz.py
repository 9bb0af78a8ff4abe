"""Property-based fuzzing of the input boundary: parsing and the CLI.

Three robustness claims are checked on generated input:

* ``parse_matrix`` turns any text into a relation or a :class:`ParseError`,
  the same one a parser that checks each cell on its own gives;
* every relation the constructor accepts, and the linearization of a drawn
  order, round-trips bit-identically through CSV and JSON, as text and as a
  file;
* ``run_command`` returns 0, 1 or 2 and never raises, for command lines
  drawn from the seven commands and their flags (about half of them well
  formed, so that they reach the handlers), for fuzzed input files (orders,
  a parseable non-order and damaged text) and for a stdout that is UTF-8 or
  ASCII only; and ``verify`` does the same on a family that ``family -o``
  wrote, with one member file or manifest entry dropped, damaged or replaced.

Example counts stay small so the suite stays quick; every run draws new
examples, so coverage accumulates across runs.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from fuzzorder import (
    FuzzyRelation,
    GeneratorSpec,
    ParseError,
    emit_matrix,
    linearize,
    load_matrix,
    parse_matrix,
    random_zadeh_order,
    save_matrix,
)
from fuzzorder.cli import run_command
from fuzzorder.extension import POLICIES
from fuzzorder.matrixio import FORMATS

from genutil import reference_parse_matrix
from conftest import ORDER3_GRID, ORDER3_LABELS, ORDER7_GRID, ORDER7_LABELS

ORDER3 = FuzzyRelation(ORDER3_LABELS, ORDER3_GRID)
ORDER7 = FuzzyRelation(ORDER7_LABELS, ORDER7_GRID)
ACCENTED = FuzzyRelation(("a", "b", "\u00e7"), ORDER3_GRID)  # a label that ASCII cannot write
VALID_DOCS = [
    emit_matrix(r, fmt) for r in (ORDER3, ORDER7, ACCENTED) for fmt in ("csv", "json")
]
# A document that parses but is no order (r(a, c) and r(c, a) are both
# positive), so that the commands that need an order reach their exit 1.
NON_ORDER_DOCS = [emit_matrix(ORDER3.with_value("c", "a", 0.2), fmt) for fmt in ("csv", "json")]

# Characters that make up matrix documents, so that drawn text often gets
# past the first structural checks and reaches the deeper ones.
DOC_CHARS = ',\n\r "\t﻿abcx17{}[]:.-+e0123456789\\'

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(DOC_CHARS, max_size=4),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=12,
)
json_docs = st.builds(
    lambda labels, matrix, extra: json.dumps({"elements": labels, "matrix": matrix, **extra}),
    st.one_of(st.lists(st.text(DOC_CHARS, max_size=3), max_size=3), json_values),
    st.one_of(
        st.lists(
            st.lists(st.one_of(st.sampled_from([0, 1, 0.5]), json_scalars), max_size=3),
            max_size=3,
        ),
        json_values,
    ),
    st.dictionaries(st.text(max_size=3), json_values, max_size=2),
)


@st.composite
def mutated_docs(draw):
    """A valid document with one slice replaced by drawn text."""
    doc = draw(st.sampled_from(VALID_DOCS))
    start = draw(st.integers(0, len(doc)))
    stop = draw(st.integers(start, min(len(doc), start + 8)))
    return doc[:start] + draw(st.text(DOC_CHARS, max_size=8)) + doc[stop:]


documents = st.one_of(
    st.text(),
    st.text(DOC_CHARS, max_size=80),
    json_docs,
    mutated_docs(),
    st.sampled_from(VALID_DOCS + ['{"elements": ["\\ud800"], "matrix": [[1]]}']),
)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_parse_matrix_yields_relation_or_parse_error(text):
    try:
        relation = parse_matrix(text)
    except ParseError:
        return
    assert isinstance(relation, FuzzyRelation)


# Grade cells that the per-cell checks reject, or accept in a form other than
# the emitter's, and rows and labels that break the layout.
CSV_CELLS = ["x", "", "nan", "NaN", "inf", "-inf", "1.5", "-0.1", "2", "-0", "+.5", " 0.5 ",
             "0.2_5", "1_0e-1", "\u0660.\u0665", "\uff10.\uff15", "1e-400", "1e400",
             "\u00a00.5", "\x1c0.5", "0.5\x1f", "0x1", "1E-1", "0.3"]
JSON_CELLS = [True, False, None, "0.5", 1.5, -0.1, float("nan"), float("inf"), float("-inf"),
              2, -0.0, [0.5], {}, 0.3, 1, 0]


@st.composite
def damaged_documents(draw):
    """A generated order's document with one to four cells, rows or labels damaged."""
    n = draw(st.integers(1, 5))
    spec = GeneratorSpec(n=n, density=draw(st.sampled_from([0.3, 0.7])),
                         seed=draw(st.integers(0, 999)))
    r = random_zadeh_order(spec)
    csv_doc = draw(st.booleans())
    rows = r.tolists()
    if csv_doc:
        rows = [[label, *map(repr, row)] for label, row in zip(r.labels, rows)]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["cell"] * 6 + ["short", "long", "label", "rows"]))
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if not isinstance(row, list):  # a JSON row that "label" replaced
            continue
        if kind == "cell" and len(row) > int(csv_doc):
            j = draw(st.integers(int(csv_doc), len(row) - 1))
            row[j] = draw(st.sampled_from(CSV_CELLS if csv_doc else JSON_CELLS))
        elif kind == "short" and row:
            row.pop()
        elif kind == "long":
            row.append("0" if csv_doc else 0.0)
        elif kind == "label":
            if not csv_doc:
                rows[i] = draw(st.sampled_from([0.5, "row", None, {}]))
            elif row:  # "short" damages can empty a CSV row, label and all
                row[0] = draw(st.sampled_from(["zz", r.labels[-1], ""]))
        elif kind == "rows":
            rows.pop()
    if csv_doc:
        return "".join(",".join(row) + "\n" for row in [["", *r.labels], *rows])
    return json.dumps({"elements": list(r.labels), "matrix": rows})


def _outcome(parse, text):
    try:
        r = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.row, exc.col
    return "relation", r.labels, r.grid.tobytes()


@settings(max_examples=400, deadline=None)
@given(st.one_of(damaged_documents(), mutated_docs()))
def test_parse_matrix_agrees_with_the_per_cell_parser(text):
    """Equal relations, or the same first error at the same position."""
    assert _outcome(parse_matrix, text) == _outcome(reference_parse_matrix, text)


@st.composite
def relations(draw):
    """Any relation the constructor accepts: drawn labels, any grades in [0, 1]."""
    n = draw(st.integers(1, 4))
    labels = draw(st.lists(st.text(), min_size=n, max_size=n))
    grid = draw(
        st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    try:
        return FuzzyRelation(tuple(labels), grid)
    except ValueError:
        assume(False)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(relations(), st.sampled_from(["csv", "json"]))
def test_accepted_relations_round_trip_bit_identically(tmp_path, relation, fmt):
    _assert_round_trips(tmp_path, relation, fmt)


def _assert_round_trips(tmp_path, relation, fmt):
    path = tmp_path / f"relation.{fmt}"
    save_matrix(relation, path)
    for back in (parse_matrix(emit_matrix(relation, fmt), fmt), load_matrix(path)[0]):
        assert back.labels == relation.labels
        assert back.grid.tobytes() == relation.grid.tobytes()


@st.composite
def orders(draw):
    """A random order on drawn labels, with grades drawn from (0, 1]."""
    n = draw(st.integers(1, 5))
    labels = draw(st.lists(st.text(), min_size=n, max_size=n))
    spec = GeneratorSpec(
        n=n,
        density=draw(st.floats(0.0, 1.0)),
        value_pool=draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=4)),
        seed=draw(st.integers(0, 2**32)),
    )
    try:
        return FuzzyRelation(tuple(labels), random_zadeh_order(spec).grid)
    except ValueError:
        assume(False)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(orders(), st.sampled_from(["csv", "json"]))
def test_derived_relations_round_trip_bit_identically(tmp_path, order, fmt):
    """A linearization is built on its order's carrier, not by the constructor."""
    _assert_round_trips(tmp_path, linearize(order).relation, fmt)


# -------------------------------------------------------------------- CLI

COMMANDS = ("check", "linearize", "pivot", "clamp", "family", "verify", "gen")
LABELS = ("a", "b", "c", "x1", "x4", "zz", "")


def flag_tokens(path):
    """One token group of a command line; ``path`` maps names into the test directory."""

    def option(flags, values):
        return st.tuples(st.sampled_from(flags), st.sampled_from(values)).map(list)

    return st.one_of(
        st.sampled_from([["--json"], ["--trace"], ["--help"]]),
        option(["--policy"], ["low", "high", "sideways"]),
        option(["--a", "--b"], LABELS),
        option(["-o", "--output"], [path(p) for p in ("out.csv", "out.json", "out", "family")]),
        option(["--format"], ["csv", "json", "xml"]),
        option(["--family"], [path(p) for p in ("family", "out", "in.csv", "absent")]),
        option(["--n"], ["0", "1", "3", "12", "13", "-2", "x"]),
        option(["--density"], ["0", "0.5", "1", "1.5", "nan", "-1"]),
        option(["--seed"], ["0", "7", "-1", "x"]),
        st.sampled_from([[path(p)] for p in ("in.csv", "in.json", "absent.csv", "family")]),
    )


@st.composite
def command_lines(draw, directory):
    path = lambda name: str(directory / name)
    argv = [draw(st.sampled_from(COMMANDS + ("help", "")))]
    for group in draw(st.lists(flag_tokens(path), max_size=6)):
        argv.extend(group)
    return argv


@st.composite
def well_formed_lines(draw, directory):
    """A command, its input file, its required flags and some of its optional
    ones: lines that argparse accepts, so that they reach the handlers."""
    path = lambda name: str(directory / name)
    pick = lambda flag, values: [flag, draw(st.sampled_from(values))]
    name = draw(st.sampled_from(COMMANDS))
    if name == "gen":
        argv = [name, *pick("--n", ["1", "3", "12"]), *pick("--density", ["0", "0.5", "1"]),
                *pick("--seed", ["0", "7"])]
    else:
        argv = [name, path(draw(st.sampled_from(["in.csv", "in.json"])))]
    if name in ("pivot", "clamp"):
        argv += pick("--a", LABELS) + pick("--b", LABELS)
    if name == "verify":
        argv += ["--family", path("family")]
    optional = [["--json"]]
    if name == "linearize":
        optional += [["--trace"], pick("--policy", POLICIES)]
    if name not in ("check", "verify"):
        outputs = ["out"] if name == "family" else ["out.csv", "out.json"]
        optional += [pick("-o", [path(p) for p in outputs]), pick("--format", FORMATS)]
    for group in optional:
        if draw(st.booleans()):
            argv += group
    return argv


def manifests(directory):
    """family.json texts; the absolute entry names a file outside the family
    directory, and loop.csv and dangling.csv are symlinks that resolve to no file."""
    entries = ["member_000.csv", "../in.csv", str(directory / "in.csv"), "", ".", "loop.csv",
               "dangling.csv"]
    return st.one_of(
        st.builds(json.dumps, json_values),
        st.builds(lambda f: json.dumps({"members": [{"file": f}]}), st.sampled_from(entries)),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_run_command_exits_0_1_or_2_and_never_raises(tmp_path, data):
    inputs = st.sampled_from(VALID_DOCS + NON_ORDER_DOCS) | documents  # about half parse
    files = {
        "in.csv": data.draw(inputs),
        "in.json": data.draw(inputs),
        "family/member_000.csv": data.draw(documents),
        "family/family.json": data.draw(manifests(tmp_path)),
    }
    for name, text in files.items():
        target = tmp_path / name
        target.parent.mkdir(exist_ok=True)
        target.write_text(text, encoding="utf-8", errors="surrogatepass")
    for name, target in (("loop.csv", "loop.csv"), ("dangling.csv", "absent.csv")):
        link = tmp_path / "family" / name
        if hasattr(os, "symlink") and not link.is_symlink():
            link.symlink_to(target)
    argv = data.draw(well_formed_lines(tmp_path) | command_lines(tmp_path))

    assert _run(argv, data.draw(st.sampled_from(["utf-8", "ascii"]))) in (0, 1, 2)


def _run(argv, encoding="utf-8"):
    # Strict streams, as a terminal or pipe would have; stdout may be ASCII only.
    out = io.TextIOWrapper(io.BytesIO(), encoding=encoding)
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with redirect_stdout(out), redirect_stderr(err):
        return run_command(argv)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_verify_exits_0_1_or_2_on_a_damaged_family(tmp_path, data):
    """One fault in a family that ``family -o`` wrote: a member file or a
    manifest entry dropped, damaged or replaced.  A dropped file always
    exits 2, since the manifest still names it."""
    directory = Path(tempfile.mkdtemp(dir=tmp_path))  # fresh for each example
    source, family = directory / "in.csv", directory / "family"
    source.write_text(data.draw(st.sampled_from(VALID_DOCS)), encoding="utf-8")
    fmt = data.draw(st.sampled_from(FORMATS))
    assert _run(["family", str(source), "-o", str(family), "--format", fmt]) == 0
    manifest = json.loads((family / "family.json").read_text(encoding="utf-8"))
    entries = manifest["members"]
    k = data.draw(st.integers(0, len(entries) - 1))
    member = family / entries[k]["file"]
    fault = data.draw(st.sampled_from(["drop", "damage", "replace"]))
    in_file = data.draw(st.booleans())  # else in the member's manifest entry
    if in_file:
        if fault == "drop":
            member.unlink()
        else:
            text = member.read_text(encoding="utf-8")
            if fault == "damage":
                start = data.draw(st.integers(0, len(text)))
                stop = data.draw(st.integers(start, min(len(text), start + 8)))
                text = text[:start] + data.draw(st.text(DOC_CHARS, max_size=8)) + text[stop:]
            else:
                text = data.draw(st.sampled_from(VALID_DOCS + NON_ORDER_DOCS) | documents)
            member.write_text(text, encoding="utf-8", errors="surrogatepass")
    else:
        if fault == "drop":
            del entries[k]
        elif fault == "damage":
            entries[k] = data.draw(json_values)
        else:  # another member's file, or one that is no member
            for name, target in (("loop.csv", "loop.csv"), ("dangling.csv", "absent.csv")):
                if hasattr(os, "symlink"):
                    (family / name).symlink_to(target)
            faulty = ["../in.csv", "absent.csv", "", ".", "family.json", "loop.csv", "dangling.csv"]
            names = st.sampled_from([e["file"] for e in entries]) | st.sampled_from(faulty)
            entries[k] = {"file": data.draw(names)}
        (family / "family.json").write_text(json.dumps(manifest), encoding="utf-8")
    argv = ["verify", str(source), "--family", str(family)]
    code = _run(argv + data.draw(st.sampled_from([[], ["--json"]])),
                data.draw(st.sampled_from(["utf-8", "ascii"])))
    assert code in (0, 1, 2)
    if in_file and fault == "drop":
        assert code == 2
