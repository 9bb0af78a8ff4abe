"""CSV/JSON parsing, emission, and round-trip fidelity."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzorder import (
    FuzzyRelation,
    GeneratorSpec,
    ParseError,
    emit_matrix,
    load_matrix,
    parse_matrix,
    random_zadeh_order,
)
from fuzzorder import matrixio
from fuzzorder import relation as relation_module

from genutil import (
    block_sum,
    block_sums,
    corpus,
    reference_emit_matrix,
    tight_regrade,
)
from conftest import (
    FIXTURES,
    ORDER3_GRID,
    ORDER3_LABELS,
    ORDER4_GRID,
    ORDER4_LABELS,
    ORDER7_GRID,
    ORDER7_LABELS,
    ORDER7_LINEAR_GRID,
)


ORDER3_CSV = ",a,b,c\na,1,0,0.4\nb,0,1,0\nc,0,0,1\n"

# ---------------------------------------------------------------- parsing


def test_fixture_files_match_golden_literals():
    cases = [
        ("order3.csv", ORDER3_LABELS, ORDER3_GRID),
        ("order4.csv", ORDER4_LABELS, ORDER4_GRID),
        ("order7.csv", ORDER7_LABELS, ORDER7_GRID),
        ("order7_linear.csv", ORDER7_LABELS, ORDER7_LINEAR_GRID),
        ("order3.json", ORDER3_LABELS, ORDER3_GRID),
    ]
    for name, labels, grid in cases:
        relation, _ = load_matrix(FIXTURES / name)
        assert relation == FuzzyRelation(labels, grid), name


def test_parse_order7_fixture_values():
    relation, fmt = load_matrix(FIXTURES / "order7.csv")
    assert fmt == "csv"
    assert relation.n == 7
    assert relation.value("x3", "x1") == 0.15
    assert relation.value("x1", "x4") == 0.55


def test_parse_minimal_one_by_one():
    assert parse_matrix(",a\na,1\n").tolists() == [[1.0]]


def test_parse_value_out_of_range_positioned():
    text = ",a,b\na,1,1.5\nb,0,1\n"
    with pytest.raises(ParseError) as exc:
        parse_matrix(text)
    assert "outside [0, 1]" in str(exc.value)
    assert (exc.value.row, exc.value.col) == (2, 3)


def test_parse_malformed_number_positioned():
    with pytest.raises(ParseError) as exc:
        parse_matrix(",a,b\na,1,zero\nb,0,1\n")
    assert (exc.value.row, exc.value.col) == (2, 3)
    with pytest.raises(ParseError):
        parse_matrix(",a\na,nan\n")
    with pytest.raises(ParseError):
        parse_matrix(",a\na,inf\n")


@pytest.mark.parametrize("cell", ["0.2_5", "1_0e-1", "\u0660.\u0665", "\uff10.\uff15", "0.\u0665"])
@pytest.mark.parametrize("label", ["b", "b_2", "\u03b2"], ids=["ascii", "underscore", "greek"])
def test_parse_csv_grades_must_be_ascii_decimal_numbers(cell, label):
    """float() reads digit-group underscores and non-ASCII digits; a grade cell may not."""
    with pytest.raises(ParseError) as exc:
        parse_matrix(f",a,{label}\na,1,{cell}\n{label},0,1\n")
    assert str(exc.value) == f"malformed number {cell!r} (row 2, column 3)"


@pytest.mark.parametrize("label", ["b", "b_2", "\u03b2"], ids=["ascii", "underscore", "greek"])
def test_parse_csv_keeps_accepting_signs_bare_fractions_exponents_and_spaces(label):
    r = parse_matrix(f",a,{label}\na, +1 ,.5\n{label},-0, 1E-0\t\n")
    assert r.tolists() == [[1.0, 0.5], [0.0, 1.0]]


@pytest.mark.parametrize("text", [
    ",a,b\na,1,-0\nb,-0.0,1\n",
    '{"elements": ["a", "b"], "matrix": [[1, -0], [-0.0, 1]]}',
], ids=["csv", "json"])
def test_parse_makes_negative_zero_cells_positive_zero(text):
    """A parser is where a grid enters, so -0 and -0.0 cells leave it as +0.0."""
    r = parse_matrix(text)
    zero = FuzzyRelation(("a", "b"), [[1, 0], [0, 1]])
    assert not np.signbit(r.grid).any()
    assert r == zero and hash(r) == hash(zero)
    assert r.grid.tobytes() == zero.grid.tobytes()
    for fmt in ("csv", "json"):
        assert emit_matrix(r, fmt) == emit_matrix(zero, fmt)
        assert "-0" not in emit_matrix(r, fmt)


@pytest.mark.parametrize("text, message", [
    (",a,b\na,1,1.5\nb,0\n", "value 1.5 outside [0, 1] (row 2, column 3)"),
    (",a,b\na,1,x\nb,0\n", "malformed number 'x' (row 2, column 3)"),
    (",a,b\na,1,2\nb,1,0\n", "value 2 outside [0, 1] (row 2, column 3)"),
    (",a,b,c\na,1,0,0\nb,0,nan,0\nc,0,0,1,0\n", "value nan outside [0, 1] (row 3, column 3)"),
    (",a,b\na,1,-0.5\nb,0,x\n", "value -0.5 outside [0, 1] (row 2, column 3)"),
    (",a,b\na,2,x\nb,0,1\n", "value 2 outside [0, 1] (row 2, column 2)"),
    (",a,b\na,x,2\nb,0,1\n", "malformed number 'x' (row 2, column 2)"),
    (",a,b\na,1,0\nb,0,x\n", "malformed number 'x' (row 3, column 3)"),
    (",a,b\na,1,0\nb,0,1.5\n", "value 1.5 outside [0, 1] (row 3, column 3)"),
    (",a,b\na,1,5\nc,0,1\n", "value 5 outside [0, 1] (row 2, column 3)"),
    (",a,b,c\na,1,0,5\nb,0,7,0\nc,0,0,1\n", "value 5 outside [0, 1] (row 2, column 4)"),
    ('{"elements":["a","b"],"matrix":[[1,3],[4,1]]}', "value 3.0 outside [0, 1] (row 1, column 2)"),
    ('{"elements":["a","b"],"matrix":[[1,2],[0]]}', "value 2.0 outside [0, 1] (row 1, column 2)"),
    ('{"elements":["a","b"],"matrix":[[1,2],[0,true]]}',
     "value 2.0 outside [0, 1] (row 1, column 2)"),
    ('{"elements":["a","b"],"matrix":[[1,0],[NaN,"x"]]}', "value nan outside [0, 1] (row 2, column 1)"),
    ('{"elements":["a","b"],"matrix":[[1,0],["x",NaN]]}', "malformed number 'x' (row 2, column 1)"),
    ('{"elements":["a","b"],"matrix":[[1,0],[0,-1]]}', "value -1.0 outside [0, 1] (row 2, column 2)"),
    # A row of U+00A0-padded cells fails the row-wide test, is rescanned and accepted.
    (",a,b\na,1,\xa00\xa0\nb,0,1.5\n", "value 1.5 outside [0, 1] (row 3, column 3)"),
    (",a,b\na,1,\xa00\xa0\nb,0\n", "expected 3 cells, got 2 (row 3, column 3)"),
    (",a,b\na,1,\xa02\xa0\nb,0,x\n", "value 2 outside [0, 1] (row 2, column 3)"),
    (",a,b,c\na,1,\xa00,7\nb,0,1,x\nc,0,0,1\n", "value 7 outside [0, 1] (row 2, column 4)"),
    (",a,b\na,1,0\nc,0,x\n", "row label 'c' does not match header label 'b' (row 3, column 1)"),
    ('{"elements":["a","b"],"matrix":[[1,2],[true,1]]}',
     "value 2.0 outside [0, 1] (row 1, column 2)"),
    ('{"elements":["a","b","c"],"matrix":[[1,0,5],[0,1,true],[0,0,1]]}',
     "value 5.0 outside [0, 1] (row 1, column 3)"),
    ('{"elements":["a","b"],"matrix":[[1,true],[0]]}', "malformed number True (row 1, column 2)"),
    # The row count is checked before any row.
    (",a,b\na,1,1.5\n", "expected 2 data rows for 2 labels, got 1 (row 2, column 1)"),
    ('{"elements":["a","b"],"matrix":[[1,2]]}', "expected 2 matrix rows, got 1"),
])
def test_parse_reports_the_first_error_in_row_major_order(text, message):
    """A grade error in an earlier row beats a structural error in a later one,
    and a wrong row count beats both."""
    with pytest.raises(ParseError) as exc:
        parse_matrix(text)
    assert str(exc.value) == message


# Damages for a grade cell: (text, expected message), by format.  Malformed
# cells name their text; out-of-range ones their value.
BAD_CELLS = {
    "csv": [
        ("x", "malformed number 'x'"),
        ("1_0", "malformed number '1_0'"),
        ("\u0660.\u0665", "malformed number '\u0660.\u0665'"),
        ("0x1p-1", "malformed number '0x1p-1'"),
        ("1.5", "value 1.5 outside [0, 1]"),
        ("-0.5", "value -0.5 outside [0, 1]"),
        ("nan", "value nan outside [0, 1]"),
    ],
    "json": [
        ('"0.5"', "malformed number '0.5'"),
        ("true", "malformed number True"),
        ("null", "malformed number None"),
        ("1.5", "value 1.5 outside [0, 1]"),
        ("-0.5", "value -0.5 outside [0, 1]"),
        ("NaN", "value nan outside [0, 1]"),
    ],
}


def _document(r, fmt, damages):
    # r emitted in fmt, with the grade cell at (i, j) of the matrix replaced
    # by the text damages[i, j]; generated labels hold no comma or quote.
    text = emit_matrix(r, fmt)
    if fmt == "csv":
        lines = [line.split(",") for line in text.splitlines()]
        for (i, j), cell in damages.items():
            lines[i + 1][j + 1] = cell
        return "".join(",".join(line) + "\n" for line in lines)
    rows = json.loads(text, parse_int=str, parse_float=str)["matrix"]
    for (i, j), cell in damages.items():
        rows[i][j] = cell
    matrix = ", ".join(f"[{', '.join(row)}]" for row in rows)
    return f'{{"elements": {json.dumps(list(r.labels))}, "matrix": [{matrix}]}}'


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12),
    st.sampled_from((0.0, 0.3, 0.6, 1.0)),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("csv", "json")),
    st.data(),
)
def test_parse_names_the_first_bad_cell_in_row_major_order(n, density, seed, fmt, data):
    """One or two damaged cells in an emitted order: the error is the
    row-major first one's, at its (row, column), whatever the other holds."""
    r = random_zadeh_order(GeneratorSpec(n=n, density=density, seed=seed))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    where = data.draw(st.lists(cells, min_size=1, max_size=2, unique=True))
    bad = data.draw(st.lists(st.sampled_from(BAD_CELLS[fmt]), min_size=len(where),
                             max_size=len(where)))
    damages = dict(zip(where, bad))
    (i, j), (_, message) = min(damages.items())
    offset = 2 if fmt == "csv" else 1  # the header row and label column, in CSV
    with pytest.raises(ParseError) as exc:
        parse_matrix(_document(r, fmt, {at: text for at, (text, _) in damages.items()}), fmt)
    assert (exc.value.row, exc.value.col) == (i + offset, j + offset)
    assert str(exc.value) == f"{message} (row {i + offset}, column {j + offset})"


@pytest.mark.parametrize("cell", ["0.0", "-0", "1.0", "1e0", "+1", " 1", "00"])
def test_parse_csv_reads_other_texts_of_0_and_1_as_float_does(cell):
    r = parse_matrix(f",a,b\na,1,{cell}\nb,0,1\n")
    assert r.grid[0, 1].tobytes() == np.float64(float(cell) + 0.0).tobytes()


@pytest.mark.parametrize("literal", ["0", "-0"])
def test_parse_json_reads_integer_literal_zeros_as_positive_zero(literal):
    r = parse_matrix('{"elements": ["a", "b"], "matrix": [[1, ' + literal + "], [0, 1]]}")
    assert r.grid[0, 1].tobytes() == np.float64(0.0).tobytes()


class _Rescanned(Exception):
    pass


def test_valid_documents_never_reach_the_per_cell_rescan(monkeypatch):
    """Every row of a valid document is read by its format's row-wide reader."""
    def refuse(*args):
        raise _Rescanned
    monkeypatch.setattr(matrixio, "_rescan", refuse)
    paths = [*FIXTURES.glob("*.csv"), *FIXTURES.glob("*.json")]
    relations = [load_matrix(path)[0] for path in sorted(paths)]
    large = [r for r in block_sums() if r.n >= 96]
    assert len(relations) >= 5 and large
    for r in relations + large:
        for fmt in ("csv", "json"):
            assert parse_matrix(emit_matrix(r, fmt), fmt) == r
    with pytest.raises(_Rescanned):
        parse_matrix(",a,b\na,1,\xa00\xa0\nb,0,1\n")
    with pytest.raises(_Rescanned):
        parse_matrix('{"elements":["a"],"matrix":[[true]]}')


def test_parse_csv_writes_its_rows_into_one_grid():
    """A CSV document's grades go straight into the grid, with no list of
    float rows and no copy of it; the reader's cell strings stay."""
    r = block_sum((12,) * 16)  # the n = 192 disjoint sum
    text = emit_matrix(r, "csv")
    tracemalloc.start()
    try:
        parsed = parse_matrix(text, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == r
    assert peak < 4.5 * r.grid.nbytes, (peak, r.grid.nbytes)


@pytest.mark.parametrize("space", ["\u00a0", "\x1c", "\u2003"])
def test_parse_csv_strips_every_whitespace_that_str_strip_does(space):
    """float() strips only some of these itself; a cell is read as str.strip() leaves it."""
    r = parse_matrix(f",a,b\na,1,{space}0.5{space}\nb,0,1\n")
    assert r.tolists() == [[1.0, 0.5], [0.0, 1.0]]


def test_parse_structural_errors():
    with pytest.raises(ParseError, match="empty matrix"):
        parse_matrix("")
    with pytest.raises(ParseError, match="header cell"):
        parse_matrix("x,a\na,1\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_matrix(",a,a\na,1,0\na,0,1\n")
    with pytest.raises(ParseError, match="data rows"):
        parse_matrix(",a,b\na,1,0\n")
    with pytest.raises(ParseError, match="cells"):
        parse_matrix(",a,b\na,1\nb,0,1\n")
    with pytest.raises(ParseError, match="row label"):
        parse_matrix(",a,b\nb,1,0\na,0,1\n")


@pytest.mark.parametrize("text", [
    ORDER3_CSV, json.dumps({"elements": ORDER3_LABELS, "matrix": ORDER3_GRID}),
], ids=["csv", "json"])
def test_parse_runs_the_label_rule_once(monkeypatch, text):
    """A parser builds its relation on the labels it checked; the rule runs once."""
    calls = []
    label_error = relation_module._label_error
    counted = lambda labels: calls.append(tuple(labels)) or label_error(labels)
    monkeypatch.setattr(relation_module, "_label_error", counted)
    monkeypatch.setattr(matrixio, "_label_error", counted)
    r = parse_matrix(text)
    assert calls == [tuple(ORDER3_LABELS)]
    monkeypatch.undo()
    assert r == FuzzyRelation(ORDER3_LABELS, ORDER3_GRID)
    assert r.index_of("c") == 2 and not r.grid.flags.writeable


def test_parse_json_document():
    relation = parse_matrix('{"elements": ["a", "b"], "matrix": [[1, 0.5], [0, 1]]}')
    assert relation == FuzzyRelation(("a", "b"), [[1, 0.5], [0, 1]])


def test_parse_json_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_matrix("{not json", fmt="json")
    with pytest.raises(ParseError, match="elements"):
        parse_matrix('{"matrix": [[1]]}', fmt="json")
    with pytest.raises(ParseError, match="outside"):
        parse_matrix('{"elements": ["a"], "matrix": [[2]]}')
    with pytest.raises(ParseError, match="malformed"):
        parse_matrix('{"elements": ["a"], "matrix": [[true]]}')
    with pytest.raises(ParseError, match="rows"):
        parse_matrix('{"elements": ["a", "b"], "matrix": [[1, 0]]}')
    with pytest.raises(ParseError) as exc:
        parse_matrix('{"elements": ["a"], "matrix": {"a": [1]}}')
    assert str(exc.value) == '"matrix" must be an array of rows'


def test_parse_json_integer_beyond_float_range_positioned():
    huge = "1" * 400
    with pytest.raises(ParseError, match=r"outside \[0, 1\] \(row 1, column 2\)"):
        parse_matrix('{"elements": ["a", "b"], "matrix": [[1, ' + huge + '], [0, 1]]}')


@pytest.mark.parametrize("sign", ["", "-"])
def test_parse_json_integer_beyond_int_conversion_limit_positioned(sign):
    huge = sign + "1" * 5000  # more digits than int() converts
    with pytest.raises(ParseError, match=r"outside \[0, 1\] \(row 2, column 1\)"):
        parse_matrix('{"elements": ["a", "b"], "matrix": [[1, 0], [' + huge + ', 1]]}')


@pytest.mark.parametrize("text", [
    '{"elements": ["a"], "matrix": [[' + "1" * 5000 + "]]",  # then a syntax error
    '{"elements": ["a"], "matrix": ' + "[" * 100_000 + "]" * 100_000 + "}",
])
def test_parse_json_hostile_documents_are_parse_errors(text):
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_matrix(text)


@pytest.mark.parametrize("label, reason", [(" a", "whitespace"), ("\\ud800", "UTF-8")])
def test_parse_json_rejects_labels_that_cannot_round_trip(label, reason):
    with pytest.raises(ParseError, match=reason):
        parse_matrix('{"elements": ["' + label + '", "b"], "matrix": [[1, 0], [0, 1]]}')


@pytest.mark.parametrize("labels, where", [
    (["a", "b", "a"], r'"elements" entry 3: .*distinct, got duplicate'),
    (["a", " b", "c"], r'"elements" entry 2: .*whitespace'),
    (["a", "b", 3], r'"elements" entry 3: .*nonempty strings, got 3'),
    (["a\rb", "b", "c"], r'"elements" entry 1: .*carriage return'),
])
def test_parse_json_label_error_names_its_elements_entry(labels, where):
    doc = json.dumps({"elements": labels, "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    with pytest.raises(ParseError, match=where):
        parse_matrix(doc)


def test_label_longer_than_the_bound_is_rejected_by_constructor_and_both_formats():
    # CSV's reader refuses fields over 131,072 characters, so such a label
    # could be built and emitted but not parsed back.
    long = "a" * 140000
    with pytest.raises(ValueError, match="at most 1024 characters, got one of 140000"):
        FuzzyRelation((long,), [[1]])
    with pytest.raises(ParseError, match='"elements" entry 1: .*at most 1024 characters'):
        parse_matrix(json.dumps({"elements": [long], "matrix": [[1]]}))
    with pytest.raises(ParseError, match="at most 1024 characters") as exc:
        parse_matrix(f",{'a' * 1025}\n{'a' * 1025},1\n")
    assert (exc.value.row, exc.value.col) == (1, 2)


def test_label_at_the_bound_round_trips_in_both_formats():
    r = FuzzyRelation(("a" * 1024, "b"), [[1, 0.5], [0, 1]])
    for fmt in ("csv", "json"):
        assert parse_matrix(emit_matrix(r, fmt)) == r


def test_parse_json_empty_elements_is_parse_error():
    with pytest.raises(ParseError, match='"elements"'):
        parse_matrix('{"elements": [], "matrix": []}')


@pytest.mark.parametrize("text, position, reason", [
    (",a,b,a\na,1,0,0\nb,0,1,0\na,0,0,1\n", (1, 4), "duplicate"),
    (",a,,b\na,1,0,0\n,0,1,0\nb,0,0,1\n", (1, 3), "nonempty"),
    (',a,"b\rc"\na,1,0\n"b\rc",0,1\n', (1, 3), "carriage return"),
])
def test_parse_csv_label_error_positioned_at_its_header_cell(text, position, reason):
    with pytest.raises(ParseError, match=reason) as exc:
        parse_matrix(text)
    assert (exc.value.row, exc.value.col) == position


@pytest.mark.parametrize("text, where", [
    ("\n,a\na,1\n", r"empty header row \(row 1, column 1\)"),
    (",a\na,\r1\n", r"malformed CSV: .* \(row 2\)"),
    (" \n", r"no element labels in header \(row 1, column 2\)"),
    ('""\n', r"no element labels in header \(row 1, column 2\)"),
])
def test_parse_csv_structure_errors_positioned(text, where):
    with pytest.raises(ParseError, match=where):
        parse_matrix(text)


@pytest.mark.parametrize("doc", [ORDER3_CSV, '{"elements": ["a"], "matrix": [[1]]}'])
def test_leading_byte_order_mark_is_ignored(doc, tmp_path):
    plain = parse_matrix(doc)
    assert parse_matrix("\ufeff" + doc) == plain
    path = tmp_path / "bom.txt"
    path.write_text(doc, encoding="utf-8-sig")
    assert load_matrix(path)[0] == plain


def test_load_matrix_rejects_non_utf8_file_naming_path_and_offset(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b",a\r\na,1\r\n\xff,0\r\n")  # the offset counts raw bytes
    with pytest.raises(ParseError) as exc:
        load_matrix(path)
    assert str(path) in str(exc.value)
    assert "0xff at offset 9" in str(exc.value)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_load_matrix_reads_crlf_and_cr_line_endings(tmp_path, newline):
    path = tmp_path / "order3.csv"
    path.write_bytes(ORDER3_CSV.replace("\n", newline).encode("utf-8"))
    assert load_matrix(path)[0] == parse_matrix(ORDER3_CSV)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_parse_csv_ignores_trailing_blank_lines(tmp_path, newline):
    doc = ORDER3_CSV.replace("\n", newline)
    padded = doc + newline * 3
    assert parse_matrix(padded) == parse_matrix(doc)
    path = tmp_path / "padded.csv"
    path.write_bytes(padded.encode("utf-8"))
    assert load_matrix(path) == (parse_matrix(doc), "csv")


def test_format_detection():
    a = parse_matrix(",a\na,1\n")
    b = parse_matrix('  {"elements": ["a"], "matrix": [[1]]}')
    assert a == b


# ---------------------------------------------------------------- emission


def test_emit_one_by_one_canonical_form():
    assert emit_matrix(parse_matrix(",a\na,1\n")) == ",a\na,1\n"


def test_emit_uses_shortest_roundtrip_decimals(order7):
    text = emit_matrix(order7)
    assert "0.55" in text and "0.45" in text
    assert "0.4," in text  # 0.40 emits as its shortest form
    lines = text.splitlines()
    assert lines[0] == ",x1,x2,x3,x4,x5,x6,x7"
    assert lines[1] == "x1,1,0,0,0.55,0.4,0.45,0.6"


def test_emit_matches_golden_file_values(order7_linear):
    emitted = parse_matrix(emit_matrix(order7_linear))
    published, _ = load_matrix(FIXTURES / "order7_linear.csv")
    assert emitted == published


def test_emit_uses_lf_endings(order3):
    assert "\r" not in emit_matrix(order3)
    assert emit_matrix(order3).endswith("\n")


def test_emit_json_schema(order3):
    doc = json.loads(emit_matrix(order3, "json"))
    assert doc["elements"] == ["a", "b", "c"]
    assert doc["matrix"][0] == [1, 0, 0.4]


def test_unknown_format_rejected(order3):
    with pytest.raises(ValueError, match="format"):
        emit_matrix(order3, "xml")
    with pytest.raises(ValueError, match="format"):
        parse_matrix(",a\na,1\n", fmt="xml")


# ---------------------------------------------------------------- round-trip


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_roundtrip_fixtures(fmt, order3, order4, order7, order7_linear):
    for relation in (order3, order4, order7, order7_linear):
        assert parse_matrix(emit_matrix(relation, fmt), fmt) == relation


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_roundtrip_generated(fmt):
    for seed in range(60):
        r = random_zadeh_order(GeneratorSpec(n=1 + seed % 8, density=0.5, seed=seed))
        assert parse_matrix(emit_matrix(r, fmt), fmt) == r


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_roundtrip_tight_regrades(fmt, order3, order4, order7, order7_linear):
    """Grades one ulp apart come back bit for bit."""
    for r in [order3, order4, order7, order7_linear, *corpus(300, max_n=12)]:
        tight = tight_regrade(r)
        back = parse_matrix(emit_matrix(tight, fmt), fmt)
        assert back == tight and back.grid.tobytes() == tight.grid.tobytes()


def test_double_roundtrip_is_stable(order7):
    once = emit_matrix(order7)
    twice = emit_matrix(parse_matrix(once))
    assert once == twice


# ---------------------------------------------------------------- emitter parity


EDGE_GRADES = [5e-324, 2.0**-1074 * 3, 1 - 2.0**-53, 0.1 + 0.2, 0.0, 1.0]


def _edge_relations():
    # Row k holds EDGE_GRADES[k] throughout; the second grid has -0.0 entries.
    n = len(EDGE_GRADES)
    yield FuzzyRelation(tuple(f"e{k}" for k in range(n)), np.repeat([EDGE_GRADES], n, axis=0).T)
    yield FuzzyRelation(("a", "b"), [[1.0, -0.0], [0.5, -0.0]])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_is_byte_identical_to_the_per_cell_emitter(fmt):
    relations = [*corpus(1000), *block_sums(), *_edge_relations()]
    assert max(r.n for r in relations) == 192
    for r in relations:
        text = emit_matrix(r, fmt)
        assert text == reference_emit_matrix(r, fmt), r
        back = parse_matrix(text, fmt)
        assert back == r and back.grid.tobytes() == r.grid.tobytes()


def test_emit_writes_edge_grades_as_shortest_round_trip_decimals():
    r = next(_edge_relations())
    assert emit_matrix(r).splitlines()[1] == (
        "e0,5e-324,5e-324,5e-324,5e-324,5e-324,5e-324"
    )
    texts = json.loads(emit_matrix(r, "json"))["matrix"]
    assert [row[0] for row in texts] == [5e-324, 1.5e-323, 0.9999999999999999,
                                         0.30000000000000004, 0, 1]
    assert "-0" not in emit_matrix(FuzzyRelation(("a", "b"), [[1.0, -0.0], [-0.0, 1.0]]), "json")
