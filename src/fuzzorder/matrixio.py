"""Reading and writing relation matrices as CSV or JSON documents.

CSV layout mirrors a printed table: the first row is an empty corner cell
followed by the element labels, and each following row is a label followed
by that row's grades.  JSON documents are objects with an ``"elements"``
array and a ``"matrix"`` array of rows.

Grades are emitted with the shortest decimal representation that parses
back to the identical binary64 value (integral grades are written without
a fractional part), so parse -> emit -> parse is value-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from .relation import FuzzyOrderError, FuzzyRelation

__all__ = [
    "ParseError",
    "detect_format",
    "emit_matrix",
    "format_for_path",
    "load_matrix",
    "parse_matrix",
    "save_matrix",
]

FORMATS = ("csv", "json")


class ParseError(FuzzyOrderError):
    """A positioned parse failure; ``row`` and ``col`` are 1-based."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        where = ""
        if row is not None and col is not None:
            where = f" (row {row}, column {col})"
        elif row is not None:
            where = f" (row {row})"
        super().__init__(message + where)
        self.row = row
        self.col = col


_BOM = "\ufeff"  # a UTF-8 byte order mark, as decoded text


def detect_format(text: str) -> str:
    """Guess the document format: JSON if it starts like an object, else CSV."""
    return "json" if text.removeprefix(_BOM).lstrip()[:1] == "{" else "csv"


def _parse_value(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"malformed number {cell!r}", row, col) from None
    if not math.isfinite(value):
        raise ParseError(f"malformed number {cell!r}", row, col)
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"value {cell} outside [0, 1]", row, col)
    return value


def _build(labels, rows, positions) -> FuzzyRelation:
    try:
        return FuzzyRelation(tuple(labels), rows)
    except ValueError as exc:
        raise ParseError(str(exc), *positions) from None


def _parse_csv(text: str) -> FuzzyRelation:
    reader = csv.reader(io.StringIO(text))
    try:
        lines = list(reader)
    except csv.Error as exc:  # e.g. a carriage return inside an unquoted cell
        raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None
    while lines and lines[-1] == []:
        lines.pop()
    if not lines:
        raise ParseError("empty matrix document", 1, 1)

    header = [cell.strip() for cell in lines[0]]
    if not header:
        raise ParseError("empty header row", 1, 1)
    if header[0] != "":
        raise ParseError("first header cell must be empty", 1, 1)
    labels = header[1:]
    if not labels:
        raise ParseError("no element labels in header", 1, 2)
    for j, lbl in enumerate(labels):
        if lbl == "":
            raise ParseError("empty element label", 1, j + 2)
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate element labels in header", 1, 2)

    n = len(labels)
    if len(lines) - 1 != n:
        raise ParseError(
            f"expected {n} data rows for {n} labels, got {len(lines) - 1}",
            len(lines),
            1,
        )
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in line]
        if len(cells) != n + 1:
            raise ParseError(
                f"expected {n + 1} cells, got {len(cells)}", i, len(cells) + 1
            )
        if cells[0] != labels[i - 2]:
            raise ParseError(
                f"row label {cells[0]!r} does not match header label {labels[i - 2]!r}",
                i,
                1,
            )
        rows.append([_parse_value(cell, i, j + 2) for j, cell in enumerate(cells[1:])])
    return _build(labels, rows, (None, None))


_BEYOND_FLOAT = 10**400


def _json_int(literal: str) -> int:
    try:
        return int(literal)
    except ValueError:  # too many digits for int(), so beyond every float too
        return -_BEYOND_FLOAT if literal.startswith("-") else _BEYOND_FLOAT


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        # int() refuses integer literals of more than 4300 digits.  Parse again
        # with each such literal read as an integer just as far beyond every
        # float, so the cell checks report it with its position.  (A parse_int
        # hook on every parse would make parsing about three times slower.)
        return json.loads(text, parse_int=_json_int)


def _parse_json(text: str) -> FuzzyRelation:
    try:
        doc = _load_json(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict) or "elements" not in doc or "matrix" not in doc:
        raise ParseError('JSON document must be an object with "elements" and "matrix"')
    labels = doc["elements"]
    matrix = doc["matrix"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError('"elements" must be an array of strings')
    if not isinstance(matrix, list):
        raise ParseError('"matrix" must be an array of rows')
    n = len(labels)
    if len(matrix) != n:
        raise ParseError(f"expected {n} matrix rows, got {len(matrix)}")
    rows = []
    # positions below are matrix coordinates (1-based), not text coordinates
    for i, row in enumerate(matrix, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"matrix row {i} must have {n} entries", i, 1)
        parsed = []
        for j, cell in enumerate(row, start=1):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                raise ParseError(f"malformed number {cell!r}", i, j)
            try:
                value = float(cell)
            except OverflowError:  # an integer literal beyond any float
                raise ParseError("integer too large, outside [0, 1]", i, j) from None
            if not math.isfinite(value):
                raise ParseError(f"malformed number {cell!r}", i, j)
            if not 0.0 <= value <= 1.0:
                raise ParseError(f"value {cell!r} outside [0, 1]", i, j)
            parsed.append(value)
        rows.append(parsed)
    return _build(labels, rows, (None, None))


def parse_matrix(text: str, fmt: str | None = None) -> FuzzyRelation:
    """Parse a CSV or JSON matrix document into a relation.

    With ``fmt=None`` the format is detected from the text.  A leading UTF-8
    byte order mark is ignored.  Raises :class:`ParseError` with a position
    for malformed documents.
    """
    text = text.removeprefix(_BOM)
    fmt = fmt or detect_format(text)
    if fmt == "csv":
        return _parse_csv(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _format_value(v: float):
    return int(v) if float(v).is_integer() else float(v)


def _value_text(v: float) -> str:
    return repr(_format_value(v))


def emit_matrix(r: FuzzyRelation, fmt: str = "csv") -> str:
    """Serialize a relation; the output parses back bit-identically."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([""] + list(r.labels))
        for label, row in zip(r.labels, r.grid):
            writer.writerow([label] + [_value_text(v) for v in row])
        return out.getvalue()
    if fmt == "json":
        doc = {
            "elements": list(r.labels),
            "matrix": [[_format_value(v) for v in row] for row in r.grid],
        }
        return json.dumps(doc) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def format_for_path(path) -> str:
    return "json" if str(path).lower().endswith(".json") else "csv"


def load_matrix(path) -> tuple[FuzzyRelation, str]:
    """Read a matrix file; returns the relation and the detected format."""
    text = Path(path).read_text(encoding="utf-8")
    fmt = detect_format(text)
    return parse_matrix(text, fmt), fmt


def save_matrix(r: FuzzyRelation, path, fmt: str | None = None) -> None:
    """Write a matrix file, inferring the format from the extension if unset."""
    fmt = fmt or format_for_path(path)
    Path(path).write_text(emit_matrix(r, fmt), encoding="utf-8")
