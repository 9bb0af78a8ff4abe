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
from pathlib import Path

from .relation import FuzzyOrderError, FuzzyRelation, _label_error

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


def _grade(value: float, text: str, row: int, col: int) -> float:
    if not 0.0 <= value <= 1.0:  # also false for NaN
        raise ParseError(f"value {text} outside [0, 1]", row, col)
    return value


def _read_json(text: str, name: str = ""):
    """Decode JSON text, reading integer literals of any length as floats.

    Syntax errors become a :class:`ParseError` at their (line, column);
    ``name`` prefixes every message.
    """
    try:
        return json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name}invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError(f"{name}invalid JSON: arrays or objects nested too deeply") from None


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
    error = _label_error(labels)
    if error is not None:
        raise ParseError(error[1], 1, error[0] + 2)

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
        row = []
        for j, cell in enumerate(cells[1:], start=2):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"malformed number {cell!r}", i, j) from None
            row.append(_grade(value, cell, i, j))
        rows.append(row)
    return FuzzyRelation._on_carrier_of(tuple(labels), rows)


def _parse_json(text: str) -> FuzzyRelation:
    doc = _read_json(text)
    if not isinstance(doc, dict) or "elements" not in doc or "matrix" not in doc:
        raise ParseError('JSON document must be an object with "elements" and "matrix"')
    labels = doc["elements"]
    matrix = doc["matrix"]
    if not isinstance(labels, list) or not labels:
        raise ParseError('"elements" must be a nonempty array of strings')
    error = _label_error(labels)
    if error is not None:
        raise ParseError(f'"elements" entry {error[0] + 1}: {error[1]}')
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
            if not isinstance(cell, float):  # every JSON number is read as a float
                raise ParseError(f"malformed number {cell!r}", i, j)
            parsed.append(_grade(cell, repr(cell), i, j))
        rows.append(parsed)
    return FuzzyRelation._on_carrier_of(tuple(labels), rows)


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


def _read_text(path) -> str:
    """Read a UTF-8 file with universal newlines; other bytes are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
        ) from None


def load_matrix(path) -> tuple[FuzzyRelation, str]:
    """Read a matrix file; returns the relation and the detected format."""
    text = _read_text(path)
    fmt = detect_format(text)
    return parse_matrix(text, fmt), fmt


def save_matrix(r: FuzzyRelation, path, fmt: str | None = None) -> None:
    """Write a matrix file, inferring the format from the extension if unset."""
    fmt = fmt or format_for_path(path)
    Path(path).write_text(emit_matrix(r, fmt), encoding="utf-8")
