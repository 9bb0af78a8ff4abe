"""Reading and writing relation matrices as CSV or JSON documents.

CSV layout mirrors a printed table: the first row is an empty corner cell
followed by the element labels, and each following row is a label followed
by that row's grades.  JSON documents are objects with an ``"elements"``
array and a ``"matrix"`` array of rows.

Parse errors carry 1-based (row, column) positions.  In CSV they are the
(record, cell) of the document.  JSON grade and row-shape errors are
positioned by ``"matrix"`` row and entry, not by text line and column;
JSON syntax errors carry the text line and column.

Grades are emitted with the shortest decimal representation that parses
back to the identical binary64 value (integral grades are written without
a fractional part), so parse -> emit -> parse is value-identical.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .relation import FuzzyOrderError, FuzzyRelation, _label_error

__all__ = [
    "ParseError",
    "emit_matrix",
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


def _csv_cells(cells: list[str]) -> list[float]:
    # float() also reads "_" between digits and non-ASCII digits such as
    # "٠.٥"; a JSON number holds neither, and neither may a CSV grade
    # cell.  float() strips less whitespace than str.strip(), which the
    # per-cell rescan applies first.
    joined = "".join(cells)
    if not joined.isascii() or "_" in joined:
        raise ValueError(joined)
    return list(map(float, cells))


def _json_cells(row: list) -> list[float]:
    if set(map(type, row)) != {float}:  # every JSON number is read as a float
        raise ValueError(row)
    return row


def _rescan(cells, read_cells, prep) -> list[float]:
    """The grades of ``cells`` read one at a time, up to the first malformed one."""
    grades = []
    for cell in cells:
        try:
            grades += read_cells([prep(cell)])
        except ValueError:
            break
    return grades


def _grid(rows, read_cells, row0: int, col0: int, pending=None, prep=lambda cell: cell):
    """The grid of ``rows`` of grade cells, -0.0 made +0.0, or the document's first error.

    ``read_cells`` reads a whole row, raising ValueError on a malformed cell;
    a row it refuses is rescanned.  Entry (i, j) sits at (row0 + i, col0 + j),
    and ``pending`` is the parser's error in the row after ``rows``.  Raised,
    in turn: the row-major first grade outside [0, 1] (NaN included), the
    first malformed cell, ``pending``.
    """
    grid = []
    for i, cells in enumerate(rows):
        try:
            grid.append(read_cells(cells))
        except ValueError:
            grades = _rescan(cells, read_cells, prep)
            j = len(grades)
            # The grades before a malformed cell still meet the range check.
            grid.append(grades + [0.0] * (len(cells) - j))
            if j < len(cells):
                pending = ParseError(f"malformed number {prep(cells[j])!r}", row0 + i, col0 + j)
                break
    grid = np.array(grid, dtype=np.float64)
    bad = ~((grid >= 0.0) & (grid <= 1.0))
    if bad.any():
        i, j = divmod(int(bad.argmax()), grid.shape[1])
        raise ParseError(f"value {prep(rows[i][j])} outside [0, 1]", row0 + i, col0 + j)
    if pending is not None:
        raise pending
    grid += 0.0  # -0.0 (a CSV "-0", a JSON "-0.0") made +0.0 in place
    return grid


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
    rows, pending = [], None
    for i, line in enumerate(lines[1:], start=2):
        if len(line) != n + 1:
            pending = ParseError(f"expected {n + 1} cells, got {len(line)}", i, len(line) + 1)
            break
        label = line[0].strip()
        if label != labels[i - 2]:
            pending = ParseError(
                f"row label {label!r} does not match header label {labels[i - 2]!r}", i, 1
            )
            break
        rows.append(line[1:])
    grid = _grid(rows, _csv_cells, 2, 2, pending, str.strip)
    return FuzzyRelation._on_carrier_of(tuple(labels), grid)


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
    rows, pending = [], None
    for i, row in enumerate(matrix, start=1):
        if not isinstance(row, list) or len(row) != n:
            pending = ParseError(f"matrix row {i} must have {n} entries", i, 1)
            break
        rows.append(row)
    return FuzzyRelation._on_carrier_of(tuple(labels), _grid(rows, _json_cells, 1, 1, pending))


def parse_matrix(text: str, fmt: str | None = None) -> FuzzyRelation:
    """Parse a CSV or JSON matrix document into a relation.

    With ``fmt=None`` the format is detected from the text.  A leading UTF-8
    byte order mark is ignored.  Raises :class:`ParseError` with a position
    for malformed documents: the document's first error, taking the header
    (CSV) or the document's shape and labels (JSON) first, then the number
    of rows, then the rows in row-major order.  A document with the wrong
    number of rows reports that before any grade.
    """
    text = text.removeprefix(_BOM)
    fmt = fmt or detect_format(text)
    if fmt == "csv":
        return _parse_csv(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _cells(grid: np.ndarray) -> np.ndarray:
    # Grades as Python numbers whose repr is their text: the shortest decimal
    # that parses back to the same float, or an int for the only integral
    # grades in [0, 1], 0 and 1 (so -0.0 is written as 0).
    cells = grid.astype(object)
    cells[grid == 0.0] = 0
    cells[grid == 1.0] = 1
    return cells


def emit_matrix(r: FuzzyRelation, fmt: str = "csv") -> str:
    """Serialize a relation; the output parses back bit-identically."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["", *r.labels])
        # csv writes a float as its repr
        writer.writerows([label, *row] for label, row in zip(r.labels, _cells(r.grid).tolist()))
        return out.getvalue()
    if fmt == "json":
        doc = {"elements": list(r.labels), "matrix": _cells(r.grid).tolist()}
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
