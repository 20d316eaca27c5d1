"""Trace serialization: CSV and JSON experiment-trace documents.

A document is '#'-prefixed metadata lines, a fixed column-header row,
then one record per iteration.  Floating values are scientific notation
with 17 (binary64) or 34 (extended) significant digits, chosen so files
round-trip bit-exactly; absent values stay empty.  Nothing is
time-stamped: same inputs, same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import dd
from .errors import ParseError

__all__ = [
    "SCHEMA", "COLUMNS", "TraceRecord", "TraceDocument",
    "records_from_solver", "attach_column",
    "write_csv", "read_csv", "write_json", "read_json",
]

SCHEMA = "krybound-trace-v1"
COLUMNS = ("k", "residual_norm", "preconditioned_residual_norm",
           "normal_residual_norm", "bound_theorem1", "bound_cluster",
           "estimate_first_order")
_VALUE_COLUMNS = COLUMNS[1:]


@dataclass(eq=False)
class TraceRecord:
    k: int
    residual_norm: object = None
    preconditioned_residual_norm: object = None
    normal_residual_norm: object = None
    bound_theorem1: object = None
    bound_cluster: object = None
    estimate_first_order: object = None

    def __eq__(self, other):
        if not isinstance(other, TraceRecord):
            return NotImplemented
        if self.k != other.k:
            return False
        return all(_value_equal(getattr(self, c), getattr(other, c))
                   for c in _VALUE_COLUMNS)


@dataclass
class TraceDocument:
    """metadata maps str -> str; records are one TraceRecord per k."""
    metadata: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    @property
    def extended(self):
        return self.metadata.get("precision") == "extended"

    def column(self, name):
        return [getattr(r, name) for r in self.records]


def _value_equal(a, b):
    # extended values compare at serialization resolution: a double-double
    # whose lo lies far below ulp(hi) carries more than 34 digits, which
    # no fixed-width decimal can round-trip bit-exactly
    if a is None or b is None:
        return a is None and b is None
    if dd.is_extended(a) or dd.is_extended(b):
        return dd.to_str(dd.asdd(a), 34) == dd.to_str(dd.asdd(b), 34)
    return float(a) == float(b)


def records_from_solver(rows):
    """Lift solver TraceRows; bound columns start empty."""
    return [TraceRecord(k=r.k,
                        residual_norm=r.residual_norm,
                        preconditioned_residual_norm=r.preconditioned_residual_norm,
                        normal_residual_norm=r.normal_residual_norm)
            for r in rows]


def attach_column(records, name, by_k):
    """Fill one bound/estimate column from a {k: value} map, in place."""
    if name not in _VALUE_COLUMNS:
        raise ValueError(f"unknown trace column '{name}'")
    for rec in records:
        if rec.k in by_k:
            setattr(rec, name, by_k[rec.k])
    return records


# ------------------------------------------------------------- formatting

def _format_value(x, extended):
    if x is None:
        return ""
    if extended:
        v = dd.asdd(x)
        if not math.isfinite(float(v.hi)):
            raise ValueError(f"non-finite trace value {x!r}")
        return dd.to_str(v, digits=34)
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"non-finite trace value {x!r}")
    return dd.format_float(v, digits=17)


def _parse_value(text, extended, line):
    if text == "":
        return None
    try:
        return dd.from_str(text) if extended else float(text)
    except (ValueError, ArithmeticError):
        raise ParseError(f"bad numeric field '{text}'", line=line)


# -------------------------------------------------------------------- csv

def write_csv(path, doc):
    lines = [f"# schema: {SCHEMA}"]
    for key, value in doc.metadata.items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join(COLUMNS))
    ext = doc.extended
    for rec in doc.records:
        cells = [str(int(rec.k))]
        cells += [_format_value(getattr(rec, c), ext) for c in _VALUE_COLUMNS]
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    metadata = {}
    header_line = None
    for no, text in enumerate(lines, start=1):
        if text.startswith("#"):
            body = text[1:].strip()
            if ": " in body:
                key, value = body.split(": ", 1)
                if key == "schema":
                    if value != SCHEMA:
                        raise ParseError(f"unknown schema '{value}'", line=no)
                else:
                    metadata[key] = value
            continue
        header_line = no
        break
    if header_line is None:
        raise ParseError("missing column header row", line=len(lines) or 1)
    if lines[header_line - 1] != ",".join(COLUMNS):
        raise ParseError(f"column header must be '{','.join(COLUMNS)}'",
                         line=header_line)
    doc = TraceDocument(metadata=metadata)
    ext = doc.extended
    for no in range(header_line + 1, len(lines) + 1):
        text = lines[no - 1]
        if not text:
            continue
        cells = text.split(",")
        if len(cells) != len(COLUMNS):
            raise ParseError(
                f"expected {len(COLUMNS)} fields, got {len(cells)}", line=no)
        try:
            k = int(cells[0])
        except ValueError:
            raise ParseError(f"bad iteration index '{cells[0]}'", line=no)
        rec = TraceRecord(k=k)
        for name, cell in zip(_VALUE_COLUMNS, cells[1:]):
            setattr(rec, name, _parse_value(cell, ext, no))
        doc.records.append(rec)
    return doc


# ------------------------------------------------------------------- json

def write_json(path, doc):
    ext = doc.extended
    rows = []
    for rec in doc.records:
        row = {"k": int(rec.k)}
        for c in _VALUE_COLUMNS:
            v = getattr(rec, c)
            row[c] = None if v is None else _format_value(v, ext)
        rows.append(row)
    payload = {"schema": SCHEMA,
               "metadata": dict(doc.metadata),
               "columns": list(COLUMNS),
               "rows": rows}
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    if payload.get("schema") != SCHEMA:
        raise ParseError(f"unknown schema '{payload.get('schema')}'")
    doc = TraceDocument(metadata=dict(payload.get("metadata", {})))
    ext = doc.extended
    for row in payload.get("rows", []):
        rec = TraceRecord(k=int(row["k"]))
        for c in _VALUE_COLUMNS:
            v = row.get(c)
            if v is not None:
                rec_v = dd.from_str(v) if ext else float(v)
                setattr(rec, c, rec_v)
        doc.records.append(rec)
    return doc
