"""Trace document serialization: round-trips, fixed digit widths, byte
determinism, parse failures with line numbers."""

import json
import re

import numpy as np
import pytest

from krybound import dd
from krybound.errors import ParseError
from krybound.gmres import TraceRow
from krybound.traceio import (COLUMNS, SCHEMA, TraceDocument, TraceRecord,
                              attach_column, read_csv, read_json,
                              records_from_solver, write_csv, write_json)


def _f64_doc():
    recs = [
        TraceRecord(k=0, residual_norm=1.0, preconditioned_residual_norm=0.5,
                    normal_residual_norm=0.25),
        TraceRecord(k=1, residual_norm=0.125, bound_theorem1=0.5,
                    estimate_first_order=3.0e-7),
        TraceRecord(k=2, residual_norm=2.2250738585072014e-308,
                    bound_cluster=0.1),
    ]
    return TraceDocument(metadata={"precision": "f64", "solver": "gmres",
                                   "seed": "0"}, records=recs)


def _extended_doc():
    tiny = dd.from_str("1.00000000000000000000000000001e-05")
    recs = [
        TraceRecord(k=0, residual_norm=dd.asdd(np.float64(1.0))),
        TraceRecord(k=1, residual_norm=tiny, bound_theorem1=tiny * 4.0),
    ]
    return TraceDocument(metadata={"precision": "extended"}, records=recs)


# ------------------------------------------------------------- round trip

def test_csv_round_trip_f64(tmp_path):
    doc = _f64_doc()
    path = str(tmp_path / "t.csv")
    write_csv(path, doc)
    assert read_csv(path) == doc


def test_csv_round_trip_extended(tmp_path):
    doc = _extended_doc()
    path = str(tmp_path / "t.csv")
    write_csv(path, doc)
    back = read_csv(path)
    assert back == doc
    assert dd.is_extended(back.records[0].residual_norm)


def test_csv_round_trip_survives_gap_bits(tmp_path):
    # lo far below ulp(hi): equality is defined at 34-digit resolution
    x = dd.DD(np.float64(1.0), np.float64(1e-25))
    doc = TraceDocument(metadata={"precision": "extended"},
                        records=[TraceRecord(k=0, residual_norm=x)])
    path = str(tmp_path / "t.csv")
    write_csv(path, doc)
    assert read_csv(path) == doc


def test_json_round_trip_both_precisions(tmp_path):
    for doc in (_f64_doc(), _extended_doc()):
        path = str(tmp_path / "t.json")
        write_json(path, doc)
        assert read_json(path) == doc


# ------------------------------------------------------------ file layout

def test_csv_layout_and_digit_widths(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, _f64_doc())
    lines = open(path).read().splitlines()
    assert lines[0] == f"# schema: {SCHEMA}"
    assert lines[1] == "# precision: f64"
    assert lines[4] == ",".join(COLUMNS)
    first = lines[5].split(",")
    assert first[0] == "0"
    # 17 significant digits: d.dddddddddddddddde+dd
    assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2}", first[1])
    assert first[4] == ""           # absent bound stays empty

    write_csv(path, _extended_doc())
    row = open(path).read().splitlines()[3].split(",")
    assert re.fullmatch(r"-?\d\.\d{33}e[+-]\d{2,3}", row[1])


def test_csv_bytes_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_csv(p1, _f64_doc())
    write_csv(p2, _f64_doc())
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_json_mirror_shape(tmp_path):
    path = str(tmp_path / "t.json")
    write_json(path, _extended_doc())
    payload = json.load(open(path))
    assert payload["schema"] == SCHEMA
    assert payload["columns"] == list(COLUMNS)
    row = payload["rows"][1]
    assert isinstance(row["k"], int)
    # extended values serialize as 34-digit strings, absent ones as null
    assert isinstance(row["residual_norm"], str)
    assert row["normal_residual_norm"] is None


# --------------------------------------------------------------- assembly

def test_records_from_solver_and_attach():
    rows = [TraceRow(0, 1.0, 1.0, 0.5, 1.0), TraceRow(1, 0.1, 0.1, 0.05, 0.1)]
    recs = records_from_solver(rows)
    assert [r.k for r in recs] == [0, 1]
    assert recs[1].residual_norm == 0.1
    assert recs[0].bound_theorem1 is None
    attach_column(recs, "bound_theorem1", {1: 0.2})
    assert recs[0].bound_theorem1 is None
    assert recs[1].bound_theorem1 == 0.2
    with pytest.raises(ValueError, match="unknown trace column"):
        attach_column(recs, "wall_time", {0: 1.0})


def test_non_finite_values_refused(tmp_path):
    doc = TraceDocument(metadata={"precision": "f64"},
                        records=[TraceRecord(k=0, residual_norm=float("nan"))])
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(str(tmp_path / "t.csv"), doc)


# ----------------------------------------------------------- parse errors

def _write(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    return str(p)


def test_csv_rejects_unknown_schema(tmp_path):
    path = _write(tmp_path, "# schema: other-v9\n" + ",".join(COLUMNS) + "\n")
    with pytest.raises(ParseError, match="schema") as err:
        read_csv(path)
    assert "line 1:" in str(err.value)


def test_csv_rejects_wrong_header(tmp_path):
    path = _write(tmp_path, "# schema: krybound-trace-v1\nk,residual\n")
    with pytest.raises(ParseError, match="column header") as err:
        read_csv(path)
    assert "line 2:" in str(err.value)


def test_csv_rejects_short_row(tmp_path):
    path = _write(tmp_path, f"# schema: {SCHEMA}\n" + ",".join(COLUMNS)
                  + "\n0,1.0\n")
    with pytest.raises(ParseError, match="fields") as err:
        read_csv(path)
    assert "line 3:" in str(err.value)


def test_csv_rejects_bad_number(tmp_path):
    row = "0,xyz" + "," * (len(COLUMNS) - 2)
    path = _write(tmp_path, f"# schema: {SCHEMA}\n" + ",".join(COLUMNS)
                  + "\n" + row + "\n")
    with pytest.raises(ParseError, match="numeric") as err:
        read_csv(path)
    assert "line 3:" in str(err.value)


def _json_with_row(tmp_path, row):
    path = tmp_path / "t.json"
    write_json(str(path), _extended_doc())
    payload = json.loads(path.read_text())
    payload["rows"].append(row)
    path.write_text(json.dumps(payload))
    return str(path), len(payload["rows"]) - 1


@pytest.mark.parametrize("row,message", [
    ({"k": 9, "residual_norm": "xyz"}, "numeric"),
    ({"k": 9, "residual_norm": 0.5}, "numeric"),
    ({"residual_norm": "1e-3"}, "'k'"),
    ({"k": "9"}, "iteration index"),
    ({"k": 9, "residual": "1e-3"}, "unknown columns"),
    ([9, "1e-3"], "object"),
])
def test_json_rejects_bad_rows(tmp_path, row, message):
    # as the CSV reader does: a bad number, a row without k and a column
    # the schema does not have are errors, not dropped or passed through
    path, i = _json_with_row(tmp_path, row)
    with pytest.raises(ParseError, match=message) as err:
        read_json(path)
    assert str(err.value).startswith(f"row {i}: ")


def test_json_rejects_malformed_file(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"schema": "krybound-trace-v1",\n "rows": [}\n')
    with pytest.raises(ParseError) as err:
        read_json(str(path))
    assert err.value.line == 2
