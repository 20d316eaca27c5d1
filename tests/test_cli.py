"""Command-line entry points: exit codes, file outputs, byte determinism,
and the reproduce targets' pass/fail contract."""

import json

import numpy as np
import pytest

from krybound import cli, dd
from krybound.cli import main
from krybound.generators import load_matrix_market, write_matrix_market
from krybound.nrsor import nrsor_config
from krybound.traceio import read_csv, read_json, write_csv


def run(argv):
    return main(list(argv))


# ------------------------------------------------------------------- gen

def test_gen_writes_matrix_and_rhs(tmp_path, capsys):
    out = tmp_path / "stair.mtx"
    assert run(["gen", "--gen", "stair", "--out", str(out)]) == 0
    assert out.exists()
    rhs = tmp_path / "stair.rhs.mtx"
    assert rhs.exists()
    inst = load_matrix_market(str(out), rhs_path=str(rhs))
    assert inst.a.shape == (100, 20)
    assert inst.b.shape == (100,)
    assert "stair" in capsys.readouterr().out


def test_gen_exp_decay_size_argument(tmp_path):
    out = tmp_path / "e.mtx"
    assert run(["gen", "--gen", "exp-decay:7", "--out", str(out)]) == 0
    assert load_matrix_market(str(out)).a.shape == (7, 7)


def test_solve_mtx_reads_the_rhs_gen_wrote(tmp_path):
    # gen then solve --mtx runs the problem that solve --gen runs; with
    # the rhs file gone, the row sums stand in.  In extended precision
    # the records match bit for bit; binary64 sums depend on the memory
    # order of the matrix, which the reader gives column-major
    mtx = tmp_path / "s.mtx"
    assert run(["gen", "--gen", "stair", "--out", str(mtx)]) == 0
    args = ["--solver", "ba-gmres", "-l", "4", "--precision", "extended"]
    paths = [tmp_path / f"{name}.csv" for name in ("gen", "mtx", "sums")]
    codes = [run(["solve", "--gen", "stair", *args, "--out", str(paths[0])]),
             run(["solve", "--mtx", str(mtx), *args, "--out", str(paths[1])])]
    (tmp_path / "s.rhs.mtx").unlink()
    run(["solve", "--mtx", str(mtx), *args, "--out", str(paths[2])])
    assert codes[0] == codes[1]
    want, got, sums = (read_csv(str(p)).records for p in paths)
    assert got == want
    assert sums[0] != want[0]


# ----------------------------------------------------------------- solve

def test_solve_identity_trace_rows(tmp_path):
    mtx = tmp_path / "eye.mtx"
    write_matrix_market(str(mtx), np.eye(4))
    out = tmp_path / "t.csv"
    assert run(["solve", "--mtx", str(mtx), "--solver", "gmres",
                "--out", str(out)]) == 0
    doc = read_csv(str(out))
    ks = [r.k for r in doc.records]
    assert ks == [0, 1]
    # rhs defaults to row sums, so x = b and one step finishes the job
    assert float(doc.records[0].residual_norm) == pytest.approx(2.0)
    assert float(doc.records[1].residual_norm) < 1e-12
    assert doc.metadata["reason"] == "converged"


def test_solve_is_byte_deterministic(tmp_path):
    args = ["solve", "--gen", "stair", "--solver", "ba-gmres",
            "--omega", "1.0", "-l", "4"]
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a_path)]) == 0
    assert run(args + ["--out", str(b_path)]) == 0
    assert a_path.read_bytes() == b_path.read_bytes()


def test_solve_extended_stair_reaches_deep_residual(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["solve", "--gen", "stair", "--solver", "ba-gmres",
                "--omega", "1.0", "-l", "8", "--precision", "extended",
                "--out", str(out)]) == 0
    doc = read_csv(str(out))
    assert doc.extended
    by_k = {r.k: r for r in doc.records}
    assert float(by_k[6].preconditioned_residual_norm) <= 1e-24


def test_solve_csv_round_trips_byte_identically(tmp_path):
    out = tmp_path / "t.csv"
    run(["solve", "--gen", "exp-decay:12", "--solver", "gmres",
         "--out", str(out)])
    doc = read_csv(str(out))
    again = tmp_path / "again.csv"
    write_csv(str(again), doc)
    assert out.read_bytes() == again.read_bytes()


def test_solve_json_mirrors_csv(tmp_path):
    base = ["solve", "--gen", "exp-decay:12", "--solver", "gmres"]
    c_path, j_path = tmp_path / "t.csv", tmp_path / "t.json"
    run(base + ["--out", str(c_path)])
    run(base + ["--format", "json", "--out", str(j_path)])
    cdoc, jdoc = read_csv(str(c_path)), read_json(str(j_path))
    assert [r.k for r in cdoc.records] == [r.k for r in jdoc.records]
    assert cdoc.column("residual_norm") == jdoc.column("residual_norm")
    raw = json.loads(j_path.read_text())
    assert raw["schema"] == "krybound-trace-v1"


def test_solve_exit_two_on_max_iterations(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run(["solve", "--gen", "stair", "--solver", "ba-gmres",
                "--maxit", "2", "--out", str(out)])
    assert code == 2
    assert out.exists()
    assert "max_iterations" in capsys.readouterr().out


def test_solve_gmres_rejects_rectangular(tmp_path, capsys):
    code = run(["solve", "--gen", "stair", "--solver", "gmres",
                "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert "ba-gmres" in capsys.readouterr().err


def test_unknown_generator_is_an_error(tmp_path, capsys):
    code = run(["solve", "--gen", "nosuch", "--out", str(tmp_path / "t")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_matrix_file_is_an_error(tmp_path, capsys):
    code = run(["solve", "--mtx", str(tmp_path / "absent.mtx"),
                "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert "absent.mtx" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--gen", "stair", "--precision", "bogus"],
    ["solve", "--gen", "stair", "--no-such-option"],
    ["nosuchverb"],
    [],
])
def test_usage_errors_exit_one(argv, capsys):
    # 2 is reserved for "stopped at the iteration cap"
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: krybound")


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert "usage: krybound" in capsys.readouterr().out


# ----------------------------------------------------------------- bound

def test_bound_theorem1_column_dominates_residual(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["bound", "--gen", "greenbaum", "--solver", "gmres",
                "--out", str(out)]) == 0
    doc = read_csv(str(out))
    seen = 0
    for r in doc.records:
        if r.bound_theorem1 is None or r.k == 0:
            continue
        assert float(r.bound_theorem1) >= float(r.residual_norm) - 1e-12
        seen += 1
    assert seen >= 2
    assert doc.metadata["bound_mode"] == "theorem1"


@pytest.mark.parametrize("mode,extra", [
    ("cluster", ["--cluster-eps", "0.05"]),
    ("first-order", ["--centers", "1"]),
])
def test_bound_other_modes_produce_columns(tmp_path, mode, extra):
    out = tmp_path / "b.csv"
    assert run(["bound", "--gen", "greenbaum", "--solver", "gmres",
                "--bound-mode", mode, "--out", str(out)] + extra) == 0
    doc = read_csv(str(out))
    name = ("bound_cluster" if mode == "cluster"
            else "estimate_first_order")
    assert any(getattr(r, name) is not None for r in doc.records)


@pytest.mark.parametrize("extra", [["--centers", "2"],
                                   ["--cluster-eps", "1e-3"]])
def test_bound_multi_center_first_order_column_starts_at_s(tmp_path, capsys,
                                                           extra):
    out = tmp_path / "b.csv"
    assert run(["bound", "--gen", "stair", "-l", "8", "--bound-mode",
                "first-order", "--out", str(out)] + extra) == 0
    s = int(capsys.readouterr().out.split("centers ")[1].split(",")[0])
    assert s > 1
    rows = read_csv(str(out)).records
    assert len(rows) > s
    for r in rows:
        assert (r.estimate_first_order is not None) == (r.k >= s)


def test_bound_builds_the_nrsor_config_once(tmp_path, monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return nrsor_config(*args, **kwargs)

    monkeypatch.setattr(cli, "nrsor_config", counting)
    assert run(["bound", "--gen", "stair", "--out",
                str(tmp_path / "b.csv")]) == 0
    assert len(built) == 1


def test_bound_extended_stair_dominates_preconditioned_residual(tmp_path):
    # the l=3 operator has distinct eigenvalues that share a binary64 image
    out = tmp_path / "b.csv"
    assert run(["bound", "--gen", "stair", "-l", "3", "--precision",
                "extended", "--out", str(out)]) == 0
    doc = read_csv(str(out))
    assert doc.metadata["retained_eigenpairs"] == "10"
    rows = [r for r in doc.records if r.k > 0]
    assert len(rows) == 9
    for r in rows:
        assert dd.approx(r.bound_theorem1) >= \
            dd.approx(r.preconditioned_residual_norm)


def test_bound_extended_cap_names_the_limit(tmp_path, capsys):
    code = run(["bound", "--gen", "exp-decay:300", "--solver", "gmres",
                "--precision", "extended",
                "--out", str(tmp_path / "b.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "256" in err and "cap" in err


def test_bound_cap_message_names_the_ways_out(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "b.csv")
    assert run(["bound", "--gen", "exp-decay:300", "--solver", "gmres",
                "--precision", "extended", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "extended eigensolver cap (256)" in err
    assert "a smaller n, or --precision f64 (cap 1200)" in err
    assert "budget" not in err
    monkeypatch.setitem(cli.EIG_CAP, "f64", 5)
    assert run(["bound", "--gen", "exp-decay:7", "--solver", "gmres",
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert "f64 eigensolver cap (5); rerun with a smaller n" in err
    assert "--precision" not in err


# ------------------------------------------------------------- reproduce

def test_reproduce_greenbaum_passes(capsys):
    assert run(["reproduce", "greenbaum"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("extra", [["--precision", "extended"],
                                   ["--gen", "nonsense:3"]])
def test_reproduce_takes_only_its_target(extra, capsys):
    assert run(["reproduce", "greenbaum"] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and extra[0] in err


def test_reproduce_maragal_skips_without_data(capsys, monkeypatch):
    monkeypatch.delenv("KRYBOUND_DATA_DIR", raising=False)
    assert run(["reproduce", "maragal"]) == 0
    assert "SKIPPED" in capsys.readouterr().out
