"""Command-line entry points: exit codes, file outputs, byte determinism,
and the reproduce targets' pass/fail contract."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from krybound import bounds, cli, dd
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
    # gen then solve --mtx runs the problem that solve --gen runs, and
    # the records match bit for bit in both precisions: binary64 sums
    # depend on the memory order of the matrix, and the reader gives it
    # row-major, as the generator does.  With the rhs file gone, the
    # row sums stand in
    for precision in ("f64", "extended"):
        work = tmp_path / precision
        work.mkdir()
        mtx = work / "s.mtx"
        assert run(["gen", "--gen", "stair", "--out", str(mtx)]) == 0
        args = ["--solver", "ba-gmres", "-l", "4", "--precision", precision]
        paths = [work / f"{name}.csv" for name in ("gen", "mtx", "sums")]
        codes = [
            run(["solve", "--gen", "stair", *args, "--out", str(paths[0])]),
            run(["solve", "--mtx", str(mtx), *args, "--out", str(paths[1])])]
        (work / "s.rhs.mtx").unlink()
        run(["solve", "--mtx", str(mtx), *args, "--out", str(paths[2])])
        assert codes[0] == codes[1]
        want, got, sums = (read_csv(str(p)).records for p in paths)
        assert got == want, precision
        assert sums[0] != want[0]


def _sparse_matrix(shape, seed=0):
    # a nonzero on every column (the diagonal, when square) and about
    # 1% more entries: the kind of input extended runs hold as nonzeros
    m, n = shape
    rng = np.random.default_rng(seed)
    a = np.zeros(shape)
    a[np.arange(n) % m, np.arange(n)] = 1.0 + rng.random(n)
    extra = m * n // 100
    a[rng.integers(0, m, extra), rng.integers(0, n, extra)] = \
        0.3 * rng.standard_normal(extra)
    return a


def _dense_dd(triples):
    # what extended runs on a file's matrix held before the sparse form:
    # the dense DD array
    return dd.asdd(triples.toarray())


@pytest.mark.parametrize("verb,solver,shape", [
    ("solve", "ba-gmres", (100, 200)), ("bound", "ba-gmres", (40, 40)),
    ("solve", "gmres", (40, 40)), ("bound", "gmres", (40, 40))])
def test_extended_sparse_mtx_keeps_the_dense_trace(tmp_path, monkeypatch,
                                                   verb, solver, shape):
    mtx = tmp_path / "w.mtx"
    write_matrix_market(str(mtx), _sparse_matrix(shape))
    args = [verb, "--mtx", str(mtx), "--solver", solver, "-l", "2",
            "--precision", "extended", "--maxit", "6"]
    paths = [tmp_path / "sparse.csv", tmp_path / "dense.csv"]
    held, asmatrix = [], dd.asmatrix
    monkeypatch.setattr(dd, "asmatrix",
                        lambda a: held.append(asmatrix(a)) or held[-1])
    codes = [run(args + ["--out", str(paths[0])])]
    assert [type(a) for a in held] == [dd.SparseDD]
    monkeypatch.setattr(dd, "asmatrix", _dense_dd)
    codes.append(run(args + ["--out", str(paths[1])]))
    assert codes[0] == codes[1] == 2
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_extended_sparse_mtx_nan_rhs_is_the_dense_error(tmp_path, monkeypatch,
                                                        capsys):
    mtx = tmp_path / "w.mtx"
    write_matrix_market(str(mtx), _sparse_matrix((100, 200)))
    b = np.ones(100)
    b[7] = np.nan
    write_matrix_market(str(tmp_path / "w.rhs.mtx"), b)
    args = ["solve", "--mtx", str(mtx), "--precision", "extended",
            "--out", str(tmp_path / "t.csv")]
    got = run(args), capsys.readouterr().err
    monkeypatch.setattr(dd, "asmatrix", _dense_dd)
    want = run(args), capsys.readouterr().err
    assert got == want == (1, "error: non-finite initial residual\n")


def test_row_sum_rhs_is_the_same_under_any_blas_thread_count(tmp_path):
    # with no rhs file b is summed without BLAS: on a matrix whose BLAS
    # row sums differ between one and two threads, the extended traces
    # are the same bytes
    mtx = tmp_path / "w.mtx"
    write_matrix_market(str(mtx), _sparse_matrix((858, 1682)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "krybound.cli", "solve", "--mtx", str(mtx),
             "--precision", "extended", "--maxit", "4", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]


def test_extended_mtx_build_holds_no_dense_matrix(tmp_path):
    # the file's matrix goes from its lines to a SparseDD: the peak of the
    # whole build stays below one dense binary64 m x n array
    shape = (1000, 2000)
    mtx = tmp_path / "w.mtx"
    write_matrix_market(str(mtx), _sparse_matrix(shape))
    cfg = cli.ExperimentConfig("solve", mtx=str(mtx), precision="extended")
    tracemalloc.start()
    try:
        a, b, _ = cli._build_problem(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(a, dd.SparseDD) and b.shape == (shape[0],)
    assert peak < 8 * shape[0] * shape[1], peak


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


def test_matrix_without_columns_is_a_named_error(tmp_path, capsys):
    mtx = tmp_path / "empty.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n3 0 0\n")
    for precision in ("f64", "extended"):
        code = run(["solve", "--mtx", str(mtx), "--precision", precision,
                    "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: matrix has no columns\n"


def test_bound_on_an_empty_matrix_is_a_named_error(tmp_path, capsys):
    mtx = tmp_path / "Z.mtx"
    mtx.write_text("%%MatrixMarket matrix array real general\n0 0\n")
    for precision in ("f64", "extended"):
        code = run(["bound", "--mtx", str(mtx), "--solver", "gmres",
                    "--maxit", "1", "--precision", precision,
                    "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: eig_nonsymmetric needs a nonempty square matrix, got " \
            "(0, 0)\n"


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


def test_bound_cap_refuses_before_building_the_operator(tmp_path, capsys,
                                                      monkeypatch):
    # BA-GMRES's operator has the order of A's columns; the cap is
    # checked on it before any sweep builds the operator
    def refuse(*args):
        raise AssertionError("the operator was built")
    monkeypatch.setattr(bounds, "preconditioned_matrix", refuse)
    assert run(["bound", "--gen", "exp-decay:300", "--precision", "extended",
                "--out", str(tmp_path / "b.csv")]) == 1
    assert "operator size 300 exceeds the extended eigensolver cap (256)" \
        in capsys.readouterr().err


def test_bound_gmres_on_a_rectangular_matrix_names_ba_gmres(tmp_path,
                                                            capsys):
    # the solver runs, and refuses, before the eigen data are formed
    assert run(["bound", "--gen", "stair", "--solver", "gmres",
                "--out", str(tmp_path / "b.csv")]) == 1
    err = capsys.readouterr().err
    assert "gmres needs a square matrix, got (100, 20); use ba-gmres" in err


@pytest.mark.parametrize("eps", ["-1", "nan"])
def test_bound_rejects_a_negative_or_nan_cluster_eps(tmp_path, capsys, eps):
    assert run(["bound", "--gen", "greenbaum", "--bound-mode", "cluster",
                "--cluster-eps", eps, "--out", str(tmp_path / "b.csv")]) == 1
    assert "--cluster-eps must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_bound_cluster_eps_zero_is_valid(tmp_path):
    assert run(["bound", "--gen", "greenbaum", "--bound-mode", "cluster",
                "--cluster-eps", "0", "--out", str(tmp_path / "b.csv")]) == 0


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
