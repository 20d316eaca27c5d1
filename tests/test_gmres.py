"""Solver tests: plain GMRES invariants, then the BA outer loop checked
against an explicit preconditioner-matrix oracle."""

import warnings

import numpy as np
import pytest

from krybound import dd
from krybound.errors import (DimensionMismatchError, InvalidMatrixError,
                             NumericalFailureError)
from krybound.gmres import (ConvergenceTrace, GmresOptions, OperatorHandle,
                            ba_gmres, gmres, matrix_operator)
from krybound.linalg import lstsq, seeded_rng
from krybound.nrsor import (explicit_splitting, nrsor_apply, nrsor_ba_gmres,
                            nrsor_config, preconditioned_matrix)


def _rand(shape, seed=0):
    return seeded_rng(1234 + seed).standard_normal(shape)


def _f(x):
    return float(dd.approx(x))


# ------------------------------------------------------------ plain GMRES

def test_identity_operator_converges_immediately():
    b = _rand(6, seed=1)
    trace = gmres(matrix_operator(np.eye(6)), b)
    assert trace.reason == "converged"
    assert trace.iterations == 1
    assert _f(trace.rows[-1].residual_norm) <= 1e-14
    assert np.allclose(dd.approx(trace.x), b)


def test_zero_rhs_returns_k0():
    trace = gmres(matrix_operator(np.eye(4)), np.zeros(4))
    assert trace.iterations == 0
    assert trace.reason == "converged"
    assert len(trace.rows) == 1


def test_gmres_solves_random_square():
    a = _rand((9, 9), seed=2) + 6 * np.eye(9)
    x_true = _rand(9, seed=3)
    b = a @ x_true
    trace = gmres(matrix_operator(a), b, opts=GmresOptions(rtol=1e-13,
                                                           max_iterations=40))
    assert trace.reason == "converged"
    assert np.allclose(dd.approx(trace.x), x_true, atol=1e-9)
    # recomputed residual agrees with the trace row
    rn = np.linalg.norm(b - a @ dd.approx(trace.x))
    assert abs(rn - _f(trace.rows[-1].residual_norm)) <= 1e-12


def test_krylov_grade_five_distinct_eigenvalues_extended():
    # operator with exactly 5 distinct eigenvalues: minimal polynomial
    # degree 5, so the residual collapses at k=5 and not before
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0])
    a = dd.asdd(np.diag(vals))
    b = dd.asdd(seeded_rng(7).uniform(0.5, 1.5, size=8))
    trace = gmres(matrix_operator(a), b,
                  opts=GmresOptions(rtol=1e-28, max_iterations=8))
    norms = [_f(r.residual_norm) for r in trace.rows]
    assert norms[4] > 1e-6           # not converged at k=4
    assert norms[5] <= 1e-25         # grade reached at k=5
    assert trace.iterations == 5


def test_minimized_estimate_monotone_and_consistent():
    a = _rand((12, 12), seed=4) + 4 * np.eye(12)
    b = _rand(12, seed=5)
    trace = gmres(matrix_operator(a), b,
                  opts=GmresOptions(rtol=1e-12, max_iterations=12,
                                    reorthogonalize=True))
    est = [_f(r.minimized_estimate) for r in trace.rows]
    for e0, e1 in zip(est, est[1:]):
        assert e1 <= e0 * (1 + 1e-12)
    for row in trace.rows:
        rec = _f(row.preconditioned_residual_norm)
        giv = _f(row.minimized_estimate)
        if rec > 1e-10 * est[0]:      # above the precision floor
            assert abs(rec - giv) <= 1e-8 * max(rec, 1e-300)


def test_arnoldi_orthogonality_with_reorthogonalization():
    a = _rand((14, 14), seed=6)
    b = _rand(14, seed=7)
    trace = gmres(matrix_operator(a), b,
                  opts=GmresOptions(rtol=1e-15, max_iterations=14,
                                    reorthogonalize=True))
    basis = trace.extras["basis"]
    v = np.stack([dd.approx(u) for u in basis], axis=1)
    g = v.T @ v - np.eye(v.shape[1])
    assert np.abs(g).max() <= 1e-12


def test_krylov_optimality_probe():
    a = _rand((10, 10), seed=8) + 3 * np.eye(10)
    b = _rand(10, seed=9)
    trace = gmres(matrix_operator(a), b,
                  opts=GmresOptions(rtol=1e-13, max_iterations=6))
    basis = trace.extras["basis"]
    k = trace.iterations
    v = np.stack([dd.approx(u) for u in basis[:k]], axis=1)
    rng = seeded_rng(11)
    r_star = _f(trace.rows[k].residual_norm)
    for _ in range(50):
        y = rng.standard_normal(k)
        cand = np.linalg.norm(b - a @ (v @ y))
        assert r_star <= cand + 1e-12


def test_max_iterations_reason():
    a = _rand((10, 10), seed=10)
    b = _rand(10, seed=11)
    trace = gmres(matrix_operator(a), b,
                  opts=GmresOptions(rtol=1e-14, max_iterations=3))
    assert trace.reason == "max_iterations"
    assert trace.iterations == 3
    assert len(trace.rows) == 4


def test_nan_guard_raises_named_iteration():
    def bad_apply(v):
        out = np.array(v, copy=True)
        out[0] = np.nan
        return out
    op = OperatorHandle(apply=bad_apply, dims=(4, 4))
    with pytest.raises(NumericalFailureError):
        gmres(op, np.ones(4))


def test_complex_input_rejected_by_name():
    a = _rand((5, 5), seed=30) + 1j * _rand((5, 5), seed=31)
    b = _rand(5, seed=32)
    calls = [lambda: gmres(matrix_operator(a), b),
             lambda: gmres(matrix_operator(a.real), b + 0j),
             lambda: gmres(matrix_operator(dd.ascdd(a)), dd.asdd(b)),
             lambda: ba_gmres(a, lambda u: u, b),
             lambda: ba_gmres(dd.asdd(a.real), lambda u: u, dd.ascdd(b))]
    for call in calls:
        # a ComplexWarning on the way would mean the input got that far
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatchError, match="complex input"):
                call()


def test_options_validation():
    with pytest.raises(ValueError):
        GmresOptions(rtol=1.5).validate()
    with pytest.raises(ValueError):
        GmresOptions(max_iterations=0).validate()


# ------------------------------------------------------------- BA-GMRES

def test_ba_with_transpose_on_orthonormal_columns():
    q = np.linalg.qr(_rand((8, 3), seed=12))[0]
    x_true = _rand(3, seed=13)
    b = q @ x_true
    trace = ba_gmres(q, lambda u: q.T @ u, b)
    assert trace.iterations == 1
    assert trace.reason == "converged"
    assert np.allclose(dd.approx(trace.x), x_true, atol=1e-12)


def test_ba_converges_to_least_squares_solution():
    a = _rand((12, 5), seed=14)
    b = _rand(12, seed=15)
    cfg = nrsor_config(a, omega=1.2, inner_steps=3)
    trace = nrsor_ba_gmres(a, cfg, b,
                           opts=GmresOptions(rtol=1e-12, max_iterations=20,
                                             stop_on_normal_residual=True))
    assert trace.reason == "converged"
    want = lstsq(a, b).x
    assert np.allclose(dd.approx(trace.x), dd.approx(want), atol=1e-9)
    # normal residual actually small
    r = b - a @ dd.approx(trace.x)
    assert np.linalg.norm(a.T @ r) <= 1e-10 * np.linalg.norm(a.T @ b)


def test_ba_trace_matches_explicit_preconditioner_matrix():
    a = _rand((8, 4), seed=16)
    cfg = nrsor_config(a, omega=1.0, inner_steps=3)
    b = _rand(8, seed=17)
    split = explicit_splitting(a, omega=1.0)
    # P^(l) A^T assembled densely: sum_{i<l} H^i M^{-1} A^T
    minv_at = _lower_solve(split.m, a.T)
    pm = minv_at.copy()
    term = minv_at
    for _ in range(cfg.inner_steps - 1):
        term = split.h @ term
        pm = pm + term
    t1 = nrsor_ba_gmres(a, cfg, b, opts=GmresOptions(max_iterations=4))
    t2 = ba_gmres(a, lambda u: pm @ u, b, opts=GmresOptions(max_iterations=4))
    for r1, r2 in zip(t1.rows, t2.rows):
        for name in ("residual_norm", "preconditioned_residual_norm",
                     "normal_residual_norm"):
            v1, v2 = _f(getattr(r1, name)), _f(getattr(r2, name))
            scale0 = _f(getattr(t1.rows[0], name))
            # relative agreement until roundoff in the recomputed
            # residual itself dominates (diffs are O(eps * scale0))
            assert abs(v1 - v2) <= 1e-10 * abs(v1) + 1e-13 * scale0


def _lower_solve(lo, rhs):
    n = lo.shape[0]
    x = rhs.copy()
    for k in range(n):
        if k > 0:
            x[k, :] = x[k, :] - lo[k, :k] @ x[:k, :]
        x[k, :] = x[k, :] / lo[k, k]
    return x


def test_ba_column_reordering_same_solution():
    a = _rand((10, 4), seed=18)
    b = _rand(10, seed=19)
    perm = np.array([2, 0, 3, 1])
    opts = GmresOptions(rtol=1e-11, max_iterations=16,
                        stop_on_normal_residual=True)
    t1 = nrsor_ba_gmres(a, nrsor_config(a, 1.0, 2), b, opts=opts)
    ap = a[:, perm]
    t2 = nrsor_ba_gmres(ap, nrsor_config(ap, 1.0, 2), b, opts=opts)
    scale = np.linalg.norm(a.T @ b)
    for t in (t1, t2):
        assert t.reason == "converged"
        r = b - (a if t is t1 else ap) @ dd.approx(t.x)
        assert np.linalg.norm((a if t is t1 else ap).T @ r) <= 1e-10 * scale


# --------------------------------------------------------------- NR-SOR

def test_sweep_orthonormal_columns_is_exact_transpose():
    q = np.linalg.qr(_rand((9, 4), seed=20))[0]
    cfg = nrsor_config(q, omega=1.0, inner_steps=1)
    u = _rand(9, seed=21)
    w = nrsor_apply(q, cfg, u)
    assert np.allclose(w, q.T @ u, atol=1e-14)
    h = explicit_splitting(q, omega=1.0).h
    assert np.abs(h).max() <= 1e-14


def test_sweep_matches_splitting_matrix_oracle():
    a = _rand((8, 4), seed=22)
    u = _rand(8, seed=23)
    for omega in (0.7, 1.0, 1.4):
        split = explicit_splitting(a, omega)
        minv_at_u = _lower_solve(split.m, a.T @ u.reshape(8, 1))[:, 0]
        acc = minv_at_u.copy()
        term = minv_at_u
        for steps in range(1, 5):
            cfg = nrsor_config(a, omega, steps)
            w = nrsor_apply(a, cfg, u)
            assert np.allclose(w, acc, rtol=1e-12, atol=1e-13), \
                f"omega={omega} l={steps}"
            term = split.h @ term
            acc = acc + term


def test_sweep_zero_input_gives_zero():
    a = _rand((6, 3), seed=24)
    cfg = nrsor_config(a, 1.3, 4)
    w = nrsor_apply(a, cfg, np.zeros(6))
    assert np.allclose(w, 0.0)


def test_sweep_extended_precision_consistency():
    a0 = _rand((7, 3), seed=25)
    u0 = _rand(7, seed=26)
    w64 = nrsor_apply(a0, nrsor_config(a0, 1.1, 2), u0)
    add = dd.asdd(a0)
    wdd = nrsor_apply(add, nrsor_config(add, 1.1, 2), dd.asdd(u0))
    assert np.allclose(dd.approx(wdd), w64, atol=1e-12)


def test_zero_column_rejected_with_indices():
    a = _rand((5, 4), seed=27)
    a[:, 2] = 0.0
    with pytest.raises(InvalidMatrixError, match="2"):
        nrsor_config(a)
    with pytest.raises(InvalidMatrixError, match="2"):
        explicit_splitting(a)


def test_config_validation():
    a = _rand((5, 3), seed=28)
    with pytest.raises(ValueError):
        nrsor_config(a, omega=2.0)
    with pytest.raises(ValueError):
        nrsor_config(a, omega=1.0, inner_steps=0)


def test_splitting_difference_is_normal_matrix():
    a = _rand((9, 5), seed=29)
    for omega in (0.5, 1.0, 1.7):
        s = explicit_splitting(a, omega)
        diff = s.m - s.n
        assert np.allclose(diff, a.T @ a, rtol=0, atol=1e-13)
    add = dd.asdd(a)
    s = explicit_splitting(add, 1.1)
    err = dd.norm2((s.m - s.n - add.T @ add).reshape(25))
    assert _f(err) <= 1e-29


def test_preconditioned_matrix_power_decay_and_eigvectors():
    a = _rand((8, 4), seed=30)
    split = explicit_splitting(a, 1.0)
    h = split.h
    h8 = _mat_pow(h, 8)
    h32 = _mat_pow(h, 32)
    assert np.linalg.norm(h32) < np.linalg.norm(h8)
    # I - H^l shares eigenvectors across l: verify via the eig of H
    from krybound.linalg import eig_nonsymmetric
    eo = eig_nonsymmetric(h)
    for steps in (1, 4, 8):
        pm = preconditioned_matrix(a, 1.0, steps)
        lam = dd.approx(eo.values)
        target = 1.0 - lam ** steps
        for j in range(4):
            v = eo.vectors[:, j]
            res = np.linalg.norm(pm @ v - target[j] * v)
            assert res <= 1e-10


def _mat_pow(h, k):
    out = np.eye(h.shape[0])
    for _ in range(k):
        out = out @ h
    return out


def test_preconditioned_matrix_identity_for_orthonormal():
    q = np.linalg.qr(_rand((7, 3), seed=31))[0]
    pm = preconditioned_matrix(q, 1.0, 1)
    assert np.allclose(pm, np.eye(3), atol=1e-13)


def test_spectral_radius_below_one_full_rank():
    a = _rand((10, 5), seed=32)
    for omega in (0.4, 1.0, 1.9):
        h = explicit_splitting(a, omega).h
        rho = np.abs(np.linalg.eigvals(h)).max()
        assert rho < 1.0, f"omega={omega} rho={rho}"
