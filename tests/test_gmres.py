"""Solver tests: plain GMRES invariants, then the BA outer loop checked
against an explicit preconditioner-matrix oracle."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from krybound import dd
from krybound.errors import (DimensionMismatchError, InvalidMatrixError,
                             NumericalFailureError)
from krybound.generators import exp_decay_matrix, stair_matrix
from krybound.gmres import (GmresOptions, OperatorHandle, ba_gmres, gmres,
                            matrix_operator)
from krybound.linalg import lstsq, seeded_rng
from krybound.nrsor import (nrsor_apply, nrsor_ba_gmres, nrsor_config,
                            preconditioned_matrix)


def _rand(shape, seed=0):
    return seeded_rng(1234 + seed).standard_normal(shape)


def _f(x):
    return float(dd.approx(x))


def _bits(x):
    if dd.is_extended(x):
        return np.asarray(x.hi).tobytes() + np.asarray(x.lo).tobytes()
    return np.asarray(x, dtype=np.float64).tobytes()


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
                  opts=GmresOptions(rtol=1e-12, max_iterations=12))
    est = [_f(r.minimized_estimate) for r in trace.rows]
    for e0, e1 in zip(est, est[1:]):
        assert e1 <= e0 * (1 + 1e-12)
    for row in trace.rows:
        rec = _f(row.preconditioned_residual_norm)
        giv = _f(row.minimized_estimate)
        if rec > 1e-10 * est[0]:      # above the precision floor
            assert abs(rec - giv) <= 1e-8 * max(rec, 1e-300)


def test_arnoldi_orthogonality_with_reorthogonalization():
    # the second Gram-Schmidt pass runs in both precisions; here it
    # keeps the extended basis orthogonal to its working precision
    a = dd.asdd(_rand((14, 14), seed=6))
    b = dd.asdd(_rand(14, seed=7))
    trace = gmres(matrix_operator(a), b,
                  opts=GmresOptions(rtol=1e-30, max_iterations=14))
    vt = trace.extras["basis"]
    g = dd.approx(vt @ vt.T) - np.eye(len(vt))
    assert np.abs(g).max() <= 1e-28


@pytest.mark.parametrize("kind,tol", [("f64", 1e-14), ("dd", 1e-28)])
def test_arnoldi_orthogonality_on_clustered_spectrum(kind, tol):
    # three clusters of width 1e-6 at 0.5, 1 and 2, and eigenvectors
    # with cond(V) = 183: a single modified Gram-Schmidt pass lost
    # orthogonality here in binary64 (||Q Q^T - I|| = 0.85, and 24
    # iterations where 9 reach the residual's floor)
    rng = seeded_rng(5)
    lam = np.concatenate([c + 1e-6 * (rng.random(20) - 0.5)
                          for c in (0.5, 1.0, 2.0)])
    v = rng.standard_normal((60, 60))
    a = v @ np.diag(lam) @ np.linalg.inv(v)
    b = rng.standard_normal(60)
    rtol = 1e-15
    if kind == "dd":
        a, b, rtol = dd.asdd(a), dd.asdd(b), 1e-28
    trace = gmres(matrix_operator(a), b,
                  opts=GmresOptions(rtol=rtol, max_iterations=60))
    assert trace.reason == "converged"
    q = trace.extras["basis"]
    g = dd.approx(q @ q.T) - np.eye(len(q))
    assert np.abs(g).max() <= tol


@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_arnoldi_makes_two_vdot_calls_per_iteration(kind, monkeypatch):
    # one batched inner product per Gram-Schmidt pass, against every
    # basis vector so far, whatever the iteration
    shapes = []
    vdot = dd.vdot

    def counted(u, v):
        shapes.append(u.shape)
        return vdot(u, v)

    monkeypatch.setattr(dd, "vdot", counted)
    a = _rand((8, 8), seed=14) + 3 * np.eye(8)
    b = _rand(8, seed=15)
    if kind == "dd":
        a, b = dd.asdd(a), dd.asdd(b)
    trace = gmres(matrix_operator(a), b,
                  opts=GmresOptions(rtol=1e-30, max_iterations=6))
    assert trace.iterations == 6
    assert shapes == [(j, 8) for j in range(1, 7) for _ in range(2)]


def test_krylov_optimality_probe():
    a = _rand((10, 10), seed=8) + 3 * np.eye(10)
    b = _rand(10, seed=9)
    trace = gmres(matrix_operator(a), b,
                  opts=GmresOptions(rtol=1e-13, max_iterations=6))
    k = trace.iterations
    v = trace.extras["basis"][:k].T
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


@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_breakdown_test_is_scale_invariant(kind):
    # six distinct eigenvalues need six steps at any scale of A; judged
    # against ||r0|| instead of ||A v_j||, A * 1e-20 "broke down" at k=1
    a0 = np.diag(np.arange(1.0, 7.0)) + 0.1 * _rand((6, 6), seed=12)
    b = _rand(6, seed=13)
    outcomes = []
    for scale in (1.0, 1e-20, 1e20):
        a = a0 * scale
        op, rhs = (matrix_operator(dd.asdd(a)), dd.asdd(b)) if kind == "dd" \
            else (matrix_operator(a), b)
        trace = gmres(op, rhs)
        outcomes.append((trace.iterations, trace.reason))
    assert outcomes == [(6, "converged")] * 3


@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_singular_breakdown_keeps_the_previous_iterate(kind):
    # diag(0, 1, 2) from ones: the Krylov space is invariant at k = 3,
    # where the reduced H is singular; the minimum, 1.0, is reached at
    # k = 2.  The rotated Givens estimate used to read 5e-32 there and
    # report "converged" with a recomputed residual of 7.28
    a, b = np.diag([0.0, 1.0, 2.0]), np.ones(3)
    if kind == "dd":
        a, b = dd.asdd(a), dd.asdd(b)

    def run(k):
        return gmres(matrix_operator(a), b,
                     opts=GmresOptions(max_iterations=k))

    trace = gmres(matrix_operator(a), b)
    assert trace.reason == "breakdown" and trace.iterations == 3
    res = [_f(r.residual_norm) for r in trace.rows]
    assert res[-1] <= res[2]
    assert abs(res[2] - 1.0) <= 1e-14
    # rows 1 and 2 are recomputed after the loop, and row 3, where the
    # reduced H is singular, repeats row 2
    _oracle_rows(run, a, lambda r: r, b, 2)
    assert [r.k for r in trace.rows] == [0, 1, 2, 3]
    for name in _ROW_NAMES:
        assert _bits(getattr(trace.rows[3], name)) == \
            _bits(getattr(trace.rows[2], name))
    assert _bits(trace.x) == _bits(run(2).x)


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


def test_empty_operator_rejected_before_the_options():
    # an iteration cap of n = 0 is invalid too, but the operator is named
    for b in (np.zeros(0), dd.zeros((0,))):
        for opts in (GmresOptions(max_iterations=4),
                     GmresOptions(max_iterations=0)):
            with pytest.raises(DimensionMismatchError, match="nonempty"):
                gmres(matrix_operator(np.zeros((0, 0))), b, opts)


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
                           opts=GmresOptions(rtol=1e-12, max_iterations=20))
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
    m, h = _splitting(a, omega=1.0)
    # P^(l) A^T assembled densely: sum_{i<l} H^i M^{-1} A^T
    minv_at = _lower_solve(m, a.T)
    pm = minv_at.copy()
    term = minv_at
    for _ in range(cfg.inner_steps - 1):
        term = h @ term
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


@pytest.mark.parametrize("extended", [False, True])
def test_ba_starts_from_b_with_k_plus_2_preconditioner_calls(extended):
    # one call on b and one per Arnoldi step, then one on the (m, k)
    # block of the k recomputed residuals
    a = _rand((12, 5), seed=18)
    b = _rand(12, seed=19)
    if extended:
        a, b = dd.asdd(a), dd.asdd(b)
    cfg = nrsor_config(a, omega=1.0, inner_steps=2)
    calls = []

    def precond(u):
        calls.append(u)
        return nrsor_apply(a, cfg, u)

    trace = ba_gmres(a, precond, b, opts=GmresOptions(max_iterations=3))
    assert trace.iterations == 3
    assert len(calls) == trace.iterations + 2
    assert [c.shape for c in calls] == [(12,)] * 4 + [(12, 3)]
    # row 0 is the recompute at the zero start vector
    r = b - a @ dd.zeros_like(b, (5,))
    row0 = trace.rows[0]
    for got, want in ((row0.residual_norm, dd.norm2(r)),
                      (row0.preconditioned_residual_norm,
                       dd.norm2(nrsor_apply(a, cfg, r))),
                      (row0.normal_residual_norm, dd.norm2(a.T @ r)),
                      (row0.minimized_estimate,
                       dd.norm2(nrsor_apply(a, cfg, r)))):
        assert _bits(got) == _bits(want)


_ROW_NAMES = ("residual_norm", "preconditioned_residual_norm",
              "normal_residual_norm", "minimized_estimate")


def _oracle_rows(run, a, precond, b, steps):
    # the rows recomputed after the loop, against one-column rebuilds:
    # the k-step run's iterate is x_k, so its residual, its one-column
    # preconditioned image and A^T r give row k of the longer run
    full = run(steps)
    assert full.iterations == steps
    for k in range(1, steps + 1):
        x = run(k).x
        r = b - a @ x
        want = (dd.norm2(r), dd.norm2(precond(r)), dd.norm2(a.T @ r))
        got = full.rows[k]
        assert got.k == k
        for name, value in zip(_ROW_NAMES, want):
            assert _bits(getattr(got, name)) == _bits(value), (k, name)


def _sparse_case():
    # a sparse matrix whose sweep takes multi-column level tables
    a0 = _sparse_cases()["random"]
    return a0, _rand(a0.shape[0], seed=45)


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("precision", ["f64", "dd"])
@pytest.mark.parametrize("name", ["exp-decay", "sparse"])
def test_ba_rows_are_the_one_column_recomputes(name, precision, steps):
    if name == "sparse":
        a0, b0 = _sparse_case()
    else:
        inst = exp_decay_matrix(20)
        a0, b0 = inst.a, inst.b
    a, b = (dd.asdd(a0), dd.asdd(b0)) if precision == "dd" else (a0, b0)
    cfg = nrsor_config(a, 1.0, steps)
    if name == "sparse":
        assert any(not isinstance(c, int) and len(c) > 1
                   for _, _, c in cfg.levels)

    def precond(u):
        return nrsor_apply(a, cfg, u)

    def run(k):
        return ba_gmres(a, precond, b,
                        opts=GmresOptions(rtol=1e-30, max_iterations=k))

    _oracle_rows(run, a, precond, b, 6)


@pytest.mark.parametrize("precision", ["f64", "dd"])
@pytest.mark.parametrize("name", ["exp-decay", "sparse"])
def test_gmres_rows_are_each_iterates_recompute(name, precision):
    if name == "sparse":
        # square: the leading 30 columns
        a0, b0 = _sparse_case()
        a0 = a0[:, :30].copy()
    else:
        inst = exp_decay_matrix(20)
        a0, b0 = inst.a, inst.b
    a, b = (dd.asdd(a0), dd.asdd(b0)) if precision == "dd" else (a0, b0)

    def run(k):
        return gmres(matrix_operator(a), b,
                     opts=GmresOptions(rtol=1e-30, max_iterations=k))

    _oracle_rows(run, a, lambda r: r, b, 6)


def _splitting(a, omega):
    # the dense oracle: A^T A = M - N with M = D/omega + L, and H = M^-1 N
    ata = a.T @ a
    m = np.tril(ata, -1) + np.diag(np.diag(ata)) / omega
    return m, _lower_solve(m, m - ata)


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
    opts = GmresOptions(rtol=1e-11, max_iterations=16)
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
    _, h = _splitting(q, omega=1.0)
    assert np.abs(h).max() <= 1e-14


def test_sweep_matches_splitting_matrix_oracle():
    a = _rand((8, 4), seed=22)
    u = _rand(8, seed=23)
    for omega in (0.7, 1.0, 1.4):
        m, h = _splitting(a, omega)
        minv_at_u = _lower_solve(m, a.T @ u.reshape(8, 1))[:, 0]
        acc = minv_at_u.copy()
        term = minv_at_u
        for steps in range(1, 5):
            cfg = nrsor_config(a, omega, steps)
            w = nrsor_apply(a, cfg, u)
            assert np.allclose(w, acc, rtol=1e-12, atol=1e-13), \
                f"omega={omega} l={steps}"
            term = h @ term
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


def _reference_sweep(a, omega, steps, u, divide=False):
    # the plain NR-SOR map: one column at a time, over every row; the
    # step is vdot * (omega / ||a_i||^2), the sweep's arithmetic, or with
    # divide the division form (vdot * omega) / ||a_i||^2
    n = a.shape[1]
    w = dd.zeros_like(u, (n,))
    r = u.copy()
    for _ in range(steps):
        for i in range(n):
            col = a[:, i]
            if divide:
                delta = (dd.vdot(col, r) * omega) / dd.vdot(col, col)
            else:
                delta = dd.vdot(col, r) * (omega / dd.vdot(col, col))
            w[i] = w[i] + delta
            r = r - col * delta
    return w


def _sparse_cases():
    rng = seeded_rng(50)
    rand = np.where(rng.random((30, 60)) < 0.1,
                    rng.standard_normal((30, 60)), 0.0)
    rand[rng.integers(0, 30, 60), np.arange(60)] = rng.standard_normal(60)
    mixed = rand[:, :24].copy()
    mixed[:, 17] = rng.standard_normal(30)      # one dense column among runs
    i, j = np.indices((40, 25))
    band = np.where(np.abs(i - j) <= 2, rng.standard_normal((40, 25)), 0.0)
    disjoint = np.zeros((30, 10))
    for c in range(10):
        disjoint[3 * c:3 * c + 3, c] = rng.standard_normal(3)
    return {"random": rand, "mixed": mixed, "band": band,
            "disjoint": disjoint}


@pytest.mark.parametrize("steps", [1, 2, 3])
@pytest.mark.parametrize("omega", [0.7, 1.0, 1.4])
def test_sweep_dense_bitwise_matches_column_by_column(omega, steps):
    for a0, u0 in _sweep_cases()[:2]:
        a, u = dd.asdd(a0), dd.asdd(u0)
        got = nrsor_apply(a, nrsor_config(a, omega, steps), u)
        want = _reference_sweep(a, omega, steps, u)
        assert np.array_equal(got.hi, want.hi)
        assert np.array_equal(got.lo, want.lo)
        got64 = nrsor_apply(a0, nrsor_config(a0, omega, steps), u0)
        assert np.array_equal(got64, _reference_sweep(a0, omega, steps, u0))


@pytest.mark.parametrize("name", ["random", "mixed", "band", "disjoint"])
def test_sweep_sparse_matches_column_by_column(name):
    a0 = _sparse_cases()[name]
    u0 = _rand(a0.shape[0], seed=42)
    a, u = dd.asdd(a0), dd.asdd(u0)
    for omega in (0.7, 1.0, 1.4):
        for steps in (1, 3):
            got = nrsor_apply(a, nrsor_config(a, omega, steps), u)
            want = _reference_sweep(a, omega, steps, u)
            assert _f(dd.norm2(got - want)) <= 1e-30 * _f(dd.norm2(want))
            got64 = nrsor_apply(a0, nrsor_config(a0, omega, steps), u0)
            want64 = _reference_sweep(a0, omega, steps, u0)
            assert np.linalg.norm(got64 - want64) <= \
                1e-12 * np.linalg.norm(want64)


def _sweep_cases():
    inst = exp_decay_matrix(20)
    dense = [(_rand((12, 7), seed=40), _rand(12, seed=41)), (inst.a, inst.b)]
    return dense + [(a, _rand(a.shape[0], seed=42))
                    for a in _sparse_cases().values()]


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("omega", [0.7, 1.0, 1.4])
def test_sweep_matches_the_division_form(omega, steps):
    # the factor omega / ||a_i||^2 moves the step of the division form
    # (vdot * omega) / ||a_i||^2 only at working precision
    for a0, u0 in _sweep_cases():
        a, u = dd.asdd(a0), dd.asdd(u0)
        got = nrsor_apply(a, nrsor_config(a, omega, steps), u)
        want = _reference_sweep(a, omega, steps, u, divide=True)
        assert _f(dd.norm2(got - want)) <= 1e-30 * _f(dd.norm2(want))
        got64 = nrsor_apply(a0, nrsor_config(a0, omega, steps), u0)
        want64 = _reference_sweep(a0, omega, steps, u0, divide=True)
        assert np.linalg.norm(got64 - want64) <= \
            1e-14 * np.linalg.norm(want64)


@pytest.mark.parametrize("precision", ["extended", "f64"])
@pytest.mark.parametrize("name", ["dense", "sparse"])
def test_sweep_scales_exactly_with_a(name, precision):
    # A 2^k gives 2^-k w bit for bit: the factor scales by 2^-2k, far
    # from overflow in Dekker's split (about 2^996) and from subnormals
    a0 = exp_decay_matrix(20).a if name == "dense" \
        else _sparse_cases()["random"]
    wrap = dd.asdd if precision == "extended" else np.asarray
    u = wrap(_rand(a0.shape[0], seed=51))
    for steps in (1, 3):
        a = wrap(a0)
        w = nrsor_apply(a, nrsor_config(a, 1.2, steps), u)
        for k in (200, -200, 450, -450):
            ak = wrap(a0 * 2.0 ** k)
            wk = nrsor_apply(ak, nrsor_config(ak, 1.2, steps), u)
            assert _bits(wk) == _bits(w * 2.0 ** -k), f"k={k} l={steps}"


def test_levels_are_earliest_disjoint_and_hold_the_nonzeros():
    cases = dict(_sparse_cases(), dense=exp_decay_matrix(9).a)
    for name, a in cases.items():
        m, n = a.shape
        supports = [set(np.flatnonzero(a[:, i])) for i in range(n)]
        levels = nrsor_config(a).levels
        members = [np.arange(n)[cols] for _, _, cols in levels]
        flat = np.concatenate([np.atleast_1d(c) for c in members])
        assert np.array_equal(np.sort(flat), np.arange(n)), name  # each once
        level_of = np.empty(n, dtype=int)
        rebuilt = np.zeros((m + 1, n))
        for k, (rows, vals, _) in enumerate(levels):
            cols = np.atleast_1d(members[k])
            assert np.all(np.diff(cols) > 0), f"{name}: level {k} order"
            used = set()
            for i in cols:
                assert not used & supports[i], f"{name}: level {k} overlaps"
                used |= supports[i]
            level_of[cols] = k
            rebuilt[rows, members[k]] = vals
        for i in range(n):
            earlier = [level_of[j] for j in range(i) if supports[j] & supports[i]]
            assert level_of[i] == 1 + max(earlier, default=-1), \
                f"{name}: column {i} not on its earliest level"
        assert np.array_equal(rebuilt[:m], a), name
        assert not rebuilt[m].any(), name
    assert len(nrsor_config(cases["disjoint"]).levels) == 1
    # a dense matrix keeps whole columns, one per level, by integer index
    dense = nrsor_config(cases["dense"]).levels
    assert [c for _, _, c in dense] == list(range(9))
    assert all(isinstance(c, int) and isinstance(rows, slice)
               for rows, _, c in dense)


def _consecutive_runs(a):
    # the schedule before levels: greedy maximal runs of consecutive
    # columns with disjoint row supports, in the same tables, each run's
    # columns as a slice
    m, n = a.shape
    col, row = np.nonzero(dd.approx(a).T != 0.0)
    ptr = np.searchsorted(col, np.arange(n + 1))
    starts = [0]
    last = np.full(m, -1)
    for i in range(n):
        rows = row[ptr[i]:ptr[i + 1]]
        if (last[rows] >= starts[-1]).any():
            starts.append(i)
        last[rows] = i
    starts.append(n)
    runs = []
    for i0, i1 in zip(starts[:-1], starts[1:]):
        lo, hi = ptr[i0], ptr[i1]
        if i1 - i0 == 1 and hi - lo == m:
            runs.append((slice(0, m), a[:, i0], i0))
            continue
        size = 1 << (int(np.diff(ptr[i0:i1 + 1]).max()) - 1).bit_length()
        j, r = col[lo:hi], row[lo:hi]
        at = (np.arange(lo, hi) - ptr[j], j - i0)
        rows = np.full((size, i1 - i0), m)
        rows[at] = r
        vals = dd.zeros_like(a, (size, i1 - i0))
        vals[at] = a[r, j]
        runs.append((rows, vals, slice(i0, i1)))
    return runs


@pytest.mark.parametrize("precision", ["extended", "f64"])
@pytest.mark.parametrize("name", ["random", "mixed", "band", "disjoint"])
def test_levels_give_the_bytes_of_consecutive_runs(name, precision):
    # both schedules update each row by the same columns in natural order
    a0 = _sparse_cases()[name]
    wrap = dd.asdd if precision == "extended" else np.asarray
    a = wrap(a0)
    u3 = wrap(_rand((a0.shape[0], 3), seed=45))
    runs = _consecutive_runs(a)
    assert len(nrsor_config(a).levels) < len(runs) or name != "random"
    for omega in (0.7, 1.0, 1.4):
        for steps in (1, 3):
            cfg = nrsor_config(a, omega, steps)
            by_runs = dataclasses.replace(cfg, levels=runs)
            for u in (u3[:, 0], u3):
                assert _bits(nrsor_apply(a, cfg, u)) == \
                    _bits(nrsor_apply(a, by_runs, u)), f"omega={omega} l={steps}"


def _same_levels(got, want):
    assert len(got) == len(want)
    for (rows, vals, cols), (rows0, vals0, cols0) in zip(got, want):
        assert type(cols) is type(cols0) and np.array_equal(cols, cols0)
        if isinstance(rows0, slice):
            assert rows == rows0
        else:
            assert np.array_equal(rows, rows0)
        assert _bits(vals) == _bits(vals0)


@pytest.mark.parametrize("name", ["random", "mixed", "band", "disjoint",
                                  "dense", "one-column", "one-row"])
def test_config_from_the_operator_is_the_dense_config(name):
    # the same level tables and relaxation factors, bit for bit, and so the
    # same preconditioned matrix; "dense" has a full column per level,
    # "mixed" one full column among tables
    cases = dict(_sparse_cases(), dense=exp_decay_matrix(9).a,
                 **{"one-column": _rand((9, 1), seed=49),
                    "one-row": _rand((1, 6), seed=49)})
    a0 = cases[name]
    for omega, steps in ((1.0, 1), (1.3, 3)):
        want = nrsor_config(dd.asdd(a0), omega, steps)
        op = dd.SparseDD.from_dense(a0)
        got = nrsor_config(op, omega, steps)
        assert _bits(got.factors) == _bits(want.factors)
        _same_levels(got.levels, want.levels)
        assert _bits(preconditioned_matrix(op, got)) == \
            _bits(preconditioned_matrix(dd.asdd(a0), want))


@pytest.mark.parametrize("name", ["random", "mixed", "band", "disjoint"])
def test_ba_rows_from_the_operator_are_the_dense_rows(name):
    a0 = _sparse_cases()[name]
    b = dd.asdd(_rand(a0.shape[0], seed=46))
    opts = GmresOptions(rtol=1e-30, max_iterations=6)
    runs = [nrsor_ba_gmres(a, nrsor_config(a, 1.0, 2), b, opts=opts)
            for a in (dd.asdd(a0), dd.SparseDD.from_dense(a0))]
    want, got = runs
    assert (got.iterations, got.reason) == (want.iterations, want.reason)
    assert _bits(got.x) == _bits(want.x)
    for r, r0 in zip(got.rows, want.rows, strict=True):
        for name in _ROW_NAMES + ("minimized_estimate",):
            assert _bits(getattr(r, name)) == _bits(getattr(r0, name))


def test_zero_column_rejected_with_indices():
    # a sparse empty support sits on level 0 and must reach the norm check
    dense, sparse = _rand((5, 4), seed=27), _sparse_cases()["random"]
    for a0, dead in ((dense, [2]), (sparse, [0]), (sparse, [7]),
                     (sparse, [0, 59])):
        a = a0.copy()
        a[:, dead] = 0.0
        for x in (a, dd.asdd(a), dd.SparseDD.from_dense(a)):
            with pytest.raises(InvalidMatrixError,
                               match=re.escape(f"indices {dead}")):
                nrsor_config(x)


def test_matrix_without_columns_rejected():
    for a in (np.zeros((5, 0)), dd.zeros((5, 0))):
        with pytest.raises(InvalidMatrixError, match="no columns"):
            nrsor_config(a)


def test_complex_matrix_rejected():
    # the sweep would drop the imaginary parts
    a = np.array([[1.0, 2j], [0.5, 1.0]])
    for x in (a, dd.ascdd(a)):
        with pytest.raises(InvalidMatrixError, match="complex"):
            nrsor_config(x)


@pytest.mark.parametrize("shape", [(9, 1), (1, 6)])
def test_sweep_single_column_and_single_row(shape):
    a0 = _rand(shape, seed=47)
    if shape[1] == 1:
        a0[::2] = 0.0                  # a sparse column: a one-column table
    u0 = _rand(shape[0], seed=48)
    a, u = dd.asdd(a0), dd.asdd(u0)
    for omega, steps in ((1.0, 1), (1.3, 3)):
        got = nrsor_apply(a, nrsor_config(a, omega, steps), u)
        want = _reference_sweep(a, omega, steps, u)
        assert got.shape == (shape[1],)
        assert _f(dd.norm2(got - want)) <= 1e-30 * _f(dd.norm2(want))
        got64 = nrsor_apply(a0, nrsor_config(a0, omega, steps), u0)
        want64 = _reference_sweep(a0, omega, steps, u0)
        assert np.linalg.norm(got64 - want64) <= 1e-14 * np.linalg.norm(want64)


def test_config_validation():
    a = _rand((5, 3), seed=28)
    with pytest.raises(ValueError):
        nrsor_config(a, omega=2.0)
    with pytest.raises(ValueError):
        nrsor_config(a, omega=1.0, inner_steps=0)


def test_preconditioned_matrix_power_decay_and_eigvectors():
    a = _rand((8, 4), seed=30)
    _, h = _splitting(a, 1.0)
    h8 = _mat_pow(h, 8)
    h32 = _mat_pow(h, 32)
    assert np.linalg.norm(h32) < np.linalg.norm(h8)
    # I - H^l shares eigenvectors across l: verify via the eig of H
    from krybound.linalg import eig_nonsymmetric
    eo = eig_nonsymmetric(h)
    for steps in (1, 4, 8):
        pm = preconditioned_matrix(a, nrsor_config(a, 1.0, steps))
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
    pm = preconditioned_matrix(q, nrsor_config(q, 1.0, 1))
    assert np.allclose(pm, np.eye(3), atol=1e-13)


def test_spectral_radius_below_one_full_rank():
    a = _rand((10, 5), seed=32)
    for omega in (0.4, 1.0, 1.9):
        _, h = _splitting(a, omega)
        rho = np.abs(np.linalg.eigvals(h)).max()
        assert rho < 1.0, f"omega={omega} rho={rho}"


# ------------------------------------------- the sweep on A's columns

def _identity_cases():
    return {"dense": exp_decay_matrix(20).a, "stair": stair_matrix(seed=0).a,
            "sparse": _sparse_cases()["random"]}


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("omega", [0.7, 1.3])
@pytest.mark.parametrize("name", ["dense", "stair", "sparse"])
def test_preconditioned_matrix_columns_are_the_sweep(name, omega, steps):
    # I - H^l = P^(l) A^T A: column j is the sweep applied to a_j, bytes
    # and all, in both precisions
    a0 = _identity_cases()[name]
    pms = []
    for a in (dd.asdd(a0), a0):
        cfg = nrsor_config(a, omega, steps)
        if name == "sparse":
            assert any(not isinstance(c, int) and len(c) > 1
                       for _, _, c in cfg.levels)
        pm = preconditioned_matrix(a, cfg)
        assert pm.shape == (a.shape[1],) * 2
        for j in range(a.shape[1]):
            col = nrsor_apply(a, cfg, a[:, j])
            assert _bits(pm[:, j]) == _bits(col), f"column {j}"
        pms.append(dd.approx(pm))
    assert np.abs(pms[1] - pms[0]).max() <= 1e-13


@pytest.mark.parametrize("name", ["dense", "stair", "sparse", "column"])
def test_sweep_block_operand_is_the_column_sweeps(name):
    # a table's sums halve its rows, and a whole dense column takes
    # vdot's stacked path, so binary64 keeps the bytes too; a single
    # column is contiguous, where BLAS takes another summation order
    # than for a strided one
    a0 = _rand((200, 1), seed=46) if name == "column" \
        else _identity_cases()[name]
    u0 = _rand((a0.shape[0], 3), seed=43)
    for wrap in (dd.asdd, np.asarray):
        a, u = wrap(a0), wrap(u0)
        cfg = nrsor_config(a, 1.3, 2)
        w = nrsor_apply(a, cfg, u)
        assert w.shape == (a.shape[1], 3)
        for j in range(3):
            assert _bits(w[:, j]) == _bits(nrsor_apply(a, cfg, u[:, j]))


def test_sweep_rejects_operands_of_the_wrong_shape():
    a = _rand((6, 4), seed=44)
    cfg = nrsor_config(a)
    for shape in ((6, 2, 2), (5,), (5, 2), ()):
        with pytest.raises(DimensionMismatchError):
            nrsor_apply(a, cfg, np.zeros(shape))
