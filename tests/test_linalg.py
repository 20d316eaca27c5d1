"""Dense kernel tests against independent oracles.

numpy's LAPACK-backed routines serve as the binary64 oracle for QR,
SVD, eigenvalues, and solves; extended-precision runs are checked
against invariants (reconstruction, orthogonality, residuals) at
double-double scale, plus closed forms where one exists.
"""

import numpy as np
import pytest

try:
    from mpmath import mp
except ImportError:             # the high-precision oracle is optional
    mp = None

from krybound import dd, linalg
from krybound.dd import CDD, DD
from krybound.errors import (DimensionMismatchError, NumericalFailureError,
                             SingularMatrixError)
from krybound.generators import exp_decay_matrix, stair_matrix
from krybound.linalg import (condition_number_2, eig_nonsymmetric, form_q,
                             householder_qr, jacobi_svd, lstsq, lu_factor,
                             lu_solve, random_orthogonal, seeded_rng,
                             solve_triangular, spectral_norm)
from krybound.nrsor import nrsor_config, preconditioned_matrix

RNG = seeded_rng(20260816)


def _rand(m, n=None, seed=0, complex_=False):
    g = seeded_rng(97 + seed)
    shape = (m,) if n is None else (m, n)
    a = g.standard_normal(shape)
    if complex_:
        a = a + 1j * g.standard_normal(shape)
    return a


def _as_kind(a, kind):
    if kind == "f64":
        return np.asarray(a)
    if np.iscomplexobj(a):
        return dd.ascdd(a)
    return dd.asdd(a)


def _img(x):
    return dd.approx(x)


# ------------------------------------------------------------------ QR

@pytest.mark.parametrize("kind", ["f64", "dd"])
@pytest.mark.parametrize("complex_", [False, True])
def test_qr_reconstructs(kind, complex_):
    a0 = _rand(9, 6, seed=3, complex_=complex_)
    a = _as_kind(a0, kind)
    qr = householder_qr(a, pivot=True)
    q = form_q(qr, 9)
    recon = _img(q @ qr.r)
    scale = np.linalg.norm(a0)
    eps = dd.eps_of(a)
    assert np.linalg.norm(recon - a0[:, qr.perm]) <= 64 * eps * scale
    qh_q = _img(dd.conj(q).T @ q)
    assert np.linalg.norm(qh_q - np.eye(9)) <= 64 * eps * 9
    # pivoted diagonal never grows down the factorization
    diag = np.abs(np.diag(_img(qr.r)))
    assert np.all(diag[:-1] >= diag[1:] - 1e-12 * scale)


def test_qr_extended_resolves_below_binary64():
    # diagonal 1+1e-20 rounds back to 1.0 in the float64 input, so
    # column 0 is (1, 1e-20, 1e-20, 1e-20) and |R[0,0]| = 1 + 1.5e-40,
    # a displacement only extended precision can carry
    base = np.eye(4) + 1e-20 * np.ones((4, 4))
    qr = householder_qr(dd.asdd(base))
    diff = abs(qr.r[0, 0]) - 1.0
    assert 1.4e-40 < float(diff.to_float()) < 1.6e-40


# --------------------------------------------------------------- lstsq

def test_lstsq_scalar_closed_form():
    lam = np.array([1.0, 1.01, 1.001])
    b = np.ones(3)
    y_opt = lam.sum() / (lam * lam).sum()
    res_opt = np.linalg.norm(b - lam * y_opt)
    for kind in ("f64", "dd"):
        a = _as_kind(lam.reshape(3, 1), kind)
        out = lstsq(a, _as_kind(b, kind))
        assert out.rank == 1
        assert abs(float(dd.approx(out.x[0])) - y_opt) <= 1e-14
        assert abs(float(dd.approx(out.residual_norm)) - res_opt) <= 1e-14
    assert abs(res_opt - 7.76e-3) < 5e-5


def test_lstsq_matches_numpy_overdetermined():
    a = _rand(12, 5, seed=4)
    b = _rand(12, seed=5)
    want, *_ = np.linalg.lstsq(a, b, rcond=None)
    out = lstsq(a, b)
    assert out.rank == 5
    assert np.allclose(out.x, want, atol=1e-12)
    res = np.linalg.norm(a @ want - b)
    assert abs(float(out.residual_norm) - res) <= 1e-12


def test_lstsq_rank_deficient_truncates():
    a = _rand(8, 3, seed=6)
    a[:, 2] = a[:, 0] + a[:, 1]      # exact rank 2
    b = _rand(8, seed=7)
    out = lstsq(a, b)
    assert out.rank == 2
    # attained residual equals the full-rank minimum (same column span)
    res_min = np.linalg.norm(a @ np.linalg.lstsq(a, b, rcond=None)[0] - b)
    attained = np.linalg.norm(a @ dd.approx(out.x) - b)
    assert attained <= res_min + 1e-10


def test_lstsq_consistent_system_zero_residual_dd():
    a = dd.asdd(_rand(7, 4, seed=8))
    xt = dd.asdd(_rand(4, seed=9))
    b = a @ xt
    out = lstsq(a, b)
    assert float(dd.approx(out.residual_norm)) <= 1e-28 * np.linalg.norm(_img(b))
    assert np.linalg.norm(_img(out.x - xt)) <= 1e-27


# ----------------------------------------------------- triangular solve

def _triangle(t, lower, unit):
    """The triangular matrix solve_triangular reads from t."""
    tri = np.tril(t) if lower else np.triu(t)
    if unit:
        d = np.arange(t.shape[-1])
        tri[..., d, d] = 1.0
    return tri


@pytest.mark.parametrize("kind", ["f64", "dd", "cdd"])
@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("unit", [False, True])
@pytest.mark.parametrize("rhs", ["vector", "rows", "stack"])
def test_solve_triangular_matches_numpy(kind, lower, unit, rhs):
    n = 7
    complex_ = kind == "cdd"
    shape = (3, n, n) if rhs == "stack" else (n, n)
    t = _rand(int(np.prod(shape[:-1])), n, seed=60, complex_=complex_)
    t = t.reshape(shape) + 4.0 * np.eye(n)      # well away from singular
    if unit:
        # the diagonal is never read: a zero there must not divide
        d = np.arange(n)
        t[..., d, d] = 0.0
    b = _rand(n if rhs == "vector" else 3 * n, seed=61, complex_=complex_)
    b = b.reshape((n,) if rhs == "vector" else (3, n))
    tri = _triangle(t, lower, unit)
    if rhs == "rows":
        want = np.linalg.solve(tri, b.T).T
    else:
        want = np.linalg.solve(tri, b[..., None])[..., 0]
    x = solve_triangular(_as_kind(t, kind), _as_kind(b, kind),
                         lower=lower, unit=unit)
    assert x.shape == b.shape
    assert np.allclose(_img(x), want, rtol=1e-12, atol=1e-12)
    if kind == "f64":
        return
    # working-precision residual, one right-hand side at a time
    tri_x = _as_kind(tri, kind)
    x_rows, b_rows = (x, b) if b.ndim == 2 else (x[None], b[None])
    for j in range(len(b_rows)):
        tj = tri_x[j] if rhs == "stack" else tri_x
        res = tj @ x_rows[j] - _as_kind(b_rows[j], kind)
        assert float(dd.approx(dd.norm2(res))) <= \
            100 * dd.EPS * np.linalg.norm(tri) * np.linalg.norm(want)


# ----------------------------------------------------------------- SVD

@pytest.mark.parametrize("kind", ["f64", "dd"])
@pytest.mark.parametrize("complex_", [False, True])
def test_jacobi_svd_invariants(kind, complex_):
    a0 = _rand(8, 5, seed=10, complex_=complex_)
    s = np.real(_img(jacobi_svd(_as_kind(a0, kind))))
    np_s = np.linalg.svd(a0, compute_uv=False)
    assert s.shape == (5,)
    assert np.allclose(s, np_s, rtol=1e-13, atol=1e-13)
    assert np.all(s[:-1] >= s[1:])


def test_jacobi_svd_extended_precision_frobenius_norm():
    # rotations keep the Frobenius norm: sum s_i^2 = ||A||_F^2 to DD
    # precision, which binary64 singular values cannot meet
    a0 = _rand(10, 6, seed=11)
    a = dd.asdd(a0)
    s = jacobi_svd(a)
    assert np.allclose(_img(s), np.linalg.svd(a0, compute_uv=False),
                       rtol=1e-13)
    fro2 = dd.norm2(a.reshape(60))
    fro2 = fro2 * fro2
    err = abs((s * s).sum() - fro2)
    assert float(dd.approx(err)) <= 100 * dd.EPS * float(dd.approx(fro2))


def test_jacobi_svd_rank_deficient_zero_singular_value():
    a0 = _rand(6, 4, seed=12)
    a0[:, 3] = a0[:, 0]
    s = jacobi_svd(a0)
    assert s[3] <= 1e-14 * s[0]
    assert np.allclose(s[:3], np.linalg.svd(a0, compute_uv=False)[:3],
                       rtol=1e-13)


def test_jacobi_svd_tall_thin_transpose_path():
    a0 = _rand(4, 7, seed=13)
    s = jacobi_svd(a0)
    np_s = np.linalg.svd(a0, compute_uv=False)
    assert s.shape == (4,)
    assert np.allclose(s, np_s, rtol=1e-12)


# ------------------------------------------------------------------ LU

@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_lu_solve_matches_constructed_solution(kind):
    a0 = _rand(6, 6, seed=14)
    x0 = _rand(6, seed=15)
    a = _as_kind(a0, kind)
    x_true = _as_kind(x0, kind)
    b = a @ x_true
    x = lu_solve(*lu_factor(a), b)
    eps = dd.eps_of(a)
    cond = np.linalg.cond(a0)
    assert np.linalg.norm(_img(x) - _img(x_true)) <= 100 * eps * cond


def test_lu_solve_complex_and_matrix_rhs():
    a0 = _rand(5, 5, seed=16, complex_=True)
    b0 = _rand(5, 3, seed=17, complex_=True)
    lu, piv = lu_factor(a0)
    x = lu_solve(lu, piv, b0)
    assert np.allclose(a0 @ x, b0, atol=1e-11)
    lud, pivd = lu_factor(dd.ascdd(a0))
    xd = lu_solve(lud, pivd, dd.ascdd(b0))
    assert np.linalg.norm(_img(dd.ascdd(a0) @ xd) - b0) <= 1e-25


def test_lu_factor_rejects_singular():
    a = np.zeros((3, 3))
    with pytest.raises(SingularMatrixError):
        lu_factor(a)


def _bits(x):
    """Raw bytes of every component array: equal only if bit-identical."""
    if isinstance(x, CDD):
        return _bits(x.re) + _bits(x.im)
    if isinstance(x, DD):
        return _bits(x.hi) + _bits(x.lo)
    x = np.asarray(x)
    return (x.shape, x.tobytes())


@pytest.mark.parametrize("kind,n", [("f64", 140), ("c128", 140),
                                    ("dd", 12), ("cdd", 12)])
def test_stacked_lu_matches_one_at_a_time_bitwise(kind, n):
    # n=140 takes numpy's summation past its 8- and 128-element blocks
    complex_ = kind in ("c128", "cdd")
    mats = [_rand(n, n, seed=40 + j, complex_=complex_) for j in range(4)]
    mats[2][:, 3] = 0.0   # stays exactly zero: a zero pivot at step 3
    rhs = _rand(3, n, seed=50, complex_=complex_)
    # _as_kind makes every complex array a CDD
    conv = np.asarray if kind == "c128" else lambda x: _as_kind(x, kind)
    lu, piv = lu_factor(conv(np.array(mats)))
    assert type(lu) is {"f64": np.ndarray, "c128": np.ndarray,
                        "dd": DD, "cdd": CDD}[kind]
    assert kind != "c128" or lu.dtype == np.complex128
    with pytest.raises(SingularMatrixError, match="step 3"):
        lu_factor(conv(mats[2]))
    assert _img(lu[2, 3, 3]) == 0.0
    keep = [0, 1, 3]
    x = lu_solve(lu[keep], piv[keep], conv(rhs))
    with pytest.raises(DimensionMismatchError):
        lu_solve(lu[keep], piv[keep], conv(rhs[:2]))
    for row, j in enumerate(keep):
        lu1, piv1 = lu_factor(conv(mats[j]))
        assert _bits(lu[j]) == _bits(lu1)
        assert np.array_equal(piv[j], piv1)
        assert _bits(x[row]) == _bits(lu_solve(lu1, piv1, conv(rhs[row])))
    # a stack of one
    lu1, piv1 = lu_factor(conv(np.array(mats[:1])))
    assert _bits(lu1) == _bits(lu[:1]) and np.array_equal(piv1, piv[:1])
    assert _bits(lu_solve(lu1, piv1, conv(rhs[:1]))) == _bits(x[:1])


def _counting_lu(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a.shape)
        return lu_factor(a)
    monkeypatch.setattr(linalg, "lu_factor", counted)
    return calls


def _block_with_exact_eigenvalue():
    # the triangular block's 1.0 and 2.0 deflate exactly, so their
    # shifted matrices are singular
    a = np.zeros((7, 7))
    a[:2, :2] = [[1.0, 0.5], [0.0, 2.0]]
    a[2:, 2:] = _rand(5, 5, seed=60)
    return a


@pytest.mark.parametrize("make", [lambda: exp_decay_matrix(20).a,
                                  _block_with_exact_eigenvalue],
                         ids=["exp_decay_20", "exact_eigenvalue"])
def test_eig_stacked_vectors_match_one_at_a_time(make, monkeypatch):
    a = dd.asdd(make())
    calls = _counting_lu(monkeypatch)
    stacked = eig_nonsymmetric(a)
    sizes = [shape[0] for shape in calls]
    # a budget of one element puts every shift in a stack of its own
    monkeypatch.setattr(linalg, "_STACK_ELEMS", 1)
    calls.clear()
    single = eig_nonsymmetric(a)
    assert _bits(stacked.values) == _bits(single.values)
    assert _bits(stacked.vectors) == _bits(single.vectors)
    # at most one stack per kind of shift; only retries come one at a time
    assert 1 <= sum(s > 1 for s in sizes) <= 2
    assert sum(sizes) == len(calls)


def _eliminate_dense(lu, piv, keep_singular):
    # the elimination without zero skipping: every step updates every row
    # below the pivot
    n = lu.shape[-1]
    members = [(m,) for m in range(len(lu))] if lu.ndim == 3 else [()]
    for k in range(n):
        col = dd.approx(lu[..., k:, k])
        mags = np.abs(col.real) + np.abs(col.imag) if np.iscomplexobj(col) \
            else np.abs(col)
        p = k + np.argmax(mags, axis=-1)
        zero = mags.max(axis=-1) == 0.0
        if zero.any() and not keep_singular:
            raise SingularMatrixError(f"zero pivot at elimination step {k}")
        for m in members:
            pm = p[m]
            if pm != k:
                tmp = lu[m + (k,)].copy()
                lu[m + (k,)] = lu[m + (pm,)]
                lu[m + (pm,)] = tmp
                piv[m + (k,)], piv[m + (pm,)] = piv[m + (pm,)], piv[m + (k,)]
        if k + 1 < n:
            pivot = lu[..., k, k]
            if zero.any():
                pivot = pivot.copy()
                pivot[zero] = 1.0
            low = (lu[..., k + 1:, k].T / pivot).T
            lu[..., k + 1:, k] = low
            lu[..., k + 1:, k + 1:] = lu[..., k + 1:, k + 1:] - \
                low[..., :, None] * lu[..., k, k + 1:][..., None, :]


def _lu_factor_dense(a):
    lu = a.copy()
    piv = np.tile(np.arange(a.shape[-1]), a.shape[:-2] + (1,))
    _eliminate_dense(lu, piv, keep_singular=lu.ndim == 3)
    return lu, piv


def _lu_stack(case, complex_, n=16):
    mats = np.array([_rand(n, n, seed=80 + j, complex_=complex_)
                     for j in range(3)])
    if case != "dense":
        # shifted upper Hessenberg members
        mats = np.triu(mats, -1)
    if case == "zero_pivot":
        mats[1, :, 3] = 0.0
    if case == "inf_row":
        # row 0 is step 0's pivot row in every member
        mats[:, 0, 0] = 1e3
        mats[:, 0, 5] = np.inf
    return mats


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", ["dense", "hessenberg", "zero_pivot",
                                  "inf_row"])
@pytest.mark.parametrize("kind", ["f64", "c128", "dd", "cdd"])
def test_lu_factor_matches_unskipped_elimination(kind, case):
    complex_ = kind in ("c128", "cdd")
    conv = np.asarray if kind == "c128" else lambda x: _as_kind(x, kind)
    mats = _lu_stack(case, complex_)
    stacks = [mats, mats[1:2]]
    for a in stacks:
        lu, piv = lu_factor(conv(a))
        want, want_piv = _lu_factor_dense(conv(a))
        assert np.array_equal(piv, want_piv)
        if case == "inf_row":
            # a zero multiplier times the inf is a NaN: the skipped
            # rows must take it too
            got = np.isfinite(_img(lu))
            assert not got.all()
            assert np.array_equal(got, np.isfinite(_img(want)))
        else:
            assert _bits(lu) == _bits(want)


def _hessenberg_stack(case, complex_, n=24):
    # shifted upper Hessenberg members; a diagonal small against the
    # subdiagonal swaps rows at every step, so L's rows collect runs of
    # multipliers, and a dominant one never swaps
    mats = np.triu(np.array([_rand(n, n, seed=110 + j, complex_=complex_)
                             for j in range(3)]), -1)
    d = np.arange(n)
    if case == "swap_runs":
        mats[:, d, d] *= 1e-3
    if case == "no_swaps":
        mats[:, d, d] += 4.0 * n
    return mats


def _live_columns(lu):
    # per row of L, the columns where some member has a nonzero
    live = (_img(lu) != 0.0).reshape((-1,) + lu.shape[-2:]).any(axis=0)
    return [np.count_nonzero(live[k, :k]) for k in range(lu.shape[-1])]


@pytest.mark.parametrize("case", ["swap_runs", "random", "no_swaps"])
@pytest.mark.parametrize("kind", ["f64", "c128", "dd", "cdd"])
def test_lu_solve_forward_skip_matches_full_rows(kind, case):
    complex_ = kind in ("c128", "cdd")
    conv = np.asarray if kind == "c128" else lambda x: _as_kind(x, kind)
    mats = _hessenberg_stack(case, complex_)
    rhs = _rand(3, 24, seed=120, complex_=complex_)
    lu, piv = lu_factor(conv(mats))
    most = max(_live_columns(lu))
    assert most >= 3 if case != "no_swaps" else most == 1
    # a stack, a stack of one, one matrix with a vector and with rows
    for t, b in [(lu, rhs), (lu[:1], rhs[:1]), (lu[2], rhs[0]),
                 (lu[1], rhs)]:
        want = solve_triangular(t, conv(b), lower=True, unit=True)
        assert _bits(linalg._solve_unit_lower(t, conv(b))) == _bits(want)
    x = lu_solve(lu, piv, conv(rhs))
    for j in range(3):
        b = conv(rhs[j])[piv[j]]
        want = solve_triangular(lu[j], solve_triangular(
            lu[j], b, lower=True, unit=True))
        assert _bits(x[j]) == _bits(want)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_lu_solve_forward_non_finite_rhs_takes_full_rows(kind):
    # an inf times one of L's zeros is a NaN, which only full rows give
    lu, _ = lu_factor(_as_kind(_hessenberg_stack("random", False), kind))
    b = _rand(3, 24, seed=121)
    b[:, 2] = np.inf
    want = solve_triangular(lu, _as_kind(b, kind), lower=True, unit=True)
    got = linalg._solve_unit_lower(lu, _as_kind(b, kind))
    assert np.isnan(_img(want)).any()
    assert _bits(got) == _bits(want)


def _is_hessenberg(x):
    return not np.tril(_img(x), -2).any()


@pytest.mark.parametrize("make", [lambda: exp_decay_matrix(20).a,
                                  _block_with_exact_eigenvalue],
                         ids=["exp_decay_20", "exact_eigenvalue"])
def test_eig_factors_only_hessenberg_matrices(make, monkeypatch):
    a = dd.asdd(make())
    assert not _is_hessenberg(a)
    factored = []

    def recorded(x):
        factored.extend(x[j].copy() for j in range(len(x)))
        return lu_factor(x)
    monkeypatch.setattr(linalg, "lu_factor", recorded)
    eig_nonsymmetric(a)
    assert factored
    assert all(_is_hessenberg(x) for x in factored)


@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_eig_vectors_mapped_back_meet_tolerance_and_phase(kind):
    a = _as_kind(_rand(12, 12, seed=90), kind)
    assert not _is_hessenberg(a)
    out = eig_nonsymmetric(a)
    eps = dd.eps_of(a)
    tol = 1e3 * eps * float(np.linalg.norm(_img(a)))
    for j in range(12):
        v, lam = out.vectors[:, j], out.values[j]
        assert float(dd.approx(dd.norm2(a @ v - v * lam))) <= tol
        img = _img(v)
        mags = np.abs(img)
        i = np.nonzero(mags > np.sqrt(eps) * mags.max())[0][0]
        assert abs(img[i].imag) <= 10 * eps and img[i].real > 0


def test_eig_vectors_checked_against_a_itself(monkeypatch):
    # vectors left in Hessenberg coordinates are not eigenvectors of a
    monkeypatch.setattr(linalg, "_apply_q", lambda reflectors, y: None)
    with pytest.raises(NumericalFailureError, match="mapped back"):
        eig_nonsymmetric(_rand(6, 6, seed=91))


# --------------------------------------------------- Francis QR oracle

def _deflate_point_by_rows(h, hi, eps, hnorm):
    lo = hi
    while lo > 0:
        a = abs(float(_img(h[lo, lo - 1])))
        b = abs(float(_img(h[lo - 1, lo - 1]))) + abs(float(_img(h[lo, lo])))
        thr = eps * b if b > 0.0 else eps * hnorm
        if a <= thr:
            h[lo, lo - 1] = linalg._zero_of(h)
            break
        lo -= 1
    return lo


def _reflect_full_width(h, v, vn, rows, col0, row_end):
    # left on columns col0 to the last, right on rows 0 to row_end
    t = 2.0 / vn
    w = v @ h[rows, col0:]
    h[rows, col0:] = h[rows, col0:] - (v[:, None] * w[None, :]) * t
    w2 = h[:row_end, rows] @ v
    h[:row_end, rows] = h[:row_end, rows] - (w2[:, None] * v[None, :]) * t


def _bulge_sweep_full_width(h, lo, hi, re1, im1, re2, im2):
    # the sweep with _reflector on packed vectors, updating the whole
    # matrix as a Schur-form QR would
    zero = linalg._zero_of(h)

    def vector(entries):
        vec = dd.zeros_like(h, (len(entries),))
        for i, e in enumerate(entries):
            vec[i] = e
        return vec
    p = h[lo, lo] - re1
    q = h[lo, lo] - re2
    x = p * q - im1 * im2 + h[lo, lo + 1] * h[lo + 1, lo]
    y = h[lo + 1, lo] * (p + (h[lo + 1, lo + 1] - re2))
    z = h[lo + 1, lo] * h[lo + 2, lo + 1]
    for k in range(lo, hi - 1):
        v, vn, beta = linalg._reflector(vector([x, y, z]))
        if v is not None:
            _reflect_full_width(h, v, vn, slice(k, k + 3), max(lo, k - 1),
                                min(k + 4, hi + 1))
            if k > lo:
                h[k, k - 1] = beta
                h[k + 1, k - 1] = zero
                h[k + 2, k - 1] = zero
        x, y = h[k + 1, k], h[k + 2, k]
        if k < hi - 2:
            z = h[k + 3, k]
    v, vn, beta = linalg._reflector(vector([x, y]))
    if v is not None:
        _reflect_full_width(h, v, vn, slice(hi - 1, hi + 1), hi - 2, hi + 1)
        h[hi - 1, hi - 2] = beta
        h[hi, hi - 2] = zero


def _francis_full_width(h, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(linalg, "_bulge_sweep", _bulge_sweep_full_width)
        m.setattr(linalg, "_deflate_point", _deflate_point_by_rows)
        return linalg._francis_qr(h)


def _sweeps_per_window(monkeypatch):
    windows = []
    sweep = linalg._bulge_sweep

    def recorded(h, lo, hi, *shifts):
        windows.append((lo, hi))
        sweep(h, lo, hi, *shifts)
    monkeypatch.setattr(linalg, "_bulge_sweep", recorded)
    return windows


def _preconditioned_exp_decay(n=40):
    a = dd.asdd(exp_decay_matrix(n).a)
    return preconditioned_matrix(a, nrsor_config(a, 1.0, 1))


def _upper_block_triangular(n=10):
    # h[5, 4] is an exact zero in the Hessenberg form, so the bottom
    # block's window starts mid-matrix, under rows that are not zero
    a = _rand(n, n, seed=130)
    a[n // 2:, :n // 2] = 0.0
    return a


_FRANCIS_CASES = {
    "preconditioned-exp-decay-40": _preconditioned_exp_decay,
    "random-30": lambda: _rand(30, 30, seed=131),
    "cyclic-6": lambda: np.roll(np.eye(6), 1, axis=0),
    "block-triangular-10": _upper_block_triangular,
}


@pytest.mark.parametrize("case", list(_FRANCIS_CASES))
def test_francis_matches_full_width_reference(case, monkeypatch):
    h, _ = linalg._hessenberg(dd.asdd(_FRANCIS_CASES[case]()))
    windows = _sweeps_per_window(monkeypatch)
    got = linalg._francis_qr(h)
    want = _francis_full_width(h, monkeypatch)
    assert len(got) == h.shape[0]
    assert [_bits(re) + _bits(im) for re, im in got] == \
        [_bits(re) + _bits(im) for re, im in want]
    # each input takes the path it is here for
    his = [hi for _, hi in windows]
    if case == "random-30":
        assert any(_img(im) != 0.0 for _, im in got)
    if case == "cyclic-6":
        # ten sweeps on one window without a deflation: the exceptional
        # shift ran
        assert max(his.count(hi) for hi in his) >= 10
    if case == "block-triangular-10":
        assert windows[0] == (5, 9)


def _dd_vectors():
    rng = seeded_rng(132)
    for n in (2, 3):
        base = rng.standard_normal(n)
        yield np.zeros(n)
        for x0 in (0.0, -0.0, -abs(base[0]), abs(base[0])):
            for scale in (1.0, 1e150, 1e-150):
                x = base * scale
                x[0] = x0 * scale
                yield x
    # low parts that are not zero
    yield DD(np.array([1.5, -2.0, 0.25]), np.array([1e-20, 3e-19, -1e-21]))


def test_bulge_reflector_matches_reflector_bitwise():
    for x in _dd_vectors():
        x = dd.asdd(x)
        want = linalg._reflector(x.copy())
        got = linalg._bulge_reflector(*(x[i] for i in range(len(x))))
        assert (got[0] is None) == (want[0] is None)
        if want[0] is not None:
            assert [_bits(g) for g in got] == [_bits(w) for w in want]


def test_francis_array_kernel_calls_per_bulge_step(monkeypatch):
    # each bulge step's two rank-1 updates take 12 array-shaped DD
    # kernel calls; building the reflector takes none
    h, _ = linalg._hessenberg(dd.asdd(_rand(24, 24, seed=133)))
    calls = []
    for name in ("_add2", "_mul2", "_div2"):
        kernel = getattr(dd, name)

        def counted(*args, _kernel=kernel):
            if np.ndim(args[0]) > 0:
                calls.append(1)
            return _kernel(*args)
        monkeypatch.setattr(dd, name, counted)
    windows = _sweeps_per_window(monkeypatch)
    linalg._francis_qr(h)
    steps = sum(hi - lo for lo, hi in windows)
    assert steps > 100
    assert len(calls) <= 12 * steps


# ----------------------------------------------------------------- eig

def test_eig_companion_matrix_known_roots():
    # companion of (x-1)(x-1.01)(x-1.001): roots are the eigenvalues
    roots = np.array([1.0, 1.01, 1.001])
    coeffs = np.poly(roots)            # x^3 + c1 x^2 + c2 x + c3
    c = np.zeros((3, 3))
    c[1, 0] = 1.0
    c[2, 1] = 1.0
    c[:, 2] = -coeffs[1:][::-1]        # column convention: last col -c
    want = np.sort(roots)[::-1]
    for a in (c, dd.asdd(c)):
        out = eig_nonsymmetric(a)
        vals = np.sort_complex(_img(out.values))[::-1]
        assert np.allclose(vals.real, want, atol=1e-8)
        assert np.allclose(vals.imag, 0.0, atol=1e-8)


@pytest.mark.parametrize("n", [2, 3, 6, 11, 40])
def test_eig_matches_numpy_random(n):
    a = _rand(n, n, seed=18 + n)
    out = eig_nonsymmetric(a)
    mine = np.sort_complex(_img(out.values))
    ref = np.sort_complex(np.linalg.eigvals(a))
    scale = np.linalg.norm(a)
    assert np.allclose(mine, ref, atol=1e-10 * max(scale, 1.0))


def test_eig_residual_invariant_and_phase():
    a = _rand(9, 9, seed=40)
    out = eig_nonsymmetric(a)
    scale = np.linalg.norm(a)
    for j in range(9):
        v = out.vectors[:, j]
        lam = out.values[j]
        res = np.linalg.norm(a @ v - lam * v)
        assert res <= 1e3 * np.finfo(float).eps * scale
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-13
        mags = np.abs(v)
        i = np.nonzero(mags > 1e-8 * mags.max())[0][0]
        assert abs(v[i].imag) <= 1e-12 and v[i].real > 0


def test_eig_diagonalizable_recovery():
    # W D W^-1 with known spectrum, including a conjugate design via
    # a rotation block embedded in the diagonal similarity
    d = np.diag([3.0, -2.0, 1.5, 0.25, -0.125])
    w = _rand(5, 5, seed=19) + 5 * np.eye(5)
    a = w @ d @ np.linalg.inv(w)
    out = eig_nonsymmetric(a)
    got = np.sort_complex(_img(out.values))
    want = np.sort_complex(np.diag(d).astype(complex))
    assert np.allclose(got, want, atol=1e-9)


def test_eig_complex_pairs_are_exact_conjugates():
    g = seeded_rng(77)
    blocks = []
    for (re, im) in ((0.9, 0.4), (0.3, 0.05)):
        blocks.append(np.array([[re, im], [-im, re]]))
    a = np.zeros((5, 5))
    a[:2, :2] = blocks[0]
    a[2:4, 2:4] = blocks[1]
    a[4, 4] = 0.7
    w = random_orthogonal(5, seed=21)
    a = w @ a @ w.T
    out = eig_nonsymmetric(a)
    vals = _img(out.values)
    # canonical order pairs conjugates adjacently: check multiset symmetry
    assert np.allclose(np.sort_complex(vals),
                       np.sort_complex(np.conj(vals)), atol=1e-12)
    for j, lam in enumerate(vals):
        v = out.vectors[:, j]
        assert np.linalg.norm(a @ v - lam * v) <= 1e-12


def test_eig_repeated_eigenvalue_full_eigenspace():
    # lambda = 1 with geometric multiplicity 3 inside a 6x6
    d = np.diag([1.0, 1.0, 1.0, 0.5, 0.2, -0.4])
    w = random_orthogonal(6, seed=22)
    a = w @ d @ w.T
    out = eig_nonsymmetric(a)
    vals = _img(out.values)
    ones = np.nonzero(np.abs(vals - 1.0) < 1e-10)[0]
    assert len(ones) == 3
    basis = np.stack([out.vectors[:, j] for j in ones], axis=1)
    g = np.conj(basis).T @ basis
    assert np.linalg.norm(g - np.eye(3)) <= 1e-8


def test_eig_extended_precision_residual():
    a = dd.asdd(_rand(7, 7, seed=23))
    out = eig_nonsymmetric(a)
    scale = np.linalg.norm(_img(a))
    vals = _img(out.values)
    ref = np.sort_complex(np.linalg.eigvals(_img(a)))
    assert np.allclose(np.sort_complex(vals), ref, atol=1e-9 * scale)
    for j in range(7):
        v = out.vectors[:, j]
        lam = out.values[j]
        res = dd.norm2(a @ v - v * lam)
        assert float(dd.approx(res)) <= 1e3 * dd.EPS * scale


def _shared_image_matrix():
    # W diag(l1, l2, 0.5, 0.25) W^-1 with l1 != l2 in double-double but
    # equal in binary64
    lams = [dd.from_str(s) for s in ("1.0000000000000004096",
                                     "1.0000000000000004528", "0.5", "0.25")]
    w = dd.asdd(_rand(4, 4, seed=70) + 2.0 * np.eye(4))
    d = dd.zeros((4, 4))
    for i, lam in enumerate(lams):
        d[i, i] = lam
    return lu_solve(*lu_factor(w.T), (w @ d).T).T, lams


def test_eig_extended_distinct_values_sharing_one_image():
    # neither vector may be projected out of the other
    a, lams = _shared_image_matrix()
    assert dd.approx(lams[0]) == dd.approx(lams[1])
    out = eig_nonsymmetric(a)
    got = sorted(out.values.re[j] for j in range(4))
    for g, want in zip(got, sorted(lams)):
        assert abs(float(dd.approx(g - want))) <= 1e-28
    for j in range(4):
        v = out.vectors[:, j]
        res = dd.norm2(a @ v - v * out.values[j])
        assert float(dd.approx(res)) <= 1e3 * dd.EPS * 4.0


def test_inverse_iteration_rejects_a_residual_over_tolerance():
    # a normal matrix and a shift 10 tol off its eigenvalue 2: every
    # vector leaves a residual of at least 10 tol, so none is accepted
    q = random_orthogonal(5, seed=29)
    a = q @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) @ q.T
    norm_a = float(np.linalg.norm(a))
    tol = 1e3 * dd.EPS64 * norm_a
    shift = 2.0 + 10.0 * tol
    start = linalg._first_solves(a, [(0, shift, 0.0)], 0, norm_a)[0]
    with pytest.raises(NumericalFailureError, match="best residual"):
        linalg._inverse_iteration(a, shift, 0.0, 0, np.zeros((5, 5), complex),
                                  [], tol, tol, norm_a, start)


def test_eig_canonical_ordering():
    a = np.diag([1.0, -3.0, 2.0])
    out = eig_nonsymmetric(a)
    vals = _img(out.values)
    mods = np.abs(vals)
    assert np.all(mods[:-1] >= mods[1:] - 1e-15)
    assert vals[0] == -3.0 and vals[1] == 2.0 and vals[2] == 1.0


# --------------------------------------------------------------- norms

def _assert_certified(a, want):
    # sigma_max <= result <= sigma_max (1 + 2e-12), in the input's kind
    got = spectral_norm(a)
    assert isinstance(got, DD if dd.is_extended(a) else float)
    g = float(dd.approx(got))
    if mp is None:
        want = float(want)
        assert want <= g <= want * (1 + 2e-12)
        return
    with mp.workdps(50):
        assert want <= mp.mpf(g) <= want * (1 + mp.mpf(2e-12)), (g, want)


def _mp_sigma_max(a):
    # 50-digit sigma_max of a binary64, DD or CDD matrix, exactly as
    # stored (hi + lo)
    def exact(x):
        if isinstance(x, DD):
            return [[mp.mpf(float(h)) + mp.mpf(float(lo)) for h, lo in
                     zip(rh, rl)] for rh, rl in zip(x.hi, x.lo)]
        if isinstance(x, CDD):
            re, im = exact(x.re), exact(x.im)
            return [[mp.mpc(r, i) for r, i in zip(rr, ri)]
                    for rr, ri in zip(re, im)]
        return [[mp.mpc(complex(v)) if np.iscomplexobj(x) else
                 mp.mpf(float(v)) for v in row] for row in np.asarray(x)]
    with mp.workdps(50):
        return max(mp.svd(mp.matrix(exact(a)), compute_uv=False))


@pytest.mark.skipif(mp is None, reason="needs mpmath")
@pytest.mark.parametrize("kind", ["f64", "dd"])
@pytest.mark.parametrize("shape,complex_", [
    ((9, 6), False), ((4, 9), False), ((7, 5), True), ((3, 8), True),
    ((1, 1), False), ((1, 1), True)])
def test_spectral_norm_certified_against_mpmath(kind, shape, complex_):
    # real and complex, tall, wide and 1x1, in both precisions
    a = _as_kind(_rand(*shape, seed=24, complex_=complex_), kind)
    _assert_certified(a, _mp_sigma_max(a))


@pytest.mark.skipif(mp is None, reason="needs mpmath")
def test_spectral_norm_covers_the_dd_low_parts():
    # the low parts move sigma_max by about 5e-17 relative; the result
    # bounds the DD matrix as stored, hi + lo
    hi = _rand(6, 4, seed=27)
    a = DD(hi, hi * 2.0 ** -54)
    _assert_certified(a, _mp_sigma_max(a))
    _assert_certified(CDD(a, a * -0.5), _mp_sigma_max(CDD(a, a * -0.5)))


@pytest.mark.skipif(mp is None, reason="needs mpmath")
@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_spectral_norm_rank_one_and_cond_1e12(kind):
    u, v = _rand(8, seed=28), _rand(5, seed=29)
    a = _as_kind(np.outer(u, v), kind)
    _assert_certified(a, _mp_sigma_max(a))
    q1, q2 = random_orthogonal(12, seed=30), random_orthogonal(12, seed=31)
    a = _as_kind(q1 @ np.diag(np.logspace(0, -12, 12)) @ q2.T, kind)
    _assert_certified(a, _mp_sigma_max(a))


def test_spectral_norm_tied_top_singular_values():
    # every singular value of an orthogonal matrix ties at 1
    for n in (5, 40):
        q = random_orthogonal(n, seed=25)
        want = np.linalg.svd(q, compute_uv=False)[0]
        for x in (q, dd.asdd(q)):
            _assert_certified(x, mp.mpf(want) if mp else want)


def test_spectral_norm_matches_svd():
    # up to d = 200 columns in the real form: a 200 x 200 real matrix,
    # and a 100 x 100 complex one through its [[Re, -Im], [Im, Re]] form
    for n, complex_ in ((200, False), (100, True)):
        a = _rand(n, n, seed=26, complex_=complex_)
        want = np.linalg.svd(a, compute_uv=False)[0]
        for x in (a, _as_kind(a, "dd")):
            _assert_certified(x, mp.mpf(want) if mp else want)


def test_spectral_norm_zero_empty_and_non_finite():
    assert spectral_norm(np.zeros((3, 2))) == 0.0
    assert spectral_norm(np.zeros((0, 4))) == 0.0
    z = spectral_norm(dd.zeros((2, 5)))
    assert isinstance(z, DD) and z.hi == 0.0 and z.lo == 0.0
    bad = _rand(4, 3, seed=32)
    bad[1, 2] = np.nan
    with pytest.raises(NumericalFailureError):
        spectral_norm(bad)
    bad[1, 2] = np.inf
    with pytest.raises(NumericalFailureError):
        spectral_norm(dd.ascdd(bad + 0j))


def test_condition_number_matches_numpy():
    a = _rand(6, 6, seed=26)
    want = np.linalg.cond(a)
    got = condition_number_2(a)
    assert abs(got - want) <= 1e-8 * want
    a[:, 0] = a[:, 1]
    assert condition_number_2(a) > 1e12    # numerically singular


def test_random_orthogonal_haar_and_deterministic():
    q1 = random_orthogonal(8, seed=5)
    q2 = random_orthogonal(8, seed=5)
    q3 = random_orthogonal(8, seed=6)
    assert np.array_equal(q1, q2)
    assert not np.array_equal(q1, q3)
    assert np.linalg.norm(q1.T @ q1 - np.eye(8)) <= 1e-14
    qd = random_orthogonal_dd(8, seed=5)
    assert np.allclose(_img(qd), q1, atol=1e-13)


def random_orthogonal_dd(n, seed):
    # same construction run in extended precision for cross-checking
    g = seeded_rng(seed).standard_normal((n, n))
    qr = householder_qr(dd.asdd(g))
    q = form_q(qr, n)
    for j in range(n):
        if float(dd.approx(qr.r[j, j])) < 0.0:
            q[:, j] = -q[:, j]
    return q


# ------------------------------------------------------ mpmath oracle

def _mp_real(x, idx):
    return mp.mpf(float(x.hi[idx])) + mp.mpf(float(x.lo[idx]))


def _mp_complex(z, idx):
    return mp.mpc(_mp_real(z.re, idx), _mp_real(z.im, idx))


def _stair_operator():
    a = dd.asdd(stair_matrix(seed=0).a)
    return preconditioned_matrix(a, nrsor_config(a, 1.0, 8))


@pytest.mark.skipif(mp is None, reason="needs mpmath")
@pytest.mark.parametrize("build", [_stair_operator,
                                   lambda: _shared_image_matrix()[0]],
                         ids=["stair-l8", "shared-image-4x4"])
def test_eig_extended_matches_mpmath_on_clustered_spectra(build):
    # the l=8 stair operator: ten eigenvalues cluster at 1 (offsets from
    # 0.4 down to below 1e-15) and ten at 0
    a = build()
    n = a.shape[0]
    out = eig_nonsymmetric(a)
    scale = float(np.linalg.norm(dd.approx(a)))
    with mp.workdps(60):
        am = mp.matrix([[_mp_real(a, (i, j)) for j in range(n)]
                        for i in range(n)])
        oracle = mp.eig(am, left=False, right=False)
        lam = [_mp_complex(out.values, j) for j in range(n)]
        gap = max(max(min(abs(x - y) for y in oracle) for x in lam),
                  max(min(abs(x - y) for x in lam) for y in oracle))
        assert gap <= 10.0 * dd.EPS * scale
        for j in range(n):
            v = mp.matrix([_mp_complex(out.vectors, (i, j))
                           for i in range(n)])
            assert mp.norm(am * v - lam[j] * v) <= 1e3 * dd.EPS * scale
