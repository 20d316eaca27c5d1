"""Dense kernel tests against independent oracles.

numpy's LAPACK-backed routines serve as the binary64 oracle for QR,
SVD, eigenvalues, and solves; extended-precision runs are checked
against invariants (reconstruction, orthogonality, residuals) at
double-double scale, plus closed forms where one exists.
"""

import math

import numpy as np
import pytest

from krybound import dd, linalg
from krybound.dd import CDD, DD
from krybound.errors import DimensionMismatchError, SingularMatrixError
from krybound.generators import exp_decay_matrix
from krybound.linalg import (condition_number_2, eig_nonsymmetric, form_q,
                             householder_qr, jacobi_svd, lstsq, lu_factor,
                             lu_solve, matvec, max_subspace_angle,
                             random_orthogonal, seeded_rng, solve_linear,
                             spectral_norm, transpose_matvec)

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


# -------------------------------------------------------------- matvec

def test_matvec_matches_triple_loop():
    a = _rand(5, 4, seed=1)
    x = _rand(4, seed=2)
    want = np.array([sum(a[i, j] * x[j] for j in range(4)) for i in range(5)])
    got = matvec(a, x)
    assert np.allclose(got, want, rtol=0, atol=1e-14)
    got_dd = matvec(dd.asdd(a), dd.asdd(x))
    assert np.allclose(_img(got_dd), want, rtol=0, atol=1e-14)
    wt = np.array([sum(a[i, j] * x[i] for i in range(4)) for j in range(4)])
    assert np.allclose(transpose_matvec(a[:4], x[:4]), wt, atol=1e-14)


def test_matvec_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        matvec(_rand(3, 4), _rand(3))
    with pytest.raises(DimensionMismatchError):
        transpose_matvec(_rand(3, 4), _rand(4))


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


# ----------------------------------------------------------------- SVD

@pytest.mark.parametrize("kind", ["f64", "dd"])
@pytest.mark.parametrize("complex_", [False, True])
def test_jacobi_svd_invariants(kind, complex_):
    a0 = _rand(8, 5, seed=10, complex_=complex_)
    a = _as_kind(a0, kind)
    out = jacobi_svd(a)
    eps = dd.eps_of(a)
    s = np.real(_img(out.s))
    np_s = np.linalg.svd(a0, compute_uv=False)
    assert np.allclose(s, np_s, rtol=1e-13, atol=1e-13)
    assert np.all(s[:-1] >= s[1:])
    u, v = out.u, out.v
    recon = _img(u) @ np.diag(s) @ np.conj(_img(v)).T
    assert np.linalg.norm(recon - a0) <= 10 * eps * 8 * np_s[0] + 1e-13
    for frame, dim in ((u, 5), (v, 5)):
        g = _img(dd.conj(frame).T @ frame)
        assert np.linalg.norm(g - np.eye(dim)) <= 10 * eps * dim + 1e-14


def test_jacobi_svd_extended_precision_orthogonality():
    a = dd.asdd(_rand(10, 6, seed=11))
    out = jacobi_svd(a)
    g = dd.conj(out.v).T @ out.v - dd.eye_like(a, 6)
    defect = float(dd.approx(dd.norm2(g.reshape(36))))
    assert defect <= 10 * dd.EPS * 6
    recon = out.u @ _diag_times(out.v, out.s)
    err = dd.norm2((recon - a).reshape(60))
    assert float(dd.approx(err)) <= 100 * dd.EPS * np.linalg.norm(_img(a))


def _diag_times(v, s):
    # (diag(s) V^H) without forming a diagonal matrix
    vh = dd.conj(v).T
    return vh * s[:, None] if isinstance(s, np.ndarray) else _dd_row_scale(vh, s)


def _dd_row_scale(m, s):
    out = m.copy()
    for i in range(m.shape[0]):
        out[i, :] = out[i, :] * s[i]
    return out


def test_jacobi_svd_rank_deficient_completes_basis():
    a0 = _rand(6, 4, seed=12)
    a0[:, 3] = a0[:, 0]
    out = jacobi_svd(a0)
    s = out.s
    assert s[3] <= 1e-14 * s[0]
    g = out.u.T @ out.u
    assert np.linalg.norm(g - np.eye(4)) <= 1e-13


def test_jacobi_svd_tall_thin_transpose_path():
    a0 = _rand(4, 7, seed=13)
    out = jacobi_svd(a0)
    np_s = np.linalg.svd(a0, compute_uv=False)
    assert np.allclose(out.s[:4], np_s, rtol=1e-12)
    recon = out.u @ np.diag(out.s) @ out.v.T
    assert np.linalg.norm(recon - a0) <= 1e-12


# ------------------------------------------------------------------ LU

@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_solve_linear_matches_constructed_solution(kind):
    a0 = _rand(6, 6, seed=14)
    x0 = _rand(6, seed=15)
    a = _as_kind(a0, kind)
    x_true = _as_kind(x0, kind)
    b = a @ x_true
    x = solve_linear(a, b)
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


@pytest.mark.parametrize("n", [2, 3, 6, 11])
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


def test_eig_canonical_ordering():
    a = np.diag([1.0, -3.0, 2.0])
    out = eig_nonsymmetric(a)
    vals = _img(out.values)
    mods = np.abs(vals)
    assert np.all(mods[:-1] >= mods[1:] - 1e-15)
    assert vals[0] == -3.0 and vals[1] == 2.0 and vals[2] == 1.0


# --------------------------------------------------------------- norms

def test_spectral_norm_matches_svd():
    a = _rand(9, 6, seed=24)
    want = np.linalg.svd(a, compute_uv=False)[0]
    got = float(dd.approx(spectral_norm(a)))
    assert abs(got - want) <= 1e-10 * want
    got_dd = float(dd.approx(spectral_norm(dd.asdd(a))))
    assert abs(got_dd - want) <= 1e-10 * want


def test_spectral_norm_tied_top_singular_values():
    q = random_orthogonal(5, seed=25)
    got = float(dd.approx(spectral_norm(q)))
    assert abs(got - 1.0) <= 1e-11


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


def test_max_subspace_angle():
    q = random_orthogonal(6, seed=30)
    u = q[:, :2]
    assert max_subspace_angle(u, u @ _rand(2, 2, seed=31)) <= 1e-7
    w = q[:, 2:4]
    assert abs(max_subspace_angle(u, w) - math.pi / 2) <= 1e-7
