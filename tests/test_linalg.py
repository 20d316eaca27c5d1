"""Dense kernel tests against independent oracles.

numpy's LAPACK-backed routines serve as the binary64 oracle for QR,
SVD, eigenvalues, and solves; extended-precision runs are checked
against invariants (reconstruction, orthogonality, residuals) at
double-double scale, plus closed forms where one exists.
"""

from fractions import Fraction

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
from packed import complex_norm, complex_vectors, packed_residuals

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
    if complex_:
        # real-only: complex input is rejected by name, and so by lstsq
        with pytest.raises(DimensionMismatchError, match="householder_qr"):
            householder_qr(a, pivot=True)
        with pytest.raises(DimensionMismatchError, match="householder_qr"):
            lstsq(a, _as_kind(_rand(9, seed=4), kind))
        with pytest.raises(DimensionMismatchError, match="lstsq"):
            lstsq(_as_kind(a0.real, kind), a[:, 0])
        return
    qr = householder_qr(a, pivot=True)
    q = form_q(qr, 9)
    recon = _img(q @ qr.r)
    scale = np.linalg.norm(a0)
    eps = dd.eps_of(a)
    assert np.linalg.norm(recon - a0[:, qr.perm]) <= 64 * eps * scale
    qh_q = _img(q.T @ q)
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


def test_lstsq_binary64_refined_to_working_precision():
    # cond(a) = 1e8 and b in the range of a, as decompose_rhs's: the
    # unrefined binary64 solution is off by about cond(a) eps relative;
    # refined with an extended residual it agrees with the extended
    # solve of the same binary64 data to a few eps
    q1 = random_orthogonal(30, seed=21)[:, :10]
    q2 = random_orthogonal(10, seed=22)
    a = (q1 * np.logspace(0.0, -8.0, 10)) @ q2.T
    b = a @ _rand(10, seed=23)
    want = dd.approx(lstsq(dd.asdd(a), dd.asdd(b)).x)
    got = lstsq(a, b).x
    assert np.linalg.norm(got - want) <= 8 * dd.eps_of(a) * \
        np.linalg.norm(want)


# ----------------------------------------------------- triangular solve

@pytest.mark.parametrize("kind", ["f64", "dd", "cdd"])
# solve_triangular reads the upper triangle with its own diagonal: the
# one case left of the lower and unit options it once had
@pytest.mark.parametrize("lower,unit", [(False, False)])
@pytest.mark.parametrize("rhs", ["vector", "rows", "stack"])
def test_solve_triangular_matches_numpy(kind, lower, unit, rhs):
    # t's entries below the diagonal are not read
    n = 7
    complex_ = kind == "cdd"
    shape = (3, n, n) if rhs == "stack" else (n, n)
    t = _rand(int(np.prod(shape[:-1])), n, seed=60, complex_=complex_)
    t = t.reshape(shape) + 4.0 * np.eye(n)      # well away from singular
    b = _rand(n if rhs == "vector" else 3 * n, seed=61, complex_=complex_)
    b = b.reshape((n,) if rhs == "vector" else (3, n))
    tri = np.triu(t)
    if rhs == "rows":
        want = np.linalg.solve(tri, b.T).T
    else:
        want = np.linalg.solve(tri, b[..., None])[..., 0]
    if complex_:
        # real-only: complex input is rejected by name
        with pytest.raises(DimensionMismatchError, match="solve_triangular"):
            solve_triangular(_as_kind(t, kind), _as_kind(b, kind))
        return
    x = solve_triangular(_as_kind(t, kind), _as_kind(b, kind))
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
        assert float(dd.approx(complex_norm(res))) <= \
            100 * dd.EPS * np.linalg.norm(tri) * np.linalg.norm(want)


# ----------------------------------------------------------------- SVD

@pytest.mark.parametrize("kind", ["f64", "dd"])
@pytest.mark.parametrize("complex_", [False, True])
def test_jacobi_svd_invariants(kind, complex_):
    a0 = _rand(8, 5, seed=10, complex_=complex_)
    if complex_:
        # real-only: complex input is rejected by name
        with pytest.raises(DimensionMismatchError, match="jacobi_svd"):
            jacobi_svd(_as_kind(a0, kind))
        with pytest.raises(DimensionMismatchError, match="jacobi_svd"):
            condition_number_2(_as_kind(a0, kind))
        return
    s = _img(jacobi_svd(_as_kind(a0, kind)))
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
    a0 = np.triu(_rand(6, 6, seed=14), -1)
    x0 = _rand(6, seed=15)
    a = _as_kind(a0, kind)
    x_true = _as_kind(x0, kind)
    b = a @ x_true
    x = lu_solve(*lu_factor(a), b)
    eps = dd.eps_of(a)
    cond = np.linalg.cond(a0)
    assert np.linalg.norm(_img(x) - _img(x_true)) <= 100 * eps * cond


def test_lu_solve_complex_and_matrix_rhs():
    # real-only: complex input is rejected by name; one real matrix takes
    # a matrix of right-hand sides, as companion_similarity passes
    a0 = np.triu(_rand(5, 5, seed=16), -1)
    b0 = _rand(5, 3, seed=17)
    lu, piv = lu_factor(a0)
    x = lu_solve(lu, piv, b0)
    assert np.allclose(a0 @ x, b0, atol=1e-12)
    lud, pivd = lu_factor(dd.asdd(a0))
    xd = lu_solve(lud, pivd, dd.asdd(b0))
    assert np.linalg.norm(_img(dd.asdd(a0) @ xd) - b0) <= 1e-25
    c0 = a0 + 1j * np.triu(_rand(5, 5, seed=18), -1)
    for kind in ("f64", "dd"):
        c = _as_kind(c0, kind)
        with pytest.raises(DimensionMismatchError, match="lu_factor"):
            lu_factor(c)
        real = _as_kind(a0, kind)
        lu, piv = lu_factor(real)
        with pytest.raises(DimensionMismatchError, match="lu_solve"):
            lu_solve(lu, piv, _as_kind(b0 + 1j, kind))


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
    mats = [np.triu(_rand(n, n, seed=40 + j, complex_=complex_), -1)
            for j in range(4)]
    mats[2][:, 3] = 0.0   # stays exactly zero: a zero pivot at step 3
    rhs = _rand(3, n, seed=50, complex_=complex_)
    # _as_kind makes every complex array a CDD
    conv = np.asarray if kind == "c128" else lambda x: _as_kind(x, kind)
    if complex_:
        # real-only: complex input is rejected by name
        with pytest.raises(DimensionMismatchError, match="lu_factor"):
            lu_factor(conv(np.array(mats)))
        return
    # a singular member raises, alone or in a stack
    for a in (mats[2], np.array(mats), np.array(mats[2:])):
        with pytest.raises(SingularMatrixError, match="step 3"):
            lu_factor(conv(a))
    keep = [0, 1, 3]
    lu, piv = lu_factor(conv(np.array([mats[j] for j in keep])))
    assert type(lu) is {"f64": np.ndarray, "dd": DD}[kind]
    x = lu_solve(lu, piv, conv(rhs))
    with pytest.raises(DimensionMismatchError):
        lu_solve(lu, piv, conv(rhs[:2]))
    for row, j in enumerate(keep):
        lu1, piv1 = lu_factor(conv(mats[j]))
        assert _bits(lu[row]) == _bits(lu1)
        assert np.array_equal(piv[row], piv1)
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


def _one_at_a_time(monkeypatch):
    # every member's back-substitution in a walk of its own
    walk = linalg._back_substitution

    def alone(t, vals, members, near):
        return dd.stack([walk(t, vals, members[j:j + 1], near)[0]
                         for j in range(len(members))])
    monkeypatch.setattr(linalg, "_back_substitution", alone)


def _systems(calls):
    # the order of every member's system, as factored alone
    return sorted(shape[1] for shape in calls for _ in range(shape[0]))


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
    # the members of a block's stacked solve are the members that solve
    # it alone, and every vector keeps its bits
    a = dd.asdd(make())
    calls = _counting_lu(monkeypatch)
    stacked = eig_nonsymmetric(a)
    sizes = [shape[0] for shape in calls]
    systems = _systems(calls)
    _one_at_a_time(monkeypatch)
    calls.clear()
    single = eig_nonsymmetric(a)
    assert _bits(stacked.values) == _bits(single.values)
    assert _bits(stacked.vectors) == _bits(single.vectors)
    assert max(sizes) > 1
    assert all(shape[0] == 1 for shape in calls)
    assert _systems(calls) == systems


def _criterion5_system(n, seed):
    # diagonalizable A = V diag(lambda) V^-1 with real, separated
    # eigenvalues, drawn as acceptance criterion 5 draws them
    g = np.random.default_rng(seed)
    lam = np.sort(g.uniform(0.5, 2.0, n))
    v = g.standard_normal((n, n)) + 4.0 * np.eye(n)
    return v @ np.diag(lam) @ np.linalg.inv(v)


def _exp_decay_operator(n):
    # BA-GMRES's operator on exp-decay: 16 of its 20 eigenvalues come in
    # conjugate pairs
    a = exp_decay_matrix(n).a
    return preconditioned_matrix(a, nrsor_config(a))


def _triple_one():
    # eigenvalue 1 three times, not on the diagonal: Francis gives three
    # images within sep, and the later two drop the earlier ones' blocks
    q = random_orthogonal(5, seed=3)
    return q @ np.diag([1.0, 1.0, 3.0, 2.0, 1.0]) @ q.T


@pytest.mark.parametrize("make", [
    lambda: dd.asdd(_criterion5_system(9, seed=5)),
    lambda: _criterion5_system(9, seed=5),
    lambda: dd.asdd(_exp_decay_operator(20)),
    lambda: dd.asdd(np.diag([1.0, 1.0, 3.0])),
    lambda: np.diag([1.0, 1.0, 3.0]),
    lambda: dd.asdd(np.diag([1.0, 1.0 + 1e-12, 3.0])),
    lambda: np.diag([1.0, 1.0 + 1e-12, 3.0]),
    lambda: _triple_one()],
    ids=["criterion5_dd", "criterion5_f64", "exp_decay_20_dd",
         "diag_113_dd", "diag_113_f64", "diag_close_dd", "diag_close_f64",
         "triple_one_f64"])
def test_eig_vectors_at_once_match_one_at_a_time(make, monkeypatch):
    # the back-substitutions of one kind walk T together; each member
    # walking alone gives the same bits, from the same systems
    a = make()
    calls = _counting_lu(monkeypatch)
    got = eig_nonsymmetric(a)
    systems = _systems(calls)
    _one_at_a_time(monkeypatch)
    calls.clear()
    want = eig_nonsymmetric(a)
    assert all(shape[0] == 1 for shape in calls)
    assert _systems(calls) == systems
    assert _bits(got.values) == _bits(want.values)
    assert _bits(got.vectors) == _bits(want.vectors)


def _interleaved_blocks():
    # quasi upper triangular: a pair, a real value, a pair, a real value
    # down the diagonal; Hessenberg reduction and QR leave it as it is
    t = np.triu(_rand(6, 6, seed=64), 1)
    t[[0, 1, 0, 1], [0, 0, 1, 1]] = [0.5, -2.0, 1.5, 0.5]    # 0.5 +- 1.73i
    t[[3, 4, 3, 4], [3, 3, 4, 4]] = [-1.0, -0.5, 2.0, -1.0]  # -1 +- 1i
    t[2, 2], t[5, 5] = 3.0, -2.5
    return t


@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_eig_vectors_solve_every_block_size(kind, monkeypatch):
    # a real value's walk meets 1 x 1 and 2 x 2 blocks, a pair's 2 x 2
    # and 4 x 4 real systems; each block takes one stacked solve
    a = _as_kind(_interleaved_blocks(), kind)
    calls = _counting_lu(monkeypatch)
    out = eig_nonsymmetric(a)
    # the real values' walk (from -2.5 on rows 5 and 3 on row 2), then
    # the pairs' (from -1 + 1i on rows 3-4 and 0.5 + 1.73i on rows 0-1)
    assert calls == [(1, 2, 2), (1, 1, 1), (2, 2, 2), (1, 2, 2), (1, 4, 4)]
    tol = 1e3 * dd.eps_of(a) * float(np.linalg.norm(_img(a)))
    assert max(packed_residuals(a, out)) <= tol
    _one_at_a_time(monkeypatch)
    single = eig_nonsymmetric(a)
    assert _bits(out.vectors) == _bits(single.vectors)


def _entry(x, *idx):
    # a 0-d view of one entry: binary64 arithmetic on it runs numpy's
    # array loops, as lu_factor's does, and DD arithmetic runs on Python
    # floats
    return x[idx + (Ellipsis,)]


def _lu_reference(a):
    """Partial pivoting over the whole column on one matrix, an entry at
    a time on 0-d values: (lu, pivot rows)."""
    lu = a.copy()
    n = lu.shape[0]
    piv = np.zeros(n - 1, dtype=np.intp)
    for k in range(n - 1):
        mags = [abs(float(dd.approx(lu[i, k]))) for i in range(k, n)]
        p = piv[k] = k + mags.index(max(mags))
        for j in range(k, n):
            lu[k, j], lu[p, j] = lu[p, j], lu[k, j]
        for i in range(k + 1, n):
            low = _entry(lu, i, k) / _entry(lu, k, k)
            lu[i, k] = low
            for j in range(k + 1, n):
                lu[i, j] = _entry(lu, i, j) - low * _entry(lu, k, j)
    return lu, piv


def _solve_reference(lu, piv, b):
    # the swaps and multipliers on 0-d entries, then solve_triangular
    x = b.copy()
    n = len(x)
    for k in range(len(piv)):
        x[k], x[piv[k]] = x[piv[k]], x[k]
        for i in range(k + 1, n):
            x[i] = _entry(x, i) - _entry(lu, i, k) * _entry(x, k)
    return solve_triangular(lu, x)


def _hessenberg_stack(case, complex_, n=24):
    # upper Hessenberg members; a diagonal small against the subdiagonal
    # swaps rows at most steps, and a dominant one never swaps
    mats = np.triu(np.array([
        _rand(n, n, seed=110 + j, complex_=complex_) for j in range(3)]), -1)
    d = np.arange(n)
    if case == "swap_runs":
        mats[:, d, d] *= 1e-3
    if case == "no_swaps":
        mats[:, d, d] += 4.0 * n
    if case == "zero_pivot":
        mats[1, :, 3] = 0.0
    return mats


@pytest.mark.parametrize("case", ["random", "swap_runs", "no_swaps",
                                  "zero_pivot"])
@pytest.mark.parametrize("kind", ["f64", "c128", "dd", "cdd"])
def test_hessenberg_lu_matches_scalar_reference(kind, case):
    complex_ = kind in ("c128", "cdd")
    conv = np.asarray if kind == "c128" else lambda x: _as_kind(x, kind)
    mats = conv(_hessenberg_stack(case, complex_))
    if complex_:
        # real-only: complex input is rejected by name
        with pytest.raises(DimensionMismatchError, match="lu_factor"):
            lu_factor(mats)
        return
    rhs = conv(_rand(3, 24, seed=120))
    good = [0, 1, 2]
    if case == "zero_pivot":
        # the zero-pivot member raises, in the stack too; the others go on
        with pytest.raises(SingularMatrixError, match="step 3"):
            lu_factor(mats)
        good = [0, 2]
    want = [_lu_reference(mats[j]) for j in good]
    lu, piv = lu_factor(mats[good])
    assert piv.shape == (len(good), 23)
    for j, (lu_j, piv_j) in enumerate(want):
        assert _bits(lu[j]) == _bits(lu_j)
        assert np.array_equal(piv[j], piv_j)
    swapped = piv != np.arange(23)
    # on Hessenberg input a pivot comes from row k or k+1
    assert set((piv - np.arange(23)).ravel().tolist()) <= {0, 1}
    assert swapped.any() == (case != "no_swaps")
    if case == "swap_runs":
        # some member swaps at three steps in a row
        assert (swapped[:, :-2] & swapped[:, 1:-1] & swapped[:, 2:]).any()
    x = lu_solve(lu, piv, rhs[good])
    for row, j in enumerate(good):
        assert _bits(x[row]) == _bits(_solve_reference(*want[row], rhs[j]))
    # a stack of one, then one matrix with a vector and with rows of
    # right-hand sides
    lu1, piv1 = lu_factor(mats[2:])
    assert _bits(lu1[0]) == _bits(want[-1][0])
    assert np.array_equal(piv1[0], want[-1][1])
    assert _bits(lu_solve(lu1, piv1, rhs[2:])) == _bits(x[-1:])
    lu2, piv2 = lu_factor(mats[2])
    assert _bits(lu2) == _bits(want[-1][0])
    assert np.array_equal(piv2, want[-1][1])
    assert _bits(lu_solve(lu2, piv2, rhs[0])) == \
        _bits(_solve_reference(*want[-1], rhs[0]))
    rows = lu_solve(lu2, piv2, rhs.T)
    for c in range(3):
        assert _bits(rows[:, c].copy()) == \
            _bits(_solve_reference(*want[-1], rhs[c]))


def _eliminate_dense(lu):
    # partial pivoting without zero skipping: each step takes its pivot
    # from the whole column and updates every row below it; the swaps move
    # columns k: only, as lu_factor's do. Returns the pivot rows.
    n = lu.shape[-1]
    piv = np.zeros(lu.shape[:-2] + (n - 1,), dtype=np.intp)
    members = [(m,) for m in range(len(lu))] if lu.ndim == 3 else [()]
    for k in range(n - 1):
        p = k + np.argmax(np.abs(dd.approx(lu[..., k:, k])), axis=-1)
        for m in members:
            pm = p[m]
            if pm != k:
                tmp = lu[m + (k, slice(k, None))].copy()
                lu[m + (k, slice(k, None))] = lu[m + (pm, slice(k, None))]
                lu[m + (pm, slice(k, None))] = tmp
        piv[..., k] = p
        low = (lu[..., k + 1:, k].T / lu[..., k, k]).T
        lu[..., k + 1:, k] = low
        lu[..., k + 1:, k + 1:] = lu[..., k + 1:, k + 1:] - \
            low[..., :, None] * lu[..., k, k + 1:][..., None, :]
    return piv


def _lu_stack(case, complex_, n=16):
    # shifted upper Hessenberg members, dense members, or the real forms
    # [[B - a I, b I], [-b I, B - a I]] of complex shifts a + ib on 2 x 2
    # blocks B
    if case == "complex_shift":
        g = seeded_rng(85)
        blk = g.standard_normal((3, 2, 2))
        a, b = g.standard_normal(3), g.standard_normal(3)
        mats = np.zeros((3, 4, 4))
        for c in range(2):
            mats[:, 2 * c:2 * c + 2, 2 * c:2 * c + 2] = blk
        mats[:, range(4), range(4)] -= a[:, None]
        mats[:, [0, 1], [2, 3]] = b[:, None]
        mats[:, [2, 3], [0, 1]] = -b[:, None]
        return mats * (1 + 1j) if complex_ else mats
    mats = np.array([_rand(n, n, seed=80 + j, complex_=complex_)
                     for j in range(3)])
    if case != "dense":
        mats = np.triu(mats, -1)
    if case == "zero_pivot":
        mats[1, :, 3] = 0.0
    return mats


@pytest.mark.parametrize("case", ["hessenberg", "zero_pivot", "dense",
                                  "complex_shift"])
@pytest.mark.parametrize("kind", ["f64", "c128", "dd", "cdd"])
def test_lu_factor_matches_unskipped_elimination(kind, case):
    # lu_factor is the full elimination bit for bit, swaps, U and
    # multipliers; on Hessenberg input its pivots come from rows k and
    # k+1 and the rows below k+1 take zero multipliers
    complex_ = kind in ("c128", "cdd")
    conv = np.asarray if kind == "c128" else lambda x: _as_kind(x, kind)
    mats = _lu_stack(case, complex_)
    if complex_:
        # real-only: complex input is rejected by name
        with pytest.raises(DimensionMismatchError, match="lu_factor"):
            lu_factor(conv(mats))
        return
    n = mats.shape[-1]
    if case == "zero_pivot":
        # the singular member raises; the regular ones are compared
        for a in [conv(mats), conv(mats[1:2])]:
            with pytest.raises(SingularMatrixError, match="step 3"):
                lu_factor(a)
        mats = mats[[0, 2]]
    for a in [conv(mats), conv(mats[1:2]), conv(mats[0])]:
        lu, piv = lu_factor(a)
        want = a.copy()
        assert np.array_equal(piv, _eliminate_dense(want))
        assert _bits(lu) == _bits(want)
        if case in ("hessenberg", "zero_pivot"):
            assert set((piv - np.arange(n - 1)).ravel().tolist()) <= {0, 1}
            for k in range(n - 2):
                assert not _img(lu[..., k + 2:, k]).any()


def _forward_full_rows(lu, piv, b):
    # one member's forward solve, updating every row below each pivot
    # through the whole column k of lu, zeros and all
    x = b.copy()
    for k in range(len(piv)):
        x[[k, piv[k]]] = x[[piv[k], k]]
        x[k + 1:] = x[k + 1:] - lu[k + 1:, k] * x[k]
    return x


@pytest.mark.parametrize("case", ["swap_runs", "random", "no_swaps"])
@pytest.mark.parametrize("kind", ["f64", "c128", "dd", "cdd"])
def test_lu_solve_forward_skip_matches_full_rows(kind, case):
    # lu_solve's stacked forward steps give each member the bits of its
    # own forward solve through the whole column
    complex_ = kind in ("c128", "cdd")
    conv = np.asarray if kind == "c128" else lambda x: _as_kind(x, kind)
    mats = _hessenberg_stack(case, complex_)
    if complex_:
        # real-only: complex input is rejected by name
        with pytest.raises(DimensionMismatchError, match="lu_factor"):
            lu_factor(conv(mats))
        return
    rhs = conv(_rand(3, 24, seed=120))
    lu, piv = lu_factor(conv(mats))
    # two swaps in a row put three multipliers in one row of a row-swapping
    # (getrf-style) L
    swapped = piv != np.arange(23)
    runs = swapped[:, :-1] & swapped[:, 1:]
    assert runs.any() if case != "no_swaps" else not swapped.any()

    def want(j, b):
        return solve_triangular(lu[j], _forward_full_rows(lu[j], piv[j], b))
    # a stack, a stack of one, one matrix with a vector and with columns
    x = lu_solve(lu, piv, rhs)
    for j in range(3):
        assert _bits(x[j]) == _bits(want(j, rhs[j]))
    assert _bits(lu_solve(lu[:1], piv[:1], rhs[:1])) == _bits(x[:1])
    assert _bits(lu_solve(lu[2], piv[2], rhs[0])) == _bits(want(2, rhs[0]))
    cols = lu_solve(lu[1], piv[1], rhs.T)
    for c in range(3):
        assert _bits(cols[:, c].copy()) == _bits(want(1, rhs[c]))


def _is_hessenberg(x):
    return not np.tril(_img(x), -2).any()


@pytest.mark.parametrize("make", [lambda: exp_decay_matrix(20).a,
                                  _block_with_exact_eigenvalue],
                         ids=["exp_decay_20", "exact_eigenvalue"])
def test_eig_factors_only_diagonal_block_systems(make, monkeypatch):
    # the walk factors one real system per diagonal block of T and
    # member: of order 1 or 2 for a real value, 2 or 4 for a pair
    a = dd.asdd(make())
    calls = _counting_lu(monkeypatch)
    eig_nonsymmetric(a)
    assert calls
    assert {shape[1:] for shape in calls} <= {(1, 1), (2, 2), (4, 4)}


@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_eig_vectors_mapped_back_meet_tolerance_and_phase(kind):
    a = _as_kind(_rand(12, 12, seed=90), kind)
    assert not _is_hessenberg(a)
    out = eig_nonsymmetric(a)
    eps = dd.eps_of(a)
    tol = 1e3 * eps * float(np.linalg.norm(_img(a)))
    assert max(packed_residuals(a, out)) <= tol
    vectors = complex_vectors(out)
    for j in range(12):
        img = _img(vectors[:, j])
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


def _reflect_full_width(h, v, vn, rows, cols, right):
    # left on columns cols, right on every row of `right`, by `@`
    t = 2.0 / vn
    w = v @ h[rows, cols]
    h[rows, cols] = h[rows, cols] - (v[:, None] * w[None, :]) * t
    w2 = right[:, rows] @ v
    right[:, rows] = right[:, rows] - (w2[:, None] * v[None, :]) * t


def _reflect_chain_one_by_one(h, r, v, tv, cols, right):
    # each bulge of the chain step alone, the top one first, by `@`:
    # left from column max(lo, k-1) on, right on Z's rows and H's rows
    # down to min(k+3, hi), its own ranges; `right` holds Z's n rows,
    # then H's rows down to the union's last
    n = h.shape[0]
    ks = [r.start] if isinstance(r, slice) else r[:, 0]
    for b in np.argsort(ks):
        k = ks[b]
        # t_b v_b as the array product of v_b and t_b = 2 / (v_b^T v_b),
        # the squares added as _bulge_reflector adds them
        vb = v[b]
        t = 2.0 / ((vb[0] * vb[0] + vb[2] * vb[2]) + vb[1] * vb[1])
        assert _bits(tv[b]) == _bits(vb * t)
        rows = slice(k, k + 3)
        col0 = max(cols.start, k - 1)
        w = v[b] @ h[rows, col0:]
        h[rows, col0:] = h[rows, col0:] - tv[b][:, None] * w[None, :]
        own = right[:n + min(k + 4, right.shape[0] - n)]
        w = own[:, rows] @ v[b]
        own[:, rows] = own[:, rows] - w[:, None] * tv[b][None, :]


def _in_dd_only(by_matmul, batched):
    # a chain sweep's shifts come from binary64 QR on a trailing block,
    # where `@` would call BLAS, whose sums differ from numpy's: binary64
    # keeps the batched code
    def run(h, *args):
        return (by_matmul if dd.is_extended(h) else batched)(h, *args)
    return run


def _francis_one_by_one(w, monkeypatch):
    by_matmul = {
        "_deflate_point": _deflate_point_by_rows,
        "_reflect_chain": _reflect_chain_one_by_one,
        # the chain's last 2-row step and the split of a real 2 x 2 block
        "_reflect": _reflect_full_width,
    }
    with monkeypatch.context() as m:
        for name, fn in by_matmul.items():
            m.setattr(linalg, name, _in_dd_only(fn, getattr(linalg, name)))
        return linalg._francis_qr(w)


def _schur_rows(h):
    # the rows [Z; H] of _francis_qr with Z = I
    n = h.shape[0]
    w = dd.zeros((2 * n, n))
    w[np.arange(n), np.arange(n)] = 1.0
    w[n:] = h
    return w


def _sweeps_per_window(monkeypatch, kinds=("dd",)):
    # (lo, hi, shifts) of every sweep run on a matrix of one of `kinds`
    windows = []
    sweep = linalg._chain_sweep

    def recorded(h, lo, hi, shifts):
        if ("dd" if dd.is_extended(h) else "f64") in kinds:
            windows.append((lo, hi, shifts))
        sweep(h, lo, hi, shifts)
    monkeypatch.setattr(linalg, "_chain_sweep", recorded)
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
    # the batched chain steps give the bits of each bulge's update alone,
    # by `@`, in the values, T and Z; T is quasi upper triangular and
    # H = Z T Z^T
    h, _ = linalg._hessenberg(dd.asdd(_FRANCIS_CASES[case]()))
    n = h.shape[0]
    windows = _sweeps_per_window(monkeypatch)
    w = _schur_rows(h)
    got = linalg._francis_qr(w)
    ref = _schur_rows(h)
    want = _francis_one_by_one(ref, monkeypatch)
    assert len(got) == n
    assert [(_bits(re), _bits(im), p) for re, im, p in got] == \
        [(_bits(re), _bits(im), p) for re, im, p in want]
    assert _bits(w) == _bits(ref)
    t, z = _img(w[n:]), _img(w[:n])
    pairs = {p for _, im, p in got if _img(im) != 0.0}
    assert not any(t[p + 1, p] for p in range(n - 1) if p not in pairs)
    assert not np.tril(t, -2).any()
    assert np.linalg.norm(z.T @ z - np.eye(n)) <= 1e-13
    scale = np.linalg.norm(_img(h))
    assert np.linalg.norm(z @ t @ z.T - _img(h)) <= 1e-13 * scale
    # each input takes the path it is here for
    his = [hi for _, hi, _ in windows]
    assert any(len(shifts) > 1 for _, _, shifts in windows) == \
        (h.shape[0] >= 30)
    if case == "random-30":
        assert any(_img(im) != 0.0 for _, im, _ in got)
    if case == "cyclic-6":
        # ten sweeps on one window without a deflation: the exceptional
        # shift ran
        assert max(his.count(hi) for hi in his) >= 10
    if case == "block-triangular-10":
        assert windows[0][:2] == (5, 9)


def test_francis_windows_under_30_rows_chase_one_bulge(monkeypatch):
    # a 12 x 12 matrix, the largest of criterion 5 and bound-batch: every
    # sweep chases one bulge, in DD with shifts in DD
    windows = _sweeps_per_window(monkeypatch, ("f64", "dd"))
    a = _rand(12, 12, seed=134)
    for kind in ("f64", "dd"):
        windows.clear()
        eig_nonsymmetric(_as_kind(a, kind))
        assert windows
        assert all(len(shifts) == 1 for _, _, shifts in windows)
        assert all(isinstance(x, DD) == (kind == "dd")
                   for _, _, shifts in windows for x in shifts[0])


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
        v, vn, beta = linalg._bulge_reflector(*(x[i] for i in range(len(x))))
        assert (v is None) == (want[0] is None)
        if want[0] is not None:
            got = (linalg._pack(v, x), vn, beta)
            assert [_bits(g) for g in got] == [_bits(w) for w in want]


def _count_array_kernel_calls(monkeypatch, counting=lambda: True):
    # array-shaped dd._add2/_mul2/_div2 calls while counting() holds;
    # the 0-d ones run on Python floats
    calls = []
    for name in ("_add2", "_mul2", "_div2"):
        kernel = getattr(dd, name)

        def counted(*args, _kernel=kernel):
            if np.ndim(args[0]) > 0 and counting():
                calls.append(1)
            return _kernel(*args)
        monkeypatch.setattr(dd, name, counted)
    return calls


def test_francis_array_kernel_calls_per_bulge_step(monkeypatch):
    # under 30 rows each sweep chases one bulge, and each of its steps
    # takes 10 array-shaped DD kernel calls: the whole QR, shift finding
    # and deflation checks included, takes no more
    h, _ = linalg._hessenberg(dd.asdd(_rand(24, 24, seed=133)))
    calls = _count_array_kernel_calls(monkeypatch)
    windows = _sweeps_per_window(monkeypatch)
    linalg._francis_qr(h)
    assert {len(shifts) for _, _, shifts in windows} == {1}
    steps = sum(hi - lo for lo, hi, _ in windows)
    assert steps > 100
    assert len(calls) <= 10 * steps


def test_francis_array_kernel_calls_per_chain_step(monkeypatch):
    # a chain step updates all its bulges in one set of 10 array-shaped
    # DD kernel calls, however many there are, and building the
    # reflectors takes none.  A bulge's 2-row exit step at the bottom
    # takes 10 more; every bulge but the last exits in a step that also
    # updates the bulges behind it, so a sweep of nb bulges may take 10
    # per step and 10 (nb - 1) more.  Only DD sweeps count: the binary64
    # sweeps that find a chain's shifts call no DD kernel.
    inside = []
    calls = _count_array_kernel_calls(monkeypatch, lambda: bool(inside))
    windows = _sweeps_per_window(monkeypatch)
    sweep = linalg._chain_sweep

    def counted(h, lo, hi, shifts):
        inside.append(1)
        sweep(h, lo, hi, shifts)
        inside.pop()
    monkeypatch.setattr(linalg, "_chain_sweep", counted)
    # windows of 60 or more rows chase 5 bulges, of 30 to 59 rows 2, and
    # smaller ones 1; the 24 x 24 one-bulge case is
    # test_francis_array_kernel_calls_per_bulge_step
    for n, seed, bulges in ((64, 136, {1, 2, 5}),):
        h, _ = linalg._hessenberg(dd.asdd(_rand(n, n, seed=seed)))
        calls.clear()
        windows.clear()
        linalg._francis_qr(h)
        assert {len(shifts) for _, _, shifts in windows} == bulges
        steps = sum(hi - lo + 4 * (len(shifts) - 1)
                    for lo, hi, shifts in windows)
        shared = sum(len(shifts) - 1 for _, _, shifts in windows)
        assert steps > 100
        assert len(calls) <= 10 * (steps + shared)


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


@pytest.mark.parametrize("n", [2, 3, 6, 11, 40, 64])
def test_eig_matches_numpy_random(n):
    a = _rand(n, n, seed=18 + n)
    out = eig_nonsymmetric(a)
    mine = np.sort_complex(_img(out.values))
    ref = np.sort_complex(np.linalg.eigvals(a))
    scale = np.linalg.norm(a)
    assert np.allclose(mine, ref, atol=1e-10 * max(scale, 1.0))


@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_eig_packed_vectors_meet_the_real_block_form(kind):
    # A V = V B for the real packed V, where B holds a real value on its
    # diagonal and [[a, b], [-b, a]] on the columns (i, j) of a pair whose
    # earlier member is a + ib
    a = _as_kind(_rand(12, 12, seed=90), kind)
    out = eig_nonsymmetric(a)
    v = out.vectors
    assert not dd.is_complexkind(v) and v.shape == (12, 12)
    re, im = (out.values.re, out.values.im) if kind == "dd" else \
        (out.values.real, out.values.imag)
    b = dd.zeros_like(v)
    d = np.arange(12)
    b[d, d] = re
    pairs = [(i, j) for j, i in enumerate(
        linalg._conjugate_partners(out.values)) if i is not None]
    assert len(pairs) >= 2
    for i, j in pairs:
        b[i, j], b[j, i] = im[i], im[j]
    tol = 1e3 * dd.eps_of(a) * float(np.linalg.norm(_img(a)))
    r = a @ v - v @ b
    for j in range(12):
        assert float(dd.approx(dd.norm2(r[:, j]))) <= tol


def test_eig_residual_invariant_and_phase():
    a = _rand(9, 9, seed=40)
    out = eig_nonsymmetric(a)
    scale = np.linalg.norm(a)
    vectors = complex_vectors(out)
    for j in range(9):
        v = vectors[:, j]
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
    vectors = complex_vectors(out)
    for j, lam in enumerate(vals):
        v = vectors[:, j]
        assert np.linalg.norm(a @ v - lam * v) <= 1e-12


def test_conjugate_partners_are_exact_and_first_come():
    x = 0.5 + 0.3j
    vals = np.array([x.conjugate(), x.conjugate(), x, x, 2.0, 2.0,
                     x.conjugate(), -0.0 - 0.3j, 0.0 + 0.3j])
    assert linalg._conjugate_partners(vals) == \
        [None, None, 0, 1, None, None, None, None, 7]
    # the low parts count: an image match is not a conjugate
    y = dd.ascdd(np.array([x.conjugate(), x]))
    y.im.lo[1] = 1e-30
    assert linalg._conjugate_partners(y) == [None, None]
    y.im.lo[0] = -1e-30
    assert linalg._conjugate_partners(y) == [None, 0]


def test_eig_rejects_an_empty_matrix():
    for a in (np.zeros((0, 0)), dd.zeros((0, 0))):
        with pytest.raises(DimensionMismatchError, match="nonempty"):
            eig_nonsymmetric(a)


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
    assert max(packed_residuals(a, out)) <= 1e3 * dd.EPS * scale


def _shared_image_matrix():
    # W diag(l1, l2, 0.5, 0.25) W^-1 with l1 != l2 in double-double but
    # equal in binary64; W is lower Hessenberg, so lu_factor takes W^T
    lams = [dd.from_str(s) for s in ("1.0000000000000004096",
                                     "1.0000000000000004528", "0.5", "0.25")]
    w = dd.asdd(np.tril(_rand(4, 4, seed=70) + 2.0 * np.eye(4), 1))
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
    assert dd.approx(got[2]) == dd.approx(got[3])
    assert max(packed_residuals(a, out)) <= 1e3 * dd.EPS * 4.0


def _exact_back_substitution(t):
    """For each p, the x with (T - T[p, p] I) x = 0, x[p] = 1 and zero
    below p, by back-substitution in rationals on the upper triangular
    T; a row whose diagonal equals T[p, p] takes x_i = 0."""
    n = len(t)
    out = []
    for p in range(n):
        lam = Fraction(t[p][p])
        x = [Fraction(0)] * n
        x[p] = Fraction(1)
        for i in reversed(range(p)):
            if t[i][i] != lam:
                x[i] = -sum(Fraction(t[i][j]) * x[j]
                            for j in range(i + 1, p + 1)) / (t[i][i] - lam)
        out.append(x)
    return out


@pytest.mark.parametrize("t", [
    [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 5.0]],
    [[2.0, 1.0, 2.5], [0.0, 3.0, 1.0], [0.0, 0.0, 5.0]],
    # 2 twice, with a two-dimensional eigenspace
    [[2.0, 1.0, 0.25, 1.75], [0.0, 3.0, 0.25, 1.0], [0.0, 0.0, 2.0, -1.5],
     [0.0, 0.0, 0.0, 0.5]]], ids=["diagonal", "triangular", "repeated"])
@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_eig_exact_vectors_for_triangular_input(t, kind):
    # Q = Z = I and T is the input itself, so each vector is the exact
    # back-substitution result, given the canonical phase and unit norm;
    # every entry of these x is a binary64 number
    xs = _exact_back_substitution(t)
    assert all(float(v) == v for x in xs for v in x)
    a = _as_kind(np.array(t), kind)
    out = eig_nonsymmetric(a)
    want = linalg._phase_fix(
        _as_kind(np.array([[float(v) for v in x] for x in xs]), kind),
        np.arange(len(t)))
    parts = (lambda z: (z.hi, z.lo)) if kind == "dd" else (lambda z: (z,))
    left = list(range(len(t)))
    for j in range(len(t)):
        got = parts(out.vectors[:, j])
        match = [p for p in left if _img(out.values[j]) == t[p][p] and
                 all(np.array_equal(g, w) for g, w in zip(got,
                                                          parts(want[p])))]
        assert match
        left.remove(match[0])


def test_eig_near_defective_block():
    # eigenvalues 1 and 1 + 1e-14.  In binary64 they lie within sep, so
    # the vector of 1 + 1e-14 drops its component along e1 and misses by
    # the coupling 1e-3: the check against a names that finite residual.
    # In DD they lie far apart, and both vectors meet the tolerance
    a = np.array([[1.0, 1e-3], [0.0, 1.0 + 1e-14]])
    with pytest.raises(NumericalFailureError, match=r"residual 1\.000e-03"):
        eig_nonsymmetric(a)
    ad = dd.asdd(a)
    out = eig_nonsymmetric(ad)
    tol = 1e3 * dd.EPS * float(np.linalg.norm(a))
    assert max(packed_residuals(ad, out)) <= tol


def test_eig_zero_pivot_names_the_eigenvalues(monkeypatch):
    # the equal-eigenvalue rule keeps every 1 x 1 pivot nonzero; a zero
    # second pivot inside a 2 x 2 block is not ruled out, and names the
    # values of its stack and the member
    def singular(lu):
        raise SingularMatrixError("zero pivot at elimination step 1 of "
                                  "stack member 0")
    monkeypatch.setattr(linalg, "lu_factor", singular)
    with pytest.raises(NumericalFailureError,
                       match=r"\[\(2\+0j\), \(1\+0j\)\]: zero pivot .* "
                             r"member 0"):
        eig_nonsymmetric(np.array([[2.0, 1.0], [0.0, 1.0]]))


def test_lu_factor_names_the_singular_stack_member():
    a = np.stack([np.eye(3), np.diag([1.0, 0.0, 1.0]), np.eye(3)])
    with pytest.raises(SingularMatrixError, match="step 1 of stack member 1"):
        lu_factor(a)
    with pytest.raises(SingularMatrixError, match=r"step 1$"):
        lu_factor(a[1])


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
    # 50-digit sigma_max of a binary64 or DD matrix, exactly as stored
    # (hi + lo)
    def exact(x):
        if isinstance(x, DD):
            return [[mp.mpf(float(h)) + mp.mpf(float(lo)) for h, lo in
                     zip(rh, rl)] for rh, rl in zip(x.hi, x.lo)]
        return [[mp.mpf(float(v)) for v in row] for row in np.asarray(x)]
    with mp.workdps(50):
        return max(mp.svd(mp.matrix(exact(a)), compute_uv=False))


@pytest.mark.skipif(mp is None, reason="needs mpmath")
@pytest.mark.parametrize("kind", ["f64", "dd"])
@pytest.mark.parametrize("shape,complex_", [
    ((9, 6), False), ((4, 9), False), ((7, 5), True), ((3, 8), True),
    ((1, 1), False), ((1, 1), True)])
def test_spectral_norm_certified_against_mpmath(kind, shape, complex_):
    # tall, wide and 1x1, in both precisions; complex input is rejected
    # by name
    a = _as_kind(_rand(*shape, seed=24, complex_=complex_), kind)
    if complex_:
        with pytest.raises(DimensionMismatchError, match="spectral_norm"):
            spectral_norm(a)
        return
    _assert_certified(a, _mp_sigma_max(a))


@pytest.mark.skipif(mp is None, reason="needs mpmath")
def test_spectral_norm_covers_the_dd_low_parts():
    # the low parts move sigma_max by about 5e-17 relative; the result
    # bounds the DD matrix as stored, hi + lo
    hi = _rand(6, 4, seed=27)
    a = DD(hi, hi * 2.0 ** -54)
    _assert_certified(a, _mp_sigma_max(a))


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
    # up to d = 200 columns: a 200 x 200 matrix, and a 100 x 200 one
    # through its transpose
    for m, n in ((200, 200), (100, 200)):
        a = _rand(m, n, seed=26)
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
        spectral_norm(dd.asdd(bad))


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
        vectors = complex_vectors(out)
        for j in range(n):
            v = mp.matrix([_mp_complex(vectors, (i, j))
                           for i in range(n)])
            assert mp.norm(am * v - lam[j] * v) <= 1e3 * dd.EPS * scale


def _clustered_normal(n=64, seed=137):
    # Q D Q^T with Q Haar orthogonal and D block diagonal with three
    # eigenvalue clusters of width 1e-8: real ones at 1 and at -0.5,
    # and conjugate pairs at 0.3 +- 0.8i from 2x2 blocks [[a, b], [-b, a]]
    g = seeded_rng(seed)
    pairs = n // 4
    reals = n - 2 * pairs
    d = np.zeros((n, n))
    lam = np.concatenate([1.0 + 1e-8 * g.random(reals // 2),
                          -0.5 + 1e-8 * g.random(reals - reals // 2)])
    d[np.arange(reals), np.arange(reals)] = lam
    for j in range(pairs):
        i = reals + 2 * j
        a, b = 0.3 + 1e-8 * g.random(), 0.8 + 1e-8 * g.random()
        d[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
    q = dd.asdd(random_orthogonal(n, seed))
    return q @ dd.asdd(d) @ q.T


@pytest.mark.slow
@pytest.mark.skipif(mp is None, reason="needs mpmath")
def test_eig_chain_matches_mpmath_on_clustered_normal_matrix(monkeypatch):
    a = _clustered_normal()
    n = a.shape[0]
    windows = _sweeps_per_window(monkeypatch)
    out = eig_nonsymmetric(a)
    assert any(len(shifts) > 1 for _, _, shifts in windows)
    scale = float(np.linalg.norm(dd.approx(a)))
    with mp.workdps(60):
        am = mp.matrix([[_mp_real(a, (i, j)) for j in range(n)]
                        for i in range(n)])
        oracle = mp.eig(am, left=False, right=False)
        lam = [_mp_complex(out.values, j) for j in range(n)]
        gap = max(max(min(abs(x - y) for y in oracle) for x in lam),
                  max(min(abs(x - y) for x in lam) for y in oracle))
    assert gap <= 10.0 * dd.EPS * scale


def _dd_gap(xs, ys):
    # the largest distance from a value of either list to the nearest
    # value of the other, from DD differences
    def dist(x, y):
        return abs(complex(float(x[0] - y[0]), float(x[1] - y[1])))
    return max(max(min(dist(x, y) for y in ys) for x in xs),
               max(min(dist(x, y) for x in xs) for y in ys))


@pytest.mark.parametrize("n", [40, 64])
def test_francis_chain_agrees_with_double_shift_sweeps(n, monkeypatch):
    a = dd.asdd(_rand(n, n, seed=138 + n))
    h, _ = linalg._hessenberg(a)
    windows = _sweeps_per_window(monkeypatch)
    got = linalg._francis_qr(h.copy())
    assert any(len(shifts) > 1 for _, _, shifts in windows)
    # no window is large enough for more than one bulge
    monkeypatch.setattr(linalg, "_CHAIN_SHIFTS", ((n + 1, 4),))
    windows.clear()
    want = linalg._francis_qr(h)
    assert windows
    assert all(len(shifts) == 1 for _, _, shifts in windows)
    scale = float(np.linalg.norm(dd.approx(a)))
    assert _dd_gap(got, want) <= 10.0 * dd.EPS * scale
