"""Residual-bound chain: decomposition, Vandermonde minima, cluster
polynomials, first-order estimates.

Oracles: closed forms for k = 1 minima, numpy least squares on the same
Vandermonde systems, direct reconstruction of manufactured right-hand
sides, and measured GMRES residuals for the upper-bound property.
"""

import math

import numpy as np
import pytest

from krybound import bounds, dd, linalg
from krybound.bounds import (BoundSeries, EigenData, analyse, bound_curve,
                             cluster_assign, cluster_poly_bound,
                             decompose_rhs, first_order_estimate,
                             vandermonde_min, weighted_norm)
from krybound.errors import (DimensionMismatchError, InapplicableError,
                             NumericalFailureError, RangeError)
from krybound.gmres import GmresOptions, gmres, matrix_operator
from krybound.generators import (GREENBAUM_CURVE, exp_decay_matrix,
                                 greenbaum_construct, stair_matrix)
from krybound.linalg import eig_nonsymmetric, lstsq, random_orthogonal
from krybound.nrsor import nrsor_apply, nrsor_config, preconditioned_matrix
from packed import packed_residuals, vector_parts


def _fl(x):
    return float(dd.approx(x))


def _eigendata_from(vectors, lambdas, weights):
    # the real frame c_i v_i of real vectors and weights
    v = np.asarray(vectors, dtype=float)
    c = np.asarray(weights, dtype=float)
    return EigenData(v.shape[1], np.asarray(lambdas, dtype=complex), v * c,
                     np.abs(c), 0.0)


def _expansion(e):
    """V c rebuilt from the real frame: a real eigenvalue's column, plus
    c v + conj(c v) = 2 Re(c v) = sqrt 2 times the earlier column of
    each pair."""
    partners = linalg._conjugate_partners(e.lambdas)
    first = [i for i in partners if i is not None]
    later = [j for j, i in enumerate(partners) if i is not None]
    w = dd.zeros_like(e.frame, (e.d,)) + 1.0
    w[first] = dd.sqrt(w[first] * 2.0)
    w[later] = 0.0
    return e.frame @ w


# ------------------------------------------------------------ decompose

def test_decompose_identity_merges_to_single_pair():
    a = np.eye(4)
    r0 = np.zeros(4)
    r0[0] = 1.0
    e = decompose_rhs(a, r0)
    assert e.d == 1
    assert abs(complex(dd.approx(e.lambdas)[0]) - 1.0) < 1e-12
    assert abs(_fl(e.scales[0]) - 1.0) < 1e-12
    assert abs(abs(dd.approx(e.frame)[0, 0]) - 1.0) < 1e-10


def test_decompose_recovers_manufactured_expansion():
    n = 7
    rng = np.random.default_rng(11)
    q = random_orthogonal(n, seed=3)
    lam = np.array([2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0])
    a = q @ np.diag(lam) @ q.T
    w = rng.standard_normal(n)
    r0 = q @ w
    e = decompose_rhs(a, r0)
    assert e.d == n
    got = sorted(dd.approx(e.scales))
    want = sorted(np.abs(w))
    assert np.allclose(got, want, atol=1e-8)
    assert np.linalg.norm(_expansion(e) - r0) < 1e-8
    # eigenvector frame of a normal matrix is orthonormal
    assert e.vector_condition < 1.0 + 1e-6


def test_decompose_rejects_rhs_outside_span():
    a = np.diag([2.0, 3.0, 0.0])
    r0 = np.array([1.0, 0.0, 1.0])
    with pytest.raises(RangeError):
        decompose_rhs(a, r0)


def test_decompose_drops_zero_weight_directions():
    a = np.diag([2.0, 3.0, 5.0])
    r0 = np.array([1.0, 1.0, 0.0])
    e = decompose_rhs(a, r0)
    assert e.d == 2
    vals = sorted(dd.approx(e.lambdas).real)
    assert np.allclose(vals, [2.0, 3.0], atol=1e-12)


def test_decompose_exact_duplicate_eigenvalues_merge():
    a = np.diag([1.0, 1.0, 3.0])
    r0 = np.array([0.6, 0.8, 0.0])
    e = decompose_rhs(a, r0)
    assert e.d == 1
    assert abs(complex(dd.approx(e.lambdas)[0]) - 1.0) < 1e-12
    assert np.linalg.norm(_expansion(e) - r0) < 1e-10


def test_decompose_keeps_close_distinct_eigenvalues_apart():
    # merging is by exact equality only: a 1e-12 gap keeps two pairs
    a = np.diag([1.0, 1.0 + 1e-12, 3.0])
    r0 = np.array([1.0, 1.0, 1.0])
    e = decompose_rhs(a, r0)
    assert e.d == 3
    vals = sorted(dd.approx(e.lambdas).real)
    assert vals[:2] == [1.0, 1.0 + 1e-12]
    assert np.linalg.norm(_expansion(e) - r0) < 1e-10


def test_decompose_extended_keeps_tiny_weights():
    a = dd.asdd(np.diag([2.0, 3.0, 5.0]))
    r0 = dd.zeros((3,))
    r0[0] = 1.0
    r0[1] = 1e-20
    # binary64 would truncate the 1e-20 weight at 1e-12; extended keeps
    # it.  The eigenvectors of a diagonal matrix are exactly e_i, so the
    # weights are exactly those of r0 and the zero one is dropped
    e = decompose_rhs(a, r0)
    assert e.d == 2
    assert sorted((float(x.hi), float(x.lo)) for x in
                  (e.scales[0], e.scales[1])) == [(1e-20, 0.0), (1.0, 0.0)]


def _complex_frame_decompose(a, r0):
    """decompose_rhs by the complex frame, independent of the real one:
    the retained count and lambdas, the binary64 image of the unit
    eigenvector frame V, and the weights |c| in extended precision.

    c solves V c = r0 as the real least-squares problem [[Re V, -Im V],
    [Im V, Re V]] [Re c; Im c] = [r0; 0] in extended precision, from
    the eigenvectors of a in a's precision; exact repeats become the
    unit vector and norm of their sum of c_i v_i."""
    eo = eig_nonsymmetric(a)
    mods = np.abs(dd.approx(eo.values))
    keep = [i for i in range(len(mods)) if mods[i] > 1e-12 * mods.max()]
    re, im = (dd.asdd(p[:, keep]) for p in vector_parts(eo))
    lam = eo.values[keep]
    n, d = re.shape
    real_form = dd.DD._raw(np.block([[re.hi, -im.hi], [im.hi, re.hi]]),
                           np.block([[re.lo, -im.lo], [im.lo, re.lo]]))
    rhs = dd.zeros((2 * n,))
    rhs[:n] = r0
    x = lstsq(real_form, rhs).x
    xr, xi = x[:d], x[d:]
    cre, cim = re * xr - im * xi, re * xi + im * xr
    groups: dict = {}
    for i, key in enumerate(linalg._exact_keys(lam)):
        groups.setdefault(key, []).append(i)
    heads = [members[0] for members in groups.values()]
    wr, wi = (dd.stack([p[:, members].sum(axis=1)
                        for members in groups.values()]).T
              for p in (cre, cim))
    c = dd.sqrt((wr * wr + wi * wi).sum(axis=0))
    tol = (1e-30 if dd.is_extended(a) else 1e-12) * _fl(dd.norm2(c))
    kept = np.flatnonzero(dd.approx(c) > tol)
    w = dd.approx(wr) + 1j * dd.approx(wi)
    return (len(kept), lam[[heads[i] for i in kept]],
            w[:, kept] / dd.approx(c)[kept], c[kept])


def _exp_decay_operator(n):
    # BA-GMRES's operator on exp-decay and its rhs: most of its
    # eigenvalues come in conjugate pairs
    inst = exp_decay_matrix(n)
    cfg = nrsor_config(inst.a)
    return preconditioned_matrix(inst.a, cfg), nrsor_apply(inst.a, cfg, inst.b)


def _criterion5_system(n, seed):
    g = np.random.default_rng(seed)
    lam = np.sort(g.uniform(0.5, 2.0, n))
    v = g.standard_normal((n, n)) + 4.0 * np.eye(n)
    b = g.standard_normal(n)
    return v @ np.diag(lam) @ np.linalg.inv(v), b / np.linalg.norm(b)


def _gate_systems(system):
    if system == "criterion5":
        return [_criterion5_system(n, seed)
                for n, seed in ((10, 7), (2, 5), (4, 1), (7, 11), (12, 3))]
    if system == "exp_decay_20":
        return [_exp_decay_operator(20)]
    return [(_rotation_blocks(), np.arange(1.0, 6.0))]


@pytest.mark.parametrize("kind,rtol", [("f64", 1e-12), ("dd", 1e-29)])
@pytest.mark.parametrize("system", ["criterion5", "exp_decay_20",
                                    "repeated_pair"])
def test_decompose_real_frame_matches_complex_frame(system, kind, rtol):
    for a, r0 in _gate_systems(system):
        if kind == "dd":
            a, r0 = dd.asdd(a), dd.asdd(r0)
        e = decompose_rhs(a, r0)
        d, lam, v, c = _complex_frame_decompose(a, r0)
        assert e.d == d
        assert dd.approx(e.lambdas).tobytes() == dd.approx(lam).tobytes()
        kappa = np.linalg.cond(v)
        assert abs(e.vector_condition - kappa) <= 1e-8 * kappa
        # the weights of a backward stable solve are off by up to
        # kappa(V) eps; below that, the certificate holds exactly
        sigma = np.linalg.svd(v * dd.approx(c), compute_uv=False)[0]
        got = _fl(e.frame_norm)
        assert sigma * (1.0 - kappa * dd.eps_of(a)) <= got
        assert got <= sigma * (1.0 + 1e-12)
        assert dd.approx(abs(e.scales - c)).max() <= \
            rtol * kappa * dd.approx(c).max()


@pytest.mark.parametrize("kind", ["dd", "f64"])
def test_decompose_rejects_complex_rhs(kind):
    # no solver makes a complex r0: gmres and ba_gmres reject complex input
    a, _ = _exp_decay_operator(12)
    r0 = np.arange(12.0) + 1j
    if kind == "dd":
        a, r0 = dd.asdd(a), dd.ascdd(r0)
    with pytest.raises(DimensionMismatchError, match="decompose_rhs"):
        decompose_rhs(a, r0)


@pytest.mark.parametrize("kind", ["dd", "f64"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decompose_rejects_a_non_finite_rhs(kind, bad):
    # nan > x is False, so a NaN would pass the span check unnoticed
    a, r0 = _exp_decay_operator(12)
    r0 = r0.copy()
    r0[3] = bad
    if kind == "dd":
        a, r0 = dd.asdd(a), dd.asdd(r0)
    with pytest.raises(NumericalFailureError, match="right-hand side"):
        decompose_rhs(a, r0)


@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_merge_sums_the_columns_of_a_repeated_real_eigenvalue(kind):
    a, r0 = np.diag([2.0, 2.0, 3.0]), np.array([0.6, 0.8, 1.0])
    if kind == "dd":
        a, r0 = dd.asdd(a), dd.asdd(r0)
    eo = eig_nonsymmetric(a)
    e = decompose_rhs(a, r0)
    assert e.d == 2
    twos = np.flatnonzero(dd.approx(eo.values).real == 2.0)
    v = dd.approx(eo.vectors)[:, twos]
    weights = np.linalg.lstsq(v, dd.approx(r0), rcond=None)[0]
    col = int(np.flatnonzero(dd.approx(e.lambdas).real == 2.0)[0])
    # one column: the sum of the members' c_i v_i, here (0.6, 0.8, 0)
    assert np.allclose(dd.approx(e.frame)[:, col], v @ weights, atol=1e-12)
    assert abs(_fl(e.scales[col]) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_merge_keeps_two_columns_for_a_repeated_pair(kind):
    a, r0 = _rotation_blocks(), np.arange(1.0, 6.0)
    if kind == "dd":
        a, r0 = dd.asdd(a), dd.asdd(r0)
    e = decompose_rhs(a, r0)
    lam = dd.approx(e.lambdas)
    assert e.d == 3 and sorted(lam.imag) == [-0.3, 0.0, 0.3]
    # the pair's two columns are sqrt 2 Re and sqrt 2 Im of one c v:
    # equal norms |c| and one |c|^2 between them
    pair = np.flatnonzero(lam.imag != 0.0)
    f = dd.approx(e.frame)[:, pair]
    scales = dd.approx(e.scales)[pair]
    assert scales[0] == scales[1]
    assert abs(np.sum(f * f) - 2.0 * scales[0] ** 2) <= 1e-12 * scales[0] ** 2
    assert np.linalg.norm(dd.approx(_expansion(e)) - np.arange(1.0, 6.0)) \
        <= 1e-12


def test_merge_drops_a_repeated_eigenvalue_whose_vectors_cancel():
    # r0 = e3 gives the two vectors of 2 weights that sum to zero: the
    # retention rule alone drops the merged column
    e = decompose_rhs(np.diag([2.0, 2.0, 3.0]), np.array([0.0, 0.0, 1.0]))
    assert e.d == 1
    assert dd.approx(e.lambdas).tolist() == [3.0]
    # so does extended precision: the vector of 3 is exactly e3
    e = decompose_rhs(dd.asdd(np.diag([2.0, 2.0, 3.0])),
                      dd.asdd(np.array([0.0, 0.0, 1.0])))
    assert e.d == 1
    assert dd.approx(e.lambdas).tolist() == [3.0]


def _rotation_blocks(im2=0.3):
    # blockdiag(R(.5, .3), R(.5, im2), 2) with R(a, b) = [[a, b], [-b, a]]:
    # the pair .5 +- .3i twice when im2 = .3
    a = np.zeros((5, 5))
    a[:2, :2] = [[0.5, 0.3], [-0.3, 0.5]]
    a[2:4, 2:4] = [[0.5, im2], [-im2, 0.5]]
    a[4, 4] = 2.0
    return a


def _pairs_1e29_apart():
    # the second pair's imaginary part .3 + 1e-29: both pairs share one
    # binary64 image
    a = dd.asdd(_rotation_blocks())
    im2 = dd.asdd(0.3) + 1e-29
    a[2, 3], a[3, 2] = im2, -im2
    return a


def _rotated_pairs(delta):
    # a normal matrix with two pairs delta apart and perfectly
    # conditioned eigenvectors
    q = random_orthogonal(5, seed=3)
    return q @ _rotation_blocks(0.3 + delta) @ q.T


@pytest.mark.parametrize("make", [
    lambda: _rotation_blocks(), lambda: dd.asdd(_rotation_blocks()),
    _pairs_1e29_apart, lambda: _rotated_pairs(0.0),
    lambda: _rotated_pairs(1e-12), lambda: _exp_decay_operator(12)[0]],
    ids=["twin_pairs_f64", "twin_pairs_dd", "pairs_1e-29_apart_dd",
         "rotated_twin_pairs_f64", "rotated_pairs_1e-12_apart_f64",
         "exp_decay_12_f64"])
def test_repeated_conjugate_pairs_keep_independent_vectors(make):
    # each non-real eigenvalue gets its own exact conjugate as partner,
    # so a repeated or nearly repeated pair keeps two independent vector
    # pairs and decompose_rhs can expand any rhs over them
    a = make()
    n = a.shape[0]
    eo = eig_nonsymmetric(a)
    lam = eo.values
    assert np.linalg.matrix_rank(dd.approx(eo.vectors)) == n
    tol = 1e3 * dd.eps_of(a) * float(np.linalg.norm(dd.approx(a)))
    assert max(packed_residuals(a, eo)) <= tol
    partners = linalg._conjugate_partners(lam)
    paired = [(j, p) for j, p in enumerate(partners) if p is not None]
    assert 2 * len(paired) == int(np.count_nonzero(dd.approx(lam).imag))
    re, im = dd.parts(lam)
    for j, p in paired:
        assert _bytes(re[j]) == _bytes(re[p])
        # exact negatives, part by part (binary64 values have lo = +0)
        assert (im[j].hi, im[j].lo) == (-im[p].hi, -im[p].lo)
    b = np.arange(1.0, n + 1.0)
    if dd.is_extended(a):
        b, rtol = dd.asdd(b), 1e-27
    else:
        rtol = 1e-12
    e = decompose_rhs(a, b)
    assert _fl(dd.norm2(_expansion(e) - b)) <= rtol * _fl(dd.norm2(b))


# -------------------------------------------------------------- analyse

def _bytes(x):
    if isinstance(x, dd.CDD):
        return _bytes(x.re) + _bytes(x.im)
    if isinstance(x, dd.DD):
        return x.hi.tobytes() + x.lo.tobytes()
    return np.asarray(x).tobytes()


def _sparse_columns(m, n, seed):
    # at most 4 nonzeros a column, so dd.asmatrix keeps the triples
    g = np.random.default_rng(seed)
    a = np.zeros((m, n))
    for j in range(n):
        rows = np.concatenate(([j], g.choice(np.arange(n, m), 3,
                                              replace=False)))
        a[rows, j] = g.uniform(0.5, 2.0, 4)
    return a, g.standard_normal(m)


def _sparse_square(n, seed):
    # distinct diagonal plus a small superdiagonal: 2n - 1 nonzeros
    g = np.random.default_rng(seed)
    a = np.diag(1.0 + np.arange(n) / n)
    a[np.arange(n - 1), np.arange(1, n)] = 0.01 * g.choice([-1.0, 1.0],
                                                           n - 1)
    return a, g.standard_normal(n)


def _analyse_case(name):
    """(a, b, ncfg) of a system, and its eigen data spelled out by hand."""
    if name == "stair-f64-l3":
        inst = stair_matrix(seed=0)
        a, b = inst.a, inst.b
        cfg = nrsor_config(a, 1.0, 3)
    elif name == "exp-decay-dd-l1":
        inst = exp_decay_matrix(20, seed=0)
        a, b = dd.asmatrix(inst.a), dd.asdd(inst.b)
        cfg = nrsor_config(a, 1.0, 1)
    elif name == "sparse-dd-ba":
        a, b = _sparse_columns(64, 16, seed=4)
        a, b = dd.asmatrix(a), dd.asdd(b)
        cfg = nrsor_config(a, 1.2, 2)
    elif name == "sparse-dd-plain":
        a, b = _sparse_square(32, seed=5)
        a, b = dd.asmatrix(a), dd.asdd(b)
        return a, b, None, decompose_rhs(dd.dense(a), b)
    else:
        inst = greenbaum_construct(GREENBAUM_CURVE)
        return inst.a, inst.b, None, decompose_rhs(inst.a, inst.b)
    return a, b, cfg, decompose_rhs(preconditioned_matrix(a, cfg),
                                    nrsor_apply(a, cfg, b))


@pytest.mark.parametrize("name", ["stair-f64-l3", "exp-decay-dd-l1",
                                  "sparse-dd-ba", "sparse-dd-plain",
                                  "greenbaum-plain"])
def test_analyse_is_the_hand_written_chain(name):
    a, b, cfg, want = _analyse_case(name)
    if name.startswith("sparse"):
        assert isinstance(a, dd.SparseDD)
    got = analyse(a, b, cfg)
    assert got.d == want.d
    for field in ("lambdas", "frame", "scales", "residual", "frame_norm"):
        assert _bytes(getattr(got, field)) == _bytes(getattr(want, field)), \
            field


# -------------------------------------------------------- weighted norm

def test_weighted_norm_orthonormal_frame_is_max_weight():
    q = random_orthogonal(6, seed=5)
    c = np.array([0.3, -1.7, 0.4, 0.9, -0.2, 1.1])
    e = _eigendata_from(q, np.arange(1, 7), c)
    assert abs(_fl(weighted_norm(e)) - 1.7) < 1e-10


def test_weighted_norm_single_vector_is_weight_magnitude():
    v = np.zeros((4, 1))
    v[2, 0] = 1.0
    e = _eigendata_from(v, [1.0], [2.0])
    assert abs(_fl(weighted_norm(e)) - 2.0) < 1e-12


# ---------------------------------------------------------- Vandermonde

def _power_basis_min(lam, k):
    # the per-k least-squares route: min over y of ||1 - sum y_j lam^j||
    mat = np.column_stack([lam ** (j + 1) for j in range(k)])
    ones = np.ones(len(lam), dtype=complex)
    sol, *_ = np.linalg.lstsq(mat, ones, rcond=None)
    return np.linalg.norm(mat @ sol - ones)


def test_vandermonde_identical_points_k1_exact_zero():
    lam = np.ones(5, dtype=complex)
    assert _fl(vandermonde_min(lam, 1)[0]) == 0.0


def test_vandermonde_k1_closed_form():
    lam = np.array([1.0, 1.01, 1.001], dtype=complex)
    vmin = vandermonde_min(lam, 1)[0]
    ystar = lam.conj().sum() / (np.abs(lam) ** 2).sum()
    res = np.linalg.norm(lam * ystar - 1.0)
    assert abs(_fl(vmin) - res) < 1e-14


def test_vandermonde_interpolation_exact_at_full_degree():
    lam = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    assert _fl(vandermonde_min(lam, 4)[3]) == 0.0


def test_vandermonde_matches_numpy_lstsq():
    cases = [
        ([1.0, 1.2, 1.4, 1.6, 1.8, 2.0], 4),                 # real
        ([1 + 1j, 1 - 1j, 2.0, 3 + 0.5j, 3 - 0.5j], 4),      # closed pairs
        ([0.5 - 2j, 1.0, 0.5 + 2j, -1.5, 2 + 1j, 2 - 1j], 5),
        ([1.0, 1.0, 2.0, 2.0, 2.0, 3.0], 2),                 # duplicates
        ([1 + 1j, 1 - 1j, 1 + 1j, 1 - 1j, 2.0], 2),
    ]
    for points, k_max in cases:
        lam = np.array(points, dtype=complex)
        curve = dd.approx(vandermonde_min(lam, k_max))
        assert curve.shape == (k_max,)
        for k in range(1, k_max + 1):
            want = _power_basis_min(lam, k)
            assert abs(curve[k - 1] - want) <= 1e-12 * want, (points, k)
    # five equal points: one distinct point, so 0 at k = 1
    assert _fl(vandermonde_min(np.ones(5, dtype=complex), 1)[0]) == 0.0


def test_vandermonde_holds_value_past_breakdown():
    # four points within 4 ulps of 1, plus 2 and 3: the engine converges
    # at k = 4 and the value is held at k = 5; six distinct points make
    # the minimum exactly 0 from k = 6 on
    eps = np.finfo(float).eps
    lam = np.array([1.0, 1 + eps, 1 + 2 * eps, 1 + 3 * eps, 2.0, 3.0])
    curve = vandermonde_min(lam, 8)
    img = dd.approx(curve)
    for k in (1, 2):
        want = _power_basis_min(lam, k)
        assert abs(img[k - 1] - want) <= 1e-12 * want
    # roundoff, 4 eps ||1||, plus vandermonde_min's rounding margin
    # (12 + log2 6) eps (2 ||1|| + r)
    r = 4 * dd.EPS * math.sqrt(6.0)
    assert 0.0 < img[3] <= r + (12 + math.log2(6)) * dd.EPS * (
        2 * math.sqrt(6.0) + r)
    assert curve.hi[4] == curve.hi[3] and curve.lo[4] == curve.lo[3]
    assert all(img[5:] == 0.0)
    # past the number of distinct points (three here) nothing is left
    assert all(dd.approx(vandermonde_min([1.0, 2.0, 3.0, 2.0], 6))[2:] == 0.0)


def test_vandermonde_sharp_on_clustered_spectrum():
    # d = 60 in three clusters of width 0.005: the power basis cannot
    # resolve the k = 25 minimum, which the Arnoldi curve attains
    mp = pytest.importorskip("mpmath").mp
    k = 25
    lam = np.concatenate([c + 0.005 * np.linspace(-0.5, 0.5, 20)
                          for c in (1.0, 2.0, 4.0)])
    e = _eigendata_from(np.eye(60), lam, np.ones(60))
    got_min = _fl(vandermonde_min(lam, k)[k - 1])
    got = _fl(bound_curve(e, k).bound_at(k))
    with mp.workdps(60):
        mat = mp.matrix([[mp.mpf(float(x)) ** (j + 1) for j in range(k)]
                         for x in lam])
        _, res = mp.qr_solve(mat, mp.matrix([1] * 60))
        want = float(res)
    # attained plus the rounding margin: at least the minimum; the
    # identity frame's certified prefactor is at least 1
    assert want <= got_min <= got <= 10.0 * want


def test_vandermonde_non_closed_set_gets_conjugates():
    # a missing conjugate is added with weight 1: the curve is the closed
    # set's, and it bounds the complex minimum of the set as given
    given = np.array([1 + 1j, 2.0, 3 + 0.5j])
    closed = np.array([1 + 1j, 1 - 1j, 2.0, 3 + 0.5j, 3 - 0.5j])
    curve = vandermonde_min(given, 4)
    ref = vandermonde_min(closed, 4)
    assert np.array_equal(curve.hi, ref.hi)
    assert np.array_equal(curve.lo, ref.lo)
    img = dd.approx(curve)
    for k in (1, 2):
        assert img[k - 1] >= _power_basis_min(given, k)
    assert img[2] > 1e-3        # three points, but five after closing


def test_vandermonde_pairs_points_first_come():
    # a repeated pair in any order is two blocks, and an unpaired third
    # copy gets its conjugate added: every order gives the same curve
    x = 0.5 + 0.3j
    ref = vandermonde_min(np.array([x, x.conjugate(), x, x.conjugate()]), 3)
    for given in ([x, x, x.conjugate(), x.conjugate()],
                  [x.conjugate(), x, x.conjugate(), x],
                  [x, x, x.conjugate()]):
        curve = vandermonde_min(np.array(given), 3)
        assert np.array_equal(curve.hi, ref.hi)
        assert np.array_equal(curve.lo, ref.lo)


def test_vandermonde_rejects_k_max_below_one_and_a_zero_point():
    with pytest.raises(InapplicableError):
        vandermonde_min(np.array([1.0, 2.0]), 0)
    # p(0) = 1 keeps every minimum at or above 1 there
    with pytest.raises(InapplicableError):
        vandermonde_min(np.array([0.0, 1.0, 2.0]), 3)


def test_bound_curve_k_max_zero_is_empty(monkeypatch):
    def refuse(lambdas, k_max):
        raise AssertionError("vandermonde_min called for an empty curve")
    monkeypatch.setattr(bounds, "vandermonde_min", refuse)
    e = _eigendata_from(np.eye(2), [1.0, 2.0], [1.0, 1.0])
    series = bound_curve(e, 0)
    assert series.points == []


def test_vandermonde_minima_nonincreasing():
    rng = np.random.default_rng(7)
    lam = 1.0 + 0.5 * rng.standard_normal(8) + 0.2j * rng.standard_normal(8)
    curve = dd.approx(vandermonde_min(lam, 8))
    assert all(b <= a + 1e-25 for a, b in zip(curve, curve[1:]))


def test_bound_curve_scales_minima_by_prefactor():
    q = random_orthogonal(5, seed=9)
    lam = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
    c = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    e = _eigendata_from(q, lam, c)
    series = bound_curve(e, 4)
    assert isinstance(series, BoundSeries)
    assert len(series.points) == 4
    pref = _fl(series.prefactor)
    assert abs(pref - 1.0) < 1e-10     # orthonormal frame, max weight 1
    for pt in series.points:
        assert abs(_fl(pt.bound) - pref * _fl(pt.vandermonde_min)) \
            <= 1e-12 * max(_fl(pt.bound), 1e-30)


def test_bound_curve_dominates_measured_residuals():
    # extended-precision solve keeps measured residuals meaningful far
    # below the binary64 stagnation floor
    n = 8
    q = random_orthogonal(n, seed=21)
    lam = np.array([1.0, 1.3, 1.7, 2.2, 2.8, 3.5, 4.3, 5.2])
    a = q @ np.diag(lam) @ q.T
    rng = np.random.default_rng(2)
    b = rng.standard_normal(n)
    a_x = dd.asdd(a)
    b_x = dd.asdd(b)
    e = decompose_rhs(a_x, b_x)
    series = bound_curve(e, n)
    trace = gmres(matrix_operator(a_x), b_x,
                  opts=GmresOptions(rtol=1e-30, max_iterations=n))
    scale = float(np.linalg.norm(b))
    for row in trace.rows:
        if row.k == 0:
            continue
        bound = _fl(series.bound_at(row.k))
        assert row.residual_norm <= bound * (1.0 + 1e-8) + 1e-25 * scale


# -------------------------------------------------------------- clusters

def test_cluster_assign_two_clouds_by_count():
    lam = np.array([1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 2e-6,
                    5.0 + 1e-6, 5.0 - 1e-6], dtype=complex)
    ca = cluster_assign(lam, s=2)
    centers = sorted(bounds._image(*ca.centers).real)
    assert abs(centers[0] - (1.0 + 2e-6 / 3)) < 1e-12
    assert abs(centers[1] - 5.0) < 1e-12
    assert ca.epsilon < 3e-6
    # members of one cloud share a center
    groups = {}
    for i, g in enumerate(ca.center_of):
        groups.setdefault(int(g), []).append(i)
    sizes = sorted(len(v) for v in groups.values())
    assert sizes == [2, 3]


def test_cluster_assign_radius_matches_s_mode():
    lam = np.array([1.0, 1.001, 0.999, 3.0, 3.002], dtype=complex)
    by_radius = cluster_assign(lam, radius=0.01)
    by_count = cluster_assign(lam, s=2)
    cr = sorted(bounds._image(*by_radius.centers).real)
    cs = sorted(bounds._image(*by_count.centers).real)
    assert np.allclose(cr, cs, atol=1e-14)


def test_cluster_assign_explicit_centers_verbatim():
    lam = np.array([1.1, 0.9, 5.3], dtype=complex)
    ca = cluster_assign(lam, centers=[1.0, 5.0])
    cen = bounds._image(*ca.centers)
    assert cen[0] == 1.0 and cen[1] == 5.0   # never recentered
    off = bounds._image(*ca.offsets)
    assert np.allclose(off, [0.1, -0.1, 0.3], atol=1e-15)
    assert abs(ca.epsilon - 0.3) < 1e-15


def test_cluster_assign_identical_values_single_center():
    lam = np.ones(4, dtype=complex)
    ca = cluster_assign(lam, radius=1e-8)
    assert ca.s == 1
    assert ca.epsilon == 0.0


def test_cluster_assign_validates_requests():
    lam = np.array([1.0, 1.0, 2.0], dtype=complex)
    with pytest.raises(ValueError):
        cluster_assign(lam, s=3)            # only two distinct values
    with pytest.raises(ValueError):
        cluster_assign(lam)                 # no mode chosen
    with pytest.raises(ValueError):
        cluster_assign(lam, s=2, radius=0.1)
    with pytest.raises(InapplicableError):
        cluster_assign(lam, centers=[0.0, 1.0])
    for radius in (-1.0, -1e-300, math.nan):
        with pytest.raises(ValueError, match="radius"):
            cluster_assign(lam, radius=radius)


def test_cluster_assign_radius_zero_joins_exact_ties_only():
    lam = np.array([1.0, 1.0, 1.0 + 1e-15, 2.0], dtype=complex)
    ca = cluster_assign(lam, radius=0.0)
    assert ca.s == 3
    assert ca.center_of[0] == ca.center_of[1] != ca.center_of[2]
    assert ca.epsilon == 0.0


def test_cluster_poly_bound_zero_when_centers_hit_spectrum():
    lam = np.array([1.0, 2.0, 3.0], dtype=complex)
    q = random_orthogonal(3, seed=17)
    e = _eigendata_from(q, lam, np.array([1.0, 1.0, 1.0]))
    ca = cluster_assign(lam, centers=[1.0, 2.0, 3.0])
    val = _fl(cluster_poly_bound(e, ca, 3))
    assert val <= 1e-20


def test_cluster_poly_bound_k1_single_cluster_closed_form():
    lam = np.array([1.0 + 1e-3, 1.0 - 2e-3, 1.0 + 3e-3], dtype=complex)
    e = _eigendata_from(np.eye(3), lam, np.ones(3))
    ca = cluster_assign(lam, centers=[1.0])
    got = _fl(cluster_poly_bound(e, ca, 1))
    want = np.linalg.norm(lam - 1.0)       # f(z) = z - 1, unit prefactor
    assert abs(got - want) < 1e-15


def test_cluster_poly_bound_scales_linearly_in_offsets():
    base = np.array([1e-3, -2e-3, 3e-3, 1e-3j])
    q = random_orthogonal(4, seed=31)
    for t in (0.5, 0.25):
        lam1 = 1.0 + base
        lam2 = 1.0 + t * base
        e1 = _eigendata_from(q, lam1, np.ones(4))
        e2 = _eigendata_from(q, lam2, np.ones(4))
        ca1 = cluster_assign(lam1, centers=[1.0])
        ca2 = cluster_assign(lam2, centers=[1.0])
        r = _fl(cluster_poly_bound(e2, ca2, 1)) / \
            _fl(cluster_poly_bound(e1, ca1, 1))
        assert abs(r - t) < 0.1 * t


def test_frame_norm_is_computed_once_per_eigendata(monkeypatch):
    calls = []
    real = bounds.weighted_norm
    monkeypatch.setattr(bounds, "weighted_norm",
                        lambda e: calls.append(e) or real(e))
    lam = np.array([1.0 + 1e-6, 1.0 - 1e-6, 4.0 + 1e-6], dtype=complex)
    e = _eigendata_from(random_orthogonal(3, seed=37), lam,
                        np.array([0.5, 1.0, 2.0]))
    ca = cluster_assign(lam, centers=[1.0, 4.0])
    series = bound_curve(e, 3)
    for k in (1, 2, 3):
        cluster_poly_bound(e, ca, k)
    for k in (2, 3):
        first_order_estimate(e, ca, k)
    assert calls == [e]
    assert series.prefactor is e.frame_norm


# ------------------------------------------------- first-order estimate

def test_first_order_single_center_closed_form():
    lam = (1.0 + 1e-8 * np.arange(1, 6)).astype(complex)
    q = random_orthogonal(5, seed=41)
    e = _eigendata_from(q, lam, np.ones(5))
    ca = cluster_assign(lam, centers=[1.0])
    got = _fl(first_order_estimate(e, ca, 2))
    # offsets lam - 1 are exact in binary64 for values this close to one
    eps = np.sort((lam - 1.0).real)[::-1]
    want = _fl(weighted_norm(e)) * eps[1] * math.sqrt(4.0) * eps[0] / \
        (1.0 + eps[0])
    assert abs(got - want) < 1e-12 * want


def test_first_order_tracks_true_polynomial_norm():
    eps = 1e-8 * np.arange(1, 6)
    lam = (1.0 + eps).astype(complex)
    q = random_orthogonal(5, seed=43)
    e = _eigendata_from(q, lam, np.ones(5))
    ca = cluster_assign(lam, centers=[1.0])
    k = 2
    est = _fl(first_order_estimate(e, ca, k))
    # direct norm of f over the non-root eigenvalues
    roots = [1.0, 1.0 + 5e-8]
    f = np.array([-np.prod([1.0 - z / r for r in roots]) for z in lam])
    true = np.linalg.norm(f)
    # the estimate freezes the slope at the center, so it overstates
    # entries whose offset is comparable to the eigenvalue root's
    assert true <= est * 1.01
    assert est <= 8.0 * true


def test_first_order_multi_center_linear_in_offsets():
    # power-of-two offsets are exactly representable, so halving them
    # halves the estimate bit for bit
    d13, d12 = 2.0 ** -13, 2.0 ** -12
    lam1 = np.array([1.0 + d13, 1.0 - d13, 4.0 + d12, 4.0 - 3 * d13],
                    dtype=complex)
    lam2 = np.array([1.0 + d13 / 2, 1.0 - d13 / 2, 4.0 + d12 / 2,
                     4.0 - 3 * d13 / 2], dtype=complex)
    centers = [1.0, 4.0]
    q = random_orthogonal(4, seed=47)
    e1 = _eigendata_from(q, lam1, np.ones(4))
    e2 = _eigendata_from(q, lam2, np.ones(4))
    ca1 = cluster_assign(lam1, centers=centers)
    ca2 = cluster_assign(lam2, centers=centers)
    v1 = _fl(first_order_estimate(e1, ca1, 2))
    v2 = _fl(first_order_estimate(e2, ca2, 2))
    assert v1 > 0.0
    assert v2 == pytest.approx(0.5 * v1, rel=1e-12)  # k = s: exactly linear


def test_first_order_multi_center_scaling_with_eigen_roots():
    rng = np.random.default_rng(3)
    base = 1e-5 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    centers = [1.0, 3.0]
    assign = np.array([0, 0, 0, 1, 1, 1])
    q = random_orthogonal(6, seed=53)
    vals = {}
    for t in (1.0, 0.5, 0.25):
        lam = np.array([centers[g] for g in assign]) + t * base
        e = _eigendata_from(q, lam, np.ones(6))
        ca = cluster_assign(lam, centers=centers)
        vals[t] = _fl(first_order_estimate(e, ca, 3))   # one eigen root
    for t in (0.5, 0.25):
        r = vals[t] / vals[1.0]
        assert abs(r - t) <= 0.1 * t


def test_first_order_exact_cluster_is_zero():
    lam = np.array([1.0, 1.0, 4.0], dtype=complex)
    q = random_orthogonal(3, seed=59)
    e = _eigendata_from(q, lam, np.ones(3))
    ca = cluster_assign(lam, centers=[1.0, 4.0])
    assert _fl(first_order_estimate(e, ca, 2)) == 0.0


def test_first_order_requires_enough_iterations():
    lam = np.array([1.0 + 1e-6, 4.0 - 1e-6], dtype=complex)
    q = random_orthogonal(2, seed=61)
    e = _eigendata_from(q, lam, np.ones(2))
    ca = cluster_assign(lam, centers=[1.0, 4.0])
    with pytest.raises(InapplicableError):
        first_order_estimate(e, ca, 1)


def test_first_order_skips_exact_center_members():
    # second cluster sits exactly on its center: contributes nothing
    lam = np.array([1.0 + 1e-6, 1.0 - 1e-6, 4.0], dtype=complex)
    q = random_orthogonal(3, seed=67)
    e = _eigendata_from(q, lam, np.ones(3))
    ca = cluster_assign(lam, centers=[1.0, 4.0])
    est = _fl(first_order_estimate(e, ca, 2))
    # f' at center 1 of f(z) = -(1 - z)(1 - z/4); two members remain
    fp = abs(1.0 * (1.0 - 1.0 / 4.0))
    eps_eff = float(np.abs(lam[:2] - 1.0).max())
    want = eps_eff * math.sqrt(2.0) * fp
    assert est == pytest.approx(want, rel=1e-10)


def test_modulus_scales_to_avoid_overflow():
    # |x + iy| at 2**600 and 2**-600, where the parts' squares overflow
    # or underflow, is the unscaled value times the scale, bit for bit
    def mod(e):
        x = dd.asdd(np.ldexp([3.0, 0.0, 1.0], e))
        y = dd.asdd(np.ldexp([4.0, 0.0, 1.0], e))
        return bounds._modulus(x, y)

    ref = mod(0)
    assert ref.hi[:2].tolist() == [5.0, 0.0]
    assert ref.lo[:2].tolist() == [0.0, 0.0]
    root2 = dd.sqrt(dd.asdd(2.0))
    assert (ref.hi[2], ref.lo[2]) == (root2.hi, root2.lo)
    for e in (600, -600):
        got = mod(e)
        assert np.array_equal(got.hi, np.ldexp(ref.hi, e))
        assert np.array_equal(got.lo, np.ldexp(ref.lo, e))


# ----------------------------------------- cluster bounds against mpmath

def _mp_cluster_values(mp, lam, centers, center_of, k):
    """The cluster bound's norm of f and the first-order estimate's
    eps_eff ||f'||, both without the prefactor, at 60 digits: f(z) =
    -prod(1 - z/r) over the centers and the k - s eigenvalues farthest
    from theirs, as exact roots."""
    z = [mp.mpc(x) for x in lam]
    c = [mp.mpc(x) for x in centers]
    w = [z[i] - c[g] for i, g in enumerate(center_of)]
    off = [abs(x) for x in w]
    # farthest first, ties by argument, as _descending_offset_order
    far = sorted(range(len(z)), key=lambda i: (-off[i], mp.arg(w[i]), i))
    s = len(c)
    roots = c + [z[i] for i in far[:k - s]]

    def f(x):
        return -mp.fprod(1 - x / r for r in roots)

    def fprime(g):
        return mp.fprod(1 - c[g] / r for j, r in enumerate(roots)
                        if j != g) / c[g]

    norm = mp.sqrt(mp.fsum(abs(f(x)) ** 2 for x in z))
    rest = [i for i in far[k - s:] if off[i] != 0]
    first = max(off[i] for i in rest) * mp.sqrt(
        mp.fsum(abs(fprime(center_of[i])) ** 2 for i in rest))
    return norm, first


def _rel_to(mp, got, want):
    got = mp.mpf(float(got.hi)) + mp.mpf(float(got.lo))
    return abs(got - want) / want


def test_cluster_bounds_match_mpmath_on_conjugate_centers():
    # three points around 1 and two conjugate pairs around 3 +- 0.5i;
    # at k = s..s+2 both values are DD-accurate products of moduli
    mp = pytest.importorskip("mpmath").mp
    p = 3.0 + 0.5j
    lam = np.array([1.0 + 1e-7, 1.0 - 2e-7, 1.0 + 3e-8,
                    p + (2e-7 + 1e-7j), np.conj(p + (2e-7 + 1e-7j)),
                    p - (5e-8 - 3e-7j), np.conj(p - (5e-8 - 3e-7j))])
    centers = [1.0, p, np.conj(p)]
    e = _eigendata_from(np.eye(7), lam, np.ones(7))
    ca = cluster_assign(lam, centers=centers)
    assert ca.center_of.tolist() == [0, 0, 0, 1, 2, 1, 2]
    with mp.workdps(60):
        for k in (3, 4, 5):
            norm, first = _mp_cluster_values(mp, lam, centers,
                                             ca.center_of, k)
            got = cluster_poly_bound(e, ca, k) / e.frame_norm
            assert _rel_to(mp, got, norm) < 1e-27, k
            got = first_order_estimate(e, ca, k) / e.frame_norm
            assert _rel_to(mp, got, first) < 1e-27, k


def test_first_order_center_near_one_is_not_taken_as_one():
    # a center near 1 is taken as given: rounding 1 + 2**-30 to 1 moves
    # the estimate by 2.3e-4 relative at k = 2 and 7.8e-5 at k = 3
    mp = pytest.importorskip("mpmath").mp
    c = 1.0 + 2.0 ** -30
    lam = c + 1e-6 * np.array([3.0, -2.0, 1.0, 0.5, -4.0])
    e = _eigendata_from(np.eye(5), lam, np.ones(5))
    ca = cluster_assign(lam, centers=[c])
    with mp.workdps(60):
        for k in (2, 3):
            _, first = _mp_cluster_values(mp, lam, [c], ca.center_of, k)
            got = first_order_estimate(e, ca, k) / e.frame_norm
            assert _rel_to(mp, got, first) < 1e-27, k


# ---------------------------------------------------------- determinism

def _scaled_bytes(values, k):
    # the bytes of 2**k values, scaled part by part
    if isinstance(values, dd.CDD):
        return _bytes(dd.CDD(dd.ldexp(values.re, k), dd.ldexp(values.im, k)))
    return _bytes(np.ldexp(values.real, k) + 1j * np.ldexp(values.imag, k))


@pytest.mark.parametrize("kind", ["f64", "dd"])
def test_eigensolve_and_bound_do_not_depend_on_scale(kind):
    # A 2**k has the values of A times 2**k, bit for bit, and the same
    # vectors and bound curve.  Unscaled, binary64 failed the residual
    # check from k = -52 and DD from k = -105, because every value lay
    # within the separation floor of every other, and Francis QR
    # overflowed from k = 250 (DD) and 300 (binary64)
    a0 = np.random.default_rng(11).standard_normal((10, 10))
    b = np.arange(1.0, 11.0)
    if kind == "dd":
        b = dd.asdd(b)

    def run(k):
        a = np.ldexp(a0, k)
        a = dd.asdd(a) if kind == "dd" else a
        eo = eig_nonsymmetric(a)
        series = bound_curve(decompose_rhs(a, b), 6)
        return eo, [_bytes(series.prefactor)] + \
            [_bytes(p.bound) for p in series.points]

    eo, curve = run(0)
    assert np.count_nonzero(dd.approx(eo.values).imag) >= 2
    for k in (-800, -300, -105, -52, -1, 1, 52, 250, 300, 800):
        got, got_curve = run(k)
        assert _bytes(got.values) == _scaled_bytes(eo.values, k)
        assert _bytes(got.vectors) == _bytes(eo.vectors)
        assert got_curve == curve


def test_bound_chain_is_bit_deterministic():
    n = 6
    q = random_orthogonal(n, seed=71)
    lam = np.array([1.0, 1.0 + 1e-7, 1.0 - 1e-7, 2.0, 2.0 + 1e-7, 3.0])
    a = q @ np.diag(lam) @ q.T
    rng = np.random.default_rng(5)
    b = rng.standard_normal(n)

    def run():
        e = decompose_rhs(a, b)
        series = bound_curve(e, 4)
        ca = cluster_assign(e.lambdas, s=3)
        vals = [dd.to_str(abs(pt.bound), 34) for pt in series.points]
        vals.append(dd.to_str(abs(cluster_poly_bound(e, ca, 3)), 34))
        vals.append(dd.to_str(abs(first_order_estimate(e, ca, 3)), 34))
        return vals

    assert run() == run()
