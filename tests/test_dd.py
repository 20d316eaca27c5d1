"""Double-double arithmetic against a 64-digit software-decimal oracle."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krybound import dd
from krybound.dd import CDD, DD
from krybound.errors import DimensionMismatchError, InvalidMatrixError


def _oracle(x):
    # exact decimal image of a DD scalar
    return Decimal(float(x.hi)) + Decimal(float(x.lo))


def _rand_dd(rng, n, scale=1.0):
    hi = rng.standard_normal(n) * scale
    lo = rng.standard_normal(n) * scale * 2.0 ** -53
    return DD(hi, lo)


def _rel_err_vs_decimal(got, want):
    if want == 0:
        return abs(_oracle(got))
    return abs((_oracle(got) - want) / want)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_ops_match_decimal_oracle(op):
    rng = np.random.Generator(np.random.Philox(key=7))
    x = _rand_dd(rng, 200)
    y = _rand_dd(rng, 200)
    if op == "div":
        y = abs(y) + 0.5
    got = {"add": x + y, "sub": x - y, "mul": x * y, "div": x / y}[op]
    with localcontext() as ctx:
        ctx.prec = 64
        for i in range(200):
            a, b = _oracle(x[i]), _oracle(y[i])
            want = {"add": a + b, "sub": a - b, "mul": a * b, "div": a / b}[op]
            assert _rel_err_vs_decimal(got[i], want) < Decimal("1e-31")


def _scalar_operands(rng, n):
    # magnitudes from 1e-140 to 1e140, both signs, and signed zeros
    hi = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-140, 140, n)
    x = DD(hi, hi * rng.uniform(-1.0, 1.0, n) * 2.0 ** -53)
    zeros = DD._raw(np.array([0.0, -0.0, 0.0, -0.0]),
                    np.array([0.0, 0.0, -0.0, -0.0]))
    return DD._raw(np.concatenate([x.hi, zeros.hi]),
                   np.concatenate([x.lo, zeros.lo]))


def _bits(x):
    return np.asarray(x.hi).tobytes() + np.asarray(x.lo).tobytes()


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_scalar_ops_match_array_ops_bitwise(op):
    fn = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
          "mul": lambda a, b: a * b, "div": lambda a, b: a / b}[op]
    rng = np.random.Generator(np.random.Philox(key=11))
    x = _scalar_operands(rng, 60)
    y = _scalar_operands(rng, 60)
    for i in range(len(x)):
        for j in range(len(y)):
            if op == "div" and y.hi[j] == 0.0:
                with pytest.raises(ZeroDivisionError):
                    fn(x[i], y[j])
                continue
            got = fn(x[i], y[j])
            assert got.ndim == 0 and isinstance(got.hi, np.float64)
            assert _bits(got) == _bits(fn(x[i:i + 1], y[j:j + 1]))
        # a Python float operand on either side
        for other in (2.5, -0.0):
            if op != "div" or other != 0.0:
                assert _bits(fn(x[i], other)) == \
                    _bits(fn(x[i:i + 1], other))
            if op != "div" or x.hi[i] != 0.0:
                assert _bits(fn(other, x[i])) == \
                    _bits(fn(other, x[i:i + 1]))


def test_sum_along_each_axis_matches_1d_sums_bitwise():
    rng = np.random.Generator(np.random.Philox(key=12))
    x = _rand_dd(rng, 7 * 5 * 3).reshape(7, 5, 3)
    m = x[:, :, 0]
    for j in range(5):
        assert _bits(m.sum(axis=0)[j]) == _bits(m[:, j].sum())
    for i in range(7):
        assert _bits(m.sum(axis=-1)[i]) == _bits(m[i].sum())
    assert _bits(x.sum(axis=1)[2, 1]) == _bits(x[2, :, 1].sum())


def test_mul_then_div_round_trips():
    rng = np.random.Generator(np.random.Philox(key=11))
    x = _rand_dd(rng, 100)
    y = abs(_rand_dd(rng, 100)) + 0.25
    z = (x * y) / y
    err = abs(z - x).to_float()
    assert np.all(err <= 1e-30 * np.abs(x.to_float()) + 1e-300)


def test_third_times_three():
    third = DD(1.0) / DD(3.0)
    back = third * 3.0
    assert abs(float(back - 1.0)) < 1e-31


def test_sqrt_self_consistent():
    rng = np.random.Generator(np.random.Philox(key=13))
    x = abs(_rand_dd(rng, 100)) + 0.01
    r = dd.sqrt(x)
    err = abs(r * r - x).to_float()
    assert np.all(err <= 4e-31 * x.to_float())
    two = dd.sqrt(DD(2.0))
    assert abs(float(two * two - 2.0)) < 1e-31
    assert float(dd.sqrt(DD(4.0))) == 2.0
    assert float(dd.sqrt(DD(0.0))) == 0.0
    with pytest.raises(ValueError):
        dd.sqrt(DD(-1.0))


def test_scalar_sqrt_matches_array_sqrt_bitwise():
    rng = np.random.Generator(np.random.Philox(key=14))
    special = [0.0, -0.0, 0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
               1.0, 4.0]
    hi = np.concatenate([special, 10.0 ** rng.uniform(-320, 300, 400)])
    lo = hi * rng.uniform(-1.0, 1.0, hi.size) * 2.0 ** -54
    lo[:4] = [0.0, 0.0, -0.0, -0.0]
    x = DD._raw(hi, lo)
    want = dd.sqrt(x)
    for i in range(x.size):
        got = dd.sqrt(x[i])
        assert isinstance(got.hi, np.float64)
        assert _bits(got) == _bits(want[i:i + 1])
    with pytest.raises(ValueError):
        dd.sqrt(DD(-5e-324))


def test_summation_matches_64_digit_decimal():
    rng = np.random.Generator(np.random.Philox(key=17))
    x = _rand_dd(rng, 10_000)
    s = x.sum()
    with localcontext() as ctx:
        ctx.prec = 64
        want = sum((_oracle(x[i]) for i in range(10_000)), Decimal(0))
        rel = abs((_oracle(s) - want) / want)
    assert rel < Decimal("1e-28")


def test_associativity_defect_bounded():
    rng = np.random.Generator(np.random.Philox(key=19))
    for _ in range(300):
        a, b, c = (_rand_dd(rng, 1)[0] for _ in range(3))
        left = (a + b) + c
        right = a + (b + c)
        bound = 1e-30 * (abs(float(a)) + abs(float(b)) + abs(float(c)))
        assert abs(float(left - right)) <= bound


def test_normalization_invariant():
    rng = np.random.Generator(np.random.Philox(key=23))
    x = _rand_dd(rng, 500)
    y = _rand_dd(rng, 500)
    for z in (x + y, x * y, x / (abs(y) + 0.5)):
        ulp = np.spacing(np.abs(z.hi))
        assert np.all(np.abs(z.lo) <= 0.5 * ulp + 1e-320)


def test_division_by_zero_raises():
    one, zero = DD(1.0), DD(1.0) - DD(1.0)         # 0-d array, 0-d scalar
    for x, y in ((one, DD(0.0)), (one, DD(-0.0)), (one, 0.0), (one, zero),
                 (zero, zero), (DD([1.0, 2.0]), DD([3.0, 0.0])),
                 (DD([1.0, 2.0]), 0.0), (one, DD([3.0, -0.0]))):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            x / y
    with pytest.raises(ZeroDivisionError):
        CDD(DD(1.0)) / CDD(DD(0.0))
    with pytest.raises(ZeroDivisionError):
        CDD(DD([1.0, 2.0])) / CDD(DD([1.0, 0.0]))
    # only an exact zero raises: a NaN divisor gives NaN, as it always has
    assert np.isnan((one / DD(np.nan)).hi)
    assert np.isnan((DD([1.0, 2.0]) / DD([1.0, np.nan])).hi).tolist() == \
        [False, True]


def test_comparisons_and_abs():
    a = DD(1.0, 1e-20)
    b = DD(1.0)
    assert bool(a > b) and bool(b < a) and bool(a != b)
    assert bool(abs(DD(-3.5)) == DD(3.5))
    hi = np.array([2.0, -1.0])
    v = DD(hi)
    assert list(v > 0.0) == [True, False]


def test_complex_basics():
    i = CDD(DD(0.0), DD(1.0))
    m = i * i
    assert float(m.re) == -1.0 and float(m.im) == 0.0
    z = CDD(DD(3.0), DD(4.0))
    assert abs(float(abs(z) - 5.0)) < 1e-30
    w = z.conj() * z
    assert abs(float(w.re - 25.0)) < 1e-29 and float(w.im) == 0.0


def test_complex_conj_product_is_abs_squared():
    rng = np.random.Generator(np.random.Philox(key=29))
    z = CDD(_rand_dd(rng, 200), _rand_dd(rng, 200))
    lhs = (z.conj() * z).re.to_float()
    rhs = z.abs2().to_float()
    assert np.all(np.abs(lhs - rhs) <= 1e-30 * np.abs(rhs) + 1e-300)


def test_scaled_abs_avoids_overflow():
    z = CDD(DD(3e150), DD(4e150))
    assert np.isfinite(float(abs(z)))
    assert abs(float(abs(z)) - 5e150) < 1e136


def test_complex_division():
    z = CDD(DD(1.0), DD(2.0))
    w = CDD(DD(3.0), DD(-4.0))
    q = (z * w) / w
    assert abs(float(q.re - 1.0)) < 1e-30
    assert abs(float(q.im - 2.0)) < 1e-30


def test_matmul_against_float_triple_loop():
    rng = np.random.Generator(np.random.Philox(key=31))
    A = rng.standard_normal((7, 5))
    B = rng.standard_normal((5, 6))
    got = (dd.asdd(A) @ dd.asdd(B)).to_float()
    assert np.allclose(got, A @ B, rtol=0, atol=1e-13)
    v = rng.standard_normal(5)
    assert np.allclose((dd.asdd(A) @ dd.asdd(v)).to_float(), A @ v, atol=1e-13)
    u = rng.standard_normal(7)
    assert np.allclose((dd.asdd(u) @ dd.asdd(A)).to_float(), u @ A, atol=1e-13)


def _sparse_dd(rng, m, k, density):
    # zero entries come out as +0 and -0
    hi = rng.standard_normal((m, k)) * (rng.random((m, k)) < density)
    return DD._raw(hi, hi * rng.uniform(-1.0, 1.0, (m, k)) * 2.0 ** -53)


def _assert_matvec_is_dense_tree(a, b):
    want = _bits(dd._matvec(a, b))
    assert _bits(a @ b) == want
    # the sparse operator of a, and the transpose of a^T's operator
    assert _bits(dd.SparseDD.from_dense(a) @ b) == want
    assert _bits(dd.SparseDD.from_dense(a.T).T @ b) == want


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 24),
       k=st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 31, 32, 33, 64, 100]),
       density=st.sampled_from([0.0, 0.01, 0.05, 0.0625, 0.2, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_zero_skipping_matvec_matches_dense_tree_bytes(m, k, density, seed):
    rng = np.random.default_rng(seed)
    a = _sparse_dd(rng, m, k, density)
    _assert_matvec_is_dense_tree(a, _rand_dd(rng, k))
    _assert_matvec_is_dense_tree(a.T, _rand_dd(rng, m))


@pytest.mark.parametrize("density", [0.005, 0.01, 0.02, 0.05, 0.0625, 0.1])
def test_zero_skipping_matvec_densities(density):
    rng = np.random.Generator(np.random.Philox(key=41))
    a = _sparse_dd(rng, 60, 300, density)
    _assert_matvec_is_dense_tree(a, _rand_dd(rng, 300, scale=1e3))
    _assert_matvec_is_dense_tree(a.T, _rand_dd(rng, 60))
    for b in (dd.zeros(300), -dd.zeros(300)):
        _assert_matvec_is_dense_tree(a, b)


def test_zero_skipping_matvec_signed_zeros_and_zero_rows():
    k = 48                               # the tree pads rows to 64
    hi = np.zeros((7, k))
    hi[0] = -0.0                         # negative zeros only
    # row 1 stays empty
    hi[2, [3, 35]] = [1.5, -1.5]         # cancels at the first level
    hi[3, [3, 35, 7]] = [1.5, -1.5, 2.0]  # a zero node inside the tree
    hi[4, [0, 1]] = [1.0, -1.0]          # cancels at the last level
    hi[5, 5] = 1e-300                    # its product underflows to zero
    hi[6, [2, 9, 40]] = [-2.0, 3.0, -0.0]
    a = DD._raw(hi, np.where(hi == 2.0, 2.0 ** -60, -0.0 * hi))
    assert np.count_nonzero(hi) * 16 <= hi.size
    b = np.ones(k)
    b[5] = 1e-300
    b[[9, 10]] = [-0.0, 0.0]
    for lo in (np.zeros(k), np.full(k, -0.0), b * 2.0 ** -70):
        _assert_matvec_is_dense_tree(a, DD._raw(b, lo))
    for v in (dd.zeros(k), -dd.zeros(k)):
        _assert_matvec_is_dense_tree(a, v)
    _assert_matvec_is_dense_tree(a.T, DD._raw(np.arange(7.0) - 3.0,
                                              np.zeros(7)))
    # m x 1 and 1 x n, with zero rows and signed zeros
    u = DD._raw(np.arange(7.0) - 3.0, np.full(7, -0.0))
    for col in (2, 5, 9):
        _assert_matvec_is_dense_tree(a[:, col:col + 1], DD._raw(b[:1], lo[:1]))
        _assert_matvec_is_dense_tree(a[:, col:col + 1].T, u)
    for row in (0, 1, 6):
        _assert_matvec_is_dense_tree(a[row:row + 1], DD._raw(b, lo))
        _assert_matvec_is_dense_tree(a[row:row + 1].T, u[:1])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e305])
def test_zero_skipping_matvec_keeps_dense_nans(bad):
    # a zero entry times inf, NaN, or a value whose Dekker split
    # overflows is NaN in the dense products, so every row is NaN
    rng = np.random.Generator(np.random.Philox(key=42))
    a = _sparse_dd(rng, 20, 64, 0.03)
    b = _rand_dd(rng, 64)
    b.hi[7], b.lo[7] = bad, 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        got = a @ b
        assert _bits(got) == _bits(dd._matvec(a, b))
        assert _bits(dd.SparseDD.from_dense(a) @ b) == _bits(got)
        # wide enough that the operator's dense rows go in blocks of 7
        w = _sparse_dd(rng, 10, (1 << 17) + 1, 1e-4)
        v = _rand_dd(rng, w.shape[1])
        v.hi[7], v.lo[7] = bad, 0.0
        assert _bits(dd.SparseDD.from_dense(w) @ v) == _bits(w @ v)
    assert np.isnan(got.hi).all()


def test_zero_skipping_matvec_complex_operands():
    rng = np.random.Generator(np.random.Philox(key=43))
    a = CDD(_sparse_dd(rng, 30, 200, 0.03), _sparse_dd(rng, 30, 200, 0.03))
    b = CDD(_rand_dd(rng, 200), _rand_dd(rng, 200))
    d = dd._matvec
    for x, y in ((a, b), (a.re, b), (a, b.re)):
        x, y = dd.ascdd(x), dd.ascdd(y)
        got = x @ y
        assert _bits(got.re) == _bits(d(x.re, y.re) - d(x.im, y.im))
        assert _bits(got.im) == _bits(d(x.re, y.im) + d(x.im, y.re))
    u = CDD(_rand_dd(rng, 30), _rand_dd(rng, 30))
    got = a.T @ u
    assert _bits(got.re) == _bits(d(a.re.T, u.re) - d(a.im.T, u.im))


def test_sparse_operator_rejects_complex_input_by_name():
    rng = np.random.Generator(np.random.Philox(key=44))
    a = _sparse_dd(rng, 12, 40, 0.05)
    for x in (a.hi + 1j * a.lo, CDD(a, a)):
        with pytest.raises(InvalidMatrixError, match="complex input"):
            dd.SparseDD.from_dense(x)
    op = dd.SparseDD.from_dense(a)
    for v in (CDD(_rand_dd(rng, 40)), np.ones(40) * 1j):
        with pytest.raises(InvalidMatrixError, match="real operands"):
            op @ v
    with pytest.raises(DimensionMismatchError, match="length 40"):
        op @ _rand_dd(rng, 12)


def test_asmatrix_takes_the_sparse_form_at_one_sixteenth():
    a = np.zeros((8, 16))
    a[0, :8] = 1.0                      # 8 nonzeros of 128: exactly 1/16
    op = dd.asmatrix(a)
    assert isinstance(op, dd.SparseDD) and len(op.rows) == 8
    assert _bits(op.todense()) == _bits(dd.asdd(a))
    a[1, 0] = -0.0                      # a signed zero is not a nonzero
    assert isinstance(dd.asmatrix(a), dd.SparseDD)
    a[1, 1] = 2.0
    for x in (a, np.zeros((8, 16)), np.zeros((3, 0))):
        assert isinstance(dd.asmatrix(x), DD)
    assert dd.dense(op) is not op and dd.dense(a) is a


def _triples(a):
    # what the Matrix Market reader gives: every entry but +0.0
    rows, cols = np.nonzero((a != 0.0) | np.signbit(a) | np.isnan(a))
    return dd.Triples(a.shape, rows, cols, a[rows, cols])


def test_asmatrix_takes_triples_as_their_dense_array():
    # the same 1/16 rule, a signed zero not counted, and the same fields
    a = np.zeros((8, 16))
    a[0, :8] = 1.0
    a[1, 0] = -0.0
    op = dd.asmatrix(_triples(a))
    want = dd.SparseDD.from_dense(a)
    assert isinstance(op, dd.SparseDD) and op.shape == want.shape
    for got, ref in ((op.rows, want.rows), (op.cols, want.cols),
                     (op.values.hi, want.values.hi),
                     (op.values.lo, want.values.lo)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    a[1, 1] = 2.0
    for x in (a, np.zeros((8, 16)), np.zeros((3, 0))):
        got = dd.asmatrix(_triples(x))
        assert isinstance(got, DD) and _bits(got) == _bits(dd.asdd(x))
    assert _triples(a).toarray().flags.c_contiguous


def test_tree_sum_is_deterministic_and_exact_for_ints():
    x = DD(np.arange(1000, dtype=float))
    assert float(x.sum()) == 999 * 1000 / 2
    y = DD(np.arange(1000, dtype=float))
    s1, s2 = x.sum(), y.sum()
    assert s1.hi == s2.hi and s1.lo == s2.lo


def test_string_round_trip_34_digits():
    cases = ["1", "-2.5", "3.141592653589793238462643383279503",
             "1.000000000000000000000000000000001e-07",
             "9.999999999999999999999999999999999e+20"]
    for s in cases:
        x = dd.from_str(s)
        y = dd.from_str(dd.to_str(x, 34))
        with localcontext() as ctx:
            ctx.prec = 64
            a, b = _oracle(x), _oracle(y)
            if a == 0:
                assert b == 0
            else:
                assert abs((a - b) / a) < Decimal("1e-30")


def test_to_str_format():
    assert dd.to_str(DD(1.0), 8) == "1.0000000e+00"
    assert dd.to_str(DD(-0.5), 4) == "-5.000e-01"
    assert dd.to_str(dd.zeros(()), 6).startswith("0.00000")
    with localcontext() as ctx:
        ctx.prec = 50
        # carry across a power of ten must renormalize the exponent
        assert dd.to_str(DD(0.9999999), 4) == "1.000e+00"


def test_format_float_17_digits():
    s = dd.format_float(1.0 / 3.0)
    assert s == "3.3333333333333331e-01"


def test_mixed_numpy_interop():
    a = np.array([1.0, 2.0])
    x = DD(np.array([3.0, 4.0]))
    assert np.allclose((a * x).to_float(), [3.0, 8.0])
    assert np.allclose((x + a).to_float(), [4.0, 6.0])
    assert np.allclose((a - x).to_float(), [-2.0, -2.0])
    assert isinstance(a @ np.eye(2) @ x, DD)


def test_setitem_and_views():
    x = dd.zeros((3, 3))
    x[0, 0] = DD(2.0, 1e-20)
    x[1] = np.ones(3)
    assert float(x[0, 0]) == 2.0
    assert x.hi[1, 2] == 1.0
    row = x[1]
    row[0] = 5.0
    assert x.hi[1, 0] == 5.0  # views share storage


def test_zeros_like_dispatch():
    assert isinstance(dd.zeros_like(dd.zeros(3), (2,)), DD)
    assert isinstance(dd.zeros_like(dd.czeros(3), (2,)), CDD)
    assert dd.zeros_like(np.zeros(3), (2,)).dtype == np.float64
    z = dd.zeros_like(np.zeros(3, dtype=complex), (2,))
    assert z.dtype == np.complex128
    assert isinstance(dd.zeros_like(dd.zeros(3), (2,), field="complex"), CDD)


def test_norm_and_vdot_dispatch():
    v = DD(np.array([3.0, 4.0]))
    assert abs(float(dd.norm2(v)) - 5.0) < 1e-30
    u = CDD(DD(np.array([0.0, 1.0])), DD(np.array([1.0, 0.0])))
    ip = dd.vdot(u, u)
    assert abs(float(ip.re) - 2.0) < 1e-30 and abs(float(ip.im)) < 1e-30
    assert dd.vdot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def _vdot_bits(x):
    if isinstance(x, CDD):
        return _vdot_bits(x.re) + _vdot_bits(x.im)
    if isinstance(x, DD):
        return np.asarray(x.hi).tobytes() + np.asarray(x.lo).tobytes()
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("kind", ["dd", "cdd", "f64", "c128"])
@pytest.mark.parametrize("k,n", [(1, 1), (3, 5), (7, 12), (4, 33),
                                 (13, 100), (5, 1682)])
def test_vdot_rows_are_bitwise_the_1d_call(kind, k, n):
    # a 2-d first argument gives one inner product per row, each with
    # the bytes of the 1-d call on that row (the row conjugated); the
    # rows are the leading rows of a larger array, as a Krylov basis
    rng = np.random.default_rng(100 * k + n)

    def make(shape):
        if kind in ("dd", "cdd"):
            x = _rand_dd(rng, shape, scale=rng.uniform(0.1, 10.0))
            if kind == "cdd":
                x = CDD(x, _rand_dd(rng, shape))
            return x
        x = rng.standard_normal(shape) * rng.uniform(0.1, 10.0)
        return x + 1j * rng.standard_normal(shape) if kind == "c128" else x

    q = make((k + 2, n))[:k]
    w = make(n)
    rows = dd.vdot(q, w)
    assert rows.shape == (k,)
    for i in range(k):
        assert _vdot_bits(rows[i]) == _vdot_bits(dd.vdot(q[i], w))
