"""Double-double arithmetic against a 64-digit software-decimal oracle."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from krybound import dd
from krybound.dd import CDD, DD


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
    with pytest.raises(ZeroDivisionError):
        DD(1.0) / DD(0.0)
    with pytest.raises(ZeroDivisionError):
        CDD(DD(1.0)) / CDD(DD(0.0))


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
