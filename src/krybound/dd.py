"""Double-double extended precision arithmetic on numpy arrays.

A double-double number is an unevaluated sum hi + lo of two binary64
values with |lo| <= ulp(hi)/2, giving roughly 31 significant decimal
digits (unit roundoff EPS = 2^-104).  ``DD`` holds arrays of such pairs
(any shape, including 0-d scalars) as two parallel float64 arrays, so
every operation is a short fixed sequence of vectorized numpy kernels.
``CDD`` layers complex on top as a re/im pair of ``DD``.

All error-free transforms are branch-free IEEE-754 identities; products
use Dekker splitting (no fma on this platform).  Results are normalized
after every operation.  No subnormal-range guarantees below ~1e-290.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal, localcontext

import numpy as np

__all__ = [
    "DD", "CDD", "EPS", "EPS64",
    "asdd", "ascdd", "zeros", "czeros", "ones", "eye",
    "from_str", "to_str", "format_float",
    "norm2", "vdot", "approx", "conj", "zeros_like", "eye_like",
    "kind_of", "is_extended", "is_complexkind", "eps_of", "complex_like",
]

EPS = 2.0 ** -104          # double-double unit roundoff
EPS64 = float(np.finfo(np.float64).eps)

_SPLITTER = 134217729.0    # 2**27 + 1 (Dekker)


# ---------------------------------------------------------------- kernels

def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a, b):
    # requires |a| >= |b| (or a == 0)
    s = a + b
    err = b - (s - a)
    return s, err


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _add2(xh, xl, yh, yl):
    sh, se = _two_sum(xh, yh)
    th, te = _two_sum(xl, yl)
    se = se + th
    sh, se = _quick_two_sum(sh, se)
    se = se + te
    return _quick_two_sum(sh, se)


def _mul2(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return _quick_two_sum(p, e)


def _div2(xh, xl, yh, yl):
    # long division with two refinement steps
    q1 = xh / yh
    p, e = _mul2(yh, yl, q1, 0.0)
    rh, rl = _add2(xh, xl, -p, -e)
    q2 = rh / yh
    p, e = _mul2(yh, yl, q2, 0.0)
    rh, rl = _add2(rh, rl, -p, -e)
    q3 = rh / yh
    sh, sl = _quick_two_sum(q1, q2)
    return _add2(sh, sl, q3, 0.0)


def _sqrt2(h, l):
    # Karp: one Newton refinement from a binary64 seed
    zero = h == 0.0
    hs = np.where(zero, 1.0, h)
    ls = np.where(zero, 0.0, l)
    x = 1.0 / np.sqrt(hs)
    ax = hs * x
    sq_h, sq_e = _two_prod(ax, ax)
    eh, _ = _add2(hs, ls, -sq_h, -sq_e)
    rh, rl = _add2(ax, np.zeros_like(ax), eh * (x * 0.5), np.zeros_like(ax))
    return np.where(zero, 0.0, rh), np.where(zero, 0.0, rl)


def _tree_sum(h, l, axis):
    # binary-tree reduction; zero padding is exact, order is fixed
    if h.ndim == 2 and axis in (0, -2):
        h, l = h.T, l.T
    elif axis not in (-1, h.ndim - 1):
        h = np.moveaxis(h, axis, -1)
        l = np.moveaxis(l, axis, -1)
    n = h.shape[-1]
    if n == 0:
        return np.zeros(h.shape[:-1]), np.zeros(h.shape[:-1])
    m = 1 << (n - 1).bit_length()
    if m != n:
        pad = np.zeros(h.shape[:-1] + (m - n,))
        h = np.concatenate([h, pad], axis=-1)
        l = np.concatenate([l, pad], axis=-1)
    while h.shape[-1] > 1:
        half = h.shape[-1] // 2
        h, l = _add2(h[..., :half], l[..., :half], h[..., half:], l[..., half:])
    return h[..., 0], l[..., 0]


def _apply(kernel, xh, xl, yh, yl):
    # 0-d operands run the kernel on Python floats, which skips numpy's
    # per-call overhead; every IEEE operation and its order stay the
    # same, and so does the result, wrapped as the np.float64 that
    # indexing returns
    if xh.ndim == 0 and yh.ndim == 0:
        h, l = kernel(float(xh), float(xl), float(yh), float(yl))
        return DD._raw(np.float64(h), np.float64(l))
    return DD._raw(*kernel(xh, xl, yh, yl))


# ---------------------------------------------------------------- real DD

class DD:
    """Array of double-double reals."""

    __slots__ = ("hi", "lo")
    __array_ufunc__ = None  # keep numpy from hijacking mixed arithmetic
    __hash__ = None

    def __init__(self, hi, lo=None):
        hi = np.asarray(hi, dtype=np.float64)
        if lo is None:
            lo = np.zeros_like(hi)
        else:
            lo = np.asarray(lo, dtype=np.float64)
            if lo.shape != hi.shape:
                lo = np.broadcast_to(lo, hi.shape).copy()
            hi, lo = _two_sum(hi, lo)
        self.hi = hi
        self.lo = lo

    @classmethod
    def _raw(cls, hi, lo):
        out = object.__new__(cls)
        out.hi = hi
        out.lo = lo
        return out

    # -- shape plumbing
    @property
    def shape(self):
        return self.hi.shape

    @property
    def ndim(self):
        return self.hi.ndim

    @property
    def size(self):
        return self.hi.size

    @property
    def T(self):
        return DD._raw(self.hi.T, self.lo.T)

    def copy(self):
        return DD._raw(self.hi.copy(), self.lo.copy())

    def reshape(self, *shape):
        return DD._raw(self.hi.reshape(*shape), self.lo.reshape(*shape))

    def __len__(self):
        return len(self.hi)

    def __getitem__(self, idx):
        return DD._raw(self.hi[idx], self.lo[idx])

    def __setitem__(self, idx, value):
        v = asdd(value)
        self.hi[idx] = v.hi
        self.lo[idx] = v.lo

    # -- arithmetic
    def __add__(self, other):
        o = _coerce(other)
        if isinstance(o, CDD):
            return ascdd(self) + o
        if o is NotImplemented:
            return NotImplemented
        return _apply(_add2, self.hi, self.lo, o.hi, o.lo)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if isinstance(o, CDD):
            return ascdd(self) - o
        if o is NotImplemented:
            return NotImplemented
        return _apply(_add2, self.hi, self.lo, -o.hi, -o.lo)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _coerce(other)
        if isinstance(o, CDD):
            return ascdd(self) * o
        if o is NotImplemented:
            return NotImplemented
        return _apply(_mul2, self.hi, self.lo, o.hi, o.lo)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if isinstance(o, CDD):
            return ascdd(self) / o
        if o is NotImplemented:
            return NotImplemented
        if np.any(o.hi == 0.0):
            raise ZeroDivisionError("double-double division by zero")
        return _apply(_div2, self.hi, self.lo, o.hi, o.lo)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if isinstance(o, CDD):
            return o / ascdd(self)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return DD._raw(-self.hi, -self.lo)

    def __abs__(self):
        neg = self.hi < 0.0
        return DD._raw(np.where(neg, -self.hi, self.hi),
                       np.where(neg, -self.lo, self.lo))

    def __matmul__(self, other):
        o = _coerce(other)
        if isinstance(o, CDD):
            return ascdd(self) @ o
        if o is NotImplemented:
            return NotImplemented
        return _matmul(self, o)

    def __rmatmul__(self, other):
        o = _coerce(other)
        if isinstance(o, CDD):
            return o @ ascdd(self)
        if o is NotImplemented:
            return NotImplemented
        return _matmul(o, self)

    # -- comparisons (elementwise; valid for normalized pairs)
    def _cmp(self, other, op):
        o = _coerce(other)
        if o is NotImplemented or isinstance(o, CDD):
            return NotImplemented
        d = _add2(self.hi, self.lo, -o.hi, -o.lo)[0]
        return op(d, 0.0)

    def __lt__(self, other):
        return self._cmp(other, np.less)

    def __le__(self, other):
        return self._cmp(other, np.less_equal)

    def __gt__(self, other):
        return self._cmp(other, np.greater)

    def __ge__(self, other):
        return self._cmp(other, np.greater_equal)

    def __eq__(self, other):
        return self._cmp(other, np.equal)

    def __ne__(self, other):
        return self._cmp(other, np.not_equal)

    # -- reductions / conversions
    def sum(self, axis=None):
        if axis is None:
            h, l = self.hi.ravel(), self.lo.ravel()
            return DD._raw(*_tree_sum(h, l, 0))
        return DD._raw(*_tree_sum(self.hi, self.lo, axis))

    def conj(self):
        return self

    def to_float(self):
        return self.hi + self.lo

    def __float__(self):
        if self.ndim != 0:
            raise TypeError("only 0-d DD converts to float")
        return float(self.hi + self.lo)

    def __repr__(self):
        if self.ndim == 0:
            return f"DD({to_str(self, 31)})"
        return f"DD(shape={self.shape})"


def _coerce(x):
    if isinstance(x, (DD, CDD)):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return DD._raw(np.float64(x), np.float64(0.0))
    if isinstance(x, (complex, np.complexfloating)):
        return CDD(DD(x.real), DD(x.imag))
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            return CDD(DD(x.real.copy()), DD(x.imag.copy()))
        return DD(x.astype(np.float64, copy=True))
    return NotImplemented


def asdd(x):
    v = _coerce(x)
    if v is NotImplemented:
        raise TypeError(f"cannot convert {type(x).__name__} to DD")
    if isinstance(v, CDD):
        raise TypeError("complex value cannot convert to real DD")
    return v


# ---------------------------------------------------------------- complex

class CDD:
    """Array of double-double complex numbers (re/im pair of DD)."""

    __slots__ = ("re", "im")
    __array_ufunc__ = None
    __hash__ = None

    def __init__(self, re, im=None):
        self.re = asdd(re)
        self.im = zeros(self.re.shape) if im is None else asdd(im)
        if self.im.shape != self.re.shape:
            raise ValueError("re/im shape mismatch")

    @property
    def shape(self):
        return self.re.shape

    @property
    def ndim(self):
        return self.re.ndim

    @property
    def size(self):
        return self.re.size

    @property
    def T(self):
        return CDD(self.re.T, self.im.T)

    def copy(self):
        return CDD(self.re.copy(), self.im.copy())

    def reshape(self, *shape):
        return CDD(self.re.reshape(*shape), self.im.reshape(*shape))

    def __len__(self):
        return len(self.re)

    def __getitem__(self, idx):
        return CDD(self.re[idx], self.im[idx])

    def __setitem__(self, idx, value):
        v = ascdd(value)
        self.re[idx] = v.re
        self.im[idx] = v.im

    def conj(self):
        return CDD(self.re, -self.im)

    def __add__(self, other):
        o = _coerce_c(other)
        if o is NotImplemented:
            return NotImplemented
        return CDD(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce_c(other)
        if o is NotImplemented:
            return NotImplemented
        return CDD(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _coerce_c(other)
        if o is NotImplemented:
            return NotImplemented
        return CDD(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce_c(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if np.any(d.hi == 0.0):
            raise ZeroDivisionError("complex double-double division by zero")
        n = self * o.conj()
        return CDD(n.re / d, n.im / d)

    def __rtruediv__(self, other):
        o = _coerce_c(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return CDD(-self.re, -self.im)

    def __abs__(self):
        # scaled hypot: exact power-of-two scaling avoids overflow
        m = np.maximum(np.abs(self.re.hi), np.abs(self.im.hi))
        e = np.frexp(np.where(m == 0.0, 1.0, m))[1]
        s = np.ldexp(1.0, -e)
        re = DD._raw(self.re.hi * s, self.re.lo * s)
        im = DD._raw(self.im.hi * s, self.im.lo * s)
        r = _sqrt_dd(re * re + im * im)
        inv = np.ldexp(1.0, e)
        return DD._raw(r.hi * inv, r.lo * inv)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def __matmul__(self, other):
        o = _coerce_c(other)
        if o is NotImplemented:
            return NotImplemented
        re = _matmul(self.re, o.re) - _matmul(self.im, o.im)
        im = _matmul(self.re, o.im) + _matmul(self.im, o.re)
        return CDD(re, im)

    def __rmatmul__(self, other):
        o = _coerce_c(other)
        if o is NotImplemented:
            return NotImplemented
        return o @ self

    def __eq__(self, other):
        o = _coerce_c(other)
        if o is NotImplemented:
            return NotImplemented
        return (self.re == o.re) & (self.im == o.im)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else ~eq

    def sum(self, axis=None):
        return CDD(self.re.sum(axis), self.im.sum(axis))

    def to_complex(self):
        return self.re.to_float() + 1j * self.im.to_float()

    def __complex__(self):
        if self.ndim != 0:
            raise TypeError("only 0-d CDD converts to complex")
        return complex(self.to_complex())

    def __repr__(self):
        if self.ndim == 0:
            return f"CDD({to_str(self.re, 31)} + {to_str(self.im, 31)}j)"
        return f"CDD(shape={self.shape})"


def _coerce_c(x):
    v = _coerce(x)
    if v is NotImplemented:
        return NotImplemented
    if isinstance(v, DD):
        return CDD(v, zeros(v.shape))
    return v


def ascdd(x):
    v = _coerce_c(x)
    if v is NotImplemented:
        raise TypeError(f"cannot convert {type(x).__name__} to CDD")
    return v


# ---------------------------------------------------------------- matmul

def _matmul(a, b):
    """Real DD matmul for 1-d/2-d operands, tree-summed, chunked over k."""
    if a.ndim == 1 and b.ndim == 1:
        return (a * b).sum()
    if a.ndim == 2 and b.ndim == 1:
        p = a * DD._raw(b.hi[None, :], b.lo[None, :])
        return p.sum(axis=1)
    if a.ndim == 1 and b.ndim == 2:
        p = DD._raw(a.hi[:, None], a.lo[:, None]) * b
        return p.sum(axis=0)
    if a.ndim == 2 and b.ndim == 2:
        m, k = a.shape
        k2, n = b.shape
        if k != k2:
            raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
        if m * k * n <= 2_000_000:
            p = DD._raw(a.hi[:, :, None], a.lo[:, :, None]) * \
                DD._raw(b.hi[None, :, :], b.lo[None, :, :])
            return p.sum(axis=1)
        # fixed 64-column blocks keep memory flat and the result deterministic
        acc = zeros((m, n))
        for j0 in range(0, k, 64):
            j1 = min(j0 + 64, k)
            p = DD._raw(a.hi[:, j0:j1, None], a.lo[:, j0:j1, None]) * \
                DD._raw(b.hi[None, j0:j1, :], b.lo[None, j0:j1, :])
            acc = acc + p.sum(axis=1)
        return acc
    raise TypeError("unsupported matmul ranks")


def _sqrt_dd(x):
    if np.any(x.hi < 0.0):
        raise ValueError("sqrt of negative double-double")
    return DD._raw(*_sqrt2(x.hi, x.lo))


# ---------------------------------------------------------------- factories

def zeros(shape):
    return DD._raw(np.zeros(shape), np.zeros(shape))


def czeros(shape):
    return CDD(zeros(shape), zeros(shape))


def ones(shape):
    return DD._raw(np.ones(shape), np.zeros(shape))


def eye(n):
    return DD._raw(np.eye(n), np.zeros((n, n)))


def stack(xs):
    """Join same-shape arrays or scalars of one kind on a new first axis."""
    x0 = xs[0]
    if isinstance(x0, CDD):
        return CDD(stack([x.re for x in xs]), stack([x.im for x in xs]))
    if isinstance(x0, DD):
        return DD._raw(np.stack([x.hi for x in xs]),
                       np.stack([x.lo for x in xs]))
    return np.stack(xs)


# ---------------------------------------------------------------- decimal io

def from_str(s):
    """Parse a decimal string to DD (0-d), correctly to ~1 ulp."""
    with localcontext() as ctx:
        ctx.prec = 80
        d = Decimal(s)
        hi = float(d)
        lo = float(d - Decimal(hi))
    return DD(np.float64(hi), np.float64(lo))


def to_str(x, digits=34):
    """Format 0-d DD as scientific decimal, round-half-even."""
    x = asdd(x)
    if x.ndim != 0:
        raise TypeError("to_str takes a 0-d DD")
    with localcontext() as ctx:
        ctx.prec = 80
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(float(x.hi)) + Decimal(float(x.lo))
        if d == 0:
            mant = "0." + "0" * (digits - 1)
            return f"{mant}e+00"
        sign = "-" if d < 0 else ""
        d = abs(d)
        e = d.adjusted()
        scaled = d.scaleb(-e)
        q = scaled.quantize(Decimal(1).scaleb(-(digits - 1)))
        if q >= 10:  # rounding crossed a power of ten
            q = q.scaleb(-1)
            e += 1
            q = q.quantize(Decimal(1).scaleb(-(digits - 1)))
    return f"{sign}{q}e{e:+03d}"


def format_float(x, digits=17):
    """Scientific notation for binary64 with fixed significant digits."""
    return np.format_float_scientific(float(x), precision=digits - 1,
                                      unique=False, exp_digits=2)


# ---------------------------------------------------------------- dispatch

def kind_of(x):
    if isinstance(x, CDD):
        return "cdd"
    if isinstance(x, DD):
        return "dd"
    x = np.asarray(x)
    return "c128" if np.iscomplexobj(x) else "f64"


def is_extended(x):
    return isinstance(x, (DD, CDD))


def is_complexkind(x):
    return isinstance(x, CDD) or (not isinstance(x, DD)
                                  and np.iscomplexobj(np.asarray(x)))


def eps_of(x):
    return EPS if is_extended(x) else EPS64


def zeros_like(x, shape=None, field=None):
    """Zeros with x's precision; field overrides real/complex."""
    if shape is None:
        shape = x.shape
    cplx = is_complexkind(x) if field is None else (field == "complex")
    if is_extended(x):
        return czeros(shape) if cplx else zeros(shape)
    return np.zeros(shape, dtype=np.complex128 if cplx else np.float64)


def eye_like(x, n):
    if is_extended(x):
        return eye(n) if not is_complexkind(x) else CDD(eye(n), zeros((n, n)))
    return np.eye(n, dtype=np.complex128 if np.iscomplexobj(x) else np.float64)


def complex_like(x):
    """Promote an array to the complex field of the same precision."""
    if isinstance(x, CDD):
        return x
    if isinstance(x, DD):
        return CDD(x.copy(), zeros(x.shape))
    return np.asarray(x, dtype=np.complex128)


def conj(x):
    if isinstance(x, (DD, CDD)):
        return x.conj()
    return np.conj(x)


def approx(x):
    """Cheap float64/complex128 image, for pivot choices and diagnostics."""
    if isinstance(x, DD):
        return x.to_float()
    if isinstance(x, CDD):
        return x.to_complex()
    return np.asarray(x)


def sqrt(x):
    """Elementwise square root of a real array (DD or float64)."""
    if isinstance(x, DD):
        return _sqrt_dd(x)
    if isinstance(x, CDD):
        raise TypeError("complex sqrt not supported")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("sqrt of negative value")
    return np.sqrt(x)


def absval(x):
    """Elementwise modulus; real DD for extended kinds."""
    if isinstance(x, (DD, CDD)):
        return abs(x)
    return np.abs(np.asarray(x))


def norm2(v):
    """Euclidean norm of a vector or Frobenius norm of a matrix."""
    if isinstance(v, DD):
        return _sqrt_dd((v * v).sum())
    if isinstance(v, CDD):
        return _sqrt_dd((v.re * v.re + v.im * v.im).sum())
    return np.linalg.norm(v)


def vdot(u, v):
    """Inner product conj(u).v (first argument conjugated)."""
    if isinstance(u, (DD, CDD)) or isinstance(v, (DD, CDD)):
        if isinstance(u, CDD) or isinstance(v, CDD):
            uc = ascdd(u)
            vc = ascdd(v)
            return (uc.conj() * vc).sum()
        return (asdd(u) * asdd(v)).sum()
    u = np.asarray(u)
    v = np.asarray(v)
    if np.iscomplexobj(u) or np.iscomplexobj(v):
        return np.vdot(u, v)
    return float(np.dot(u, v))


def isfinite_all(x):
    if isinstance(x, DD):
        return bool(np.all(np.isfinite(x.hi)))
    if isinstance(x, CDD):
        return bool(np.all(np.isfinite(x.re.hi)) and np.all(np.isfinite(x.im.hi)))
    return bool(np.all(np.isfinite(x)))
