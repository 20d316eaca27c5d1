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

import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

import numpy as np

from .errors import DimensionMismatchError, InvalidMatrixError

__all__ = [
    "DD", "CDD", "SparseDD", "Triples", "EPS", "EPS64",
    "asdd", "ascdd", "asmatrix", "dense", "zeros", "czeros", "ones",
    "from_str", "to_str", "format_float",
    "norm2", "vdot", "approx", "conj", "zeros_like",
    "is_extended", "is_complexkind", "eps_of", "complex_like",
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


def _sqrt2(h, l, sqrt):
    # Karp: one Newton refinement from a binary64 seed; h > 0
    x = 1.0 / sqrt(h)
    ax = h * x
    sq_h, sq_e = _two_prod(ax, ax)
    eh, _ = _add2(h, l, -sq_h, -sq_e)
    return _add2(ax, 0.0, eh * (x * 0.5), 0.0)


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


def _any_zero(h):
    # np.any's dispatch costs more than a 0-d division itself
    return (h == 0.0) if h.ndim == 0 else (h == 0.0).any()


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
        if _any_zero(o.hi):
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
        if _any_zero(d.hi):
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
        return _matvec(a, b)
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


# On 858x1682 (2 vCPU Intel Xeon, numpy 2.4) the dense tree takes about
# 0.06 us per entry and a zero-skipping product built per call 0.39 us
# per nonzero at 1% density (0.20-0.22 us at 5-10%), so they break even
# near 1/4 density. Its fixed cost per tree level is larger, so on small
# matrices it gains less or loses: 137 us against 200 on a 64x64
# identity, 92 against 73 on 16x16. asmatrix holds a matrix as its
# nonzeros when at most 1/16 of its entries are nonzero, which leaves
# room for that fixed cost.
_SPARSE_FRACTION = 16


def _matvec(a, b):
    # DD products, then the fixed tree along each row
    return (a * DD._raw(b.hi[None, :], b.lo[None, :])).sum(axis=1)


def _skips_zeros(b):
    # a zero entry times b[j] is zero while b[j] and its Dekker split
    # are finite; otherwise only the dense products give the NaNs
    return np.isfinite(_SPLITTER * b.hi).all() and np.isfinite(b.lo).all()


class _TreePlan:
    """The dense tree sum of a @ b pruned to a's nonzeros, built once
    from a's (row, column, value) triples and applied to any b whose
    entries and Dekker splits are finite.

    The dense tree pads each row to 2**bits and at each level adds node
    j to node j + half. With a finite b whose Dekker split is finite,
    the kernels never produce a -0: a zero entry of a gives (+0, +0),
    and _add2 of (+0, +0) and y, in either order, returns y. So the
    tree pruned of its all-zero subtrees gives the same bytes, and a
    node without a partner passes up unchanged.
    """

    __slots__ = ("m", "cols", "hi", "lo", "levels", "rows", "roots")

    def __init__(self, shape, rows, cols, hi, lo):
        m, k = shape
        bits = (k - 1).bit_length()
        rev = np.zeros_like(cols)
        for i in range(bits):
            rev |= ((cols >> i) & 1) << (bits - 1 - i)
        # in (row, bit-reversed column) order the two nodes that a level
        # adds are neighbours, the lower column first
        order = np.argsort((rows << bits) | rev)
        rows, cols = rows[order], cols[order]
        self.m, self.cols, self.hi, self.lo = m, cols, hi[order], lo[order]
        key = (rows << bits) | cols
        at = np.arange(len(key))     # each live node's place in the products
        # per level that adds anything: the places of its pairs' nodes;
        # a sum goes to its left node's place
        self.levels = []
        for level in reversed(range(bits)):
            half = 1 << level
            # partners share the row and the column mod half
            agree = ~((1 << bits) - half)
            left = np.flatnonzero(((key[:-1] ^ key[1:]) & agree) == 0)
            if len(left):
                self.levels.append((at[left], at[left + 1]))
                keep = np.ones(len(key), dtype=bool)
                keep[left + 1] = False
                key, at = key[keep], at[keep]
        self.rows, self.roots = key >> bits, at

    def apply(self, b):
        h, l = _mul2(self.hi, self.lo, b.hi[self.cols], b.lo[self.cols])
        for left, right in self.levels:
            h[left], l[left] = _add2(h[left], l[left], h[right], l[right])
        hi = np.zeros(self.m)
        lo = np.zeros(self.m)
        hi[self.rows] = h[self.roots]
        lo[self.rows] = l[self.roots]
        return DD._raw(hi, lo)


# ---------------------------------------------------------------- sparse

class SparseDD:
    """A real double-double matrix held as its nonzeros.

    rows, cols and values are the (row, column, value) triples of the
    entries that are not zero, values a 1-d DD. ``a @ v`` for a 1-d v
    gives the bytes of the dense DD product (NaN signs aside) from one
    gather, one product and the tree levels of a plan that each
    orientation builds on its first product; ``a.T`` is the transpose,
    on the same triples, and the same object at every call.
    """

    __slots__ = ("shape", "rows", "cols", "values", "_plan", "_t")
    __array_ufunc__ = None  # keep numpy from hijacking mixed arithmetic

    def __init__(self, shape, rows, cols, values):
        self.shape = tuple(shape)
        self.rows, self.cols, self.values = rows, cols, values
        self._plan = None
        self._t = None

    @classmethod
    def from_dense(cls, a):
        """The nonzeros of a real 2-d DD or binary64 array."""
        if isinstance(a, DD):
            hi, lo = a.hi, a.lo
        elif isinstance(a, CDD) or np.iscomplexobj(a):
            raise InvalidMatrixError(
                "a sparse DD matrix is real; got complex input")
        else:
            hi, lo = np.asarray(a, dtype=np.float64), None
        if hi.ndim != 2:
            raise DimensionMismatchError(
                f"a sparse DD matrix is 2-d; got shape {hi.shape}")
        if lo is None:
            rows, cols = np.nonzero(hi)
            values = DD._raw(hi[rows, cols], np.zeros(len(rows)))
        else:
            rows, cols = np.nonzero((hi != 0.0) | (lo != 0.0))
            values = DD._raw(hi[rows, cols], lo[rows, cols])
        return cls(hi.shape, rows, cols, values)

    @property
    def T(self):
        # no link back: a reference cycle would keep both plans alive
        # until the cyclic collector runs
        if self._t is None:
            self._t = SparseDD(self.shape[::-1], self.cols, self.rows,
                               self.values)
        return self._t

    def todense(self):
        out = zeros(self.shape)
        out.hi[self.rows, self.cols] = self.values.hi
        out.lo[self.rows, self.cols] = self.values.lo
        return out

    def __matmul__(self, other):
        b = _coerce(other)
        if b is NotImplemented:
            return NotImplemented
        if isinstance(b, CDD):
            raise InvalidMatrixError(
                "a sparse DD matrix multiplies real operands; got complex")
        if b.shape != self.shape[1:]:
            raise DimensionMismatchError(
                f"sparse matmul takes a vector of length {self.shape[1]}; "
                f"got shape {b.shape}")
        if not _skips_zeros(b):
            return self._dense_rows_matvec(b)
        if self._plan is None:
            self._plan = _TreePlan(self.shape, self.rows, self.cols,
                                   self.values.hi, self.values.lo)
        return self._plan.apply(b)

    def _dense_rows_matvec(self, b):
        # only the dense products give a non-finite operand's NaNs; each
        # row's tree is its own, so the dense rows go in blocks of about
        # 2**20 entries and the error path never holds the whole matrix
        m, n = self.shape
        step = max(1, (1 << 20) // max(n, 1))
        out = zeros((m,))
        for r0 in range(0, m, step):
            r1 = min(r0 + step, m)
            e = np.flatnonzero((self.rows >= r0) & (self.rows < r1))
            block = zeros((r1 - r0, n))
            block[self.rows[e] - r0, self.cols[e]] = self.values[e]
            out[r0:r1] = _matvec(block, b)
        return out


class Triples:
    """A real binary64 matrix as its (row, column, value) triples in
    row-major order, its +0.0 entries left out: -0.0, NaN and the
    infinities keep their places.  What the Matrix Market reader gives;
    asmatrix takes it as it takes the dense array."""

    __slots__ = ("shape", "rows", "cols", "values")

    def __init__(self, shape, rows, cols, values):
        self.shape = tuple(shape)
        self.rows, self.cols, self.values = rows, cols, values

    def toarray(self):
        """The dense matrix, a C-contiguous float64 array."""
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.values
        return out


def asmatrix(a):
    """The DD image of a real binary64 matrix, a dense array or Triples:
    its nonzeros as a SparseDD when at most 1/_SPARSE_FRACTION of its
    entries are nonzero, else the dense DD array."""
    if isinstance(a, Triples):
        # -0.0 counts as zero, as in count_nonzero and from_dense
        nz = np.flatnonzero(a.values)
        if 0 < len(nz) * _SPARSE_FRACTION <= math.prod(a.shape):
            return SparseDD(a.shape, a.rows[nz], a.cols[nz],
                            DD._raw(a.values[nz], np.zeros(len(nz))))
        a = a.toarray()
    a = np.asarray(a)
    if 0 < np.count_nonzero(a) * _SPARSE_FRACTION <= a.size:
        return SparseDD.from_dense(a)
    return asdd(a)


def dense(x):
    """x as an array: a SparseDD's dense DD matrix, anything else as is."""
    return x.todense() if isinstance(x, SparseDD) else x


def _sqrt_dd(x):
    if x.ndim == 0:
        # Python floats, as _apply runs the binary kernels
        h = float(x.hi)
        if h < 0.0:
            raise ValueError("sqrt of negative double-double")
        if h == 0.0:
            return DD._raw(np.float64(0.0), np.float64(0.0))
        rh, rl = _sqrt2(h, float(x.lo), math.sqrt)
        return DD._raw(np.float64(rh), np.float64(rl))
    if np.any(x.hi < 0.0):
        raise ValueError("sqrt of negative double-double")
    zero = x.hi == 0.0
    rh, rl = _sqrt2(np.where(zero, 1.0, x.hi), np.where(zero, 0.0, x.lo),
                    np.sqrt)
    return DD._raw(np.where(zero, 0.0, rh), np.where(zero, 0.0, rl))


# ---------------------------------------------------------------- factories

def zeros(shape):
    return DD._raw(np.zeros(shape), np.zeros(shape))


def czeros(shape):
    return CDD(zeros(shape), zeros(shape))


def ones(shape):
    return DD._raw(np.ones(shape), np.zeros(shape))


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

def is_extended(x):
    return isinstance(x, (DD, CDD, SparseDD))


def is_complexkind(x):
    return isinstance(x, CDD) or (not isinstance(x, (DD, SparseDD))
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


def norm2(v):
    """Euclidean norm of a vector or Frobenius norm of a matrix."""
    if isinstance(v, DD):
        return _sqrt_dd((v * v).sum())
    if isinstance(v, CDD):
        return _sqrt_dd((v.re * v.re + v.im * v.im).sum())
    return np.linalg.norm(v)


def vdot(u, v):
    """Inner product conj(u).v (first argument conjugated).

    A 2-d u gives one product per row, each with the bytes of the 1-d
    call on that row as a contiguous vector.
    """
    if isinstance(u, (DD, CDD)) or isinstance(v, (DD, CDD)):
        if isinstance(u, CDD) or isinstance(v, CDD):
            return (ascdd(u).conj() * ascdd(v)).sum(axis=-1)
        return (asdd(u) * asdd(v)).sum(axis=-1)
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim == 2:
        # a stack of (1, n) @ (n, 1) products: numpy's matmul runs each
        # on the BLAS dot that np.dot and np.vdot call, where the
        # matrix-vector product would change the summation order; BLAS
        # sums a strided vector in another order than a contiguous one
        u = np.ascontiguousarray(u)
        return (u.conj()[:, None, :] @ v[:, None])[:, 0, 0]
    if np.iscomplexobj(u) or np.iscomplexobj(v):
        return np.vdot(u, v)
    return float(np.dot(u, v))


def isfinite_all(x):
    if isinstance(x, DD):
        return bool(np.all(np.isfinite(x.hi)))
    if isinstance(x, CDD):
        return bool(np.all(np.isfinite(x.re.hi)) and np.all(np.isfinite(x.im.hi)))
    return bool(np.all(np.isfinite(x)))
