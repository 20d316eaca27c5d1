"""Dense kernels generic over precision (binary64 arrays or DD/CDD).

Everything here is written against the small shared dialect of numpy
ndarrays and the double-double array classes: elementwise operators,
slicing, `@`, and the dispatch helpers in :mod:`krybound.dd`.  Pivot and
branch decisions use cheap float64 images of the data; arithmetic stays
in the working precision throughout.  Factorizations are hand-rolled on
purpose: they must run unchanged in extended precision, which rules out
LAPACK-backed calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dd
from .dd import CDD, DD
from .errors import (DimensionMismatchError, NumericalFailureError,
                     SingularMatrixError)

__all__ = [
    "matvec", "transpose_matvec", "householder_qr", "apply_q_adjoint",
    "apply_q", "form_q", "lstsq", "LstsqResult", "jacobi_svd", "SvdResult",
    "eig_nonsymmetric", "EigenResult", "solve_linear", "lu_factor",
    "lu_solve", "spectral_norm", "condition_number_2", "random_orthogonal",
    "seeded_rng", "max_subspace_angle",
]


def seeded_rng(seed):
    """Counter-based 64-bit generator (numpy Philox 4x64) keyed by seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


def _f(x):
    """float64 image of a real scalar of any kind."""
    return float(dd.approx(x))


def _outer(u, v):
    return u[:, None] * v[None, :]


def _re_part(x):
    if isinstance(x, CDD):
        return x.re
    if isinstance(x, DD):
        return x
    return x.real if isinstance(x, (complex, np.complexfloating)) else x


def _copy_scalar(s):
    return s.copy() if isinstance(s, (DD, CDD)) else s


def _phase_of(alpha):
    """alpha/|alpha| for a scalar; None where alpha == 0 (treat as 1)."""
    a = abs(alpha)
    if _f(a) == 0.0:
        return None
    return alpha / a


def _conj_scalar(x):
    if isinstance(x, (DD, CDD)):
        return x.conj()
    return np.conj(x)


def matvec(a, x):
    m, n = a.shape
    if x.shape != (n,):
        raise DimensionMismatchError(f"matvec: {a.shape} with {x.shape}")
    return a @ x


def transpose_matvec(a, x):
    m, n = a.shape
    if x.shape != (m,):
        raise DimensionMismatchError(
            f"transpose_matvec: {a.shape} with {x.shape}")
    return a.T @ x


# ----------------------------------------------------------------- QR

@dataclass
class QRFactorization:
    reflectors: list      # v_j acting on rows j:, None for identity steps
    vnorm2: list          # v_j^H v_j (real scalar, working precision)
    r: object             # m x n upper triangular
    perm: np.ndarray      # column permutation: A[:, perm] = Q @ R
    scale: float          # |R[0,0]| image, threshold base for rank cuts


def householder_qr(a, pivot=False):
    """QR by Householder reflections H = I - 2 v v^H / (v^H v).

    Real or complex input in either precision; with ``pivot`` columns
    are brought forward greedily by largest remaining norm.
    """
    r = a.copy()
    m, n = r.shape
    k = min(m, n)
    perm = np.arange(n)
    reflectors: list = []
    vnorm2: list = []
    for j in range(k):
        if pivot:
            img = dd.approx(r[j:, j:])
            norms = np.sqrt((np.abs(img) ** 2).sum(axis=0))
            best = j + int(np.argmax(norms))
            if best != j:
                _swap_cols(r, j, best)
                perm[[j, best]] = perm[[best, j]]
        x = r[j:, j].copy()
        normx = dd.norm2(x)
        if _f(normx) == 0.0:
            reflectors.append(None)
            vnorm2.append(None)
            continue
        ph = _phase_of(x[0])
        beta = -normx if ph is None else -(ph * normx)
        v = x
        v[0] = v[0] - beta
        vn = _re_part(dd.vdot(v, v))
        if _f(vn) == 0.0:
            reflectors.append(None)
            vnorm2.append(None)
            continue
        reflectors.append(v)
        vnorm2.append(vn)
        if j + 1 < n:
            w = dd.conj(v) @ r[j:, j + 1:]
            r[j:, j + 1:] = r[j:, j + 1:] - _outer(v, w) * (2.0 / vn)
        r[j, j] = beta
        if j + 1 < m:
            r[j + 1:, j] = dd.zeros_like(r, (m - j - 1,))
    scale = abs(_f(abs(r[0, 0]))) if k > 0 else 0.0
    return QRFactorization(reflectors, vnorm2, r, perm, scale)


def _swap_cols(a, i, j):
    tmp = a[:, i].copy()
    a[:, i] = a[:, j]
    a[:, j] = tmp


def apply_q_adjoint(qr, b):
    """Q^H b (reflectors applied forward)."""
    y = b.copy()
    for j, v in enumerate(qr.reflectors):
        if v is None:
            continue
        w = dd.vdot(v, y[j:])
        y[j:] = y[j:] - v * (w * (2.0 / qr.vnorm2[j]))
    return y


def apply_q(qr, y):
    """Q y (reflectors applied in reverse)."""
    x = y.copy()
    for j in reversed(range(len(qr.reflectors))):
        v = qr.reflectors[j]
        if v is None:
            continue
        w = dd.vdot(v, x[j:])
        x[j:] = x[j:] - v * (w * (2.0 / qr.vnorm2[j]))
    return x


def form_q(qr, m, ncols=None):
    """Dense m x ncols slice of Q (default square)."""
    ncols = m if ncols is None else ncols
    x = dd.zeros_like(qr.r, (m, ncols))
    for i in range(min(m, ncols)):
        x[i, i] = 1.0
    for j in reversed(range(len(qr.reflectors))):
        v = qr.reflectors[j]
        if v is None:
            continue
        w = dd.conj(v) @ x[j:, :]
        x[j:, :] = x[j:, :] - _outer(v, w) * (2.0 / qr.vnorm2[j])
    return x


# ----------------------------------------------------------------- lstsq

@dataclass
class LstsqResult:
    x: object
    residual_norm: object   # attained ||a x - b||, working precision
    rank: int


def lstsq(a, b, rcond=None):
    """Minimize ||a y - b||_2 by column-pivoted Householder QR.

    Pivots below eps^(2/3) * |R[0,0]| (or rcond * |R[0,0]|) are
    truncated for the rank decision; the residual is the attained one.
    """
    m, n = a.shape
    if b.shape != (m,):
        raise DimensionMismatchError(f"lstsq: {a.shape} with rhs {b.shape}")
    qr = householder_qr(a, pivot=True)
    y = apply_q_adjoint(qr, b)
    eps = dd.eps_of(a)
    thresh = (eps ** (2.0 / 3.0) if rcond is None else rcond) * qr.scale
    rank = 0
    for j in range(min(m, n)):
        if abs(_f(abs(qr.r[j, j]))) > thresh:
            rank += 1
        else:
            break
    g = y[:rank].copy()
    z = dd.zeros_like(g, (rank,))
    for i in reversed(range(rank)):
        zi = g[i] / qr.r[i, i]
        z[i] = zi
        if i:
            g[:i] = g[:i] - qr.r[:i, i] * zi
    x = dd.zeros_like(b, (n,))
    for j in range(rank):
        x[qr.perm[j]] = z[j]
    return LstsqResult(x, dd.norm2(y[rank:]), rank)


# ----------------------------------------------------------------- SVD

@dataclass
class SvdResult:
    u: object
    s: object               # real 1-d, descending
    v: object               # right singular vectors as columns; A = U S V^H


def jacobi_svd(a, max_sweeps=64):
    """One-sided Jacobi SVD, real or complex, either precision.

    Rotations proceed until every column pair is orthogonal to working
    precision; zero singular directions get an orthonormal completion so
    U is always a full frame.
    """
    m, n = a.shape
    if m < n:
        t = jacobi_svd(dd.conj(a).T, max_sweeps)
        return SvdResult(t.v, t.s, t.u)
    w = a.copy()
    v = dd.eye_like(dd.complex_like(a) if dd.is_complexkind(a) else a, n)
    if dd.is_complexkind(a) and not dd.is_complexkind(v):
        v = dd.complex_like(v)
    eps = dd.eps_of(a)
    cplx = dd.is_complexkind(a)
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = _re_part(dd.vdot(w[:, p], w[:, p]))
                aqq = _re_part(dd.vdot(w[:, q], w[:, q]))
                apq = dd.vdot(w[:, p], w[:, q])
                mag = _f(abs(apq))
                if mag <= eps * math.sqrt(max(_f(app), 0.0)
                                          * max(_f(aqq), 0.0)):
                    continue
                rotated = True
                if cplx:
                    ph = _phase_of(apq)
                    if ph is not None:
                        cph = _conj_scalar(ph)
                        w[:, q] = w[:, q] * cph
                        v[:, q] = v[:, q] * cph
                    g = abs(apq)
                else:
                    g = apq
                tau = (aqq - app) / (g * 2.0)
                at = abs(tau)
                t = 1.0 / (at + dd.sqrt(at * at + 1.0))
                if _f(tau) < 0.0:
                    t = -t
                c = 1.0 / dd.sqrt(t * t + 1.0)
                s = c * t
                wp = w[:, p].copy()
                w[:, p] = wp * c - w[:, q] * s
                w[:, q] = wp * s + w[:, q] * c
                vp = v[:, p].copy()
                v[:, p] = vp * c - v[:, q] * s
                v[:, q] = vp * s + v[:, q] * c
        if not rotated:
            break
    sig = [dd.norm2(w[:, j]) for j in range(n)]
    s_img = np.array([_f(x) for x in sig])
    order = np.argsort(-s_img, kind="stable")
    u = dd.zeros_like(w, (m, n))
    vout = dd.zeros_like(v, (n, n))
    smax = s_img.max(initial=0.0)
    null_cols = []
    s_sorted = []
    for out_j, j in enumerate(order):
        s_sorted.append(sig[j])
        vout[:, out_j] = v[:, j]
        if s_img[j] > smax * eps * m:
            u[:, out_j] = w[:, j] * (1.0 / sig[j])
        else:
            null_cols.append(out_j)
    if null_cols:
        _complete_basis(u, null_cols)
    return SvdResult(u, _stack_real(s_sorted, like=a), vout)


def _complete_basis(u, cols):
    m = u.shape[0]
    filled = [j for j in range(u.shape[1]) if j not in cols]
    for j in cols:
        for trial in range(m):
            e = dd.zeros_like(u, (m,))
            e[trial] = 1.0
            for i in filled:
                e = e - u[:, i] * dd.vdot(u[:, i], e)
            nm = dd.norm2(e)
            if _f(nm) > 0.5:
                u[:, j] = e * (1.0 / nm)
                filled.append(j)
                break
        else:
            raise NumericalFailureError("basis completion failed")


def _stack_real(scalars, like):
    if dd.is_extended(like):
        hi = np.array([float(np.asarray(s.hi)) for s in scalars])
        lo = np.array([float(np.asarray(s.lo)) for s in scalars])
        return DD(hi, lo)
    return np.array([float(s) for s in scalars])


# ----------------------------------------------------------------- LU

def lu_factor(a):
    """Partial-pivoted LU of a square matrix (n, n) or of a stack (s, n, n).

    Returns ``(lu, piv)``: unit-lower L and U packed in ``lu`` (the
    input's shape), and ``piv`` ((n,) or (s, n)) such that row k of the
    factored matrix is row ``piv[k]`` of the input.  A 2-D input raises
    SingularMatrixError on an exactly zero pivot column.  In a stack, a
    member with one keeps that exact zero on the diagonal of U and every
    member is factored bit for bit as if alone (LAPACK getrf also goes
    on); lu_solve cannot use that member.
    """
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(
            "lu_factor needs a square matrix or a stack of them")
    lu = a.copy()
    n = lu.shape[-1]
    piv = np.tile(np.arange(n), lu.shape[:-2] + (1,))
    _eliminate(lu, piv, keep_singular=lu.ndim == 3)
    return lu, piv


def _eliminate(lu, piv, keep_singular):
    # in place on one matrix or a stack: "..." spans the stack axis, if any
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
                # the column below is exactly zero too: dividing it by 1
                # leaves it so, and U keeps its zero
                pivot = pivot.copy()
                pivot[zero] = 1.0
            low = (lu[..., k + 1:, k].T / pivot).T
            lu[..., k + 1:, k] = low
            lu[..., k + 1:, k + 1:] = lu[..., k + 1:, k + 1:] - \
                low[..., :, None] * lu[..., k, k + 1:][..., None, :]


def lu_solve(lu, piv, b):
    """Solve with a prior lu_factor result.

    One factorization (n, n) takes a vector (n,) or a matrix (n, m); a
    stack (s, n, n) takes one vector per member, (s, n).
    """
    if lu.ndim == 3 and b.shape != lu.shape[:2]:
        raise DimensionMismatchError(
            f"lu_solve: a stack {lu.shape} takes one vector per member, "
            f"not {b.shape}")
    if lu.ndim == 3 and len(lu) == 1:
        return _substitute(lu[0], piv[0], b[0])[None]
    if b.ndim == 1 or lu.ndim == 3:
        return _substitute(lu, piv, b)
    n = lu.shape[0]
    x = b[piv, :].copy()
    for k in range(1, n):           # unit lower solve
        x[k, :] = x[k, :] - lu[k, :k] @ x[:k, :]
    for k in reversed(range(n)):
        if k + 1 < n:
            x[k, :] = x[k, :] - lu[k, k + 1:] @ x[k + 1:, :]
        x[k, :] = x[k, :] / lu[k, k]
    return x


def _substitute(lu, piv, b):
    # one vector, or one per member of a stack: "..." spans the stack
    # axis, if any; one vector's 0-d entries run DD arithmetic on Python
    # floats, so a stack of one comes here as its matrix
    n = lu.shape[-1]
    x = b[np.arange(len(piv))[:, None], piv] if piv.ndim == 2 \
        else b[piv].copy()
    for k in range(1, n):           # unit lower solve
        x[..., k] = x[..., k] - (lu[..., k, :k] * x[..., :k]).sum(axis=-1)
    for k in reversed(range(n)):
        if k + 1 < n:
            x[..., k] = x[..., k] - \
                (lu[..., k, k + 1:] * x[..., k + 1:]).sum(axis=-1)
        x[..., k] = x[..., k] / lu[..., k, k]
    return x


def solve_linear(a, b):
    """Dense solve a x = b by partial-pivoted LU, any kind."""
    lu, piv = lu_factor(a)
    return lu_solve(lu, piv, b)


# ----------------------------------------------------------------- eig

@dataclass
class EigenResult:
    values: object    # complex 1-d (complex128 or CDD), canonically sorted
    vectors: object   # unit columns; first significant component real > 0


def eig_nonsymmetric(a, size_cap=1200):
    """Eigenpairs of a real square matrix.

    Hessenberg reduction + implicit double-shift QR for the values,
    then inverse iteration (real or complex as the value demands) with
    deflation against already-accepted near-equal eigenvalues.  Runs in
    the input's precision, which is the point of hand-rolling it.

    Attempt 0 of inverse iteration (the shifted LU, the seeded start
    vector, the first solve) runs as stacked lu_factor/lu_solve calls,
    real and complex shifts apart, in chunks of ``_STACK_ELEMS``
    elements; vectors copied from a conjugate partner skip it.  The rest
    runs one eigenvalue at a time, and every result is bit-identical to
    running attempt 0 one shift at a time too.
    """
    n, n2 = a.shape
    if n != n2:
        raise DimensionMismatchError("eig_nonsymmetric needs a square matrix")
    if n > size_cap:
        raise DimensionMismatchError(f"matrix order {n} exceeds cap {size_cap}")
    if dd.is_complexkind(a):
        raise DimensionMismatchError("eig_nonsymmetric takes real input")
    if not dd.isfinite_all(a):
        raise NumericalFailureError("non-finite entries in eigensolver input")
    vals = _francis_qr(_hessenberg(a))
    vals = _sort_eigvals(vals)
    values = _assemble_complex(vals, like=a)
    vectors = _eig_vectors(a, vals)
    return EigenResult(values, vectors)


def _hessenberg(a):
    h = a.copy()
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1:, k].copy()
        normx = dd.norm2(x)
        if _f(normx) == 0.0:
            continue
        beta = -normx if _f(x[0]) >= 0.0 else normx
        v = x
        v[0] = v[0] - beta
        vn = _re_part(dd.vdot(v, v))
        if _f(vn) == 0.0:
            continue
        t = 2.0 / vn
        w = v @ h[k + 1:, k:]
        h[k + 1:, k:] = h[k + 1:, k:] - _outer(v, w) * t
        w2 = h[:, k + 1:] @ v
        h[:, k + 1:] = h[:, k + 1:] - _outer(w2, v) * t
        h[k + 1, k] = beta
        if k + 2 < n:
            h[k + 2:, k] = dd.zeros_like(h, (n - k - 2,))
    return h


def _zero_of(h):
    return dd.zeros(()) if dd.is_extended(h) else 0.0


def _francis_qr(h):
    """Implicit double-shift QR on an upper Hessenberg matrix.

    Returns eigenvalues as (re, im) pairs of working-precision scalars.
    """
    h = h.copy()
    n = h.shape[0]
    eps = dd.eps_of(h)
    hnorm = float(np.linalg.norm(dd.approx(h))) or 1.0
    out = []
    hi = n - 1
    iters = 0
    stall = 0
    cap = 100 * max(n, 1)
    while hi >= 0:
        if iters > cap:
            raise NumericalFailureError(
                f"QR iteration exceeded {cap} sweeps without deflating")
        lo = _deflate_point(h, hi, eps, hnorm)
        if lo == hi:
            out.append((_copy_scalar(h[hi, hi]), _zero_of(h)))
            hi -= 1
            stall = 0
            continue
        if lo == hi - 1:
            out.extend(_eig2(h[lo, lo], h[lo, hi], h[hi, lo], h[hi, hi]))
            hi -= 2
            stall = 0
            continue
        iters += 1
        stall += 1
        if stall % 11 == 10:
            # exceptional shift assembled from subdiagonal magnitudes:
            # the conjugate pair with trace 1.5*s1 and modulus s1
            s1 = abs(h[hi, hi - 1]) + abs(h[hi - 1, hi - 2])
            re1 = s1 * 0.75
            re2 = s1 * 0.75
            im1 = s1 * math.sqrt(0.4375)
            im2 = -im1
        else:
            (re1, im1), (re2, im2) = _eig2(h[hi - 1, hi - 1],
                                           h[hi - 1, hi],
                                           h[hi, hi - 1], h[hi, hi])
        _bulge_sweep(h, lo, hi, re1, im1, re2, im2)
    return out


def _deflate_point(h, hi, eps, hnorm):
    lo = hi
    while lo > 0:
        a = abs(_f(h[lo, lo - 1]))
        b = abs(_f(h[lo - 1, lo - 1])) + abs(_f(h[lo, lo]))
        thr = eps * b if b > 0.0 else eps * hnorm
        if a <= thr:
            h[lo, lo - 1] = _zero_of(h)
            break
        lo -= 1
    return lo


def _eig2(a, b, c, d):
    # discriminant formed at the small scale ((a-d)/2)^2 + bc; the
    # textbook (trace/2)^2 - det form cancels catastrophically on
    # near-degenerate blocks and poisons clustered eigenvalues
    mean = (a + d) * 0.5
    p = (a - d) * 0.5
    disc = p * p + b * c
    if bool(disc < 0.0):
        im = dd.sqrt(abs(disc))
        return [(mean.copy() if isinstance(mean, DD) else mean, im),
                (mean.copy() if isinstance(mean, DD) else mean, -im)]
    sq = dd.sqrt(abs(disc))
    l1 = mean + sq if _f(mean) >= 0.0 else mean - sq
    if _f(l1) == 0.0:
        return [(l1, _zero_scalar_like(mean)),
                (_zero_scalar_like(mean), _zero_scalar_like(mean))]
    l2 = (a * d - b * c) / l1
    return [(l1, _zero_scalar_like(mean)), (l2, _zero_scalar_like(mean))]


def _zero_scalar_like(s):
    return dd.zeros(()) if isinstance(s, DD) else 0.0


def _reflector_vec(entries, h):
    """Householder vector for a short column; returns (v, v^T v, beta)."""
    k = len(entries)
    vec = dd.zeros_like(h, (k,))
    for i, e in enumerate(entries):
        vec[i] = e
    normv = dd.norm2(vec)
    if _f(normv) == 0.0:
        return None, None, None
    beta = -normv if _f(entries[0]) >= 0.0 else normv
    vec[0] = vec[0] - beta
    vn = _re_part(dd.vdot(vec, vec))
    if _f(vn) == 0.0:
        return None, None, None
    return vec, vn, beta


def _bulge_sweep(h, lo, hi, re1, im1, re2, im2):
    # first column of (H - lam1)(H - lam2) e1 built from shift
    # differences; the expanded trace/det form cancels catastrophically
    # when the window diagonal sits near the shifts (clustered
    # eigenvalues) and its eps-level junk then stalls convergence
    p = h[lo, lo] - re1
    q = h[lo, lo] - re2
    x = p * q - im1 * im2 + h[lo, lo + 1] * h[lo + 1, lo]
    y = h[lo + 1, lo] * (p + (h[lo + 1, lo + 1] - re2))
    z = h[lo + 1, lo] * h[lo + 2, lo + 1]
    for k in range(lo, hi - 1):
        v, vn, beta = _reflector_vec([x, y, z], h)
        if v is not None:
            q0 = max(lo, k - 1)
            rows = slice(k, k + 3)
            w = v @ h[rows, q0:]
            h[rows, q0:] = h[rows, q0:] - _outer(v, w) * (2.0 / vn)
            r1 = min(k + 4, hi + 1)
            w2 = h[:r1, rows] @ v
            h[:r1, rows] = h[:r1, rows] - _outer(w2, v) * (2.0 / vn)
            if k > lo:
                # the reflector annihilated these by construction
                h[k, k - 1] = beta
                h[k + 1, k - 1] = _zero_of(h)
                h[k + 2, k - 1] = _zero_of(h)
        x = _copy_scalar(h[k + 1, k])
        y = _copy_scalar(h[k + 2, k])
        if k < hi - 2:
            z = _copy_scalar(h[k + 3, k])
    v, vn, beta = _reflector_vec([x, y], h)
    if v is not None:
        rows = slice(hi - 1, hi + 1)
        q0 = hi - 2
        w = v @ h[rows, q0:]
        h[rows, q0:] = h[rows, q0:] - _outer(v, w) * (2.0 / vn)
        r1 = hi + 1
        w2 = h[:r1, rows] @ v
        h[:r1, rows] = h[:r1, rows] - _outer(w2, v) * (2.0 / vn)
        h[hi - 1, hi - 2] = beta
        h[hi, hi - 2] = _zero_of(h)


def _sort_eigvals(vals):
    def key(p):
        re, im = _f(p[0]), _f(p[1])
        mod = math.hypot(re, im)
        ang = math.atan2(im, re)
        return (-mod, ang, -re, -im)
    return sorted(vals, key=key)


def _assemble_complex(vals, like):
    if dd.is_extended(like):
        re = DD(np.array([float(np.asarray(v[0].hi)) for v in vals]),
                np.array([float(np.asarray(v[0].lo)) for v in vals]))
        im = DD(np.array([float(np.asarray(v[1].hi)) for v in vals]),
                np.array([float(np.asarray(v[1].lo)) for v in vals]))
        return CDD(re, im)
    return np.array([complex(_f(v[0]), _f(v[1])) for v in vals],
                    dtype=complex)


def _eig_vectors(a, vals):
    n = a.shape[0]
    eps = dd.eps_of(a)
    norm_a = float(np.linalg.norm(dd.approx(a)))
    tol = 1e3 * eps * norm_a
    sep = max(tol, 4.0 * eps * max(norm_a, 1.0))
    images = [complex(_f(re), _f(im)) for re, im in vals]
    partners = _conjugate_partners(images, eps, norm_a)
    # attempt 0 of inverse iteration runs stacked, real and complex shifts
    # apart, one chunk at a time as the loop below reaches it
    queues = {real: [i for i, lam in enumerate(images)
                     if partners[i] is None and (lam.imag == 0.0) == real]
              for real in (True, False)}
    chunk = max(1, _STACK_ELEMS // (n * n))
    starts = {}
    vectors = dd.zeros_like(a, (n, n), field="complex")
    accepted: list = []   # (eigenvalue image, column)
    for idx, (re, im) in enumerate(vals):
        if partners[idx] is not None:
            vectors[:, idx] = dd.conj(vectors[:, partners[idx]])
        else:
            if idx not in starts:
                queue = queues[images[idx].imag == 0.0]
                j = queue.index(idx)
                starts.update(_first_solves(
                    a, [(i, *vals[i]) for i in queue[j:j + chunk]], 0,
                    norm_a))
            vectors[:, idx] = _inverse_iteration(
                a, re, im, idx, vectors, accepted, tol, sep, norm_a,
                starts.pop(idx))
        accepted.append((images[idx], idx))
    return vectors


# elements (shifts x n x n) of one stacked shifted LU: 9 shifts at n=81
# (eig-bound's peak RSS +0.06 MiB), one from n=182 on.  Per complex
# shift, attempt 0 in stacks of 4 took 0.62x (n=128), 0.78x (n=160) and
# 0.82-0.92x (n=201) the time of stacks of one on a 2-vCPU x86-64 host,
# numpy 2.4; a larger budget would trade that for peak memory, which no
# benchmark workload at n>=182 checks
_STACK_ELEMS = 1 << 16


def _conjugate_partners(images, eps, scale):
    """For each eigenvalue, the last earlier non-real one it is the
    conjugate of (its vector is then copied), else None."""
    partners = []
    for idx, lam in enumerate(images):
        best = None
        if lam.imag != 0.0:
            for col, lam_j in enumerate(images[:idx]):
                if lam_j.imag != 0.0 and abs(np.conj(lam_j) - lam) <= \
                        1e4 * eps * max(scale, abs(lam)):
                    best = col
        partners.append(best)
    return partners


def _like_real(a, x):
    return dd.asdd(x) if dd.is_extended(a) else np.asarray(x, dtype=float)


def _like_complex(a, x):
    if dd.is_extended(a):
        return dd.ascdd(np.asarray(x, dtype=complex))
    return np.asarray(x, dtype=complex)


def _make_scalar_complex(a, re, im):
    if dd.is_extended(a):
        return CDD(dd.asdd(re), dd.asdd(im))
    return complex(_f(re), _f(im))


def _first_solves(a, shifts, attempt, norm_a):
    """Start of inverse iteration for several shifts of one kind at once.

    ``shifts`` holds (index, re, im) of eigenvalues that are all real or
    all complex.  The shifted matrices of this attempt are factored in
    one stacked lu_factor and solved once from their seeded start vectors
    in one stacked lu_solve.  Maps each index to (lu, piv, first solve),
    or to None where that solve would divide by zero.
    """
    n = a.shape[0]
    pert = attempt * 16.0 * dd.eps_of(a) * max(norm_a, 1.0)
    real_case = _f(shifts[0][2]) == 0.0
    if real_case:
        base = a
        values = [re + pert for _, re, _ in shifts]
    else:
        base = dd.complex_like(a)
        values = [_make_scalar_complex(a, re, im) + pert
                  for _, re, im in shifts]
    d = np.arange(n)
    shifted = dd.stack([base] * len(shifts))
    shifted[:, d, d] = shifted[:, d, d] - dd.stack(values)[:, None]
    lu, piv = lu_factor(shifted)
    ok = _solvable(lu)
    out = dict.fromkeys(idx for idx, _, _ in shifts)
    good = [idx for (idx, _, _), g in zip(shifts, ok) if g]
    if len(good) < len(shifts):
        lu, piv = lu[ok], piv[ok]
    if good:
        v = dd.stack([_start_vector(a, idx, attempt, real_case)
                      for idx in good])
        x = lu_solve(lu, piv, v)
        out.update((idx, (lu[j], piv[j], x[j])) for j, idx in enumerate(good))
    return out


def _solvable(lu):
    """Members of a stack of LU factors that lu_solve can use.

    Its division raises on an exactly zero pivot and, for CDD, on a pivot
    whose squared modulus underflows to zero.
    """
    d = np.arange(lu.shape[-1])
    pivots = lu[:, d, d]
    if isinstance(pivots, CDD):
        pivots = pivots.abs2()
    if isinstance(pivots, DD):
        pivots = pivots.hi
    return ~np.any(pivots == 0.0, axis=-1)


def _start_vector(a, idx, attempt, real_case):
    n = a.shape[0]
    rng = seeded_rng(0xE16E0000 + idx * 2654435761 + attempt)
    v0 = rng.standard_normal(n)
    if real_case:
        v = _like_real(a, v0)
    else:
        v = _like_complex(a, v0 + 1j * rng.standard_normal(n))
    return v * (1.0 / dd.norm2(v))


def _inverse_iteration(a, re, im, idx, vectors, accepted, tol, sep, norm_a,
                       start):
    """Eigenvector for re + i im; ``start`` is attempt 0's _first_solves
    result, later attempts perturb the shift and start afresh."""
    n = a.shape[0]
    eps = dd.eps_of(a)
    real_case = _f(im) == 0.0
    lam_img = complex(_f(re), _f(im))
    best_res = math.inf
    best_v = None
    for attempt in range(3):
        if attempt:
            start = _first_solves(a, [(idx, re, im)], attempt, norm_a)[idx]
        if start is None:
            continue
        lu, piv, vn = start
        for step in range(5):
            if step:
                try:
                    vn = lu_solve(lu, piv, v)
                except ZeroDivisionError:
                    break
            if not dd.isfinite_all(vn):
                break
            nv = dd.norm2(vn)
            if _f(nv) == 0.0:
                break
            vn = vn * (1.0 / nv)
            vn = _deflate_against(vn, vectors, accepted, lam_img, sep,
                                  real_case)
            nv2 = dd.norm2(vn)
            if _f(nv2) < 1e-6:
                v0 = seeded_rng(idx * 31 + 7).standard_normal(n)
                v = _like_real(a, v0) if real_case else \
                    _like_complex(a, v0 * 1j + 0.5)
                v = v * (1.0 / dd.norm2(v))
                continue
            v = vn * (1.0 / nv2)
            res = _eig_residual(a, v, re, im)
            if res < best_res:
                best_res = res
                best_v = v.copy()
            if res <= tol:
                return _phase_fix(_as_complex_vec(a, v))
    if best_v is not None and best_res <= 1e3 * max(tol, eps * norm_a):
        return _phase_fix(_as_complex_vec(a, best_v))
    raise NumericalFailureError(
        f"inverse iteration failed for eigenvalue {lam_img}: "
        f"best residual {best_res:.3e}, tolerance {tol:.3e}")


def _deflate_against(v, vectors, accepted, lam, sep, real_case):
    for lam_j, col in accepted:
        if abs(lam_j - lam) > sep:
            continue
        u = vectors[:, col]
        if real_case:
            ur = u.re if isinstance(u, CDD) else np.real(u)
            nrm2 = _re_part(dd.vdot(ur, ur))
            if _f(nrm2) < 0.25:
                continue
            coef = dd.vdot(ur, v) / nrm2
            v = v - ur * coef
        else:
            vc = _promote_like(u, v)
            v = vc - u * dd.vdot(u, vc)
    return v


def _promote_like(u, v):
    if isinstance(u, CDD) and isinstance(v, DD):
        return dd.ascdd(v)
    if isinstance(u, np.ndarray) and np.iscomplexobj(u) and \
            isinstance(v, np.ndarray) and not np.iscomplexobj(v):
        return v.astype(complex)
    return v


def _eig_residual(a, v, re, im):
    av = a @ v
    if _f(im) == 0.0:
        lam_v = v * re
    else:
        lam_v = v * _make_scalar_complex(a, re, im)
    return _f(dd.norm2(av - lam_v))


def _as_complex_vec(a, v):
    if dd.is_extended(a):
        return dd.ascdd(v)
    return np.asarray(v, dtype=complex)


def _phase_fix(v):
    """Unit norm; first significant component made real positive."""
    nv = dd.norm2(v)
    if _f(nv) == 0.0:
        return v
    v = v * (1.0 / nv)
    mags = np.abs(dd.approx(v))
    top = mags.max()
    cands = np.nonzero(mags > math.sqrt(dd.eps_of(v)) * top)[0]
    i = int(cands[0]) if len(cands) else int(np.argmax(mags))
    ph = _phase_of(v[i])
    if ph is None:
        return v
    return v * _conj_scalar(ph)


# ----------------------------------------------------------------- norms

def spectral_norm(a, rtol=1e-12, max_iterations=20000):
    """sigma_max via power iteration on A^H A; SVD fallback on stagnation.

    The stop rule extrapolates the geometric tail of the estimates so a
    slowly converging iteration is not declared done prematurely.
    """
    m, n = a.shape
    if m == 0 or n == 0:
        return _zero_of(a)
    rng = seeded_rng(0x5EC7)
    v0 = rng.standard_normal(n)
    if dd.is_complexkind(a):
        v = _like_complex(a, v0 + 1j * rng.standard_normal(n))
    else:
        v = _like_real(a, v0)
    v = v * (1.0 / dd.norm2(v))
    ah = dd.conj(a).T
    prev = None
    prev_diff = None
    for _ in range(max_iterations):
        u = a @ v
        sigma = dd.norm2(u)
        if _f(sigma) == 0.0:
            return sigma
        w = ah @ u
        nw = dd.norm2(w)
        if _f(nw) == 0.0:
            return sigma
        v = w * (1.0 / nw)
        if prev is not None:
            diff = abs(_f(sigma) - prev)
            if diff == 0.0:
                return sigma
            if prev_diff is not None and prev_diff > 0.0:
                ratio = min(diff / prev_diff, 0.999)
                gap = diff * ratio / (1.0 - ratio)
            else:
                gap = diff
            if gap <= rtol * _f(sigma):
                return sigma
            prev_diff = diff
        prev = _f(sigma)
    return jacobi_svd(a).s[0]


def condition_number_2(a):
    """sigma_max / sigma_min from the one-sided Jacobi SVD."""
    s = jacobi_svd(a).s
    lo = _f(s[-1])
    if lo == 0.0:
        return math.inf
    return _f(s[0]) / lo


def random_orthogonal(n, seed):
    """Haar orthogonal matrix: QR of Philox normals, R diagonal made
    positive so the distribution is exactly Haar and runs are repeatable."""
    if n < 1:
        raise DimensionMismatchError("order must be >= 1")
    g = seeded_rng(seed).standard_normal((n, n))
    qr = householder_qr(g)
    q = form_q(qr, n)
    for j in range(n):
        if _f(qr.r[j, j]) < 0.0:
            q[:, j] = -q[:, j]
    return q


def max_subspace_angle(u, v):
    """Largest principal angle (radians) between equal-dimension spans."""
    if u.shape != v.shape:
        raise DimensionMismatchError("subspace bases must match in shape")
    qu = form_q(householder_qr(u), u.shape[0], u.shape[1])
    qv = form_q(householder_qr(v), v.shape[0], v.shape[1])
    s = jacobi_svd(dd.conj(qu).T @ qv).s
    smin = _f(s[-1])
    return math.acos(min(1.0, max(-1.0, smin)))
