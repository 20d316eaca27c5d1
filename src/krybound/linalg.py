"""Dense kernels generic over precision (binary64 arrays or DD/CDD).

Everything here is written against the small shared dialect of numpy
ndarrays and the double-double array classes: elementwise operators,
slicing, `@`, and the dispatch helpers in :mod:`krybound.dd`.  Pivot and
branch decisions use cheap float64 images of the data; arithmetic stays
in the working precision throughout.  Factorizations are hand-rolled on
purpose: they must run unchanged in extended precision, which rules out
LAPACK-backed calls.  The one exception is spectral_norm, whose
certificate is binary64 work on the binary64 image by design.
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
    "householder_qr", "apply_q_adjoint", "form_q", "lstsq", "LstsqResult",
    "solve_triangular", "jacobi_svd", "eig_nonsymmetric", "EigenResult",
    "EIG_CAP", "lu_factor", "lu_solve", "spectral_norm", "condition_number_2",
    "random_orthogonal", "seeded_rng",
]

# largest order eig_nonsymmetric accepts
EIG_CAP = 1200


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
        v, vn, beta = _reflector(r[j:, j].copy())
        reflectors.append(v)
        vnorm2.append(vn)
        if v is None:
            continue
        if j + 1 < n:
            w = dd.conj(v) @ r[j:, j + 1:]
            r[j:, j + 1:] = r[j:, j + 1:] - _outer(v, w) * (2.0 / vn)
        r[j, j] = beta
        if j + 1 < m:
            r[j + 1:, j] = dd.zeros_like(r, (m - j - 1,))
    scale = abs(_f(abs(r[0, 0]))) if k > 0 else 0.0
    return QRFactorization(reflectors, vnorm2, r, perm, scale)


def _reflector(x):
    """Householder vector for x, which it overwrites: (v, v^H v, beta)
    with H x = beta e_1, or three Nones when x or v is zero.

    beta takes the sign opposite to x[0] for real x and the phase
    opposite to x[0] for complex x, so forming v never cancels.
    """
    normx = dd.norm2(x)
    if _f(normx) == 0.0:
        return None, None, None
    if dd.is_complexkind(x):
        ph = _phase_of(x[0])
        beta = -normx if ph is None else -(ph * normx)
    else:
        beta = -normx if _f(x[0]) >= 0.0 else normx
    x[0] = x[0] - beta
    vn = _re_part(dd.vdot(x, x))
    if _f(vn) == 0.0:
        return None, None, None
    return x, vn, beta


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


def form_q(qr, m):
    """Dense m x m Q."""
    x = dd.zeros_like(qr.r, (m, m))
    for i in range(m):
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


def lstsq(a, b):
    """Minimize ||a y - b||_2 by column-pivoted Householder QR.

    Pivots below eps^(2/3) * |R[0,0]| are truncated for the rank
    decision; the residual is the attained one.
    """
    m, n = a.shape
    if b.shape != (m,):
        raise DimensionMismatchError(f"lstsq: {a.shape} with rhs {b.shape}")
    qr = householder_qr(a, pivot=True)
    y = apply_q_adjoint(qr, b)
    eps = dd.eps_of(a)
    thresh = eps ** (2.0 / 3.0) * qr.scale
    rank = 0
    for j in range(min(m, n)):
        if abs(_f(abs(qr.r[j, j]))) > thresh:
            rank += 1
        else:
            break
    z = solve_triangular(qr.r[:rank, :rank], y[:rank])
    x = dd.zeros_like(b, (n,))
    x[qr.perm[:rank]] = z
    return LstsqResult(x, dd.norm2(y[rank:]), rank)


# ----------------------------------------------------------------- SVD

def jacobi_svd(a):
    """Singular values of a by one-sided Jacobi, real or complex, either
    precision: a real 1-d array in descending order.

    Rotations proceed until every column pair is orthogonal to working
    precision, for at most 64 sweeps.
    """
    m, n = a.shape
    if m < n:
        return jacobi_svd(dd.conj(a).T)
    w = a.copy()
    eps = dd.eps_of(a)
    cplx = dd.is_complexkind(a)
    for _ in range(64):
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
                        w[:, q] = w[:, q] * _conj_scalar(ph)
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
        if not rotated:
            break
    return dd.stack(sorted((dd.norm2(w[:, j]) for j in range(n)),
                           key=lambda x: -_f(x)))


# ----------------------------------------------------------------- LU

def lu_factor(a):
    """LU of an upper Hessenberg matrix (n, n) or of a stack of them
    (s, n, n), pivoting between adjacent rows (LAPACK xLAEIN's LU of
    H - lambda I; Golub and Van Loan, section 3.4).

    Step k takes as pivot row the larger of rows k and k+1 in column k
    (row k on a tie), swaps the two rows' columns k: if that is row k+1,
    and subtracts a multiple of row k from row k+1 alone.  Returns
    ``(lu, piv)``: U in the upper triangle of ``lu`` (the input's shape)
    with step k's multiplier at ``lu[..., k+1, k]``, and the swap flags
    ``piv`` ((n-1,) or (s, n-1)).  A nonzero of the binary64 image below
    the subdiagonal raises DimensionMismatchError.  A 2-D input raises
    SingularMatrixError on an exactly zero pivot; in a stack, a member
    with one keeps that zero on the diagonal of U, every member is
    factored bit for bit as if alone, and lu_solve cannot use that
    member.
    """
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(
            "lu_factor needs a square matrix or a stack of them")
    n = a.shape[-1]
    # row by row: a binary64 image of the whole stack would be as large
    # as the stack
    if any(dd.approx(a[..., i, :i - 1]).any() for i in range(2, n)):
        raise DimensionMismatchError(
            "lu_factor needs upper Hessenberg matrices: a nonzero lies "
            "below the subdiagonal")
    lu = a.copy()
    piv = np.zeros(a.shape[:-2] + (max(n - 1, 0),), dtype=bool)
    for k in range(n):
        col = dd.approx(lu[..., k:k + 2, k])
        mags = np.abs(col.real) + np.abs(col.imag) if np.iscomplexobj(col) \
            else np.abs(col)
        zero = ~mags.any(axis=-1)
        if zero.any() and lu.ndim == 2:
            raise SingularMatrixError(f"zero pivot at elimination step {k}")
        if k == n - 1:
            break
        swap = np.argmax(mags, axis=-1) == 1
        piv[..., k] = swap
        if swap.any():
            at = _swapping(swap)
            lu[at, [k, k + 1], k:] = lu[at, [k + 1, k], k:]
        pivot = lu[..., k, k]
        if zero.any():
            # the entry below is exactly zero too: dividing it by 1
            # leaves it so, and U keeps its zero
            pivot = pivot.copy()
            pivot[zero] = 1.0
        low = lu[..., k + 1, k] / pivot
        lu[..., k + 1, k] = low
        lu[..., k + 1, k + 1:] = lu[..., k + 1, k + 1:] - \
            low[..., None] * lu[..., k, k + 1:]
    return lu, piv


def _swapping(swap):
    """The index that, followed by two row indices, selects the members
    whose flag in ``swap`` is set: their numbers as a column for a
    stack, and ``...`` for one matrix, whose 0-d flag is set."""
    return np.flatnonzero(swap)[:, None] if np.ndim(swap) else Ellipsis


def lu_solve(lu, piv, b):
    """Solve with a prior lu_factor result: replay each step's swap and
    its one multiply-subtract, then back-substitute with U.

    One factorization (n, n) takes a vector (n,) or a matrix (n, m); a
    stack (s, n, n) takes one vector per member, (s, n).
    """
    if lu.ndim == 3 and b.shape != lu.shape[:2]:
        raise DimensionMismatchError(
            f"lu_solve: a stack {lu.shape} takes one vector per member, "
            f"not {b.shape}")
    if lu.ndim == 3 and len(lu) == 1:
        # one vector's 0-d entries run DD arithmetic on Python floats
        return lu_solve(lu[0], piv[0], b[0])[None]
    # one matrix takes its right-hand sides as rows; a vector is its own
    # transpose
    x = b.T.copy() if lu.ndim == 2 else b.copy()
    for k in range(lu.shape[-1] - 1):
        swap = piv[..., k]
        if swap.any():
            at = _swapping(swap)
            x[at, [k, k + 1]] = x[at, [k + 1, k]]
        x[..., k + 1] = x[..., k + 1] - lu[..., k + 1, k] * x[..., k]
    x = solve_triangular(lu, x)
    return x.T if lu.ndim == 2 else x


def solve_triangular(t, b):
    """x with t x = b for the upper triangle of t, by substitution one
    row at a time; t's entries below the diagonal are not read.

    t is (n, n) or a stack (s, n, n), and "..." spans that stack: b is
    one vector (n,), one per member (s, n), or for one t several
    right-hand sides as the rows of (r, n).  Row sums are tree-summed
    in extended precision.
    """
    n = t.shape[-1]
    x = b.copy()
    for k in reversed(range(n)):
        if k != n - 1:
            x[..., k] = x[..., k] - \
                (t[..., k, k + 1:] * x[..., k + 1:]).sum(axis=-1)
        x[..., k] = x[..., k] / t[..., k, k]
    return x


# ----------------------------------------------------------------- eig

@dataclass
class EigenResult:
    """Each non-real value has one partner, its exact conjugate, found
    by _conjugate_partners; their columns of ``vectors`` are exact
    conjugates too."""
    values: object    # complex 1-d (complex128 or CDD), canonically sorted
    vectors: object   # unit columns; first significant component real > 0


def eig_nonsymmetric(a):
    """Eigenpairs of a real square matrix of order at most ``EIG_CAP``.

    The values come from the Hessenberg form H = Q^T a Q by implicit
    multishift QR (_francis_qr): each sweep chases a chain of bulges, one
    bulge on an active window of fewer than 30 rows.  The vectors come
    from inverse iteration on H (real or complex as the value demands),
    with deflation against already-accepted eigenvalues equal to within
    working precision; a shifted H is upper Hessenberg, so lu_factor
    pivots between adjacent rows and each LU costs O(n^2).  They are
    then mapped back by Q's reflectors, given
    the canonical phase and checked against a itself: a residual over
    tolerance raises NumericalFailureError.  Runs in the input's
    precision, which is the point of hand-rolling it.

    The later member of each conjugate pair (_conjugate_partners: exact,
    no tolerance) gets the exact conjugate of the earlier one's vector,
    so a repeated pair keeps independent vectors.

    Attempt 0 of inverse iteration (the shifted LU, the seeded start
    vector, the first solve) runs as stacked lu_factor/lu_solve calls,
    real and complex shifts apart, in chunks of ``_STACK_ELEMS``
    elements; vectors copied from a conjugate partner skip it.  Step 0
    (both normalisations and the residual against H) then runs on the
    whole chunk at once, and accepts every member within tolerance.
    Only a member with no first solve, a residual over tolerance, or an
    earlier eigenvalue close enough to deflate against goes on alone.
    After the map back, the phase and the check against a run once on
    all the vectors.  Each array operation runs per entry the IEEE
    operations of the one-vector call (a 0-d DD operation runs them on
    Python floats), with the same operand order and tree sums, so every
    vector is bit-identical to running each eigenvalue alone.
    """
    n, n2 = a.shape
    if n != n2 or n == 0:
        raise DimensionMismatchError(
            f"eig_nonsymmetric needs a nonempty square matrix, got {a.shape}")
    if n > EIG_CAP:
        raise DimensionMismatchError(f"matrix order {n} exceeds cap {EIG_CAP}")
    if dd.is_complexkind(a):
        raise DimensionMismatchError("eig_nonsymmetric takes real input")
    if not dd.isfinite_all(a):
        raise NumericalFailureError("non-finite entries in eigensolver input")
    h, reflectors = _hessenberg(a)
    vals = _sort_eigvals(_francis_qr(h))
    values = dd.stack([_make_scalar_complex(a, re, im) for re, im in vals])
    vectors = _eig_vectors(a, h, reflectors, vals, _conjugate_partners(values))
    return EigenResult(values, vectors)


def _hessenberg(a):
    """Upper Hessenberg h = Q^T a Q, and Q's reflectors as (k, v, vn)
    triples in the order applied: P_k = I - 2 v v^T / vn acts on rows
    and columns k+1:, and Q = P_0 P_1 ... ."""
    h = a.copy()
    n = h.shape[0]
    reflectors = []
    for k in range(n - 2):
        v, vn, beta = _reflector(h[k + 1:, k].copy())
        if v is None:
            continue
        _reflect(h, v, vn, slice(k + 1, n), slice(k, n), slice(0, n))
        h[k + 1, k] = beta
        if k + 2 < n:
            h[k + 2:, k] = dd.zeros_like(h, (n - k - 2,))
        reflectors.append((k, v, vn))
    return h, reflectors


def _apply_q(reflectors, y):
    """y <- Q y in place, for _hessenberg's Q: one rank-1 update per
    reflector, the last first.  Q is real, so the real and imaginary
    parts of a complex y go apart, and an exactly zero part (the
    imaginary one when every eigenvalue is real) stays zero."""
    for part in (y.re, y.im) if isinstance(y, CDD) else (y.real, y.imag):
        if not dd.approx(part).any():
            continue
        for k, v, vn in reversed(reflectors):
            w = v @ part[k + 1:]
            part[k + 1:] = part[k + 1:] - _outer(v, w) * (2.0 / vn)


def _zero_of(x):
    """A scalar zero in x's precision."""
    return dd.zeros(()) if dd.is_extended(x) else 0.0


def _francis_qr(h):
    """Implicit multishift QR on an upper Hessenberg matrix.

    Returns eigenvalues as (re, im) pairs of working-precision scalars.

    Every sweep is a chain sweep (_chain_sweep): the shifts of
    ``_chain_shifts`` chase one bulge per shift pair down the active
    window h[lo:hi+1, lo:hi+1], 4 rows apart (Braman, Byers and Mathias,
    SIAM J. Matrix Anal. Appl. 23, 2002; LAPACK xLAQR5).  A window of
    fewer than 30 rows chases one bulge, the double-shift sweep.  The
    10th sweep on one window without a deflation, and every 11th after
    it (the 21st, 32nd, ...), chases one bulge with an exceptional
    shift, and so does a sweep whose shifts cannot be had.

    Only the eigenvalues are wanted, so a sweep on the active window
    updates nothing outside it (LAPACK xLAHQR and xLAQR5 with WANTT
    false; Golub and Van Loan, Matrix Computations, 4th ed., sec.
    7.5).  The rows above the window and the columns to its right
    would only be read again to update themselves: a column's left
    update reads only that column, a row's right update only that row,
    and the deflation scan reads only diagonal blocks and the zeros it
    set.  So every eigenvalue keeps the bits that full-width updates
    give it.
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
        shifts = _chain_shifts(h, lo, hi) if stall % 11 != 10 else None
        if shifts is None:
            # exceptional shift assembled from subdiagonal magnitudes:
            # the conjugate pair with trace 1.5*s1 and modulus s1
            s1 = abs(h[hi, hi - 1]) + abs(h[hi - 1, hi - 2])
            im = s1 * math.sqrt(0.4375)
            shifts = [(s1 * 0.75, im, s1 * 0.75, -im)]
        _chain_sweep(h, lo, hi, shifts)
    return out


def _deflate_point(h, hi, eps, hnorm):
    """The largest lo <= hi whose subdiagonal entry h[lo, lo-1] is
    negligible, which it sets to zero; 0 if there is none.  Decided on
    one binary64 image of the diagonal and subdiagonal."""
    d = np.arange(hi + 1)
    diag = np.abs(dd.approx(h[d, d]))
    sub = np.abs(dd.approx(h[d[1:], d[:-1]]))
    b = diag[:-1] + diag[1:]
    thr = np.where(b > 0.0, eps * b, eps * hnorm)
    small = np.flatnonzero(sub <= thr)
    if not len(small):
        return 0
    lo = int(small[-1]) + 1
    h[lo, lo - 1] = _zero_of(h)
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
        return [(_copy_scalar(mean), im), (_copy_scalar(mean), -im)]
    sq = dd.sqrt(abs(disc))
    l1 = mean + sq if _f(mean) >= 0.0 else mean - sq
    if _f(l1) == 0.0:
        return [(l1, _zero_of(mean)), (_zero_of(mean), _zero_of(mean))]
    l2 = (a * d - b * c) / l1
    return [(l1, _zero_of(mean)), (l2, _zero_of(mean))]


def _reflect(h, v, vn, rows, cols, right_rows):
    """h <- P h P for the reflector P = I - 2 v v^T / vn on ``rows``,
    from the left on columns ``cols`` and from the right on rows
    ``right_rows`` only.  Each product is written out on the block it
    reads: in DD that is the tree sum ``@`` runs, in binary64 numpy's
    own sum rather than BLAS."""
    t = 2.0 / vn
    blk = h[rows, cols]
    w = _sum_axis(v[:, None] * blk, 0)
    h[rows, cols] = blk - _outer(v, w) * t
    blk = h[right_rows, rows]
    w = _sum_axis(blk * v[None, :], 1)
    h[right_rows, rows] = blk - _outer(w, v) * t


def _sum_axis(p, axis):
    """p.sum(axis), with a DD sum of 3 terms written out on views.

    The tree sum pads 3 terms with a zero and adds (p0 + p2) + (p1 +
    0).  Adding an exact zero to a normalized finite pair only turns a
    -0 part into +0, which adding 0.0 to each part does too; so the two
    DD additions left give the tree's bytes without its padded copies.
    Binary64 keeps numpy's sum, whose order differs.
    """
    if not isinstance(p, DD) or p.shape[axis] != 3:
        return p.sum(axis=axis)
    part = [(slice(None),) * (axis % p.ndim) + (i,) for i in range(3)]
    p1 = p[part[1]]
    return (p[part[0]] + p[part[2]]) + DD._raw(p1.hi + 0.0, p1.lo + 0.0)


def _pack(entries, like):
    """The 0-d scalars ``entries`` as one 1-D array in like's precision.

    Built from their parts: dd.stack takes 29.7 against 4.0 us on 6 DD
    scalars, one bulge's v and t v (2-vCPU x86-64 host, numpy 2.4)."""
    if not dd.is_extended(like):
        return np.array(entries)
    return DD._raw(np.array([e.hi for e in entries]),
                   np.array([e.lo for e in entries]))


def _bulge_reflector(x, y, z=None):
    """_reflector of the real vector (x, y, z), or (x, y) without z,
    worked on those 0-d scalars: (v, vn, beta) with v the tuple of v's
    0-d entries, or three Nones.

    The squares add in the order of norm2's and vdot's tree, (x^2 +
    z^2) + y^2, so in DD v, vn and beta keep _reflector's bytes."""
    yy = y * y
    zz = None if z is None else z * z

    def sumsq(x0):
        return x0 * x0 + yy if zz is None else (x0 * x0 + zz) + yy

    s = sumsq(x)
    normx = dd.sqrt(s) if dd.is_extended(s) else math.sqrt(s)
    if _f(normx) == 0.0:
        return None, None, None
    beta = -normx if _f(x) >= 0.0 else normx
    x = x - beta
    vn = sumsq(x)
    if _f(vn) == 0.0:
        return None, None, None
    return ((x, y) if z is None else (x, y, z)), vn, beta


def _shift_column(h, lo, re1, im1, re2, im2):
    """(x, y, z): the first column of (H - lam1)(H - lam2) e1, built
    from shift differences; the expanded trace/det form cancels
    catastrophically when the window diagonal sits near the shifts
    (clustered eigenvalues) and its eps-level junk then stalls
    convergence."""
    p = h[lo, lo] - re1
    q = h[lo, lo] - re2
    x = p * q - im1 * im2 + h[lo, lo + 1] * h[lo + 1, lo]
    y = h[lo + 1, lo] * (p + (h[lo + 1, lo + 1] - re2))
    z = h[lo + 1, lo] * h[lo + 2, lo + 1]
    return x, y, z


# shifts per chain sweep by the active window's order w, from LAPACK
# xIPARMQ's table as (fewest rows, shifts): a window under 30 rows takes
# 2, and from 150 rows it takes the largest even number <= w / round(log2
# w) (xIPARMQ stops that rule at 590 rows; here it runs to EIG_CAP).  On
# eig-bound's operator (n=81, seed 1) they take 29 sweeps of 2 or 5
# bulges (2,023 chain steps) and 59 one-bulge sweeps (607 steps), where
# one bulge on every window takes 116 sweeps of 5,646 steps
_CHAIN_SHIFTS = ((30, 4), (60, 10), (150, None))


def _chain_shifts(h, lo, hi):
    """Shift pairs (re1, im1, re2, im2), one per bulge of a chain sweep
    on the window [lo, hi]; None if binary64 QR of the trailing block
    fails.

    A window of fewer than 30 rows takes one pair, the eigenvalues of
    its trailing 2 x 2 block in working precision: binary64 shifts would
    take more sweeps to converge to DD precision.  A larger one takes
    ns shifts, by its order as in ``_CHAIN_SHIFTS``: the eigenvalues of
    the binary64 image of its trailing ns x ns block, found by
    _francis_qr on floats, so no LAPACK call and no BLAS build decides
    them.  A conjugate pair makes one bulge, and real shifts pair up in
    the order QR deflated them.
    """
    w = hi - lo + 1
    if w < _CHAIN_SHIFTS[0][0]:
        (re1, im1), (re2, im2) = _eig2(h[hi - 1, hi - 1], h[hi - 1, hi],
                                       h[hi, hi - 1], h[hi, hi])
        return [(re1, im1, re2, im2)]
    ns = 0
    for rows, count in _CHAIN_SHIFTS:
        if w >= rows:
            ns = count or w // round(math.log2(w))
    ns -= ns % 2
    top = hi - ns + 1
    try:
        vals = _francis_qr(np.array(dd.approx(h[top:hi + 1, top:hi + 1])))
    except NumericalFailureError:
        return None
    pairs = [(re, im, re, -im) for re, im in vals if im > 0.0]
    reals = [re for re, im in vals if im == 0.0]
    pairs += [(re1, 0.0, re2, 0.0)
              for re1, re2 in zip(reals[::2], reals[1::2])]
    return pairs


def _chain_sweep(h, lo, hi, shifts):
    """One multishift QR sweep on the window [lo, hi]: a chain of
    bulges, one per shift pair, chased down 4 rows apart.  With one
    pair it is the implicit double-shift sweep.

    Bulge b enters at chain step 4b, so at step s it works at row k =
    lo + s - 4b.  Between two bulges lies one free row, so no update in
    a step touches the column another bulge builds its reflector from:
    each step first builds every live reflector from the current H
    (_bulge_reflector on 0-d values, or _shift_column for the bulge
    that enters), packs the entries of v_b and of t_b v_b into two
    (nb, 3) blocks, and then applies all of them in one left and one
    right update (_reflect_chain).  The one bulge that takes its last,
    2-row step at the bottom goes after them through _reflect.
    """
    end = hi + 1
    zero = _zero_of(h)
    for s in range(hi - lo + 4 * (len(shifts) - 1)):
        ks, vs, tvs, betas = [], [], [], []
        last = None
        for b, shift in enumerate(shifts):
            k = lo + s - 4 * b
            if k == hi - 1:
                last = (h[k, k - 1], h[k + 1, k - 1])
                continue
            if not lo <= k < hi - 1:
                continue
            if k == lo:
                x, y, z = _shift_column(h, lo, *shift)
            else:
                x, y, z = h[k, k - 1], h[k + 1, k - 1], h[k + 2, k - 1]
            v, vn, beta = _bulge_reflector(x, y, z)
            if v is not None:
                t = 2.0 / vn
                ks.append(k)
                vs.extend(v)
                tvs.extend(e * t for e in v)
                betas.append(beta)
        if ks:
            nb = len(ks)
            vtv = _pack(vs + tvs, h).reshape(2 * nb, 3)
            # one bulge's rows as a slice, which indexes faster than an
            # index array and broadcasts to the same update
            r = slice(ks[0], ks[0] + 3) if nb == 1 else \
                np.array(ks)[:, None] + np.arange(3)
            _reflect_chain(h, r, vtv[:nb], vtv[nb:],
                           slice(max(lo, min(ks) - 1), end),
                           slice(lo, min(max(ks) + 4, end)))
            for k, beta in zip(ks, betas):
                if k > lo:
                    # the reflector annihilated these by construction
                    h[k, k - 1] = beta
                    h[k + 1, k - 1] = zero
                    h[k + 2, k - 1] = zero
        if last is not None:
            # the 2-entry reflector that pushes a bulge out at the bottom
            v, vn, beta = _bulge_reflector(*last)
            if v is not None:
                _reflect(h, _pack(v, h), vn, slice(hi - 1, end),
                         slice(hi - 2, end), slice(lo, end))
                h[hi - 1, hi - 2] = beta
                h[hi, hi - 2] = zero


def _reflect_chain(h, r, v, tv, cols, right_rows):
    """One chain step's updates h <- P h P by the reflectors P_b = I -
    v_b t_b v_b^T on the rows r[b] (an (nb, 3) index array, or a slice
    when nb = 1), where ``v`` is (nb, 3) and ``tv`` holds t_b v_b, t_b =
    2 / (v_b^T v_b): from the left on the stacked (nb, 3, W) row blocks
    over columns ``cols``, then from the right on the (W', nb, 3) column
    blocks over rows ``right_rows``.

    ``cols`` and ``right_rows`` are the union of the bulges' own ranges.
    What the union adds to a bulge's own ranges lies at least 2 below
    the diagonal and outside every bulge: exact zeros, updated to exact
    zeros.  Left updates of distinct bulges touch distinct rows, right
    updates distinct columns, and a left update here precedes a right
    one wherever they meet, as it does when the bulges go one by one,
    the top one first.  So the step equals that, each bulge over its
    own range, up to the sign of an exact zero.
    """
    blk = h[r, cols]
    w = _sum_axis(v[:, :, None] * blk, 1)
    h[r, cols] = blk - tv[:, :, None] * w[:, None, :]
    blk = h[right_rows, r]
    w = _sum_axis(blk * v[None], 2)
    h[right_rows, r] = blk - w[:, :, None] * tv[None]


def _sort_eigvals(vals):
    def key(p):
        re, im = _f(p[0]), _f(p[1])
        mod = math.hypot(re, im)
        ang = math.atan2(im, re)
        return (-mod, ang, -re, -im)
    return sorted(vals, key=key)


def _eig_vectors(a, h, reflectors, vals, partners):
    """Unit eigenvectors of a for vals, by inverse iteration on its
    Hessenberg form h, mapped back by Q, given the canonical phase, and
    checked against a itself; the column of an eigenvalue with a
    partner is the exact conjugate of the partner's."""
    n = a.shape[0]
    eps = dd.eps_of(a)
    norm_a = float(np.linalg.norm(dd.approx(a)))
    tol = 1e3 * eps * norm_a
    sep = max(tol, 4.0 * eps * max(norm_a, 1.0))
    images = [complex(_f(re), _f(im)) for re, im in vals]
    # _deflate_against acts on a member only when an earlier eigenvalue's
    # image lies within sep of its own; such a member runs alone
    crowded = [any(abs(lam_j - lam) <= sep for lam_j in images[:idx])
               for idx, lam in enumerate(images)]
    # attempt 0 of inverse iteration runs stacked, real and complex shifts
    # apart, one chunk at a time as the loop below reaches it
    queues = {real: [i for i, lam in enumerate(images)
                     if partners[i] is None and (lam.imag == 0.0) == real]
              for real in (True, False)}
    chunk = max(1, _STACK_ELEMS // (n * n))
    starts: dict = {}
    finished: set = set()
    vectors = dd.zeros_like(a, (n, n), field="complex")
    accepted: list = []   # (eigenvalue image, (re, im), column)
    for idx, (re, im) in enumerate(vals):
        if partners[idx] is not None:
            vectors[:, idx] = dd.conj(vectors[:, partners[idx]])
        elif idx not in finished:
            if idx not in starts:
                queue = queues[images[idx].imag == 0.0]
                j = queue.index(idx)
                shifts = [(i, *vals[i]) for i in queue[j:j + chunk]]
                starts.update(_first_solves(h, shifts, 0, norm_a))
                batch = [s for s in shifts if not crowded[s[0]]
                         and starts[s[0]] is not None]
                if batch:
                    finished.update(_first_steps(h, vectors, batch, starts,
                                                 tol))
            if idx not in finished:
                vectors[:, idx] = _inverse_iteration(
                    h, re, im, idx, vectors, accepted, tol, sep, norm_a,
                    starts.pop(idx))
        accepted.append((images[idx], vals[idx], idx))
    _apply_q(reflectors, vectors)
    own = [idx for idx in range(n) if partners[idx] is None]
    rows = _phase_fix(vectors[:, own].T.copy())
    failed = []
    for real in (True, False):
        sel = [j for j, idx in enumerate(own)
               if (images[idx].imag == 0.0) == real]
        if not sel:
            continue
        # a real eigenvalue's vector, Q and phase are real: the imaginary
        # part is exactly zero and needs no product
        res = _residual_rows(a, _re_part(rows[sel]) if real else rows[sel],
                             [vals[own[j]] for j in sel])
        failed += [(own[j], r) for j, r in zip(sel, res) if not r <= tol]
    if failed:
        idx, res = min(failed)
        raise NumericalFailureError(
            f"eigenvector for {images[idx]} mapped back from the "
            f"Hessenberg form: residual {res:.3e}, tolerance {tol:.3e}")
    vectors[:, own] = rows.T
    for idx in range(n):
        if partners[idx] is not None:
            vectors[:, idx] = dd.conj(vectors[:, partners[idx]])
    return vectors


# elements (shifts x n x n) of one stacked shifted LU: 19 shifts at
# n=81, 3 at n=201.  A Hessenberg LU step touches one row, so a step's
# fixed numpy cost is most of its time and a stack shares it.  On
# eig-bound's operator (n=81, seed 1) the eigenvector stage took, by
# budget, then the process's peak RSS: 2**16 0.58 s, 41.7 MiB; 2**17
# 0.38 s, 45.7 MiB; 2**18 0.30 s, 52.5 MiB, every vector bit-identical
# (2-vCPU x86-64 host, numpy 2.4).  The larger budget would save 0.08 s
# for 7 MiB of eig-bound's peak memory
_STACK_ELEMS = 1 << 17


def _exact_keys(values):
    """Each entry of a complex 1-d array as (re.hi, re.lo, im.hi, im.lo),
    lo = 0 in binary64: equal keys are exactly equal values."""
    z = values if isinstance(values, CDD) else dd.ascdd(values)
    return list(zip(*(p.tolist() for p in (z.re.hi, z.re.lo, z.im.hi,
                                           z.im.lo))))


def _conjugate_partners(values):
    """For each entry of a complex 1-d array, the first earlier non-real
    entry that is its exact conjugate and not yet paired, else None.
    Francis QR emits each non-real pair from one 2x2 block as exact
    conjugates (Golub and Van Loan, sec. 7.5; LAPACK xGEEV), so pairing
    needs no tolerance."""
    waiting: dict = {}    # key -> earlier non-real entries not yet paired
    partners = []
    for idx, (rh, rl, ih, il) in enumerate(_exact_keys(values)):
        mates = waiting.get((rh, rl, -ih, -il)) if ih else None
        partners.append(mates.pop(0) if mates else None)
        if ih and partners[-1] is None:
            waiting.setdefault((rh, rl, ih, il), []).append(idx)
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
    """Eigenvector for re + i im whose residual meets ``tol``, else
    NumericalFailureError.  ``start`` is attempt 0's _first_solves
    result; later attempts perturb the shift and start afresh."""
    n = a.shape[0]
    real_case = _f(im) == 0.0
    lam_img = complex(_f(re), _f(im))
    best_res = math.inf
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
            vn = _deflate_against(vn, vectors, accepted, lam_img, (re, im),
                                  sep, real_case)
            nv2 = dd.norm2(vn)
            if _f(nv2) < 1e-6:
                v0 = seeded_rng(idx * 31 + 7).standard_normal(n)
                v = _like_real(a, v0) if real_case else \
                    _like_complex(a, v0 * 1j + 0.5)
                v = v * (1.0 / dd.norm2(v))
                continue
            v = vn * (1.0 / nv2)
            res = _residual_rows(a, v[None], [(re, im)])[0]
            if res <= tol:
                return dd.complex_like(v)
            best_res = min(best_res, res)
    raise NumericalFailureError(
        f"inverse iteration failed for eigenvalue {lam_img}: "
        f"best residual {best_res:.3e}, tolerance {tol:.3e}")


def _deflate_against(v, vectors, accepted, lam, val, sep, real_case):
    for lam_j, (re_j, im_j), col in accepted:
        # distinct extended-precision eigenvalues can share one binary64
        # image; their vectors need not be orthogonal, so projecting one
        # out of the other would spoil it
        if abs(lam_j - lam) > sep or \
                abs(complex(_f(re_j - val[0]), _f(im_j - val[1]))) > sep:
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
            v = v - u * dd.vdot(u, v)
    return v


def _first_steps(a, vectors, shifts, starts, tol):
    """Step 0 of _inverse_iteration for members of one _first_solves
    chunk at once, none of which _deflate_against could act on.

    ``shifts`` holds (index, re, im) of one kind, each with a first solve
    in ``starts``.  Every row of the chunk runs the IEEE operations its
    own step 0 would: the finite check, both normalisations and the
    residual against a.  Each member whose residual meets ``tol`` goes
    into its column of ``vectors``; returns their indices and leaves the
    rest to _inverse_iteration.
    """
    x = dd.stack([starts[idx][2] for idx, _, _ in shifts])
    live = np.flatnonzero(_finite_rows(x))
    nv = _row_norms(x[live])
    # a zero or overflowing norm, like a restart, is _inverse_iteration's
    keep = np.isfinite(dd.approx(nv)) & (dd.approx(nv) != 0.0)
    live, nv = live[keep], nv[keep]
    v = x[live] * (1.0 / nv)[:, None]
    nv2 = _row_norms(v)
    keep = dd.approx(nv2) >= 1e-6
    live, v, nv2 = live[keep], v[keep], nv2[keep]
    if not len(live):
        return []
    v = v * (1.0 / nv2)[:, None]
    res = _residual_rows(a, v, [shifts[j][1:] for j in live])
    ok = res <= tol
    done = [shifts[j][0] for j in live[ok]]
    vectors[:, done] = v[ok].T
    for idx in done:
        del starts[idx]
    return done


def _finite_rows(x):
    """dd.isfinite_all of each row of x."""
    parts = (x.re, x.im) if isinstance(x, CDD) else (x,)
    return np.logical_and.reduce(
        [np.isfinite(p.hi if isinstance(p, DD) else p).all(axis=-1)
         for p in parts])


def _row_norms(x):
    """dd.norm2 of each row of x, with the bytes of the call on that row
    alone."""
    if isinstance(x, CDD):
        return dd.sqrt((x.re * x.re + x.im * x.im).sum(axis=-1))
    if isinstance(x, DD):
        return dd.sqrt((x * x).sum(axis=-1))
    # BLAS sums one row in another order than a reduction over rows
    return np.array([np.linalg.norm(r) for r in x])


# DD products (rows x n x n) of one block of _row_products: every row at
# once for n <= 16, 4 rows at n = 81.  The product's kernels hold about
# a dozen float64 temporaries of the block's size, 0.2 MiB each at
# 4 x 81 x 81, so the block stays far below the stacked LU's memory
_BLOCK_ELEMS = 1 << 15


def _row_products(a, x):
    """a @ x_j for each row x_j of x, with the bytes of that product
    alone: DD rows go in blocks of _BLOCK_ELEMS products, binary64 rows
    one BLAS product each."""
    if isinstance(x, CDD):
        # a is real: each part takes its own real products
        return CDD(_row_products(a, x.re), _row_products(a, x.im))
    if not isinstance(x, DD):
        return np.array([a @ r for r in x])
    step = max(1, _BLOCK_ELEMS // a.size)
    out = dd.zeros((len(x), a.shape[0]))
    for j in range(0, len(x), step):
        xj = x[j:j + step]
        p = DD._raw(a.hi[None], a.lo[None]) * \
            DD._raw(xj.hi[:, None, :], xj.lo[:, None, :])
        out[j:j + step] = p.sum(axis=-1)
    return out


def _residual_rows(a, v, vals):
    """||a v_j - lambda_j v_j|| as a float for each row v_j of v, with
    (re, im) of lambda_j in ``vals``: v is real for real eigenvalues and
    complex for complex ones."""
    if dd.is_complexkind(v):
        lam = dd.stack([_make_scalar_complex(a, re, im) for re, im in vals])
    else:
        lam = dd.stack([re for re, _ in vals])
    return dd.approx(_row_norms(_row_products(a, v) - v * lam[:, None]))


def _phase_fix(w):
    """Each row of w at unit norm, with its first significant component
    made real positive; a zero row stays as it is."""
    nv = _row_norms(w)
    live = np.flatnonzero(dd.approx(nv) != 0.0)
    v = w[live] * (1.0 / nv[live])[:, None]
    mags = np.abs(dd.approx(v))
    big = mags > math.sqrt(dd.eps_of(v)) * mags.max(axis=-1)[:, None]
    first = np.where(big.any(axis=-1), big.argmax(axis=-1),
                     mags.argmax(axis=-1))
    alpha = v[np.arange(len(live)), first]
    # abs of a binary64 complex array rounds otherwise than abs of each
    # entry; hypot rounds as the latter
    mod = abs(alpha) if dd.is_extended(alpha) else \
        np.hypot(alpha.real, alpha.imag)
    turn = np.flatnonzero(dd.approx(mod) != 0.0)
    ph = alpha[turn] / mod[turn]
    v[turn] = v[turn] * dd.conj(ph)[:, None]
    w[live] = v
    return w


# ----------------------------------------------------------------- norms

_U = dd.EPS64 / 2      # binary64 unit roundoff


def _gamma(k):
    # Higham's gamma_k = k u / (1 - k u): the relative error bound of
    # k binary64 roundings
    return k * _U / (1.0 - k * _U)


def spectral_norm(a):
    """A certified upper bound on sigma_max(a), from binary64 work.

    Let M be the binary64 image of a (its high parts), for complex a
    the real form [[Re, -Im], [Im, Re]] (same singular values, each
    doubled), transposed if wide and scaled by a power of 2 so that
    max |m_ij| lies in [1/2, 1).  M is m x d with d <= m, and u is the
    binary64 unit roundoff.

    - G = fl(M^T M) has |G - M^T M| <= gamma_m |M|^T |M|, so
      lambda_max(M^T M) <= lambda_max(G) + gamma_m ||M||_F^2.
    - Take theta = max eigvalsh(G) and s = fl(theta (1 + delta)).  If
      the binary64 Cholesky of X = fl(s I - G) runs to completion, its
      factor R has R^T R = X + E with |E| <= gamma_(d+1) |R|^T |R|
      (Higham, Thm 10.3), so X >= -||E||_2 I, and ||E||_2 <=
      gamma_(d+1) ||R||_1 ||R||_inf.  A successful floating-point
      Cholesky thus certifies definiteness (Rump, BIT 46, 2006).  X's
      diagonal carries one rounding, at most gamma_1 max x_ii.  So
      lambda_max(G) <= s + both terms.
    - delta starts at 4 d u and grows 16-fold on a failed Cholesky, at
      most 4 times; then NumericalFailureError.

    The result is the square root of the sum, rounded up, times the
    scale.  DD/CDD input adds u ||M||_F for the error of its binary64
    image and returns a 0-d DD; binary64 input returns a float.
    Underflow in the scaling, the products and the Cholesky adds at
    most d (m + d + 2) 2^-1074, which the rounding up covers since
    sigma_max(M) >= 1/2.  The excess over sigma_max is about half of
    delta + (gamma_(d+1) ||R||_1 ||R||_inf + gamma_m ||M||_F^2) / theta,
    relative: up to 1e-13 on the bound workloads' frames, and up to
    m d u / 2 (2.2e-12 at m = d = 200) when all singular values tie.
    A zero or empty matrix gives 0; a non-finite entry raises
    NumericalFailureError.
    """
    extended = dd.is_extended(a)
    mf = dd.approx(a)
    if np.iscomplexobj(mf):
        mf = np.block([[mf.real, -mf.imag], [mf.imag, mf.real]])
    if mf.shape[0] < mf.shape[1]:
        mf = mf.T
    m, d = mf.shape
    if not np.isfinite(mf).all():
        raise NumericalFailureError("spectral_norm of a non-finite matrix")
    top = np.abs(mf).max(initial=0.0)
    if top == 0.0:
        return _zero_of(a)
    scale = np.frexp(top)[1]
    mf = np.ldexp(mf, -scale)
    # einsum keeps the product off BLAS: eigvalsh is the only LAPACK call
    g = np.einsum("ki,kj->ij", mf, mf)
    # ||M||_F^2 bounded from G's diagonal and the roundings that formed it
    frob2 = np.trace(g) * (1.0 + _gamma(2 * (m + d)))
    theta = float(np.linalg.eigvalsh(g)[-1])
    delta = 4 * d * _U
    for _ in range(5):
        s = theta * (1.0 + delta)
        x = -g
        x[np.diag_indices(d)] += s
        xmax = x.diagonal().max()
        r = _cholesky(x)
        if r is not None:
            break
        delta *= 16.0
    else:
        raise NumericalFailureError(
            f"spectral_norm: no certificate up to delta = {delta / 16:.1e}")
    ar = np.abs(r)
    # 1 + gamma_(4d+2) covers the roundings of the two norms and their
    # product; 8 u covers the three sums of mu and its square root
    rnorms = ar.sum(axis=0).max() * ar.sum(axis=1).max()
    mu = (s + _gamma(d + 1) * (1.0 + _gamma(4 * d + 2)) * rnorms
          + _gamma(1) * xmax + _gamma(m) * frob2)
    sigma = np.sqrt(mu * (1.0 + 8 * _U))
    # each nextafter covers one rounding to nearest: the image term's
    # sum, then the scaling, which rounds only if the result is subnormal
    if extended:
        sigma = np.nextafter(sigma + _U * np.sqrt(frob2), np.inf)
    sigma = np.nextafter(np.ldexp(sigma, scale), np.inf)
    return dd.asdd(sigma) if extended else float(sigma)


def _cholesky(x):
    """Upper Cholesky factor of symmetric x by d rank-1 steps, or None
    if a pivot is not positive.  Destroys x."""
    d = x.shape[0]
    r = np.zeros_like(x)
    for k in range(d):
        p = x[k, k]
        if not p > 0.0:
            return None
        r[k, k] = np.sqrt(p)
        r[k, k + 1:] = x[k, k + 1:] / r[k, k]
        x[k + 1:, k + 1:] -= np.multiply.outer(r[k, k + 1:], r[k, k + 1:])
    return r


def condition_number_2(a):
    """sigma_max / sigma_min from the one-sided Jacobi SVD."""
    s = jacobi_svd(a)
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
