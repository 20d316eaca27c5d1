"""Residual upper bounds and first-order estimates for GMRES built from
the eigenvalue decomposition of the initial residual.

The chain: decompose r0 over the eigenvectors belonging to nonzero
eigenvalues, take the spectral norm of the weighted eigenvector frame
as a prefactor, and multiply by a minimized Vandermonde residual (the
sharp route), by a cluster-polynomial evaluation (the structural
route), or by its first-order expansion in the cluster radius (the
cheap route).  The Vandermonde minima for every k come from one GMRES
run on diag(lambda), which never forms the power basis.  It and the
cluster polynomials run in extended precision regardless of the solver
precision, so the curve keeps falling below binary64 resolution, and in
real arithmetic: complex points are (re, im) pairs of DD arrays, a
conjugate pair is a real 2 x 2 block, and a cluster polynomial's value
is a product of moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import dd
from .errors import InapplicableError, NumericalFailureError, RangeError
from .gmres import GmresOptions, TraceRow, _engine
from .linalg import (_conjugate_partners, _exact_keys, _require_real,
                     condition_number_2, eig_nonsymmetric, lstsq,
                     spectral_norm)
from .nrsor import nrsor_apply, preconditioned_matrix

__all__ = [
    "EigenData", "analyse", "decompose_rhs", "weighted_norm", "bound_curve",
    "vandermonde_min", "BoundSeries", "BoundPoint", "ClusterAssignment",
    "cluster_assign", "cluster_poly_bound", "first_order_estimate",
]


def _f(x):
    return float(dd.approx(x))


# ------------------------------------------------------------ eigen data

@dataclass
class EigenData:
    """r0 = V c over the retained eigenpairs, as a real frame.  Column i
    belongs to lambdas[i]: c_i v_i for a real eigenvalue; for a
    conjugate pair (earlier member i, later member j, as
    _conjugate_partners pairs them) sqrt 2 Re(c_i v_i) in column i and
    sqrt 2 Im(c_i v_i) in column j: the packed layout of
    eig_nonsymmetric's vectors, weighted.  [z, conj z] is [sqrt 2 Re z,
    sqrt 2 Im z] times a unitary matrix, so the frame has the singular
    values of V diag(c), and frame / scales those of V."""
    d: int
    lambdas: object           # complex, pairwise distinct after merging
    frame: object             # real n x d
    scales: object            # |c_i| for unit v_i, all positive
    residual: object          # ||r0 - V c||, the unexplained part

    @cached_property
    def vector_condition(self):
        # kappa_2(V); on demand because the SVD dwarfs every other cost
        # at extended precision and the curve bounds never read it
        return condition_number_2(self.frame / self.scales)

    @cached_property
    def frame_norm(self):
        # the prefactor of every bound, a certified upper bound on
        # ||V diag(c)||_2; one Gram check serves all k
        return weighted_norm(self)


def analyse(a, b, ncfg=None):
    """Eigen data of the operator the solver iterates with: a and r0 = b
    for GMRES (ncfg None); for BA-GMRES with the NR-SOR set-up ncfg,
    I - H^l and w0 = B b."""
    if ncfg is None:
        return decompose_rhs(dd.dense(a), b)
    return decompose_rhs(preconditioned_matrix(a, ncfg),
                         nrsor_apply(a, ncfg, b))


def decompose_rhs(op_matrix, r0):
    """Expand the real r0 over eigenvectors of op_matrix with nonzero
    eigenvalues, as EigenData's real frame.

    Eigenpairs whose |lambda| falls below 1e-12 relative to the largest
    are discarded.  The weights come from a least-squares solve against
    eig_nonsymmetric's real columns of the rest: each real eigenvector,
    then Re v and Im v for the earlier member of each conjugate pair
    (see _frame), so the expansion is exactly the projection onto their
    span and the QR is real.  The pairs are eig_nonsymmetric's
    (_conjugate_partners), so a repeated pair gives two column pairs.
    Exactly equal eigenvalues are folded into one, whose column is the
    sum of theirs; then eigenvalues with |c_i| at most 1e-30 (extended)
    or 1e-12 (binary64) of ||c|| = ||frame||_F are dropped, which drops
    a group whose columns cancel.  A right-hand side outside the span is
    a contract violation and raises RangeError; a complex r0 raises
    DimensionMismatchError, and a non-finite one NumericalFailureError.
    """
    _require_real("decompose_rhs", r0)
    if not dd.isfinite_all(r0):
        raise NumericalFailureError(
            "decompose_rhs: non-finite entries in the right-hand side")
    eo = eig_nonsymmetric(op_matrix)
    mods = np.abs(dd.approx(eo.values))
    if not mods.any():
        raise RangeError("operator has no nonzero eigenvalues")
    keep = np.flatnonzero(mods > 1e-12 * mods.max())
    v, lam = eo.vectors[:, keep], eo.values[keep]
    real, first, later = _conjugate_columns(lam)
    sol = lstsq(v[:, real + first + later], r0)
    scale = _f(dd.norm2(r0))
    unexplained = _f(sol.residual_norm)
    if unexplained > 1e-6 * scale:
        raise RangeError(
            f"right-hand side has a component of norm {unexplained:.3e} "
            f"outside the nonzero-eigenvalue span (rhs norm {scale:.3e})")
    lam, frame = _merge_duplicates(lam, _frame(sol.x, v, real, first, later))
    # |c_i| = ||c_i v_i||: a real eigenvalue's column norm, and for a
    # pair the root mean square of its two, as ||sqrt 2 Re z||^2 +
    # ||sqrt 2 Im z||^2 = 2 ||z||^2
    sq = (frame * frame).sum(axis=0)
    _, first, later = _conjugate_columns(lam)
    sq[first] = sq[later] = (sq[first] + sq[later]) * 0.5
    scales = dd.sqrt(sq)
    # binary64 eigenvector noise shows up as weights near 1e-14
    c_tol = 1e-30 if dd.is_extended(frame) else 1e-12
    retained = np.flatnonzero(dd.approx(scales)
                              > c_tol * _f(dd.norm2(scales)))
    if not len(retained):
        raise RangeError("all expansion weights fall below the threshold")
    return EigenData(len(retained), lam[retained], frame[:, retained],
                     scales[retained], sol.residual_norm)


def _conjugate_columns(lam):
    """Columns of real eigenvalues, and of each conjugate pair's earlier
    and later member (_conjugate_partners), in order of the later."""
    real = np.flatnonzero(dd.approx(lam).imag == 0.0).tolist()
    partners = _conjugate_partners(lam)
    later = [j for j, i in enumerate(partners) if i is not None]
    return real, [partners[j] for j in later], later


def _frame(y, v, real, first, later):
    """EigenData's frame from the least-squares weights y on the packed
    vectors v: y[k] v on column real[k].  Pair p's weights alpha =
    y[len(real) + p] and beta = y[len(real + first) + p] of Re v and
    Im v, for the earlier member's v, make its weight c = (alpha - i
    beta)/2, so column first[p] is sqrt 2 Re(c v) = (alpha Re v + beta
    Im v)/sqrt 2 and column later[p] sqrt 2 Im(c v) = (alpha Im v - beta
    Re v)/sqrt 2."""
    nr, m = len(real), len(real) + len(first)
    root_half = dd.sqrt(dd.asdd(0.5)) if dd.is_extended(y) \
        else math.sqrt(0.5)
    alpha, beta = y[nr:m] * root_half, y[m:] * root_half
    u, w = v[:, first], v[:, later]
    frame = dd.zeros_like(v)
    frame[:, real] = v[:, real] * y[:nr]
    frame[:, first] = u * alpha + w * beta
    frame[:, later] = w * alpha - u * beta
    return frame


def _merge_duplicates(lam, frame):
    """One eigenvalue per exact value, whose column is the sum of its
    members' columns: the sum of their c_i v_i, or of those parts."""
    groups: dict = {}     # exact eigenvalue -> its columns, in order
    for i, key in enumerate(_exact_keys(lam)):
        groups.setdefault(key, []).append(i)
    if len(groups) == len(lam):
        return lam, frame
    merged = dd.zeros_like(frame, (frame.shape[0], len(groups)))
    for g, members in enumerate(groups.values()):
        merged[:, g] = frame[:, members].sum(axis=1)
    return lam[[members[0] for members in groups.values()]], merged


# --------------------------------------------------------------- norms

def weighted_norm(e):
    """Certified upper bound on ||V diag(c)||_2, taken on the real frame,
    which has the same singular values."""
    return spectral_norm(e.frame)


# --------------------------------------------------------- Vandermonde

def vandermonde_min(lambdas, k_max):
    """min over p of degree k with p(0) = 1 of ||p(lambda)||_2, for
    k = 1..k_max, as a 1-d DD array whose index 0 is k = 1.

    Every minimum is the GMRES residual of diag(lambda) from the
    all-ones vector, so one run of the solver's engine gives the whole
    curve (Vandermonde with Arnoldi; Brubeck, Nakatsukasa and
    Trefethen, SIAM Rev. 63, 2021).  The run is real and in extended
    precision: see _real_diagonal, which pairs conjugates exactly as
    eig_nonsymmetric does.  Each value is the recomputed norm
    of the residual the engine's iterate attains, plus a margin for the
    rounding of that norm, so it does not fall below the iterate's true
    residual; after convergence or breakdown the remaining k keep the
    last one.  From k = the number of distinct points on, the minimum
    is exactly 0: p vanishes on them all.  A point at 0 raises
    InapplicableError.
    """
    if k_max < 1:
        raise InapplicableError(f"k_max must be >= 1, got {k_max}")
    alpha, beta, partner, start, degree = _real_diagonal(lambdas)
    # the minima do not depend on the points' scale: scale them exactly,
    # as eig_nonsymmetric scales its input, so no square overflows
    e = int(np.frexp(max(np.abs(alpha.hi).max(),
                         np.abs(beta.hi).max()))[1]) - 1
    alpha, beta = dd.ldexp(alpha, -e), dd.ldexp(beta, -e)
    # Rounding margin for ||s - A x||, to first order in EPS.  Each DD
    # product and sum lies within 2 EPS of its exact value, so entry i
    # of the computed s - A x is off by at most 6 EPS (|s_i| + |alpha_i
    # x_i| + |beta_i x_p|); over all entries that is at most 6 EPS
    # (||s|| + sqrt 2 ||A x||) <= 9 EPS (2 ||s|| + r), as A acts on each
    # block as a scaled rotation and ||A x|| <= ||s|| + r.  The squares,
    # the tree sum of depth log2 n and the square root add (3 + log2 n)
    # EPS r.  So the true norm of the iterate's residual is at most the
    # computed r plus (12 + log2 n) EPS (2 ||s|| + r).  The iterate
    # itself lies in the Krylov space only up to the Arnoldi basis's
    # roundoff, which this margin does not bound; on the d = 60
    # clustered spectrum of the tests that drift is at most 4.3e-32
    # over k = 1..25, against a margin of at least 1.4e-29.
    n = start.shape[0]
    margin = (12 + math.log2(n)) * dd.EPS
    two_snorm = 2.0 * math.sqrt(n)    # ||s||^2 = n: 1 per real point, 2 per pair

    def apply_op(v):
        # a vector, or a block of them as rows
        return alpha * v + beta * v[..., partner]

    def recompute(xs, estimates):
        # one (k, n) block of residuals: each row has the bytes of its
        # own vector's residual
        r = start - apply_op(dd.stack(xs))
        rn = dd.sqrt((r * r).sum(axis=-1))
        rn = rn + margin * (two_snorm + dd.approx(rn))
        return [TraceRow(0, rn[i], rn[i], None, e)
                for i, e in enumerate(estimates)]

    steps = min(k_max, degree - 1)
    out = dd.zeros((k_max,))
    if steps > 0:
        rn = dd.norm2(start)
        trace = _engine(apply_op, start, TraceRow(0, rn, rn, None, rn),
                        GmresOptions(rtol=dd.EPS, max_iterations=steps),
                        recompute)
        for row in trace.rows[1:]:
            out[row.k - 1:steps] = row.residual_norm
    return out


def _real_diagonal(lambdas):
    """diag(lambda) and the all-ones start vector in real coordinates.

    Each conjugate pair a +- ib, with start entries (1, 1), becomes the
    block [[a, b], [-b, a]] with entries (sqrt 2, 0): a unitary
    similarity, so every polynomial norm is kept.  Points pair as in
    eig_nonsymmetric (_conjugate_partners); a complex point without a
    partner gets its conjugate added, which can only raise the
    minimum.  Returns alpha, beta, partner and the start vector, with
    diag(lambda) v = alpha * v + beta * v[partner], and the number of
    distinct points.
    """
    re, im = dd.parts(lambdas)
    if np.any((re.hi == 0.0) & (im.hi == 0.0)):
        # p(0) = 1 there at every k: no minimum falls below its weight
        raise InapplicableError("a point at zero bounds nothing")
    src, first = [], []
    for i, mate in enumerate(_conjugate_partners(lambdas)):
        if im.hi[i] == 0.0:
            src.append(i)
        elif mate is None:            # a block's first point
            first.append(len(src))
            src += [i, i]
    first = np.array(first, dtype=int)
    partner = np.arange(len(src))
    partner[first], partner[first + 1] = first + 1, first
    sign = np.zeros(len(src))
    sign[first], sign[first + 1] = 1.0, -1.0
    start = dd.ones((len(src),))
    start[first] = dd.sqrt(dd.asdd(2.0))
    start[first + 1] = 0.0
    points = set(_exact_keys(lambdas))
    degree = len(points | {(rh, rl, -ih, -il) for rh, rl, ih, il in points})
    return re[src], abs(im[src]) * sign, partner, start, degree


@dataclass
class BoundPoint:
    k: int
    vandermonde_min: object
    bound: object


@dataclass
class BoundSeries:
    prefactor: object
    points: list = field(default_factory=list)

    def bound_at(self, k):
        return self.points[k - 1].bound


def bound_curve(e, k_max):
    """Prefactor times the minimized Vandermonde residual for k = 1..k_max.

    The minima come from one vandermonde_min run; each is the residual
    a polynomial of degree k attains, recomputed in extended precision.
    k_max = 0 gives no points.
    """
    pref = e.frame_norm
    if k_max < 1:
        return BoundSeries(pref)
    minima = vandermonde_min(e.lambdas, k_max)
    return BoundSeries(pref, [BoundPoint(k, minima[k - 1],
                                         pref * minima[k - 1])
                              for k in range(1, k_max + 1)])


# ------------------------------------------------------------- clusters

@dataclass
class ClusterAssignment:
    """Centers and offsets as real (re, im) pairs of DD arrays."""
    centers: tuple           # distinct centers
    offsets: tuple           # lambda_i - center_of(i), aligned with input
    center_of: np.ndarray    # eigenvalue index -> center index
    epsilon: float           # max |offset|

    @property
    def s(self):
        """The number of centers."""
        return len(self.centers[0])


def _image(x, y):
    """Binary64 image of the complex points with DD parts x and y."""
    return x.to_float() + 1j * y.to_float()


def _modulus(x, y):
    """|x + iy| in DD, elementwise.  The parts are scaled by a power of
    two first, exactly, so no square overflows or underflows."""
    m = np.maximum(np.abs(x.hi), np.abs(y.hi))
    e = np.frexp(np.where(m == 0.0, 1.0, m))[1]
    x, y = dd.ldexp(x, -e), dd.ldexp(y, -e)
    return dd.ldexp(dd.sqrt(x * x + y * y), e)


def cluster_assign(lambdas, radius=None, s=None, centers=None):
    """Group eigenvalues around centers by one of three rules.

    radius: single-linkage components under distance 2*radius, centers
    at member means.  s: greedy farthest-point seeding of s centers,
    then nearest assignment and recentering at means.  centers: taken
    verbatim, nearest assignment, never recentered.  A radius must be
    >= 0; radius 0 joins exact ties only.  Grouping decisions read the
    binary64 image; centers and offsets are DD.
    """
    modes = sum(x is not None for x in (radius, s, centers))
    if modes != 1:
        raise ValueError("specify exactly one of radius, s, centers")
    if radius is not None and not float(radius) >= 0.0:
        raise ValueError(f"cluster radius must be >= 0, got {radius}")
    x, y = dd.parts(lambdas)
    d = len(x)
    img = _image(x, y)
    if np.any(np.abs(img) == 0.0):
        raise InapplicableError("zero eigenvalue cannot join any cluster")
    order = sorted(range(d), key=lambda i: (abs(img[i]),
                                            math.atan2(img[i].imag,
                                                       img[i].real), i))
    if centers is not None:
        cimg = np.asarray(centers, dtype=complex)
        if len(set(cimg.tolist())) != len(cimg):
            raise ValueError("explicit centers must be pairwise distinct")
        if np.any(np.abs(cimg) == 0.0):
            raise InapplicableError("a cluster center at zero is invalid")
        cx, cy = dd.parts(cimg)
        center_of = _nearest(img, cimg)
    else:
        if radius is not None:
            groups = _linkage_groups(img, order, 2.0 * float(radius))
        else:
            s = int(s)
            distinct = len(set(img.tolist()))
            if s < 1 or s > distinct:
                raise ValueError(
                    f"requested {s} centers but only {distinct} distinct "
                    f"eigenvalues are available")
            nearest = _nearest(img, img[_greedy_seeds(img, order, s)])
            groups = [np.flatnonzero(nearest == g).tolist()
                      for g in range(s)]
        center_of = np.empty(d, dtype=int)
        for g, members in enumerate(groups):
            center_of[members] = g
        cx, cy = (dd.stack([p[m].sum() * (1.0 / len(m)) for m in groups])
                  for p in (x, y))
    if np.any(np.abs(_image(cx, cy)) == 0.0):
        raise InapplicableError("a cluster center collapsed to zero")
    offsets = (x - cx[center_of], y - cy[center_of])
    eps = float(np.abs(_image(*offsets)).max(initial=0.0))
    return ClusterAssignment((cx, cy), offsets, center_of, eps)


def _linkage_groups(img, order, tol):
    parent = list(range(len(img)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in range(len(img)):
        for b in range(a + 1, len(img)):
            if abs(img[a] - img[b]) <= tol:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    roots: dict = {}
    groups = []
    for i in order:
        r = find(i)
        if r not in roots:
            roots[r] = len(groups)
            groups.append([])
        groups[roots[r]].append(i)
    return groups


def _greedy_seeds(img, order, s):
    seeds = [order[0]]
    while len(seeds) < s:
        best = None
        best_dist = -1.0
        for i in order:
            dmin = min(abs(img[i] - img[j]) for j in seeds)
            if dmin > best_dist:
                best = i
                best_dist = dmin
        seeds.append(best)
    return seeds


def _nearest(img, cimg):
    return np.abs(img[:, None] - cimg[None, :]).argmin(axis=1)


# -------------------------------------------------- cluster polynomial

def _root_set(ca, k):
    """Roots of the degree-k annihilating polynomial at iteration k, as
    indices: of centers, and of eigenvalues treated as exact roots.

    k <= s: the k centers covering the most eigenvalues; beyond that,
    every center plus the k - s eigenvalues farthest from theirs.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    s = ca.s
    if k <= s:
        img = _image(*ca.centers)
        counts = np.bincount(ca.center_of, minlength=s)
        sel = sorted(range(s), key=lambda g: (-counts[g], -abs(img[g]),
                                              math.atan2(img[g].imag,
                                                         img[g].real), g))
        return sel[:k], []
    extra = k - s
    d = len(ca.center_of)
    if extra > d:
        raise ValueError(
            f"k={k} needs {extra} eigenvalue roots but only {d} exist")
    return list(range(s)), _descending_offset_order(ca)[:extra]


def _descending_offset_order(ca):
    off = _image(*ca.offsets)
    mags = np.abs(off)
    return sorted(range(len(mags)),
                  key=lambda i: (-mags[i], math.atan2(off[i].imag,
                                                      off[i].real), i))


def _roots(e, ca, k):
    """_root_set's roots, centers first, as (g, re, im): g the index of
    a center root, else None, and its parts as 0-d DD."""
    centers, eigen = _root_set(ca, k)
    (cx, cy), (x, y) = ca.centers, dd.parts(e.lambdas)
    return [(g, cx[g], cy[g]) for g in centers] + \
        [(None, x[i], y[i]) for i in eigen]


def cluster_poly_bound(e, ca, k):
    """Bound from the polynomial f(z) = -prod(1 - z/r) vanishing on
    centers (and, past s, on the worst offenders): prefactor times the
    norm of f over the spectrum.  Each |f(lambda)| is the product over
    the roots of |r - lambda| / |r|, moduli taken in DD from the parts'
    differences."""
    x, y = dd.parts(e.lambdas)
    f = dd.ones(x.shape)
    for _, rx, ry in _roots(e, ca, k):
        if rx.hi == 0.0 and ry.hi == 0.0:
            raise InapplicableError("polynomial root at zero is invalid")
        f = f * (_modulus(x - rx, y - ry) / _modulus(rx, ry))
    return e.frame_norm * dd.norm2(f)


def first_order_estimate(e, ca, k):
    """First-order size of the cluster bound in the offsets, in
    residual-norm units, for k >= s: the weighted-frame norm times the
    largest remaining offset times the norm of f' at each remaining
    eigenvalue's center, skipping eigenvalues that sit exactly on their
    center.  At a center g, which is a root of f, |f'(g)| is the product
    over the other roots of |r - g| / |r|, over |g|.
    """
    s = ca.s
    if k < s:
        raise InapplicableError(
            f"multi-center estimate needs k >= {s} centers, got k={k}")
    roots = _roots(e, ca, k)
    off = _modulus(*ca.offsets)
    keep = [i for i in _descending_offset_order(ca)[k - s:]
            if off.hi[i] > 0.0]
    if not keep:
        return dd.zeros(())
    cx, cy = ca.centers
    fp = 1.0 / _modulus(cx, cy)
    for g, rx, ry in roots:
        q = _modulus(rx - cx, ry - cy) / _modulus(rx, ry)
        if g is not None:
            q[g] = 1.0          # center g's own root, which f'(g) drops
        fp = fp * q
    # the largest offset, exactly: DD values order as their (hi, lo)
    off = off[keep]
    eps_eff = off[np.lexsort((off.lo, off.hi))[-1]]
    return e.frame_norm * (dd.norm2(fp[ca.center_of[keep]]) * eps_eff)
