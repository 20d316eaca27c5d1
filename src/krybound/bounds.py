"""Residual upper bounds and first-order estimates for GMRES built from
the eigenvalue decomposition of the initial residual.

The chain: decompose r0 over the eigenvectors belonging to nonzero
eigenvalues, take the spectral norm of the weighted eigenvector frame
as a prefactor, and multiply by a minimized Vandermonde residual (the
sharp route), by a cluster-polynomial evaluation (the structural
route), or by its first-order expansion in the cluster radius (the
cheap route).  The Vandermonde minima for every k come from one GMRES
run on diag(lambda), which never forms the power basis; it and the
polynomial products run in extended precision regardless of the solver
precision, so the curve keeps falling below binary64 resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import dd
from .dd import CDD, DD
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


def _cplx(x):
    v = dd.approx(x)
    return complex(v)


def _to_cdd_vector(lam):
    if isinstance(lam, CDD):
        return lam
    if isinstance(lam, DD):
        return CDD(lam, dd.zeros(lam.shape))
    return dd.ascdd(np.asarray(lam, dtype=complex))


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
    lam = _to_cdd_vector(lambdas)
    re, im = lam.re, lam.im
    if np.any((re.hi == 0.0) & (im.hi == 0.0)):
        # p(0) = 1 there at every k: no minimum falls below its weight
        raise InapplicableError("a point at zero bounds nothing")
    src, first = [], []
    for i, mate in enumerate(_conjugate_partners(lam)):
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
    points = set(_exact_keys(lam))
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
    centers: object          # distinct complex centers, working precision
    offsets: object          # lambda_i - center_of(i), aligned with input
    center_of: np.ndarray    # eigenvalue index -> center index
    epsilon: float           # max |offset|


def cluster_assign(lambdas, radius=None, s=None, centers=None):
    """Group eigenvalues around centers by one of three rules.

    radius: single-linkage components under distance 2*radius, centers
    at member means.  s: greedy farthest-point seeding of s centers,
    then nearest assignment and recentering at means.  centers: taken
    verbatim, nearest assignment, never recentered.  A radius must be
    >= 0; radius 0 joins exact ties only.
    """
    modes = sum(x is not None for x in (radius, s, centers))
    if modes != 1:
        raise ValueError("specify exactly one of radius, s, centers")
    if radius is not None and not float(radius) >= 0.0:
        raise ValueError(f"cluster radius must be >= 0, got {radius}")
    lam = _to_cdd_vector(lambdas)
    d = lam.shape[0]
    img = dd.approx(lam)
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
        cen = dd.ascdd(cimg)
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
            groups = [[i for i in range(d) if nearest[i] == g]
                      for g in range(s)]
        center_of = np.empty(d, dtype=int)
        cen = dd.czeros((len(groups),))
        for g, members in enumerate(groups):
            acc = lam[members[0]]
            for i in members[1:]:
                acc = acc + lam[i]
            cen[g] = acc * (1.0 / len(members))
            center_of[members] = g
    cen_img = dd.approx(cen)
    if np.any(np.abs(cen_img) == 0.0):
        raise InapplicableError("a cluster center collapsed to zero")
    offsets = dd.czeros((d,))
    for i in range(d):
        offsets[i] = lam[i] - cen[int(center_of[i])]
    eps = float(np.abs(dd.approx(offsets)).max(initial=0.0))
    return ClusterAssignment(cen, offsets, center_of, eps)


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
    out = np.empty(len(img), dtype=int)
    for i, z in enumerate(img):
        dist = np.abs(cimg - z)
        out[i] = int(np.argmin(dist))
    return out


# -------------------------------------------------- cluster polynomial

def _root_set(e, ca, k):
    """Roots for the degree-k annihilating polynomial at iteration k.

    k <= s: the k centers covering the most eigenvalues; beyond that,
    every center plus the k - s eigenvalues farthest from theirs,
    treated as exact roots.
    """
    img = dd.approx(ca.centers)
    s = len(img)
    counts = np.bincount(ca.center_of, minlength=s)
    lam = _to_cdd_vector(e.lambdas)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k <= s:
        sel = sorted(range(s), key=lambda g: (-counts[g], -abs(img[g]),
                                              math.atan2(img[g].imag,
                                                         img[g].real), g))
        return [ca.centers[g] for g in sel[:k]], []
    extra = k - s
    off = np.abs(dd.approx(ca.offsets))
    if extra > len(off):
        raise ValueError(
            f"k={k} needs {extra} eigenvalue roots but only {len(off)} exist")
    by_offset = _descending_offset_order(ca)
    idx = by_offset[:extra]
    return [ca.centers[g] for g in range(s)], [lam[i] for i in idx]


def _descending_offset_order(ca):
    off = dd.approx(ca.offsets)
    mags = np.abs(off)
    return sorted(range(len(mags)),
                  key=lambda i: (-mags[i], math.atan2(off[i].imag,
                                                      off[i].real), i))


def cluster_poly_bound(e, ca, k):
    """Bound from the polynomial vanishing on centers (and, past s,
    on the worst offenders): prefactor times the norm of f over the
    spectrum, with f kept in product form throughout."""
    center_roots, eigen_roots = _root_set(e, ca, k)
    roots = list(center_roots) + list(eigen_roots)
    for r in roots:
        if abs(_cplx(r)) == 0.0:
            raise InapplicableError("polynomial root at zero is invalid")
    lam = _to_cdd_vector(e.lambdas)
    d = lam.shape[0]
    vals = dd.czeros((d,))
    for i in range(d):
        acc = CDD(dd.ones(()) * -1.0, dd.zeros(()))
        li = lam[i]
        for r in roots:
            acc = acc * (1.0 - li / r)
        vals[i] = acc
    fnorm = dd.norm2(vals)
    return e.frame_norm * fnorm


def first_order_estimate(e, ca, k):
    """First-order size of the cluster bound in the offsets, in
    residual-norm units: the weighted-frame norm times one of two forms.

    Single center at one: the closed form eps_k sqrt(d-k+1) prod
    |1-lambda_i|/|lambda_i| over the k-1 largest offsets.  Otherwise
    (k >= s): max remaining offset times the norm of f' at each
    remaining eigenvalue's center, skipping eigenvalues that sit
    exactly on their center.
    """
    s = ca.centers.shape[0]
    lam = _to_cdd_vector(e.lambdas)
    order = _descending_offset_order(ca)
    off_mags = np.abs(dd.approx(ca.offsets))
    d = lam.shape[0]
    single_at_one = s == 1 and abs(_cplx(ca.centers[0]) - 1.0) <= 1e-8
    if single_at_one:
        if not (1 <= k <= d):
            raise ValueError(f"k must lie in 1..{d}, got {k}")
        eps_k = float(off_mags[order[k - 1]])
        prod = dd.ones(())
        for t in range(k - 1):
            li = lam[order[t]]
            prod = prod * (abs(1.0 - li) / abs(li))
        return e.frame_norm * (prod * (eps_k * math.sqrt(d - k + 1)))
    if k < s:
        raise InapplicableError(
            f"multi-center estimate needs k >= {s} centers, got k={k}")
    center_roots, eigen_roots = _root_set(e, ca, k)
    roots = list(center_roots) + list(eigen_roots)
    remaining = order[k - s:]
    keep = [i for i in remaining if off_mags[i] > 0.0]
    if not keep:
        return dd.zeros(())
    eps_eff = float(max(off_mags[i] for i in keep))
    fp = dd.czeros((len(keep),))
    for t, i in enumerate(keep):
        g = ca.centers[int(ca.center_of[i])]
        fp[t] = _poly_derivative_at_root(g, roots)
    return e.frame_norm * (dd.norm2(fp) * eps_eff)


def _poly_derivative_at_root(g, roots):
    """d/dgamma of -prod(1 - gamma/rho) at gamma = g, g among the roots."""
    acc = CDD(dd.ones(()), dd.zeros(()))
    acc = acc * (1.0 / g)
    seen_self = False
    for r in roots:
        if not seen_self and _cplx(r) == _cplx(g):
            seen_self = True
            continue
        acc = acc * (1.0 - g / r)
    if not seen_self:
        raise InapplicableError("center is not among the polynomial roots")
    return acc
