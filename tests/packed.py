"""Test-side reading of eig_nonsymmetric's real packed eigenvectors,
and the norm of a complex residual built from them."""

import numpy as np

from krybound import dd, linalg


def vector_parts(eo):
    """Re and Im of the complex eigenvectors that eig_nonsymmetric's
    result ``eo`` packs into real columns, in its precision: column i as
    it is for a real value, and for a pair (earlier member i, later
    member j) v = col i + i col j at i and conj v at j."""
    v = eo.vectors
    re, im = v.copy(), dd.zeros_like(v)
    for j, i in enumerate(linalg._conjugate_partners(eo.values)):
        if i is not None:
            re[:, j] = v[:, i]
            im[:, i], im[:, j] = v[:, j], -v[:, j]
    return re, im


def complex_vectors(eo):
    """vector_parts as one complex array of eo's precision."""
    re, im = vector_parts(eo)
    return dd.CDD(re, im) if dd.is_extended(re) else re + 1j * im


def packed_residuals(a, eo):
    """||a v - lambda v|| for each eigenpair of ``eo``, formed in DD from
    real parts: lambda v = (alpha x - beta y) + i (beta x + alpha y) for
    v = x + iy and lambda = alpha + i beta.  A list of floats."""
    x, y = (dd.asdd(p) for p in vector_parts(eo))
    a = dd.asdd(a)
    alpha, beta = (p[None, :] for p in dd.parts(eo.values))
    r_re = a @ x - (x * alpha - y * beta)
    r_im = a @ y - (x * beta + y * alpha)
    return np.sqrt(dd.approx((r_re * r_re + r_im * r_im).sum(axis=0))) \
        .tolist()


def complex_norm(x):
    """The 2-norm of a real or complex vector of either precision, in
    DD from its parts."""
    re, im = dd.parts(x)
    return dd.sqrt((re * re + im * im).sum())
