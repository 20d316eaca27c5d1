"""Test-side reading of eig_nonsymmetric's real packed eigenvectors,
and the norm of a complex residual built from them."""

from krybound import dd, linalg


def complex_vectors(eo):
    """The complex eigenvectors that eig_nonsymmetric's result ``eo``
    packs into real columns, in its precision: column i as it is for a
    real value, and for a pair (earlier member i, later member j) v =
    col i + i col j at i and conj v at j."""
    v = eo.vectors
    re, im = v.copy(), dd.zeros_like(v)
    for j, i in enumerate(linalg._conjugate_partners(eo.values)):
        if i is not None:
            re[:, j] = v[:, i]
            im[:, i], im[:, j] = v[:, j], -v[:, j]
    return dd.CDD(re, im) if dd.is_extended(v) else re + 1j * im


def complex_norm(x):
    """The 2-norm of a real or complex vector of either precision, in
    DD from its parts."""
    re, im = dd.parts(x)
    return dd.sqrt((re * re + im * im).sum())
