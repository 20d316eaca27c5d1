"""NR-SOR inner iteration: column sweeps on the least-squares normal
system, used as an implicit preconditioner inside BA-GMRES.

The solver path touches only the nonzeros of A. A sweep visits the
columns in natural order, in runs of consecutive columns whose row
supports are pairwise disjoint; such columns have a zero block in
A^T A, so their updates commute and a run updates all its columns at
once. The normal-equation matrix is formed densely only in the
analysis helpers (explicit splitting and the preconditioned matrix),
never while solving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dd
from .errors import DimensionMismatchError, InvalidMatrixError
from .gmres import ba_gmres
from .linalg import solve_triangular

__all__ = [
    "NrsorConfig", "nrsor_config", "nrsor_apply", "SplittingMatrices",
    "explicit_splitting", "preconditioned_matrix", "nrsor_ba_gmres",
]


@dataclass
class NrsorConfig:
    omega: float
    inner_steps: int
    column_norms: object     # ||a_i||^2, one per column, working precision
    runs: list               # (rows, values, cols) per run; see _runs


def nrsor_config(a, omega=1.0, inner_steps=1):
    """Validate parameters, split the columns into runs and precompute
    squared column norms once."""
    if not (0.0 < omega < 2.0):
        raise ValueError(f"omega must lie in (0, 2), got {omega}")
    if inner_steps < 1:
        raise ValueError(f"inner_steps must be >= 1, got {inner_steps}")
    n = a.shape[1]
    runs = _runs(a)
    norms = dd.zeros_like(a, (n,))
    for _, vals, cols in runs:
        norms[cols] = _dots(vals, vals)
    dead = [int(i) for i in np.nonzero(dd.approx(norms) == 0.0)[0]]
    if dead:
        raise InvalidMatrixError(f"zero columns at indices {dead}")
    return NrsorConfig(float(omega), int(inner_steps), norms, runs)


def _runs(a):
    """Maximal runs of consecutive columns with disjoint row supports.

    Greedy in natural order. A run of k columns is (rows, values, cols):
    rows and values are (L, k) tables of each column's row indices and
    values, its nonzeros in row order, padded with zero values at row m
    (a slot the sweep keeps at the end of its residual, so padding never
    aliases a real row) up to L, the power of two the DD tree sum pads
    to anyway; cols is the slice of the run's columns. A one-column run
    that covers every row keeps the whole column and an integer index,
    so a dense matrix runs the plain column-by-column sweep on 0-d
    scalars.
    """
    m, n = a.shape
    col, row = np.nonzero(dd.approx(a).T != 0.0)    # column-major order
    ptr = np.searchsorted(col, np.arange(n + 1))
    starts = [0]
    last = np.full(m, -1)        # latest column that used each row
    for i in range(n):
        rows = row[ptr[i]:ptr[i + 1]]
        if (last[rows] >= starts[-1]).any():
            starts.append(i)
        last[rows] = i
    starts.append(n)
    runs = []
    for i0, i1 in zip(starts[:-1], starts[1:]):
        lo, hi = ptr[i0], ptr[i1]
        if i1 - i0 == 1 and hi - lo == m:
            runs.append((slice(0, m), a[:, i0], i0))
            continue
        size = 1 << (int(np.diff(ptr[i0:i1 + 1]).max()) - 1).bit_length()
        j, r = col[lo:hi], row[lo:hi]
        at = (np.arange(lo, hi) - ptr[j], j - i0)   # position in the table
        rows = np.full((size, i1 - i0), m)
        rows[at] = r
        vals = dd.zeros_like(a, (size, i1 - i0))
        vals[at] = a[r, j]
        runs.append((rows, vals, slice(i0, i1)))
    return runs


def _dots(vals, r):
    # one inner product per column of vals; a 1-D run is one dense column
    if vals.ndim == 1:
        return dd.vdot(vals, r)
    return (vals * r).sum(axis=0)


def nrsor_apply(a, cfg, u):
    """w = P^(l) A^T u: l relaxation sweeps on A^T A w = A^T u from w = 0.

    Each sweep visits columns in natural order, a run of columns with
    disjoint row supports at a time; the running residual r starts at u
    and is corrected run by run, at the rows the run touches. A's
    entries come from cfg, which nrsor_config built from this same a.
    """
    m, n = a.shape
    if u.shape != (m,):
        raise DimensionMismatchError(f"operand shape {u.shape} vs m={m}")
    w = dd.zeros_like(u, (n,))
    r = dd.zeros_like(u, (m + 1,))    # r[m] stays zero: the padding slot
    r[:m] = u
    omega = cfg.omega
    for _ in range(cfg.inner_steps):
        for rows, vals, cols in cfg.runs:
            g = r[rows]
            delta = (_dots(vals, g) * omega) / cfg.column_norms[cols]
            w[cols] = w[cols] + delta
            r[rows] = g - vals * delta
    return w


@dataclass
class SplittingMatrices:
    m: object     # D/omega + L  (lower triangular)
    n: object     # (1/omega - 1) D - U
    h: object     # M^{-1} N


def explicit_splitting(a, omega=1.0):
    """Dense splitting of A^T A for analysis; M - N = A^T A by design."""
    if not (0.0 < omega < 2.0):
        raise ValueError(f"omega must lie in (0, 2), got {omega}")
    ata = a.T @ a
    n = ata.shape[0]
    dead = [int(i) for i in np.nonzero(np.diag(dd.approx(ata)) == 0.0)[0]]
    if dead:
        raise InvalidMatrixError(f"zero columns at indices {dead}")
    d = np.arange(n)
    below = np.tri(n, k=-1, dtype=bool)
    m = dd.zeros_like(ata, (n, n))
    nn = dd.zeros_like(ata, (n, n))
    m[below] = ata[below]
    nn[below.T] = -ata[below.T]
    m[d, d] = ata[d, d] / omega
    # D/omega - D, in working precision so M - N = A^T A holds exactly
    nn[d, d] = m[d, d] - ata[d, d]
    # the columns of N are the right-hand sides
    h = solve_triangular(m, nn.T, lower=True).T
    return SplittingMatrices(m, nn, h)


def preconditioned_matrix(a, omega=1.0, inner_steps=1):
    """I - H^l, the matrix BA-GMRES effectively iterates with.

    Formed by square-and-multiply on H; analysis use only.
    """
    h = explicit_splitting(a, omega).h
    n = h.shape[0]
    power = _matrix_power(h, inner_steps)
    return dd.eye_like(h, n) - power


def _matrix_power(h, l):
    n = h.shape[0]
    result = None
    base = h.copy()
    e = int(l)
    while e > 0:
        if e & 1:
            result = base.copy() if result is None else result @ base
        e >>= 1
        if e:
            base = base @ base
    return dd.eye_like(h, n) if result is None else result


def nrsor_ba_gmres(a, cfg, b, opts=None):
    """BA-GMRES with the NR-SOR sweep as the preconditioner map."""
    return ba_gmres(a, lambda u: nrsor_apply(a, cfg, u), b, opts)
