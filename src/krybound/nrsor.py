"""NR-SOR inner iteration: column sweeps on the least-squares normal
system, used as an implicit preconditioner inside BA-GMRES.

The solver path touches only the nonzeros of A. A sweep visits the
columns in natural order, in runs of consecutive columns whose row
supports are pairwise disjoint; such columns have a zero block in
A^T A, so their updates commute and a run updates all its columns at
once. The normal-equation matrix A^T A is never formed: the
preconditioned matrix the bound analyses is the same sweep run on every
column of A at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dd
from .errors import DimensionMismatchError, InvalidMatrixError
from .gmres import ba_gmres

__all__ = [
    "NrsorConfig", "nrsor_config", "nrsor_apply", "preconditioned_matrix",
    "nrsor_ba_gmres",
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
    An (m, p) operand sweeps its p columns together, each column giving
    the bytes its own sweep gives.
    """
    m, n = a.shape
    if u.shape[:1] != (m,) or u.ndim > 2:
        raise DimensionMismatchError(f"operand shape {u.shape} vs m={m}")
    tail = u.shape[1:]
    w = dd.zeros_like(u, (n,) + tail)
    r = dd.zeros_like(u, (m + 1,) + tail)   # r[m] stays zero: padding slot
    r[:m] = u
    omega = cfg.omega
    for _ in range(cfg.inner_steps):
        for rows, vals, cols in cfg.runs:
            norms = cfg.column_norms[cols]
            if tail:
                vals, norms = vals[..., None], norms[..., None]
            g = r[rows]
            delta = (_dots(vals, g) * omega) / norms
            w[cols] = w[cols] + delta
            r[rows] = g - vals * delta
    return w


def preconditioned_matrix(a, cfg):
    """I - H^l = P^(l) A^T A, the matrix BA-GMRES effectively iterates with.

    From w = 0, l sweeps give w = sum_{i<l} H^i M^-1 A^T u, and
    sum_{i<l} H^i (I - H) = I - H^l; so the sweep run on the columns of A
    is the matrix, column for column the bytes of nrsor_apply(a, cfg,
    a[:, j]). Analysis use only.
    """
    return nrsor_apply(a, cfg, a)


def nrsor_ba_gmres(a, cfg, b, opts=None):
    """BA-GMRES with the NR-SOR sweep as the preconditioner map."""
    return ba_gmres(a, lambda u: nrsor_apply(a, cfg, u), b, opts)
