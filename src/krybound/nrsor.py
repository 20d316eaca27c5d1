"""NR-SOR inner iteration: column sweeps on the least-squares normal
system, used as an implicit preconditioner inside BA-GMRES.

The solver path touches only the nonzeros of A. A sweep visits the
columns by level (level scheduling; Saad, Iterative Methods for Sparse
Linear Systems, section 11.6): the columns of a level have pairwise
disjoint row supports, so they have a zero block in A^T A, their
updates commute and a level updates all its columns at once, each by
delta_i = (a_i^T r) * omega / ||a_i||^2 with the factor formed once per
column. A^T A is never formed: the preconditioned matrix the bound
analyses is the same sweep run on every column of A at once.
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
    """A sweep's data: a level steps its column i by (a_i^T r) * factors[i]."""
    omega: float
    inner_steps: int
    factors: object          # omega/||a_i||^2 per column, working precision
    levels: list             # (rows, values, cols) per level; see _levels


def nrsor_config(a, omega=1.0, inner_steps=1):
    """Validate parameters, schedule the columns by level and form each
    column's relaxation factor omega / ||a_i||^2 once.

    a is a real dense array or a dd.SparseDD; either gives the same
    tables and factors, byte for byte.  A zero column, complex a or no
    column raises InvalidMatrixError.
    """
    if not (0.0 < omega < 2.0):
        raise ValueError(f"omega must lie in (0, 2), got {omega}")
    if inner_steps < 1:
        raise ValueError(f"inner_steps must be >= 1, got {inner_steps}")
    if dd.is_complexkind(a):
        raise InvalidMatrixError("NR-SOR needs a real matrix, got complex")
    n = a.shape[1]
    if n == 0:
        raise InvalidMatrixError("matrix has no columns")
    if isinstance(a, dd.SparseDD):
        # the triples in column-major order: a whole column is a slice
        order = np.lexsort((a.rows, a.cols))
        col, row, vals = a.cols[order], a.rows[order], a.values[order]
        ptr = np.searchsorted(col, np.arange(n + 1))
        levels = _levels(a.shape, col, row, lambda e: vals[e],
                         lambda i: vals[ptr[i]:ptr[i + 1]])
    else:
        col, row = np.nonzero(dd.approx(a).T != 0.0)    # column-major order
        # a whole column stays a view of a: binary64 dot products sum a
        # strided vector in another order than a contiguous copy
        levels = _levels(a.shape, col, row, lambda e: a[row[e], col[e]],
                         lambda i: a[:, i])
    norms = dd.zeros_like(a, (n,))
    for _, vals, cols in levels:
        norms[cols] = _dots(vals, vals, isinstance(cols, int))
    dead = [int(i) for i in np.nonzero(dd.approx(norms) == 0.0)[0]]
    if dead:
        raise InvalidMatrixError(f"zero columns at indices {dead}")
    return NrsorConfig(float(omega), int(inner_steps), omega / norms, levels)


def _levels(shape, col, row, values, column):
    """The sweep's level schedule (Anderson and Saad 1989).

    col and row are the matrix's nonzeros in column-major order,
    values(e) gathers the values of the nonzeros at places e of that
    order, and column(i) is its whole column i. Only the levels that
    make a table gather, so a matrix whose levels are all whole columns,
    a dense one, gathers nothing.

    Column i's level is 1 + the highest level among the earlier columns
    that share a row with it, or 0 if there are none. So the columns of
    a level have disjoint row supports, and each row meets its columns
    in natural order, one level at a time. A level of k columns is
    (rows, values, cols): rows and values are (L, k) tables of each
    column's row indices and values, its nonzeros in row order, padded
    with zero values at row m (a slot the sweep keeps at the end of its
    residual, so padding never aliases a real row) up to L, a power of
    two; cols is the index array of the level's columns, ascending. A
    one-column level that covers every row keeps the whole column and
    an integer index, so a dense matrix runs the plain
    column-by-column sweep on 0-d scalars.
    """
    m, n = shape
    ptr = np.searchsorted(col, np.arange(n + 1))
    level = np.zeros(n, dtype=np.intp)
    top = np.full(m, -1)         # highest level so far on each row
    for i in range(n):
        rows = row[ptr[i]:ptr[i + 1]]
        level[i] = top[rows].max(initial=-1) + 1
        top[rows] = level[i]
    order = np.argsort(level, kind="stable")        # columns by level
    first = np.searchsorted(level[order], np.arange(level.max() + 2))
    slot = np.empty(n, dtype=np.intp)               # place in its level
    slot[order] = np.arange(n) - first[level[order]]
    nz_level = level[col]
    nz = np.argsort(nz_level, kind="stable")        # nonzeros by level
    nz_first = np.searchsorted(nz_level[nz], np.arange(len(first)))
    count = np.diff(ptr)
    levels = []
    for lv in range(len(first) - 1):
        cols = order[first[lv]:first[lv + 1]]
        if len(cols) == 1 and count[cols[0]] == m:
            levels.append((slice(0, m), column(int(cols[0])), int(cols[0])))
            continue
        e = nz[nz_first[lv]:nz_first[lv + 1]]
        j = col[e]
        at = (e - ptr[j], slot[j])                  # position in the table
        size = 1 << (int(count[cols].max()) - 1).bit_length()
        rows = np.full((size, len(cols)), m)
        rows[at] = row[e]
        v = values(e)
        vals = dd.zeros_like(v, (size, len(cols)))
        vals[at] = v
        levels.append((rows, vals, cols))
    return levels


def _dots(vals, r, dense):
    """One inner product per column of vals (and of a block r).

    A dense column takes dd.vdot, and a block operand its stacked path,
    one product per operand column with the bytes of the 1-d call.  A
    table's power-of-two rows are summed by halving, the pairs DD's
    tree sum takes, so in binary64 too each column's sum is the same
    whatever the table's shape.
    """
    if dense:
        return dd.vdot(vals, r) if vals.ndim == 1 else dd.vdot(r.T, vals[:, 0])
    p = vals * r
    while len(p) > 1:
        h = len(p) // 2
        p = p[:h] + p[h:]
    return p[0]


def nrsor_apply(a, cfg, u):
    """w = P^(l) A^T u: l relaxation sweeps on A^T A w = A^T u from w = 0.

    Each sweep visits the columns level by level; the running residual
    r starts at u and is corrected one level at a time, at the rows the
    level touches. Each row meets its columns in natural order, so the
    levels give the bytes of the column-by-column order of the same
    tables. A's entries come from cfg, which nrsor_config built from
    this same a. An (m, p) operand sweeps its p columns together, and
    in both precisions each column gives the bytes its own sweep gives.
    """
    m, n = a.shape
    if u.shape[:1] != (m,) or u.ndim > 2:
        raise DimensionMismatchError(f"operand shape {u.shape} vs m={m}")
    tail = u.shape[1:]
    w = dd.zeros_like(u, (n,) + tail)
    r = dd.zeros_like(u, (m + 1,) + tail)   # r[m] stays zero: padding slot
    r[:m] = u
    for sweep in range(cfg.inner_steps):
        for rows, vals, cols in cfg.levels:
            factors = cfg.factors[cols]
            if tail:
                vals, factors = vals[..., None], factors[..., None]
            g = r[rows]
            delta = _dots(vals, g, isinstance(cols, int)) * factors
            w[cols] = w[cols] + delta if sweep else delta
            r[rows] = g - vals * delta
    return w


def preconditioned_matrix(a, cfg):
    """I - H^l = P^(l) A^T A, the matrix BA-GMRES effectively iterates with.

    From w = 0, l sweeps give w = sum_{i<l} H^i M^-1 A^T u, and
    sum_{i<l} H^i (I - H) = I - H^l; so the sweep run on the columns of A
    is the matrix, column for column the bytes of nrsor_apply(a, cfg,
    a[:, j]). Analysis use only.
    """
    return nrsor_apply(a, cfg, dd.dense(a))


def nrsor_ba_gmres(a, cfg, b, opts=None):
    """BA-GMRES with the NR-SOR sweep as the preconditioner map."""
    return ba_gmres(a, lambda u: nrsor_apply(a, cfg, u), b, opts)
