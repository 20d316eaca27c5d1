"""GMRES with classical Gram-Schmidt Arnoldi run twice (CGS2), plus the
BA-preconditioned outer loop.

Both entry points share one engine. The engine minimizes the norm of
the (possibly preconditioned) residual over the growing Krylov space
via an incrementally updated Givens QR of the Hessenberg matrix, and
stops on the cheap Givens estimate.  Every reported residual in the
trace is recomputed from scratch as b - A x_k after the loop, for all
the iterates in one block; the estimate is kept alongside so its drift
from the true value is observable instead of silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dd
from .errors import DimensionMismatchError, NumericalFailureError
from .linalg import _require_real, solve_triangular

__all__ = [
    "OperatorHandle", "matrix_operator", "GmresOptions", "TraceRow",
    "ConvergenceTrace", "gmres", "ba_gmres",
]


@dataclass
class OperatorHandle:
    """A linear map given by callbacks; dims = (m, n) for v in R^n."""
    apply: object
    dims: tuple
    apply_transpose: object = None


def matrix_operator(a):
    return OperatorHandle(apply=lambda v: a @ v,
                          dims=a.shape,
                          apply_transpose=lambda u: a.T @ u)


@dataclass
class GmresOptions:
    rtol: float = 1e-10
    max_iterations: int = 100

    def validate(self):
        if not (0.0 < self.rtol < 1.0):
            raise ValueError(f"rtol must lie in (0, 1), got {self.rtol}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class TraceRow:
    k: int
    residual_norm: object
    preconditioned_residual_norm: object
    normal_residual_norm: object      # None when A^T is unavailable
    minimized_estimate: object        # Givens recurrence value


@dataclass
class ConvergenceTrace:
    rows: list
    x: object
    iterations: int
    reason: str                       # converged | breakdown | max_iterations
    extras: dict = field(default_factory=dict)

    def column(self, name):
        return [getattr(r, name) for r in self.rows]


def gmres(op, rhs, opts=None):
    """Plain GMRES on a square operator, from the zero start vector.

    The minimized quantity and the reported residual coincide here, so
    the preconditioned column of the trace just repeats the residual.
    """
    m, n = op.dims
    if m != n or n == 0:
        raise DimensionMismatchError(
            f"gmres needs a nonempty square operator, got dims {op.dims}")
    opts = opts or GmresOptions()
    opts.validate()
    if rhs.shape != (n,):
        raise DimensionMismatchError(f"rhs shape {rhs.shape} vs n={n}")

    def row(r, estimate=None):
        rn = dd.norm2(r)
        nr = dd.norm2(op.apply_transpose(r)) if op.apply_transpose else None
        return TraceRow(0, rn, rn, nr, rn if estimate is None else estimate)

    def recompute(xs, estimates):
        # apply is a vector callback: one product per iterate
        return [row(rhs - op.apply(x), e) for x, e in zip(xs, estimates)]

    # the one product with the zero start vector is also what rejects
    # an opaque operator's complex field: _rotation's Givens rotations
    # are real-only
    r0 = rhs - op.apply(dd.zeros_like(rhs, (n,)))
    _require_real("gmres", r0)
    return _engine(op.apply, r0, row(r0), opts, recompute)


def ba_gmres(a, precond, b, opts=None):
    """GMRES on the composed map v -> precond(A v), tracing true residuals.

    precond maps m-vectors to n-vectors (for an m x n matrix a), and an
    (m, p) block to the (n, p) block of its columns' images, column by
    column: the trace's k preconditioned residuals are one call on their
    (m, k) block.  The returned iterates solve the preconditioned normal
    problem, and the trace carries ||b - A x||, ||precond(b - A x)||,
    ||A^T(b - A x)||.
    """
    opts = opts or GmresOptions()
    opts.validate()
    m = a.shape[0]
    if b.shape != (m,):
        raise DimensionMismatchError(f"rhs shape {b.shape} vs m={m}")
    _require_real("ba_gmres", a, b)

    def apply_op(v):
        return precond(a @ v)

    def recompute(xs, estimates):
        rs = [b - a @ x for x in xs]
        ws = precond(dd.stack(rs).T)
        return [TraceRow(0, dd.norm2(r), dd.norm2(ws[:, i]),
                         dd.norm2(a.T @ r), e)
                for i, (r, e) in enumerate(zip(rs, estimates))]

    # the start vector is zero, so r0 = b
    w0 = precond(b)
    beta = dd.norm2(w0)
    row0 = TraceRow(0, dd.norm2(b), beta, dd.norm2(a.T @ b), beta)
    return _engine(apply_op, w0, row0, opts, recompute)


def _f(x):
    return float(dd.approx(x))


def _engine(apply_op, w0, row0, opts, recompute):
    # Krylov space of apply_op from w0, the (preconditioned) residual at
    # the zero start; row0 is its trace row, with the minimized estimate
    # ||w0||.  The loop steers by the Givens estimate alone; after it,
    # recompute(xs, estimates) gives the rows of all the iterates x_1..x_k
    # in one call, so a caller can batch their residuals
    eps = dd.eps_of(w0)
    n = len(w0)
    beta = row0.minimized_estimate
    x0 = dd.zeros_like(w0)
    if _f(beta) == 0.0:
        return ConvergenceTrace([row0], x0, 0, "converged")
    if not dd.isfinite_all(w0):
        raise NumericalFailureError("non-finite initial residual")

    maxit = opts.max_iterations
    # the Krylov basis, one vector per row
    basis = dd.zeros_like(w0, (maxit + 1, n))
    basis[0] = w0 * (1.0 / beta)
    h = dd.zeros_like(w0, (maxit + 1, maxit))
    cos: list = []
    sin: list = []
    g = dd.zeros_like(w0, (maxit + 1,))
    g[0] = beta
    estimates: list = []            # the Givens estimate of each iterate
    reason = "max_iterations"
    for j in range(maxit):
        w = apply_op(basis[j])
        if not dd.isfinite_all(w):
            raise NumericalFailureError(
                f"non-finite Arnoldi vector at iteration {j + 1}")
        # ||A v_j|| before orthogonalization: the scale breakdown is
        # judged against, so that scaling A does not change the outcome
        wnorm = float(np.linalg.norm(dd.approx(w)))
        # classical Gram-Schmidt twice, each pass one batched product
        # each way: one pass loses orthogonality as cond(K)^2 eps, and
        # the second keeps the basis orthogonal to working precision
        # (Giraud, Langou, Rozloznik and van den Eshof, Numer. Math.
        # 101, 2005)
        q = basis[:j + 1]
        for _ in range(2):
            c = dd.vdot(q, w)
            w = w - c @ q
            h[:j + 1, j] = h[:j + 1, j] + c
        hnext = dd.norm2(w)
        h[j + 1, j] = hnext
        breakdown = _f(hnext) <= n * eps * wnorm
        if not breakdown:
            basis[j + 1] = w * (1.0 / hnext)
        for i in range(j):
            t1 = cos[i] * h[i, j] + sin[i] * h[i + 1, j]
            t2 = -sin[i] * h[i, j] + cos[i] * h[i + 1, j]
            h[i, j] = t1
            h[i + 1, j] = t2
        c, s = _rotation(h[j, j], h[j + 1, j])
        cos.append(c)
        sin.append(s)
        h[j, j] = c * h[j, j] + s * h[j + 1, j]
        h[j + 1, j] = 0.0
        if breakdown and _f(abs(h[j, j])) <= n * eps * wnorm:
            # the reduced H is singular: A v_j adds no direction to the
            # image of the space, so the previous iterate stays the
            # minimizer, and its row with it
            reason = "breakdown"
            break
        gj = g[j].copy() if dd.is_extended(w0) else g[j]
        g[j] = c * gj
        g[j + 1] = -s * gj
        estimate = abs(g[j + 1])
        prev = estimates[-1] if estimates else beta
        if _f(estimate) > _f(prev) * (1.0 + 16 * eps) + 4 * eps * _f(beta):
            raise NumericalFailureError(
                f"minimized residual increased at iteration {j + 1}: "
                f"{_f(estimate):.6e} > {_f(prev):.6e}")
        estimates.append(estimate)
        if _f(estimate) <= opts.rtol * _f(beta):
            reason = "converged"
            break
        if breakdown:
            # exact invariance of the Krylov space: nothing more to gain
            reason = "breakdown"
            break
    k = j + 1
    # x_i solves the leading i x i block of the rotated H against g[:i];
    # both are final once step i is done, so each iterate has the bytes
    # it would have had in the loop
    xs = [solve_triangular(h[:i, :i], g[:i]) @ basis[:i]
          for i in range(1, len(estimates) + 1)]
    rows = [row0] + (recompute(xs, estimates) if xs else [])
    for i, row in enumerate(rows):
        row.k = i
    if k > len(xs):
        # the singular breakdown's row k repeats row k - 1
        rows.append(replace(rows[-1], k=k))
    # a breakdown leaves row k of the basis unset
    return ConvergenceTrace(rows, xs[-1] if xs else x0, k, reason,
                            extras={"basis": basis[:k + 1 - breakdown]})


def _rotation(a, b):
    r = dd.sqrt(a * a + b * b)
    if _f(r) == 0.0:
        return a * 0.0 + 1.0, a * 0.0
    return a / r, b / r
