"""GMRES with modified Gram-Schmidt Arnoldi, plus the BA-preconditioned
outer loop.

Both entry points share one engine. The engine minimizes the norm of
the (possibly preconditioned) residual over the growing Krylov space
via an incrementally updated Givens QR of the Hessenberg matrix, but
every reported residual in the trace is recomputed from scratch as
b - A x_k; the cheap Givens estimate is kept alongside so its drift
from the true value is observable instead of silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dd
from .errors import DimensionMismatchError, NumericalFailureError

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
    reorthogonalize: object = None   # None: on iff extended precision
    stop_on_normal_residual: bool = False

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


def gmres(op, rhs, x0=None, opts=None):
    """Plain GMRES on a square operator.

    The minimized quantity and the reported residual coincide here, so
    the preconditioned column of the trace just repeats the residual.
    """
    opts = opts or GmresOptions()
    opts.validate()
    m, n = op.dims
    if m != n:
        raise DimensionMismatchError("gmres needs a square operator")
    if rhs.shape != (n,):
        raise DimensionMismatchError(f"rhs shape {rhs.shape} vs n={n}")
    if x0 is None:
        x0 = dd.zeros_like(rhs, (n,))

    def recompute(x, estimate):
        r = rhs - op.apply(x)
        rn = dd.norm2(r)
        nr = dd.norm2(op.apply_transpose(r)) if op.apply_transpose else None
        return r, TraceRow(0, rn, rn, nr, estimate)

    w0 = rhs - op.apply(x0)
    _require_real("gmres", w0)
    return _engine(op.apply, w0, x0, n, opts, recompute)


def ba_gmres(a, precond, b, x0=None, opts=None):
    """GMRES on the composed map v -> precond(A v), tracing true residuals.

    precond maps m-vectors to n-vectors (for an m x n matrix a); the
    returned iterates solve the preconditioned normal problem, and the
    trace carries ||b - A x||, ||precond(b - A x)||, ||A^T(b - A x)||.
    """
    opts = opts or GmresOptions()
    opts.validate()
    m, n = a.shape
    if b.shape != (m,):
        raise DimensionMismatchError(f"rhs shape {b.shape} vs m={m}")
    _require_real("ba_gmres", a, b)
    if x0 is None:
        x0 = dd.zeros_like(b, (n,))

    def apply_op(v):
        return precond(a @ v)

    def recompute(x, estimate):
        r = b - a @ x
        br = precond(r)
        return br, TraceRow(0, dd.norm2(r), dd.norm2(br),
                            dd.norm2(a.T @ r), estimate)

    w0 = precond(b - a @ x0)
    return _engine(apply_op, w0, x0, n, opts, recompute)


def _f(x):
    return float(dd.approx(x))


def _require_real(name, *arrays):
    # _rotation's Givens rotations are real-only
    if any(dd.is_complexkind(x) for x in arrays):
        raise DimensionMismatchError(
            f"{name} takes a real operator and right-hand side; "
            f"got complex input")


def _engine(apply_op, w0, x0, n, opts, recompute):
    eps = dd.eps_of(w0)
    reorth = opts.reorthogonalize
    if reorth is None:
        reorth = dd.is_extended(w0)
    beta = dd.norm2(w0)
    _, row0 = recompute(x0, beta)
    rows = [row0]
    if _f(beta) == 0.0:
        return ConvergenceTrace(rows, x0.copy(), 0, "converged")
    if not dd.isfinite_all(w0):
        raise NumericalFailureError("non-finite initial residual")
    norm0 = _f(row0.normal_residual_norm) \
        if row0.normal_residual_norm is not None else None

    maxit = opts.max_iterations
    basis = [w0 * (1.0 / beta)]
    h = dd.zeros_like(w0, (maxit + 1, maxit))
    cos: list = []
    sin: list = []
    g = dd.zeros_like(w0, (maxit + 1,))
    g[0] = beta
    x = x0
    reason = "max_iterations"
    k = 0
    for j in range(maxit):
        w = apply_op(basis[j])
        if not dd.isfinite_all(w):
            raise NumericalFailureError(
                f"non-finite Arnoldi vector at iteration {j + 1}")
        for i in range(j + 1):
            hij = dd.vdot(basis[i], w)
            w = w - basis[i] * hij
            h[i, j] = h[i, j] + hij
        if reorth:
            for i in range(j + 1):
                cij = dd.vdot(basis[i], w)
                w = w - basis[i] * cij
                h[i, j] = h[i, j] + cij
        hnext = dd.norm2(w)
        h[j + 1, j] = hnext
        breakdown = _f(hnext) <= n * eps * _f(beta)
        if not breakdown:
            basis.append(w * (1.0 / hnext))
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
        gj = g[j].copy() if dd.is_extended(w0) else g[j]
        g[j] = c * gj
        g[j + 1] = -s * gj
        estimate = abs(g[j + 1])
        prev = rows[-1].minimized_estimate
        if _f(estimate) > _f(prev) * (1.0 + 16 * eps) + 4 * eps * _f(beta):
            raise NumericalFailureError(
                f"minimized residual increased at iteration {j + 1}: "
                f"{_f(estimate):.6e} > {_f(prev):.6e}")
        y = _back_substitute(h, g, j + 1)
        x = x0.copy()
        for i in range(j + 1):
            x = x + basis[i] * y[i]
        k = j + 1
        _, row = recompute(x, estimate)
        row.k = k
        rows.append(row)
        if opts.stop_on_normal_residual:
            if row.normal_residual_norm is None:
                raise NumericalFailureError(
                    "normal residual stop requested but A^T is unavailable")
            done = _f(row.normal_residual_norm) <= opts.rtol * norm0
        else:
            done = _f(estimate) <= opts.rtol * _f(beta)
        if done:
            reason = "converged"
            break
        if breakdown:
            # exact invariance of the Krylov space: nothing more to gain
            reason = "breakdown"
            break
    return ConvergenceTrace(rows, x, k, reason, extras={"basis": basis})


def _rotation(a, b):
    r = dd.sqrt(a * a + b * b)
    if _f(r) == 0.0:
        return a * 0.0 + 1.0, a * 0.0
    return a / r, b / r


def _back_substitute(h, g, k):
    y = g[:k].copy()
    for i in reversed(range(k)):
        for t in range(i + 1, k):
            y[i] = y[i] - h[i, t] * y[t]
        y[i] = y[i] / h[i, i]
    return y
