#!/usr/bin/env python3
"""Superlinear convergence on a problem with exponentially clustered
singular values, and the residual bound that explains it.

Everything runs in extended precision: the preconditioned operator's
eigenvector basis is too ill-conditioned for double-precision eigendata
to survive the decomposition.
"""

import math

from krybound import dd
from krybound.bounds import bound_curve, decompose_rhs
from krybound.generators import exp_decay_matrix
from krybound.gmres import GmresOptions, gmres, matrix_operator
from krybound.nrsor import nrsor_apply, nrsor_config, preconditioned_matrix

n = 41
inst = exp_decay_matrix(n, seed=0)
a, b = dd.asdd(inst.a), dd.asdd(inst.b)

cfg = nrsor_config(a, omega=1.0, inner_steps=1)
m = preconditioned_matrix(a, cfg)
w0 = nrsor_apply(a, cfg, b)
trace = gmres(matrix_operator(m), w0,
              opts=GmresOptions(rtol=1e-12, max_iterations=40))
print(f"n={n}, converged in {trace.iterations} iterations")

e = decompose_rhs(m, w0)
series = bound_curve(e, trace.iterations)
print(f"retained eigenpairs: {e.d}, prefactor {float(dd.approx(series.prefactor)):.4e}")

print("\n  k   residual      bound        log10 ratio")
for p in series.points:
    res = float(dd.approx(trace.rows[p.k].residual_norm))
    bnd = float(dd.approx(p.bound))
    print(f"  {p.k:2d}  {res:.4e}   {bnd:.4e}   {math.log10(bnd / res):5.2f}")

logs = [math.log(float(dd.approx(r.residual_norm))) for r in trace.rows]
drops = [logs[i] - logs[i + 1] for i in range(len(logs) - 1)]
print("\nper-step log drops (growing = superlinear):")
print("  " + "  ".join(f"{d:.2f}" for d in drops))
