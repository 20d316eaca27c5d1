#!/usr/bin/env python3
"""Superlinear convergence on a problem with exponentially clustered
singular values, and the residual bound that explains it.

BA-GMRES with one NR-SOR sweep per step iterates with I - H; the bound
is taken on that operator and on w0 = B b, so it is compared with the
preconditioned residual. Everything runs in extended precision: the
operator's eigenvector basis is too ill-conditioned for
double-precision eigendata to survive the decomposition.
"""

import math

from krybound import dd
from krybound.bounds import analyse, bound_curve
from krybound.generators import exp_decay_matrix
from krybound.gmres import GmresOptions
from krybound.nrsor import nrsor_ba_gmres, nrsor_config

n = 41
inst = exp_decay_matrix(n, seed=0)
a, b = dd.asdd(inst.a), dd.asdd(inst.b)

cfg = nrsor_config(a, omega=1.0, inner_steps=1)
trace = nrsor_ba_gmres(a, cfg, b,
                       opts=GmresOptions(rtol=1e-12, max_iterations=40))
print(f"n={n}, converged in {trace.iterations} iterations")

e = analyse(a, b, cfg)
series = bound_curve(e, trace.iterations)
print(f"retained eigenpairs: {e.d}, prefactor {float(dd.approx(series.prefactor)):.4e}")

pre = [float(dd.approx(x))
       for x in trace.column("preconditioned_residual_norm")]
print("\n  k   precond. residual   bound        log10 ratio")
for p in series.points:
    bnd = float(dd.approx(p.bound))
    print(f"  {p.k:2d}  {pre[p.k]:.4e}          {bnd:.4e}   "
          f"{math.log10(bnd / pre[p.k]):5.2f}")

logs = [math.log(r) for r in pre]
drops = [logs[i] - logs[i + 1] for i in range(len(logs) - 1)]
print("\nper-step log drops (growing = superlinear):")
print("  " + "  ".join(f"{d:.2f}" for d in drops))
