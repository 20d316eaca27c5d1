#!/usr/bin/env python3
"""Least-squares solve of the rank-deficient stair problem with
inner-iteration preconditioning, in double and extended precision.

Eight relaxation sweeps per outer step cluster the preconditioned
spectrum hard against 1, and the extended-precision run then drops
below 1e-24 within six iterations.
"""

import numpy as np

from krybound import dd
from krybound.generators import stair_matrix
from krybound.gmres import GmresOptions
from krybound.linalg import eig_nonsymmetric
from krybound.nrsor import nrsor_ba_gmres, nrsor_config, preconditioned_matrix

inst = stair_matrix(seed=0)
print(f"stair matrix: {inst.a.shape[0]}x{inst.a.shape[1]}, rank 10")

m = preconditioned_matrix(inst.a, nrsor_config(inst.a, omega=1.0,
                                               inner_steps=8))
lam = np.sort_complex(eig_nonsymmetric(m).values)
real = lam[np.abs(lam) > 1e-8]
print("\nnonzero eigenvalues of the preconditioned operator:")
for v in real:
    print(f"  {v.real:+.10f}  (distance from 1: {abs(v - 1.0):.2e})")

for precision in ("double", "extended"):
    a, b = inst.a, inst.b
    rtol = 1e-12
    if precision == "extended":
        a, b = dd.asdd(a), dd.asdd(b)
        rtol = 1e-28
    cfg = nrsor_config(a, omega=1.0, inner_steps=8)
    trace = nrsor_ba_gmres(a, cfg, b,
                           opts=GmresOptions(rtol=rtol, max_iterations=10))
    print(f"\n{precision} precision ({trace.reason}):")
    for row in trace.rows:
        pre = row.preconditioned_residual_norm
        pre = dd.approx(pre) if dd.is_extended(pre) else pre
        print(f"  k={row.k}  preconditioned residual {float(pre):.4e}")
