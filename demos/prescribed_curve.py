#!/usr/bin/env python3
"""Build a 3x3 system whose GMRES residual curve is chosen in advance,
then watch the eigenvalue-based bound track the actual convergence.

The constructor takes the residual norms you want (here 1, 0.99, 0.98,
then exact convergence) and a spectrum, and returns a dense matrix that
produces exactly that curve.
"""

import numpy as np

from krybound.bounds import analyse, bound_curve
from krybound.generators import PrescribedCurve, greenbaum_construct
from krybound.gmres import GmresOptions, gmres, matrix_operator

curve = PrescribedCurve((1.0, 0.99, 0.98), (1.0, 1.01, 1.001))
inst = greenbaum_construct(curve)
print("matrix:")
print(np.array_str(inst.a, precision=4, suppress_small=True))
print("eigenvalues requested:", curve.eigenvalues)

trace = gmres(matrix_operator(inst.a), inst.b,
              opts=GmresOptions(rtol=1e-30, max_iterations=3))
print("\nGMRES residual norms (should match the prescribed curve):")
for row in trace.rows:
    print(f"  k={row.k}  {float(row.residual_norm):.6e}")

# the bound needs the eigen-decomposition of the right-hand side
e = analyse(inst.a, inst.b)
series = bound_curve(e, 2)
print(f"\nweighted eigenvector frame norm: {float(series.prefactor):.4e}")
print(f"eigenvector condition number:    {float(e.vector_condition):.4e}")
print("bound vs actual:")
for p in series.points:
    actual = float(trace.rows[p.k].residual_norm)
    print(f"  k={p.k}  bound {float(p.bound):.4e}   actual {actual:.4e}")
