"""Replays of the reference experiments behind `krybound reproduce`.

Each target rebuilds its problem from scratch, runs the real pipeline
(never cached numbers), and compares against the published reference
values at the stated tolerance.  Deterministic targets check every
printed value; seed-dependent targets are labeled structural and check
distribution shape instead of digits.
"""

from __future__ import annotations

import glob
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import dd
from .bounds import (analyse, bound_curve, cluster_assign,
                     first_order_estimate, vandermonde_min)
from .generators import (GREENBAUM_CURVE, companion_similarity,
                         exp_decay_matrix, greenbaum_construct,
                         load_matrix_market, stair_matrix)
from .gmres import GmresOptions, gmres, matrix_operator
from .linalg import eig_nonsymmetric, jacobi_svd
from .nrsor import nrsor_ba_gmres, nrsor_config, preconditioned_matrix

__all__ = ["Report", "run_target", "reference_printed_system",
           "superlinear_second_diffs", "kendall_tau"]

# rows: l -> (actual k=1, actual k=2, bound k=1, bound k=2)
TABLE3_REFERENCE = {
    1: (7.0265e-1, 6.8492e-1, 4.2212, 3.9239),
    2: (8.7823e-1, 8.7720e-1, 4.0204, 2.3155),
    3: (8.8667e-1, 1.4074e-1, 3.8964, 4.7470e-1),
    4: (8.7730e-1, 2.1902e-2, 3.7759, 8.7574e-2),
    5: (8.6351e-1, 4.1286e-3, 3.6570, 1.7079e-2),
}
# the published relaxation parameter for this table drops a digit; the
# tabulated values themselves pin omega (see the values check below)
TABLE3_OMEGA = 1.01

TABLE1_ATA = (2.00, 1.62, 1.28, 0.98, 0.72, 0.50, 0.32, 0.18, 0.08, 0.02)

# eigenvalue ladder of the l=8 preconditioned stair operator as
# published; offsets are seed-dependent so these rows are structural
TABLE2_LADDER = (
    "1 + 8.00e-15", "1 + 3.11e-15", "1 + 2.44e-15", "1 + 5.86e-11",
    "1 (exact)", "1.00 + 1.90e-07i", "1.00 - 1.90e-07i",
    "0.9999", "0.9325", "0.5099",
)


@dataclass
class Report:
    target: str
    lines: list = field(default_factory=list)
    ok: bool = True
    skipped: bool = False

    def check(self, name, reference, computed, tol, mode="rel"):
        if mode == "rel":
            err = abs(computed - reference) / abs(reference)
            good = err <= tol
            detail = f"relerr {err:.2e} tol {tol:.0e}"
        elif mode == "abs":
            err = abs(computed - reference)
            good = err <= tol
            detail = f"abserr {err:.2e} tol {tol:.0e}"
        else:                        # "le": computed must not exceed
            good = computed <= reference
            detail = f"threshold {reference:.1e}"
        self.ok = self.ok and good
        self.lines.append(
            f"  {name:<34} reference {_sci(reference):>12}  "
            f"computed {_sci(computed):>12}  {detail}  "
            f"{'PASS' if good else 'FAIL'}")
        return good

    def check_true(self, name, condition, detail):
        self.ok = self.ok and condition
        self.lines.append(
            f"  {name:<34} {detail}  {'PASS' if condition else 'FAIL'}")
        return condition

    def note(self, text):
        self.lines.append(f"  {text}")


def _sci(x):
    return f"{float(x):.4e}"


def _fl(x):
    return float(dd.approx(x))


# ----------------------------------------------------------- statistics

def superlinear_second_diffs(values):
    """Second differences of log(values) inside the final third.

    The window is the set of indices strictly beyond two thirds of the
    index range; a difference counts only when all three of its points
    lie inside the window.
    """
    logs = [math.log(float(v)) for v in values]
    n1 = len(logs) - 1
    first = next(i for i in range(len(logs)) if i > 2.0 * n1 / 3.0)
    return [logs[i] - 2.0 * logs[i - 1] + logs[i - 2]
            for i in range(first + 2, len(logs))]


def kendall_tau(x, y):
    """Kendall rank correlation, concordant minus discordant pairs."""
    m = min(len(x), len(y))
    conc = disc = 0
    for i in range(m):
        for j in range(i + 1, m):
            s = (x[i] - x[j]) * (y[i] - y[j])
            if s > 0:
                conc += 1
            elif s < 0:
                disc += 1
    pairs = conc + disc
    return 0.0 if pairs == 0 else (conc - disc) / pairs


# -------------------------------------------------------------- targets

def reference_printed_system():
    """The 3x3 system exactly as its four-decimal display prints it.

    Rebuilding from the displayed pieces (g rounded to four decimals,
    characteristic constant truncated to 1.0110) reproduces the
    published chain values; the exact-coefficient system does not,
    because entry rounding moves the tightly clustered spectrum.
    """
    g = np.array([0.1411, 0.1404, 0.98])
    # z^3 - 3.011 z^2 + 3.02201 z - 1.0110
    a = companion_similarity(g, (-1.0110, 3.02201, -3.011))
    return a, g.copy()


def _target_greenbaum():
    rep = Report("greenbaum")
    inst = greenbaum_construct(GREENBAUM_CURVE)
    g_ref = (0.1411, 0.1404, 0.98)
    for i, ref in enumerate(g_ref):
        rep.check(f"g[{i}]", ref, float(inst.b[i]), 1e-4, mode="abs")
    trace = gmres(matrix_operator(inst.a), inst.b,
                  opts=GmresOptions(rtol=1e-30, max_iterations=3))
    norms = [_fl(x) for x in trace.column("residual_norm")]
    for k, ref in enumerate((1.0, 0.99, 0.98)):
        rep.check(f"residual k={k}", ref, norms[k], 1e-6, mode="abs")
    rep.check("residual k=3", 0.0, norms[3], 1e-6, mode="abs")

    a, b = reference_printed_system()
    e = analyse(a, b)
    rep.check("eigenvector condition", 8.3057e3, e.vector_condition, 1e-2)
    pref = _fl(e.frame_norm)
    rep.check("weighted-frame norm", 2.9972e3, pref, 1e-2)
    minima = vandermonde_min(e.lambdas, 2)
    for k, (vref, bref) in enumerate(((3.7103e-2, 1.1120e2),
                                      (7.9480e-4, 2.3822)), start=1):
        vmin = _fl(minima[k - 1])
        rep.check(f"vandermonde part k={k}", vref, vmin, 5e-2)
        rep.check(f"bound k={k}", bref, pref * vmin, 5e-2)
    return rep


def _target_table3():
    rep = Report("table3")
    inst = greenbaum_construct(GREENBAUM_CURVE)
    a, b = inst.a, inst.b
    rep.note(f"relaxation parameter {TABLE3_OMEGA} "
             f"(the tabulated values pin the dropped digit)")
    for l in sorted(TABLE3_REFERENCE):
        m = preconditioned_matrix(a, nrsor_config(a, TABLE3_OMEGA, l))
        trace = gmres(matrix_operator(m), b,
                      opts=GmresOptions(rtol=1e-30, max_iterations=3))
        norms = [_fl(x) for x in trace.column("residual_norm")]
        e = analyse(m, b)
        series = bound_curve(e, 2)
        a1, a2, b1, b2 = TABLE3_REFERENCE[l]
        rep.check(f"l={l} actual k=1", a1, norms[1], 1e-3)
        rep.check(f"l={l} actual k=2", a2, norms[2], 1e-3)
        rep.check(f"l={l} bound  k=1", b1, _fl(series.bound_at(1)), 1e-3)
        rep.check(f"l={l} bound  k=2", b2, _fl(series.bound_at(2)), 1e-3)
    # the loop ends at l = 5, the row these two values belong to
    rep.check("eigenvector condition", 25.69, e.vector_condition, 1e-2)
    rep.check("weighted-frame norm", 4.28, _fl(e.frame_norm), 1e-2)
    return rep


def _target_table1(seed=0):
    rep = Report("table1")
    inst = stair_matrix(seed=seed)
    sv_ref = [math.sqrt(2.0) * (10 - p) / 10.0 for p in range(10)]
    sv = np.asarray(dd.approx(jacobi_svd(inst.a)))[:10]
    for i in range(10):
        rep.check(f"singular value {i + 1}", sv_ref[i], sv[i], 1e-10,
                  mode="abs")
    for i, ref in enumerate(TABLE1_ATA):
        rep.check(f"normal-matrix eigenvalue {i + 1}", ref, sv[i] ** 2,
                  1e-2, mode="abs")
    rep.note("H and preconditioned-operator columns are seed-dependent: "
             "see table2 for the structural check")
    return rep


def _stair_preconditioned_eigs(seed, l=8, omega=1.0):
    inst = stair_matrix(seed=seed)
    m = preconditioned_matrix(inst.a, nrsor_config(inst.a, omega, l))
    return inst, np.asarray(dd.approx(eig_nonsymmetric(m).values))


def _target_table2(seed=0):
    rep = Report("table2")
    rep.note("published ladder (structural; offsets are seed-dependent):")
    for i, text in enumerate(TABLE2_LADDER):
        rep.note(f"  lambda_{i + 1:<2} {text}")
    _, lam = _stair_preconditioned_eigs(seed)
    order = np.argsort(-np.abs(lam - 1.0))
    rep.note(f"computed eigenvalues at seed {seed} "
             f"(descending distance from 1):")
    for i in order:
        rep.note(f"  {lam[i].real:+.6e} {lam[i].imag:+.3e}i "
                 f"(|offset| {abs(lam[i] - 1.0):.2e})")
    dist = np.abs(lam - 1.0)
    rep.check_true("cluster population at 1", int((dist <= 1e-6).sum()) >= 5,
                   f"{int((dist <= 1e-6).sum())} eigenvalues within 1e-6 "
                   f"of 1 (need >= 5)")
    near = np.abs(lam - 0.9999) <= 1e-3
    rep.check_true("straggler near 0.9999", bool(near.any()),
                   f"{int(near.sum())} eigenvalue(s) within 1e-3 of 0.9999")
    mid = (lam.real >= 0.85) & (lam.real <= 0.98) & (np.abs(lam.imag) < 1e-8)
    rep.check_true("separate eigenvalue in [0.85, 0.98]", bool(mid.any()),
                   f"{int(mid.sum())} in band")
    low = (lam.real >= 0.3) & (lam.real <= 0.7) & (np.abs(lam.imag) < 1e-8)
    rep.check_true("separate eigenvalue in [0.3, 0.7]", bool(low.any()),
                   f"{int(low.sum())} in band")
    return rep


def _target_fig6(seed=0):
    rep = Report("fig6")
    inst = stair_matrix(seed=seed)
    ax, bx = dd.asdd(inst.a), dd.asdd(inst.b)
    cfg = nrsor_config(ax, omega=1.0, inner_steps=8)
    trace = nrsor_ba_gmres(ax, cfg, bx,
                           opts=GmresOptions(rtol=1e-28, max_iterations=10))
    pre = [_fl(x) for x in trace.column("preconditioned_residual_norm")]
    rep.check("preconditioned residual k=4", 1e-10, pre[4], None, mode="le")
    rep.check("preconditioned residual k=6", 1e-24, pre[6], None, mode="le")
    e = analyse(ax, bx, cfg)
    ca = cluster_assign(e.lambdas, centers=[1.0])
    chain = _fl(first_order_estimate(e, ca, 6))
    rep.note(f"first-order chain at k=6: published order 3.49e-29 "
             f"(seed-dependent magnitude)")
    rep.check("first-order chain k=6", 1e-26, chain, None, mode="le")
    return rep


def _target_fig8(seed=0):
    rep = Report("fig8")
    inst = exp_decay_matrix(201, seed=seed)
    ax, bx = dd.asdd(inst.a), dd.asdd(inst.b)
    cfg = nrsor_config(ax, omega=1.0, inner_steps=1)
    trace = nrsor_ba_gmres(ax, cfg, bx,
                           opts=GmresOptions(rtol=1e-12, max_iterations=80))
    pre = [_fl(x) for x in trace.column("preconditioned_residual_norm")]
    e = analyse(ax, bx, cfg)
    series = bound_curve(e, trace.iterations)
    bounds = [_fl(p.bound) for p in series.points]
    rep.note(f"n=201 stand-in for the published n=1001 run "
             f"(eigensolver cost); {trace.iterations} iterations, "
             f"{e.d} eigenpairs")
    viol = sum(1 for k in range(1, len(pre)) if bounds[k - 1] < pre[k])
    rep.check_true("bound dominates residual", viol == 0,
                   f"{viol} violations over {len(pre) - 1} steps")
    d2r = superlinear_second_diffs(pre)
    rep.check_true("residual superlinear (final third)",
                   max(d2r) < 0.0,
                   f"max second difference {max(d2r):+.3e}")
    d2b = superlinear_second_diffs(bounds)
    rep.check_true("bound superlinear (final third)",
                   max(d2b) < 0.0,
                   f"max second difference {max(d2b):+.3e}")
    db = np.diff(np.log(bounds))
    dr = np.diff(np.log(pre[1:]))
    tau = kendall_tau(db.tolist(), dr.tolist())
    rep.check_true("log-decrement co-trend", tau > 0.6,
                   f"kendall tau {tau:.3f} (need > 0.6)")
    return rep


def _maragal_path():
    root = os.environ.get("KRYBOUND_DATA_DIR", "")
    if not root:
        return None
    hits = sorted(glob.glob(os.path.join(root, "*.mtx")))
    for p in hits:
        if "maragal" in os.path.basename(p).lower():
            return p
    return None


def _target_maragal():
    rep = Report("maragal")
    path = _maragal_path()
    if path is None:
        rep.skipped = True
        rep.note("no maragal matrix under KRYBOUND_DATA_DIR; skipping "
                 "(set the variable to a directory holding the .mtx file)")
        return rep
    inst = load_matrix_market(path)
    m, n = inst.triples.shape
    rep.check_true("shape", (m, n) == (858, 1682), f"{m}x{n}")
    ax = dd.asmatrix(inst.triples)
    bx = dd.asdd(inst.b / np.linalg.norm(inst.b))
    cfg = nrsor_config(ax, omega=1.0, inner_steps=1)
    trace = nrsor_ba_gmres(ax, cfg, bx,
                           opts=GmresOptions(rtol=1e-26, max_iterations=200))
    pre = [_fl(x) for x in trace.column("preconditioned_residual_norm")]
    drops = all(pre[i + 1] <= pre[i] * (1.0 + 1e-12)
                for i in range(len(pre) - 1))
    rep.check_true("trace non-increasing", drops,
                   f"{len(pre) - 1} steps, final {pre[-1]:.3e}")
    rep.check("final preconditioned residual", 1e-20, pre[-1], None,
              mode="le")
    return rep


_TARGETS = {
    "table1": _target_table1,
    "table2": _target_table2,
    "table3": _target_table3,
    "greenbaum": _target_greenbaum,
    "fig6": _target_fig6,
    "fig8": _target_fig8,
    "maragal": _target_maragal,
}


def run_target(name):
    if name not in _TARGETS:
        raise ValueError(f"unknown reproduce target {name!r}")
    return _TARGETS[name]()
