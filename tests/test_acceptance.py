"""Acceptance suite: one test per shipped guarantee, each emitting a
single verdict line with its runtime against the agreed ceiling.

Criteria 1, 2, 4, 8 and 9 delegate to the reproduce targets so the
reference values live in exactly one place; 3, 5, 6 and 7 are property
checks implemented here.
"""

import math
import time

import numpy as np
import pytest

from krybound import dd
from krybound.bounds import (EigenData, bound_curve, cluster_assign,
                             cluster_poly_bound, decompose_rhs)
from krybound.generators import stair_matrix
from krybound.gmres import GmresOptions, gmres, matrix_operator
from krybound.linalg import jacobi_svd
from krybound.nrsor import nrsor_apply, nrsor_config, preconditioned_matrix
from krybound.reproduce import TABLE1_ATA, run_target


def _value(x):
    return float(dd.approx(x)) if dd.is_extended(x) else float(x)


def _verdict(num, label, limit, started, failures):
    elapsed = time.perf_counter() - started
    if limit is not None and elapsed >= limit:
        failures.append(f"runtime {elapsed:.2f} s exceeded {limit:.0f} s")
    status = "FAIL" if failures else "PASS"
    ceiling = "no limit" if limit is None else f"limit {limit:.0f} s"
    print(f"criterion {num} ({label}): {status} ({elapsed:.2f} s, {ceiling})")
    assert not failures, "; ".join(failures)


def _delegate(num, label, targets, limit):
    started = time.perf_counter()
    failures = []
    for target in targets:
        report = run_target(target)
        if report.skipped:
            failures.append(f"{target}: skipped")
        elif not report.ok:
            bad = [ln.strip() for ln in report.lines if ln.endswith("FAIL")]
            failures.extend(bad or [f"{target}: failed"])
    _verdict(num, label, limit, started, failures)


def test_criterion_1_prescribed_curve_system():
    _delegate(1, "prescribed-curve system reconstruction",
              ("greenbaum",), 1.0)


def test_criterion_2_inner_iteration_sweep_table():
    _delegate(2, "inner-iteration sweep reference values", ("table3",), 5.0)


def test_criterion_3_stair_spectra_seed_invariant():
    started = time.perf_counter()
    failures = []
    reference = [math.sqrt(2.0) * (10 - i) / 10.0 for i in range(10)]
    for seed in (0, 3, 11):
        sv = jacobi_svd(stair_matrix(seed=seed).a)[:10]
        for i, ref in enumerate(reference):
            if abs(float(sv[i]) - ref) > 1e-10:
                failures.append(f"seed {seed} sigma_{i + 1} = {sv[i]!r}")
        for i, ref in enumerate(TABLE1_ATA):
            if abs(float(sv[i]) ** 2 - ref) > 1e-2:
                failures.append(f"seed {seed} sigma_{i + 1}^2 = "
                                f"{float(sv[i]) ** 2:.4f} vs {ref}")
    _verdict(3, "stair spectra, seed-invariant", 1.0, started, failures)


def test_criterion_4_eigenvalue_ladder_and_deep_convergence():
    _delegate(4, "eigenvalue ladder and deep extended convergence",
              ("table2", "fig6"), 30.0)


def test_criterion_5_bound_dominates_random_systems():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20240501)
    for case in range(200):
        n = int(rng.integers(2, 13))
        while True:
            lam = np.sort(rng.uniform(0.5, 2.0, n))
            if n == 1 or float(np.diff(lam).min()) > 0.03:
                break
        while True:
            v = rng.standard_normal((n, n))
            if np.linalg.cond(v) < 50.0:
                break
        a = v @ np.diag(lam) @ np.linalg.inv(v)
        b = rng.standard_normal(n)
        b /= np.linalg.norm(b)
        for precision, rtol in (("f64", 1e-14), ("extended", 1e-26)):
            if precision == "extended":
                aa, bb = dd.asdd(a), dd.asdd(b)
            else:
                aa, bb = a, b
            trace = gmres(matrix_operator(aa), bb,
                          opts=GmresOptions(rtol=rtol, max_iterations=n))
            e = decompose_rhs(aa, bb)
            series = bound_curve(e, trace.iterations)
            by_k = {p.k: _value(p.bound) for p in series.points}
            for row in trace.rows:
                if row.k == 0 or row.k not in by_k:
                    continue
                res = _value(row.residual_norm)
                if by_k[row.k] < res - 1e-12:
                    failures.append(
                        f"case {case} {precision} k={row.k}: bound "
                        f"{by_k[row.k]:.3e} < residual {res:.3e}")
    _verdict(5, "bound dominates residual, 200 random systems", 60.0,
             started, failures)


def _eigenvalue_groups(values, tol):
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= tol:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _worst_containment_angle(v_fine, coarse_values, v_coarse, tol=1e-6):
    # both operators are polynomials in the same iteration matrix; equal
    # fourth powers imply equal eighth powers, so each eigenvector of the
    # four-step operator must sit inside an invariant subspace of the
    # eight-step one.  Individual vectors are arbitrary within degenerate
    # eigenspaces, so compare against group spans, not paired columns.
    bases = []
    for idx in _eigenvalue_groups(list(coarse_values), tol):
        q, _ = np.linalg.qr(v_coarse[:, idx])
        bases.append(q)
    worst = 0.0
    for i in range(v_fine.shape[1]):
        v = v_fine[:, i]
        best = min(float(np.linalg.norm(v - q @ (q.conj().T @ v)))
                   for q in bases)
        worst = max(worst, math.asin(min(1.0, best)))
    return worst


def test_criterion_6_sweep_equivalence_and_shared_eigenvectors():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(777)
    for case in range(100):
        n = int(rng.integers(2, 9))
        m = n + int(rng.integers(0, 7))
        a = rng.standard_normal((m, n))
        omega = float(rng.uniform(0.05, 1.95))
        steps = int(rng.integers(1, 5))
        u = rng.standard_normal(m)
        got = nrsor_apply(a, nrsor_config(a, omega, steps), u)
        # the dense splitting A^T A = M - N, M = D/omega + L
        ata = a.T @ a
        m_split = np.tril(ata, -1) + np.diag(np.diag(ata)) / omega
        z = np.linalg.solve(m_split, a.T @ u)
        h = np.linalg.solve(m_split, m_split - ata)
        want = np.zeros(n)
        term = z.copy()
        for _ in range(steps):
            want += term
            term = h @ term
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        if rel > 1e-12:
            failures.append(f"case {case} sweep mismatch rel {rel:.3e}")
        _, v4 = np.linalg.eig(
            preconditioned_matrix(a, nrsor_config(a, omega, 4)))
        w8, v8 = np.linalg.eig(
            preconditioned_matrix(a, nrsor_config(a, omega, 8)))
        angle = _worst_containment_angle(v4, w8, v8)
        if angle > 1e-6:
            failures.append(f"case {case} eigenvector angle {angle:.3e}")
    _verdict(6, "sweep equivalence and shared eigenvectors", 30.0,
             started, failures)


def test_criterion_7_cluster_bound_scales_with_offsets():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(4242)
    for case in range(20):
        centers = [1.0, 1.0 + float(rng.uniform(0.5, 1.2))]
        counts = [int(rng.integers(2, 6)), int(rng.integers(2, 6))]
        d = sum(counts)
        mags = rng.uniform(1e-8, 1e-6, d)
        phases = rng.uniform(0.0, 2.0 * math.pi, d)
        offsets = mags * np.exp(1j * phases)
        home = np.repeat(centers, counts)

        def bound_for(scale):
            lams = home + scale * offsets
            e = EigenData(d, lams, np.eye(d), np.ones(d), 0.0)
            ca = cluster_assign(e.lambdas, centers=centers)
            return _value(cluster_poly_bound(e, ca, 2))

        base = bound_for(1.0)
        for t in (0.5, 0.25):
            got = bound_for(t)
            ratio = got / (t * base)
            if abs(ratio - 1.0) > 0.10:
                failures.append(f"case {case} t={t}: scaled bound off by "
                                f"{abs(ratio - 1.0):.3f}")
    _verdict(7, "cluster bound scales linearly with offsets", 5.0,
             started, failures)


def test_criterion_8_cotrending_superlinear_traces():
    _delegate(8, "co-trending superlinear traces", ("fig8",), 120.0)


@pytest.mark.slow
def test_criterion_9_tall_benchmark_deep_convergence():
    started = time.perf_counter()
    report = run_target("maragal")
    if report.skipped:
        pytest.skip("no local matrix file (set KRYBOUND_DATA_DIR)")
    failures = [] if report.ok else \
        [ln.strip() for ln in report.lines if ln.endswith("FAIL")]
    _verdict(9, "tall benchmark deep convergence", None, started, failures)
