"""Inputs, timed repetitions and correctness checks of the three workloads.

Every input is a function of the benchmark seed alone; the program only
ever sees the generated files, arrays and command lines.

- ``eig-bound``: ``krybound bound`` on exp-decay n=81, extended
  precision.  The cost sits in the eigensolver behind ``decompose_rhs``.
- ``wide-solve``: ``krybound solve`` on a seeded 858x1682 sparse-pattern
  matrix (the published maragal size) for a fixed iteration count.  The
  eigensolver and the bounds never run; NR-SOR sweeps, DD mat-vecs and
  the Matrix Market parse dominate.
- ``bound-batch``: criterion 5's random diagonalizable systems (two of
  each n from 2 to 12, cond(V) < 50), each through GMRES, ``decompose_rhs`` and
  ``bound_curve`` in binary64 and in extended precision.  Thousands of
  tiny DD calls at n <= 12.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import statistics

import numpy as np

WORKLOADS = ("eig-bound", "wide-solve", "bound-batch")

EIG_N = 81
WIDE_SHAPE = (858, 1682)
WIDE_DENSITY = 0.01
WIDE_MAXIT = 4
# binary64 and double-double runs of wide-solve agree to ~2e-14 relative
WIDE_F64_RTOL = 1e-10
# two systems of each size 2..12: a seed changes the systems, not the
# mix of sizes, so run time and iteration totals stay comparable
BATCH_SIZES = tuple(range(2, 13)) * 2
BATCH_PRECISIONS = (("f64", 1e-14), ("extended", 1e-26))


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ------------------------------------------------------------------ inputs

def wide_matrix(seed, shape=WIDE_SHAPE, density=WIDE_DENSITY):
    """Seeded m x n matrix with about ``density`` nonzeros, none of its
    columns empty (NR-SOR rejects a zero column)."""
    m, n = shape
    rng = np.random.default_rng([seed, 0x57])
    a = np.zeros((m, n))
    a[rng.integers(0, m, n), np.arange(n)] = rng.standard_normal(n)
    extra = int(density * m * n) - n
    a[rng.integers(0, m, extra), rng.integers(0, n, extra)] = \
        rng.standard_normal(extra)
    return a


def batch_systems(seed, sizes=BATCH_SIZES):
    """Systems drawn like acceptance criterion 5, one per entry of
    ``sizes``: diagonalizable A = V diag(lambda) V^-1 with cond(V) < 50
    and a unit right-hand side."""
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        while True:
            lam = np.sort(rng.uniform(0.5, 2.0, n))
            if float(np.diff(lam).min()) > 0.03:
                break
        while True:
            v = rng.standard_normal((n, n))
            if np.linalg.cond(v) < 50.0:
                break
        b = rng.standard_normal(n)
        out.append((v @ np.diag(lam) @ np.linalg.inv(v), b / np.linalg.norm(b)))
    return out


def eig_argv(seed):
    return ["bound", "--gen", f"exp-decay:{EIG_N}", "-l", "1",
            "--precision", "extended", "--tol", "1e-12", "--seed", str(seed)]


def wide_argv(mtx, precision="extended"):
    return ["solve", "--mtx", mtx, "--precision", precision, "-l", "1",
            "--maxit", str(WIDE_MAXIT)]


def setup(workload, seed, workdir):
    """Generate the workload's inputs and return the run state.

    Writing W is part of set-up, so the caller times this whole call.
    """
    os.makedirs(workdir, exist_ok=True)
    if workload == "eig-bound":
        return {"argv": eig_argv(seed)}
    if workload == "wide-solve":
        from krybound.generators import write_matrix_market
        mtx = os.path.join(workdir, "W.mtx")
        write_matrix_market(mtx, wide_matrix(seed))
        return {"argv": wide_argv(mtx), "mtx": mtx}
    if workload == "bound-batch":
        return {"systems": batch_systems(seed)}
    raise ValueError(f"unknown workload {workload!r}")


def input_hashes(workload, state):
    """SHA-256 of every generated input, so two commits can be shown to
    have run on identical inputs."""
    if workload == "eig-bound":
        return {"argv": sha256_bytes(" ".join(state["argv"]).encode())}
    if workload == "wide-solve":
        return {"W.mtx": sha256_file(state["mtx"])}
    h = hashlib.sha256()
    for a, b in state["systems"]:
        h.update(a.tobytes())
        h.update(b.tobytes())
    return {"systems": h.hexdigest()}


# --------------------------------------------------------------- repetitions

def _cli(argv):
    from krybound.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def run_once(workload, state, rep, workdir):
    """One timed repetition; returns what the checks need."""
    if workload == "bound-batch":
        return {"systems": _run_batch(state["systems"])}
    out = os.path.join(workdir, f"trace{rep}.csv")
    return {"exit": _cli(state["argv"] + ["--out", out]), "trace": out}


def _run_batch(systems):
    from krybound import dd
    from krybound.bounds import bound_curve, decompose_rhs
    from krybound.gmres import GmresOptions, gmres, matrix_operator
    results = []
    for a, b in systems:
        n = a.shape[0]
        for precision, rtol in BATCH_PRECISIONS:
            aa, bb = (dd.asdd(a), dd.asdd(b)) if precision == "extended" \
                else (a, b)
            trace = gmres(matrix_operator(aa), bb,
                          opts=GmresOptions(rtol=rtol, max_iterations=n))
            series = bound_curve(decompose_rhs(aa, bb), trace.iterations)
            results.append({
                "iterations": trace.iterations,
                "residual": [_value(r.residual_norm) for r in trace.rows],
                "bound": [_value(p.bound) for p in series.points],
            })
    return results


def _value(x):
    from krybound import dd
    return float(dd.approx(x)) if dd.is_extended(x) else float(x)


# ----------------------------------------------------------------- checks

class Checks:
    """Named pass/fail checks; an exception inside one counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, fn):
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception as exc:   # a raised exception is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


def read_trace(path):
    """(metadata, rows) of a CSV trace, values as floats (None if empty)."""
    meta, rows, header = {}, [], None
    with open(path, encoding="ascii") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                cells = line.split(",")
                rows.append({h: (float(c) if c else None)
                             for h, c in zip(header, cells)})
    return meta, rows


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _slack_log10(pairs):
    """Median over k of log10(bound_k / residual_k)."""
    vals = [math.log10(b / r) for b, r in pairs if b > 0.0 and r > 0.0]
    return statistics.median(vals) if vals else None


def check_reps(workload, reps, checks, state, workdir):
    """Run every correctness check on the repetitions' outputs.

    Returns the outcome metrics: solver iterations and bound slack (the
    slack is None where the workload computes no bound).
    """
    if workload == "bound-batch":
        return _check_batch(reps, checks)
    expected_exit = 0 if workload == "eig-bound" else 2
    for i, rep in enumerate(reps):
        checks.check(f"rep {i} exit code", lambda rep=rep: (
            rep["exit"] == expected_exit,
            f"got {rep['exit']}, want {expected_exit}"))
    first = reps[0]["trace"]
    ref = _read_bytes(first)
    for i, rep in enumerate(reps[1:], 1):
        checks.check(f"rep {i} trace byte-identical to rep 0", lambda rep=rep: (
            _read_bytes(rep["trace"]) == ref, "trace bytes differ"))
    meta, rows = read_trace(first)
    iters = len(rows) - 1
    if workload == "wide-solve":
        checks.check("iteration cap reached", lambda: (
            iters == WIDE_MAXIT, f"{iters} iterations"))
        checks.check("extended trace agrees with binary64",
                     lambda: _f64_agreement(rows, state, workdir))
        return {"solver_iters": iters, "bound_slack_log10": None,
                "trace_sha256": sha256_bytes(ref)}
    checks.check("81 eigenpairs retained", lambda: (
        meta.get("retained_eigenpairs") == str(EIG_N),
        f"retained {meta.get('retained_eigenpairs')}"))
    pairs = [(r["bound_theorem1"], r["preconditioned_residual_norm"])
             for r in rows[1:] if r["bound_theorem1"] is not None]
    checks.check("bound column covers every k", lambda: (
        len(pairs) == iters, f"{len(pairs)} bounds for {iters} steps"))
    # fig8 rule: bound_k >= preconditioned residual_k, no tolerance
    viol = [k for k, (b, r) in enumerate(pairs, 1) if b < r]
    checks.check("bound dominates preconditioned residual", lambda: (
        not viol, f"violated at k={viol}"))
    return {"solver_iters": iters, "bound_slack_log10": _slack_log10(pairs),
            "trace_sha256": sha256_bytes(ref)}


def _f64_agreement(rows, state, workdir):
    out = os.path.join(workdir, "trace-f64.csv")
    code = _cli(wide_argv(state["mtx"], precision="f64") + ["--out", out])
    _, f64 = read_trace(out)
    if code != 2 or len(f64) != len(rows):
        return False, f"binary64 run: exit {code}, {len(f64)} rows"
    worst = 0.0
    for ext, ref in zip(rows, f64):
        for col in ("residual_norm", "preconditioned_residual_norm",
                    "normal_residual_norm"):
            worst = max(worst, abs(ext[col] - ref[col]) / abs(ext[col]))
    return worst <= WIDE_F64_RTOL, f"worst relative difference {worst:.3e}"


def _check_batch(reps, checks):
    ref = reps[0]["systems"]
    for i, rep in enumerate(reps[1:], 1):
        checks.check(f"rep {i} results identical to rep 0", lambda rep=rep: (
            rep["systems"] == ref, "results differ"))
    pairs = []
    for j, res in enumerate(ref):
        # criterion 5 rule: bound_k >= residual_k - 1e-12 for every k
        def dominated(res=res):
            bad = [k for k, b in enumerate(res["bound"], 1)
                   if k < len(res["residual"]) and
                   b < res["residual"][k] - 1e-12]
            return not bad, f"violated at k={bad}"
        checks.check(f"system {j // 2} {BATCH_PRECISIONS[j % 2][0]} bound",
                     dominated)
        pairs += [(b, res["residual"][k])
                  for k, b in enumerate(res["bound"], 1)
                  if k < len(res["residual"])]
    return {"solver_iters": sum(r["iterations"] for r in ref),
            "bound_slack_log10": _slack_log10(pairs),
            "trace_sha256": sha256_bytes(repr(ref).encode())}
