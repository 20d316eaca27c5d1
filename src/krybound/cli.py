"""Experiment driver wiring generators to solvers, bounds, and traces.

Four verbs: gen writes a problem to Matrix Market files, solve runs
GMRES or BA-GMRES and writes one trace row per iteration, bound runs
the solve plus the eigenvalue machinery and attaches bound columns,
reproduce replays the published reference experiments and prints a
PASS/FAIL report.

Exit codes are the only pass/fail channel: 0 success/converged, 2
stopped at the iteration cap, 1 any error.  Files carry data; stdout
carries the human summary (wall time goes to stdout only, never into
files, so repeated runs stay byte-identical).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

from . import dd, linalg, traceio
from .bounds import (analyse, bound_curve, cluster_assign,
                     cluster_poly_bound, first_order_estimate)
from .errors import InapplicableError, KryboundError
from .generators import (GREENBAUM_CURVE, exp_decay_matrix,
                         greenbaum_construct, load_matrix_market,
                         stair_matrix, write_matrix_market)
from .gmres import GmresOptions, gmres, matrix_operator
from .nrsor import nrsor_ba_gmres, nrsor_config

__all__ = ["ExperimentConfig", "main"]

# past these sizes the dense eigensolve behind `bound` stops being a
# desk-scale operation (extended precision costs ~25x binary64)
EIG_CAP = {"f64": linalg.EIG_CAP, "extended": 256}


@dataclass
class ExperimentConfig:
    command: str
    generator: str = None
    mtx: str = None
    solver: str = "ba-gmres"
    omega: float = 1.0
    inner_steps: int = 1
    precision: str = "f64"
    tol: float = None            # None: precision-dependent default
    maxit: int = None            # None: full Krylov dimension
    seed: int = 0
    bound_mode: str = "theorem1"
    cluster_eps: float = None
    centers: str = None
    out_format: str = "csv"
    out: str = None
    target: str = None

    def validate(self):
        if self.command in ("gen", "solve", "bound"):
            if (self.generator is None) == (self.mtx is None):
                raise ValueError("give exactly one of --gen or --mtx")
            if self.mtx is not None and not os.path.exists(self.mtx):
                raise ValueError(f"matrix file not found: {self.mtx}")
            _parse_generator(self.generator)
        if self.solver not in ("gmres", "ba-gmres"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if not (0.0 < self.omega < 2.0):
            raise ValueError(f"omega must lie in (0, 2), got {self.omega}")
        if self.inner_steps < 1:
            raise ValueError("inner steps must be >= 1")
        if self.precision not in ("f64", "extended"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.tol is not None and not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.maxit is not None and self.maxit < 1:
            raise ValueError("maxit must be >= 1")
        if self.bound_mode not in ("theorem1", "cluster", "first-order"):
            raise ValueError(f"unknown bound mode {self.bound_mode!r}")
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.out_format!r}")
        if self.centers is not None:
            _parse_centers(self.centers)
        if self.cluster_eps is not None and not self.cluster_eps >= 0.0:
            raise ValueError(
                f"--cluster-eps must be >= 0, got {self.cluster_eps}")
        if self.cluster_eps is not None and self.centers is not None:
            raise ValueError("give at most one of --cluster-eps, --centers")
        if self.bound_mode != "theorem1" and self.cluster_eps is None \
                and self.centers is None:
            raise ValueError(
                f"bound mode {self.bound_mode!r} needs --cluster-eps or "
                f"--centers")

    @property
    def rtol(self):
        if self.tol is not None:
            return self.tol
        return 1e-28 if self.precision == "extended" else 1e-12


def _parse_generator(text):
    if text is None:
        return None
    name, _, arg = text.partition(":")
    if name == "stair":
        if arg:
            raise ValueError("stair takes no size argument")
        return ("stair", None)
    if name == "exp-decay":
        n = int(arg) if arg else 201
        if n < 2:
            raise ValueError(f"exp-decay size must be >= 2, got {n}")
        return ("exp-decay", n)
    if name == "greenbaum":
        if arg:
            raise ValueError("greenbaum takes no argument")
        return ("greenbaum", None)
    raise ValueError(
        f"unknown generator {text!r} (expected stair, exp-decay[:n], "
        f"or greenbaum)")


def _parse_centers(text):
    """Bare integer -> center count; comma list -> explicit centers."""
    try:
        return ("s", int(text))
    except ValueError:
        pass
    try:
        vals = [complex(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse centers {text!r}: {exc}") from None
    if not vals:
        raise ValueError("empty centers list")
    return ("centers", vals)


def _rhs_path(mtx):
    """Where `gen` writes the right-hand side of the matrix file mtx, and
    where --mtx reads it from."""
    return f"{os.path.splitext(mtx)[0]}.rhs.mtx"


def _build_problem(cfg):
    if cfg.mtx is not None:
        rhs = _rhs_path(cfg.mtx)
        inst = load_matrix_market(cfg.mtx,
                                  rhs if os.path.exists(rhs) else None)
        label = os.path.basename(cfg.mtx)
    else:
        kind, arg = _parse_generator(cfg.generator)
        if kind == "stair":
            inst = stair_matrix(seed=cfg.seed)
        elif kind == "exp-decay":
            inst = exp_decay_matrix(arg, seed=cfg.seed)
        else:
            inst = greenbaum_construct(GREENBAUM_CURVE)
        label = cfg.generator
    if cfg.precision == "extended":
        # a file's matrix goes in as its triples, so a sparse one is
        # never a dense array
        a = inst.triples if cfg.mtx is not None else inst.a
        return dd.asmatrix(a), dd.asdd(inst.b), label
    return inst.a, inst.b, label


def _trace_metadata(cfg, label, extra=None):
    meta = {
        "command": cfg.command,
        "problem": label,
        "solver": cfg.solver,
        "omega": repr(cfg.omega),
        "inner_steps": str(cfg.inner_steps),
        "precision": cfg.precision,
        "rtol": repr(cfg.rtol),
        "seed": str(cfg.seed),
    }
    if extra:
        meta.update(extra)
    return meta


def _run_solver(cfg, a, b):
    """The trace, and the NR-SOR set-up it ran with (None for GMRES)."""
    maxit = cfg.maxit if cfg.maxit is not None else a.shape[1]
    opts = GmresOptions(rtol=cfg.rtol, max_iterations=maxit)
    if cfg.solver == "gmres":
        if a.shape[0] != a.shape[1]:
            raise ValueError(
                f"gmres needs a square matrix, got {a.shape}; use ba-gmres")
        return gmres(matrix_operator(a), b, opts=opts), None
    ncfg = nrsor_config(a, omega=cfg.omega, inner_steps=cfg.inner_steps)
    return nrsor_ba_gmres(a, ncfg, b, opts=opts), ncfg


def _exit_code(trace, cfg):
    if trace.reason == "converged":
        return 0
    if trace.reason == "breakdown":
        # invariant Krylov space: accept iff the target was actually met
        final = float(dd.approx(trace.rows[-1].preconditioned_residual_norm))
        first = float(dd.approx(trace.rows[0].preconditioned_residual_norm))
        return 0 if final <= cfg.rtol * first else 2
    return 2


def _default_out(cfg):
    if cfg.out is not None:
        return cfg.out
    stem = "bound-trace" if cfg.command == "bound" else "solve-trace"
    return f"{stem}.{cfg.out_format}"


def _write_trace(cfg, doc, path):
    if cfg.out_format == "csv":
        traceio.write_csv(path, doc)
    else:
        traceio.write_json(path, doc)


def _fmt(x):
    if x is None:
        return "-"
    return f"{float(dd.approx(x)):.4e}"


# ------------------------------------------------------------------ verbs

def cmd_gen(cfg):
    t0 = time.perf_counter()
    a, b, label = _build_problem(cfg)
    out = cfg.out or "problem.mtx"
    rhs_path = _rhs_path(out)
    write_matrix_market(out, dd.approx(dd.dense(a)))
    write_matrix_market(rhs_path, dd.approx(b))
    m, n = a.shape
    print(f"gen {label}: {m}x{n} matrix -> {out}, rhs -> {rhs_path} "
          f"({time.perf_counter() - t0:.2f} s)")
    return 0


def cmd_solve(cfg):
    t0 = time.perf_counter()
    a, b, label = _build_problem(cfg)
    trace, _ = _run_solver(cfg, a, b)
    records = traceio.records_from_solver(trace.rows)
    meta = _trace_metadata(cfg, label, {"reason": trace.reason})
    out = _default_out(cfg)
    _write_trace(cfg, traceio.TraceDocument(meta, records), out)
    last = trace.rows[-1]
    print(f"solve {label}: {trace.reason} after {trace.iterations} "
          f"iterations, residual {_fmt(last.residual_norm)}, "
          f"preconditioned {_fmt(last.preconditioned_residual_norm)}, "
          f"normal {_fmt(last.normal_residual_norm)} -> {out} "
          f"({time.perf_counter() - t0:.2f} s)")
    return _exit_code(trace, cfg)


def _cluster_for(cfg, e):
    if cfg.cluster_eps is not None:
        return cluster_assign(e.lambdas, radius=cfg.cluster_eps)
    kind, val = _parse_centers(cfg.centers)
    if kind == "s":
        return cluster_assign(e.lambdas, s=val)
    return cluster_assign(e.lambdas, centers=val)


def cmd_bound(cfg):
    t0 = time.perf_counter()
    a, b, label = _build_problem(cfg)
    # the order of the operator, known before it is built: BA-GMRES
    # iterates on the columns of A, GMRES on A itself
    n_op = a.shape[0] if cfg.solver == "gmres" else a.shape[1]
    cap = EIG_CAP[cfg.precision]
    if n_op > cap:
        ways = "a smaller n" if cfg.precision == "f64" else \
            f"a smaller n, or --precision f64 (cap {EIG_CAP['f64']})"
        raise ValueError(
            f"operator size {n_op} exceeds the {cfg.precision} eigensolver "
            f"cap ({cap}); rerun with {ways}")
    trace, ncfg = _run_solver(cfg, a, b)
    records = traceio.records_from_solver(trace.rows)
    e = analyse(a, b, ncfg)
    k_max = trace.iterations
    if cfg.bound_mode == "theorem1":
        series = bound_curve(e, k_max)
        by_k = {p.k: p.bound for p in series.points}
        column = "bound_theorem1"
        note = f"prefactor {_fmt(series.prefactor)}"
    else:
        ca = _cluster_for(cfg, e)
        if cfg.bound_mode == "cluster":
            fn, column, k0 = cluster_poly_bound, "bound_cluster", 1
        else:
            # the multi-center expansion needs a root at every center
            fn, column, k0 = first_order_estimate, "estimate_first_order", \
                ca.centers.shape[0]
        by_k = {}
        for k in range(k0, k_max + 1):
            try:
                by_k[k] = fn(e, ca, k)
            except InapplicableError:
                break               # root budget exhausted past this k
        note = f"centers {ca.centers.shape[0]}, epsilon {ca.epsilon:.3e}"
    traceio.attach_column(records, column, by_k)
    meta = _trace_metadata(cfg, label, {
        "reason": trace.reason,
        "bound_mode": cfg.bound_mode,
        "retained_eigenpairs": str(e.d),
    })
    out = _default_out(cfg)
    _write_trace(cfg, traceio.TraceDocument(meta, records), out)
    final_k = max(by_k) if by_k else None
    print(f"bound {label}: {e.d} eigenpairs retained, {note}, "
          f"{cfg.bound_mode} column through k={final_k} -> {out} "
          f"({time.perf_counter() - t0:.2f} s)")
    return _exit_code(trace, cfg)


def cmd_reproduce(cfg):
    from .reproduce import run_target
    t0 = time.perf_counter()
    report = run_target(cfg.target)
    for line in report.lines:
        print(line)
    print(f"reproduce {cfg.target}: "
          f"{'SKIPPED' if report.skipped else 'PASS' if report.ok else 'FAIL'}"
          f" ({time.perf_counter() - t0:.2f} s)")
    return 0 if report.ok or report.skipped else 1


# ------------------------------------------------------------------ parser

def _add_common(p):
    p.add_argument("--gen", dest="generator", metavar="NAME",
                   help="problem generator: stair, exp-decay[:n], greenbaum")
    p.add_argument("--mtx", metavar="PATH",
                   help="Matrix Market file instead of a generator")
    p.add_argument("--solver", default="ba-gmres",
                   choices=("gmres", "ba-gmres"))
    p.add_argument("--omega", type=float, default=1.0,
                   help="NR-SOR relaxation parameter in (0, 2)")
    p.add_argument("-l", "--inner-steps", dest="inner_steps", type=int,
                   default=1, help="NR-SOR steps per preconditioner call")
    p.add_argument("--precision", default="f64",
                   choices=("f64", "extended"))
    p.add_argument("--tol", type=float, default=None,
                   help="relative stopping tolerance "
                        "(default 1e-12 f64, 1e-28 extended)")
    p.add_argument("--maxit", type=int, default=None,
                   help="iteration cap (default: full Krylov dimension)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound-mode", dest="bound_mode", default="theorem1",
                   choices=("theorem1", "cluster", "first-order"))
    p.add_argument("--cluster-eps", dest="cluster_eps", type=float,
                   default=None, help="cluster radius for eigenvalue grouping")
    p.add_argument("--centers", default=None,
                   help="cluster centers: a count or comma-separated "
                        "complex values")
    p.add_argument("--format", dest="out_format", default="csv",
                   choices=("csv", "json"))
    p.add_argument("--out", default=None, metavar="PATH")


class _Parser(argparse.ArgumentParser):
    # a usage error exits 1 like any other: 2 means the iteration cap
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser():
    ap = _Parser(
        prog="krybound",
        description="GMRES / BA-GMRES experiments with eigenvalue-based "
                    "residual bounds")
    sub = ap.add_subparsers(dest="command", required=True)
    for verb in ("gen", "solve", "bound"):
        _add_common(sub.add_parser(verb))
    rp = sub.add_parser("reproduce")
    rp.add_argument("target",
                    choices=("table1", "table2", "table3", "greenbaum",
                             "fig6", "fig8", "maragal"))
    return ap


def main(argv=None):
    try:
        ns = _build_parser().parse_args(argv)
        cfg = ExperimentConfig(**vars(ns))
        cfg.validate()
        handler = {"gen": cmd_gen, "solve": cmd_solve,
                   "bound": cmd_bound, "reproduce": cmd_reproduce}
        return handler[cfg.command](cfg)
    except (KryboundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
