"""Benchmark child process: set-up, timed repetitions, checks.

Started by ``run.py`` with one JSON argument; writes one JSON result
file.  Set-up time runs from the moment the parent spawned this process
(interpreter start and imports included) until the inputs exist.
Repetitions are timed in reference seconds (``hostspeed.py``): each
untraced one is scaled by the host speed sampled while it runs, the
traced one by the mean speed sampled through the run.  Wall times and
the mean speed are kept alongside.

Modes: ``setup`` stops after set-up; ``run`` then repeats the workload
for the time budget (at least twice, so the outputs of two repetitions
can be compared byte for byte).  With tracing on, the second repetition
runs traced and its spans give the per-layer metrics.
"""

import contextlib
import json
import os
import resource
import statistics
import sys
import time


def main(cfg):
    import krybound.cli  # noqa: F401  (imports are part of set-up)
    import numpy as np
    import workloads
    workload, workdir = cfg["workload"], cfg["workdir"]
    state = workloads.setup(workload, cfg["seed"], workdir)
    result = {"setup_wall_s": time.monotonic() - cfg["spawned"],
              "inputs": workloads.input_hashes(workload, state),
              "numpy": np.__version__}
    if cfg["mode"] == "run":
        result.update(timed_phase(cfg, state))
    result["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def timed_phase(cfg, state):
    import hostspeed
    import tracer
    import workloads
    workload, workdir = cfg["workload"], cfg["workdir"]
    checks = workloads.Checks()
    reps, walls, times, speeds, traced = [], [], [], [], None
    start = time.monotonic()
    while True:
        i = len(reps)
        tr = tracer.Tracer() if cfg["trace"] and i == 1 else None
        out = {}

        def rep():
            out["rep"] = run_rep(workload, state, i, workdir, tr)
            return True, ""
        # the traced repetition is not sampled, so no span holds sample
        # time; it is scaled by the run's mean sampled speed instead
        sampler = hostspeed.Sampler() if tr is None else \
            contextlib.nullcontext()
        with sampler:
            t0 = time.perf_counter()
            ok = checks.check(f"rep {i} ran", rep)
            dt = time.perf_counter() - t0
        if not ok:
            break
        reps.append(out["rep"])
        if tr is None:
            walls.append(dt)
            times.append(sampler.to_ref(dt))
            speeds += sampler.speeds
        else:
            traced = (tr, dt)
        if len(reps) >= 2 and time.monotonic() - start + dt > cfg["seconds"]:
            break
    res = {"rep_s": times, "rep_wall_s": walls,
           "host_speed": statistics.fmean(speeds) if speeds else None}
    outcome = {}

    def outputs():
        outcome.update(workloads.check_reps(workload, reps, checks, state,
                                            workdir))
        return True, ""
    if len(reps) >= 2:
        checks.check("outputs checked", outputs)
    if traced is not None and times:
        tr, dt = traced
        res["traced_s"] = dt * res["host_speed"]
        res["layers"] = tr.layer_metrics(res["traced_s"],
                                         statistics.median(times))
        res["layers"]["bounds.bound_curve.slack_log10"] = \
            outcome.get("bound_slack_log10") or 0.0
        checks.check("traced calls match the workload",
                     lambda: expected_calls(workload, res["layers"]))
        tr.write_spans(os.path.join(cfg["resultdir"], "spans.csv"))
    res.update(outcome)
    res["attempted"] = checks.attempted
    res["failures"] = checks.failures
    return res


def run_rep(workload, state, i, workdir, tr):
    import tracer
    import workloads
    if tr is None:
        return workloads.run_once(workload, state, i, workdir)
    with tracer.installed(tr):
        return workloads.run_once(workload, state, i, workdir)


# spans each workload must reach, and spans it must never reach
EXPECTED = {
    "eig-bound": ({"cli.main", "generators.exp_decay_matrix",
                   "traceio.write_csv", "gmres.ba_gmres",
                   "nrsor.nrsor_config", "nrsor.nrsor_apply",
                   "nrsor.preconditioned_matrix", "bounds.decompose_rhs",
                   "bounds.bound_curve", "bounds.vandermonde_min",
                   "bounds.weighted_norm", "linalg.eig_nonsymmetric",
                   "linalg.lu_factor", "linalg.lu_solve", "linalg.lstsq",
                   "linalg.householder_qr", "linalg.spectral_norm",
                   "dd.vdot", "dd.norm2", "dd.matmul"},
                  {"generators.load_matrix_market", "gmres.gmres"}),
    "wide-solve": ({"cli.main", "generators.load_matrix_market",
                    "traceio.write_csv", "gmres.ba_gmres",
                    "nrsor.nrsor_config", "nrsor.nrsor_apply", "dd.vdot",
                    "dd.norm2", "dd.matmul"},
                   {"generators.exp_decay_matrix", "gmres.gmres",
                    "nrsor.preconditioned_matrix", "bounds.decompose_rhs",
                    "bounds.bound_curve", "bounds.vandermonde_min",
                    "bounds.weighted_norm", "linalg.eig_nonsymmetric",
                    "linalg.lu_factor", "linalg.lu_solve", "linalg.lstsq"}),
    "bound-batch": ({"gmres.gmres", "bounds.decompose_rhs",
                     "bounds.bound_curve", "bounds.vandermonde_min",
                     "bounds.weighted_norm", "linalg.eig_nonsymmetric",
                     "linalg.lu_factor", "linalg.lu_solve", "linalg.lstsq",
                     "linalg.householder_qr", "linalg.spectral_norm",
                     "dd.vdot", "dd.norm2", "dd.matmul"},
                    {"cli.main", "generators.load_matrix_market",
                     "generators.exp_decay_matrix", "traceio.write_csv",
                     "gmres.ba_gmres", "nrsor.nrsor_apply"}),
}


def expected_calls(workload, layers):
    must, never = EXPECTED[workload]
    missed = sorted(n for n in must if layers[f"{n}.calls"] == 0)
    stray = sorted(n for n in never if layers[f"{n}.calls"] != 0)
    return not (missed or stray), f"no calls: {missed}; unexpected: {stray}"


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
