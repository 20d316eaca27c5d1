"""krybound benchmark: one workload, one seed, one result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eig-bound --seed 1 --seconds 24 --trace 0

The workload runs in child processes (``worker.py``) on one thread,
against the package under ``src/``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Human-readable
lines go first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only if every correctness check passed.  Each run also writes a
result file with a machine fingerprint and input hashes under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "solver_iters": "count",
}
# set-ups per run; setup_s is their median, scaled to reference seconds
SETUPS = 5
# wall seconds of REFERENCE_START on the reference host (2 vCPU Intel
# Xeon, Python 3.11, numpy 2.4, in its usual state); a constant
REFERENCE_START_S = 0.17
# a bare interpreter start that imports numpy: the start-up and import
# work every set-up begins with, none of it krybound's; it prints the
# monotonic (system-wide) clock once numpy is in
REFERENCE_START = ("-c", "import time, numpy; print(time.monotonic())")
# every child must be done by then, so a run ends within 180 s
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) as ``statistics.quantiles``
    computes the quartiles; needs at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(root, numpy_version):
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(root),
        "threads": {v: "1" for v in THREAD_VARS},
    }


class Child:
    """Spawns worker processes and waits for each within the deadline."""

    def __init__(self, root, args, workdir):
        self.root, self.args, self.workdir = root, args, workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0",
                        **{v: "1" for v in THREAD_VARS})

    def reference_start(self):
        """Wall seconds of one REFERENCE_START, from spawn until numpy is
        imported (set-up time runs from spawn too)."""
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, *REFERENCE_START], cwd=self.root, env=self.env,
            check=True, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()))
        return float(out.stdout) - t0

    def run(self, mode, name):
        wd = os.path.join(self.workdir, name)
        os.makedirs(wd, exist_ok=True)
        cfg = {"mode": mode, "workload": self.args.workload,
               "seed": self.args.seed, "seconds": self.args.seconds,
               "trace": self.args.trace, "workdir": wd,
               "resultdir": self.workdir,
               "result": os.path.join(wd, "result.json")}
        script = os.path.join(self.root, "perfbench", "worker.py")
        log_path = os.path.join(wd, "worker.log")
        with open(log_path, "w", encoding="utf-8") as log:
            cfg["spawned"] = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, script, json.dumps(cfg)], cwd=self.root,
                env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline -
                                             time.monotonic()))
            except subprocess.TimeoutExpired:
                raise RuntimeError(f"{name}: worker passed the deadline")
            finally:
                # on every way out, including SIGTERM, the worker ends first
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            with open(log_path, encoding="utf-8") as fh:
                sys.stderr.write(fh.read()[-4000:])
            raise RuntimeError(f"{name}: worker exited with code {code}")
        with open(cfg["result"], encoding="utf-8") as fh:
            return json.load(fh)


def measure(root, args, workdir):
    """All set-ups and the timed run; returns the result record."""
    child = Child(root, args, workdir)
    setups, starts = [], []
    for i in range(SETUPS):
        starts.append(child.reference_start())
        setups.append(child.run("setup", f"setup{i}") if i < SETUPS - 1
                      else child.run("run", "run"))
    main = setups[-1]
    failures = list(main["failures"])
    attempted = main["attempted"] + 1
    if any(s["inputs"] != main["inputs"] for s in setups):
        failures.append("generated inputs differ between set-ups")
    rep_s = main["rep_s"]
    setup_wall = [s["setup_wall_s"] for s in setups]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(root, main["numpy"]),
        "inputs_sha256": main["inputs"],
        "trace_sha256": main.get("trace_sha256"),
        "setup_wall_s": setup_wall,
        "reference_start_s": starts,
        "host_speed": main["host_speed"],
        "rep_s": rep_s,
        "rep_wall_s": main["rep_wall_s"],
        "attempted": attempted, "failures": failures,
        "metrics": {
            "run_s": statistics.median(rep_s) if rep_s else None,
            "setup_s": statistics.median(
                w * REFERENCE_START_S / r for w, r in zip(setup_wall, starts)),
            "peak_rss_mib": main["peak_rss_mib"],
            "solver_iters": main.get("solver_iters"),
        },
        "fail_frac": len(failures) / attempted,
        "bound_slack_log10": main.get("bound_slack_log10"),
    }
    if args.trace:
        record["traced_s"] = main.get("traced_s")
        record["layers"] = main.get("layers")
    return record


def fmt(values):
    return " ".join(f"{v:.3f}" for v in values)


def report(rec, trace):
    """Human-readable lines, then the result object for the last line."""
    m = rec["metrics"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  "
          f"{len(rec['rep_s'])} untraced reps, {len(rec['setup_wall_s'])} set-ups")
    print(f"  wall time: reps {fmt(rec['rep_wall_s'])} s, "
          f"set-ups {fmt(rec['setup_wall_s'])} s, reference starts "
          f"{fmt(rec['reference_start_s'])} s; mean host speed "
          f"{rec['host_speed'] or 0:.4f}; times below in reference seconds")
    rows = [(k, m[k], END_TO_END[k]) for k in END_TO_END]
    rows.insert(3, ("fail_frac", rec["fail_frac"],
                    f"({len(rec['failures'])} of {rec['attempted']} checks)"))
    rows.append(("bound_slack_log10", rec["bound_slack_log10"],
                 "log10" if rec["bound_slack_log10"] is not None
                 else "(no bound in this workload)"))
    for name, value, unit in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {shown:>14} {unit}")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")
    correct = not rec["failures"]
    if trace:
        units = per_layer_units()
        layers = rec.get("layers") or {}
        correct = correct and set(layers) == set(units)
        metrics = {k: {"value": layers.get(k), "unit": u}
                   for k, u in units.items()}
        spans = sorted((k[:-7] for k in units if k.endswith(".self_s")),
                       key=lambda n: -(layers.get(n + ".self_s") or 0))
        print(f"  {'layer':<36} {'calls':>9} {'self_s':>10} {'total_s':>10}")
        for n in spans:
            if layers.get(n + ".calls"):
                print(f"  {n:<36} {layers[n + '.calls']:>9} "
                      f"{layers[n + '.self_s']:>10.4f} "
                      f"{layers[n + '.total_s']:>10.4f}")
        for k in units:
            if not k.endswith(("calls", "self_s", "total_s", "errors")):
                print(f"  {k:<36} {layers.get(k, 0):.6g} {units[k]}")
    else:
        correct = correct and all(m[k] is not None for k in END_TO_END)
        metrics = {k: {"value": m[k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": correct, "attempted": rec["attempted"],
            "failed": len(rec["failures"]), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "krybound", "cli.py")):
        print("error: run from the root of a krybound checkout "
              "(no src/krybound/cli.py here)", file=sys.stderr)
        return 2
    base = os.path.join(root, ".perfbench")
    workdir = os.path.join(base, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rec = measure(root, args, workdir)
    except (RuntimeError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = report(rec, args.trace)
    rec["result"] = result
    resdir = os.path.join(base, "results")
    os.makedirs(resdir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(resdir, stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)
    if os.path.exists(os.path.join(workdir, "spans.csv")):
        shutil.move(os.path.join(workdir, "spans.csv"),
                    os.path.join(resdir, stem + ".spans.csv"))
    shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
