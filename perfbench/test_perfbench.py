"""Self-tests of the benchmark's arithmetic, tracer and checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import quartile_spread  # noqa: E402

# (parent, name, start, end, error): root spans 0..10 with children
# a 1..4 (holding c 2..3) and b 5..6; d recurses into itself
SPANS = [
    (-1, "root", 0.0, 10.0, False),
    (0, "a", 1.0, 4.0, False),
    (1, "c", 2.0, 3.0, False),
    (0, "b", 5.0, 6.0, False),
    (-1, "d", 11.0, 15.0, False),
    (4, "d", 12.0, 14.0, True),
]


def test_self_time_is_duration_minus_children():
    assert tracer.self_times(SPANS) == [6.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_recursive_spans_are_flagged_for_total_time():
    assert tracer.nested_flags(SPANS) == [False] * 5 + [True]


def test_layer_metrics_aggregate_spans():
    tr = tracer.Tracer()
    tr.spans = [(-1, "cli.main", 0.0, 10.0, False),
                (0, "dd.vdot", 1.0, 2.0, False),
                (0, "dd.vdot", 3.0, 5.0, True)]
    m = tr.layer_metrics(traced_s=12.0, untraced_s=10.0)
    assert m["cli.main.self_s"] == 7.0 and m["cli.main.total_s"] == 10.0
    assert m["dd.vdot.calls"] == 2 and m["dd.vdot.errors"] == 1
    assert m["dd.vdot.self_s"] == 3.0
    assert m["trace.overhead_frac"] == pytest.approx(0.2)
    assert set(m) | {"bounds.bound_curve.slack_log10"} == \
        set(tracer.per_layer_units())


def test_quartile_spread_matches_statistics():
    values = [float(v) for v in range(1, 11)]
    med, q1, q3, spread = quartile_spread(values)
    assert (med, q1, q3) == (5.5, 2.75, 8.25)
    assert spread == 1.0
    assert [q1, med, q3] == statistics.quantiles(values, n=4)


def test_sampler_removes_its_own_time_and_averages_speed():
    sp = hostspeed.Sampler()
    sp.speeds, sp.spent_s = [0.5, 1.5], 0.2
    assert sp.to_ref(2.2) == pytest.approx(2.0)


def test_sampler_samples_while_code_runs():
    import time
    with hostspeed.Sampler() as sp:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * hostspeed.INTERVAL_S:
            sum(range(1000))
    assert len(sp.speeds) >= 2 and sp.spent_s > 0.0
    assert hostspeed.kernel() == hostspeed.kernel()
    with hostspeed.Sampler() as short:      # no tick: one sample after
        pass
    assert len(short.speeds) == 1 and short.spent_s == 0.0


def test_tracer_wraps_every_alias_and_restores():
    import krybound.bounds as bounds
    import krybound.linalg as linalg
    from krybound import dd
    originals = (bounds.lstsq, linalg.lstsq, dd.DD.__add__)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        assert bounds.lstsq is linalg.lstsq is not originals[0]
        assert dd.DD.__radd__ is dd.DD.__add__ is not originals[2]
        _small_batch()
    assert (bounds.lstsq, linalg.lstsq, dd.DD.__add__) == originals
    m = tr.layer_metrics(1.0, 1.0)
    assert m["linalg.lstsq.calls"] > 0 and m["linalg.eig_nonsymmetric.calls"]
    assert m["gmres.iterations"] > 0 and m["dd.ops"] > 0
    assert m["linalg.lu_per_eigenvalue"] >= 1.0


def _small_batch():
    return workloads._run_batch(workloads.batch_systems(5, sizes=(4,)))


def _fail_frac(checks):
    return len(checks.failures) / checks.attempted


def test_corrupted_bound_raises_fail_frac():
    reps = [{"systems": _small_batch()} for _ in range(2)]
    checks = workloads.Checks()
    workloads.check_reps("bound-batch", reps, checks, None, None)
    assert _fail_frac(checks) == 0.0
    bad = [dict(r) for r in reps[0]["systems"]]
    bad[1] = dict(bad[1], bound=[b * 1e-6 for b in bad[1]["bound"]])
    reps = [{"systems": bad}, {"systems": bad}]
    checks = workloads.Checks()
    workloads.check_reps("bound-batch", reps, checks, None, None)
    assert _fail_frac(checks) > 0.0


def _write_trace(path, bounds):
    lines = ["# schema: krybound-trace-v1", "# retained_eigenpairs: 81",
             "k,residual_norm,preconditioned_residual_norm,"
             "normal_residual_norm,bound_theorem1,bound_cluster,"
             "estimate_first_order", "0,1.0,1.0,1.0,,,"]
    for k, b in enumerate(bounds, 1):
        lines.append(f"{k},{0.1 ** k},{0.1 ** k},{0.1 ** k},{b},,")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("corrupt", ["none", "bound", "trace"])
def test_corrupted_eig_bound_trace_raises_fail_frac(tmp_path, corrupt):
    good = [1.0, 0.5, 0.25]
    first, second = tmp_path / "t0.csv", tmp_path / "t1.csv"
    _write_trace(first, [1e-9, 0.5, 0.25] if corrupt == "bound" else good)
    _write_trace(second, [1.0, 0.5, 0.3] if corrupt == "trace" else
                 [1e-9, 0.5, 0.25] if corrupt == "bound" else good)
    reps = [{"exit": 0, "trace": str(first)}, {"exit": 0, "trace": str(second)}]
    checks = workloads.Checks()
    out = workloads.check_reps("eig-bound", reps, checks, None, None)
    if corrupt == "none":
        assert _fail_frac(checks) == 0.0
        assert out["solver_iters"] == 3 and out["bound_slack_log10"] > 0
    else:
        assert _fail_frac(checks) > 0.0


def test_exception_in_check_counts_as_failure():
    checks = workloads.Checks()
    checks.check("raises", lambda: 1 / 0)
    assert checks.attempted == 1 and "ZeroDivisionError" in checks.failures[0]


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a1, a2, b = (workloads.wide_matrix(s) for s in (3, 3, 4))
    assert (a1 == a2).all() and not (a1 == b).all()
    assert (a1 != 0).any(axis=0).all()         # no empty column
    assert 0.008 < (a1 != 0).mean() < 0.0101


def test_benchmark_json_matches_the_code():
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        tracer.per_layer_units()
