"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

cli = run.load_program()

TINY = {
    "simulate": Workload("tiny-simulate", (
        "simulate", "--d", "20", "--m", "4", "--sigma", "0.01", "--lambda", "20",
        "--iters", "15", "--trials", "2", "--parallelism", "1"), "", ""),
    "compare": Workload("tiny-compare", (
        "compare", "--d", "8", "--m", "8", "--sigma", "0.1", "--lambda", "20",
        "--iters", "10", "--trials", "2", "--parallelism", "1", "--format", "json"), "", ""),
    "tune": Workload("tiny-tune", (
        "tune", "--d", "40", "--sigma", "0.1", "--m-grid", "4,8",
        "--lambda-grid", "5,40", "--iters", "12", "--target-err", "0.5",
        "--policy", "min-iterations-to-target", "--parallelism", "1"), "", ""),
}


def _rows(workload, out):
    return [cli.read_table(path)[2] for _, path in checks.output_tables(workload, out)]


def test_self_time_of_synthetic_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
        ("b", 6.0, 8.0, 0),    # overlaps its sibling: the union counts once
        ("c", 9.0, 12.0, 0),   # runs past its parent: clipped at 10
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0, 3.0])
    table = tracing.by_name(spans)
    assert table["b"][:3] == (2, pytest.approx(4.0), pytest.approx(4.0))
    assert table["root"][2] == pytest.approx(3.0)


@pytest.mark.parametrize("mode", sorted(TINY))
def test_traced_run_writes_same_rows_and_unwraps(tmp_path, mode):
    workload = TINY[mode]
    argv = [*workload.argv, "--seed", "3", "--out", str(tmp_path / "run")]
    plain = run.run_once(argv)
    assert plain.code == 0, plain.stderr
    plain_rows = _rows(workload, str(tmp_path / "run"))

    import proxtune.simulate
    from proxtune.expect import ExpectationEngine

    before = (dict(vars(cli)), dict(vars(proxtune.simulate)), dict(vars(ExpectationEngine)))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = run.run_once(argv)
    finally:
        tracer.remove()
    after = (dict(vars(cli)), dict(vars(proxtune.simulate)), dict(vars(ExpectationEngine)))
    assert traced.code == 0, traced.stderr
    assert _rows(workload, str(tmp_path / "run")) == plain_rows
    for old, new in zip(before, after):
        assert all(new[k] is v for k, v in old.items())

    # the self-time groups cover every span, so they add up to main's span
    metrics = tracing.layer_metrics(tracer)
    root = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in root] == ["cli.main"]
    assert metrics["trace.self_sum_s"] == pytest.approx(root[0][2] - root[0][1], rel=1e-9)
    assert root[0][2] - root[0][1] <= traced.wall


def test_layer_counts_follow_the_flags(tmp_path):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for mode in ("compare", "tune"):
            out = str(tmp_path / mode)
            assert run.run_once([*TINY[mode].argv, "--out", out]).code == 0
    finally:
        tracer.remove()
    m = tracing.layer_metrics(tracer)
    # compare: 2 trials x 10 dense steps (m = d); tune: 4 points x 12 steps
    assert m["simulate.prox_linear_step.calls"] == 20
    assert m["simulate.prox_linear_step.dense_calls"] == 20
    assert m["model.sample_batch.calls"] == 20
    assert m["state.calls"] == 2 * (20 + 2)
    assert m["tune.points"] == 4
    assert m["predict.solve_r.calls"] == 10 + 4 * 12
    assert m["predict.solve_r.iterations_max"] >= m["predict.solve_r.iterations_mean"] >= 1
    assert m["cli.write_table.calls"] == 5
    assert m["simulate.step_flops"] == tracing.step_flops(8, 8, dense=True)


def test_invalid_run_is_counted_and_left_out_of_timings(tmp_path):
    workload = TINY["simulate"]
    good = [*workload.argv, "--out", str(tmp_path / "ok")]
    bad = good[:good.index("--lambda") + 1] + ["-1"] + good[good.index("--lambda") + 2:]
    tally = run.Tally()
    assert tally.add(run.run_once(good))
    invalid = run.run_once(bad)
    assert invalid.code == 2
    assert not tally.add(invalid)
    assert (tally.attempted, tally.failed, tally.ok_frac) == (2, 1, 0.5)
    assert tally.passed and all(o.code == 0 for o in tally.passed)


def test_reference_check_tolerances():
    columns = ["t", "trial", "err"]
    rows = [[float(t), 0.0, 1.0 / (t + 1)] for t in range(100)]
    ref = checks.summarize(columns, rows)
    assert checks.check_reference("trials", ref, columns, rows, stochastic_too=True) == []

    noisy = [r[:2] + [r[2] * (1 + 1e-8)] for r in rows]
    assert checks.check_reference("trials", ref, columns, noisy, stochastic_too=True)
    # stochastic columns are compared at the reference seed only
    assert checks.check_reference("trials", ref, columns, noisy, stochastic_too=False) == []
    slight = [r[:2] + [r[2] * (1 + 1e-11)] for r in rows]
    assert checks.check_reference("trials", ref, columns, slight, stochastic_too=True) == []
    # err is deterministic in a predict table: 1e-11 is too much
    assert checks.check_reference("predict", ref, columns, slight, stochastic_too=False)


def test_invariants_flag_bad_values():
    workload = TINY["simulate"]
    columns = ["t", "trial", "err"]
    rows = [[0.0, 0.0, 0.5]] * (2 * 16)
    assert checks.check_invariants(workload, "trials", columns, rows) == []
    assert checks.check_invariants(workload, "trials", columns, rows[:-1])
    assert checks.check_invariants(workload, "trials", columns, rows[:-1] + [[0.0, 0.0, -1.0]])
    assert checks.check_invariants(workload, "trials", columns, rows[:-1] + [[0.0, 0.0, math.nan]])


def test_benchmark_json_names_what_run_reports(tmp_path):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["workloads"] == [{"name": w.name, "why": " ".join(w.argv) + ": " + w.why}
                                 for w in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        run.run_once([*TINY["simulate"].argv, "--out", str(tmp_path / "x")])
    finally:
        tracer.remove()
    names = set(tracing.layer_metrics(tracer)) - {"trace.self_sum_s"}
    names |= {"trace.accounted_frac", "trace.wall_s", "trace.untraced_wall_s",
              "trace.overhead_s", "simulate.pool_efficiency"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.per_layer_unit(n) for n in names}
