import subprocess
import sys
from dataclasses import fields
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxtune.cli import (
    EXIT_NO_FEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    RunConfig,
    _build_parser,
    _format_value,
    config_from_args,
    main,
    read_table,
    write_table,
)


def run_cli(tmp_path, *args):
    return main([*args, "--out", str(tmp_path / "run")])


def col(columns, rows, name):
    idx = columns.index(name)
    return [row[idx] for row in rows]


class TestRunConfig:
    def test_round_trip_defaults(self):
        cfg = RunConfig()
        assert RunConfig.from_text(cfg.to_text()) == cfg

    def test_round_trip_nontrivial(self):
        cfg = RunConfig(mode="tune", d=123, sigma=0.17, lambda0=3.5,
                        schedule="delayed-linear", t0=7, slope=2.0,
                        alpha0=None, init_dist=0.125, budget=77,
                        m_grid=(4, 8), lambda_grid=(1.0, 2.5),
                        target_err=3e-9, format="json")
        assert RunConfig.from_text(cfg.to_text()) == cfg

    def test_hash_changes_with_config(self):
        assert RunConfig().config_hash() != RunConfig(d=100).config_hash()

    def test_unknown_key_rejected(self):
        from proxtune.errors import ValidationError
        with pytest.raises(ValidationError):
            RunConfig.from_text("bogus_key = 1\n")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_flags_and_config_keys_agree(self, data):
        cfg = RunConfig(**{f.name: data.draw(_field_values(f), label=f.name)
                           for f in fields(RunConfig)})
        argv = [cfg.mode] + [
            f"{_flag(f)}={_format_value(getattr(cfg, f.name))}"
            for f in fields(RunConfig) if f.name != "mode"
        ]
        assert config_from_args(_build_parser().parse_args(argv)) == cfg
        assert RunConfig.from_text(cfg.to_text()) == cfg


# lower bounds that _validate_config enforces
_MINIMA = {"iters": 0, "trials": 1, "prefloor_margin": 1.0}
_SCALARS = {
    int: lambda name: st.integers(_MINIMA.get(name, -2 ** 63), 2 ** 63),
    float: lambda name: st.floats(_MINIMA.get(name), allow_nan=False,
                                  allow_infinity=False),
    str: lambda name: st.text("abcXYZ019_./-", min_size=1, max_size=12),
}


def _flag(f):
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


def _field_values(f):
    """Every value a setting may take: its choices, or any value of its type
    (X, X | None or tuple[X, ...]) within the validated bounds."""
    if f.name == "mode":
        return st.sampled_from(["simulate", "predict", "compare", "tune"])
    if f.metadata.get("choices"):
        return st.sampled_from(f.metadata["choices"])
    if f.type in _SCALARS:
        return _SCALARS[f.type](f.name)
    item = get_args(f.type)[0]
    if get_origin(f.type) is tuple:
        return st.lists(_SCALARS[item](f.name), max_size=4).map(tuple)
    return st.none() | _SCALARS[item](f.name)


class TestTableIO:
    def test_csv_json_numeric_identity(self, tmp_path):
        columns = ["a", "b", "c"]
        rows = [[1, 0.1 + 0.2, None], [2, 1e-300, 3.0]]
        meta = {"seed": 1, "version": "x"}
        csv_path = str(tmp_path / "t.csv")
        json_path = str(tmp_path / "t.json")
        write_table(csv_path, columns, rows, meta, "csv")
        write_table(json_path, columns, rows, meta, "json")
        _, cols_c, rows_c = read_table(csv_path)
        _, cols_j, rows_j = read_table(json_path)
        assert cols_c == cols_j == columns
        for rc, rj in zip(rows_c, rows_j):
            for vc, vj in zip(rc, rj):
                assert (vc is None and vj is None) or vc == vj

    def test_metadata_block(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, ["x"], [[1.0]], {"config_hash": "abc", "seed": 5}, "csv")
        meta, _, _ = read_table(path)
        assert meta["config_hash"] == "abc"
        assert meta["seed"] == "5"


class TestSimulateCommand:
    def test_single_trial_zero_iters(self, tmp_path):
        code = run_cli(tmp_path, "simulate", "--d", "30", "--m", "4",
                       "--trials", "1", "--iters", "0", "--seed", "3",
                       "--parallelism", "1")
        assert code == EXIT_OK
        meta, columns, rows = read_table(str(tmp_path / "run.aggregate.csv"))
        assert len(rows) == 1
        assert col(columns, rows, "median_err")[0] == pytest.approx(0.04019601, abs=1e-12)
        assert meta["seed"] == "3"
        assert "config_hash" in meta and "version" in meta

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["simulate", "--d", "20", "--m", "4", "--sigma", "0.05",
                "--lambda", "25", "--trials", "2", "--iters", "10",
                "--seed", "7", "--parallelism", "1"]
        assert main([*args, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main([*args, "--out", str(tmp_path / "b")]) == EXIT_OK
        for suffix in ("aggregate.csv", "trials.csv"):
            a = (tmp_path / f"a.{suffix}").read_bytes()
            b = (tmp_path / f"b.{suffix}").read_bytes()
            assert a == b

    def test_csv_and_json_carry_same_numbers(self, tmp_path):
        base = ["simulate", "--d", "20", "--m", "4", "--sigma", "0.05",
                "--lambda", "25", "--trials", "2", "--iters", "5",
                "--seed", "11", "--parallelism", "1"]
        assert main([*base, "--format", "csv", "--out", str(tmp_path / "r")]) == EXIT_OK
        assert main([*base, "--format", "json", "--out", str(tmp_path / "r")]) == EXIT_OK
        for suffix in ("aggregate", "trials"):
            _, cols_c, rows_c = read_table(str(tmp_path / f"r.{suffix}.csv"))
            _, cols_j, rows_j = read_table(str(tmp_path / f"r.{suffix}.json"))
            assert cols_c == cols_j
            assert len(rows_c) == len(rows_j)
            for rc, rj in zip(rows_c, rows_j):
                for vc, vj in zip(rc, rj):
                    assert vc == vj

    def test_validation_exit_code(self, tmp_path):
        assert run_cli(tmp_path, "simulate", "--m", "0") == EXIT_VALIDATION
        assert run_cli(tmp_path, "simulate", "--trials", "0") == EXIT_VALIDATION

    def test_failing_trial_same_exit_in_pool(self, tmp_path, capsys):
        # the worker's SimulationError must come back through the pool intact
        args = ["simulate", "--d", "20", "--m", "4", "--trials", "2",
                "--iters", "3", "--sigma", "inf"]
        results = []
        for jobs in ("1", "2"):
            code = run_cli(tmp_path, *args, "--parallelism", jobs)
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0] == (EXIT_NUMERICAL, "numerical failure: iteration 0: "
                                              "non-finite batch data\n")


@pytest.mark.parametrize("argv", [
    ["predict", "--sigma", "1e200", "--iters", "3"],
    ["predict", "--alpha0", "0", "--init-norm", "1e-160", "--iters", "5"],
    ["predict", "--alpha0", "0.5", "--init-norm", "1e200"],
    ["tune", "--sigma", "1e200", "--m-grid", "4", "--iters", "3"],
    ["simulate", "--sigma", "1e200", "--d", "20", "--m", "4", "--trials", "1",
     "--iters", "3", "--parallelism", "1"],
], ids=["predict-overflow", "predict-underflow", "init-overflow",
        "tune-overflow", "simulate-overflow"])
def test_numerical_failure_exit_code(tmp_path, capsys, argv):
    assert run_cli(tmp_path, *argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure")
    assert err.count("\n") == 1  # no numpy warning ahead of the typed message


@pytest.mark.parametrize("argv", [
    ["predict", "--d", "200", "--m", "300", "--iters", "3"],
    ["predict", "--d", "1", "--m", "1"],
    ["predict", "--d", "200", "--m", "300", "--iters", "0"],
    ["predict", "--sigma", "-1"],
    ["tune", "--sigma", "-1", "--m-grid", "8"],
    ["tune", "--d", "1", "--m-grid", "1"],
    ["simulate", "--d", "20", "--m", "40"],
], ids=["predict-m-above-d", "predict-d-1", "predict-m-above-d-no-steps",
        "predict-negative-sigma", "tune-negative-sigma", "tune-d-1", "simulate-m-above-d"])
def test_problem_check_exit_code(tmp_path, capsys, argv):
    # every mode rejects a bad (d, m, sigma) before it computes or writes
    assert run_cli(tmp_path, *argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


class TestPredictCommand:
    def test_zero_iters_single_row(self, tmp_path):
        code = run_cli(tmp_path, "predict", "--iters", "0")
        assert code == EXIT_OK
        _, columns, rows = read_table(str(tmp_path / "run.predict.csv"))
        assert len(rows) == 1
        assert col(columns, rows, "alpha")[0] == pytest.approx(0.99)

    def test_row_count_and_flag_column(self, tmp_path):
        code = run_cli(tmp_path, "predict", "--iters", "50", "--sigma", "0.1",
                       "--lambda", "100")
        assert code == EXIT_OK
        _, columns, rows = read_table(str(tmp_path / "run.predict.csv"))
        assert len(rows) == 51
        flags = col(columns, rows, "theory_region")
        assert all(f == 1.0 for f in flags)

    def test_thousand_step_prediction_file_and_speed(self, tmp_path):
        import time

        lam = str((1 + 1e-10) * 200 / 16)
        start = time.perf_counter()
        code = run_cli(tmp_path, "predict", "--d", "200", "--m", "16",
                       "--sigma", "1e-5", "--lambda", lam, "--iters", "1000")
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        _, _, rows = read_table(str(tmp_path / "run.predict.csv"))
        assert len(rows) == 1001
        assert elapsed < 1.0

    @pytest.mark.parametrize("key, value", [("nodes", "64"),
                                            ("v4_denominator", "symmetric")])
    def test_removed_keys_rejected(self, tmp_path, capsys, key, value):
        path = tmp_path / "old.cfg"
        path.write_text(RunConfig(iters=2).to_text() + f"{key} = {value}\n")
        code = main(["predict", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION
        assert f"unknown key {key!r}" in capsys.readouterr().err
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["predict", flag, value, "--out", str(tmp_path / "run")])
        assert exc.value.code == EXIT_VALIDATION

    @pytest.mark.parametrize("line, message", [
        ("policy = bogus", "policy must be one of"),
        ("d = abc", "config line 2: d: invalid literal"),
    ])
    def test_bad_config_value_rejected(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"iters = 2\n{line}\n")
        code = main(["predict", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_optional_flag_accepts_none(self, tmp_path):
        code = run_cli(tmp_path, "predict", "--iters", "2", "--alpha0", "none",
                       "--init-dist", "0.5")
        assert code == EXIT_OK

    def test_config_file_with_override(self, tmp_path):
        cfg = RunConfig(mode="predict", d=100, m=8, iters=5, sigma=0.0)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.to_text())
        code = main(["predict", "--config", str(path), "--iters", "3",
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_OK
        _, _, rows = read_table(str(tmp_path / "run.predict.csv"))
        assert len(rows) == 4


class TestCompareCommand:
    def test_truth_start_noiseless_gap_vanishes(self, tmp_path):
        code = run_cli(tmp_path, "compare", "--d", "50", "--m", "8",
                       "--sigma", "0", "--lambda", "20", "--alpha0", "1",
                       "--iters", "15", "--trials", "3", "--seed", "1",
                       "--parallelism", "1")
        assert code == EXIT_OK
        meta, columns, rows = read_table(str(tmp_path / "run.compare.csv"))
        abs_gap = col(columns, rows, "abs_gap")
        assert max(abs_gap) <= 1e-9
        assert float(meta["max_rel_gap_prefloor"]) == 0.0

    def test_gap_shrinks_with_batch_size(self, tmp_path):
        # larger batches concentrate harder around the prediction: over a
        # horizon that reaches both floors, the absolute deviation column
        # is smaller for m=32 than for m=8 at matched t on average
        gaps = {}
        for m in (8, 32):
            out = tmp_path / f"m{m}"
            code = main(["compare", "--d", "200", "--m", str(m), "--sigma",
                         "0.01", "--lambda", "100", "--iters", "800",
                         "--trials", "25", "--seed", "5", "--parallelism", "1",
                         "--out", str(out)])
            assert code == EXIT_OK
            meta, columns, rows = read_table(str(out) + ".compare.csv")
            gaps[m] = np.mean(col(columns, rows, "abs_gap"))
        assert gaps[32] < gaps[8]


class TestTuneCommand:
    def test_single_point_report(self, tmp_path):
        code = run_cli(tmp_path, "tune", "--d", "100", "--m", "16",
                       "--lambda-grid", "40", "--iters", "600",
                       "--target-err", "1e-6")
        assert code == EXIT_OK
        _, columns, rows = read_table(str(tmp_path / "run.tune.csv"))
        assert len(rows) == 1
        assert col(columns, rows, "m")[0] == 16
        assert col(columns, rows, "tau")[0] is not None

    def test_coupled_grid_recommends_largest_m(self, tmp_path, capsys):
        code = run_cli(tmp_path, "tune", "--d", "200", "--sigma", "1e-5",
                       "--m-grid", "4,8,16,32", "--iters", "2000",
                       "--target-err", "1e-8",
                       "--policy", "min-iterations-to-target")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "recommendation: m=32" in out

    def test_no_feasible_point_exit_code(self, tmp_path):
        code = run_cli(tmp_path, "tune", "--d", "200", "--m", "32",
                       "--sigma", "0.1", "--lambda-grid", "1",
                       "--iters", "50", "--target-err", "1e-12")
        assert code == EXIT_NO_FEASIBLE
        # the report is still written before the failure is raised
        _, columns, rows = read_table(str(tmp_path / "run.tune.csv"))
        assert len(rows) == 1
        assert col(columns, rows, "tau")[0] is None

    def test_unreached_tau_serializes_empty(self, tmp_path):
        run_cli(tmp_path, "tune", "--d", "200", "--m", "32", "--sigma", "0.1",
                "--lambda-grid", "1", "--iters", "50", "--target-err", "1e-12",
                "--format", "json")
        _, columns, rows = read_table(str(tmp_path / "run.tune.json"))
        assert col(columns, rows, "tau")[0] is None
        assert col(columns, rows, "samples")[0] is None


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "proxtune.cli", "predict", "--iters", "2",
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "wrote" in result.stdout
