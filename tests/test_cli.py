import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxtune import __version__
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
from proxtune.errors import ValidationError
from proxtune.state import StateVec
from proxtune.tune import POLICIES
from oracles import sandwich_check


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

    def test_default_hash_is_pinned(self):
        # the value every earlier artifact of a default run carries
        assert RunConfig().config_hash() == "4d23f5685f56"

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data())
    def test_hash_is_hashlib_sha256(self, data):
        # the builtin SHA-256 digests the same text as hashlib's
        cfg = RunConfig(**{f.name: data.draw(_field_values(f), label=f.name)
                           for f in fields(RunConfig)})
        text = "\n".join(line for line in cfg.to_text().splitlines()
                         if not line.startswith(("out ", "format ")))
        assert cfg.config_hash() == hashlib.sha256(text.encode()).hexdigest()[:12]

    def test_end_of_options_marker_is_no_output_base(self, tmp_path):
        path = tmp_path / "dash.cfg"
        path.write_text("out = --\n")
        for argv in (["predict", "--out=--"], ["predict", "--config", str(path)]):
            with pytest.raises(ValidationError, match="out must be a path base"):
                config_from_args(_build_parser().parse_args(argv))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig.from_text("bogus_key = 1\n")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_flags_and_config_keys_agree(self, data):
        cfg = RunConfig(**{f.name: data.draw(_field_values(f), label=f.name)
                           for f in fields(RunConfig)})
        # tune's floor policy needs a budget; _validate_config rejects it without one
        assume(not (cfg.mode == "tune" and cfg.budget is None
                    and cfg.policy == "min-floor-subject-to-iteration-budget"))
        argv = [cfg.mode] + [
            f"{_flag(f)}={_format_value(getattr(cfg, f.name))}"
            for f in fields(RunConfig) if f.name != "mode"
        ]
        assert config_from_args(_build_parser().parse_args(argv)) == cfg
        assert RunConfig.from_text(cfg.to_text()) == cfg


# lower bounds that _validate_config enforces (target_err > 0: the least
# positive float)
_MINIMA = {"iters": 0, "trials": 1, "prefloor_margin": 1.0, "budget": 0,
           "target_err": 5e-324, "seed": 0, "parallelism": 0}
_SCALARS = {
    int: lambda name: st.integers(_MINIMA.get(name, -2 ** 63), 2 ** 63),
    float: lambda name: st.floats(_MINIMA.get(name), allow_nan=False,
                                  allow_infinity=False),
    # "--" is no path base: argparse reads it as the end of options
    str: lambda name: st.text("abcXYZ019_./-", min_size=1, max_size=12).filter(
        lambda s: s != "--"),
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


def _written(v):
    """The value read_table must give back for a cell written as v."""
    if v is None:
        return None
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return int(v)
    return float(v)


def _same_cell(a, b):
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


_CELLS = (st.none() | st.booleans() | st.booleans().map(np.bool_)
          | st.integers(-2 ** 70, 2 ** 70) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
          | st.floats() | st.floats().map(np.float64)
          | st.sampled_from([math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, -0.0,
                             2 ** 53 + 1, -(2 ** 63) + 1]))


class TestTableIO:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(_CELLS, min_size=k, max_size=k), max_size=5)
        .map(lambda rows: (k, rows))))
    def test_csv_and_json_read_back_the_same_cells(self, table):
        # ints, bools, None, subnormals, +-inf and nan: both formats give back
        # every cell as written (nan compared by isnan), and the JSON file is
        # strict RFC 8259
        k, rows = table
        columns = [f"c{j}" for j in range(k)]
        meta = {"seed": 1, "version": "x"}
        with tempfile.TemporaryDirectory() as tmp:
            got = {}
            for fmt in ("csv", "json"):
                path = str(Path(tmp) / f"t.{fmt}")
                write_table(path, columns, rows, meta, fmt)
                got[fmt] = read_table(path)
            json.loads(Path(tmp, "t.json").read_text(), parse_constant=_reject_constant)
        for meta_read, cols, cells in got.values():
            assert meta_read == {"seed": "1", "version": "x"}
            assert cols == columns
            assert len(cells) == len(rows)
            for written, read in zip(rows, cells):
                assert all(_same_cell(_written(v), r) for v, r in zip(written, read, strict=True))

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

    def test_frob_err_is_never_negative(self, tmp_path):
        # noiseless runs settle at err ~1e-31, where an expansion of the
        # Frobenius error in the vectors reads rounding noise of either sign;
        # the column must stay >= 0 and in the sandwich band wherever it applies
        code = run_cli(tmp_path, "simulate", "--d", "50", "--m", "16", "--sigma", "0",
                       "--lambda", "4", "--iters", "1500", "--trials", "2",
                       "--parallelism", "1", "--seed", "1")
        assert code == EXIT_OK
        _, columns, rows = read_table(str(tmp_path / "run.trials.csv"))
        assert len(rows) == 3002
        frob = col(columns, rows, "frob_err")
        assert min(frob) >= 0.0
        states = [StateVec(*row[2:6]) for row in rows]
        checks = [sandwich_check(s, f) for s, f in zip(states, frob)]
        assert all(c.within_band for c in checks if c.applicable)

    def test_validation_exit_code(self, tmp_path):
        assert run_cli(tmp_path, "simulate", "--m", "0") == EXIT_VALIDATION
        assert run_cli(tmp_path, "simulate", "--trials", "0") == EXIT_VALIDATION

    def test_failing_trial_same_exit_in_pool(self, tmp_path, capsys):
        # the worker's SimulationError must come back through the pool intact
        args = ["simulate", "--d", "20", "--m", "4", "--trials", "2",
                "--iters", "3", "--sigma", "1e200"]
        results = []
        for jobs in ("1", "2"):
            code = run_cli(tmp_path, *args, "--parallelism", jobs)
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0] == (EXIT_NUMERICAL, "numerical failure: iteration 0: "
                                              "normal-equation residual is not finite\n")


@pytest.mark.parametrize("argv, names", [
    (["predict", "--sigma", "1e200", "--iters", "3"],
     "noise variance sigma^2 overflows"),
    (["predict", "--alpha0", "0", "--init-norm", "1e-160", "--iters", "5"],
     "squared lengths L^2 Lt^2 underflow to 0"),
    (["predict", "--alpha0", "0.5", "--init-norm", "1e200"],
     "squared target norm overflows"),
    (["simulate", "--init-norm", "1e-200", "--init-dist", "1", "--d", "20", "--m", "4",
      "--trials", "1", "--iters", "3", "--parallelism", "1"],
     "squared target norm underflows to 0 at norm=1e-200"),
    (["tune", "--sigma", "1e200", "--m-grid", "4", "--iters", "3"],
     "coupled rule lambda = (1 + sigma^2) d / m overflows"),
    (["tune", "--sigma", "1e200", "--m-grid", "4,8", "--lambda-grid", "10,20", "--iters", "3"],
     "noise variance sigma^2 overflows"),
    (["simulate", "--sigma", "1e200", "--d", "20", "--m", "4", "--trials", "1",
      "--iters", "3", "--parallelism", "1"],
     "normal-equation residual is not finite"),
    (["predict", "--alpha0", "0.5", "--init-norm", "1e60", "--iters", "1"],
     "step 0: predicted state (alpha, beta, talpha, tbeta) = (0.48, inf, 0.48, inf) "
     "is not finite"),
    (["predict", "--alpha0", "0.5", "--init-norm", "1e100", "--iters", "1"],
     "step 0: grid t-span [0, 0.179688] leaves the float range at L=1e+100"),
    (["predict", "--lambda", "5e154", "--iters", "3"],
     "step 0: V3/V4 weight denominators (lambda + V1)^2, (lambda + V2)^2, "
     "(lambda + V (1/L^2 + 1/Lt^2))^2 overflow at lambda=5e+154"),
], ids=["predict-overflow", "predict-underflow", "init-overflow", "init-underflow",
        "tune-overflow", "tune-grid-overflow", "simulate-overflow", "last-state-overflow",
        "grid-span-underflow", "weight-denominator-overflow"])
def test_numerical_failure_exit_code(tmp_path, capsys, argv, names):
    assert run_cli(tmp_path, *argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure")
    assert names in err  # the message says what overflowed or vanished
    assert err.count("\n") == 1  # no numpy warning ahead of the typed message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["predict", "--d", "200", "--m", "300", "--iters", "3"],
    ["predict", "--d", "1", "--m", "1"],
    ["predict", "--d", "200", "--m", "300", "--iters", "0"],
    ["predict", "--sigma", "-1"],
    ["tune", "--sigma", "-1", "--m-grid", "8"],
    ["tune", "--d", "1", "--m-grid", "1"],
    ["simulate", "--d", "20", "--m", "40"],
    ["predict", "--sigma", "nan", "--iters", "3"],
    ["predict", "--lambda", "nan", "--iters", "3"],
    ["tune", "--m-grid", "8", "--lambda-grid", "nan", "--iters", "3"],
    ["simulate", "--sigma", "nan", "--d", "20", "--m", "4", "--trials", "1", "--iters", "2"],
    ["predict", "--init-norm", "nan", "--iters", "3"],
    ["tune", "--target-err", "nan", "--m-grid", "8", "--iters", "3"],
    ["tune", "--target-err", "-1", "--m-grid", "8", "--iters", "3"],
    ["tune", "--budget", "-3", "--m-grid", "8", "--iters", "3",
     "--policy", "min-floor-subject-to-iteration-budget"],
    ["compare", "--prefloor-margin", "nan", "--d", "20", "--m", "4", "--trials", "1",
     "--iters", "3"],
    ["simulate", "--seed", "-1", "--d", "10", "--m", "2", "--iters", "2", "--trials", "1"],
    ["compare", "--seed", "-1", "--d", "10", "--m", "2", "--iters", "2", "--trials", "1"],
    ["simulate", "--parallelism", "-3", "--d", "10", "--m", "2", "--iters", "2",
     "--trials", "1"],
    ["tune", "--d", "50", "--m-grid", "8", "--iters", "20",
     "--policy", "min-floor-subject-to-iteration-budget"],
    ["predict", "--lambda", "inf", "--iters", "3"],
    ["predict", "--sigma", "inf", "--iters", "3"],
    ["simulate", "--sigma", "inf", "--d", "20", "--m", "4", "--trials", "1", "--iters", "2"],
    ["predict", "--schedule", "delayed-linear", "--t0", "1", "--slope", "inf", "--iters", "3"],
    ["predict", "--init-norm", "inf", "--iters", "3"],
    ["tune", "--m-grid", "4", "--lambda-grid", "inf", "--iters", "3"],
    ["simulate", "--init-norm", "inf", "--d", "20", "--m", "4", "--trials", "1", "--iters", "2"],
], ids=["predict-m-above-d", "predict-d-1", "predict-m-above-d-no-steps",
        "predict-negative-sigma", "tune-negative-sigma", "tune-d-1", "simulate-m-above-d",
        "predict-nan-sigma", "predict-nan-lambda", "tune-nan-lambda", "simulate-nan-sigma",
        "predict-nan-init-norm", "tune-nan-target", "tune-negative-target",
        "tune-negative-budget", "compare-nan-prefloor-margin", "simulate-negative-seed",
        "compare-negative-seed", "simulate-negative-parallelism", "tune-budget-policy-no-budget",
        "predict-inf-lambda", "predict-inf-sigma", "simulate-inf-sigma", "predict-inf-slope",
        "predict-inf-init-norm", "tune-inf-lambda", "simulate-inf-init-norm"])
def test_problem_check_exit_code(tmp_path, capsys, argv):
    # every mode rejects a bad setting (NaN included) before it computes or writes
    assert run_cli(tmp_path, *argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code, tables, region", [
    (["predict", "--d", "2", "--m", "1"], EXIT_OK, ["predict"], None),
    (["predict", "--d", "2", "--m", "2"], EXIT_OK, ["predict"], None),
    (["predict", "--d", "200", "--m", "1"], EXIT_OK, ["predict"], None),
    (["simulate", "--d", "2", "--m", "1", "--trials", "3", "--iters", "200",
      "--parallelism", "1"], EXIT_OK, ["trials", "aggregate"], None),
    (["predict", "--lambda", "0.5", "--m", "200", "--iters", "20"], EXIT_OK, ["predict"], 0),
    (["tune", "--d", "2", "--m-grid", "1,2", "--iters", "5"], EXIT_NO_FEASIBLE, ["tune"], None),
    (["predict", "--sigma", "1e100", "--iters", "3"], EXIT_NUMERICAL, [], None),
    # L = 1e80: the certificate's L^4 leaves the float range, the state does not
    (["predict", "--alpha0", "0.5", "--init-norm", "1e80", "--iters", "0"],
     EXIT_OK, ["predict"], 0),
    (["tune", "--alpha0", "0.5", "--init-norm", "1e80", "--iters", "0"],
     EXIT_NO_FEASIBLE, ["tune"], None),
    # L^2 / lambda = 1e-2 certifies although L^4 and lambda^2 overflow
    (["predict", "--alpha0", "0.5", "--init-norm", "1e79", "--lambda", "1e160",
      "--iters", "0"], EXIT_OK, ["predict"], 1),
], ids=["predict-d2-m1", "predict-d2-m2", "predict-d200-m1", "simulate-d2-m1",
        "predict-m-equals-d-small-lambda", "tune-d2-no-feasible", "predict-grid-span-overflow",
        "predict-certificate-overflow", "tune-certificate-overflow",
        "predict-certificate-huge-lambda"])
def test_boundary_runs(tmp_path, capsys, argv, code, tables, region):
    # the edges of the problem check: exit code, files written, finite rows
    # and, where given, the theory_region flag of every row
    assert run_cli(tmp_path, *argv) == code
    err = capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"run.{k}.csv" for k in tables)
    if code == EXIT_NUMERICAL:
        assert "grid t-span" in err
    if code != EXIT_OK:
        return
    iters = int(argv[argv.index("--iters") + 1]) if "--iters" in argv else 1000
    for kind in tables:
        _, columns, rows = read_table(str(tmp_path / f"run.{kind}.csv"))
        assert len(rows) == (iters + 1) * (3 if kind == "trials" else 1)
        assert all(math.isfinite(v) for row in rows for v in row)
        if region is not None:
            assert col(columns, rows, "theory_region") == [region] * len(rows)


@pytest.mark.parametrize("argv, metric", [
    (["predict", "--alpha0", "1e80", "--init-norm", "1e80", "--iters", "0"], "err"),
    (["tune", "--alpha0", "1e80", "--init-norm", "1e80", "--iters", "0"], "err"),
    (["simulate", "--alpha0", "1e80", "--init-norm", "1e80", "--iters", "0", "--d", "10",
      "--m", "2", "--trials", "1", "--parallelism", "1"], "err"),
    (["simulate", "--alpha0", "0.5", "--init-norm", "1e80", "--iters", "0", "--d", "10",
      "--m", "2", "--trials", "1", "--parallelism", "1"], "frob_err"),
], ids=["predict-err", "tune-err", "simulate-err", "simulate-frob-err"])
def test_overflowing_error_metric_exit_code(tmp_path, capsys, argv, metric):
    # a finite initial state whose error metric leaves the float range is a
    # typed numerical failure at step 0 that names the metric; no table is written
    assert run_cli(tmp_path, *argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"0: error metric {metric} = inf overflows" in err
    assert list(tmp_path.iterdir()) == []


# the values the exit-contract test draws a quarter of its floats from
_EXTREMES = st.sampled_from([0.0, 5e-324, 1e154, 1.7e308, -5e-324, -1e-3, -1.0, -1e154,
                             -1.7e308, math.inf, -math.inf, math.nan])


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _drawn(usual):
    return st.integers(0, 3).flatmap(lambda k: _EXTREMES if k == 0 else usual)


@st.composite
def _argvs(draw):
    mode = draw(st.sampled_from(["simulate", "predict", "compare", "tune"]))
    d = draw(st.integers(2, 40))
    values = {"d": d, "m": draw(st.integers(1, d)), "iters": draw(st.integers(-1, 15)),
              "sigma": draw(_drawn(_log_uniform(1e-4, 1.0))),
              "lambda": draw(_drawn(_log_uniform(0.1, 1e3))),
              "init-norm": draw(_drawn(_log_uniform(0.1, 10.0))),
              "alpha0": draw(_drawn(st.floats(-1.0, 1.0))),
              "format": draw(st.sampled_from(["csv", "json"]))}
    if draw(st.booleans()):
        values.update({"schedule": "delayed-linear", "t0": draw(st.integers(0, 15)),
                          "slope": draw(_drawn(_log_uniform(0.01, 100.0)))})
    if mode in ("simulate", "compare"):
        values.update({"trials": draw(st.integers(0, 3)), "seed": draw(st.integers(0, 9))})
    if mode == "tune":
        values["m-grid"] = ",".join(map(str, draw(st.lists(st.integers(1, d), min_size=1,
                                                              max_size=3))))
        lams = draw(st.lists(_drawn(_log_uniform(0.1, 1e3)), max_size=3))
        if lams:
            values["lambda-grid"] = ",".join(map(repr, lams))
        values["target-err"] = draw(_drawn(_log_uniform(1e-8, 1.0)))
        values["policy"] = draw(st.sampled_from(tuple(POLICIES)))
        values["budget"] = draw(st.integers(0, 15))
    texts = [(f"--{flag}", repr(value) if isinstance(value, float) else str(value))
             for flag, value in values.items()]
    # every value as --flag=value, then every value as its own token
    return ([mode, *(f"{flag}={text}" for flag, text in texts)],
            [mode, *(token for pair in texts for token in pair)])


def _wrote(stdout):
    """The paths a run's stdout names in its ``wrote <path>`` lines."""
    return {line[len("wrote "):] for line in stdout.splitlines() if line.startswith("wrote ")}


def _exit_code(argv, out):
    try:
        return main([*argv, "--out", out])
    except SystemExit as exc:  # argparse rejects the argv
        return exc.code


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_argvs())
def test_exit_contract(spellings):
    # exit 0, 2, 3 or 4 and no exception; exit 2 before any file; every file
    # the run leaves named on stdout; no NaN in a table of a run that
    # succeeds; both spellings of the argv, and a trial pool, exit as the
    # serial run. capsys is not reset between examples, so stdout is
    # captured here
    joined, split = spellings
    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = _exit_code([*joined, "--parallelism", "1"], os.path.join(tmp, "run"))
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_NO_FEASIBLE)
        written = sorted(os.listdir(tmp))
        assert _wrote(stdout.getvalue()) == {os.path.join(tmp, name) for name in written}
        if code == EXIT_VALIDATION:
            assert written == []
        if code == EXIT_OK:
            for name in written:
                _, _, rows = read_table(os.path.join(tmp, name))
                assert not any(isinstance(v, float) and math.isnan(v)
                               for row in rows for v in row), name
        jobs = ("1", "2") if joined[0] in ("simulate", "compare") else ("1",)
        for n in jobs:
            assert _exit_code([*split, "--parallelism", n], os.path.join(tmp, n)) == code


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
        ("schedule = exponential", "schedule must be one of"),
        ("convention = sideways", "convention must be one of"),
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
    def test_infinite_gaps_are_strict_json(self, tmp_path):
        # err_seq = 0 makes rel_gap inf; JSON spells it "inf", as CSV does
        base = ["compare", "--d", "20", "--m", "4", "--sigma", "0", "--alpha0", "1",
                "--iters", "5", "--trials", "2", "--parallelism", "1",
                "--out", str(tmp_path / "r")]
        for fmt in ("csv", "json"):
            assert main([*base, "--format", fmt]) == EXIT_OK
        text = (tmp_path / "r.compare.json").read_text()
        json.loads(text, parse_constant=_reject_constant)
        assert '"inf"' in text
        _, columns, rows_j = read_table(str(tmp_path / "r.compare.json"))
        _, _, rows_c = read_table(str(tmp_path / "r.compare.csv"))
        assert math.inf in col(columns, rows_j, "rel_gap")
        for rc, rj in zip(rows_c, rows_j, strict=True):
            assert all(_same_cell(a, b) for a, b in zip(rc, rj, strict=True))

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

    @pytest.mark.slow
    def test_gap_shrinks_with_batch_size(self, tmp_path):
        # larger batches concentrate harder around the prediction: over a
        # horizon that reaches both floors, the absolute deviation column
        # is smaller for m=32 than for m=8 at matched t on average
        gaps = {}
        for m in (8, 32):
            out = tmp_path / f"m{m}"
            code = main(["compare", "--d", "200", "--m", str(m), "--sigma",
                         "0.01", "--lambda", "100", "--iters", "800",
                         "--trials", "25", "--seed", "5", "--parallelism", "0",
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

    def test_rows_are_the_predict_runs_they_name(self, tmp_path):
        # each row's tau, floor and theory_region are those of the predict
        # table of the same flags at the row's m and lambda, schedule included
        flags = ["--d", "50", "--sigma", "0.1", "--iters", "40",
                 "--schedule", "delayed-linear", "--t0", "5", "--slope", "100"]
        target = 0.035  # every point reaches it
        assert run_cli(tmp_path, "tune", *flags, "--m-grid", "8,16", "--lambda-grid", "20,40",
                       "--target-err", str(target)) == EXIT_OK
        _, columns, rows = read_table(str(tmp_path / "run.tune.csv"))
        assert len(rows) == 4
        for row in rows:
            point = dict(zip(columns, row))
            out = str(tmp_path / "point")
            assert main(["predict", *flags, "--m", str(point["m"]),
                         "--lambda", str(point["lambda"]), "--out", out]) == EXIT_OK
            _, pcolumns, prows = read_table(out + ".predict.csv")
            err_seq = col(pcolumns, prows, "err_seq")
            assert point["tau"] == next(t for t, err in enumerate(err_seq) if err <= target)
            assert point["floor"] == min(err_seq)
            assert point["theory_region"] == min(col(pcolumns, prows, "theory_region"))

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


_POLICY_GRID = ["tune", "--d", "50", "--sigma", "0.1", "--m-grid", "4,8,16",
                "--lambda-grid", "10,20,40", "--iters", "60"]


@pytest.mark.parametrize("policy, feasible, infeasible, recommendation, no_feasible", [
    ("min-samples-to-target", ["--target-err", "0.02"], ["--target-err", "1e-3"],
     "recommendation: m=4 lambda=10 (fewest total samples m*tau to reach 0.02: "
     "(m=4, lambda=10) with tau=29, floor=1.098e-02, samples=116)",
     "no feasible point: no grid point satisfies policy 'min-samples-to-target'; "
     "best floor 2.433e-03 at (m=16, lambda=10)"),
    ("min-iterations-to-target", ["--target-err", "0.02"], ["--target-err", "1e-3"],
     "recommendation: m=16 lambda=10 (fewest iterations to reach 0.02: "
     "(m=16, lambda=10) with tau=10, floor=2.433e-03, samples=160)",
     "no feasible point: no grid point satisfies policy 'min-iterations-to-target'; "
     "best floor 2.433e-03 at (m=16, lambda=10)"),
    ("min-floor-subject-to-iteration-budget", ["--target-err", "0.02", "--budget", "12"],
     ["--target-err", "0.02", "--budget", "5"],
     "recommendation: m=16 lambda=10 (smallest floor among points reaching 0.02 within "
     "12 iterations: (m=16, lambda=10) with tau=10, floor=2.433e-03, samples=160)",
     "no feasible point: no grid point satisfies policy "
     "'min-floor-subject-to-iteration-budget'; best floor 2.433e-03 at (m=16, lambda=10)"),
], ids=["min-samples", "min-iterations", "min-floor-budget"])
def test_recommendation_wording(tmp_path, capsys, policy, feasible, infeasible,
                                recommendation, no_feasible):
    # the exact lines each policy prints when a point satisfies it, and when none does
    assert run_cli(tmp_path, *_POLICY_GRID, "--policy", policy, *feasible) == EXIT_OK
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("recommendation:")] == [
        recommendation]
    assert run_cli(tmp_path, *_POLICY_GRID, "--policy", policy, *infeasible) == EXIT_NO_FEASIBLE
    assert capsys.readouterr().err == no_feasible + "\n"


_SMALL = ["--d", "20", "--m", "4", "--iters", "3", "--trials", "2", "--parallelism", "1"]


@pytest.mark.parametrize("argv, code", [
    *((["simulate", *_SMALL, "--format", fmt], EXIT_OK) for fmt in ("csv", "json")),
    *((["predict", *_SMALL, "--format", fmt], EXIT_OK) for fmt in ("csv", "json")),
    *((["compare", *_SMALL, "--format", fmt], EXIT_OK) for fmt in ("csv", "json")),
    *((["tune", *_SMALL, "--m-grid", "4,8", "--target-err", "0.5", "--format", fmt], EXIT_OK)
      for fmt in ("csv", "json")),
    (["tune", "--d", "200", "--m", "32", "--sigma", "0.1", "--lambda-grid", "1",
      "--iters", "50", "--target-err", "1e-12"], EXIT_NO_FEASIBLE),
    (["compare", "--alpha0", "0", "--init-norm", "1e-160", "--iters", "2", "--d", "20",
      "--m", "4", "--trials", "1", "--parallelism", "1"], EXIT_NUMERICAL),
], ids=["simulate-csv", "simulate-json", "predict-csv", "predict-json", "compare-csv",
        "compare-json", "tune-csv", "tune-json", "tune-no-feasible", "compare-underflow"])
def test_every_file_left_is_named(tmp_path, capsys, argv, code):
    # a run that fails after writing a table still names it on stdout
    assert run_cli(tmp_path, *argv) == code
    assert _wrote(capsys.readouterr().out) == {str(path) for path in tmp_path.iterdir()}


_TRIALS_COLUMNS = ["t", "trial", "alpha", "beta", "talpha", "tbeta", "err", "frob_err"]
_AGGREGATE_COLUMNS = ["t", "median_err", "q25_err", "q75_err"]
_PREDICT_COLUMNS = ["t", "alpha", "beta", "talpha", "tbeta", "err_seq", "theory_region"]
_BASE_KEYS = {"version", "mode", "config_hash", "seed"}
_SETTINGS = ["--seed", "5", "--target-err", "0.5", "--prefloor-margin", "2",
             "--policy", "min-samples-to-target"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mode, extra, tables", [
    ("simulate", [], {
        "trials": (_TRIALS_COLUMNS, {"trials": "2"}),
        "aggregate": (_AGGREGATE_COLUMNS, {"trials": "2"})}),
    ("predict", [], {"predict": (_PREDICT_COLUMNS, {})}),
    ("compare", [], {
        "emp.trials": (_TRIALS_COLUMNS, {"trials": "2"}),
        "emp.aggregate": (_AGGREGATE_COLUMNS, {"trials": "2"}),
        "det.predict": (_PREDICT_COLUMNS, {}),
        "compare": (["t", "median_emp", "err_seq", "abs_gap", "rel_gap"],
                    {"prefloor_margin": "2", "predicted_floor": None, "max_abs_gap": None,
                     "max_rel_gap_prefloor": None})}),
    ("tune", ["--m-grid", "4,8"], {
        "tune": (["m", "lambda", "tau", "floor", "samples", "theory_region"],
                 {"target_err": "0.5", "policy": "min-samples-to-target"})}),
    ("tune", ["--m-grid", "4,8", "--budget", "7"], {
        "tune": (["m", "lambda", "tau", "floor", "samples", "theory_region"],
                 {"target_err": "0.5", "policy": "min-samples-to-target", "budget": "7"})}),
], ids=["simulate", "predict", "compare", "tune", "tune-budget"])
def test_artifact_contract(tmp_path, mode, extra, tables, fmt):
    # each table's name, columns and exact metadata keys; the values that
    # come from settings (None: a computed value, not pinned here); and one
    # config hash, the run config's, on every file of the run
    argv = [mode, *_SMALL, *_SETTINGS, *extra, "--format", fmt]
    assert run_cli(tmp_path, *argv) == EXIT_OK
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"run.{kind}.{fmt}" for kind in tables)
    config_hash = config_from_args(_build_parser().parse_args(argv)).config_hash()
    for kind, (columns, values) in tables.items():
        meta, got_columns, _ = read_table(str(tmp_path / f"run.{kind}.{fmt}"))
        assert got_columns == columns, kind
        assert set(meta) == _BASE_KEYS | set(values), kind
        assert {key: meta[key] for key in _BASE_KEYS} == {
            "version": __version__, "mode": mode, "config_hash": config_hash, "seed": "5"}
        assert {key: meta[key] for key, value in values.items() if value is not None} == {
            key: value for key, value in values.items() if value is not None}, kind


def child_env():
    """The environment with this checkout's src first on PYTHONPATH; pytest's
    pythonpath setting reaches this process, not a child interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "proxtune.cli", "predict", "--iters", "2",
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 0
    assert "wrote" in result.stdout


def test_predict_and_tune_do_not_import_scipy(tmp_path):
    # no route imports scipy: only the stochastic step solves a linear
    # system, and it does so with numpy's linalg
    code = "\n".join([
        "import sys",
        "import proxtune.cli as cli",
        "assert 'scipy' not in sys.modules, 'import'",
        # the trial pool loads where it is first used
        "assert 'multiprocessing' not in sys.modules, 'pool'",
        f"assert cli.main(['predict', '--iters', '3', '--out', {str(tmp_path / 'p')!r}]) == 0",
        f"assert cli.main(['tune', '--d', '40', '--m-grid', '4,8', '--iters', '3',"
        f" '--target-err', '0.5', '--out', {str(tmp_path / 't')!r}]) == 0",
        "assert 'scipy' not in sys.modules, 'run'",
        # the config hash takes the builtin SHA-256, not hashlib's OpenSSL
        # binding, and the Legendre rule is a stored table
        "assert '_hashlib' not in sys.modules, 'openssl'",
        "assert 'numpy.polynomial' not in sys.modules, 'legendre'",
    ])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env())
    assert result.returncode == 0, result.stderr


def test_simulate_and_compare_do_not_import_scipy(tmp_path):
    # the prox-linear step solves with numpy's linalg alone, so neither a
    # serial run nor a trial pool loads scipy; the quartiles come from one
    # sort, not np.percentile, whose np.unique loads numpy.ma
    runs = [f"assert cli.main([{command!r}, '--d', '20', '--m', '4', '--iters', '3',"
            f" '--trials', '2', '--parallelism', '{jobs}',"
            f" '--out', {str(tmp_path / f'{command}{jobs}')!r}]) == 0"
            for command in ("simulate", "compare") for jobs in (1, 2)]
    code = "\n".join(["import sys", "import proxtune.cli as cli", *runs,
                      "assert 'scipy' not in sys.modules",
                      "assert 'numpy.ma' not in sys.modules"])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env())
    assert result.returncode == 0, result.stderr
