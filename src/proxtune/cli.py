"""Command-line surface: simulate | predict | compare | tune.

Every run is driven by one ``RunConfig``. Each of its fields is a key of the
flat key = value config file and a flag (``--`` plus the field name with
``_`` as ``-``; ``lambda0`` is ``--lambda``); the field's annotation gives
the value parser, and its metadata the help text and any allowed choices.
Flags override the config file. Every run emits CSV or JSON tables carrying
a metadata block (config hash, seed, tool version), so any artifact can be
reproduced from its own header. Numbers are serialized with 17 significant
digits for lossless double round-trips.
"""

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from typing import get_args, get_origin

import numpy as np

try:  # CPython's builtin SHA-256, as stdlib random takes sha512; hashlib loads OpenSSL
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .errors import (
    InfeasibleInitializationError,
    NoFeasiblePointError,
    NonConvergenceError,
    NumericalInputError,
    ProxtuneError,
    ValidationError,
)
from .predict import predict_trajectory
from .simulate import run_trials
from .state import StateVec
from .tune import POLICIES, build_report, recommend, sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NO_FEASIBLE = 4
# tokens a subcommand reads as values: argparse's own pattern misses -1e-3, -inf, -5,20
NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
SCHEDULES = ("constant", "delayed-linear")
CONVENTIONS = ("offset", "absolute")


def _setting(default, help=None, choices=None, flag=None):
    metadata = {"help": help, "choices": choices}
    if flag is not None:
        metadata["flag"] = flag
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run; the one declaration of each flag and key.
    simulate.run_trials and tune.sweep read it as it is."""

    mode: str = "predict"
    d: int = 200
    m: int = 32
    sigma: float = 0.0
    lambda0: float = _setting(100.0, "inverse step-size lambda0", flag="--lambda")
    schedule: str = _setting("constant", choices=SCHEDULES)
    t0: int = 0
    slope: float = 1.0
    convention: str = _setting("offset", "delayed-linear growth convention",
                               choices=CONVENTIONS)
    iters: int = _setting(1000, "iteration horizon T")
    trials: int = 30
    seed: int = 0
    alpha0: float | None = _setting(0.99, "target initial overlap")
    init_dist: float | None = _setting(
        None, "target squared initial distance (distance mode)")
    init_norm: float = 1.0
    out: str = _setting("run", "output base path")
    format: str = _setting("csv", choices=("csv", "json"))
    parallelism: int = _setting(
        0, "trial workers, at most the CPU count (default 0 = all cores)")
    target_err: float = 1e-8
    policy: str = _setting("min-iterations-to-target", choices=tuple(POLICIES))
    budget: int | None = _setting(None, "iteration budget for the floor policy")
    m_grid: tuple[int, ...] = _setting((), "comma-separated batch sizes for tune")
    lambda_grid: tuple[float, ...] = _setting(
        (), "comma-separated lambdas for tune (omit for the coupled rule)")
    prefloor_margin: float = _setting(
        1.5, "floor multiple bounding the pre-floor phase in compare")

    def to_text(self):
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {_format_value(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        parsers = {f.name: _parser(f.type) for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"config line {lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in parsers:
                raise ValidationError(f"config line {lineno}: unknown key {key!r}")
            try:
                values[key] = parsers[key](val)
            except ValueError as exc:
                raise ValidationError(f"config line {lineno}: {key}: {exc}") from exc
        return cls(**values)

    def config_hash(self):
        # hash what is computed, not where it is written
        lines = [line for line in self.to_text().splitlines()
                 if not line.startswith(("out ", "format "))]
        return sha256("\n".join(lines).encode()).hexdigest()[:12]

    def lambda_schedule(self):
        """The run's schedule t -> lambda_t (lambda_at), once lambda0 and, for
        a delayed-linear schedule, t0 and slope are checked."""
        if not 0 < self.lambda0 < math.inf:
            raise ValidationError("lambda0 must be positive and finite")
        if self.schedule == "delayed-linear":
            if self.t0 < 0:
                raise ValidationError("t0 must be nonnegative")
            if not 0 < self.slope < math.inf:
                raise ValidationError("slope must be positive and finite")
        return self.lambda_at

    def lambda_at(self, t):
        """Inverse step size lambda_t. constant: lambda0 for all t.
        delayed-linear: lambda0 up to and including t0, then growing with
        slope: slope*(t - t0) under the "offset" convention (continuous at
        t0) or slope*t under "absolute" (jumps at t0 + 1)."""
        if self.schedule == "constant" or t <= self.t0:
            return self.lambda0
        growth = self.slope * ((t - self.t0) if self.convention == "offset" else t)
        return self.lambda0 + growth

    def initial_state(self):
        """The state (a0, b0, a0, b0) at norm init_norm, b0 >= 0: overlap
        a0 = alpha0, or, when init_dist is set, the a0 that puts
        ||mu0 - mu*||^2 at init_dist. Raises if it is geometrically infeasible."""
        norm, dist_sq = self.init_norm, self.init_dist
        if dist_sq is None and self.alpha0 is None:
            raise ValidationError("either alpha0 or init_dist must be set")
        if dist_sq is not None and not dist_sq >= 0:
            raise InfeasibleInitializationError("squared distance must be >= 0")
        if not 0 < norm < math.inf:
            raise InfeasibleInitializationError("target norm must be positive and finite")
        if not 0.0 < norm * norm < math.inf:
            way = "overflows" if norm > 1.0 else "underflows to 0"
            raise NumericalInputError(f"squared target norm {way} at norm={norm:g}")
        if dist_sq is None:
            a0 = float(self.alpha0)
            why = f"|alpha0|={abs(a0):g} exceeds the target norm {norm:g}"
        else:
            # solve (a0 - 1)^2 + b0^2 = dist_sq with a0^2 + b0^2 = norm^2
            a0 = 0.5 * (1.0 + norm ** 2 - dist_sq)
            why = f"distance {dist_sq:g} unreachable at norm {norm:g}"
        if not abs(a0) <= norm * (1.0 + 1e-12):
            raise InfeasibleInitializationError(why)
        # scaled by norm, so no square over- or underflows; |a0| may pass norm by 1e-12
        b0 = norm * math.sqrt(max(0.0, 1.0 - (min(abs(a0), norm) / norm) ** 2))
        return StateVec(a0, b0, a0, b0)


def _format_value(v):
    if v is None:
        return "none"
    if isinstance(v, tuple):
        return ",".join(_format_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parser(annotation):
    """Text parser for a field annotated X, X | None (``none`` is None) or
    tuple[X, ...] (comma-separated); the inverse of _format_value."""
    args = get_args(annotation)
    if get_origin(annotation) is tuple:
        parse = lambda s: tuple(args[0](x) for x in s.split(",") if x.strip())
        parse.__name__ = f"{args[0].__name__} list"  # argparse's error message
    elif type(None) in args:
        parse = lambda s: None if s.lower() == "none" else args[0](s)
        parse.__name__ = f"{args[0].__name__} or none"
    else:
        parse = annotation
    return parse


def _validate_config(config):
    for f in fields(config):
        value, choices = getattr(config, f.name), f.metadata.get("choices")
        if choices and value not in choices:
            raise ValidationError(f"{f.name} must be one of {choices}; got {value!r}")
    if not config.prefloor_margin >= 1.0:
        raise ValidationError("prefloor_margin must be >= 1")
    if not config.target_err > 0:
        raise ValidationError("target_err must be positive")
    if config.budget is not None and config.budget < 0:
        raise ValidationError("budget must be nonnegative")
    if (config.mode == "tune" and config.budget is None
            and POLICIES[config.policy].needs_budget):
        raise ValidationError(f"policy {config.policy!r} requires an iteration budget")
    if config.seed < 0:
        raise ValidationError("seed must be nonnegative")
    if config.parallelism < 0:
        raise ValidationError("parallelism must be nonnegative (0 = all cores)")
    if not isinstance(config.out, str) or config.out == "--":  # argparse: --out=-- is []
        raise ValidationError("out must be a path base other than '--'")
    return config


# ---------------------------------------------------------------------------
# table emission

def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _json_value(v):
    # RFC 8259 has no inf or nan: those cells carry their CSV spelling
    if v is None:
        return None
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return int(v)
    return float(v) if math.isfinite(v) else _cell(v)


def write_table(path, columns, rows, metadata, fmt):
    """Emit one table with its metadata block as CSV or JSON."""
    if fmt == "csv":
        with open(path, "w") as fh:
            for key in sorted(metadata):
                fh.write(f"# {key} = {metadata[key]}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_cell(v) for v in row) + "\n")
    else:
        doc = {
            "metadata": {k: str(v) for k, v in sorted(metadata.items())},
            "columns": list(columns),
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, allow_nan=False)
            fh.write("\n")


def read_table(path):
    """Parse a table written by write_table. Cells come back as they were
    written: integers (and bools) as ints, other numbers as floats and empty
    cells as None; a JSON cell spelled "inf", "-inf" or "nan" is that float.
    A CSV float cell with an integral value (1.0 is written 1) reads as the
    equal int."""
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        rows = [[float(v) if isinstance(v, str) else v for v in row] for row in doc["rows"]]
        return doc["metadata"], doc["columns"], rows
    metadata = {}
    columns = None
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                metadata[key.strip()] = val.strip()
                continue
            if columns is None:
                columns = line.split(",")
                continue
            rows.append([None if cell == "" else int(cell) if cell.lstrip("-").isdigit()
                         else float(cell) for cell in line.split(",")])
    return metadata, columns or [], rows


def _emit(config, kind, columns, rows, **extra):
    """Write one table of the run to ``<out>.<kind>.<format>`` under the run's
    metadata block (version, mode, config hash, seed) and the extra entries
    that are not None, then name it on stdout: a run that fails later still
    names every file it leaves."""
    path = f"{config.out}.{kind}.{config.format}"
    metadata = {"version": __version__, "mode": config.mode,
                "config_hash": config.config_hash(), "seed": config.seed}
    metadata.update((key, value) for key, value in extra.items() if value is not None)
    write_table(path, columns, rows, metadata, config.format)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(config):
    """Multi-trial empirical run: per-trial records plus the aggregate."""
    result = run_trials(config)
    trial_rows = [[t, k, *state, err, frob] for k, tr in enumerate(result.trajectories)
                  for t, (state, err, frob) in enumerate(zip(
                      tr.states.tolist(), tr.err.tolist(), tr.frob.tolist()))]
    _emit(config, "trials",
          ["t", "trial", "alpha", "beta", "talpha", "tbeta", "err", "frob_err"],
          trial_rows, trials=config.trials)
    agg_rows = [[t, result.median[t], result.q25[t], result.q75[t]]
                for t in range(config.iters + 1)]
    _emit(config, "aggregate", ["t", "median_err", "q25_err", "q75_err"], agg_rows,
          trials=config.trials)
    return result


def cmd_predict(config):
    """Deterministic trajectory; no randomness consumed."""
    traj = predict_trajectory(config.initial_state(), config.iters, config.d,
                              config.m, config.sigma, config.lambda_schedule())
    rows = [[t, *state, err, flag]
            for t, (state, err, flag) in enumerate(zip(traj.states.tolist(),
                                                       traj.err_seq.tolist(),
                                                       traj.theory_region.tolist()))]
    _emit(config, "predict",
          ["t", "alpha", "beta", "talpha", "tbeta", "err_seq", "theory_region"], rows)
    return traj


def compare_series(median, err_seq):
    """Gap statistics between the empirical median and the prediction (float arrays).

    rel_gap_t = |median_t - err_seq_t| / err_seq_t, read as 0 where both are
    0 and inf where only err_seq_t is. floor is the minimum predicted error
    over the horizon; compare uses it to mark the pre-floor phase."""
    abs_gap = np.abs(median - err_seq)
    floor = float(err_seq.min())
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_gap = np.where(err_seq > 0.0, abs_gap / np.where(err_seq > 0, err_seq, 1.0),
                           np.where(abs_gap == 0.0, 0.0, np.inf))
    return abs_gap, rel_gap, floor


def cmd_compare(config):
    """Run both engines on one config and report per-iteration deviations."""
    trials = cmd_simulate(replace(config, out=config.out + ".emp"))
    traj = cmd_predict(replace(config, out=config.out + ".det"))
    abs_gap, rel_gap, floor = compare_series(trials.median, traj.err_seq)
    prefloor = traj.err_seq > config.prefloor_margin * floor
    max_rel_prefloor = float(rel_gap[prefloor].max()) if prefloor.any() else 0.0
    rows = [[t, trials.median[t], traj.err_seq[t], abs_gap[t], rel_gap[t]]
            for t in range(config.iters + 1)]
    _emit(config, "compare", ["t", "median_emp", "err_seq", "abs_gap", "rel_gap"], rows,
          predicted_floor=_cell(floor), max_abs_gap=_cell(float(abs_gap.max())),
          max_rel_gap_prefloor=_cell(max_rel_prefloor),
          prefloor_margin=_cell(config.prefloor_margin))
    print(f"max relative gap before the floor (margin {config.prefloor_margin:g}x): "
          f"{max_rel_prefloor:.4g}")


def cmd_tune(config):
    """Sweep the grid with deterministic trajectories and recommend."""
    results, failures = sweep(config)
    for point, exc in sorted(failures.items()):
        print(f"warning: grid point (m={point[0]}, lambda={point[1]:g}) "
              f"failed: {exc}", file=sys.stderr)
    if not results:
        raise NonConvergenceError("every grid point failed to predict")

    rows = build_report(results, config.target_err)
    _emit(config, "tune", ["m", "lambda", "tau", "floor", "samples", "theory_region"],
          rows, target_err=_cell(config.target_err), policy=config.policy,
          budget=config.budget)
    row, rationale = recommend(rows, config.target_err, config.policy, budget=config.budget)
    print(f"recommendation: m={row.m} lambda={row.lam:g} ({rationale})")


# each subcommand once, in --help order: the function main runs, its help line
COMMANDS = {
    "simulate": (cmd_simulate, "run empirical trials and emit trajectories + aggregate"),
    "predict": (cmd_predict, "emit the deterministic trajectory prediction"),
    "compare": (cmd_compare, "run both engines and emit per-iteration deviations"),
    "tune": (cmd_tune, "sweep an (m, lambda) grid offline and recommend"),
}


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser():
    # unset flags stay out of the namespace, so an explicit none overrides
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", default=None,
                        help="flat key = value config file; flags override it")
    for f in fields(RunConfig):
        if f.name == "mode":  # the subcommand
            continue
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        common.add_argument(flag, dest=f.name, type=_parser(f.type),
                            choices=f.metadata.get("choices"),
                            help=f.metadata.get("help"))

    parser = argparse.ArgumentParser(
        prog="proxtune",
        description="Simulate, predict and tune the mini-batched stochastic "
                    "prox-linear method for rank-one matrix sensing.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, help) in COMMANDS.items():
        sub.add_parser(mode, parents=[common], help=help)._negative_number_matcher = NUMBER
    return parser


def config_from_args(args):
    overrides = vars(args).copy()
    path = overrides.pop("config")
    if path:
        with open(path) as fh:
            config = RunConfig.from_text(fh.read())
    else:
        config = RunConfig()
    return _validate_config(replace(config, **overrides))


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        COMMANDS[config.mode][0](config)
        return EXIT_OK
    except NoFeasiblePointError as exc:
        print(f"no feasible point: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ProxtuneError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
