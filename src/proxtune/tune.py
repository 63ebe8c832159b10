"""Offline (m, lambda) selection from deterministic trajectories only.

The tuner never runs the stochastic method: it sweeps predicted trajectories
over a hyperparameter grid, reads off iteration complexity and error floor
per point, and recommends a point under a stated policy.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    NoFeasiblePointError,
    NumericalInputError,
    PredictionError,
    ValidationError,
)
from .model import check_problem
from .predict import predict_trajectory

POLICIES = (
    "min-samples-to-target",
    "min-iterations-to-target",
    "min-floor-subject-to-iteration-budget",
)


def points(config):
    """The (m, lambda) grid of the RunConfig config: config.m_grid (config.m
    when it is empty) crossed with config.lambda_grid, or, when that is
    empty, the coupled rule lambda(m) = (1+sigma^2)d/m, one point per m.
    Every m and lambda is checked here, before any point is swept."""
    m_values = config.m_grid or (config.m,)
    for m in m_values:
        check_problem(config.d, m, config.sigma)
    if not config.lambda_grid:
        # where sigma * sigma * d is inf, sigma ** 2 raises or the rule's lambda is inf
        if math.isinf(config.sigma * config.sigma * config.d):
            raise NumericalInputError("coupled rule lambda = (1 + sigma^2) d / m "
                                      f"overflows at sigma={config.sigma:g}")
        return [(m, (1.0 + config.sigma ** 2) * config.d / m) for m in m_values]
    for lam in config.lambda_grid:
        if not 0 < lam < math.inf:
            raise ValidationError("lambda values must be positive and finite")
    return [(m, float(lam)) for m in m_values for lam in config.lambda_grid]


def sweep(config):
    """One predicted trajectory per grid point of points(config), each the
    run config at the point's m and lambda0, schedule shape included. A
    point whose prediction fails is collected with its PredictionError; a
    bad setting, shared by every point, raises before the first step.
    Returns (results, failures)."""
    s0 = config.initial_state()
    runs = {(m, lam): replace(config, lambda0=lam).lambda_schedule()
            for m, lam in points(config)}
    results, failures = {}, {}
    for (m, lam), schedule in runs.items():
        try:
            results[(m, lam)] = predict_trajectory(
                s0, config.iters, config.d, m, config.sigma, schedule)
        except PredictionError as exc:
            failures[(m, lam)] = exc
    return results, failures


def iteration_complexity(traj, target):
    """First iteration index with predicted error <= target, else None."""
    if target <= 0:
        raise ValidationError("target must be positive")
    hits = np.nonzero(traj.err_seq <= target)[0]
    return int(hits[0]) if hits.size else None


class TuneRow(NamedTuple):
    """One grid point; its fields are the tune table's columns, in order."""

    m: int
    lam: float
    tau: int | None
    floor: float
    samples: int | None
    theory_region: bool


@dataclass(frozen=True)
class TuneReport:
    rows: tuple
    target_err: float


def build_report(results, target_err):
    """Assemble a report from a sweep's trajectories.

    floor is the minimum predicted error over the horizon (not the final
    value: late schedule decay can make the tail non-monotone); tau is the
    iteration complexity at target_err; samples = m * tau.
    """
    rows = []
    for (m, lam), traj in sorted(results.items()):
        tau = iteration_complexity(traj, target_err)
        rows.append(TuneRow(
            m=int(m),
            lam=float(lam),
            tau=tau,
            floor=float(traj.err_seq.min()),
            samples=None if tau is None else int(m) * tau,
            theory_region=traj.in_region,
        ))
    return TuneReport(rows=tuple(rows), target_err=float(target_err))


@dataclass(frozen=True)
class Recommendation:
    m: int
    lam: float
    rationale: str


def recommend(report, policy, budget=None):
    """Pick a grid point under the given policy; ties break toward smaller
    m, then smaller lambda. Pure function of the report."""
    if policy not in POLICIES:
        raise ValidationError(f"unknown policy {policy!r}; choose from {POLICIES}")
    if not report.rows:
        raise ValidationError("empty report")

    reached = [row for row in report.rows if row.tau is not None]
    if policy == "min-floor-subject-to-iteration-budget":
        if budget is None:
            raise ValidationError("this policy requires an iteration budget")
        feasible = [row for row in reached if row.tau <= budget]
        key = lambda row: (row.floor, row.m, row.lam)
        what = f"smallest floor among points reaching {report.target_err:g} within {budget} iterations"
    elif policy == "min-samples-to-target":
        feasible = reached
        key = lambda row: (row.samples, row.m, row.lam)
        what = f"fewest total samples m*tau to reach {report.target_err:g}"
    else:
        feasible = reached
        key = lambda row: (row.tau, row.m, row.lam)
        what = f"fewest iterations to reach {report.target_err:g}"

    if not feasible:
        best = min(report.rows, key=lambda row: (row.floor, row.m, row.lam))
        raise NoFeasiblePointError(
            f"no grid point satisfies policy {policy!r}; best floor "
            f"{best.floor:.3e} at (m={best.m}, lambda={best.lam:g})",
            best_floor=best.floor,
            best_point=(best.m, best.lam),
        )
    pick = min(feasible, key=key)
    rationale = (
        f"{what}: (m={pick.m}, lambda={pick.lam:g}) with tau={pick.tau}, "
        f"floor={pick.floor:.3e}, samples={pick.samples}"
    )
    return Recommendation(m=pick.m, lam=pick.lam, rationale=rationale)
