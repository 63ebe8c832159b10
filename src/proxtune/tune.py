"""Offline (m, lambda) selection from deterministic trajectories only.

The tuner never runs the stochastic method: it sweeps predicted trajectories
over a hyperparameter grid, reads off iteration complexity and error floor
per point, and recommends a point under a stated policy.
"""

import math
from dataclasses import replace
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
    run config at the point's m and lambda0, schedule shape included; the
    points advance in lockstep, in one predict_trajectory call. A point
    whose prediction fails is collected with its PredictionError; a bad
    setting, shared by every point, raises before the first step.
    Returns (results, failures)."""
    s0 = config.initial_state()
    runs = {(m, lam): replace(config, lambda0=lam).lambda_schedule()
            for m, lam in points(config)}
    outcomes = predict_trajectory((s0,) * len(runs), config.iters, config.d,
                                  tuple(m for m, _ in runs), config.sigma, tuple(runs.values()))
    results, failures = {}, {}
    for point, outcome in zip(runs, outcomes):
        (failures if isinstance(outcome, PredictionError) else results)[point] = outcome
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


def build_report(results, target_err):
    """The tune table of a sweep's trajectories: one TuneRow per grid point,
    in (m, lambda) order.

    floor is the minimum predicted error over the horizon (not the final
    value: late schedule decay can make the tail non-monotone); tau is the
    iteration complexity at target_err; samples = m * tau.
    """
    rows = []
    for (m, lam), traj in sorted(results.items()):
        tau = iteration_complexity(traj, target_err)
        rows.append(TuneRow(m=int(m), lam=float(lam), tau=tau,
                            floor=float(traj.err_seq.min()),
                            samples=None if tau is None else int(m) * tau,
                            theory_region=traj.in_region))
    return tuple(rows)


class Policy(NamedTuple):
    key: str  # the TuneRow field the policy minimises
    rationale: str  # what it picks, given the target and the budget
    needs_budget: bool  # a budget is required, and caps tau


POLICIES = {
    "min-samples-to-target": Policy(
        "samples", "fewest total samples m*tau to reach {target:g}", False),
    "min-iterations-to-target": Policy(
        "tau", "fewest iterations to reach {target:g}", False),
    "min-floor-subject-to-iteration-budget": Policy(
        "floor", "smallest floor among points reaching {target:g} "
                 "within {budget} iterations", True),
}


def recommend(rows, target_err, policy, budget=None):
    """Pick one of build_report's rows, at target_err, under the given
    policy; ties break toward smaller m, then smaller lambda. Returns the
    row and the rationale string; a pure function of its arguments."""
    if policy not in POLICIES:
        raise ValidationError(f"unknown policy {policy!r}; choose from {tuple(POLICIES)}")
    if not rows:
        raise ValidationError("empty report")
    key, rationale, needs_budget = POLICIES[policy]
    if needs_budget and budget is None:
        raise ValidationError("this policy requires an iteration budget")
    feasible = [row for row in rows
                if row.tau is not None and (not needs_budget or row.tau <= budget)]
    if not feasible:
        best = min(rows, key=lambda row: (row.floor, row.m, row.lam))
        raise NoFeasiblePointError(
            f"no grid point satisfies policy {policy!r}; best floor "
            f"{best.floor:.3e} at (m={best.m}, lambda={best.lam:g})",
            best_floor=best.floor,
            best_point=(best.m, best.lam),
        )
    pick = min(feasible, key=lambda row: (getattr(row, key), row.m, row.lam))
    return pick, (
        f"{rationale.format(target=target_err, budget=budget)}: (m={pick.m}, "
        f"lambda={pick.lam:g}) with tau={pick.tau}, floor={pick.floor:.3e}, "
        f"samples={pick.samples}"
    )
