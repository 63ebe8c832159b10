"""Stochastic prox-linear iteration and the multi-trial empirical runner.

One step solves the proximally regularized linearized least-squares
subproblem in closed form. With w = X mu, wt = Z nu and A = [diag(wt) X |
diag(w) Z] the stacked m x 2d linearization matrix, the update is

    theta_+ = (A^T A + lam m I)^(-1) (A^T (y + w * wt) + lam m theta).

A theta = 2 w * wt, so through the Woodbury identity this is theta_+ =
theta + A^T K^(-1) (y - w * wt) with K = A A^T + lam m I, one m x m solve
per step for every batch size m <= d. lam m I keeps K strictly positive
definite, and numpy's Cholesky factorization is the check that it is;
numpy's solve then gives K^(-1) (y - w * wt). Every step checks that lambda
is positive, that the iterate, batch, system, right-hand side and factor
are finite, that the factorization succeeds, and that the normal-equation
residual is finite and within RESIDUAL_TOL of the right-hand side.
"""

import math
import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    NumericalInputError,
    ProxtuneError,
    SimulationError,
    SingularSystemError,
    ValidationError,
)
from .model import check_problem, generate_ground_truth, init_iterates, sample_batch
from .state import err_of, frob_err, state_of

RESIDUAL_TOL = 1e-8


def prox_linear_step(mu, nu, batch, lam):
    """One closed-form prox-linear update of (mu, nu) on the given batch,
    through an m x m Woodbury solve, with every check the module names."""
    if not lam > 0:
        raise ValidationError("lambda must be positive")
    if not (np.isfinite(mu).all() and np.isfinite(nu).all()):
        raise NumericalInputError("non-finite iterate")
    if not (np.isfinite(batch.X).all() and np.isfinite(batch.Z).all()
            and np.isfinite(batch.y).all()):
        raise NumericalInputError("non-finite batch data")

    m = batch.y.size
    scale = lam * m
    w = batch.X @ mu
    wt = batch.Z @ nu
    A = np.hstack((wt[:, None] * batch.X, w[:, None] * batch.Z))
    theta = np.concatenate((mu, nu))
    r = batch.y - w * wt
    K = A @ A.T
    K.flat[::m + 1] += scale
    finite = np.isfinite(K).all()
    if finite:
        try:
            factor = np.linalg.cholesky(K)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"Woodbury system solve failed: {exc}") from exc
        finite = np.isfinite(r).all() and np.isfinite(factor).all()
    if not finite:
        raise SingularSystemError(
            "Woodbury system solve failed: array must not contain infs or NaNs")
    theta_plus = theta + A.T @ np.linalg.solve(K, r)

    _check_residual(A, theta_plus, A.T @ (batch.y + w * wt) + scale * theta, scale)
    d = mu.size
    return theta_plus[:d], theta_plus[d:]


def _check_residual(A, theta_plus, rhs, scale):
    # (A^T A + scale I) theta_+ - (A^T b + scale theta)
    res = A.T @ (A @ theta_plus) + scale * theta_plus - rhs
    res_norm = math.sqrt(res @ res)
    rhs_norm = math.sqrt(rhs @ rhs)
    if not (math.isfinite(res_norm) and math.isfinite(rhs_norm)):
        raise SingularSystemError("normal-equation residual is not finite")
    if res_norm > RESIDUAL_TOL * rhs_norm:
        raise SingularSystemError(
            f"normal-equation residual {res_norm / rhs_norm:.3e} exceeds {RESIDUAL_TOL:g}"
        )


@dataclass(frozen=True)
class EmpiricalTrajectory:
    """Per-iteration records of one run: states, one (alpha, beta, talpha,
    tbeta) row per record, and error metrics."""

    states: np.ndarray
    err: np.ndarray
    frob: np.ndarray


def run_empirical(mu0, nu0, gt, config, seed):
    """Run config.iters prox-linear steps of the RunConfig config (its m,
    sigma and lambda_schedule()) from (mu0, nu0), drawing a fresh batch per
    step from that step's child of the SeedSequence seed (spawn key
    seed.spawn_key + (t,)). Returns iters + 1 records. Overflow raises no
    numpy warning: the step's checks stop it with a typed error."""
    if mu0.shape[0] != gt.d:
        raise ValidationError("initialization dimension does not match gt")
    mu = np.array(mu0, dtype=float, copy=True)
    nu = np.array(nu0, dtype=float, copy=True)
    T, schedule = config.iters, config.lambda_schedule()
    states = np.empty((T + 1, 4))
    err, frob = np.empty(T + 1), np.empty(T + 1)

    def record(t):
        s = state_of(mu, nu, gt)
        states[t] = s.alpha, s.beta, s.talpha, s.tbeta
        err[t] = err_of(s)
        frob[t] = frob_err(mu, nu, gt)

    try:
        record(0)
    except NumericalInputError as exc:
        raise SimulationError(0, str(exc)) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            lam = schedule(t)
            try:
                batch = sample_batch(gt, config.m, config.sigma, seed.spawn(1)[0])
                mu, nu = prox_linear_step(mu, nu, batch, lam)
                record(t + 1)
            except ProxtuneError as exc:
                raise SimulationError(t, str(exc)) from exc
    return EmpiricalTrajectory(states=states, err=err, frob=frob)


def _run_one_trial(config, trial_seed):
    # fresh ground truth and orthogonal directions per trial; the initial
    # state itself is the config's initial_state()
    gt_ss, init_ss, run_ss = trial_seed.spawn(3)
    gt = generate_ground_truth(config.d, gt_ss)
    mu0, nu0 = init_iterates(gt, config.initial_state(), init_ss)
    return run_empirical(mu0, nu0, gt, config, run_ss)


@dataclass(frozen=True)
class TrialsResult:
    """Independent trials plus per-iteration median and quartiles of Err."""

    trajectories: tuple
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray


def quartiles(errs):
    """Rows q25, median and q75 of each column of the NaN-free errs, by
    numpy's default linear rule, equal to np.percentile(errs, [25, 50, 75],
    axis=0) but from one sort and without the np.unique that imports
    numpy.ma: at v = (n - 1) q between the sorted a = s[lo] and
    b = s[lo + 1], a + (b - a) g below g = v - lo = 0.5 and
    b - (b - a)(1 - g) from there on."""
    s = np.sort(errs, axis=0)
    n = s.shape[0]
    rows = []
    for q in (0.25, 0.5, 0.75):
        v = (n - 1) * q
        lo = math.floor(v)
        g = v - lo
        a, b = s[lo], s[min(lo + 1, n - 1)]
        rows.append(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)
    return np.array(rows)


def run_trials(config):
    """Run config.trials independent trials of the RunConfig config, seeded
    from config.seed, and aggregate Err per t. They run on config.parallelism
    workers (0 = all cores), at most one per CPU and one per trial, and in
    this process when that is one."""
    config.lambda_schedule(), config.initial_state()  # their checks, before any trial
    check_problem(config.d, config.m, config.sigma)
    if config.iters < 0:
        raise ValidationError("iters must be nonnegative")
    if config.trials < 1:
        raise ValidationError("trials must be >= 1")
    seeds = np.random.SeedSequence(config.seed).spawn(config.trials)
    cpus = os.cpu_count() or 1
    # a forked pool starts all its workers at once
    n_jobs = min(config.parallelism or cpus, cpus, config.trials)
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs never load it
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            trajectories = tuple(pool.map(_run_one_trial, repeat(config), seeds))
    else:
        trajectories = tuple(_run_one_trial(config, s) for s in seeds)
    q25, median, q75 = quartiles(np.vstack([tr.err for tr in trajectories]))
    return TrialsResult(
        trajectories=trajectories,
        median=median,
        q25=q25,
        q75=q75,
    )
