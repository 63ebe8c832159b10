"""Stochastic prox-linear iteration and the multi-trial empirical runner.

One step solves the proximally regularized linearized least-squares
subproblem in closed form. With w = X mu, wt = Z nu and A = [diag(wt) X |
diag(w) Z] the stacked m x 2d linearization matrix, the update is

    theta_+ = (A^T A + lam m I)^(-1) (A^T (y + w * wt) + lam m theta).

The inverse is applied through the Woodbury identity, costing one m x m
solve per step for every batch size m <= d. lam m I keeps that system
strictly positive definite, so it is solved by LAPACK's dpotrf and dpotrs,
called as scipy's cho_factor and cho_solve call them, with their checks and
messages. The system is exactly symmetric, so dpotrf factors its transpose,
a Fortran-ordered view, in place. scipy is imported at the first step or
before a trial pool forks, so predict and tune never load it. Every step
checks that lambda is positive, that the iterate, batch, system and factor
are finite, that the factorization succeeds, and that the normal-equation
residual is finite and within RESIDUAL_TOL of the right-hand side.
"""

import math
from dataclasses import dataclass
from functools import cache
from itertools import repeat

import numpy as np

from .errors import (
    NumericalInputError,
    ProxtuneError,
    SimulationError,
    SingularSystemError,
    ValidationError,
)
from .model import InitSpec, check_problem, generate_ground_truth, init_iterates, sample_batch
from .state import err_of, frob_err, state_of

RESIDUAL_TOL = 1e-8

SCHEDULES = ("constant", "delayed-linear")
CONVENTIONS = ("offset", "absolute")


@dataclass(frozen=True)
class LambdaSchedule:
    """Inverse step-size schedule lambda_t > 0.

    constant: lambda_t = lambda0 for all t. delayed-linear: lambda0 up to
    and including t0, then growing with the given slope. Growth is
    slope*(t - t0) under the "offset" convention (continuous at t0) or
    slope*t under "absolute" (jumps at t0 + 1).
    """

    kind: str = "constant"
    lambda0: float = 100.0
    t0: int = 0
    slope: float = 1.0
    convention: str = "offset"

    def __post_init__(self):
        if self.kind not in SCHEDULES:
            raise ValidationError(f"unknown schedule kind {self.kind!r}")
        if not self.lambda0 > 0:
            raise ValidationError("lambda0 must be positive")
        if self.kind == "delayed-linear":
            if self.t0 < 0:
                raise ValidationError("t0 must be nonnegative")
            if not self.slope > 0:
                raise ValidationError("slope must be positive")
        if self.convention not in CONVENTIONS:
            raise ValidationError(f"unknown convention {self.convention!r}")

    def value(self, t):
        if self.kind == "constant" or t <= self.t0:
            return self.lambda0
        growth = self.slope * ((t - self.t0) if self.convention == "offset" else t)
        return self.lambda0 + growth


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
    b = batch.y + w * wt
    c_mu = batch.X.T @ (wt * b) + scale * mu
    c_nu = batch.Z.T @ (w * b) + scale * nu

    Ac = wt * (batch.X @ c_mu) + w * (batch.Z @ c_nu)
    K = wt[:, None] * wt * (batch.X @ batch.X.T) + w[:, None] * w * (batch.Z @ batch.Z.T)
    K.flat[::m + 1] += scale
    potrf, potrs = _lapack_cholesky()
    finite = np.isfinite(K).all()
    if finite:
        U, info = potrf(K.T, lower=0, overwrite_a=1, clean=0)
        if info > 0:
            raise SingularSystemError(f"Woodbury system solve failed: {info}-th leading "
                                      "minor of the array is not positive definite")
        finite = np.isfinite(Ac).all() and np.isfinite(U).all()
    if not finite:
        raise SingularSystemError(
            "Woodbury system solve failed: array must not contain infs or NaNs")
    s = potrs(U, Ac, lower=0, overwrite_b=1)[0]
    mu_plus = (c_mu - batch.X.T @ (wt * s)) / scale
    nu_plus = (c_nu - batch.Z.T @ (w * s)) / scale

    _check_residual(batch, w, wt, mu_plus, nu_plus, c_mu, c_nu, scale)
    return mu_plus, nu_plus


@cache
def _lapack_cholesky():
    from scipy.linalg.lapack import dpotrf, dpotrs
    return dpotrf, dpotrs


def _check_residual(batch, w, wt, mu_plus, nu_plus, c_mu, c_nu, scale):
    # (A^T A + scale I) theta_+ - (A^T b + scale theta), matrix-free
    a_theta = wt * (batch.X @ mu_plus) + w * (batch.Z @ nu_plus)
    res_mu = batch.X.T @ (wt * a_theta) + scale * mu_plus - c_mu
    res_nu = batch.Z.T @ (w * a_theta) + scale * nu_plus - c_nu
    res = math.sqrt(res_mu @ res_mu + res_nu @ res_nu)
    rhs = math.sqrt(c_mu @ c_mu + c_nu @ c_nu)
    if not (math.isfinite(res) and math.isfinite(rhs)):
        raise SingularSystemError("normal-equation residual is not finite")
    if res > RESIDUAL_TOL * rhs:
        raise SingularSystemError(
            f"normal-equation residual {res / rhs:.3e} exceeds {RESIDUAL_TOL:g}"
        )


@dataclass(frozen=True)
class EmpiricalTrajectory:
    """Per-iteration records of one run: states and error metrics."""

    states: tuple
    err: np.ndarray
    frob: np.ndarray


def run_empirical(mu0, nu0, gt, config, seed):
    """Run config.T prox-linear steps from (mu0, nu0), drawing a fresh batch
    per step from that step's child of the SeedSequence seed, with lambda
    from the schedule. Returns T + 1 records. Overflow raises no numpy
    warning: the step's checks stop it with a typed error."""
    if mu0.shape[0] != gt.d:
        raise ValidationError("initialization dimension does not match gt")
    batch_seeds = seed.spawn(config.T)
    mu = np.array(mu0, dtype=float, copy=True)
    nu = np.array(nu0, dtype=float, copy=True)
    states = [state_of(mu, nu, gt)]
    frobs = [frob_err(mu, nu, gt)]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(config.T):
            lam = config.schedule.value(t)
            try:
                batch = sample_batch(gt, config.m, config.sigma, batch_seeds[t])
                mu, nu = prox_linear_step(mu, nu, batch, lam)
            except ProxtuneError as exc:
                raise SimulationError(t, str(exc)) from exc
            states.append(state_of(mu, nu, gt))
            frobs.append(frob_err(mu, nu, gt))
    return EmpiricalTrajectory(
        states=tuple(states),
        err=np.array([err_of(s) for s in states]),
        frob=np.array(frobs),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one trial needs: problem, schedule, init targets, horizon."""

    d: int
    m: int
    sigma: float
    schedule: LambdaSchedule
    init: InitSpec
    T: int

    def __post_init__(self):
        check_problem(self.d, self.m, self.sigma)
        if self.T < 0:
            raise ValidationError("T must be nonnegative")


def _run_one_trial(config, trial_seed):
    # fresh ground truth and orthogonal directions per trial; the initial
    # state itself is deterministic by construction
    gt_ss, init_ss, run_ss = trial_seed.spawn(3)
    gt = generate_ground_truth(config.d, gt_ss)
    mu0, nu0 = init_iterates(gt, config.init, init_ss)
    return run_empirical(mu0, nu0, gt, config, run_ss)


@dataclass(frozen=True)
class TrialsResult:
    """Independent trials plus per-iteration median and quartiles of Err."""

    trajectories: tuple
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray


def run_trials(config, n_trials, master_seed, n_jobs=1):
    """Run independent trials with derived seeds and aggregate Err per t, on
    at most n_trials workers (in this process when that is one)."""
    if n_trials < 1:
        raise ValidationError("n_trials must be >= 1")
    seeds = np.random.SeedSequence(master_seed).spawn(n_trials)
    n_jobs = min(n_jobs, n_trials)  # a forked pool starts all its workers at once
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs never load it

        _lapack_cholesky()  # forked workers inherit scipy rather than each importing it
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            trajectories = tuple(pool.map(_run_one_trial, repeat(config), seeds))
    else:
        trajectories = tuple(_run_one_trial(config, s) for s in seeds)
    errs = np.vstack([tr.err for tr in trajectories])
    q25, median, q75 = np.percentile(errs, [25.0, 50.0, 75.0], axis=0)
    return TrialsResult(
        trajectories=trajectories,
        median=median,
        q25=q25,
        q75=q75,
    )
