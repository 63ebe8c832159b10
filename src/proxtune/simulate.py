"""Stochastic prox-linear iteration and the multi-trial empirical runner.

One step solves the proximally regularized linearized least-squares
subproblem in closed form. With w = X mu, wt = Z nu and A = [diag(wt) X |
diag(w) Z] the stacked m x 2d linearization matrix, the update is

    theta_+ = (A^T A + lam m I)^(-1) (A^T (y + w * wt) + lam m theta).

The inverse is applied through the Woodbury identity, costing one m x m
solve per step for every batch size m <= d. lam m I keeps that system
strictly positive definite, so a Cholesky factorization is used and the
normal-equation residual, which must be finite, is verified on every step.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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
        if self.lambda0 <= 0:
            raise ValidationError("lambda0 must be positive")
        if self.kind == "delayed-linear":
            if self.t0 < 0:
                raise ValidationError("t0 must be nonnegative")
            if self.slope <= 0:
                raise ValidationError("slope must be positive")
        if self.convention not in CONVENTIONS:
            raise ValidationError(f"unknown convention {self.convention!r}")

    @classmethod
    def constant(cls, lambda0):
        return cls(kind="constant", lambda0=lambda0)

    @classmethod
    def delayed_linear(cls, lambda0, t0, slope=1.0, convention="offset"):
        return cls(kind="delayed-linear", lambda0=lambda0, t0=t0,
                   slope=slope, convention=convention)

    def value(self, t):
        if self.kind == "constant" or t <= self.t0:
            return self.lambda0
        growth = self.slope * ((t - self.t0) if self.convention == "offset" else t)
        return self.lambda0 + growth


def as_schedule(lam):
    """Coerce a bare number into a constant schedule."""
    if isinstance(lam, LambdaSchedule):
        return lam
    return LambdaSchedule.constant(float(lam))


def prox_linear_step(mu, nu, batch, lam):
    """One closed-form prox-linear update of (mu, nu) on the given batch,
    through an m x m Woodbury solve. The normal-equation residual is
    checked against RESIDUAL_TOL relative to the right-hand side.
    """
    if lam <= 0:
        raise ValidationError("lambda must be positive")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(nu))):
        raise NumericalInputError("non-finite iterate")
    if not (np.all(np.isfinite(batch.X)) and np.all(np.isfinite(batch.Z))
            and np.all(np.isfinite(batch.y))):
        raise NumericalInputError("non-finite batch data")

    m = batch.y.size
    scale = lam * m
    w = batch.X @ mu
    wt = batch.Z @ nu
    b = batch.y + w * wt
    c_mu = batch.X.T @ (wt * b) + scale * mu
    c_nu = batch.Z.T @ (w * b) + scale * nu

    Ac = wt * (batch.X @ c_mu) + w * (batch.Z @ c_nu)
    K = np.outer(wt, wt) * (batch.X @ batch.X.T) \
        + np.outer(w, w) * (batch.Z @ batch.Z.T)
    K[np.diag_indices_from(K)] += scale
    try:
        s = cho_solve(cho_factor(K), Ac)
    except ValueError as exc:  # LinAlgError, or non-finite entries in K
        raise SingularSystemError(f"Woodbury system solve failed: {exc}") from exc
    mu_plus = (c_mu - batch.X.T @ (wt * s)) / scale
    nu_plus = (c_nu - batch.Z.T @ (w * s)) / scale

    _check_residual(batch, w, wt, b, mu, nu, mu_plus, nu_plus, c_mu, c_nu, scale)
    return mu_plus, nu_plus


def _check_residual(batch, w, wt, b, mu, nu, mu_plus, nu_plus, c_mu, c_nu, scale):
    # (A^T A + scale I) theta_+ - (A^T b + scale theta), matrix-free
    a_theta = wt * (batch.X @ mu_plus) + w * (batch.Z @ nu_plus)
    res_mu = batch.X.T @ (wt * a_theta) + scale * mu_plus - c_mu
    res_nu = batch.Z.T @ (w * a_theta) + scale * nu_plus - c_nu
    res = np.sqrt(res_mu @ res_mu + res_nu @ res_nu)
    rhs = np.sqrt(c_mu @ c_mu + c_nu @ c_nu)
    if not (np.isfinite(res) and np.isfinite(rhs)):
        raise SingularSystemError("normal-equation residual is not finite")
    if res > RESIDUAL_TOL * rhs:
        raise SingularSystemError(
            f"normal-equation residual {res / rhs:.3e} exceeds {RESIDUAL_TOL:g}"
        )


def subproblem_objective(mu, nu, batch, lam, mu_at, nu_at):
    """Objective of the prox subproblem centered at (mu, nu), evaluated at
    (mu_at, nu_at): (1/m)||F + J delta||^2 + lam ||delta||^2."""
    m = batch.y.size
    w = batch.X @ mu
    wt = batch.Z @ nu
    residual = batch.y - w * wt
    d_mu = mu_at - mu
    d_nu = nu_at - nu
    lin = residual - (wt * (batch.X @ d_mu) + w * (batch.Z @ d_nu))
    return float(lin @ lin) / m + lam * (float(d_mu @ d_mu) + float(d_nu @ d_nu))


@dataclass(frozen=True)
class EmpiricalTrajectory:
    """Per-iteration records of one run: states and error metrics."""

    states: tuple
    err: np.ndarray
    frob: np.ndarray


def run_empirical(mu0, nu0, gt, config, seed):
    """Run config.T prox-linear steps from (mu0, nu0), drawing a fresh batch
    per step with lambda from the schedule. Returns T + 1 records. Overflow
    raises no numpy warning: the step's checks stop it with a typed error."""
    if mu0.shape[0] != gt.d:
        raise ValidationError("initialization dimension does not match gt")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    batch_seeds = ss.spawn(config.T) if config.T > 0 else []
    mu = np.array(mu0, dtype=float, copy=True)
    nu = np.array(nu0, dtype=float, copy=True)
    states = [state_of(mu, nu, gt)]
    errs = [err_of(states[0])]
    frobs = [frob_err(mu, nu, gt)]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(config.T):
            lam = config.schedule.value(t)
            try:
                batch = sample_batch(gt, config.m, config.sigma, batch_seeds[t])
                mu, nu = prox_linear_step(mu, nu, batch, lam)
            except ProxtuneError as exc:
                raise SimulationError(t, str(exc)) from exc
            s = state_of(mu, nu, gt)
            states.append(s)
            errs.append(err_of(s))
            frobs.append(frob_err(mu, nu, gt))
    return EmpiricalTrajectory(
        states=tuple(states),
        err=np.array(errs),
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
    """Run independent trials with derived seeds and aggregate Err per t."""
    if n_trials < 1:
        raise ValidationError("n_trials must be >= 1")
    seeds = np.random.SeedSequence(master_seed).spawn(n_trials)
    if n_jobs is not None and n_jobs > 1:
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
