"""Problem check, ground truth, data generation and iterates in a given state.

check_problem is the one check of a problem's dimension d, batch size m and
noise level sigma. Observations follow y_i = <x_i, mu*> <z_i, nu*> + eps_i
with x_i, z_i i.i.d. standard Gaussian in R^d and eps_i ~ N(0, sigma^2),
drawn fresh for every mini-batch (online model). All randomness flows
through explicit seeds; numpy SeedSequences let the runner key batches as
(master seed, trial, iteration) so trials parallelize reproducibly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, ValidationError


def check_problem(d, m, sigma):
    """Reject a dimension, batch size or noise level outside the model."""
    if d < 2:
        raise InvalidDimensionError("d must be at least 2")
    if not 1 <= m <= d:
        raise ValidationError(f"batch size must satisfy 1 <= m <= d; got m={m}, d={d}")
    if not 0 <= sigma < math.inf:
        raise ValidationError("sigma must be nonnegative and finite")


@dataclass(frozen=True)
class GroundTruth:
    """Unit-norm coefficient vectors of the rank-one target mu* nu*^T."""

    mu_star: np.ndarray
    nu_star: np.ndarray

    def __post_init__(self):
        for name, v in (("mu_star", self.mu_star), ("nu_star", self.nu_star)):
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValidationError(f"{name} must have unit norm")
        if self.mu_star.shape != self.nu_star.shape:
            raise ValidationError("mu_star and nu_star must share a dimension")

    @property
    def d(self):
        return int(self.mu_star.shape[0])


@dataclass(frozen=True)
class Batch:
    """One fresh mini-batch: sensing rows X, Z and noisy responses y."""

    X: np.ndarray
    Z: np.ndarray
    y: np.ndarray


def generate_ground_truth(d, seed):
    """Two independent uniformly random unit vectors in R^d (check_problem checks d)."""
    rng = np.random.default_rng(seed)
    return GroundTruth(
        mu_star=_unit(rng.standard_normal(d)),
        nu_star=_unit(rng.standard_normal(d)),
    )


def sample_batch(gt, m, sigma, seed):
    """Draw one batch of m observations; every call consumes fresh seeds."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, gt.d))
    Z = rng.standard_normal((m, gt.d))
    y = (X @ gt.mu_star) * (Z @ gt.nu_star) + sigma * rng.standard_normal(m)
    return Batch(X=X, Z=Z, y=y)


def init_iterates(gt, s0, seed):
    """Construct (mu0, nu0) whose state against gt is exactly the StateVec s0:
    mu0 = alpha mu* + beta u and nu0 = talpha nu* + tbeta v, with u, then v,
    a uniformly random unit vector orthogonal to mu*, nu*.
    """
    rng = np.random.default_rng(seed)
    mu0 = s0.alpha * gt.mu_star + s0.beta * _orthogonal_unit(rng, gt.mu_star)
    nu0 = s0.talpha * gt.nu_star + s0.tbeta * _orthogonal_unit(rng, gt.nu_star)
    return mu0, nu0


def _unit(v):
    return v / np.linalg.norm(v)


def _orthogonal_unit(rng, v):
    # v is unit norm; resampling guards the measure-zero degenerate draw
    for _ in range(16):
        g = rng.standard_normal(v.shape[0])
        g = g - (g @ v) * v
        n = np.linalg.norm(g)
        if n > 1e-12:
            return g / n
    raise ValidationError("failed to draw a direction orthogonal to v")
