"""Problem check, ground truth, data generation and controlled initialization.

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

from .errors import (
    InfeasibleInitializationError,
    InvalidDimensionError,
    NumericalInputError,
    ValidationError,
)


def check_problem(d, m, sigma):
    """Reject a dimension, batch size or noise level outside the model."""
    if d < 2:
        raise InvalidDimensionError("d must be at least 2")
    if not 1 <= m <= d:
        raise ValidationError(f"batch size must satisfy 1 <= m <= d; got m={m}, d={d}")
    if not sigma >= 0:
        raise ValidationError("sigma must be nonnegative")


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


@dataclass(frozen=True)
class InitSpec:
    """Target overlap alpha0 = <mu0, mu*> at the norm ||mu0||, applied
    identically to both factor sides; the achieved state is exact."""

    alpha0: float
    norm: float = 1.0

    @classmethod
    def distance(cls, dist_sq, norm=1.0):
        """The overlap that puts ||mu0 - mu*||^2 at dist_sq for the given norm."""
        if not dist_sq >= 0:
            raise InfeasibleInitializationError("squared distance must be >= 0")
        _check_norm_sq(norm)
        # solve (alpha - 1)^2 + beta^2 = dist_sq with alpha^2 + beta^2 = norm^2
        alpha0 = 0.5 * (1.0 + norm ** 2 - dist_sq)
        if abs(alpha0) > norm * (1.0 + 1e-12):
            raise InfeasibleInitializationError(
                f"distance {dist_sq:g} unreachable at norm {norm:g}"
            )
        return cls(alpha0, norm)

    def state_targets(self):
        """Resolve to (alpha0, beta0); raises if geometrically infeasible."""
        if not self.norm > 0:
            raise InfeasibleInitializationError("target norm must be positive")
        _check_norm_sq(self.norm)
        alpha0 = float(self.alpha0)
        if not abs(alpha0) <= self.norm * (1.0 + 1e-12):
            raise InfeasibleInitializationError(
                f"|alpha0|={abs(alpha0):g} exceeds the target norm {self.norm:g}"
            )
        beta0 = float(np.sqrt(max(0.0, self.norm ** 2 - alpha0 ** 2)))
        return alpha0, beta0


def _check_norm_sq(norm):
    if math.isinf(norm * norm):
        raise NumericalInputError(f"squared target norm overflows at norm={norm:g}")


def init_iterates(gt, spec, seed):
    """Construct (mu0, nu0) hitting the requested state targets exactly.

    mu0 = alpha0 mu* + beta0 u with u a uniformly random unit vector
    orthogonal to mu*; same construction on the nu side.
    """
    alpha0, beta0 = spec.state_targets()
    rng = np.random.default_rng(seed)
    mu0 = alpha0 * gt.mu_star + beta0 * _orthogonal_unit(rng, gt.mu_star)
    nu0 = alpha0 * gt.nu_star + beta0 * _orthogonal_unit(rng, gt.nu_star)
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
