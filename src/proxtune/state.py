"""Four-dimensional iterate summaries and error metrics.

An iterate pair (mu, nu) is summarized against the unit-norm ground truth by
the quadruple (alpha, beta, talpha, tbeta): overlap with the truth direction
and norm of the orthogonal remainder, per side. All error metrics downstream
are functions of this state alone.
"""

import math
from dataclasses import dataclass

from .errors import NumericalInputError, ValidationError


@dataclass(frozen=True)
class StateVec:
    alpha: float
    beta: float
    talpha: float
    tbeta: float

    def __post_init__(self):
        if self.beta < 0 or self.tbeta < 0:
            raise ValidationError("beta components are norms and must be >= 0")

    @property
    def L(self):
        """Norm of the mu-side iterate implied by the state."""
        return math.hypot(self.alpha, self.beta)

    @property
    def Lt(self):
        """Norm of the nu-side iterate implied by the state."""
        return math.hypot(self.talpha, self.tbeta)


def state_of(mu, nu, gt):
    """Extract the state of (mu, nu) relative to the ground truth."""
    alpha, talpha = float(mu @ gt.mu_star), float(nu @ gt.nu_star)
    r, rt = mu - alpha * gt.mu_star, nu - talpha * gt.nu_star
    # numpy's 2-norm of a real vector is sqrt(x @ x)
    return StateVec(alpha, math.sqrt(r @ r), talpha, math.sqrt(rt @ rt))


def _finite(name, value):
    if not math.isfinite(value):
        raise NumericalInputError(f"error metric {name} = {value} overflows the float range")
    return value


def err_of(s):
    """(alpha*talpha - 1)^2 + beta^2 + tbeta^2, checked finite."""
    try:
        err = (s.alpha * s.talpha - 1.0) ** 2 + s.beta ** 2 + s.tbeta ** 2
    except OverflowError:
        err = math.inf
    return _finite("err", err)


def frob_err(s):
    """||mu nu^T - mu* nu*^T||_F^2 in state s, checked finite: for mu = alpha mu*
    + beta u, nu = talpha nu* + tbeta v (u, v normal to mu*, nu*), the sum of squares
    (alpha talpha - 1)^2 + alpha^2 tbeta^2 + talpha^2 beta^2 + beta^2 tbeta^2."""
    try:
        frob = ((s.alpha * s.talpha - 1.0) ** 2 + s.alpha ** 2 * s.tbeta ** 2
                + s.talpha ** 2 * s.beta ** 2 + s.beta ** 2 * s.tbeta ** 2)
    except OverflowError:
        frob = math.inf
    return _finite("frob_err", frob)
