"""Four-dimensional iterate summaries and error metrics.

An iterate pair (mu, nu) is summarized against the unit-norm ground truth by
the quadruple (alpha, beta, talpha, tbeta): overlap with the truth direction
and norm of the orthogonal remainder, per side. All error metrics downstream
are functions of this state alone.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ValidationError


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

    def as_tuple(self):
        return (self.alpha, self.beta, self.talpha, self.tbeta)


def state_of(mu, nu, gt):
    """Extract the state of (mu, nu) relative to the ground truth."""
    alpha, talpha = float(mu @ gt.mu_star), float(nu @ gt.nu_star)
    r, rt = mu - alpha * gt.mu_star, nu - talpha * gt.nu_star
    # numpy's 2-norm of a real vector is sqrt(x @ x)
    return StateVec(alpha, math.sqrt(r @ r), talpha, math.sqrt(rt @ rt))


def err_of(s):
    """(alpha*talpha - 1)^2 + beta^2 + tbeta^2."""
    return (s.alpha * s.talpha - 1.0) ** 2 + s.beta ** 2 + s.tbeta ** 2


def frob_err(mu, nu, gt):
    """||mu nu^T - mu* nu*^T||_F^2 without forming d x d matrices."""
    return (
        float(mu @ mu) * float(nu @ nu)
        - 2.0 * float(mu @ gt.mu_star) * float(nu @ gt.nu_star)
        + 1.0
    )


def state_frob_err(s):
    """Same Frobenius error, written out from the state alone."""
    return (
        (s.alpha * s.talpha - 1.0) ** 2
        + s.alpha ** 2 * s.tbeta ** 2
        + s.talpha ** 2 * s.beta ** 2
        + s.beta ** 2 * s.tbeta ** 2
    )


class SandwichResult(NamedTuple):
    applicable: bool
    within_band: bool | None
    ratio: float


def sandwich_check(s, frob):
    """Check frob/5 <= err_of(s) <= 12.5*frob and report err/frob.

    The two-sided bound only holds under the geometric hypotheses
    beta, tbeta <= 0.1 and 0.3 <= L, Lt <= 1.7; outside them the result is
    flagged not applicable and nothing is asserted.
    """
    hypotheses = (
        s.beta <= 0.1
        and s.tbeta <= 0.1
        and 0.3 <= s.L <= 1.7
        and 0.3 <= s.Lt <= 1.7
    )
    if not hypotheses:
        return SandwichResult(False, None, float("nan"))
    err = err_of(s)
    within = frob / 5.0 <= err <= 12.5 * frob
    ratio = err / frob if frob > 0 else float("nan")
    return SandwichResult(True, within, ratio)
