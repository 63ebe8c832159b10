"""Deterministic four-dimensional trajectory predictions.

Given a state (alpha, beta, talpha, tbeta) summarizing the iterates against
the ground truth, one application of the deterministic map produces the
predicted next state without touching any data:

1. solve the two-dimensional fixed point for (r1, r2),
2. evaluate the Gaussian expectations (V, V1, V2),
3. parallel components alpha', talpha' from the F-functions,
4. in-span orthogonal components from the H-functions,
5. orthogonal variances (eta^2, teta^2) from (V3, V4) through a 2x2 linear
   system,
6. assemble beta' = sqrt(H^2 + eta^2) and tbeta' = sqrt(Ht^2 + teta^2).

Iterating the map yields the predicted error sequence used for offline
hyperparameter tuning. predict_trajectory checks (d, m, sigma) once, before
its first step. Everything here is pure and deterministic; all
expectations go through a shared, machine-precision expectation engine.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditionedEtaError,
    NonConvergenceError,
    NumericalInputError,
    PredictionError,
    ProxtuneError,
    ValidationError,
)
from .expect import get_engine
from .model import check_problem
from .simulate import as_schedule
from .state import StateVec, err_of


@dataclass(frozen=True)
class FixedPointR:
    """Solution of the (r1, r2) fixed point with solver diagnostics."""

    r1: float
    r2: float
    iterations_used: int
    residual: float


def in_theory_region(L, Lt, lam, ratio):
    """Sufficient (conservative) certificate that the fixed-point map is a
    contraction and the bracket r <= 2 lam m / d applies."""
    jac_bound = (3.0 * L ** 4 + 2.0 * (L * Lt) ** 2 + 3.0 * Lt ** 4) / (lam * lam * ratio)
    return lam >= max(1.0, L * L, Lt * Lt) and jac_bound <= 0.5


def solve_r(L, Lt, lam, ratio, tol=1e-12, max_iter=1000):
    """Solve the (r1, r2) fixed point by iterating r <- g(r) with
    g(r) = ratio * (lam + V1(r), lam + V2(r)).

    ratio is the batch-to-dimension ratio m/d. Iteration starts at the
    midpoint of the guaranteed bracket [lam*ratio, 2*lam*ratio]; inside the
    certified region the map contracts and plain iteration converges
    geometrically. Outside it a 0.5 damping kicks in after 200 sweeps as a
    safety net. The reported residual is the relative defect max_i
    |g_i(r) - r_i| / r_i at the returned point.
    """
    if not (L > 0 and Lt > 0):
        raise ValidationError("L and Lt must be positive")
    if lam <= 0:
        raise ValidationError("lambda must be positive")
    if not 0 < ratio <= 1:
        raise ValidationError("ratio m/d must lie in (0, 1]")
    if not all(map(math.isfinite, (L, Lt, lam, ratio))):
        raise NumericalInputError("non-finite fixed-point parameters")
    engine = get_engine()

    # iterates stay inside [lam*ratio, ratio*(lam + max(L^2, Lt^2))]
    r_lo = lam * ratio
    r_hi = ratio * (lam + max(L * L, Lt * Lt))
    ctx = engine.context(L, Lt, r_lo, r_hi)

    r1 = r2 = 1.5 * lam * ratio
    damping = 1.0
    residual = math.inf
    for it in range(1, max_iter + 1):
        v1, v2 = engine.v_pair(ctx, r1, r2)
        g1 = ratio * (lam + v1)
        g2 = ratio * (lam + v2)
        residual = max(abs(g1 - r1) / g1, abs(g2 - r2) / g2)
        if damping == 1.0:
            r1, r2 = g1, g2
        else:
            r1 += damping * (g1 - r1)
            r2 += damping * (g2 - r2)
        if residual <= tol:
            break
        if it == 200:
            damping = 0.5
    else:
        raise NonConvergenceError(
            f"(r1, r2) fixed point did not reach tol={tol:g} in {max_iter} iterations",
            residual=residual,
            iterations=max_iter,
        )
    # honest defect at the returned point
    v1, v2 = engine.v_pair(ctx, r1, r2)
    residual = max(
        abs(ratio * (lam + v1) - r1) / r1,
        abs(ratio * (lam + v2) - r2) / r2,
    )
    return FixedPointR(r1=r1, r2=r2, iterations_used=it, residual=residual)


def compute_V(r, L, Lt):
    """The first-order expectations (V, V1, V2) at a solved fixed point."""
    engine = get_engine()
    ctx = engine.context_at(L, Lt, r.r1, r.r2)
    return engine.first_order(ctx, r.r1, r.r2)


def _phi(s, V, lam):
    # shared prefactors of the parallel and in-span maps
    Lsq = s.alpha ** 2 + s.beta ** 2
    Ltsq = s.talpha ** 2 + s.tbeta ** 2
    cross = s.alpha * s.talpha
    denom = V * (Lsq + Ltsq) + lam * Lsq * Ltsq
    phi1 = (V * (cross / Lsq + Lsq) + lam * Lsq * Ltsq) / denom
    phi2 = (V * (cross / Ltsq + Ltsq) + lam * Lsq * Ltsq) / denom
    return Lsq, Ltsq, cross, phi1, phi2


def compute_parallel(s, V, V1, V2, lam):
    """Predicted overlaps (alpha', talpha') of the next iterate pair."""
    Lsq, Ltsq, cross, phi1, phi2 = _phi(s, V, lam)
    alpha_det = phi1 * s.alpha + V1 * s.beta ** 2 / (Lsq * Ltsq * (V1 + lam)) * s.talpha
    talpha_det = phi2 * s.talpha + V2 * s.tbeta ** 2 / (Lsq * Ltsq * (V2 + lam)) * s.alpha
    return alpha_det, talpha_det


def compute_H(s, V, V1, V2, lam):
    """Predicted in-span orthogonal components (H, Ht)."""
    Lsq, Ltsq, cross, phi1, phi2 = _phi(s, V, lam)
    h = (phi1 - cross / (Lsq * Ltsq) * V1 / (V1 + lam)) * s.beta
    ht = (phi2 - cross / (Lsq * Ltsq) * V2 / (V2 + lam)) * s.tbeta
    return h, ht


def compute_V34(s, sigma, lam, V, V1, V2, kernels):
    """The source terms (V3, V4) feeding the orthogonal-variance system,
    from the second-order kernels at the solved fixed point.

    The own term of V4 has denominator L^4 Lt^2, the form implied by
    swapping the two sides in V3.
    """
    Lsq = s.alpha ** 2 + s.beta ** 2
    Ltsq = s.talpha ** 2 + s.tbeta ** 2
    cross = s.alpha * s.talpha
    lamsq = lam * lam

    noise_w = sigma ** 2 + (s.beta ** 2 * s.tbeta ** 2) / (Lsq * Ltsq)
    mis_w = lamsq * (cross / (Lsq * Ltsq) - 1.0) ** 2 \
        / (lam + V * (1.0 / Lsq + 1.0 / Ltsq)) ** 2
    own3_w = lamsq * (s.talpha * s.beta) ** 2 / ((lam + V1) ** 2 * Ltsq ** 2 * Lsq)
    mix3_w = lamsq * (s.alpha * s.tbeta) ** 2 / ((lam + V2) ** 2 * Lsq ** 2 * Ltsq)
    V3 = (noise_w * kernels.s2_u2 + mis_w * kernels.s2_u1u2sq
          + own3_w * kernels.s2_u2sq + mix3_w * kernels.s2_u1u2)

    own4_w = lamsq * (s.alpha * s.tbeta) ** 2 / ((lam + V2) ** 2 * (Lsq ** 2 * Ltsq))
    mix4_w = lamsq * (s.talpha * s.beta) ** 2 / ((lam + V1) ** 2 * Lsq * Ltsq ** 2)
    V4 = (noise_w * kernels.s1_u1 + mis_w * kernels.s1_u1squ2
          + own4_w * kernels.s1_u1sq + mix4_w * kernels.s1_u1u2)
    return V3, V4


def solve_eta(d, m, V3, V4, kernels):
    """Nonnegative solution (eta^2, teta^2) of the orthogonal-variance
    fixed point, via its equivalent 2x2 linear system."""
    kappa = (d - 2) * m / d ** 2
    a1 = 1.0 - kappa * kernels.s2_u2sq
    a2 = -kappa * kernels.s2_u1u2
    a3 = -kappa * kernels.s1_u1u2
    a4 = 1.0 - kappa * kernels.s1_u1sq
    det = a1 * a4 - a2 * a3
    if det <= 1e-10:
        raise IllConditionedEtaError(
            f"orthogonal-variance system determinant {det:.3e} <= 1e-10; "
            "lambda is below the validity region"
        )
    b1, b2 = kappa * V3, kappa * V4
    eta_sq = (a4 * b1 - a2 * b2) / det
    teta_sq = (a1 * b2 - a3 * b1) / det
    neg_tol = 1e-13 * max(1.0, abs(b1) + abs(b2)) / det
    if eta_sq < -neg_tol or teta_sq < -neg_tol:
        raise IllConditionedEtaError(
            "negative orthogonal variance; lambda is below the validity region"
        )
    return max(eta_sq, 0.0), max(teta_sq, 0.0)


def det_map(s, d, m, sigma, lam):
    """One application of the deterministic state map (steps 1-6 above) to a
    problem that predict_trajectory has checked."""
    if not all(map(math.isfinite, s.as_tuple())):
        raise NumericalInputError("non-finite state")
    if s.L <= 0 or s.Lt <= 0:
        raise ValidationError("state must have positive lengths L, Lt")
    engine = get_engine()
    r = solve_r(s.L, s.Lt, lam, m / d)
    ctx = engine.context_at(s.L, s.Lt, r.r1, r.r2)
    V, V1, V2 = engine.first_order(ctx, r.r1, r.r2)
    kernels = engine.second_order(ctx, r.r1, r.r2)
    V3, V4 = compute_V34(s, sigma, lam, V, V1, V2, kernels)
    eta_sq, teta_sq = solve_eta(d, m, V3, V4, kernels)
    alpha_det, talpha_det = compute_parallel(s, V, V1, V2, lam)
    h, ht = compute_H(s, V, V1, V2, lam)
    return StateVec(
        alpha=alpha_det,
        beta=math.sqrt(h * h + eta_sq),
        talpha=talpha_det,
        tbeta=math.sqrt(ht * ht + teta_sq),
    )


@dataclass(frozen=True)
class DetTrajectory:
    """Predicted states and error sequence over a horizon.

    theory_region[t] is the contraction certificate evaluated at state t
    with the schedule value at t.
    """

    states: tuple
    err_seq: np.ndarray
    lambdas: np.ndarray
    theory_region: np.ndarray

    @property
    def in_region(self):
        return bool(self.theory_region.all())


def predict_trajectory(s0, T, d, m, sigma, schedule):
    """Iterate the deterministic map T times from s0, recording the
    predicted error sequence. No randomness is consumed."""
    check_problem(d, m, sigma)
    if T < 0:
        raise ValidationError("T must be nonnegative")
    schedule = as_schedule(schedule)
    ratio = m / d
    states = [s0]
    errs = [err_of(s0)]
    s = s0
    for t in range(T):
        lam = schedule.value(t)
        try:
            s = det_map(s, d, m, sigma, lam)
        except (ProxtuneError, ArithmeticError) as exc:
            raise PredictionError(t, str(exc)) from exc
        states.append(s)
        errs.append(err_of(s))
    lambdas = np.array([schedule.value(t) for t in range(T + 1)])
    flags = np.array([
        in_theory_region(states[t].L, states[t].Lt, lambdas[t], ratio)
        for t in range(T + 1)
    ])
    return DetTrajectory(
        states=tuple(states),
        err_seq=np.array(errs),
        lambdas=lambdas,
        theory_region=flags,
    )
