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
from math import isfinite
from operator import mul

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
from .state import StateVec, err_of


# weights on (x_t, x_(t-1), ...) of the constant to quintic extrapolation:
# row k is exact on every polynomial sequence of degree <= k
EXTRAPOLATION = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0),
                 (5.0, -10.0, 10.0, -5.0, 1.0), (6.0, -15.0, 20.0, -15.0, 6.0, -1.0))

# solve_r's bound on the relative defect, and its cap on sweeps
FP_TOL = 3e-14
FP_MAX_ITER = 4000


class FixedPointR:
    """Solution (r1, r2) of the fixed point, its sweeps and relative defect
    max_i |g_i(r) - r_i| / r_i (the one the stopping test passed), the
    EngineContext it was solved on (valid at (r1, r2) until the next step
    rebinds it) and the expectations (V, V1, V2, SecondOrderKernels) there;
    a slotted record."""

    __slots__ = ("r1", "r2", "iterations_used", "residual", "ctx", "expectations")

    def __init__(self, r1, r2, iterations_used, residual, ctx, expectations):
        self.r1, self.r2, self.iterations_used, self.residual = r1, r2, iterations_used, residual
        self.ctx, self.expectations = ctx, expectations


def in_theory_region(L, Lt, lam, ratio):
    """Sufficient (conservative) certificate that the fixed-point map is a
    contraction and the bracket r <= 2 lam m / d applies: lam >= 1, L^2, Lt^2
    and the Jacobian bound (3 L^4 + 2 L^2 Lt^2 + 3 Lt^4) / (lam^2 ratio) is
    at most 1/2. The bound is taken in x = L^2 / lam and y = Lt^2 / lam,
    both at most 1 there, so no power overflows."""
    if not lam >= max(1.0, L * L, Lt * Lt):
        return False
    x, y = L * L / lam, Lt * Lt / lam
    return (3.0 * x * x + 2.0 * x * y + 3.0 * y * y) / ratio <= 0.5


def solve_r(L, Lt, lam, ratio, start=None, grid=None):
    """Solve the (r1, r2) fixed point by iterating r <- g(r) with
    g(r) = ratio * (lam + V1(r), lam + V2(r)).

    ratio is the batch-to-dimension ratio m/d. g maps every r into the
    bracket [lam*ratio, ratio*(lam + max(L^2, Lt^2))], because 0 <= V1 <= Lt^2
    and 0 <= V2 <= L^2. Iteration starts at start = (r1, r2), clamped into
    that bracket, or at 1.5*lam*ratio when start is None (above the bracket
    when lam > 2 max(L^2, Lt^2), so only that first point lies outside);
    predict_trajectory passes the quintic extrapolation of the last six
    steps' g(r), which leaves about one sweep per step. g is isotone, since
    dV1/dr1 = E r2^2 U2^2 / D^2, dV1/dr2 = E r1^2 U1 U2 / D^2 and likewise
    for V2, so the iterates stay between those started from the bracket's
    two corners and need no averaging with the previous point. Inside the
    certified region g contracts (by ~1e-3 per sweep on the tuning grids),
    so the start's error decides the sweep count.

    Each sweep takes v_pair at the current point r and its relative defect
    max_i |g_i(r) - r_i| / r_i. The first point whose defect is <= FP_TOL is
    returned, with that defect as ``residual``; its expectations
    (V, V1, V2, SecondOrderKernels) are completed by ExpectationEngine.finish
    from the kernel rows that the accepted sweep filled, so a step that
    converges on its first sweep makes one pass over the grid.

    grid is the previous step's grid, or None. It is rebound to (L, Lt)
    when it covers the bracket (see ExpectationEngine.context_for), and a new
    grid is built otherwise; either way the grid is returned as ``ctx``.
    Positive L, Lt and lam are checked by the bracket (bracket_span), and
    0 < ratio <= 1 by check_problem; only their finiteness is checked here.
    """
    if not (isfinite(L) and isfinite(Lt) and isfinite(lam) and isfinite(ratio)):
        raise NumericalInputError("non-finite fixed-point parameters")
    engine = get_engine()
    v_pair = engine.v_pair
    tol, max_iter = FP_TOL, FP_MAX_ITER

    # every g(r), so every iterate after the first, is inside [r_lo, r_hi]
    r_lo, r_hi = lam * ratio, ratio * (lam + max(L * L, Lt * Lt))
    ctx = engine.context_for(grid, L, Lt, r_lo, r_hi)

    if start is None:
        r1 = r2 = 1.5 * lam * ratio
    else:
        r1 = min(max(start[0], r_lo), r_hi)
        r2 = min(max(start[1], r_lo), r_hi)
    residual = math.inf
    for it in range(1, max_iter + 1):
        v1, v2 = v_pair(ctx, r1, r2)
        g1 = ratio * (lam + v1)
        g2 = ratio * (lam + v2)
        residual = max(abs(g1 - r1) / r1, abs(g2 - r2) / r2)
        if residual <= tol:
            break
        r1, r2 = g1, g2
    else:
        raise NonConvergenceError(
            f"(r1, r2) fixed point did not reach tol={tol:g} in {max_iter} iterations",
            residual=residual, iterations=max_iter)
    # no kernel call on ctx between the accepted v_pair and finish
    return FixedPointR(r1, r2, it, residual, ctx, engine.finish(ctx, r1, r2))


def squares(s):
    """(alpha^2 + beta^2, talpha^2 + tbeta^2, alpha talpha): the squared
    lengths L^2, Lt^2 and the cross term, shared by the map functions."""
    return s.alpha ** 2 + s.beta ** 2, s.talpha ** 2 + s.tbeta ** 2, s.alpha * s.talpha


def compute_parallel_H(s, V, V1, V2, lam, sq):
    """Predicted overlaps and in-span orthogonal components
    (alpha', talpha', H, Ht) of the next iterate pair, which share the
    prefactors phi1, phi2; sq is squares(s)."""
    Lsq, Ltsq, cross = sq
    lam_LL = lam * Lsq * Ltsq
    denom = V * (Lsq + Ltsq) + lam_LL
    phi1 = (V * (cross / Lsq + Lsq) + lam_LL) / denom
    phi2 = (V * (cross / Ltsq + Ltsq) + lam_LL) / denom
    LL = Lsq * Ltsq
    return (
        phi1 * s.alpha + V1 * s.beta ** 2 / (LL * (V1 + lam)) * s.talpha,
        phi2 * s.talpha + V2 * s.tbeta ** 2 / (LL * (V2 + lam)) * s.alpha,
        (phi1 - cross / LL * V1 / (V1 + lam)) * s.beta,
        (phi2 - cross / LL * V2 / (V2 + lam)) * s.tbeta,
    )


def compute_V34(s, sigma, lam, V, V1, V2, kernels, sq):
    """The source terms (V3, V4) feeding the orthogonal-variance system,
    from the second-order kernels at the solved fixed point; sq is squares(s).

    The own term of V4 has denominator L^4 Lt^2, the form implied by
    swapping the two sides in V3.
    """
    if math.isinf(sigma * sigma):
        raise NumericalInputError(f"noise variance sigma^2 overflows at sigma={sigma:g}")
    Lsq, Ltsq, cross = sq
    lamsq = lam * lam
    LL, Lsq2, Ltsq2 = Lsq * Ltsq, Lsq ** 2, Ltsq ** 2
    # numerators and denominators each shared by one V3 and one V4 weight
    tb_w, at_w = lamsq * (s.talpha * s.beta) ** 2, lamsq * (s.alpha * s.tbeta) ** 2
    try:  # a float ** raises where * would give inf
        den1, den2 = (lam + V1) ** 2, (lam + V2) ** 2
        mis_den = (lam + V * (1.0 / Lsq + 1.0 / Ltsq)) ** 2
    except OverflowError:
        raise NumericalInputError(
            "V3/V4 weight denominators (lambda + V1)^2, (lambda + V2)^2, "
            f"(lambda + V (1/L^2 + 1/Lt^2))^2 overflow at lambda={lam:g}") from None

    noise_w = sigma ** 2 + (s.beta ** 2 * s.tbeta ** 2) / LL
    mis_w = lamsq * (cross / LL - 1.0) ** 2 / mis_den
    own3_w = tb_w / (den1 * Ltsq2 * Lsq)
    mix3_w = at_w / (den2 * Lsq2 * Ltsq)
    V3 = (noise_w * kernels.s2_u2 + mis_w * kernels.s2_u1u2sq
          + own3_w * kernels.s2_u2sq + mix3_w * kernels.s2_u1u2)

    own4_w = at_w / (den2 * (Lsq2 * Ltsq))
    mix4_w = tb_w / (den1 * Lsq * Ltsq2)
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


def det_map(s, d, m, sigma, lam, start=None, grid=None):
    """One application of the deterministic state map (steps 1-6 above) to a
    problem that predict_trajectory has checked. Returns the next state,
    checked finite, and the solved FixedPointR; start warm-starts solve_r
    and grid is the grid it may reuse (see there). squares(s) is computed
    once, for the check and for steps 4-6. A non-finite state has a
    non-finite length L or Lt, which solve_r rejects."""
    L, Lt = s.L, s.Lt
    if L <= 0 or Lt <= 0:
        raise ValidationError("state must have positive lengths L, Lt")
    sq = squares(s)
    if sq[0] * sq[1] == 0.0:
        raise NumericalInputError(f"squared lengths L^2 Lt^2 underflow to 0 at L={L:g}, Lt={Lt:g}")
    r = solve_r(L, Lt, lam, m / d, start=start, grid=grid)
    V, V1, V2, kernels = r.expectations
    V3, V4 = compute_V34(s, sigma, lam, V, V1, V2, kernels, sq)
    eta_sq, teta_sq = solve_eta(d, m, V3, V4, kernels)
    a, ta, h, ht = compute_parallel_H(s, V, V1, V2, lam, sq)
    b, tb = math.sqrt(h * h + eta_sq), math.sqrt(ht * ht + teta_sq)
    if not (isfinite(a) and isfinite(b) and isfinite(ta) and isfinite(tb)):
        raise NumericalInputError("predicted state (alpha, beta, talpha, tbeta) = "
                                  f"({a:g}, {b:g}, {ta:g}, {tb:g}) is not finite")
    return StateVec(a, b, ta, tb), r


@dataclass(frozen=True)
class DetTrajectory:
    """Predicted states, one (alpha, beta, talpha, tbeta) row for each
    t = 0..T, and the error sequence over a horizon.

    theory_region[t] is the contraction certificate evaluated at state t
    with the schedule value at t. fp_iterations[t] and fp_residual[t] are
    the sweeps and the final relative defect of step t's (r1, r2) fixed
    point (length T, like the steps).
    """

    states: np.ndarray
    err_seq: np.ndarray
    theory_region: np.ndarray
    fp_iterations: np.ndarray
    fp_residual: np.ndarray

    @property
    def in_region(self):
        return bool(self.theory_region.all())


def predict_trajectory(s0, T, d, m, sigma, schedule):
    """Iterate the deterministic map T times from s0, lambda_t given by the
    LambdaSchedule schedule, recording the predicted error sequence. No
    randomness is consumed. Step t + 1's fixed point starts from 6 g_t
    - 15 g_(t-1) + 20 g_(t-2) - 15 g_(t-3) + 6 g_(t-4) - g_(t-5), the
    quintic extrapolation of the last six g_t = g(r_t) = ratio * (lam + V1,
    lam + V2), taken from each step's expectations (the quartic to constant
    one while fewer exist, so step 1 starts from g_0), on step t's grid while
    that grid covers the bracket."""
    check_problem(d, m, sigma)
    if T < 0:
        raise ValidationError("T must be nonnegative")
    ratio = m / d
    states = np.empty((T + 1, 4))
    errs = np.empty(T + 1)
    flags = np.empty(T + 1, dtype=bool)
    iterations = np.empty(T, dtype=int)
    residuals = np.empty(T)
    s = s0
    states[0] = s.alpha, s.beta, s.talpha, s.tbeta
    try:
        errs[0] = err_of(s)
    except NumericalInputError as exc:
        raise PredictionError(0, str(exc)) from exc
    start = grid = None
    g1s, g2s = [], []  # the last (up to) six g(r_t), newest first
    for t in range(T):
        lam = schedule.value(t)
        try:
            s_next, r = det_map(s, d, m, sigma, lam, start, grid)
            errs[t + 1] = err_of(s_next)
        except (ProxtuneError, ArithmeticError) as exc:
            raise PredictionError(t, str(exc)) from exc
        flags[t] = in_theory_region(s.L, s.Lt, lam, ratio)
        s = s_next
        _, v1, v2, _ = r.expectations
        g1s, g2s = [ratio * (lam + v1), *g1s[:5]], [ratio * (lam + v2), *g2s[:5]]
        coefs = EXTRAPOLATION[len(g1s) - 1]
        start = (sum(map(mul, coefs, g1s)), sum(map(mul, coefs, g2s)))
        grid = r.ctx
        iterations[t] = r.iterations_used
        residuals[t] = r.residual
        states[t + 1] = s.alpha, s.beta, s.talpha, s.tbeta
    flags[T] = in_theory_region(s.L, s.Lt, schedule.value(T), ratio)
    return DetTrajectory(
        states=states,
        err_seq=errs,
        theory_region=flags,
        fp_iterations=iterations,
        fp_residual=residuals,
    )
