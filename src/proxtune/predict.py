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

Iterating the map (a sweep's points in lockstep) yields the predicted error
sequences used for offline hyperparameter tuning. predict_trajectory checks
(d, m, sigma), and that sigma^2 is finite, once, before the first step, so a
setting its points share fails once. Everything here is pure and
deterministic; all expectations go through a shared expectation engine.
A step's L^2 = L * L serves its kernels, steps 3-5 and its certificate.
"""

import math
from collections import deque
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
from .expect import Block, get_engine
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
    max_i |g_i(r) - r_i| / r_i (the one the stopping test passed) and g(r)
    there, as g = (g1, g2); a slotted record."""

    __slots__ = ("r1", "r2", "iterations_used", "residual", "g")

    def __init__(self, r1, r2, iterations_used, residual, g):
        self.r1, self.r2, self.iterations_used, self.residual, self.g = (
            r1, r2, iterations_used, residual, g)


def in_theory_region(Lsq, Ltsq, lam, ratio):
    """Sufficient (conservative) certificate that the fixed-point map is a
    contraction and the bracket r <= 2 lam m / d applies: lam >= 1, Lsq, Ltsq
    and the Jacobian bound (3 L^4 + 2 L^2 Lt^2 + 3 Lt^4) / (lam^2 ratio) is
    at most 1/2. The bound is taken in x = L^2 / lam and y = Lt^2 / lam,
    both at most 1 there, so no power overflows."""
    if not lam >= max(1.0, Lsq, Ltsq):
        return False
    x, y = Lsq / lam, Ltsq / lam
    return (3.0 * x * x + 2.0 * x * y + 3.0 * y * y) / ratio <= 0.5


def fixed_point_start(L, Lt, lam, ratio, start, grid):
    """solve_r's grid (ExpectationEngine.context_for over grid, the previous
    step's or None) and start, clamped into the bracket, or 1.5*lam*ratio on
    both sides if None; only finiteness is checked here (L, Lt, lam > 0 by
    bracket_span, ratio by check_problem)."""
    if not (isfinite(L) and isfinite(Lt) and isfinite(lam) and isfinite(ratio)):
        raise NumericalInputError("non-finite fixed-point parameters")
    # every g(r), so every iterate after the first, is inside [r_lo, r_hi]
    r_lo, r_hi = lam * ratio, ratio * (lam + max(L * L, Lt * Lt))
    grid = get_engine().context_for(grid, L, Lt, r_lo, r_hi)
    if start is None:
        return grid, (1.5 * lam * ratio,) * 2
    return grid, (min(max(start[0], r_lo), r_hi), min(max(start[1], r_lo), r_hi))


def solve_r(lam, ratio, start, sweep, row, sq):
    """Solve the (r1, r2) fixed point by iterating r <- g(r) with
    g(r) = ratio * (lam + V1(r), lam + V2(r)).

    ratio is the batch-to-dimension ratio m/d. g maps every r into the
    bracket [lam*ratio, ratio*(lam + max(L^2, Lt^2))], because 0 <= V1 <= Lt^2
    and 0 <= V2 <= L^2. Iteration starts at start = (r1, r2), which
    fixed_point_start clamps into that bracket, or sets to 1.5*lam*ratio on
    a run's first step (above the bracket when lam > 2 max(L^2, Lt^2), so
    only that first point lies outside); det_map passes the quintic
    extrapolation of the last six steps' g(r), which leaves about one sweep
    per step. g is isotone, since
    dV1/dr1 = E r2^2 U2^2 / D^2, dV1/dr2 = E r1^2 U1 U2 / D^2 and likewise
    for V2, so the iterates stay between those started from the bracket's
    two corners and need no averaging with the previous point. Inside the
    certified region g contracts (by ~1e-3 per sweep on the tuning grids),
    so the start's error decides the sweep count.

    Each sweep takes v_pair at the current point r and its relative defect
    max_i |g_i(r) - r_i| / r_i. The first sweep is sweep, the (V1, V2) at
    start that the block's pass gave; every later one is v_pair on row, the
    point's one-row view of the block, at sq = (L^2, Lt^2). The first point
    whose defect is <= FP_TOL is returned, with that defect as ``residual``
    and its g(r) as ``g``; its row then holds the factors finish completes
    the step's expectations from.
    """
    (r1, r2), (v1, v2) = start, sweep
    for it in range(1, FP_MAX_ITER + 1):
        if it > 1:
            ((v1, v2),) = get_engine().v_pair(row, ((r1, r2),), (sq,))
        g1 = ratio * (lam + v1)
        g2 = ratio * (lam + v2)
        residual = max(abs(g1 - r1) / r1, abs(g2 - r2) / r2)
        if residual <= FP_TOL:
            break
        r1, r2 = g1, g2
    else:
        raise NonConvergenceError(
            f"(r1, r2) fixed point did not reach tol={FP_TOL:g} in {FP_MAX_ITER} iterations",
            residual=residual, iterations=FP_MAX_ITER)
    return FixedPointR(r1, r2, it, residual, (g1, g2))


def compute_parallel_H(s, V, V1, V2, lam, sq):
    """Predicted overlaps and in-span orthogonal components
    (alpha', talpha', H, Ht) of the next iterate pair, which share the
    prefactors phi1, phi2; sq is det_map's (L^2, Lt^2, alpha talpha)."""
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
    from the second-order kernels at the solved fixed point; sq is det_map's
    (L^2, Lt^2, alpha talpha).

    The own term of V4 has denominator L^4 Lt^2, the form implied by
    swapping the two sides in V3.
    """
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


def det_map(runs, t, d, sigma, block):
    """Step t (steps 1-6 above) of every _Run in runs that has not failed, in
    lockstep: each run's grid and start (fixed_point_start), then one v_pair
    over block (the runs' grids stacked) makes each first sweep, each solve_r
    accepts it or sweeps its own row on, one finish completes every run's
    expectations, and each run maps and records its state or keeps its
    PredictionError. Returns the block."""
    engine = get_engine()
    live, grids, starts, sqs = [], [], [], []
    for run in runs:
        if run.error is not None:
            continue
        lam, ratio, s, L, Lt = run.schedule(t), run.ratio, run.s, run.s.L, run.s.Lt
        try:
            if L <= 0 or Lt <= 0:
                raise ValidationError("state must have positive lengths L, Lt")
            sq = L * L, Lt * Lt, s.alpha * s.talpha
            if sq[0] * sq[1] == 0.0:
                raise NumericalInputError(
                    f"squared lengths L^2 Lt^2 underflow to 0 at L={L:g}, Lt={Lt:g}")
            run.grid, start = fixed_point_start(L, Lt, lam, ratio, run.start, run.grid)
        except (ProxtuneError, ArithmeticError) as exc:
            run.fail(t, exc)
            continue
        live.append((run, s, lam, sq))
        grids.append(run.grid)
        starts.append(start)
        sqs.append(sq[:2])
    if not live:
        return block
    if block is None or block.grids != tuple(grids):
        block = Block(tuple(grids))
    solved = []
    for k, sweep in enumerate(engine.v_pair(block, starts, sqs)):
        run, s, lam, sq = live[k]
        try:
            r = solve_r(lam, run.ratio, starts[k], sweep, block.rows[k], sqs[k])
            starts[k] = r.r1, r.r2  # a failed run's row is finished at its start
        except (ProxtuneError, ArithmeticError) as exc:
            run.fail(t, exc)
            r = None
        solved.append(r)
    for (run, s, lam, sq), r, (V, V1, V2, kernels) in zip(
            live, solved, engine.finish(block, starts, sqs)):
        try:
            if r is None:
                continue
            V3, V4 = compute_V34(s, sigma, lam, V, V1, V2, kernels, sq)
            eta_sq, teta_sq = solve_eta(d, run.m, V3, V4, kernels)
            a, ta, h, ht = compute_parallel_H(s, V, V1, V2, lam, sq)
            b, tb = math.sqrt(h * h + eta_sq), math.sqrt(ht * ht + teta_sq)
            if not (isfinite(a) and isfinite(b) and isfinite(ta) and isfinite(tb)):
                raise NumericalInputError("predicted state (alpha, beta, talpha, tbeta) = "
                                          f"({a:g}, {b:g}, {ta:g}, {tb:g}) is not finite")
            run.s = s = StateVec(a, b, ta, tb)
            run.errs[t + 1] = err_of(s)
        except (ProxtuneError, ArithmeticError) as exc:
            run.fail(t, exc)
            continue
        run.flags[t] = in_theory_region(sq[0], sq[1], lam, run.ratio)
        run.g1s.appendleft(r.g[0])
        run.g2s.appendleft(r.g[1])
        coefs = EXTRAPOLATION[len(run.g1s) - 1]
        run.start = (sum(map(mul, coefs, run.g1s)), sum(map(mul, coefs, run.g2s)))
        run.iterations[t], run.residuals[t] = r.iterations_used, r.residual
        run.states[t + 1] = a, b, ta, tb
    return block


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


class _Run:
    """One point of a lockstep run: its problem, schedule, records, error,
    and the state, start, grid and g(r) history its next step starts from."""

    def __init__(self, s0, m, schedule, T, d):
        self.m, self.ratio, self.schedule, self.s = m, m / d, schedule, s0
        self.start = self.grid = self.error = None
        self.g1s, self.g2s = deque(maxlen=6), deque(maxlen=6)
        self.states, self.errs = np.empty((T + 1, 4)), np.empty(T + 1)
        self.flags, self.iterations, self.residuals = (np.empty(T + 1, bool), np.empty(T, int),
                                                       np.empty(T))
        self.states[0] = s0.alpha, s0.beta, s0.talpha, s0.tbeta
        try:
            self.errs[0] = err_of(s0)
        except NumericalInputError as exc:
            self.fail(0, exc)

    def fail(self, t, exc):
        self.error = PredictionError(t, str(exc))
        self.error.__cause__ = exc


def predict_trajectory(s0, T, d, m, sigma, schedule):
    """Iterate the deterministic map T times from s0 with lambda_t =
    schedule(t), schedule any callable such as RunConfig.lambda_schedule(),
    recording the predicted error sequence; a failing step raises its
    PredictionError. No randomness is consumed. Step t + 1's fixed point
    starts from 6 g_t - 15 g_(t-1) + 20 g_(t-2) - 15 g_(t-3) + 6 g_(t-4)
    - g_(t-5), the quintic extrapolation of the last six g_t = g(r_t) =
    ratio * (lam + V1, lam + V2), each step's FixedPointR.g (the quartic to
    constant one while fewer exist, so step 1 starts from g_0), on step t's
    grid while that grid covers the bracket. Step t's certificate reads the
    squared lengths of its map step. With equal-length tuples s0, m and
    schedule, the points advance in lockstep (det_map), and the result lists
    each one's DetTrajectory (its own call's, bit for bit) or PredictionError."""
    many = isinstance(m, tuple)
    points = tuple(zip(s0, m, schedule, strict=True)) if many else ((s0, m, schedule),)
    for _, m_k, _ in points:
        check_problem(d, m_k, sigma)
    if math.isinf(sigma * sigma):
        raise NumericalInputError(f"noise variance sigma^2 overflows at sigma={sigma:g}")
    if T < 0:
        raise ValidationError("T must be nonnegative")
    runs, block = [_Run(*point, T, d) for point in points], None
    for t in range(T):
        block = det_map(runs, t, d, sigma, block)
    for run in (run for run in runs if run.error is None):
        L, Lt = run.s.L, run.s.Lt
        run.flags[T] = in_theory_region(L * L, Lt * Lt, run.schedule(T), run.ratio)
    results = [run.error or DetTrajectory(run.states, run.errs, run.flags, run.iterations,
                                          run.residuals) for run in runs]
    if not many and runs[0].error:
        raise runs[0].error
    return results if many else results[0]
