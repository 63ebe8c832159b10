"""Independent reference implementations the tests compare the package with.

The package uses none of them: the dense solve is the reference the
Woodbury prox-linear step must match, the same Woodbury step in residual
form through numpy's cholesky and solve, written with diagonal matrices, is
the reference it must match bit for bit, and the prox subproblem's
objective is what every step must not increase. The folded
Gauss-Hermite rule is a second quadrature for the expectation engine where
both converge (moderate r), and plain Monte Carlo is the oracle for every
expectation. A point grid is the engine's grid built for the square bracket
spanned by one (r1, r2), the reference a reused trajectory grid must match,
and a point block is the one-grid block over it; ``kernels_at`` and
``pair_at`` are how the tests take the expectations on a block,
``solve_at`` is det_map's fixed-point solve for one point, ``map_once`` is
how they take one map step, and ``reference_kernels`` is
the engine's kernel pass written out one sum at a time, the reference the
fused pass must match. ``reference_parallel``, ``reference_H`` and
``reference_V34`` write the map's scalar formulas out with nothing shared
between them (each evaluates its own phi prefactors and takes its own
``squared_lengths``, det_map's L * L, Lt * Lt and cross term), the
reference the package's shared-scalar versions must match bit for bit.
``legendre_rule`` is numpy's Gauss-Legendre rule mapped to [0, 1], the
reference for the engine's stored panel rule and the finer rules the
refinement tests pass. The Frobenius error written from the state and the
sandwich check relating it to ``err_of`` are checks on the state summary.
"""

import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from proxtune.errors import PredictionError, ValidationError
from proxtune.expect import Block, SecondOrderKernels, get_engine
from proxtune.predict import fixed_point_start, predict_trajectory, solve_r
from proxtune.state import StateVec, err_of

MC_CHUNK = 1_000_000


def dense_oracle(mu, nu, batch, lam):
    """Independent dense solve of the 2d x 2d normal equations."""
    m, d = batch.X.shape
    w = batch.X @ mu
    wt = batch.Z @ nu
    A = np.hstack([np.diag(wt) @ batch.X, np.diag(w) @ batch.Z])
    M = A.T @ A + lam * m * np.eye(2 * d)
    rhs = A.T @ (batch.y + w * wt) + lam * m * np.concatenate([mu, nu])
    theta = np.linalg.solve(M, rhs)
    return theta[:d], theta[d:]


def woodbury_oracle(mu, nu, batch, lam):
    """The Woodbury prox-linear step in residual form, theta + A^T K^(-1)
    (y - w * wt) with K = A A^T + lam m I, where np.linalg.cholesky checks K
    and np.linalg.solve solves it; no residual check."""
    m = batch.y.size
    w = batch.X @ mu
    wt = batch.Z @ nu
    A = np.concatenate([np.diag(wt) @ batch.X, np.diag(w) @ batch.Z], axis=1)
    K = A @ A.T
    K[np.diag_indices_from(K)] += lam * m
    np.linalg.cholesky(K)
    theta = np.concatenate([mu, nu]) + A.T @ np.linalg.solve(K, batch.y - w * wt)
    return theta[:mu.size], theta[mu.size:]


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


class QuadratureRule:
    """Tensor-product Gauss-Hermite rule for the standard-Gaussian weight.

    Weights are normalized to sum to one. The nodes are symmetric about 0
    and the integrands see only squares, so folding (+x, -x) onto the half
    line is exact.
    """

    def __init__(self, nodes_per_dim=64, folded=True):
        if nodes_per_dim < 1:
            raise ValidationError("nodes_per_dim must be a positive integer")
        x, w = hermegauss(nodes_per_dim)
        w = w / math.sqrt(2.0 * math.pi)
        if folded:
            half = x.size // 2
            x, w = x[half:], 2.0 * w[half:]
            if nodes_per_dim % 2:
                w[0] /= 2.0  # the node at 0 has no mirror image
        self.nodes = x
        self.weights = w


def gauss_expect2(f, L, Lt, rule=None):
    """E f(G1^2, G2^2) for G1 ~ N(0, L^2), G2 ~ N(0, Lt^2) on the tensor
    grid of ``rule``; f maps two arrays of squared samples elementwise."""
    if L <= 0 or Lt <= 0:
        raise ValidationError("L and Lt must be positive")
    rule = rule if rule is not None else QuadratureRule()
    sq = rule.nodes * rule.nodes
    g1, g2 = np.meshgrid((L * L) * sq, (Lt * Lt) * sq, indexing="ij")
    w2 = np.outer(rule.weights, rule.weights)
    return float(w2.ravel() @ np.asarray(f(g1.ravel(), g2.ravel()), dtype=float))


def mc_expect2(f, L, Lt, n_samples, seed=0):
    """Plain Monte-Carlo estimate of E f(G1^2, G2^2) with its standard error."""
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    if L <= 0 or Lt <= 0:
        raise ValidationError("L and Lt must be positive")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        k = min(MC_CHUNK, n_samples - done)
        g1 = (L * rng.standard_normal(k)) ** 2
        g2 = (Lt * rng.standard_normal(k)) ** 2
        v = np.asarray(f(g1, g2), dtype=float)
        total += float(v.sum())
        total_sq += float(v @ v)
        done += k
    mean = total / n_samples
    if n_samples == 1:
        return mean, float("inf")
    var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return mean, math.sqrt(var / n_samples)


def legendre_rule(n):
    """The n-point Gauss-Legendre (nodes, weights) mapped to [0, 1], as an
    ExpectationEngine rule."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def point_grid(engine, L, Lt, r1, r2):
    """The engine's grid built for the square bracket spanned by (r1, r2)."""
    return engine.context(L, Lt, min(r1, r2), max(r1, r2))


def point_block(engine, L, Lt, r1, r2):
    """The one-grid block over point_grid."""
    return Block((point_grid(engine, L, Lt, r1, r2),))


def kernels_at(engine, block, L, Lt, r1, r2):
    """(V, V1, V2, SecondOrderKernels) at (r1, r2) and (L, Lt) on the
    one-point block: v_pair, then finish, the package's one route to the
    expectations."""
    rs, sqs = ((r1, r2),), ((L * L, Lt * Lt),)
    engine.v_pair(block, rs, sqs)
    return engine.finish(block, rs, sqs)[0]


def pair_at(engine, block, L, Lt, r1, r2):
    """v_pair's (V1, V2) at (r1, r2) and (L, Lt) on the one-point block."""
    return engine.v_pair(block, ((r1, r2),), ((L * L, Lt * Lt),))[0]


class Solved(NamedTuple):
    """solve_r's FixedPointR fields, the block it swept and the
    expectations finish completed there."""

    r1: float
    r2: float
    iterations_used: int
    residual: float
    g: tuple
    block: Block
    expectations: tuple


def solve_at(L, Lt, lam, ratio, start=None):
    """The (r1, r2) fixed point the way det_map solves it for one point: the
    grid and start fixed_point_start gives (a new grid over the bracket, the
    start clamped into it), the one-grid block's v_pair at the start as the
    first sweep, solve_r, then finish."""
    engine = get_engine()
    sq = L * L, Lt * Lt
    grid, start = fixed_point_start(L, Lt, lam, ratio, start, None)
    block = Block((grid,))
    (sweep,) = engine.v_pair(block, (start,), (sq,))
    r = solve_r(lam, ratio, start, sweep, block, sq)
    (expectations,) = engine.finish(block, ((r.r1, r.r2),), (sq,))
    return Solved(r.r1, r.r2, r.iterations_used, r.residual, r.g, block, expectations)


def map_once(s, d, m, sigma, lam):
    """The map's step from s at lambda, from a cold start: state 1 of a
    one-step trajectory. A failing step raises the error its
    PredictionError wraps."""
    try:
        traj = predict_trajectory(s, 1, d, m, sigma, lambda t: lam)
    except PredictionError as exc:
        raise exc.__cause__ from None
    return StateVec(*traj.states[1].tolist())


def compute_V(r, L, Lt):
    """The first-order expectations (V, V1, V2) at a solved fixed point,
    on a point block."""
    engine = get_engine()
    return kernels_at(engine, point_block(engine, L, Lt, r.r1, r.r2), L, Lt, r.r1, r.r2)[:3]


def reference_kernels(grid, L, Lt, r1, r2):
    """(V, V1, V2, SecondOrderKernels) at (r1, r2) and (L, Lt) on grid, each
    sum taken as its own dot product over separately built moment factors."""
    Lsq, Ltsq = L * L, Lt * Lt
    e1 = 1.0 + (2.0 * r1 * Lsq) * grid.t
    e2 = 1.0 + (2.0 * r2 * Ltsq) * grid.t
    damp = grid.w * np.exp((-r1 * r2) * grid.t) / np.sqrt(e1 * e2)
    tdamp = damp * grid.t
    i1 = 1.0 / e1
    i2 = 1.0 / e2
    i1i2 = i1 * i2
    coef = r1 * r2
    r1sq, r2sq = r1 * r1, r2 * r2
    return (
        coef * Lsq * Ltsq * float(damp @ i1i2),
        coef * Ltsq * float(damp @ i2),
        coef * Lsq * float(damp @ i1),
        SecondOrderKernels(
            s2_u2=r2sq * Ltsq * float(tdamp @ i2),
            s2_u1u2sq=r2sq * 3.0 * Lsq * Ltsq * Ltsq * float(tdamp @ (i1i2 * i2)),
            s2_u2sq=r2sq * 3.0 * Ltsq * Ltsq * float(tdamp @ (i2 * i2)),
            s2_u1u2=r2sq * Lsq * Ltsq * float(tdamp @ i1i2),
            s1_u1=r1sq * Lsq * float(tdamp @ i1),
            s1_u1squ2=r1sq * 3.0 * Lsq * Lsq * Ltsq * float(tdamp @ (i1i2 * i1)),
            s1_u1sq=r1sq * 3.0 * Lsq * Lsq * float(tdamp @ (i1 * i1)),
            s1_u1u2=r1sq * Lsq * Ltsq * float(tdamp @ i1i2),
        ),
    )


def squared_lengths(s):
    """(L * L, Lt * Lt, alpha talpha): the squared lengths and cross term
    det_map gives the map functions."""
    return s.L * s.L, s.Lt * s.Lt, s.alpha * s.talpha


def reference_phi(s, V, lam):
    """Shared prefactors (Lsq, Ltsq, cross, phi1, phi2) of the parallel and
    in-span maps, evaluated once per map function."""
    Lsq, Ltsq, cross = squared_lengths(s)
    denom = V * (Lsq + Ltsq) + lam * Lsq * Ltsq
    phi1 = (V * (cross / Lsq + Lsq) + lam * Lsq * Ltsq) / denom
    phi2 = (V * (cross / Ltsq + Ltsq) + lam * Lsq * Ltsq) / denom
    return Lsq, Ltsq, cross, phi1, phi2


def reference_parallel(s, V, V1, V2, lam):
    """Predicted overlaps (alpha', talpha'), with their own phi evaluation."""
    Lsq, Ltsq, cross, phi1, phi2 = reference_phi(s, V, lam)
    alpha_det = phi1 * s.alpha + V1 * s.beta ** 2 / (Lsq * Ltsq * (V1 + lam)) * s.talpha
    talpha_det = phi2 * s.talpha + V2 * s.tbeta ** 2 / (Lsq * Ltsq * (V2 + lam)) * s.alpha
    return alpha_det, talpha_det


def reference_H(s, V, V1, V2, lam):
    """Predicted in-span orthogonal components (H, Ht), with their own phi
    evaluation."""
    Lsq, Ltsq, cross, phi1, phi2 = reference_phi(s, V, lam)
    h = (phi1 - cross / (Lsq * Ltsq) * V1 / (V1 + lam)) * s.beta
    ht = (phi2 - cross / (Lsq * Ltsq) * V2 / (V2 + lam)) * s.tbeta
    return h, ht


def reference_V34(s, sigma, lam, V, V1, V2, kernels):
    """(V3, V4) with every weight written out in full, no term shared."""
    Lsq, Ltsq, cross = squared_lengths(s)
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
