import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxtune.errors import (
    InfeasibleInitializationError,
    InvalidDimensionError,
    NumericalInputError,
    ValidationError,
)
from proxtune.model import (
    check_problem,
    generate_ground_truth,
    init_iterates,
    sample_batch,
)
from proxtune.cli import RunConfig
from proxtune.simulate import run_trials
from proxtune.state import StateVec, state_of


def config(d=200, m=32, sigma=0.0, lam=100.0):
    # run_trials checks the run before its one zero-step trial
    return run_trials(RunConfig(d=d, m=m, sigma=sigma, lambda0=lam, alpha0=1.0, iters=0,
                                trials=1, parallelism=1))


class TestGroundTruth:
    def test_unit_norms(self):
        for d in (2, 17, 200):
            gt = generate_ground_truth(d, seed=0)
            assert abs(np.linalg.norm(gt.mu_star) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(gt.nu_star) - 1.0) <= 1e-12

    def test_seeded_determinism(self):
        a = generate_ground_truth(200, seed=1)
        b = generate_ground_truth(200, seed=1)
        assert np.array_equal(a.mu_star, b.mu_star)
        assert np.array_equal(a.nu_star, b.nu_star)

    def test_independent_seeds_nearly_orthogonal(self):
        # mean |<mu(seed a), mu(seed b)>| should be O(1/sqrt(d))
        d = 200
        overlaps = []
        for pair in range(100):
            a = generate_ground_truth(d, seed=2 * pair)
            b = generate_ground_truth(d, seed=2 * pair + 1)
            overlaps.append(abs(a.mu_star @ b.mu_star))
        assert np.mean(overlaps) < 3.0 / np.sqrt(d)


class TestRunChecks:
    def test_rejects_small_dimension(self):
        with pytest.raises(InvalidDimensionError):
            check_problem(1, 1, 0.0)
        with pytest.raises(InvalidDimensionError):
            config(d=1, m=1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            config(m=0)
        with pytest.raises(ValidationError):
            config(d=16, m=17)
        with pytest.raises(ValidationError):
            config(sigma=-0.1)
        with pytest.raises(ValidationError):
            config(lam=0.0)
        # NaN is a bad setting, not a numerical failure
        with pytest.raises(ValidationError):
            config(sigma=float("nan"))
        with pytest.raises(ValidationError):
            config(lam=float("nan"))
        # and so is an infinite one
        with pytest.raises(ValidationError):
            config(sigma=float("inf"))
        with pytest.raises(ValidationError):
            config(lam=float("inf"))


class TestSampleBatch:
    def test_noiseless_construction_exact(self):
        gt = generate_ground_truth(100, seed=3)
        batch = sample_batch(gt, 16, 0.0, seed=4)
        exact = (batch.X @ gt.mu_star) * (batch.Z @ gt.nu_star)
        assert np.max(np.abs(batch.y - exact)) == 0.0

    def test_noise_variance(self):
        gt = generate_ground_truth(200, seed=5)
        batches = [sample_batch(gt, 32, 0.01, seed=(6, k)) for k in range(313)]
        eps = np.concatenate([b.y - (b.X @ gt.mu_star) * (b.Z @ gt.nu_star) for b in batches])
        assert eps.size >= 10_000
        assert np.var(eps) == pytest.approx(1e-4, rel=0.1)

    def test_seeded_determinism(self):
        gt = generate_ground_truth(50, seed=7)
        a = sample_batch(gt, 8, 0.3, seed=8)
        b = sample_batch(gt, 8, 0.3, seed=8)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Z, b.Z)
        assert np.array_equal(a.y, b.y)

    def test_shapes(self):
        gt = generate_ground_truth(30, seed=9)
        batch = sample_batch(gt, 5, 0.0, seed=10)
        assert batch.X.shape == (5, 30)
        assert batch.Z.shape == (5, 30)
        assert batch.y.shape == (5,)


def initial_state(alpha0=None, norm=1.0, dist_sq=None):
    return RunConfig(alpha0=alpha0, init_norm=norm, init_dist=dist_sq).initial_state()


class TestInitIterates:
    def test_overlap_mode_targets(self):
        gt = generate_ground_truth(200, seed=11)
        mu0, nu0 = init_iterates(gt, initial_state(0.99), seed=12)
        beta0 = np.sqrt(1.0 - 0.99 ** 2)
        for v, star in ((mu0, gt.mu_star), (nu0, gt.nu_star)):
            assert v @ star == pytest.approx(0.99, abs=1e-10)
            assert np.linalg.norm(v - (v @ star) * star) == pytest.approx(beta0, abs=1e-10)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)

    def test_distance_mode_matches_algebra(self):
        # solving (a-1)^2 + b^2 = 0.02 with a^2 + b^2 = 1 gives a = 0.99
        s0 = initial_state(dist_sq=0.02)
        a0, b0 = s0.alpha, s0.beta
        assert a0 == pytest.approx(0.99, abs=1e-12)
        assert b0 == pytest.approx(np.sqrt(1.0 - 0.99 ** 2), abs=1e-12)
        gt = generate_ground_truth(100, seed=13)
        mu0, _ = init_iterates(gt, s0, seed=14)
        assert np.linalg.norm(mu0 - gt.mu_star) ** 2 == pytest.approx(0.02, abs=1e-10)

    def test_perfect_initialization(self):
        gt = generate_ground_truth(40, seed=15)
        mu0, nu0 = init_iterates(gt, initial_state(1.0), seed=16)
        assert np.array_equal(mu0, gt.mu_star)
        assert np.array_equal(nu0, gt.nu_star)

    def test_infeasible_overlap(self):
        with pytest.raises(InfeasibleInitializationError):
            initial_state(1.2, norm=1.0)
        with pytest.raises(InfeasibleInitializationError):
            initial_state(float("nan"))
        with pytest.raises(InfeasibleInitializationError):
            initial_state(0.5, norm=float("nan"))
        with pytest.raises(InfeasibleInitializationError):
            initial_state(0.5, norm=float("inf"))

    def test_infeasible_distance(self):
        with pytest.raises(InfeasibleInitializationError):
            initial_state(dist_sq=5.0, norm=1.0)
        with pytest.raises(InfeasibleInitializationError):
            initial_state(dist_sq=float("nan"))
        with pytest.raises(InfeasibleInitializationError):
            initial_state(dist_sq=0.5, norm=float("inf"))

    def test_nonunit_norm_overlap(self):
        s0 = initial_state(0.5, norm=1.3)
        a0, b0 = s0.alpha, s0.beta
        assert a0 == 0.5
        assert a0 ** 2 + b0 ** 2 == pytest.approx(1.3 ** 2, rel=1e-12)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(2, 300), st.floats(-3.0, 3.0), st.floats(0.0, 3.0),
           st.floats(-3.0, 3.0), st.floats(0.0, 3.0), st.integers(0, 2 ** 32 - 1))
    def test_realizes_any_state(self, d, alpha, beta, talpha, tbeta, seed):
        # per side, error <= 1e-12 (|alpha| + beta) + sqrt(d 5e-324): building
        # mu0 and reading its two dot products round by ~d eps (|alpha| + beta)
        # <= 6.7e-14 (|alpha| + beta) at d = 300, and u's orthogonality to mu*
        # by eps |g| / |g - (g.mu*) mu*| for the Gaussian g it is drawn from;
        # over 20,000 random states the worst was 1.2e-13 (|alpha| + beta), at
        # d = 2 with g nearly along mu*. Products and squares below the normal
        # range round by up to 5e-324 each, so a tiny beta may read as far as
        # sqrt(d 5e-324) (~4e-161) off: a beta of 1e-226 reads as 0
        gt = generate_ground_truth(d, seed)
        s0 = StateVec(alpha, beta, talpha, tbeta)
        s = state_of(*init_iterates(gt, s0, seed + 1), gt)
        underflow = math.sqrt(d * 5e-324)
        for got, want, (a, b) in zip((s.alpha, s.beta, s.talpha, s.tbeta),
                                     (alpha, beta, talpha, tbeta),
                                     ((alpha, beta),) * 2 + ((talpha, tbeta),) * 2):
            assert abs(got - want) <= 1e-12 * (abs(a) + b) + underflow

    def test_seeded_determinism(self):
        gt = generate_ground_truth(60, seed=17)
        a = init_iterates(gt, initial_state(0.9), seed=18)
        b = init_iterates(gt, initial_state(0.9), seed=18)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


# the largest norm whose square is finite, and the next float above it
ROOT_MAX = math.sqrt(np.finfo(float).max)
EXTREMES = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 5e-324, 1e-300, 1e-160, 1e154, ROOT_MAX,
            math.nextafter(ROOT_MAX, math.inf), 1e200, float(np.finfo(float).max),
            math.inf, -math.inf, math.nan)


def setting(moderate):
    return st.sampled_from(EXTREMES) | st.floats() | moderate


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.none() | setting(st.floats(-3.0, 3.0)), st.none() | setting(st.floats(0.0, 5.0)),
       setting(st.floats(0.0, 3.0)))
@example(math.nextafter(ROOT_MAX, math.inf), None, ROOT_MAX)  # a0 ** 2 overflows
@example(0.0, None, 1e-160)  # norm ** 2 is subnormal, and b0 ** 2 would round off
@example(None, 1.0, 1e-200)  # norm ** 2 underflows to 0: no state is at that norm
def test_initial_state_is_feasible_or_typed(alpha0, dist_sq, norm):
    # hypot(a0, b0) = norm to 1e-12 relative, at every norm: |a0| may pass
    # norm by 1e-12 (b0 = 0 then), and the rest rounds by a few eps (the
    # 1e-15). The distance adds the rounding of a0 = (1 + norm^2 - init_dist) / 2,
    # relative to its terms
    try:
        s0 = initial_state(alpha0, norm, dist_sq)
    except (InfeasibleInitializationError, NumericalInputError, ValidationError):
        return
    a0, b0 = s0.alpha, s0.beta
    assert (s0.talpha, s0.tbeta) == (a0, b0)
    assert b0 >= 0
    assert abs(math.hypot(a0, b0) - norm) <= (1e-12 + 1e-15) * norm
    if dist_sq is not None:
        scale = max(1.0, norm)  # keeps every square inside the float range
        b, n = b0 / scale, norm / scale
        gap = ((a0 - 1.0) / scale) ** 2 + b * b - dist_sq / scale ** 2
        assert abs(gap) <= 4e-12 * (1.0 + n * n + dist_sq / scale ** 2)
