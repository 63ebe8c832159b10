import numpy as np
import pytest

from proxtune.errors import (
    InfeasibleInitializationError,
    InvalidDimensionError,
    ValidationError,
)
from proxtune.model import (
    InitSpec,
    check_problem,
    generate_ground_truth,
    init_iterates,
    sample_batch,
)
from proxtune.simulate import ExperimentConfig, LambdaSchedule


def config(d=200, m=32, sigma=0.0, lam=100.0):
    return ExperimentConfig(d=d, m=m, sigma=sigma, schedule=LambdaSchedule(lambda0=lam),
                            init=InitSpec(1.0), T=0)


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


class TestExperimentConfig:
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


class TestInitIterates:
    def test_overlap_mode_targets(self):
        gt = generate_ground_truth(200, seed=11)
        mu0, nu0 = init_iterates(gt, InitSpec(0.99), seed=12)
        beta0 = np.sqrt(1.0 - 0.99 ** 2)
        for v, star in ((mu0, gt.mu_star), (nu0, gt.nu_star)):
            assert v @ star == pytest.approx(0.99, abs=1e-10)
            assert np.linalg.norm(v - (v @ star) * star) == pytest.approx(beta0, abs=1e-10)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)

    def test_distance_mode_matches_algebra(self):
        # solving (a-1)^2 + b^2 = 0.02 with a^2 + b^2 = 1 gives a = 0.99
        spec = InitSpec.distance(0.02)
        a0, b0 = spec.state_targets()
        assert a0 == pytest.approx(0.99, abs=1e-12)
        assert b0 == pytest.approx(np.sqrt(1.0 - 0.99 ** 2), abs=1e-12)
        gt = generate_ground_truth(100, seed=13)
        mu0, _ = init_iterates(gt, spec, seed=14)
        assert np.linalg.norm(mu0 - gt.mu_star) ** 2 == pytest.approx(0.02, abs=1e-10)

    def test_perfect_initialization(self):
        gt = generate_ground_truth(40, seed=15)
        mu0, nu0 = init_iterates(gt, InitSpec(1.0), seed=16)
        assert np.array_equal(mu0, gt.mu_star)
        assert np.array_equal(nu0, gt.nu_star)

    def test_infeasible_overlap(self):
        with pytest.raises(InfeasibleInitializationError):
            InitSpec(1.2, norm=1.0).state_targets()
        with pytest.raises(InfeasibleInitializationError):
            InitSpec(float("nan")).state_targets()
        with pytest.raises(InfeasibleInitializationError):
            InitSpec(0.5, norm=float("nan")).state_targets()

    def test_infeasible_distance(self):
        with pytest.raises(InfeasibleInitializationError):
            InitSpec.distance(5.0, norm=1.0).state_targets()
        with pytest.raises(InfeasibleInitializationError):
            InitSpec.distance(float("nan"))

    def test_nonunit_norm_overlap(self):
        spec = InitSpec(0.5, norm=1.3)
        a0, b0 = spec.state_targets()
        assert a0 == 0.5
        assert a0 ** 2 + b0 ** 2 == pytest.approx(1.3 ** 2, rel=1e-12)

    def test_seeded_determinism(self):
        gt = generate_ground_truth(60, seed=17)
        a = init_iterates(gt, InitSpec(0.9), seed=18)
        b = init_iterates(gt, InitSpec(0.9), seed=18)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
