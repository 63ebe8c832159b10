import concurrent.futures

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxtune.errors import (
    NumericalInputError,
    SimulationError,
    SingularSystemError,
    ValidationError,
)
from proxtune.model import (
    InitSpec,
    generate_ground_truth,
    init_iterates,
    sample_batch,
)
from proxtune.simulate import (
    ExperimentConfig,
    LambdaSchedule,
    prox_linear_step,
    run_empirical,
    run_trials,
)
from proxtune.state import err_of
from oracles import dense_oracle, subproblem_objective, woodbury_oracle


@st.composite
def woodbury_cases(draw):
    d = draw(st.integers(2, 64))
    m = draw(st.integers(1, d))
    lam = 10.0 ** draw(st.floats(-1.0, 2.0))
    sigma = draw(st.floats(0.0, 2.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    return d, m, lam, sigma, seed, rng.standard_normal(d), rng.standard_normal(d)


def fixed_woodbury_cases():
    """20 random shapes, then the square m = d = 64, lam = 50 of the
    compare-square benchmark workload."""
    rng = np.random.default_rng(8)
    for trial in range(21):
        if trial < 20:
            d = int(rng.integers(3, 51))
            m, lam = int(rng.integers(1, d + 1)), float(10 ** rng.uniform(-1, 2))
        else:
            d, m, lam = 64, 64, 50.0
        yield d, m, lam, 0.5, trial, rng.standard_normal(d), rng.standard_normal(d)


def with_examples(cases):
    """Run each case as an explicit hypothesis example."""
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


def config(d, m, sigma=0.0, T=0):
    return ExperimentConfig(d=d, m=m, sigma=sigma, schedule=LambdaSchedule(lambda0=100.0),
                            init=InitSpec(1.0), T=T)


class TestLambdaSchedule:
    def test_constant(self):
        sched = LambdaSchedule(lambda0=7.0)
        assert sched.value(0) == 7.0
        assert sched.value(10_000) == 7.0

    def test_delayed_linear_offset(self):
        sched = LambdaSchedule("delayed-linear", 100.0, t0=1500)
        assert sched.value(0) == 100.0
        assert sched.value(1500) == 100.0
        assert sched.value(1501) == 101.0
        assert sched.value(3000) == 1600.0

    def test_delayed_linear_absolute(self):
        sched = LambdaSchedule("delayed-linear", 100.0, t0=1500, convention="absolute")
        assert sched.value(1500) == 100.0
        assert sched.value(1501) == 1601.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            LambdaSchedule(lambda0=0.0)
        with pytest.raises(ValidationError):
            LambdaSchedule("delayed-linear", 1.0, t0=-1)
        with pytest.raises(ValidationError):
            LambdaSchedule("delayed-linear", 1.0, t0=0, slope=0.0)
        with pytest.raises(ValidationError):
            LambdaSchedule(kind="exponential")
        with pytest.raises(ValidationError):
            LambdaSchedule(lambda0=float("nan"))
        with pytest.raises(ValidationError):
            LambdaSchedule("delayed-linear", 1.0, t0=0, slope=float("nan"))


class TestProxLinearStep:
    def test_huge_lambda_pins_center(self):
        rng = np.random.default_rng(0)
        gt = generate_ground_truth(20, seed=1)
        batch = sample_batch(gt, 5, 0.1, seed=2)
        mu = rng.standard_normal(20)
        nu = rng.standard_normal(20)
        mu_p, nu_p = prox_linear_step(mu, nu, batch, lam=1e12)
        assert np.linalg.norm(mu_p - mu) / np.linalg.norm(mu) <= 1e-8
        assert np.linalg.norm(nu_p - nu) / np.linalg.norm(nu) <= 1e-8

    def test_matches_dense_oracle_small(self):
        rng = np.random.default_rng(3)
        gt = generate_ground_truth(3, seed=4)
        batch = sample_batch(gt, 2, 0.2, seed=5)
        mu = rng.standard_normal(3)
        nu = rng.standard_normal(3)
        mu_o, nu_o = dense_oracle(mu, nu, batch, 5.0)
        mu_p, nu_p = prox_linear_step(mu, nu, batch, 5.0)
        assert np.max(np.abs(mu_p - mu_o)) <= 1e-8
        assert np.max(np.abs(nu_p - nu_o)) <= 1e-8

    def test_stationary_at_truth_noiseless(self):
        gt = generate_ground_truth(40, seed=6)
        batch = sample_batch(gt, 10, 0.0, seed=7)
        mu_p, nu_p = prox_linear_step(gt.mu_star, gt.nu_star, batch, lam=50.0)
        assert np.max(np.abs(mu_p - gt.mu_star)) <= 1e-9
        assert np.max(np.abs(nu_p - gt.nu_star)) <= 1e-9

    @with_examples(fixed_woodbury_cases())
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(woodbury_cases())
    def test_woodbury_agrees_with_dense(self, case):
        d, m, lam, sigma, seed, mu, nu = case
        gt = generate_ground_truth(d, seed=(9, seed))
        batch = sample_batch(gt, m, sigma, seed=(10, seed))
        a = prox_linear_step(mu, nu, batch, lam)
        b = dense_oracle(mu, nu, batch, lam)
        assert np.max(np.abs(a[0] - b[0])) <= 1e-8
        assert np.max(np.abs(a[1] - b[1])) <= 1e-8
        # the LAPACK calls are the ones scipy's cho_factor/cho_solve make
        c = woodbury_oracle(mu, nu, batch, lam)
        assert np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1])

    def test_subproblem_objective_decreases(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            d, m, lam = 30, 6, float(10 ** rng.uniform(-1, 2))
            gt = generate_ground_truth(d, seed=(12, trial))
            batch = sample_batch(gt, m, 0.3, seed=(13, trial))
            mu = rng.standard_normal(d)
            nu = rng.standard_normal(d)
            mu_p, nu_p = prox_linear_step(mu, nu, batch, lam)
            at_center = subproblem_objective(mu, nu, batch, lam, mu, nu)
            at_step = subproblem_objective(mu, nu, batch, lam, mu_p, nu_p)
            assert at_step <= at_center * (1.0 + 1e-12) + 1e-12
            # the center objective is the averaged residual itself
            w, wt = batch.X @ mu, batch.Z @ nu
            res = batch.y - w * wt
            assert at_center == pytest.approx(float(res @ res) / m, rel=1e-12)

    def test_rejects_nonfinite(self):
        gt = generate_ground_truth(10, seed=14)
        batch = sample_batch(gt, 3, 0.0, seed=15)
        bad = np.full(10, np.nan)
        with pytest.raises(NumericalInputError):
            prox_linear_step(bad, gt.nu_star, batch, 1.0)

    def test_rejects_bad_lambda(self):
        gt = generate_ground_truth(10, seed=16)
        batch = sample_batch(gt, 3, 0.0, seed=17)
        with pytest.raises(ValidationError):
            prox_linear_step(gt.mu_star, gt.nu_star, batch, 0.0)
        with pytest.raises(ValidationError):
            prox_linear_step(gt.mu_star, gt.nu_star, batch, float("nan"))

    def test_rejects_overflowing_system(self):
        # w = X mu overflows in K's w w^T term, so the Woodbury system is not
        # finite and must fail as a typed error before any factorization
        gt = generate_ground_truth(20, seed=40)
        batch = sample_batch(gt, 4, 0.0, seed=41)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SingularSystemError, match="Woodbury system solve failed"):
            prox_linear_step(np.full(20, 1e160), gt.nu_star, batch, 100.0)

    def test_rejects_overflowing_residual(self):
        # at sigma = 1e200 the right-hand side norm overflows to inf, so the
        # residual check cannot be evaluated and must not pass the step
        gt = generate_ground_truth(20, seed=38)
        batch = sample_batch(gt, 4, 1e200, seed=39)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SingularSystemError, match="not finite"):
            prox_linear_step(gt.mu_star, gt.nu_star, batch, 100.0)

    def test_degenerate_row_is_fine(self):
        # a zero sensing row keeps the system positive definite
        gt = generate_ground_truth(10, seed=18)
        batch = sample_batch(gt, 3, 0.0, seed=19)
        X = batch.X.copy()
        X[0] = 0.0
        from proxtune.model import Batch
        y = (X @ gt.mu_star) * (batch.Z @ gt.nu_star)
        degenerate = Batch(X=X, Z=batch.Z, y=y)
        rng = np.random.default_rng(20)
        mu, nu = rng.standard_normal(10), rng.standard_normal(10)
        a = prox_linear_step(mu, nu, degenerate, 2.0)
        b = dense_oracle(mu, nu, degenerate, 2.0)
        assert np.max(np.abs(a[0] - b[0])) <= 1e-8


class TestRunEmpirical:
    def test_empty_run(self):
        gt = generate_ground_truth(30, seed=21)
        mu0, nu0 = init_iterates(gt, InitSpec(0.95), seed=22)
        tr = run_empirical(mu0, nu0, gt, config(30, 5, T=0), np.random.SeedSequence(23))
        assert len(tr.states) == 1
        assert tr.err[0] == pytest.approx(err_of(tr.states[0]), abs=1e-15)

    def test_record_count_and_err_consistency(self):
        gt = generate_ground_truth(30, seed=24)
        mu0, nu0 = init_iterates(gt, InitSpec(0.95), seed=25)
        tr = run_empirical(mu0, nu0, gt, config(30, 5, sigma=0.01, T=20),
                           np.random.SeedSequence(26))
        assert len(tr.states) == 21
        for t in range(21):
            assert tr.err[t] == pytest.approx(err_of(tr.states[t]), abs=1e-12)

    def test_seeded_determinism(self):
        gt = generate_ground_truth(30, seed=27)
        mu0, nu0 = init_iterates(gt, InitSpec(0.95), seed=28)
        a = run_empirical(mu0, nu0, gt, config(30, 5, sigma=0.1, T=15), np.random.SeedSequence(29))
        b = run_empirical(mu0, nu0, gt, config(30, 5, sigma=0.1, T=15), np.random.SeedSequence(29))
        assert np.array_equal(a.err, b.err)

    def test_failure_carries_iteration_index(self):
        gt = generate_ground_truth(10, seed=30)
        bad = np.full(10, np.nan)
        with pytest.raises(SimulationError) as err:
            run_empirical(bad, gt.nu_star, gt, config(10, 3, T=3), np.random.SeedSequence(31))
        assert err.value.iteration == 0

    def test_noiseless_monotone_decay(self):
        # sigma = 0, lam = 10 d / m: median error decays monotonically and
        # log-linearly until numerical noise
        d, m = 64, 16
        config = ExperimentConfig(d=d, m=m, sigma=0.0,
                                  schedule=LambdaSchedule(lambda0=10.0 * d / m),
                                  init=InitSpec(0.99), T=150)
        result = run_trials(config, n_trials=9, master_seed=32)
        med = result.median
        live = med > 1e-13
        assert np.all(np.diff(med[live]) < 0.0)
        t = np.arange(med.size)[live]
        slope, intercept = np.polyfit(t, np.log(med[live]), 1)
        fit = slope * t + intercept
        ss_res = np.sum((np.log(med[live]) - fit) ** 2)
        ss_tot = np.sum((np.log(med[live]) - np.log(med[live]).mean()) ** 2)
        assert 1.0 - ss_res / ss_tot >= 0.99
        assert slope < 0.0


class TestRunTrials:
    def test_single_trial_aggregate_is_trajectory(self):
        config = ExperimentConfig(d=20, m=4, sigma=0.05,
                                  schedule=LambdaSchedule(lambda0=20.0),
                                  init=InitSpec(0.95), T=10)
        result = run_trials(config, n_trials=1, master_seed=33)
        assert np.array_equal(result.median, result.trajectories[0].err)
        assert np.array_equal(result.q25, result.trajectories[0].err)

    def test_master_seed_determinism(self):
        config = ExperimentConfig(d=20, m=4, sigma=0.05,
                                  schedule=LambdaSchedule(lambda0=20.0),
                                  init=InitSpec(0.95), T=10)
        a = run_trials(config, n_trials=3, master_seed=34)
        b = run_trials(config, n_trials=3, master_seed=34)
        assert np.array_equal(a.median, b.median)
        assert np.array_equal(a.q25, b.q25)
        assert np.array_equal(a.q75, b.q75)

    def test_parallel_matches_serial(self):
        config = ExperimentConfig(d=20, m=4, sigma=0.05,
                                  schedule=LambdaSchedule(lambda0=20.0),
                                  init=InitSpec(0.95), T=10)
        serial = run_trials(config, n_trials=4, master_seed=35, n_jobs=1)
        parallel = run_trials(config, n_trials=4, master_seed=35, n_jobs=2)
        assert np.array_equal(serial.median, parallel.median)

    def test_pool_has_no_more_workers_than_trials(self, monkeypatch):
        # a fork-started pool forks all max_workers at its first submit, so
        # run_trials asks for at most one worker per trial, and for no pool
        # at all for one trial; the stand-in pool forks nothing
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        config = ExperimentConfig(d=20, m=4, sigma=0.05,
                                  schedule=LambdaSchedule(lambda0=20.0),
                                  init=InitSpec(0.95), T=5)
        pooled = run_trials(config, n_trials=2, master_seed=38, n_jobs=8)
        assert sizes == [2]
        single = run_trials(config, n_trials=1, master_seed=38, n_jobs=8)
        assert sizes == [2]
        assert np.array_equal(pooled.median, run_trials(config, 2, 38).median)
        assert np.array_equal(single.median, run_trials(config, 1, 38).median)

    def test_iqr_band_shrinks_with_batch_size(self):
        # fixed lam and t: trial-to-trial spread decreases from m=8 to m=32
        def iqr_mean(m):
            config = ExperimentConfig(d=200, m=m, sigma=0.01,
                                      schedule=LambdaSchedule(lambda0=100.0),
                                      init=InitSpec(0.99), T=250)
            result = run_trials(config, n_trials=15, master_seed=36)
            window = slice(50, 251)
            return np.mean(result.q75[window] - result.q25[window])

        assert iqr_mean(32) < iqr_mean(8)

    def test_rejects_zero_trials(self):
        config = ExperimentConfig(d=20, m=4, sigma=0.0,
                                  schedule=LambdaSchedule(lambda0=20.0),
                                  init=InitSpec(0.95), T=5)
        with pytest.raises(ValidationError):
            run_trials(config, n_trials=0, master_seed=37)
