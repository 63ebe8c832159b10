import concurrent.futures
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from proxtune import simulate
from proxtune.cli import RunConfig
from proxtune.errors import (
    NumericalInputError,
    SimulationError,
    SingularSystemError,
    ValidationError,
)
from proxtune.model import generate_ground_truth, init_iterates, sample_batch
from proxtune.simulate import (
    prox_linear_step,
    quartiles,
    run_empirical,
    run_trials,
)
from proxtune.state import StateVec, err_of
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


def config(d, m, sigma=0.0, T=0, lam=100.0, alpha0=1.0, trials=1, seed=0):
    # a serial run unless a test asks for workers
    return RunConfig(d=d, m=m, sigma=sigma, lambda0=lam, alpha0=alpha0, iters=T,
                     trials=trials, seed=seed, parallelism=1)


class TestSchedule:
    def test_constant(self):
        sched = RunConfig(lambda0=7.0).lambda_schedule()
        assert sched(0) == 7.0
        assert sched(10_000) == 7.0

    def test_delayed_linear_offset(self):
        sched = RunConfig(schedule="delayed-linear", lambda0=100.0, t0=1500).lambda_schedule()
        assert sched(0) == 100.0
        assert sched(1500) == 100.0
        assert sched(1501) == 101.0
        assert sched(3000) == 1600.0

    def test_delayed_linear_absolute(self):
        cfg = RunConfig(schedule="delayed-linear", lambda0=100.0, t0=1500,
                        convention="absolute")
        assert cfg.lambda_at(1500) == 100.0
        assert cfg.lambda_at(1501) == 1601.0

    def test_validation(self):
        # the schedule and convention choices are _validate_config's
        # (tests/test_cli.py::test_bad_config_value_rejected)
        with pytest.raises(ValidationError):
            RunConfig(lambda0=0.0).lambda_schedule()
        with pytest.raises(ValidationError):
            RunConfig(schedule="delayed-linear", lambda0=1.0, t0=-1).lambda_schedule()
        with pytest.raises(ValidationError):
            RunConfig(schedule="delayed-linear", lambda0=1.0, t0=0, slope=0.0).lambda_schedule()
        with pytest.raises(ValidationError):
            RunConfig(lambda0=float("nan")).lambda_schedule()
        with pytest.raises(ValidationError):
            RunConfig(schedule="delayed-linear", lambda0=1.0, t0=0,
                      slope=float("nan")).lambda_schedule()
        # an infinite lambda0 or slope is a bad setting too, not a numerical failure
        with pytest.raises(ValidationError):
            RunConfig(lambda0=float("inf")).lambda_schedule()
        with pytest.raises(ValidationError):
            RunConfig(schedule="delayed-linear", lambda0=1.0, t0=0,
                      slope=float("inf")).lambda_schedule()


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
        # the same numpy calls on the same operands give the same bits
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

    def test_rejects_failed_factorization(self):
        # two identical rows of X and of Z give two identical rows of A, and
        # lam m = 2e-300 vanishes against A A^T's entries, so K = [[a, a],
        # [a, a]] in floating point and its Cholesky factorization fails
        from proxtune.model import Batch
        rng = np.random.default_rng(42)
        x, z = rng.standard_normal(5), rng.standard_normal(5)
        batch = Batch(X=np.vstack([x, x]), Z=np.vstack([z, z]), y=np.ones(2))
        mu, nu = rng.standard_normal(5), rng.standard_normal(5)
        with pytest.raises(SingularSystemError,
                           match="Woodbury system solve failed: .*not positive definite"):
            prox_linear_step(mu, nu, batch, 1e-300)

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
        mu0, nu0 = init_iterates(gt, RunConfig(alpha0=0.95).initial_state(), seed=22)
        tr = run_empirical(mu0, nu0, gt, config(30, 5, T=0), np.random.SeedSequence(23))
        assert tr.states.shape == (1, 4)
        assert tr.err[0] == pytest.approx(err_of(StateVec(*tr.states[0])), abs=1e-15)

    def test_record_count_and_err_consistency(self):
        gt = generate_ground_truth(30, seed=24)
        mu0, nu0 = init_iterates(gt, RunConfig(alpha0=0.95).initial_state(), seed=25)
        tr = run_empirical(mu0, nu0, gt, config(30, 5, sigma=0.01, T=20),
                           np.random.SeedSequence(26))
        assert tr.states.shape == (21, 4)
        for t in range(21):
            assert tr.err[t] == pytest.approx(err_of(StateVec(*tr.states[t])), abs=1e-12)

    def test_seeded_determinism(self):
        gt = generate_ground_truth(30, seed=27)
        mu0, nu0 = init_iterates(gt, RunConfig(alpha0=0.95).initial_state(), seed=28)
        a = run_empirical(mu0, nu0, gt, config(30, 5, sigma=0.1, T=15), np.random.SeedSequence(29))
        b = run_empirical(mu0, nu0, gt, config(30, 5, sigma=0.1, T=15), np.random.SeedSequence(29))
        assert np.array_equal(a.err, b.err)

    def test_step_t_draws_from_spawn_key_t(self, monkeypatch):
        # step t's batch comes from the child with spawn key
        # run_ss.spawn_key + (t,), each child used once
        keys = []

        def recording_sample_batch(gt, m, sigma, seed):
            keys.append((seed.entropy, seed.spawn_key))
            return sample_batch(gt, m, sigma, seed)

        monkeypatch.setattr(simulate, "sample_batch", recording_sample_batch)
        gt = generate_ground_truth(30, seed=39)
        mu0, nu0 = init_iterates(gt, RunConfig(alpha0=0.95).initial_state(), seed=40)
        run_ss = np.random.SeedSequence(41, spawn_key=(3, 2))
        run_empirical(mu0, nu0, gt, config(30, 5, sigma=0.1, T=7), run_ss)
        assert keys == [(41, run_ss.spawn_key + (t,)) for t in range(7)]

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
        result = run_trials(config(d, m, lam=10.0 * d / m, alpha0=0.99, T=150,
                                   trials=9, seed=32))
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
        result = run_trials(config(20, 4, 0.05, T=10, lam=20.0, alpha0=0.95, seed=33))
        assert np.array_equal(result.median, result.trajectories[0].err)
        assert np.array_equal(result.q25, result.trajectories[0].err)

    def test_master_seed_determinism(self):
        run = config(20, 4, 0.05, T=10, lam=20.0, alpha0=0.95, trials=3, seed=34)
        a = run_trials(run)
        b = run_trials(run)
        assert np.array_equal(a.median, b.median)
        assert np.array_equal(a.q25, b.q25)
        assert np.array_equal(a.q75, b.q75)

    def test_parallel_matches_serial(self):
        run = config(20, 4, 0.05, T=10, lam=20.0, alpha0=0.95, trials=4, seed=35)
        serial = run_trials(run)
        parallel = run_trials(replace(run, parallelism=2))
        assert np.array_equal(serial.median, parallel.median)

    def test_pool_has_no_more_workers_than_trials(self, monkeypatch):
        # a fork-started pool forks all max_workers at its first submit, so
        # run_trials asks for at most one worker per trial and per CPU, and
        # for no pool at all for one trial; the stand-in pool forks nothing
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
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        run = config(20, 4, 0.05, T=5, lam=20.0, alpha0=0.95, seed=38)
        pooled = run_trials(replace(run, trials=2, parallelism=8))
        assert sizes == [2]
        single = run_trials(replace(run, trials=1, parallelism=8))
        assert sizes == [2]
        assert np.array_equal(pooled.median, run_trials(replace(run, trials=2)).median)
        assert np.array_equal(single.median, run_trials(run).median)
        # and no more than the CPU count, also when parallelism asks for all cores
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        capped = run_trials(replace(run, trials=5, parallelism=8))
        run_trials(replace(run, trials=5, parallelism=0))
        assert sizes == [2, 2, 2]
        assert np.array_equal(capped.median, run_trials(replace(run, trials=5)).median)

    def test_iqr_band_shrinks_with_batch_size(self):
        # fixed lam and t: trial-to-trial spread decreases from m=8 to m=32
        def iqr_mean(m):
            result = run_trials(config(200, m, 0.01, T=250, alpha0=0.99, trials=15, seed=36))
            window = slice(50, 251)
            return np.mean(result.q75[window] - result.q25[window])

        assert iqr_mean(32) < iqr_mean(8)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 64).flatmap(lambda n: hnp.arrays(
        np.float64, (n, 3), elements=st.floats(1e-300, 1e300))))
    def test_quartiles_equal_percentile(self, errs):
        # one sort and numpy's linear rule give np.percentile's values bit for bit
        assert np.array_equal(quartiles(errs), np.percentile(errs, [25, 50, 75], axis=0))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValidationError):
            run_trials(config(20, 4, T=5, lam=20.0, alpha0=0.95, trials=0, seed=37))
