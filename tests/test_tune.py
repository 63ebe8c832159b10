import numpy as np
import pytest

from proxtune.cli import RunConfig
from proxtune.errors import NoFeasiblePointError, PredictionError, ValidationError
from proxtune.predict import predict_trajectory
from proxtune.state import StateVec
from proxtune.tune import (
    build_report,
    iteration_complexity,
    points,
    recommend,
    sweep,
)


def s0():
    b = np.sqrt(1.0 - 0.99 ** 2)
    return StateVec(0.99, b, 0.99, b)


def constant(lam):
    return RunConfig(lambda0=lam).lambda_schedule()


@pytest.fixture(scope="module")
def coupled_rule_results():
    # m in {4,8,16,32}, coupled rule lam(m) = (1+sigma^2)d/m, low noise
    grid = RunConfig(mode="tune", d=200, sigma=1e-5, m_grid=(4, 8, 16, 32), iters=3000)
    results, failures = sweep(grid)
    assert not failures
    return results


@pytest.fixture(scope="module")
def lambda_grid_results():
    # m = 32, lam in {1,10,100,200}, high noise
    grid = RunConfig(mode="tune", d=200, sigma=0.1, m_grid=(32,), iters=3000,
                     lambda_grid=(1.0, 10.0, 100.0, 200.0))
    results, failures = sweep(grid)
    assert not failures
    return results


class TestSweep:
    def test_single_point_equals_predict(self):
        grid = RunConfig(mode="tune", d=100, sigma=0.05, m_grid=(16,), iters=50,
                         lambda_grid=(40.0,))
        results, failures = sweep(grid)
        assert not failures
        direct = predict_trajectory(s0(), 50, 100, 16, 0.05, constant(40.0))
        assert np.array_equal(results[(16, 40.0)].err_seq, direct.err_seq)

    def test_coupled_rule_points(self):
        grid = RunConfig(mode="tune", d=200, sigma=0.5, m_grid=(4, 8), iters=0)
        assert points(grid) == [(4, 1.25 * 200 / 4), (8, 1.25 * 200 / 8)]

    def test_failures_collected_not_fatal(self):
        # lambda = 5e154 overflows the V3/V4 weight denominators at step 0
        grid = RunConfig(mode="tune", d=100, m=16, sigma=0.0, iters=5,
                         lambda_grid=(40.0, 5e154))
        results, failures = sweep(grid)
        assert list(results) == [(16, 40.0)]
        assert list(failures) == [(16, 5e154)]
        assert isinstance(failures[(16, 5e154)], PredictionError)

    def test_grid_validation(self):
        # a bad setting raises before any step instead of failing every point
        def grid(**settings):
            return RunConfig(**{"mode": "tune", "d": 100, "m": 8, "iters": 5, **settings})

        for bad in (grid(m_grid=(200,)), grid(lambda_grid=(0.0,)),
                    grid(lambda_grid=(float("nan"),)), grid(lambda_grid=(40.0, float("inf"))),
                    grid(iters=-1), grid(sigma=float("inf"), lambda_grid=(40.0,)),
                    grid(schedule="delayed-linear", slope=0.0)):
            with pytest.raises(ValidationError):
                sweep(bad)

    def test_coupled_rule_iteration_complexity_decreases_in_m(self, coupled_rule_results):
        taus = [iteration_complexity(coupled_rule_results[point], 1e-8)
                for point in sorted(coupled_rule_results)]
        assert all(tau is not None for tau in taus)
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_coupled_rule_sample_complexity_near_constant(self, coupled_rule_results):
        samples = [point[0] * iteration_complexity(coupled_rule_results[point], 1e-8)
                   for point in sorted(coupled_rule_results)]
        assert max(samples) <= 3 * min(samples)

    def test_lambda_grid_floor_and_tau_tradeoff(self, lambda_grid_results):
        points = sorted(lambda_grid_results)
        floors = [lambda_grid_results[p].err_seq.min() for p in points]
        assert all(a > b for a, b in zip(floors, floors[1:]))
        # iteration complexity measured to each point's own stagnation
        # level: larger lambda converges more slowly to a lower floor
        taus = [iteration_complexity(lambda_grid_results[p],
                                     2.0 * lambda_grid_results[p].err_seq.min())
                for p in points]
        assert all(tau is not None for tau in taus)
        assert all(a < b for a, b in zip(taus, taus[1:]))

    def test_lambda_grid_only_large_lambda_reaches_tight_target(self, lambda_grid_results):
        rows = build_report(lambda_grid_results, target_err=1e-3)
        reached = {row.lam for row in rows if row.tau is not None}
        assert reached == {100.0, 200.0}


class TestIterationComplexity:
    def test_target_above_start(self):
        traj = predict_trajectory(s0(), 10, 200, 32, 0.1, constant(100.0))
        assert iteration_complexity(traj, 1.0) == 0

    def test_target_below_floor(self):
        traj = predict_trajectory(s0(), 50, 200, 32, 0.1, constant(100.0))
        assert iteration_complexity(traj, 1e-12) is None

    def test_rejects_bad_target(self):
        traj = predict_trajectory(s0(), 1, 200, 32, 0.1, constant(100.0))
        with pytest.raises(ValidationError):
            iteration_complexity(traj, 0.0)

    def test_tau_affine_in_log_target(self):
        # noiseless, lam = C d/m: linear convergence makes tau(target)
        # affine in log(1/target)
        traj = predict_trajectory(s0(), 3000, 128, 32, 0.0,
                                  constant(10.0 * 128 / 32))
        targets = [10.0 ** -k for k in range(4, 13)]
        taus = [iteration_complexity(traj, t) for t in targets]
        assert all(tau is not None for tau in taus)
        x = np.log10([1.0 / t for t in targets])
        y = np.array(taus, dtype=float)
        slope, intercept = np.polyfit(x, y, 1)
        fit = slope * x + intercept
        r2 = 1.0 - np.sum((y - fit) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2 >= 0.99
        assert slope > 0.0


class TestRecommend:
    def test_single_row(self, lambda_grid_results):
        sub = {(32, 100.0): lambda_grid_results[(32, 100.0)]}
        rows = build_report(sub, target_err=1e-3)
        row, _ = recommend(rows, 1e-3, "min-iterations-to-target")
        assert (row.m, row.lam) == (32, 100.0)

    def test_min_iterations_picks_largest_m(self, coupled_rule_results):
        rows = build_report(coupled_rule_results, target_err=1e-8)
        row, _ = recommend(rows, 1e-8, "min-iterations-to-target")
        assert row.m == 32

    def test_min_floor_with_budget_picks_largest_lambda(self, lambda_grid_results):
        rows = build_report(lambda_grid_results, target_err=1e-3)
        row, _ = recommend(rows, 1e-3, "min-floor-subject-to-iteration-budget", budget=3000)
        assert row.lam == 200.0

    def test_min_samples(self, coupled_rule_results):
        rows = build_report(coupled_rule_results, target_err=1e-8)
        row, _ = recommend(rows, 1e-8, "min-samples-to-target")
        by_samples = min(rows, key=lambda row: (row.samples, row.m, row.lam))
        assert (row.m, row.lam) == (by_samples.m, by_samples.lam)

    def test_no_feasible_point(self, lambda_grid_results):
        rows = build_report(lambda_grid_results, target_err=1e-30)
        with pytest.raises(NoFeasiblePointError) as err:
            recommend(rows, 1e-30, "min-iterations-to-target")
        assert err.value.best_floor == min(r.floor for r in rows)
        assert err.value.best_point is not None

    def test_pure_function_of_report(self, lambda_grid_results):
        a = recommend(build_report(lambda_grid_results, 1e-3), 1e-3, "min-iterations-to-target")
        b = recommend(build_report(lambda_grid_results, 1e-3), 1e-3, "min-iterations-to-target")
        assert a == b

    def test_policy_validation(self, lambda_grid_results):
        rows = build_report(lambda_grid_results, target_err=1e-3)
        with pytest.raises(ValidationError):
            recommend(rows, 1e-3, "coolest-point")
        with pytest.raises(ValidationError):
            recommend(rows, 1e-3, "min-floor-subject-to-iteration-budget")


class TestTheorySummary:
    def test_predicted_floor_ratio_between_lambdas(self, lambda_grid_results):
        floor100 = lambda_grid_results[(32, 100.0)].err_seq.min()
        floor200 = lambda_grid_results[(32, 200.0)].err_seq.min()
        assert 1.3 <= floor100 / floor200 <= 3.0
