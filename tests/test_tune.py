from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxtune.cli import RunConfig
from proxtune.errors import NoFeasiblePointError, PredictionError, ValidationError
from proxtune import predict
from proxtune.expect import Block, ExpectationEngine, Grid
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


TRAJECTORY_FIELDS = ("states", "err_seq", "theory_region", "fp_iterations", "fp_residual")


def sweep_matches_points(config):
    """sweep(config), after checking that each point's outcome is the one its
    own predict_trajectory call gives: the same arrays bit for bit, or the
    same PredictionError step, message and cause."""
    results, failures = sweep(config)
    assert len(results) + len(failures) == len(points(config))
    for m, lam in points(config):
        schedule = replace(config, lambda0=lam).lambda_schedule()
        try:
            alone = predict_trajectory(config.initial_state(), config.iters, config.d, m,
                                       config.sigma, schedule)
        except PredictionError as exc:
            got = failures[(m, lam)]
            assert (got.step, str(got), type(got.__cause__)) == (
                exc.step, str(exc), type(exc.__cause__))
        else:
            got = results[(m, lam)]
            for name in TRAJECTORY_FIELDS:
                assert getattr(got, name).tobytes() == getattr(alone, name).tobytes(), name
    return results, failures


# lambda0 up to 1e154 and a slope of 1e153 overflow the V3/V4 weights at
# steps that differ by lambda0; a small initial norm grows each grid
@st.composite
def lockstep_sweeps(draw):
    m_grid = draw(st.lists(st.sampled_from([4, 8, 16, 32]), min_size=1, max_size=3,
                           unique=True))
    lambda_grid = draw(st.lists(
        st.sampled_from([0.5, 5.0, 20.0, 100.0, 1e150, 5e153, 1e154]),
        min_size=max(1, -(-2 // len(m_grid))), max_size=12 // len(m_grid), unique=True))
    norm = draw(st.sampled_from([0.05, 1.0, 3.0]))
    return RunConfig(mode="tune", d=draw(st.sampled_from([40, 100, 200])),
                     sigma=draw(st.sampled_from([0.0, 0.01, 0.3])),
                     m_grid=tuple(m_grid), lambda_grid=tuple(lambda_grid),
                     schedule=draw(st.sampled_from(["constant", "delayed-linear"])),
                     t0=draw(st.integers(0, 5)), slope=draw(st.sampled_from([1.0, 1e153])),
                     iters=draw(st.integers(0, 30)), init_norm=norm, alpha0=0.5 * norm)


class TestLockstep:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(lockstep_sweeps())
    def test_sweep_equals_each_points_own_trajectory(self, config):
        sweep_matches_points(config)

    def test_failing_points_keep_their_step_and_the_rest_run_on(self):
        config = RunConfig(mode="tune", d=100, sigma=0.1, m_grid=(8, 32), iters=12,
                           lambda_grid=(20.0, 5e153, 1e154), schedule="delayed-linear",
                           t0=2, slope=1e153)
        results, failures = sweep_matches_points(config)
        assert sorted({exc.step for exc in failures.values()}) == [6, 11]
        assert sorted(results) == [(8, 20.0), (32, 20.0)]

    def test_rebuilt_grid_outgrows_the_block(self, monkeypatch):
        # from norm 0.05 the lengths grow, so the rebuilt grids take more nodes
        widths = []

        def recorded(grids):
            block = Block(grids)
            widths.append(block.t.shape[-1])
            return block

        monkeypatch.setattr(predict, "Block", recorded)
        config = RunConfig(mode="tune", d=200, sigma=0.01, m_grid=(8, 32), iters=200,
                           lambda_grid=(5.0, 100.0), init_norm=0.05, alpha0=0.025)
        results, failures = sweep_matches_points(config)
        assert len(results) == 4 and not failures
        assert any(b > a for a, b in zip(widths, widths[1:]))

    def test_sweep_scratch_rows_are_its_blocks(self, monkeypatch):
        # the grids a sweep builds hold only their nodes and weights; the
        # scratch rows every kernel call writes are its blocks', one
        # (10, N, n) array per block, of which each point's one-row block
        # views the columns of its own nodes
        grids, blocks = [], []
        context = ExpectationEngine.context

        def built(engine, *args):
            grids.append(context(engine, *args))
            return grids[-1]

        def recorded(point_grids):
            blocks.append(Block(point_grids))
            return blocks[-1]

        monkeypatch.setattr(ExpectationEngine, "context", built)
        monkeypatch.setattr(predict, "Block", recorded)
        config = RunConfig(mode="tune", d=200, sigma=0.01, m_grid=(8, 32), iters=200,
                           lambda_grid=(5.0, 100.0), init_norm=0.05, alpha0=0.025)
        results, failures = sweep(config)
        assert len(results) == 4 and not failures and len(blocks) > 1
        for grid in grids:
            held = [getattr(grid, name) for name in Grid.__slots__]
            arrays = [x for x in held if isinstance(x, np.ndarray)]
            assert len(arrays) == 2 and arrays[0] is grid.t and arrays[1] is grid.w
        for block in blocks:
            assert set(block.grids) <= set(grids)
            width = max(grid.t.size for grid in block.grids)
            assert block.scratch.shape == (10, len(block.grids), width)
            for grid, row in zip(block.grids, block.rows):
                assert row.scratch.shape == (10, 1, grid.t.size)
                assert np.shares_memory(row.scratch, block.scratch)
            assert not any(np.shares_memory(grid.t, block.scratch) for grid in grids)


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
