import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxtune.errors import ValidationError
from proxtune.expect import (LEGENDRE_16, Block, ExpectationEngine, bracket_span, get_engine,
                             panel_edges)
from oracles import (
    QuadratureRule,
    gauss_expect2,
    kernels_at,
    legendre_rule,
    mc_expect2,
    pair_at,
    point_block,
    point_grid,
    reference_kernels,
    solve_at,
)


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def v_integrand(r1, r2):
    return lambda g1, g2: r1 * r2 * g1 * g2 / (r1 * r2 + r1 * g1 + r2 * g2)


# the 11 rational integrands the predictor consumes, keyed by engine field
def rational_family(r1, r2):
    D = lambda g1, g2: r1 * r2 + r1 * g1 + r2 * g2
    return {
        "V": lambda g1, g2: r1 * r2 * g1 * g2 / D(g1, g2),
        "V1": lambda g1, g2: r1 * r2 * g2 / D(g1, g2),
        "V2": lambda g1, g2: r1 * r2 * g1 / D(g1, g2),
        "s2_u2": lambda g1, g2: r2 ** 2 * g2 / D(g1, g2) ** 2,
        "s2_u1u2sq": lambda g1, g2: r2 ** 2 * g1 * g2 ** 2 / D(g1, g2) ** 2,
        "s2_u2sq": lambda g1, g2: r2 ** 2 * g2 ** 2 / D(g1, g2) ** 2,
        "s2_u1u2": lambda g1, g2: r2 ** 2 * g1 * g2 / D(g1, g2) ** 2,
        "s1_u1": lambda g1, g2: r1 ** 2 * g1 / D(g1, g2) ** 2,
        "s1_u1squ2": lambda g1, g2: r1 ** 2 * g1 ** 2 * g2 / D(g1, g2) ** 2,
        "s1_u1sq": lambda g1, g2: r1 ** 2 * g1 ** 2 / D(g1, g2) ** 2,
        "s1_u1u2": lambda g1, g2: r1 ** 2 * g1 * g2 / D(g1, g2) ** 2,
    }


def engine_values(engine, r1, r2, L, Lt):
    V, V1, V2, k = kernels_at(engine, point_block(engine, L, Lt, r1, r2), L, Lt, r1, r2)
    return {"V": V, "V1": V1, "V2": V2, **k._asdict()}


# the Gauss-Hermite oracle in tests/oracles.py, checked before it is used
# as a reference for the engine
class TestQuadratureRule:
    @pytest.mark.parametrize("folded", [True, False])
    def test_weights_sum_to_one(self, folded):
        rule = QuadratureRule(64, folded=folded)
        assert abs(rule.weights.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("folded", [True, False])
    def test_moment_exactness(self, folded):
        # E G^(2k) = (2k-1)!! for a standard normal, exact up to degree 2n-1
        rule = QuadratureRule(16, folded=folded)
        for k in range(8):
            got = gauss_expect2(lambda g1, g2, k=k: g1 ** k, 1.0, 1.0, rule)
            assert got == pytest.approx(double_factorial(2 * k - 1), rel=1e-12)

    def test_folded_equals_unfolded(self):
        folded = QuadratureRule(64, folded=True)
        unfolded = QuadratureRule(64, folded=False)
        for (r1, r2, L, Lt) in [(16.0, 16.0, 1.0, 1.0), (2.0, 0.5, 1.4, 0.6)]:
            f = v_integrand(r1, r2)
            a = gauss_expect2(f, L, Lt, folded)
            b = gauss_expect2(f, L, Lt, unfolded)
            assert a == pytest.approx(b, rel=1e-13)

    def test_rejects_bad_node_count(self):
        with pytest.raises(ValidationError):
            QuadratureRule(0)


class TestGaussExpect2:
    def test_independent_second_moments(self):
        assert gauss_expect2(lambda g1, g2: g1 * g2, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert gauss_expect2(lambda g1, g2: g1 * g2, 2.0, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_fourth_moment(self):
        assert gauss_expect2(lambda g1, g2: g2 ** 2, 1.0, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_rational_example_vs_mc(self):
        f = v_integrand(16.0, 16.0)
        quad = gauss_expect2(f, 1.0, 1.0)
        mc, se = mc_expect2(f, 1.0, 1.0, 10 ** 7, seed=20)
        assert abs(quad - mc) <= 3.0 * se

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValidationError):
            gauss_expect2(lambda g1, g2: g1, 0.0, 1.0)


class TestMcExpect2:
    def test_constant(self):
        est, se = mc_expect2(lambda g1, g2: np.ones_like(g1), 1.0, 1.0, 10_000, seed=0)
        assert est == 1.0
        assert se == 0.0

    def test_second_moment(self):
        est, se = mc_expect2(lambda g1, g2: g1, 2.0, 1.0, 10 ** 6, seed=1)
        assert abs(est - 4.0) <= 3.0 * se

    def test_seeded_determinism(self):
        f = v_integrand(4.0, 2.0)
        assert mc_expect2(f, 1.0, 1.0, 10_000, seed=2) == mc_expect2(f, 1.0, 1.0, 10_000, seed=2)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            mc_expect2(lambda g1, g2: g1, 1.0, 1.0, 0)


class TestExpectationEngine:
    def test_matches_gauss_hermite_at_moderate_r(self):
        # GH converges once r1, r2 are order one or larger; 256 nodes is
        # plenty there (larger counts overflow the node recurrence)
        engine = get_engine()
        rule = QuadratureRule(256)
        for (r1, r2, L, Lt) in [(16.0, 16.0, 1.0, 1.0), (8.0, 24.0, 1.3, 0.7),
                                (2.0, 3.0, 0.9, 1.1)]:
            vals = engine_values(engine, r1, r2, L, Lt)
            for name, f in rational_family(r1, r2).items():
                gh = gauss_expect2(f, L, Lt, rule)
                assert vals[name] == pytest.approx(gh, rel=1e-12), name

    def test_stored_rule_is_leggauss_16(self):
        # the engine's table holds, float for float, the rule numpy builds,
        # so the shared engine's grids are those of numpy's rule
        nodes, weights = legendre_rule(16)
        assert np.array_equal(LEGENDRE_16[0], nodes)
        assert np.array_equal(LEGENDRE_16[1], weights)
        ctx = get_engine().context(1.0, 0.7, 0.1, 3.0)
        ref = ExpectationEngine(rule=(nodes, weights)).context(1.0, 0.7, 0.1, 3.0)
        assert np.array_equal(ctx.t, ref.t) and np.array_equal(ctx.w, ref.w)

    def test_refinement_stability(self):
        # halving panel size and doubling points changes nothing measurable,
        # including at small r where fixed Gauss-Hermite grids fail
        coarse = ExpectationEngine(rule=legendre_rule(16), panels_per_decade=3)
        fine = ExpectationEngine(rule=legendre_rule(32), panels_per_decade=6)
        for (r1, r2, L, Lt) in [(0.171, 0.171, 1.0, 1.0), (0.05, 0.8, 0.2, 3.0),
                                (16.0, 16.0, 1.0, 1.0), (1e7, 2e7, 0.5, 2.9)]:
            a = engine_values(coarse, r1, r2, L, Lt)
            b = engine_values(fine, r1, r2, L, Lt)
            for name in a:
                assert a[name] == pytest.approx(b[name], rel=1e-12), name

    def test_small_r_vs_mc(self):
        # the regime where the engine must beat plain Gauss-Hermite
        engine = get_engine()
        r1 = r2 = 0.171
        vals = engine_values(engine, r1, r2, 1.0, 1.0)
        for name, f in rational_family(r1, r2).items():
            mc, se = mc_expect2(f, 1.0, 1.0, 2 * 10 ** 6, seed=zlib.crc32(name.encode()))
            assert abs(vals[name] - mc) <= 4.0 * se, name

    def test_node_doubling_invariance_at_experiment_ranges(self):
        # doubling the points per panel moves predictor expectations < 1e-10
        base = get_engine()
        double = ExpectationEngine(rule=legendre_rule(32))
        experiment_points = [
            (16.0, 16.0, 1.0, 1.0),     # lam=100, m=32, d=200
            (0.16, 0.16, 1.0, 1.0),     # lam=1, m=32, d=200
            (1.6, 1.6, 1.0, 1.0),       # lam=10
            (32.0, 32.0, 1.0, 1.0),     # lam=200
            (1.0, 1.0, 0.99, 1.01),     # lam=(1+s^2)d/m coupled rule
        ]
        for (r1, r2, L, Lt) in experiment_points:
            a = engine_values(base, r1, r2, L, Lt)
            b = engine_values(double, r1, r2, L, Lt)
            for name in a:
                assert abs(a[name] - b[name]) <= 1e-10 * max(abs(b[name]), 1e-30), name

    def test_monotone_in_r(self):
        # the V-integrand is pointwise nondecreasing in r1 and r2
        engine = get_engine()
        grid = [0.05, 0.2, 1.0, 5.0, 25.0]
        for L, Lt in [(1.0, 1.0), (0.5, 2.0)]:
            prev_row = None
            for r1 in grid:
                row = []
                prev = None
                for r2 in grid:
                    V, _, _, _ = kernels_at(engine, point_block(engine, L, Lt, r1, r2),
                                            L, Lt, r1, r2)
                    row.append(V)
                    if prev is not None:
                        assert V >= prev - 1e-14
                    prev = V
                if prev_row is not None:
                    assert all(a >= b - 1e-14 for a, b in zip(row, prev_row))
                prev_row = row

    def test_nonnegative_and_bounded(self):
        # integrands are nonnegative; V <= L^2 Lt^2, V1 <= Lt^2, V2 <= L^2
        rng = np.random.default_rng(3)
        engine = get_engine()
        for _ in range(50):
            L, Lt = rng.uniform(0.2, 3.0, size=2)
            r1, r2 = 10 ** rng.uniform(-1.5, 2.0, size=2)
            V, V1, V2, k = kernels_at(engine, point_block(engine, L, Lt, r1, r2), L, Lt, r1, r2)
            assert 0.0 <= V <= L ** 2 * Lt ** 2 * (1 + 1e-12)
            assert 0.0 <= V1 <= Lt ** 2 * (1 + 1e-12)
            assert 0.0 <= V2 <= L ** 2 * (1 + 1e-12)
            assert all(v >= 0.0 for v in k)

    def test_rejects_bad_bracket(self):
        engine = get_engine()
        with pytest.raises(ValidationError):
            engine.context(1.0, 1.0, 0.0, 1.0)

    def test_panel_edges_geometric(self):
        # closed-form edges hit both ends and grow strictly, for lo down to
        # 1e-9 and hi/lo up to 1e14; a context's nodes then increase too
        engine = get_engine()
        rng = np.random.default_rng(11)
        for _ in range(200):
            lo = 10 ** rng.uniform(-9.0, 0.0)
            hi = lo * 10 ** rng.uniform(0.1, 14.0)
            n = int(rng.integers(1, 60))
            edges = panel_edges(lo, hi, n)
            assert edges.shape == (n + 1,)
            assert edges[0] == lo
            assert abs(edges[-1] - hi) <= np.spacing(hi)
            assert np.all(np.diff(edges) > 0)
        for L, Lt, r_lo, r_hi in [(1.0, 1.0, 0.2, 2.0), (3.0, 0.2, 1e-3, 9.0),
                                  (0.2, 0.2, 50.0, 50.1)]:
            t = engine.context(L, Lt, r_lo, r_hi).t
            assert t[0] > 0 and np.all(np.diff(t) > 0)

    def test_bracket_grid_matches_point_grid(self):
        # the map step evaluates its kernels on solve_r's bracket grid; at the
        # solved r that must agree with a grid built for r itself
        engine = get_engine()
        rng = np.random.default_rng(12)
        cases = [(1.0, 1.0, lam, m / 200) for lam in (5.0, 20.0, 100.0, 200.0)
                 for m in (8, 16, 32)]
        for _ in range(100):
            d = int(rng.integers(2, 501))
            L, Lt = rng.uniform(0.2, 3.0, size=2)
            lam = max(1.0, L * L, Lt * Lt) * 10 ** rng.uniform(0.0, 2.5)
            cases.append((L, Lt, lam, int(rng.integers(1, d + 1)) / d))
        for L, Lt, lam, ratio in cases:
            r = solve_at(L, Lt, lam, ratio)
            a = kernels_at(engine, r.block, L, Lt, r.r1, r.r2)
            b = kernels_at(engine, point_block(engine, L, Lt, r.r1, r.r2), L, Lt, r.r1, r.r2)
            for x, y in zip((*a[:3], *a[3]), (*b[:3], *b[3])):
                assert abs(x - y) <= 1e-13 * abs(y), (L, Lt, lam, ratio)

    def test_first_and_second_order_are_views_of_the_fused_pass(self):
        # the two views exist only for the benchmark's tracer
        engine = get_engine()
        rng = np.random.default_rng(13)
        for _ in range(50):
            L, Lt = rng.uniform(0.2, 3.0, size=2)
            r1, r2 = 10 ** rng.uniform(-1.5, 2.0, size=2)
            block, rs, sqs = point_block(engine, L, Lt, r1, r2), ((r1, r2),), ((L * L, Lt * Lt),)
            pair = pair_at(engine, block, L, Lt, r1, r2)
            V, V1, V2, kernels = engine.finish(block, rs, sqs)[0]
            assert pair == (V1, V2)
            assert engine.first_order(block, rs, sqs) == [(V, V1, V2)]
            assert engine.second_order(block, rs, sqs) == [kernels]

    def test_results_survive_later_calls_on_the_grid(self):
        # kernels write into the block's scratch rows and take (L^2, Lt^2)
        # per call, so one grid serves any (L, Lt); results are floats that
        # later calls leave alone, calls at another (L, Lt) and back change
        # nothing, and the rows carry nothing between calls
        engine = get_engine()
        grid = engine.context(1.1, 0.9, 2.0, 4.0)
        block = Block((grid,))
        first = kernels_at(engine, block, 1.1, 0.9, 3.0, 2.5)
        pair = pair_at(engine, block, 1.1, 0.9, 3.0, 2.5)
        assert all(type(x) is float for x in (*first[:3], *first[3], *pair))
        assert engine.context_for(grid, 1.2, 0.8, 2.0, 4.0) is grid
        for r1, r2 in [(2.2, 3.7), (3.9, 2.1), (3.0, 2.5)]:
            kernels_at(engine, block, 1.2, 0.8, r1, r2)
            pair_at(engine, block, 1.2, 0.8, r2, r1)
        assert kernels_at(engine, block, 1.2, 0.8, 3.0, 2.5) != first
        assert kernels_at(engine, block, 1.1, 0.9, 3.0, 2.5) == first
        assert pair_at(engine, block, 1.1, 0.9, 3.0, 2.5) == pair == first[1:3]
        fresh = Block((grid,))
        assert not np.shares_memory(fresh.scratch, block.scratch)
        assert kernels_at(engine, fresh, 1.1, 0.9, 3.0, 2.5) == first
        # the grid is the first row of a wider block; a point re-swept on its
        # own row leaves its factors in the block, and finish gives bit for
        # bit what each grid's own block gives
        other = engine.context(0.7, 1.6, 0.5, 9.0)
        assert other.t.size > grid.t.size
        rs, sqs = ((3.0, 2.5), (4.0, 0.6)), ((1.1 * 1.1, 0.9 * 0.9), (0.7 * 0.7, 1.6 * 1.6))
        wide = Block((grid, other))
        engine.v_pair(wide, ((3.0, 2.5), (1.0, 1.0)), sqs)
        pair_at(engine, wide.rows[1], 0.7, 1.6, 4.0, 0.6)
        assert engine.finish(wide, rs, sqs) == [
            first, kernels_at(engine, Block((other,)), 0.7, 1.6, 4.0, 0.6)]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(-1.5, 2.5),
           st.floats(-1.5, 2.5), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_fused_pass_matches_reference_sums(self, L, Lt, lg1, lg2, u1, u2):
        # the block-of-monomials pass against one dot product per sum, at
        # points on and off the (r1, r2) a point grid was built for
        engine = get_engine()
        r1, r2 = 10 ** lg1, 10 ** lg2
        grid = point_grid(engine, L, Lt, r1, r2)
        block = Block((grid,))
        r1, r2 = r1 * 1.5 ** u1, r2 * 1.5 ** u2
        pair = pair_at(engine, block, L, Lt, r1, r2)
        V, V1, V2, kernels = engine.finish(block, ((r1, r2),), ((L * L, Lt * Lt),))[0]
        ref = reference_kernels(grid, L, Lt, r1, r2)
        for x, y in zip((V, V1, V2, *kernels), (*ref[:3], *ref[3])):
            assert abs(x - y) <= 1e-13 * abs(y)
        assert pair == (V1, V2)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(-1.5, 2.5),
           st.floats(-1.5, 2.5), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_finish_after_v_pair_is_the_fused_pass(self, L, Lt, lg1, lg2, u1, u2):
        # finish completes the expectations from the rows the v_pair just
        # before it filled, whatever an earlier call left there: the same 11
        # values, bit for bit, as on rows no other point has touched, at
        # points on (u = 0) and off the (r1, r2) the grid was built for
        engine = get_engine()
        p1, p2 = 10 ** lg1, 10 ** lg2
        block = point_block(engine, L, Lt, p1, p2)
        r1, r2 = p1 * 1.5 ** u1, p2 * 1.5 ** u2
        kernels_at(engine, block, L, Lt, r2, r1)  # leave other values in the rows
        V1, V2 = pair_at(engine, block, L, Lt, r1, r2)
        V, fV1, fV2, kernels = engine.finish(block, ((r1, r2),), ((L * L, Lt * Lt),))[0]
        fresh = kernels_at(engine, point_block(engine, L, Lt, p1, p2), L, Lt, r1, r2)
        assert (fV1.hex(), fV2.hex()) == (V1.hex(), V2.hex())
        assert [x.hex() for x in (V, V1, V2, *kernels)] == [
            x.hex() for x in (*fresh[:3], *fresh[3])]
        # solve_r's g is g(r) of the (V1, V2) finish gives at its point, bit for bit
        lam, ratio = max(1.0, L * L, Lt * Lt) * 10 ** (lg1 + 1.5), 10 ** (lg2 - 2.5)
        r = solve_at(L, Lt, lam, ratio)
        _, V1, V2, _ = r.expectations
        assert [g.hex() for g in r.g] == [
            (ratio * (lam + V1)).hex(), (ratio * (lam + V2)).hex()]


def _bracket(L, Lt, lam, ratio):
    return lam * ratio, ratio * (lam + max(L * L, Lt * Lt))


class TestGridReuse:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.0, 2.5),
           st.floats(1e-3, 1.0), st.floats(0.9, 1.1), st.floats(0.9, 1.1),
           st.floats(0.8, 1.25), st.floats(0.8, 1.25), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    def test_covered_bracket_reuses_grid(self, L, Lt, lift, ratio, fL, fLt, f_lo, f_hi,
                                         u1, u2):
        # a grid built for one bracket serves a nearby (L, Lt, bracket) that
        # the coverage rule accepts, to the accuracy of a fresh point grid
        engine = get_engine()
        lam = max(1.0, L * L, Lt * Lt) * 10 ** lift
        grid = engine.context(L, Lt, *_bracket(L, Lt, lam, ratio))
        r_lo, r_hi = _bracket(L, Lt, lam, ratio)
        L2, Lt2, r_lo, r_hi = L * fL, Lt * fLt, r_lo * f_lo, r_hi * f_hi
        assume(r_lo <= r_hi and grid.covers(*bracket_span(L2, Lt2, r_lo, r_hi)))
        assert engine.context_for(grid, L2, Lt2, r_lo, r_hi) is grid
        r1, r2 = r_lo + u1 * (r_hi - r_lo), r_lo + u2 * (r_hi - r_lo)
        reused, point = Block((grid,)), point_block(engine, L2, Lt2, r1, r2)
        V, V1, V2, kernels = kernels_at(engine, reused, L2, Lt2, r1, r2)
        fresh = kernels_at(engine, point, L2, Lt2, r1, r2)
        for x, y in zip((V, V1, V2, *kernels), (*fresh[:3], *fresh[3])):
            assert abs(x - y) <= 1e-13 * abs(y)
        for x, y in zip(pair_at(engine, reused, L2, Lt2, r1, r2),
                        pair_at(engine, point, L2, Lt2, r1, r2)):
            assert abs(x - y) <= 1e-13 * abs(y)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.0, 2.5),
           st.floats(1e-3, 1.0), st.floats(0.4, 2.0), st.booleans())
    def test_uncovered_bracket_is_rejected(self, L, Lt, lift, ratio, decades, up):
        # shifting the whole bracket by a factor >= 2.5 moves the span's hi
        # end past the grid or leaves more than SLACK^2 of the grid beyond it
        engine = get_engine()
        lam = max(1.0, L * L, Lt * Lt) * 10 ** lift
        r_lo, r_hi = _bracket(L, Lt, lam, ratio)
        grid = engine.context(L, Lt, r_lo, r_hi)
        f = 10 ** (decades if up else -decades)
        span = bracket_span(L, Lt, r_lo * f, r_hi * f)
        assert not grid.covers(*span)
        rebuilt = engine.context_for(grid, L, Lt, r_lo * f, r_hi * f)
        assert rebuilt.t is not grid.t and rebuilt.covers(*span)

    def test_fresh_grid_covers_its_own_bracket(self):
        engine = get_engine()
        for L, Lt, lam, ratio in [(1.0, 1.0, 100.0, 0.16), (3.0, 0.2, 9.5, 1e-3)]:
            r_lo, r_hi = _bracket(L, Lt, lam, ratio)
            grid = engine.context_for(None, L, Lt, r_lo, r_hi)
            assert grid.covers(*bracket_span(L, Lt, r_lo, r_hi))
