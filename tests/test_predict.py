import math
import zlib
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxtune import predict
from proxtune.errors import NonConvergenceError, PredictionError, ValidationError
from proxtune.cli import RunConfig
from proxtune.expect import ExpectationEngine, get_engine
from proxtune.expect import SecondOrderKernels
from proxtune.predict import (
    EXTRAPOLATION,
    FixedPointR,
    compute_parallel_H,
    compute_V34,
    in_theory_region,
    predict_trajectory,
    solve_eta,
    solve_r,
)
from proxtune.state import StateVec, err_of
from oracles import (
    compute_V,
    kernels_at,
    map_once,
    mc_expect2,
    pair_at,
    point_grid,
    reference_H,
    reference_parallel,
    reference_V34,
    squared_lengths,
)

TRUTH = StateVec(1.0, 0.0, 1.0, 0.0)


def constant(lam):
    return RunConfig(lambda0=lam).lambda_schedule()


def local_state():
    b = np.sqrt(1.0 - 0.99 ** 2)
    return StateVec(0.99, b, 0.99, b)


def point_kernels(r, L, Lt):
    """The SecondOrderKernels at a solved fixed point, on a point grid."""
    engine = get_engine()
    return kernels_at(engine, point_grid(engine, L, Lt, r.r1, r.r2), r.r1, r.r2)[3]


class TestSolveR:
    def test_symmetry(self):
        r = solve_r(1.0, 1.0, 100.0, 0.16)
        assert r.r1 == r.r2

    def test_bracket_at_reference_point(self):
        # d=200, m=32, lam=100: bracket [lam m/d, 2 lam m/d] = [16, 32]
        r = solve_r(1.0, 1.0, 100.0, 32 / 200)
        assert 16.0 <= r.r1 <= 32.0
        assert 16.0 <= r.r2 <= 32.0
        assert r.residual <= 1e-12
        assert in_theory_region(1.0, 1.0, 100.0, 32 / 200)

    def test_self_consistency_with_V(self):
        lam, ratio = 100.0, 32 / 200
        r = solve_r(1.0, 1.0, lam, ratio)
        V, V1, V2 = compute_V(r, 1.0, 1.0)
        assert lam + V1 == pytest.approx(r.r1 / ratio, rel=1e-12)
        assert lam + V2 == pytest.approx(r.r2 / ratio, rel=1e-12)

    def test_fixed_point_satisfies_mc_equations(self):
        # plug the solved point into Monte-Carlo versions of both equations
        lam, ratio = 100.0, 32 / 200
        r = solve_r(1.0, 1.0, lam, ratio)
        f1 = lambda g1, g2: r.r1 * r.r2 * g2 / (r.r1 * r.r2 + r.r1 * g1 + r.r2 * g2)
        f2 = lambda g1, g2: r.r1 * r.r2 * g1 / (r.r1 * r.r2 + r.r1 * g1 + r.r2 * g2)
        e1, se1 = mc_expect2(f1, 1.0, 1.0, 10 ** 7, seed=40)
        e2, se2 = mc_expect2(f2, 1.0, 1.0, 10 ** 7, seed=41)
        assert abs(lam + e1 - r.r1 / ratio) <= 3.0 * se1
        assert abs(lam + e2 - r.r2 / ratio) <= 3.0 * se2

    def test_non_contractive_status_reported(self):
        r = solve_r(1.0, 1.0, 1.0, 0.16)
        assert not in_theory_region(1.0, 1.0, 1.0, 0.16)
        assert r.residual <= 1e-12

    def test_asymmetric_lengths(self):
        r = solve_r(1.4, 0.6, 50.0, 0.1)
        assert r.r1 != r.r2
        assert 5.0 <= min(r.r1, r.r2) and max(r.r1, r.r2) <= 10.0

    def test_validation(self):
        # the bracket's check: L, Lt and lam * ratio must be positive
        with pytest.raises(ValidationError):
            solve_r(0.0, 1.0, 10.0, 0.1)
        with pytest.raises(ValidationError):
            solve_r(1.0, 1.0, -1.0, 0.1)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.0, 1.5),
           st.floats(1e-3, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_warm_start_reaches_cold_start_point(self, L, Lt, lift, ratio, u1, u2):
        # lam from the smallest value in_theory_region admits, lifted up to
        # 1.5 decades; the start anywhere in the bracket solve_r clamps into
        jac = 3.0 * L ** 4 + 2.0 * (L * Lt) ** 2 + 3.0 * Lt ** 4
        lam = max(1.0, L * L, Lt * Lt, (2.0 * jac / ratio) ** 0.5) * 1.0001 * 10 ** lift
        assert in_theory_region(L * L, Lt * Lt, lam, ratio)
        r_lo, r_hi = lam * ratio, ratio * (lam + max(L * L, Lt * Lt))
        start = (r_lo + u1 * (r_hi - r_lo), r_lo + u2 * (r_hi - r_lo))
        cold = solve_r(L, Lt, lam, ratio)
        warm = solve_r(L, Lt, lam, ratio, start=start)
        assert warm.residual <= 1e-12
        assert warm.r1 == pytest.approx(cold.r1, rel=1e-11)
        assert warm.r2 == pytest.approx(cold.r2, rel=1e-11)

    def test_start_outside_bracket_is_clamped(self):
        cold = solve_r(1.0, 1.0, 100.0, 0.16)
        assert solve_r(1.0, 1.0, 100.0, 0.16, start=(cold.r1, cold.r2)).iterations_used == 1
        for start in [(0.0, 0.0), (1e9, 1e9), (1.0, 1e6)]:
            warm = solve_r(1.0, 1.0, 100.0, 0.16, start=start)
            assert warm.residual <= 1e-12
            assert warm.r1 == pytest.approx(cold.r1, rel=1e-11)
            assert warm.r2 == pytest.approx(cold.r2, rel=1e-11)

    def test_residual_is_v_pair_defect_at_returned_point(self):
        # the residual is the defect of the accepted sweep; it must be the
        # defect v_pair gives at the returned point, bit for bit
        engine = get_engine()
        cases = [(1.0, 1.0, 100.0, 0.16, None), (0.7, 1.3, 20.0, 0.04, (0.9, 0.7)),
                 (2.0, 0.5, 50.0, 1.0, (60.0, 40.0)), (1.0, 1.0, 1.0, 0.16, None)]
        for L, Lt, lam, ratio, start in cases:
            r = solve_r(L, Lt, lam, ratio, start=start)
            v1, v2 = pair_at(engine, r.ctx, r.r1, r.r2)
            defect = max(abs(ratio * (lam + v1) - r.r1) / r.r1,
                         abs(ratio * (lam + v2) - r.r2) / r.r2)
            assert r.residual == defect
            assert r.expectations[1:3] == (v1, v2)

    @pytest.mark.parametrize("L, Lt, lam, ratio, start", [
        (77.14612893707567, 0.014077810702599993, 0.013351336823889838, 0.974396335386149, None),
        (0.02843712759411528, 21.446752963656895, 0.00037537599456655493, 0.9701876231279118,
         (2.8034631797696896, 16513.895337631348)),
        (0.0464808797110257, 76.20696952210461, 0.03399082714185809, 0.992299454368054,
         (0.0511071965489222, 1254.9357371426545)),
        (0.0673797273407078, 20.176736061824894, 0.00033496599500362745, 0.9998803533611775,
         (0.0016002628615567852, 0.0005229869151157361)),
    ], ids=["cold", "warm-1", "warm-2", "warm-3"])
    def test_slow_asymmetric_fixed_points_converge(self, L, Lt, lam, ratio, start):
        # far-apart L, Lt and lam far below max(L^2, Lt^2): plain iteration needs
        # ~700-800 sweeps here, within FP_MAX_ITER
        r = solve_r(L, Lt, lam, ratio, start=start)
        assert r.residual <= predict.FP_TOL
        r_lo, r_hi = lam * ratio, ratio * (lam + max(L * L, Lt * Lt))
        assert r_lo <= r.r1 <= r_hi and r_lo <= r.r2 <= r_hi
        cold = solve_r(L, Lt, lam, ratio)
        assert r.r1 == pytest.approx(cold.r1, rel=1e-11)
        assert r.r2 == pytest.approx(cold.r2, rel=1e-11)

    @pytest.mark.parametrize("L, Lt, lam, ratio, start", [
        (50.82612351544256, 0.027368375781141565, 0.00048418876846625795, 0.9814872810778928,
         None),
        (0.012052340263774965, 39.71863402310011, 0.00020836603531943778, 0.993383532061006,
         (25.971890603196904, 2327.703343100179)),
    ], ids=["cold-1039", "warm-2049"])
    def test_slowest_asymmetric_fixed_points_converge(self, L, Lt, lam, ratio, start):
        # plain iteration needs 1,039 and 2,049 sweeps here, within FP_MAX_ITER
        r = solve_r(L, Lt, lam, ratio, start=start)
        assert r.residual <= predict.FP_TOL
        assert r.iterations_used > 1000

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_v_pair_is_isotone(self, log_L, log_Lt, log_r1, log_r2):
        # g(r) = ratio * (lam + V1, lam + V2) is isotone, which is why plain
        # iteration converges; allow a 1e-14 relative rounding margin
        L, Lt, r1, r2 = 10 ** log_L, 10 ** log_Lt, 10 ** log_r1, 10 ** log_r2
        up = 1.0 + 1e-3
        engine = get_engine()
        ctx = engine.context(L, Lt, min(r1, r2), up * max(r1, r2))
        base = pair_at(engine, ctx, r1, r2)
        for moved in (pair_at(engine, ctx, up * r1, r2), pair_at(engine, ctx, r1, up * r2)):
            for v_new, v_old in zip(moved, base):
                assert v_new >= v_old * (1.0 - 1e-14)

    def test_max_iter_exhaustion(self, monkeypatch):
        monkeypatch.setattr(predict, "FP_MAX_ITER", 2)
        with pytest.raises(NonConvergenceError) as err:
            solve_r(1.0, 1.0, 100.0, 0.16)
        assert err.value.iterations == 2
        assert err.value.residual is not None


class TestComputeV:
    def test_large_r_limits(self):
        # r -> inf: V -> L^2 Lt^2, V1 -> Lt^2, V2 -> L^2
        for L, Lt in [(1.0, 1.0), (1.3, 0.8)]:
            r = FixedPointR(1e9, 1e9, 0, 0.0, None, None, None)
            V, V1, V2 = compute_V(r, L, Lt)
            assert V == pytest.approx(L ** 2 * Lt ** 2, rel=1e-6)
            assert V1 == pytest.approx(Lt ** 2, rel=1e-6)
            assert V2 == pytest.approx(L ** 2, rel=1e-6)

    def test_against_mc(self):
        r = FixedPointR(16.0, 16.0, 0, 0.0, None, None, None)
        V, V1, V2 = compute_V(r, 1.0, 1.0)
        fam = {
            "V": (lambda g1, g2: 256.0 * g1 * g2 / (256.0 + 16.0 * g1 + 16.0 * g2), V),
            "V1": (lambda g1, g2: 256.0 * g2 / (256.0 + 16.0 * g1 + 16.0 * g2), V1),
            "V2": (lambda g1, g2: 256.0 * g1 / (256.0 + 16.0 * g1 + 16.0 * g2), V2),
        }
        for name, (f, got) in fam.items():
            est, se = mc_expect2(f, 1.0, 1.0, 10 ** 6, seed=42)
            assert abs(got - est) <= 4.0 * se, name


def theta_route(s, V, V1, V2, lam):
    """Independent arrangement of the parallel prediction via the
    orthonormal-decomposition coefficients."""
    L, Lt = s.L, s.Lt
    Lsq, Ltsq = L * L, Lt * Lt
    cross = s.alpha * s.talpha
    theta1 = L + L * (cross / Lsq - Ltsq) * V / (lam * Lsq * Ltsq + V * (Lsq + Ltsq))
    theta2 = (s.talpha * s.beta) / (Ltsq * L) * V1 / (V1 + lam)
    ttheta1 = Lt + Lt * (cross / Ltsq - Lsq) * V / (lam * Lsq * Ltsq + V * (Lsq + Ltsq))
    ttheta2 = (s.alpha * s.tbeta) / (Lsq * Lt) * V2 / (V2 + lam)
    alpha_det = (s.alpha / L) * theta1 + (s.beta / L) * theta2
    talpha_det = (s.talpha / Lt) * ttheta1 + (s.tbeta / Lt) * ttheta2
    return alpha_det, talpha_det


def compute_parallel(s, V, V1, V2, lam):
    return compute_parallel_H(s, V, V1, V2, lam, squared_lengths(s))[:2]


def compute_H(s, V, V1, V2, lam):
    return compute_parallel_H(s, V, V1, V2, lam, squared_lengths(s))[2:]


def bits(values):
    # float.hex tells -0.0 from 0.0, which == does not
    return [float(v).hex() for v in values]


# a state with L, Lt >= 1e-3, so every map function stays finite
_coord = st.floats(-3.0, 3.0)
_state = st.builds(StateVec, _coord, st.floats(0.0, 3.0), _coord, st.floats(0.0, 3.0)).filter(
    lambda s: min(s.L, s.Lt) >= 1e-3)


class TestParallelAndH:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_state, st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0),
           st.floats(1e-3, 1e4))
    def test_folded_map_matches_separate_formulas(self, s, V, V1, V2, lam):
        # one phi evaluation for both pairs gives the values of the separate
        # parallel and H maps that each evaluated phi, bit for bit
        expected = (*reference_parallel(s, V, V1, V2, lam), *reference_H(s, V, V1, V2, lam))
        assert bits(compute_parallel_H(s, V, V1, V2, lam, squared_lengths(s))) == bits(expected)

    def test_truth_is_fixed(self):
        alpha_det, talpha_det = compute_parallel(TRUTH, 0.8, 0.8, 0.8, 12.5)
        assert alpha_det == 1.0
        assert talpha_det == 1.0
        h, ht = compute_H(TRUTH, 0.8, 0.8, 0.8, 12.5)
        assert h == 0.0
        assert ht == 0.0

    def test_beta_zero_kills_cross_term(self):
        s = StateVec(0.8, 0.0, 0.9, 0.3)
        a1, _ = compute_parallel(s, 0.7, 0.5, 0.6, 10.0)
        a2, _ = compute_parallel(s, 0.7, 5.0, 0.6, 10.0)  # V1 changed
        assert a1 == a2
        h, _ = compute_H(s, 0.7, 0.5, 0.6, 10.0)
        assert h == 0.0

    def test_matches_theta_decomposition(self):
        # same quantities through an independently derived arrangement
        rng = np.random.default_rng(43)
        for _ in range(50):
            s = StateVec(rng.uniform(0.5, 1.2), rng.uniform(0.0, 0.3),
                         rng.uniform(0.5, 1.2), rng.uniform(0.0, 0.3))
            lam = 10 ** rng.uniform(0, 2)
            r = solve_r(s.L, s.Lt, lam, 0.16)
            V, V1, V2 = compute_V(r, s.L, s.Lt)
            lib = compute_parallel(s, V, V1, V2, lam)
            ref = theta_route(s, V, V1, V2, lam)
            assert lib[0] == pytest.approx(ref[0], rel=1e-12)
            assert lib[1] == pytest.approx(ref[1], rel=1e-12)

    def test_theta_route_with_mc_expectations(self):
        # coupled-rule configuration: d=200, m=16, lam=(1+s^2)d/m, sigma=1e-5
        s = local_state()
        lam = (1.0 + 1e-10) * 200 / 16
        r = solve_r(s.L, s.Lt, lam, 16 / 200)
        D = lambda g1, g2: r.r1 * r.r2 + r.r1 * g1 + r.r2 * g2
        V_mc, se_v = mc_expect2(lambda g1, g2: r.r1 * r.r2 * g1 * g2 / D(g1, g2),
                                s.L, s.Lt, 10 ** 6, seed=44)
        V1_mc, se_1 = mc_expect2(lambda g1, g2: r.r1 * r.r2 * g2 / D(g1, g2),
                                 s.L, s.Lt, 10 ** 6, seed=45)
        V2_mc, se_2 = mc_expect2(lambda g1, g2: r.r1 * r.r2 * g1 / D(g1, g2),
                                 s.L, s.Lt, 10 ** 6, seed=46)
        V, V1, V2 = compute_V(r, s.L, s.Lt)
        lib = compute_parallel(s, V, V1, V2, lam)
        ref = theta_route(s, V_mc, V1_mc, V2_mc, lam)
        # sensitivity to each expectation is bounded by ~1/lam
        tol = 4.0 * (se_v + se_1 + se_2) / lam + 1e-12
        assert abs(lib[0] - ref[0]) <= tol
        assert abs(lib[1] - ref[1]) <= tol

    def test_h_bounded_by_beta_in_region(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            beta, tbeta = rng.uniform(0.01, 0.1, size=2)
            alpha, talpha = rng.uniform(0.9, 1.05, size=2)
            s = StateVec(alpha, beta, talpha, tbeta)
            lam = rng.uniform(200.0, 2000.0)
            r = solve_r(s.L, s.Lt, lam, 0.16)
            V, V1, V2 = compute_V(r, s.L, s.Lt)
            h, ht = compute_H(s, V, V1, V2, lam)
            assert abs(h) <= s.beta
            assert abs(ht) <= s.tbeta


class TestComputeV34:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_state, st.floats(0.0, 1.0), st.floats(1e-3, 1e4),
           st.lists(st.floats(0.0, 10.0), min_size=11, max_size=11))
    def test_shared_scalars_match_reference(self, s, sigma, lam, values):
        # the shared squared lengths and weight terms leave (V3, V4) bit for bit
        V, V1, V2, *rest = values
        k = SecondOrderKernels(*rest)
        expected = reference_V34(s, sigma, lam, V, V1, V2, k)
        assert bits(compute_V34(s, sigma, lam, V, V1, V2, k, squared_lengths(s))) == bits(expected)

    def test_structural_zeros_at_truth_noiseless(self):
        r = solve_r(1.0, 1.0, 100.0, 0.16)
        V, V1, V2 = compute_V(r, 1.0, 1.0)
        V3, V4 = compute_V34(TRUTH, 0.0, 100.0, V, V1, V2, point_kernels(r, 1.0, 1.0),
                             squared_lengths(TRUTH))
        assert V3 == 0.0
        assert V4 == 0.0

    def test_noise_term_isolated_at_truth(self):
        # at the truth state only the sigma^2 term survives
        sigma, lam = 0.3, 100.0
        r = solve_r(1.0, 1.0, lam, 0.16)
        V, V1, V2 = compute_V(r, 1.0, 1.0)
        k = point_kernels(r, 1.0, 1.0)
        V3, V4 = compute_V34(TRUTH, sigma, lam, V, V1, V2, k, squared_lengths(TRUTH))
        assert V3 == pytest.approx(sigma ** 2 * k.s2_u2, rel=1e-12)
        assert V4 == pytest.approx(sigma ** 2 * k.s1_u1, rel=1e-12)

    def test_against_mc_at_high_noise_config(self):
        sigma, lam, d, m = 0.1, 100.0, 200, 32
        s = local_state()
        r = solve_r(s.L, s.Lt, lam, m / d)
        V, V1, V2 = compute_V(r, s.L, s.Lt)
        V3, V4 = compute_V34(s, sigma, lam, V, V1, V2, point_kernels(r, s.L, s.Lt),
                             squared_lengths(s))

        # assemble V3, V4 from Monte-Carlo kernel estimates
        Lsq, Ltsq = s.L ** 2, s.Lt ** 2
        cross = s.alpha * s.talpha
        noise_w = sigma ** 2 + (s.beta ** 2 * s.tbeta ** 2) / (Lsq * Ltsq)
        mis_w = lam ** 2 * (cross / (Lsq * Ltsq) - 1.0) ** 2 \
            / (lam + V * (1 / Lsq + 1 / Ltsq)) ** 2
        own3_w = (lam * s.talpha * s.beta) ** 2 / ((lam + V1) ** 2 * Ltsq ** 2 * Lsq)
        mix3_w = (lam * s.alpha * s.tbeta) ** 2 / ((lam + V2) ** 2 * Lsq ** 2 * Ltsq)
        own4_w = (lam * s.alpha * s.tbeta) ** 2 / ((lam + V2) ** 2 * Lsq ** 2 * Ltsq)
        mix4_w = (lam * s.talpha * s.beta) ** 2 / ((lam + V1) ** 2 * Lsq * Ltsq ** 2)
        D = lambda g1, g2: r.r1 * r.r2 + r.r1 * g1 + r.r2 * g2
        kernels = {
            "s2_u2": lambda g1, g2: r.r2 ** 2 * g2 / D(g1, g2) ** 2,
            "s2_u1u2sq": lambda g1, g2: r.r2 ** 2 * g1 * g2 ** 2 / D(g1, g2) ** 2,
            "s2_u2sq": lambda g1, g2: r.r2 ** 2 * g2 ** 2 / D(g1, g2) ** 2,
            "s2_u1u2": lambda g1, g2: r.r2 ** 2 * g1 * g2 / D(g1, g2) ** 2,
            "s1_u1": lambda g1, g2: r.r1 ** 2 * g1 / D(g1, g2) ** 2,
            "s1_u1squ2": lambda g1, g2: r.r1 ** 2 * g1 ** 2 * g2 / D(g1, g2) ** 2,
            "s1_u1sq": lambda g1, g2: r.r1 ** 2 * g1 ** 2 / D(g1, g2) ** 2,
            "s1_u1u2": lambda g1, g2: r.r1 ** 2 * g1 * g2 / D(g1, g2) ** 2,
        }
        est, se = {}, {}
        for name, f in kernels.items():
            est[name], se[name] = mc_expect2(f, s.L, s.Lt, 10 ** 6,
                                             seed=zlib.crc32(name.encode()))
        V3_mc = (noise_w * est["s2_u2"] + mis_w * est["s2_u1u2sq"]
                 + own3_w * est["s2_u2sq"] + mix3_w * est["s2_u1u2"])
        V4_mc = (noise_w * est["s1_u1"] + mis_w * est["s1_u1squ2"]
                 + own4_w * est["s1_u1sq"] + mix4_w * est["s1_u1u2"])
        tol3 = 3.0 * (noise_w * se["s2_u2"] + mis_w * se["s2_u1u2sq"]
                      + own3_w * se["s2_u2sq"] + mix3_w * se["s2_u1u2"])
        tol4 = 3.0 * (noise_w * se["s1_u1"] + mis_w * se["s1_u1squ2"]
                      + own4_w * se["s1_u1sq"] + mix4_w * se["s1_u1u2"])
        assert abs(V3 - V3_mc) <= tol3
        assert abs(V4 - V4_mc) <= tol4

    def test_v4_own_term_denominator(self):
        # the V4 own term divides by L^4 Lt^2 (V3's form with the sides
        # swapped), not the printed Lt^2 L^3; the two differ unless L = 1
        s = StateVec(1.1, 0.2, 0.8, 0.25)
        sigma, lam = 0.1, 50.0
        r = solve_r(s.L, s.Lt, lam, 0.16)
        V, V1, V2 = compute_V(r, s.L, s.Lt)
        k = point_kernels(r, s.L, s.Lt)
        _, V4 = compute_V34(s, sigma, lam, V, V1, V2, k, squared_lengths(s))
        L, Lt = s.L, s.Lt
        noise_w = sigma ** 2 + (s.beta * s.tbeta) ** 2 / (L ** 2 * Lt ** 2)
        mis_w = lam ** 2 * (s.alpha * s.talpha / (L ** 2 * Lt ** 2) - 1.0) ** 2 \
            / (lam + V * (1 / L ** 2 + 1 / Lt ** 2)) ** 2
        own_w = (lam * s.alpha * s.tbeta) ** 2 / ((lam + V2) ** 2 * L ** 4 * Lt ** 2)
        mix_w = (lam * s.talpha * s.beta) ** 2 / ((lam + V1) ** 2 * L ** 2 * Lt ** 4)
        expected = (noise_w * k.s1_u1 + mis_w * k.s1_u1squ2
                    + own_w * k.s1_u1sq + mix_w * k.s1_u1u2)
        assert V4 == pytest.approx(expected, rel=1e-12)
        printed_w = (lam * s.alpha * s.tbeta) ** 2 / ((lam + V2) ** 2 * Lt ** 2 * L ** 3)
        assert abs((printed_w - own_w) * k.s1_u1sq) > 1e-6 * V4


class TestSolveEta:
    def test_zero_sources_give_zero(self):
        r = solve_r(1.0, 1.0, 100.0, 0.16)
        eta_sq, teta_sq = solve_eta(200, 32, 0.0, 0.0, point_kernels(r, 1.0, 1.0))
        assert eta_sq == 0.0
        assert teta_sq == 0.0

    def test_symmetric_case(self):
        r = solve_r(1.0, 1.0, 80.0, 0.1)
        eta_sq, teta_sq = solve_eta(200, 20, 0.004, 0.004, point_kernels(r, 1.0, 1.0))
        assert eta_sq == pytest.approx(teta_sq, rel=1e-12)
        assert eta_sq > 0.0

    def test_solution_satisfies_fixed_point(self):
        d, m = 200, 32
        s = local_state()
        lam = 100.0
        r = solve_r(s.L, s.Lt, lam, m / d)
        V, V1, V2 = compute_V(r, s.L, s.Lt)
        k = point_kernels(r, s.L, s.Lt)
        V3, V4 = compute_V34(s, 0.1, lam, V, V1, V2, k, squared_lengths(s))
        eta_sq, teta_sq = solve_eta(d, m, V3, V4, k)
        kappa = (d - 2) * m / d ** 2
        rhs1 = kappa * (eta_sq * k.s2_u2sq + teta_sq * k.s2_u1u2 + V3)
        rhs2 = kappa * (teta_sq * k.s1_u1sq + eta_sq * k.s1_u1u2 + V4)
        assert eta_sq == pytest.approx(rhs1, rel=1e-10)
        assert teta_sq == pytest.approx(rhs2, rel=1e-10)


class TestDetMap:
    def test_truth_fixed_point(self):
        for d, m, lam in [(200, 32, 100.0), (500, 10, 300.0), (64, 64, 50.0)]:
            out = map_once(TRUTH, d, m, 0.0, lam)
            for a, b in zip(astuple(out), astuple(TRUTH)):
                assert abs(a - b) <= 1e-9

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(2, 1000), st.floats(0.0, 1.0), st.floats(0.0, 2.0))
    def test_truth_is_fixed_point_in_theory_region(self, d, u, lift):
        # sigma = 0: the truth maps to itself at any (d, m, lam) the
        # contraction certificate admits
        m = max(1, round(u * d))
        lam = max(1.0, (16.0 * d / m) ** 0.5) * 1.0001 * 10 ** lift
        assert in_theory_region(1.0, 1.0, lam, m / d)
        out = map_once(TRUTH, d, m, 0.0, lam)
        for a, b in zip(astuple(out), astuple(TRUTH)):
            assert abs(a - b) <= 1e-9

    def test_identity_limit_large_lambda(self):
        s = StateVec(0.95, 0.2, 1.02, 0.15)
        devs = []
        for lam in (1e4, 1e6, 1e8):
            out = map_once(s, 200, 32, 0.05, lam)
            devs.append(max(abs(a - b) for a, b in zip(astuple(out), astuple(s))))
        assert devs[1] <= devs[0] / 50.0
        assert devs[2] <= 1e-6

    def test_noiseless_strict_error_decrease(self):
        # sigma = 0: the predicted error contracts strictly all the way to
        # numerical zero
        traj = predict_trajectory(local_state(), 600, 200, 32, 0.0,
                                  constant(200 / 32))
        err = traj.err_seq
        live = err[:-1] > 1e-14
        assert err[1:][live].shape[0] > 100
        assert np.all(err[1:][live] < err[:-1][live])
        assert err.min() < 1e-14

    def test_validation(self):
        with pytest.raises(ValidationError):
            map_once(StateVec(0.0, 0.0, 1.0, 0.0), 200, 32, 0.0, 100.0)
        # m > d: predict_trajectory checks the problem det_map is given
        with pytest.raises(ValidationError):
            predict_trajectory(TRUTH, 2, 200, 300, 0.0, constant(100.0))
        with pytest.raises(PredictionError):
            predict_trajectory(StateVec(0.0, 0.0, 1.0, 0.0), 2, 200, 32, 0.0,
                               constant(100.0))

    def test_map_quantities_nonnegative(self):
        s, d, m, sigma, lam = local_state(), 200, 32, 0.1, 100.0
        r = solve_r(s.L, s.Lt, lam, m / d)
        V, V1, V2 = compute_V(r, s.L, s.Lt)
        k = point_kernels(r, s.L, s.Lt)
        V3, V4 = compute_V34(s, sigma, lam, V, V1, V2, k, squared_lengths(s))
        eta_sq, teta_sq = solve_eta(d, m, V3, V4, k)
        for val in (V, V1, V2, V3, V4, eta_sq, teta_sq):
            assert val >= 0.0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_state, st.integers(2, 1000), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 2.0))
    def test_map_step_takes_one_squared_length_per_side(self, s, d, u, sigma, lift):
        # det_map against its parts fed L * L and Lt * Lt, the values the grid
        # binds for the kernels, bit for bit: steps 3-5 see the kernels' L^2
        m = max(1, round(u * d))
        L, Lt = s.L, s.Lt
        jac = 3.0 * L ** 4 + 2.0 * (L * Lt) ** 2 + 3.0 * Lt ** 4
        lam = max(1.0, L * L, Lt * Lt, (2.0 * jac * d / m) ** 0.5) * 1.0001 * 10 ** lift
        sq = (L * L, Lt * Lt, s.alpha * s.talpha)
        r = solve_r(L, Lt, lam, m / d)
        V, V1, V2, k = r.expectations
        eta_sq, teta_sq = solve_eta(d, m, *compute_V34(s, sigma, lam, V, V1, V2, k, sq), k)
        a, ta, h, ht = compute_parallel_H(s, V, V1, V2, lam, sq)
        out = map_once(s, d, m, sigma, lam)
        assert (r.ctx.Lsq, r.ctx.Ltsq) == (L * L, Lt * Lt)
        assert bits(astuple(out)) == bits(
            (a, math.sqrt(h * h + eta_sq), ta, math.sqrt(ht * ht + teta_sq)))


class TestPredictTrajectory:
    def test_empty_horizon(self):
        s = local_state()
        traj = predict_trajectory(s, 0, 200, 32, 0.1, constant(100.0))
        assert traj.states.shape == (1, 4)
        assert tuple(traj.states[0]) == astuple(s)
        assert traj.err_seq[0] == pytest.approx(err_of(s), abs=1e-15)

    def test_err_seq_matches_states(self):
        traj = predict_trajectory(local_state(), 40, 200, 32, 0.1, constant(100.0))
        for t, row in enumerate(traj.states):
            assert traj.err_seq[t] == pytest.approx(err_of(StateVec(*row)), abs=1e-15)

    def test_floor_order_anchor(self):
        # sigma=0.1, m=32, lam=100: floor within 5x of sigma^2 d/(lam m)
        traj = predict_trajectory(local_state(), 600, 200, 32, 0.1, constant(100.0))
        anchor = 0.1 ** 2 * 200 / (100.0 * 32)
        floor = traj.err_seq.min()
        assert anchor / 5.0 <= floor <= anchor * 5.0

    def test_theory_flag_false_below_region(self):
        traj = predict_trajectory(local_state(), 5, 200, 32, 0.1, constant(1.0))
        assert not traj.theory_region.any()
        assert not traj.in_region
        certified = predict_trajectory(local_state(), 5, 200, 32, 0.1,
                                       constant(100.0))
        assert certified.in_region

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.sampled_from(["constant", "delayed-linear"]), st.floats(5.0, 300.0),
           st.integers(0, 8), st.floats(0.1, 20.0), st.sampled_from(["offset", "absolute"]),
           st.integers(0, 12), st.sampled_from([8, 16, 32]))
    def test_recorded_schedule_and_certificate(self, kind, lam0, t0, slope, convention, T, m):
        # the loop records the certificate at state t with lambda_t as it goes
        d = 200
        sched = RunConfig(schedule=kind, lambda0=lam0, t0=t0, slope=slope,
                          convention=convention).lambda_schedule()
        traj = predict_trajectory(local_state(), T, d, m, 0.1, sched)
        assert traj.theory_region.dtype == bool
        assert traj.theory_region.tolist() == [
            in_theory_region(s.L * s.L, s.Lt * s.Lt, sched(t), m / d)
            for t, s in enumerate(StateVec(*row) for row in traj.states)]

    def test_schedule_values_recorded(self):
        # step t maps with lambda_t: a delayed-linear schedule's states are
        # the constant schedule's through step t0 = 10 (state 11) and leave
        # them once lambda_11 = 51
        sched = RunConfig(schedule="delayed-linear", lambda0=50.0, t0=10).lambda_schedule()
        traj = predict_trajectory(local_state(), 15, 200, 32, 0.01, sched)
        const = predict_trajectory(local_state(), 15, 200, 32, 0.01, constant(50.0))
        assert np.array_equal(traj.states[:12], const.states[:12])
        assert not np.array_equal(traj.states[12], const.states[12])
        s = map_once(StateVec(*traj.states[11]), 200, 32, 0.01, 51.0)
        assert abs(err_of(s) - traj.err_seq[12]) <= 1e-12 * traj.err_seq[12]

    def test_in_theory_region_helper(self):
        assert in_theory_region(1.0, 1.0, 100.0, 0.16)
        assert not in_theory_region(1.0, 1.0, 1.0, 0.16)
        # lam below max(1, L^2, Lt^2) fails regardless of the bound
        assert not in_theory_region(4.0, 1.0, 3.0, 1.0)

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(st.floats(5e-324, 1.7e308), st.floats(5e-324, 1.7e308),
           st.floats(5e-324, 1.7e308), st.none() | st.floats(-0.5, 2.5),
           st.integers(1, 10 ** 9), st.integers(1, 10 ** 9))
    def test_in_theory_region_is_exact(self, Lsq, Ltsq, lam, lift, m, d):
        # against the certificate in exact rationals of the squared lengths,
        # lam >= 1, L^2, Lt^2 and (3 L^4 + 2 L^2 Lt^2 + 3 Lt^4) / (lam^2 ratio)
        # <= 1/2, over the whole positive float range; a lift puts lam that
        # many decades above max(1, L^2, Lt^2), so both sides of the bound are met
        ratio = min(m, d) / max(m, d)
        if lift is not None:
            lam = max(1.0, Lsq, Ltsq) * 10 ** lift
            assume(lam < math.inf)
        x, y, exact_lam = Fraction(Lsq), Fraction(Ltsq), Fraction(lam)
        gate = exact_lam / max(1, x, y)
        bound = 2 * (3 * x ** 2 + 2 * x * y + 3 * y ** 2) / (exact_lam ** 2 * Fraction(ratio))
        assume(abs(gate - 1) > Fraction(1, 10 ** 12) and abs(bound - 1) > Fraction(1, 10 ** 12))
        assert in_theory_region(Lsq, Ltsq, lam, ratio) == (gate >= 1 and bound <= 1)

    def test_fixed_point_health_per_step(self):
        # the README predict configuration, cut to 300 steps
        cfg = RunConfig(mode="predict", d=200, m=32, sigma=0.01, lambda0=100.0, iters=300)
        traj = predict_trajectory(cfg.initial_state(), cfg.iters, cfg.d, cfg.m,
                                  cfg.sigma, cfg.lambda_schedule())
        assert traj.fp_iterations.shape == traj.fp_residual.shape == (300,)
        assert traj.fp_iterations.dtype.kind == "i"
        assert np.all(traj.fp_iterations >= 1)
        assert np.all(traj.fp_residual <= 3e-14)

    @pytest.mark.parametrize("schedule", [
        constant(20.0),
        RunConfig(schedule="delayed-linear", lambda0=20.0, t0=100, slope=1.0,
                  convention="absolute").lambda_schedule(),
    ], ids=["constant", "delayed-linear-absolute"])
    def test_warm_trajectory_matches_cold_steps(self, schedule):
        # extrapolated starts and a reused grid against a midpoint start and
        # a fresh grid on every step
        d, m, sigma, T = 200, 16, 0.1, 250
        warm = predict_trajectory(local_state(), T, d, m, sigma, schedule)
        s = local_state()
        for t in range(T):
            s = map_once(s, d, m, sigma, schedule(t))
            for a, b in zip(warm.states[t + 1], astuple(s)):
                assert abs(a - b) <= 1e-12 * abs(b), t

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=len(EXTRAPOLATION)))
    def test_extrapolation_rows_are_exact_on_polynomials(self, coefs):
        # row k, applied to p(k), p(k - 1), ..., p(0), gives p(k + 1) exactly
        # for every integer polynomial p of degree <= k
        def p(x):
            return sum(c * x ** j for j, c in enumerate(coefs))

        for k in range(len(coefs) - 1, len(EXTRAPOLATION)):
            row = EXTRAPOLATION[k]
            assert len(row) == k + 1
            assert sum(w * p(k - i) for i, w in enumerate(row)) == p(k + 1)

    def test_one_grid_and_few_sweeps_per_step(self, monkeypatch):
        calls = {"context": 0, "v_pair": 0}

        def counted(name):
            original = getattr(ExpectationEngine, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ExpectationEngine, name, counted(name))
        d, m, sigma, T = 200, 16, 0.1, 1000
        predict_trajectory(local_state(), T, d, m, sigma,
                           constant((1.0 + sigma ** 2) * d / m))
        assert calls["context"] == 1
        assert calls["v_pair"] <= 1.2 * T
