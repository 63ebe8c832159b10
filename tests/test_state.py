import numpy as np
import pytest

from proxtune.errors import NumericalInputError, ValidationError
from proxtune.model import GroundTruth
from proxtune.state import StateVec, err_of, frob_err, state_of
from oracles import sandwich_check, state_frob_err


def make_gt(d, seed):
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal(d)
    nu = rng.standard_normal(d)
    return GroundTruth(mu / np.linalg.norm(mu), nu / np.linalg.norm(nu))


def orthonormal_to(v, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(v.size)
    g -= (g @ v) * v
    return g / np.linalg.norm(g)


class TestStateOf:
    def test_at_truth(self):
        gt = make_gt(20, 0)
        s = state_of(gt.mu_star, gt.nu_star, gt)
        assert s.alpha == pytest.approx(1.0, abs=1e-12)
        assert s.beta == pytest.approx(0.0, abs=1e-10)
        assert s.talpha == pytest.approx(1.0, abs=1e-12)
        assert s.tbeta == pytest.approx(0.0, abs=1e-10)

    def test_at_antipode(self):
        gt = make_gt(20, 1)
        s = state_of(-gt.mu_star, -gt.nu_star, gt)
        assert s.alpha == pytest.approx(-1.0, abs=1e-12)
        assert s.beta == pytest.approx(0.0, abs=1e-10)

    def test_constructed_overlap(self):
        # mu = 0.99 mu* + sqrt(1 - 0.99^2) u with u unit, orthogonal to mu*
        gt = make_gt(50, 2)
        beta = np.sqrt(1.0 - 0.99 ** 2)
        mu = 0.99 * gt.mu_star + beta * orthonormal_to(gt.mu_star, 3)
        s = state_of(mu, gt.nu_star, gt)
        assert s.alpha == pytest.approx(0.99, abs=1e-12)
        assert s.beta == pytest.approx(beta, abs=1e-12)

    def test_reconstruction_recovers_norm(self):
        rng = np.random.default_rng(4)
        gt = make_gt(30, 5)
        for _ in range(50):
            mu = rng.standard_normal(30)
            nu = rng.standard_normal(30)
            s = state_of(mu, nu, gt)
            assert s.L == pytest.approx(np.linalg.norm(mu), abs=1e-10)
            assert s.Lt == pytest.approx(np.linalg.norm(nu), abs=1e-10)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValidationError):
            StateVec(1.0, -0.1, 1.0, 0.0)


class TestErrOf:
    def test_zero_at_truth(self):
        assert err_of(StateVec(1.0, 0.0, 1.0, 0.0)) == 0.0

    def test_zero_at_sign_flipped_truth(self):
        assert err_of(StateVec(-1.0, 0.0, -1.0, 0.0)) == 0.0

    def test_direct_evaluation(self):
        b = np.sqrt(1.0 - 0.99 ** 2)
        # (0.99^2 - 1)^2 + 2 (1 - 0.99^2) = 0.04019601 by direct algebra
        assert err_of(StateVec(0.99, b, 0.99, b)) == pytest.approx(0.04019601, abs=1e-12)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, ta = rng.normal(size=2)
            b, tb = np.abs(rng.normal(size=2))
            assert err_of(StateVec(a, b, ta, tb)) == err_of(StateVec(-a, b, -ta, tb))

    @pytest.mark.parametrize("s", [StateVec(1e80, 0.0, 1e80, 0.0),  # ** 2 raises
                                   StateVec(0.0, 1e154, 0.0, 1e154)])  # the sum is inf
    def test_overflow_is_typed(self, s):
        with pytest.raises(NumericalInputError, match="error metric err = inf"):
            err_of(s)


class TestFrobErr:
    # frob_err takes the state of (mu, nu); each case extracts it with state_of
    def test_overflow_is_typed(self):
        gt = make_gt(10, 11)
        with pytest.raises(NumericalInputError, match="error metric frob_err = inf"):
            frob_err(state_of(1e80 * gt.mu_star, 1e80 * gt.nu_star, gt))

    def test_zero_at_truth(self):
        gt = make_gt(10, 7)
        assert frob_err(state_of(gt.mu_star, gt.nu_star, gt)) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_truth(self):
        gt = make_gt(10, 8)
        # ||2 mu* nu*^T - mu* nu*^T||_F^2 = ||mu* nu*^T||_F^2 = 1
        s = state_of(2.0 * gt.mu_star, gt.nu_star, gt)
        assert frob_err(s) == pytest.approx(1.0, abs=1e-10)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(9)
        gt = make_gt(5, 10)
        for _ in range(100):
            mu = rng.standard_normal(5)
            nu = rng.standard_normal(5)
            dense = np.linalg.norm(np.outer(mu, nu) - np.outer(gt.mu_star, gt.nu_star)) ** 2
            assert frob_err(state_of(mu, nu, gt)) == pytest.approx(dense, abs=1e-12, rel=1e-12)

    def test_state_identity_matches_vectors(self):
        # the state form against the expansion ||mu||^2 ||nu||^2 - 2 alpha talpha + 1
        # of the vectors themselves
        rng = np.random.default_rng(11)
        gt = make_gt(40, 12)
        for _ in range(100):
            mu = rng.standard_normal(40)
            nu = rng.standard_normal(40)
            s = state_of(mu, nu, gt)
            vectors = (mu @ mu) * (nu @ nu) - 2.0 * (mu @ gt.mu_star) * (nu @ gt.nu_star) + 1.0
            assert frob_err(s) == state_frob_err(s)
            assert frob_err(s) == pytest.approx(vectors, rel=1e-10, abs=1e-10)


def random_state_in_hypotheses(rng):
    beta, tbeta = rng.uniform(0.0, 0.1, size=2)
    L = rng.uniform(0.3, 1.7)
    Lt = rng.uniform(0.3, 1.7)
    alpha = np.sqrt(L ** 2 - beta ** 2) * rng.choice([-1.0, 1.0])
    talpha = np.sqrt(Lt ** 2 - tbeta ** 2) * rng.choice([-1.0, 1.0])
    return StateVec(alpha, beta, talpha, tbeta)


class TestSandwich:
    def test_vacuous_at_truth(self):
        res = sandwich_check(StateVec(1.0, 0.0, 1.0, 0.0), 0.0)
        assert res.applicable and res.within_band

    def test_direct_point(self):
        s = StateVec(np.sqrt(1.0 - 0.1 ** 2) * 0.99 / 0.99, 0.1,
                     np.sqrt(1.0 - 0.1 ** 2), 0.1)
        frob = state_frob_err(s)
        res = sandwich_check(s, frob)
        assert res.applicable and res.within_band
        assert res.ratio == pytest.approx(err_of(s) / frob, rel=1e-12)

    def test_not_applicable_outside_hypotheses(self):
        res = sandwich_check(StateVec(2.0, 0.5, 1.0, 0.0), 1.0)
        assert not res.applicable
        assert res.within_band is None

    def test_band_on_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            s = random_state_in_hypotheses(rng)
            res = sandwich_check(s, state_frob_err(s))
            assert res.applicable and res.within_band
            assert 0.2 <= res.ratio <= 12.5
