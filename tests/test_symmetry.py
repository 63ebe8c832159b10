"""Swapping the two sides is an exact symmetry of both engines.

The map and the prox-linear step treat (mu, X) and (nu, Z) alike, so the
swapped input must give the swapped output. These tests need no oracle:
a formula slip in one side only, copied or not into tests/oracles.py, breaks
the symmetry. Each tolerance is a multiple of EPS = 2^-52 relative to the
largest entry of the output; the swapped run takes the same operations with
some operands in the other order, so it may differ by a few roundings.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from proxtune.model import Batch
from proxtune.predict import in_theory_region, predict_trajectory
from proxtune.simulate import prox_linear_step
from proxtune.state import StateVec

EPS = 2.0 ** -52


def swapped(s):
    return StateVec(s.talpha, s.tbeta, s.alpha, s.beta)


_state = st.builds(StateVec, st.floats(-3.0, 3.0), st.floats(0.0, 3.0),
                   st.floats(-3.0, 3.0), st.floats(0.0, 3.0)).filter(
    lambda s: min(s.L, s.Lt) >= 1e-3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_state, st.integers(2, 499), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 2.0))
def test_map_step_of_swapped_twin_is_swapped(s, d, u, sigma, lift):
    # a point and its side-swapped twin, stepped in one block, at lambda from
    # 1.01x to 101x the smallest value the contraction certificate admits.
    # Tolerance: the twin's grid and fixed point are the point's, bit for
    # bit; its second-order sums are other rows of one matrix-vector
    # product, and steps 3-5 take products of up to five rounded factors in
    # the other order, each then off by at most four roundings. 8 EPS =
    # 1.8e-15 of the largest entry doubles that; measured: at most 5.8e-16
    # (2.6 EPS) over 4,000 draws.
    m = max(1, round(u * d))
    L, Lt = s.L, s.Lt
    jac = 3.0 * L ** 4 + 2.0 * (L * Lt) ** 2 + 3.0 * Lt ** 4
    lam = max(1.0, L * L, Lt * Lt, (2.0 * jac * d / m) ** 0.5) * 1.01 * 10 ** lift
    assert in_theory_region(L * L, Lt * Lt, lam, m / d)
    point, twin = predict_trajectory((s, swapped(s)), 1, d, (m, m), sigma,
                                     (lambda t: lam, lambda t: lam))
    ours, theirs = point.states[1], twin.states[1][[2, 3, 0, 1]]
    assert np.max(np.abs(ours - theirs)) <= 8.0 * EPS * np.max(np.abs(ours))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(2, 119), st.floats(0.0, 1.0), st.floats(-1.0, 2.0),
       st.integers(0, 2 ** 32 - 1))
def test_prox_step_of_swapped_sides_is_swapped(d, u, log_lam, seed):
    # (mu, X) and (nu, Z) swapped give the swapped step. Tolerance: the
    # swapped step sums each entry of A A^T, A^T b and the residual over the
    # two d-blocks in the other order, so K and the right-hand sides move by
    # a few roundings and the step by those times the solve's amplification;
    # over 10,000 such draws (d < 120) the gap stayed within 22 EPS of the
    # step's largest entry, and 64 EPS = 1.4e-14 leaves a 3x margin. A
    # one-sided slip, such as a swapped block of A, is an O(1) gap.
    m = max(1, round(u * d))
    rng = np.random.default_rng(seed)
    X, Z = rng.standard_normal((2, m, d))
    mu, nu = rng.standard_normal((2, d))
    y = rng.standard_normal(m)
    lam = 10.0 ** log_lam
    mu1, nu1 = prox_linear_step(mu, nu, Batch(X=X, Z=Z, y=y), lam)
    nu2, mu2 = prox_linear_step(nu, mu, Batch(X=Z, Z=X, y=y), lam)
    ours, theirs = np.concatenate((mu1, nu1)), np.concatenate((mu2, nu2))
    assert np.max(np.abs(ours - theirs)) <= 64.0 * EPS * np.max(np.abs(ours))
