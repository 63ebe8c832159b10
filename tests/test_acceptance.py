"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the heavy experiment reproductions take a few minutes total.
"""

import time
from dataclasses import astuple, replace

import numpy as np
import pytest

from proxtune.cli import RunConfig
from proxtune.expect import get_engine
from proxtune.model import generate_ground_truth, sample_batch
from proxtune.predict import predict_trajectory
from proxtune.simulate import prox_linear_step, run_trials
from proxtune.state import StateVec
from proxtune.tune import iteration_complexity
from oracles import (dense_oracle, kernels_at, map_once, point_block, sandwich_check,
                     solve_at, state_frob_err)

TRUTH = StateVec(1.0, 0.0, 1.0, 0.0)


def local_s0():
    b = np.sqrt(1.0 - 0.99 ** 2)
    return StateVec(0.99, b, 0.99, b)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{name}]: {status} ({detail})")
    assert ok, f"criterion {number} [{name}] failed: {detail}"


def median_errs(run, trials, seed):
    # trials of the RunConfig run, from alpha0 = 0.99 (its default), on all
    # cores: pooled trials are bit-identical to serial ones
    return run_trials(replace(run, trials=trials, seed=seed, parallelism=0)).median


def test_criterion_01_truth_fixed_point():
    start = time.perf_counter()
    worst = 0.0
    for d, m, lam in [(200, 32, 100.0), (500, 50, 200.0), (64, 64, 50.0)]:
        out = map_once(TRUTH, d, m, 0.0, lam)
        worst = max(worst, max(abs(a - b) for a, b in
                               zip(astuple(out), astuple(TRUTH))))
    elapsed = time.perf_counter() - start
    report(1, "truth fixed point", worst <= 1e-9 and elapsed < 1.0,
           f"max component error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_fixed_point_bracket():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    violations = 0
    worst_residual = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 501))
        m = int(rng.integers(1, d + 1))
        L, Lt = rng.uniform(0.2, 3.0, size=2)
        lam = max(1.0, L * L, Lt * Lt) * 10 ** rng.uniform(0.0, 2.0)
        r = solve_at(L, Lt, lam, m / d)
        lo, hi = lam * m / d, 2.0 * lam * m / d
        slack = 1e-9 * hi
        if not (lo - slack <= r.r1 <= hi + slack and lo - slack <= r.r2 <= hi + slack):
            violations += 1
        worst_residual = max(worst_residual, r.residual)
    elapsed = time.perf_counter() - start
    report(2, "fixed-point bracket",
           violations == 0 and worst_residual <= 1e-12 and elapsed < 30.0,
           f"{violations} violations, worst residual {worst_residual:.1e}, {elapsed:.1f}s")


def _mc_kernel_suite(r1, r2, L, Lt, n_samples, seed, chunk=2_000_000):
    """Monte-Carlo means and stderrs for all 11 rational integrands, on a
    common sample pool. Each value is an r-prefactor times a monomial in
    (U1, U2, 1/D), and the prefactors are applied to the sums. The draws come
    in chunks; the monomials are built from shared products over slices of
    ``block`` samples, so the working rows stay in cache."""
    block = 1 << 14
    rng = np.random.default_rng(seed)
    work = np.empty((13, min(block, chunk, n_samples)))
    sums = np.zeros(10)
    sumsq = np.zeros(10)
    done = 0
    while done < n_samples:
        k = min(chunk, n_samples - done)
        z1 = rng.standard_normal(k)
        z2 = rng.standard_normal(k)
        for j in range(0, k, block):
            rows = work[:, :min(block, k - j)]
            # U1, U2, 1/D, then V, V1, V2 and the SecondOrderKernels fields
            # without their prefactors; s1_u1u2 has the monomial u1u2 of s2_u1u2
            (g1, g2, inv, v, v1, v2, s2_u2, s2_u1u2sq, s2_u2sq, u1u2, s1_u1, s1_u1squ2,
             s1_u1sq) = rows
            np.multiply(z1[j:j + g1.size], L, out=g1)
            np.square(g1, out=g1)
            np.multiply(z2[j:j + g2.size], Lt, out=g2)
            np.square(g2, out=g2)
            np.multiply(g1, r1, out=inv)
            inv += r1 * r2
            inv += r2 * g2
            np.divide(1.0, inv, out=inv)
            np.multiply(g1, inv, out=v2)
            np.multiply(g2, inv, out=v1)
            np.multiply(v2, g2, out=v)
            np.multiply(v1, inv, out=s2_u2)
            np.multiply(v2, inv, out=s1_u1)
            np.multiply(v2, v1, out=u1u2)
            np.multiply(v1, v1, out=s2_u2sq)
            np.multiply(v2, v2, out=s1_u1sq)
            np.multiply(u1u2, g2, out=s2_u1u2sq)
            np.multiply(u1u2, g1, out=s1_u1squ2)
            mono = rows[3:]
            sums += mono.sum(axis=1)
            sumsq += np.einsum("ij,ij->i", mono, mono)
        done += k
    pre = np.array([r1 * r2] * 3 + [r2 * r2] * 4 + [r1 * r1] * 4)
    means = np.append(sums, sums[6]) * pre / n_samples
    sumsq = np.append(sumsq, sumsq[6]) * pre * pre
    var = np.maximum(0.0, (sumsq - n_samples * means ** 2) / (n_samples - 1))
    return means, np.sqrt(var / n_samples)


@pytest.mark.slow
def test_criterion_03_quadrature_vs_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    engine = get_engine()
    within = 0
    total = 0
    worst_z = 0.0
    for point in range(50):
        L, Lt = rng.uniform(0.3, 2.5, size=2)
        r1, r2 = 10 ** rng.uniform(-1.0, 1.6, size=2)
        V, V1, V2, k = kernels_at(engine, point_block(engine, L, Lt, r1, r2), L, Lt, r1, r2)
        quad = np.array([V, V1, V2, *k])
        mc, se = _mc_kernel_suite(r1, r2, L, Lt, 10 ** 7, seed=1000 + point)
        z = np.abs(quad - mc) / np.where(se > 0, se, np.inf)
        within += int((z <= 3.0).sum())
        total += z.size
        worst_z = max(worst_z, float(z.max()))
    elapsed = time.perf_counter() - start
    frac = within / total
    report(3, "quadrature vs Monte-Carlo",
           frac >= 0.95 and elapsed < 300.0,
           f"{within}/{total} within 3 stderr ({frac:.1%}), worst z {worst_z:.2f}, {elapsed:.0f}s")


def test_criterion_04_solver_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 51))
        m = int(rng.integers(1, d + 1))
        lam = float(10 ** rng.uniform(-1.0, 2.0))
        gt = generate_ground_truth(d, seed=(40, trial))
        batch = sample_batch(gt, m, 0.3, seed=(41, trial))
        mu = rng.standard_normal(d)
        nu = rng.standard_normal(d)
        a = prox_linear_step(mu, nu, batch, lam)
        b = dense_oracle(mu, nu, batch, lam)
        worst = max(worst, float(np.max(np.abs(a[0] - b[0]))),
                    float(np.max(np.abs(a[1] - b[1]))))
    elapsed = time.perf_counter() - start
    report(4, "Woodbury vs dense", worst <= 1e-8 and elapsed < 10.0,
           f"max component gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_frobenius_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    ratios = []
    for _ in range(10_000):
        beta, tbeta = rng.uniform(0.0, 0.1, size=2)
        L = rng.uniform(0.3, 1.7)
        Lt = rng.uniform(0.3, 1.7)
        s = StateVec(np.sqrt(L ** 2 - beta ** 2) * rng.choice([-1, 1]), beta,
                     np.sqrt(Lt ** 2 - tbeta ** 2) * rng.choice([-1, 1]), tbeta)
        res = sandwich_check(s, state_frob_err(s))
        assert res.applicable
        if not res.within_band:
            report(5, "Frobenius sandwich", False, f"state {s} outside band")
        ratios.append(res.ratio)
    elapsed = time.perf_counter() - start
    lo, hi = min(ratios), max(ratios)
    report(5, "Frobenius sandwich",
           lo >= 0.2 and hi <= 12.5 and elapsed < 5.0,
           f"ratio range [{lo:.3f}, {hi:.3f}], {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_06_low_noise_batch_sweep():
    start = time.perf_counter()
    d, sigma, T, trials = 200, 1e-5, 3000, 10
    worst_gap = 0.0
    taus_pred = []
    taus_emp = []
    for m in (4, 8, 16, 32):
        run = RunConfig(d=d, m=m, sigma=sigma, lambda0=(1.0 + sigma ** 2) * d / m, iters=T)
        traj = predict_trajectory(local_s0(), T, d, m, sigma, run.lambda_schedule())
        med = median_errs(run, trials, seed=(606, m))
        cutoff = np.nonzero(traj.err_seq < 1e-9)[0]
        end = int(cutoff[0]) if cutoff.size else T + 1
        gap = np.max(np.abs(med[:end] - traj.err_seq[:end]) / traj.err_seq[:end])
        worst_gap = max(worst_gap, float(gap))
        taus_pred.append(iteration_complexity(traj, 1e-8))
        hits = np.nonzero(med <= 1e-8)[0]
        taus_emp.append(int(hits[0]) if hits.size else None)
    decreasing = (
        all(t is not None for t in taus_pred)
        and all(t is not None for t in taus_emp)
        and all(a > b for a, b in zip(taus_pred, taus_pred[1:]))
        and all(a > b for a, b in zip(taus_emp, taus_emp[1:]))
    )
    elapsed = time.perf_counter() - start
    report(6, "low-noise batch sweep",
           worst_gap <= 0.25 and decreasing and elapsed < 600.0,
           f"max pre-1e-9 relative gap {worst_gap:.3f}, "
           f"tau(1e-8) pred {taus_pred} emp {taus_emp}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_07_high_noise_lambda_sweep():
    start = time.perf_counter()
    d, sigma, m, T, trials = 200, 0.1, 32, 3000, 30
    worst_gap = 0.0
    emp_floors = []
    pred_floors = {}
    for lam in (1.0, 10.0, 100.0, 200.0):
        run = RunConfig(d=d, m=m, sigma=sigma, lambda0=lam, iters=T)
        traj = predict_trajectory(local_s0(), T, d, m, sigma, run.lambda_schedule())
        med = median_errs(run, trials, seed=(707, int(lam)))
        floor = float(traj.err_seq.min())
        pred_floors[lam] = floor
        prefloor = traj.err_seq > 1.5 * floor
        if prefloor.any():
            gap = np.max(np.abs(med[prefloor] - traj.err_seq[prefloor])
                         / np.maximum(traj.err_seq[prefloor], floor))
            worst_gap = max(worst_gap, float(gap))
        emp_floors.append(float(med.min()))
    floors_decreasing = all(a > b for a, b in zip(emp_floors, emp_floors[1:]))
    ratio = emp_floors[-2] / emp_floors[-1]
    elapsed = time.perf_counter() - start
    report(7, "high-noise step-size sweep",
           worst_gap <= 0.25 and floors_decreasing and 1.3 <= ratio <= 3.0
           and elapsed < 900.0,
           f"max pre-floor relative gap {worst_gap:.3f}, empirical floors "
           f"{[f'{f:.2e}' for f in emp_floors]}, floor(100)/floor(200)={ratio:.2f}, "
           f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_08_delayed_decay_phases():
    start = time.perf_counter()
    d, sigma, T, trials, t0 = 200, 0.01, 3000, 30, 1500
    worst_gap = 0.0
    phases_ok = True
    for m in (8, 16, 32):
        run = RunConfig(d=d, m=m, sigma=sigma, lambda0=100.0, schedule="delayed-linear",
                        t0=t0, slope=1.0, iters=T)
        traj = predict_trajectory(local_s0(), T, d, m, sigma, run.lambda_schedule())
        med = median_errs(run, trials, seed=(808, m))
        floor = float(traj.err_seq.min())
        gap = np.max(np.abs(med - traj.err_seq) / np.maximum(traj.err_seq, floor))
        worst_gap = max(worst_gap, float(gap))
        decay = med[t0] <= 1e-2 * med[0]
        window = med[1100:t0 + 1]
        stagnation = window.max() <= 3.0 * window.min()
        post_decay = med[T] <= 0.5 * med[t0]
        phases_ok = phases_ok and decay and stagnation and post_decay
    elapsed = time.perf_counter() - start
    report(8, "delayed-decay phase structure",
           phases_ok and worst_gap <= 0.3 and elapsed < 900.0,
           f"max relative gap {worst_gap:.3f}, three phases {phases_ok}, {elapsed:.0f}s")


def test_criterion_09_trajectory_speed():
    d, m, sigma = 200, 16, 1e-5
    lam = (1.0 + sigma ** 2) * d / m
    best = np.inf
    for _ in range(2):
        start = time.perf_counter()
        traj = predict_trajectory(local_s0(), 1000, d, m, sigma,
                                  RunConfig(lambda0=lam).lambda_schedule())
        best = min(best, time.perf_counter() - start)
    assert len(traj.states) == 1001
    report(9, "trajectory speed", best < 1.0, f"1000 iterations in {best:.2f}s")


def test_criterion_10_geometric_rate():
    start = time.perf_counter()
    d, m = 128, 32
    traj = predict_trajectory(local_s0(), 2500, d, m, 0.0,
                              RunConfig(lambda0=10.0 * d / m).lambda_schedule())
    err = traj.err_seq
    mask = (err >= 1e-12) & (err <= 1e-2)
    t = np.arange(err.size)[mask]
    y = np.log(err[mask])
    slope, intercept = np.polyfit(t, y, 1)
    fit = slope * t + intercept
    r2 = 1.0 - np.sum((y - fit) ** 2) / np.sum((y - y.mean()) ** 2)
    elapsed = time.perf_counter() - start
    report(10, "geometric rate", r2 >= 0.999 and slope < 0.0 and elapsed < 10.0,
           f"R^2 = {r2:.6f} over {mask.sum()} points, slope {slope:.4f}, {elapsed:.1f}s")
