"""Bivariate Gaussian expectations E f(G1^2, G2^2).

The deterministic predictor needs expectations of functions of two
independent centered Gaussians G1 ~ N(0, L^2), G2 ~ N(0, Lt^2), always
rational in the squares. ``ExpectationEngine`` evaluates them. Its
integrand family has denominators D = r1 r2 + r1 G1^2 + r2 G2^2 (or D^2),
and writing 1/D^s = int_0^inf t^(s-1)/(s-1)! exp(-D t) dt factors each
member into closed-form Gaussian moments times a one-dimensional integral.
Composite Gauss-Legendre panels on a geometric grid evaluate that integral
to machine precision uniformly in (r1, r2). Fixed Gauss-Hermite grids lose
accuracy once r1, r2 are small because the integrand develops features on
the scale sqrt(r), far below the Gaussian scale.

A grid (``EngineContext``) is built for a bracket of (r1, r2) and is valid
at every point inside it: one panel [0, lo], where lo is LEAD times the
smallest moment-factor scale at the bracket's upper end, then panels whose
edges lo * (hi/lo)^(k/n) grow geometrically, about panels_per_decade per
decade, up to hi = TAIL / (r1 r2) at the bracket's lower end. The
predictor builds one grid per map step: solve_r builds it for the fixed
point's bracket, iterates on it, and the map step evaluates its kernels
at the solved (r1, r2) on the same grid.

``mc_expect2`` is the plain Monte-Carlo oracle the engine is validated
against.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ValidationError

MC_CHUNK = 1_000_000
# the first panel ends at LEAD times the smallest moment-factor scale; the
# last ends where exp(-r1 r2 t) has decayed to exp(-TAIL) ~ 1e-20
LEAD = 1e-5
TAIL = 46.0


def mc_expect2(f, L, Lt, n_samples, seed=0):
    """Plain Monte-Carlo estimate of E f(G1^2, G2^2) with its standard error."""
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    if L <= 0 or Lt <= 0:
        raise ValidationError("L and Lt must be positive")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        k = min(MC_CHUNK, n_samples - done)
        g1 = (L * rng.standard_normal(k)) ** 2
        g2 = (Lt * rng.standard_normal(k)) ** 2
        v = np.asarray(f(g1, g2), dtype=float)
        total += float(v.sum())
        total_sq += float(v @ v)
        done += k
    mean = total / n_samples
    if n_samples == 1:
        return mean, float("inf")
    var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return mean, math.sqrt(var / n_samples)


def panel_edges(lo, hi, n):
    """The n + 1 edges lo * (hi/lo)^(k/n), k = 0..n, of n geometric panels."""
    return lo * (hi / lo) ** (np.arange(n + 1) / n)


class SecondOrderKernels(NamedTuple):
    """E{r_i^2 * monomial / D^2} building blocks, D = r1 r2 + r1 U1 + r2 U2
    with U_i = G_i^2. Fields s2_* carry a factor r2^2 and s1_* a factor
    r1^2; the suffix names the monomial in (U1, U2)."""

    s2_u2: float
    s2_u1u2sq: float
    s2_u2sq: float
    s2_u1u2: float
    s1_u1: float
    s1_u1squ2: float
    s1_u1sq: float
    s1_u1u2: float


@dataclass(frozen=True)
class EngineContext:
    """Reusable integration grid for one (L, Lt) and a bracket of (r1, r2)."""

    L: float
    Lt: float
    t: np.ndarray
    w: np.ndarray

    @property
    def Lsq(self):
        return self.L * self.L

    @property
    def Ltsq(self):
        return self.Lt * self.Lt


class ExpectationEngine:
    """Machine-precision evaluator for the predictor's rational expectations.

    Each expectation reduces to int_0^inf t^(s-1) exp(-r1 r2 t)
    * prod_i m_i(t) dt where the m_i are closed-form Gaussian moment factors
    (1 + 2 r_i Lsq t)^(-k/2). The integral runs over composite Gauss-Legendre
    panels: one panel [0, t_lo], then geometrically growing panels up to
    where the exponential has decayed below working precision.
    """

    def __init__(self, points_per_panel=16, panels_per_decade=3):
        if points_per_panel < 2:
            raise ValidationError("points_per_panel must be >= 2")
        x, w = leggauss(points_per_panel)
        self._x01 = 0.5 * (x + 1.0)
        self._w01 = 0.5 * w
        self.points_per_panel = int(points_per_panel)
        self.panels_per_decade = panels_per_decade

    def context(self, L, Lt, r1_min, r1_max, r2_min=None, r2_max=None):
        """Build a grid valid for all (r1, r2) inside the given bracket."""
        if r2_min is None:
            r2_min = r1_min
        if r2_max is None:
            r2_max = r1_max
        if min(L, Lt, r1_min, r2_min) <= 0:
            raise ValidationError("L, Lt and the r bracket must be positive")
        scale_min = min(
            1.0 / (2.0 * r1_max * L * L),
            1.0 / (2.0 * r2_max * Lt * Lt),
            1.0 / (r1_max * r2_max),
        )
        lo = LEAD * scale_min
        hi = TAIL / (r1_min * r2_min)
        n_panels = max(1, math.ceil(self.panels_per_decade * math.log10(hi / lo)))
        edges = np.concatenate(([0.0], panel_edges(lo, hi, n_panels)))
        widths = np.diff(edges)
        t = (edges[:-1, None] + widths[:, None] * self._x01[None, :]).ravel()
        w = (widths[:, None] * self._w01[None, :]).ravel()
        return EngineContext(L=float(L), Lt=float(Lt), t=t, w=w)

    def context_at(self, L, Lt, r1, r2):
        return self.context(L, Lt, r1, r1, r2, r2)

    @staticmethod
    def _factors(ctx, r1, r2):
        e1 = 1.0 + (2.0 * r1 * ctx.Lsq) * ctx.t
        e2 = 1.0 + (2.0 * r2 * ctx.Ltsq) * ctx.t
        damp = ctx.w * np.exp((-r1 * r2) * ctx.t) / np.sqrt(e1 * e2)
        return e1, e2, damp

    def v_pair(self, ctx, r1, r2):
        """(V1, V2) = (E r1 r2 U2 / D, E r1 r2 U1 / D); the solver's pair."""
        e1, e2, damp = self._factors(ctx, r1, r2)
        coef = r1 * r2
        v1 = coef * ctx.Ltsq * float(damp @ (1.0 / e2))
        v2 = coef * ctx.Lsq * float(damp @ (1.0 / e1))
        return v1, v2

    def first_order(self, ctx, r1, r2):
        """(V, V1, V2) = E r1 r2 {U1 U2, U2, U1} / D."""
        e1, e2, damp = self._factors(ctx, r1, r2)
        i1 = 1.0 / e1
        i2 = 1.0 / e2
        coef = r1 * r2
        v = coef * ctx.Lsq * ctx.Ltsq * float(damp @ (i1 * i2))
        v1 = coef * ctx.Ltsq * float(damp @ i2)
        v2 = coef * ctx.Lsq * float(damp @ i1)
        return v, v1, v2

    def second_order(self, ctx, r1, r2):
        e1, e2, damp = self._factors(ctx, r1, r2)
        tdamp = damp * ctx.t
        i1 = 1.0 / e1
        i2 = 1.0 / e2
        i1i2 = i1 * i2
        Lsq, Ltsq = ctx.Lsq, ctx.Ltsq
        r1sq, r2sq = r1 * r1, r2 * r2
        return SecondOrderKernels(
            s2_u2=r2sq * Ltsq * float(tdamp @ i2),
            s2_u1u2sq=r2sq * 3.0 * Lsq * Ltsq * Ltsq * float(tdamp @ (i1i2 * i2)),
            s2_u2sq=r2sq * 3.0 * Ltsq * Ltsq * float(tdamp @ (i2 * i2)),
            s2_u1u2=r2sq * Lsq * Ltsq * float(tdamp @ i1i2),
            s1_u1=r1sq * Lsq * float(tdamp @ i1),
            s1_u1squ2=r1sq * 3.0 * Lsq * Lsq * Ltsq * float(tdamp @ (i1i2 * i1)),
            s1_u1sq=r1sq * 3.0 * Lsq * Lsq * float(tdamp @ (i1 * i1)),
            s1_u1u2=r1sq * Lsq * Ltsq * float(tdamp @ i1i2),
        )


@lru_cache(maxsize=None)
def get_engine():
    """The shared engine every prediction evaluates its expectations with."""
    return ExpectationEngine()
