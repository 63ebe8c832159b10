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

A grid (``EngineContext``) is valid at every (r1, r2) of a bracket whose
t-span ``bracket_span`` it covers: one panel [0, lo], where lo is LEAD
times the smallest moment-factor scale at the bracket's upper end, then
panels whose edges lo * (hi/lo)^(k/n) grow geometrically, about
panels_per_decade per decade, up to hi = TAIL / (r1 r2) at the bracket's
lower end. A grid is built SLACK times wider than its bracket's span at
each end, so it also covers every nearby bracket with at least
panels_per_decade panels per decade, at any (L, Lt). One grid serves a
trajectory while it covers the bracket: ``context_for`` hands the previous
step's grid on when it covers the new step's span and overshoots neither
end by more than SLACK^2, and builds a new one otherwise. ``map_kernels``
evaluates every expectation of a map step in one pass over the grid, with
each kind of sum taken as one matrix-vector product: at a few hundred nodes
a numpy call costs more in overhead than in arithmetic.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NumericalInputError, ValidationError

# the first panel ends at LEAD times the smallest moment-factor scale; the
# last ends where exp(-r1 r2 t) has decayed to exp(-TAIL) ~ 1e-20
LEAD = 1e-5
TAIL = 46.0
# a new grid spans SLACK times its bracket's t-span beyond each end
SLACK = 2.0


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


def bracket_span(L, Lt, r1_min, r1_max, r2_min, r2_max):
    """The t-span [lo, hi] a grid must cover to be valid at every (r1, r2)
    with r1_min <= r1 <= r1_max and r2_min <= r2 <= r2_max."""
    if min(L, Lt, r1_min, r2_min) <= 0:
        raise ValidationError("L, Lt and the r bracket must be positive")
    lo = LEAD * min(
        1.0 / (2.0 * r1_max * L * L),
        1.0 / (2.0 * r2_max * Lt * Lt),
        1.0 / (r1_max * r2_max),
    )
    hi = TAIL / (r1_min * r2_min) if r1_min * r2_min > 0 else math.inf
    # a grid spans [lo / SLACK, SLACK * hi], with panels per decade of hi/lo
    if not (lo / SLACK > 0.0 and SLACK * hi / (lo / SLACK) < math.inf):
        raise NumericalInputError(f"grid t-span [{lo:g}, {hi:g}] leaves the float range at "
                                  f"L={L:g}, Lt={Lt:g}, r1 >= {r1_min:g}, r2 >= {r2_min:g}")
    return lo, hi


@dataclass(frozen=True)
class EngineContext:
    """Integration grid at one (L, Lt); its geometric panels span
    [lo, hi]."""

    L: float
    Lt: float
    t: np.ndarray
    w: np.ndarray
    lo: float
    hi: float

    @property
    def Lsq(self):
        return self.L * self.L

    @property
    def Ltsq(self):
        return self.Lt * self.Lt

    def covers(self, lo, hi):
        """Whether this grid serves a bracket of t-span [lo, hi]: it contains
        the span and overshoots neither end by more than SLACK^2."""
        return lo / SLACK ** 2 <= self.lo <= lo and hi <= self.hi <= hi * SLACK ** 2


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
        """Build a grid valid for all (r1, r2) inside the given bracket, SLACK
        times wider than its t-span at each end."""
        if r2_min is None:
            r2_min = r1_min
        if r2_max is None:
            r2_max = r1_max
        lo, hi = bracket_span(L, Lt, r1_min, r1_max, r2_min, r2_max)
        lo, hi = lo / SLACK, hi * SLACK
        n_panels = max(1, math.ceil(self.panels_per_decade * math.log10(hi / lo)))
        edges = np.concatenate(([0.0], panel_edges(lo, hi, n_panels)))
        widths = np.diff(edges)
        t = (edges[:-1, None] + widths[:, None] * self._x01[None, :]).ravel()
        w = (widths[:, None] * self._w01[None, :]).ravel()
        return EngineContext(L=float(L), Lt=float(Lt), t=t, w=w, lo=lo, hi=hi)

    def context_for(self, grid, L, Lt, r_lo, r_hi):
        """A grid valid at (L, Lt) for all r1, r2 in [r_lo, r_hi]: grid (the
        previous step's, or None) at the new (L, Lt) when it covers the
        bracket's t-span, otherwise a new one."""
        lo, hi = bracket_span(L, Lt, r_lo, r_hi, r_lo, r_hi)
        if grid is not None and grid.covers(lo, hi):
            return EngineContext(float(L), float(Lt), grid.t, grid.w, grid.lo, grid.hi)
        return self.context(L, Lt, r_lo, r_hi)

    @staticmethod
    def _factors(ctx, r1, r2, inv=None):
        # the reciprocals (1/e1, 1/e2) of e_i = 1 + 2 r_i L_i^2 t, written
        # into inv when given, and the damped weights w exp(-r1 r2 t) / sqrt(e1 e2)
        t = ctx.t
        e = t * np.array([[2.0 * r1 * ctx.Lsq], [2.0 * r2 * ctx.Ltsq]])
        e += 1.0
        damp = np.exp((-r1 * r2) * t)
        damp *= ctx.w
        damp /= np.sqrt(e[0] * e[1])
        return np.divide(1.0, e, out=inv), damp

    @staticmethod
    def _first_sums(ctx, r1, r2, inv, damp):  # (V1, V2), for v_pair and map_kernels
        s1, s2 = (inv @ damp).tolist()
        coef = r1 * r2
        return coef * ctx.Ltsq * s2, coef * ctx.Lsq * s1

    def v_pair(self, ctx, r1, r2):
        """(V1, V2) = (E r1 r2 U2 / D, E r1 r2 U1 / D); the solver's pair."""
        return self._first_sums(ctx, r1, r2, *self._factors(ctx, r1, r2))

    def map_kernels(self, ctx, r1, r2):
        """(V, V1, V2, SecondOrderKernels) at (r1, r2) from one pass over the
        grid: every expectation a map step needs. V1 and V2 are v_pair's
        expressions, so they equal v_pair's values bit for bit. The seven
        monomials i1, i2, i1 i2, i1^2, i1^2 i2, i2^2, i1 i2^2 of i_k = 1/e_k
        fill one block, summed against damp * t in one product."""
        mono = np.empty((7, ctx.t.size))
        inv, damp = self._factors(ctx, r1, r2, mono[:2])
        np.multiply(mono[0], mono[1], out=mono[2])
        np.multiply(mono[0:3:2], mono[0], out=mono[3:5])
        np.multiply(mono[1:3], mono[1], out=mono[5:7])
        u1, u2, u1u2, u1sq, u1squ2, u2sq, u1u2sq = (mono @ (damp * ctx.t)).tolist()
        Lsq, Ltsq = ctx.Lsq, ctx.Ltsq
        r1sq, r2sq = r1 * r1, r2 * r2
        return (
            r1 * r2 * Lsq * Ltsq * float(mono[2] @ damp),
            *self._first_sums(ctx, r1, r2, inv, damp),
            SecondOrderKernels(
                s2_u2=r2sq * Ltsq * u2,
                s2_u1u2sq=r2sq * 3.0 * Lsq * Ltsq * Ltsq * u1u2sq,
                s2_u2sq=r2sq * 3.0 * Ltsq * Ltsq * u2sq,
                s2_u1u2=r2sq * Lsq * Ltsq * u1u2,
                s1_u1=r1sq * Lsq * u1,
                s1_u1squ2=r1sq * 3.0 * Lsq * Lsq * Ltsq * u1squ2,
                s1_u1sq=r1sq * 3.0 * Lsq * Lsq * u1sq,
                s1_u1u2=r1sq * Lsq * Ltsq * u1u2,
            ),
        )

    def first_order(self, ctx, r1, r2):
        """(V, V1, V2) = E r1 r2 {U1 U2, U2, U1} / D; a view of map_kernels."""
        return self.map_kernels(ctx, r1, r2)[:3]

    def second_order(self, ctx, r1, r2):
        """The SecondOrderKernels; a view of map_kernels."""
        return self.map_kernels(ctx, r1, r2)[3]


@lru_cache(maxsize=None)
def get_engine():
    """The shared engine every prediction evaluates its expectations with."""
    return ExpectationEngine()
