"""Bivariate Gaussian expectations E f(G1^2, G2^2).

The deterministic predictor needs expectations of functions of two
independent centered Gaussians G1 ~ N(0, L^2), G2 ~ N(0, Lt^2), always
rational in the squares. ``ExpectationEngine`` evaluates them. Its
integrand family has denominators D = r1 r2 + r1 G1^2 + r2 G2^2 (or D^2),
and writing 1/D^s = int_0^inf t^(s-1)/(s-1)! exp(-D t) dt factors each
member into closed-form Gaussian moments times a one-dimensional integral.
Composite Gauss-Legendre panels on a geometric grid evaluate that integral
to machine precision uniformly in (r1, r2). Each panel takes ``LEGENDRE_16``,
numpy's leggauss(16) mapped to [0, 1] and kept as a table, so no prediction
imports numpy.polynomial. Fixed Gauss-Hermite grids lose accuracy once r1, r2
are small because the integrand develops features on the scale sqrt(r), far
below the Gaussian scale.

A grid (``EngineContext``) is valid at every (r1, r2) of a bracket whose
t-span ``bracket_span`` it covers: one panel [0, lo], where lo is LEAD
times the smallest moment-factor scale at the bracket's upper end, then
panels whose edges lo * (hi/lo)^(k/n) grow geometrically, about
panels_per_decade per decade, up to hi = TAIL / (r1 r2) at the bracket's
lower end. A grid is built SLACK times wider than its bracket's span at
each end, so it also covers every nearby bracket with at least
panels_per_decade panels per decade, at any (L, Lt). One grid serves a
trajectory while it covers the bracket: ``context_for`` rebinds the previous
step's grid when it covers the new step's span and overshoots neither end
by more than SLACK^2, and builds a new one otherwise.

The grid is one object per trajectory, rebound in place to each step's
(L, Lt). ``v_pair`` gives the fixed-point solver's pair (V1, V2) from the
moment factors and pair sums at (r1, r2), which it leaves on the grid;
``finish`` then completes every expectation of a map step at that point
from them, without building the factors or the pair sums again. Each kind
of sum is one matrix-vector product: at a few hundred nodes a numpy call
costs more in overhead than in arithmetic. For the same reason the
kernels write into the grid's rows, not into new arrays.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalInputError, ValidationError

# the first panel ends at LEAD times the smallest moment-factor scale; the
# last ends where exp(-r1 r2 t) has decayed to exp(-TAIL) ~ 1e-20
LEAD = 1e-5
TAIL = 46.0
# a new grid spans SLACK times its bracket's t-span beyond each end
SLACK = 2.0
# the panel rule on [0, 1], float for float (0.5 * (x + 1), 0.5 * w) of leggauss(16)
LEGENDRE_16 = (
    np.array([0.005299532504175031, 0.0277124884633837, 0.06718439880608412, 0.1222977958224985,
              0.19106187779867811, 0.2709916111713863, 0.35919822461037054, 0.4524937450811813,
              0.5475062549188188, 0.6408017753896295, 0.7290083888286136, 0.8089381222013219,
              0.8777022041775016, 0.9328156011939159, 0.9722875115366163, 0.994700467495825]),
    np.array([0.013576229705877088, 0.031126761969323728, 0.0475792558412463, 0.062314485627767036,
              0.07479799440828835, 0.08457825969750132, 0.09130170752246182, 0.09472530522753432,
              0.09472530522753432, 0.09130170752246182, 0.08457825969750132, 0.07479799440828835,
              0.062314485627767036, 0.0475792558412463, 0.031126761969323728, 0.013576229705877088]),
)


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


def bracket_span(L, Lt, r_lo, r_hi):
    """The t-span [lo, hi] a grid must cover to be valid at every (r1, r2)
    with r_lo <= r1, r2 <= r_hi."""
    if min(L, Lt, r_lo) <= 0:
        raise ValidationError("L, Lt and the r bracket must be positive")
    lo = LEAD * min(
        1.0 / (2.0 * r_hi * L * L),
        1.0 / (2.0 * r_hi * Lt * Lt),
        1.0 / (r_hi * r_hi),
    )
    hi = TAIL / (r_lo * r_lo) if r_lo * r_lo > 0 else math.inf
    # a grid spans [lo / SLACK, SLACK * hi], with panels per decade of hi/lo
    if not (lo / SLACK > 0.0 and SLACK * hi / (lo / SLACK) < math.inf):
        raise NumericalInputError(f"grid t-span [{lo:g}, {hi:g}] leaves the float range at "
                                  f"L={L:g}, Lt={Lt:g}, r1 >= {r_lo:g}, r2 >= {r_lo:g}")
    return lo, hi


class EngineContext:
    """Integration grid of one trajectory: geometric panels spanning
    [lo, hi] with nodes t and weights w, bound to one (L, Lt) at a time as
    Lsq = L * L and Ltsq = Lt * Lt (``at`` rebinds it in place), and its
    scratch rows. Every kernel call overwrites the rows (kernels return
    Python floats, so no result aliases a row): the seven monomials (i1, i2
    hold e1, e2 until they are inverted in place), damp, sqrt(e1 e2) and
    damp * t, and the views (i1, i1 i2) -> (i1^2, i1^2 i2) and
    (i2, i1 i2) -> (i2^2, i1 i2^2) that take the cubic monomials.

    The rows contract: ``ExpectationEngine.finish`` reads the factors i1, i2,
    damp and the pair sums inv @ damp (``sums``) that the last v_pair left
    at its (r1, r2), so between the two no kernel call or rebind may run."""

    __slots__ = ("Lsq", "Ltsq", "t", "w", "lo", "hi", "mono", "inv", "i1", "i2", "i1i2",
                 "damp", "root", "tdamp", "by_i1", "to_i1", "by_i2", "to_i2", "sums")

    def __init__(self, L, Lt, t, w, lo, hi):
        self.at(L, Lt)
        self.t, self.w, self.lo, self.hi = t, w, lo, hi
        block = np.empty((10, t.size))
        self.i1, self.i2, self.i1i2, *_, self.damp, self.root, self.tdamp = block
        self.mono, self.inv, self.by_i1, self.to_i1, self.by_i2, self.to_i2 = (
            block[:7], block[:2], block[0:3:2], block[3:5], block[1:3], block[5:7])

    def at(self, L, Lt):
        """This grid, bound to (L, Lt)."""
        self.Lsq, self.Ltsq = float(L * L), float(Lt * Lt)
        return self

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
    where the exponential has decayed below working precision. Each panel
    takes rule, a (nodes, weights) pair on [0, 1]: LEGENDRE_16 by default.
    """

    def __init__(self, rule=LEGENDRE_16, panels_per_decade=3):
        self._x01, self._w01 = rule
        self.panels_per_decade = panels_per_decade

    def context(self, L, Lt, r_lo, r_hi):
        """Build a grid valid for all r1, r2 in [r_lo, r_hi], SLACK times
        wider than the bracket's t-span at each end."""
        lo, hi = bracket_span(L, Lt, r_lo, r_hi)
        lo, hi = lo / SLACK, hi * SLACK
        n_panels = max(1, math.ceil(self.panels_per_decade * math.log10(hi / lo)))
        edges = np.concatenate(([0.0], panel_edges(lo, hi, n_panels)))
        widths = np.diff(edges)
        t = (edges[:-1, None] + widths[:, None] * self._x01[None, :]).ravel()
        w = (widths[:, None] * self._w01[None, :]).ravel()
        return EngineContext(L, Lt, t, w, lo, hi)

    def context_for(self, grid, L, Lt, r_lo, r_hi):
        """A grid valid at (L, Lt) for all r1, r2 in [r_lo, r_hi]: grid (the
        previous step's, or None) rebound to (L, Lt) when it covers the
        bracket's t-span, otherwise a new one."""
        lo, hi = bracket_span(L, Lt, r_lo, r_hi)
        if grid is not None and grid.covers(lo, hi):
            return grid.at(L, Lt)
        return self.context(L, Lt, r_lo, r_hi)

    def v_pair(self, ctx, r1, r2):
        """(V1, V2) = (E r1 r2 U2 / D, E r1 r2 U1 / D); the solver's pair.
        Leaves the factors at (r1, r2) in ctx's rows for finish: the
        reciprocals (1/e1, 1/e2) of e_i = 1 + 2 r_i L_i^2 t in inv, the
        damped weights w exp(-r1 r2 t) / sqrt(e1 e2) in damp, inv @ damp in sums."""
        t = ctx.t
        e, e1, e2, damp, root = ctx.inv, ctx.i1, ctx.i2, ctx.damp, ctx.root
        np.multiply(t, 2.0 * r1 * ctx.Lsq, out=e1)
        np.multiply(t, 2.0 * r2 * ctx.Ltsq, out=e2)
        e += 1.0
        np.multiply(t, -r1 * r2, out=damp)
        np.exp(damp, out=damp)
        damp *= ctx.w
        np.multiply(e1, e2, out=root)
        damp /= np.sqrt(root, out=root)
        np.divide(1.0, e, out=e)
        s1, s2 = ctx.sums = (e @ damp).tolist()
        coef = r1 * r2
        return coef * ctx.Ltsq * s2, coef * ctx.Lsq * s1

    @staticmethod
    def finish(ctx, r1, r2):
        """(V, V1, V2, SecondOrderKernels) at (r1, r2): every expectation a
        map step needs, completed from the factors that the v_pair at
        (r1, r2) just left in ctx's rows (see EngineContext for the contract).
        V1 and V2 are v_pair's expressions of its sums, so they equal its
        values bit for bit. The seven monomials i1, i2, i1 i2, i1^2, i1^2 i2,
        i2^2, i1 i2^2 of i_k = 1/e_k fill one block, summed against damp * t
        in one product."""
        damp = ctx.damp
        np.multiply(ctx.i1, ctx.i2, out=ctx.i1i2)
        np.multiply(ctx.by_i1, ctx.i1, out=ctx.to_i1)
        np.multiply(ctx.by_i2, ctx.i2, out=ctx.to_i2)
        s1, s2 = ctx.sums
        np.multiply(damp, ctx.t, out=ctx.tdamp)
        u1, u2, u1u2, u1sq, u1squ2, u2sq, u1u2sq = (ctx.mono @ ctx.tdamp).tolist()
        Lsq, Ltsq = ctx.Lsq, ctx.Ltsq
        coef = r1 * r2
        r1sq, r2sq = r1 * r1, r2 * r2
        return (
            coef * Lsq * Ltsq * float(ctx.i1i2 @ damp),
            coef * Ltsq * s2, coef * Lsq * s1,
            SecondOrderKernels(  # the fields in order
                r2sq * Ltsq * u2, r2sq * 3.0 * Lsq * Ltsq * Ltsq * u1u2sq,
                r2sq * 3.0 * Ltsq * Ltsq * u2sq, r2sq * Lsq * Ltsq * u1u2,
                r1sq * Lsq * u1, r1sq * 3.0 * Lsq * Lsq * Ltsq * u1squ2,
                r1sq * 3.0 * Lsq * Lsq * u1sq, r1sq * Lsq * Ltsq * u1u2),
        )

    def first_order(self, ctx, r1, r2):
        """(V, V1, V2) = E r1 r2 {U1 U2, U2, U1} / D: v_pair, then finish.
        Kept only because the benchmark's tracer wraps it by name."""
        self.v_pair(ctx, r1, r2)
        return self.finish(ctx, r1, r2)[:3]

    def second_order(self, ctx, r1, r2):
        """The SecondOrderKernels: v_pair, then finish. Kept only because
        the benchmark's tracer wraps it by name."""
        self.v_pair(ctx, r1, r2)
        return self.finish(ctx, r1, r2)[3]


@lru_cache(maxsize=None)
def get_engine():
    """The shared engine every prediction evaluates its expectations with."""
    return ExpectationEngine()
