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

A grid (``Grid``) is valid at (L, Lt) and every (r1, r2) of a bracket when
it covers the t-span ``bracket_span`` gives them: one panel [0, lo], where
lo is LEAD times the smallest moment-factor scale at the bracket's upper
end, then panels whose edges lo * (hi/lo)^(k/n) grow geometrically, about
panels_per_decade per decade, up to hi = TAIL / (r1 r2) at the bracket's
lower end. A grid is built SLACK times wider than its bracket's span at
each end, so it also covers every nearby bracket with at least
panels_per_decade panels per decade, at any (L, Lt). One grid serves a
trajectory while it covers the bracket: ``context_for`` returns the previous
step's grid when it covers the new step's span and overshoots neither end by
more than SLACK^2, and builds a new one otherwise. A grid is panel data
only: nodes, weights and its span.

The kernels run on a ``Block``, the grids of N >= 1 points stacked as rows,
which owns the scratch rows they write into. ``v_pair`` gives the
fixed-point solver's pair (V1, V2) at each point's (r1, r2) and (L^2, Lt^2)
and leaves the moment factors and pair sums in the block's rows; ``finish``
then completes every expectation of a map step at those points from them,
without building the factors or the pair sums again. Each kind of sum is one
stacked matrix-vector product: at a few hundred nodes a numpy call costs more
in overhead than in arithmetic, and for the same reason the kernels write
into the block's rows rather than allocate.
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


class Grid:
    """Integration grid: geometric panels spanning [lo, hi], with nodes t
    and weights w."""

    __slots__ = ("t", "w", "lo", "hi")

    def __init__(self, t, w, lo, hi):
        self.t, self.w, self.lo, self.hi = t, w, lo, hi

    def covers(self, lo, hi):
        """Whether this grid serves a bracket of t-span [lo, hi]: it contains
        the span and overshoots neither end by more than SLACK^2."""
        return lo / SLACK ** 2 <= self.lo <= lo and hi <= self.hi <= hi * SLACK ** 2


class Block:
    """The grids of N >= 1 points as the rows of (N, n) t and w, zero-weight
    padded at t = 0 to the longest grid, and the scratch rows the kernels
    write into: (10, N, n) ``scratch`` holding the monomials i1, i2, i1 i2,
    i1^2, i1^2 i2, i2^2, i1 i2^2 (i1, i2 hold e1, e2 until inverted in place
    and i1 i2 the exponent -r1 r2 t until finish; by_*/to_* take the cubic
    ones), damp, sqrt(e1 e2), damp t; the pair sums (N, 2) ``sums`` and the
    moment sums (N, 7) ``moments``. ``rows[k]`` is point k's one-row block
    over its own nodes, a view of these arrays.

    The rows contract: ``ExpectationEngine.finish`` reads the factors i1, i2,
    damp and the pair sums inv @ damp that the last v_pair left at each
    point's (r1, r2), so between the two no kernel call may run on the block
    but a point's own v_pair on its row."""

    __slots__ = ("grids", "t", "w", "scratch", "sums", "moments", "rows", "i1", "i2", "i1i2",
                 "damp", "root", "tdamp", "inv", "head", "by_i1", "to_i1", "by_i2", "to_i2",
                 "pair", "products")

    def __init__(self, grids, arrays=None):
        """The block over the tuple grids; arrays, (t, w, scratch, sums,
        moments), makes it a view of another block's rows instead."""
        if arrays is None:
            N = len(grids)
            t, w = np.zeros((2, N, max(g.t.size for g in grids)))
            for k, g in enumerate(grids):
                t[k, :g.t.size], w[k, :g.t.size] = g.t, g.w
            arrays = t, w, np.empty((10, N, t.shape[1])), np.empty((N, 2)), np.empty((N, 7))
        self.grids = grids
        t, w, scratch, sums, moments = arrays
        self.t, self.w, self.scratch, self.sums, self.moments = arrays
        self.i1, self.i2, self.i1i2, *_, self.damp, self.root, self.tdamp = scratch
        self.inv, self.head, self.by_i1, self.to_i1, self.by_i2, self.to_i2 = (
            scratch[:2], scratch[:3], scratch[0:3:2], scratch[3:5], scratch[1:3], scratch[5:7])
        # each kind of sum is one (N, kinds, n) @ (N, n, 1) product into sums or moments
        by_point = scratch.transpose(1, 0, 2)
        self.pair = by_point[:, :2], by_point[:, 7, :, None], sums[:, :, None]
        self.products = by_point[:, :7], by_point[:, 9, :, None], moments[:, :, None]
        self.rows = (self,) if len(grids) == 1 else tuple(
            Block((g,), (t[k:k + 1, :g.t.size], w[k:k + 1, :g.t.size],
                         scratch[:, k:k + 1, :g.t.size], sums[k:k + 1], moments[k:k + 1]))
            for k, g in enumerate(grids))


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
        """Build a grid valid for all r1, r2 in [r_lo, r_hi] at (L, Lt),
        SLACK times wider than the bracket's t-span at each end."""
        lo, hi = bracket_span(L, Lt, r_lo, r_hi)
        lo, hi = lo / SLACK, hi * SLACK
        n_panels = max(1, math.ceil(self.panels_per_decade * math.log10(hi / lo)))
        edges = np.concatenate(([0.0], panel_edges(lo, hi, n_panels)))
        widths = np.diff(edges)
        t = (edges[:-1, None] + widths[:, None] * self._x01[None, :]).ravel()
        w = (widths[:, None] * self._w01[None, :]).ravel()
        return Grid(t, w, lo, hi)

    def context_for(self, grid, L, Lt, r_lo, r_hi):
        """A grid valid at (L, Lt) for all r1, r2 in [r_lo, r_hi]: grid (the
        previous step's, or None) when it covers the bracket's t-span,
        otherwise a new one."""
        lo, hi = bracket_span(L, Lt, r_lo, r_hi)
        if grid is not None and grid.covers(lo, hi):
            return grid
        return self.context(L, Lt, r_lo, r_hi)

    def v_pair(self, block, rs, sqs):
        """[(V1, V2)] = [(E r1 r2 U2 / D, E r1 r2 U1 / D)], the solver's pair at
        each point's (r1, r2) in rs and (L^2, Lt^2) in sqs. Leaves the factors
        there in block's rows for finish: the reciprocals (1/e1, 1/e2) of
        e_i = 1 + 2 r_i L_i^2 t in inv, the damped weights
        w exp(-r1 r2 t) / sqrt(e1 e2) in damp, inv @ damp in sums."""
        e, e1, e2, damp, root = block.inv, block.i1, block.i2, block.damp, block.root
        coefs = np.array([(2.0 * r1 * Lsq, 2.0 * r2 * Ltsq, -r1 * r2)
                          for (r1, r2), (Lsq, Ltsq) in zip(rs, sqs)])
        # e1, e2 and the exponent as one product with (N, 1) coefficient columns
        np.multiply(block.t, coefs.T[..., None], block.head)  # numpy parses no keywords
        np.add(e, 1.0, e)
        np.exp(block.i1i2, damp)
        np.multiply(damp, block.w, damp)
        np.multiply(e1, e2, root)
        np.divide(damp, np.sqrt(root, root), damp)
        np.reciprocal(e, e)
        np.matmul(*block.pair)
        return [(r1 * r2 * Ltsq * s2, r1 * r2 * Lsq * s1)
                for (r1, r2), (Lsq, Ltsq), (s1, s2) in zip(rs, sqs, block.sums.tolist())]

    @staticmethod
    def finish(block, rs, sqs):
        """[(V, V1, V2, SecondOrderKernels)] at each point's (r1, r2) in rs and
        (L^2, Lt^2) in sqs: every expectation a map step needs, completed from
        the factors that the v_pair there just left in block's rows (see
        Block for the contract). V1 and V2 are v_pair's expressions of its
        sums, so they equal its values bit for bit. The seven monomials i1,
        i2, i1 i2, i1^2, i1^2 i2, i2^2, i1 i2^2 of i_k = 1/e_k fill one block,
        summed against damp * t in one product; V takes i1 i2 @ damp over each
        point's own nodes."""
        np.multiply(block.i1, block.i2, block.i1i2)
        np.multiply(block.by_i1, block.i1, block.to_i1)
        np.multiply(block.by_i2, block.i2, block.to_i2)
        np.multiply(block.damp, block.t, block.tdamp)
        np.matmul(*block.products)
        out = []
        for (r1, r2), (Lsq, Ltsq), row, (s1, s2), (
                u1, u2, u1u2, u1sq, u1squ2, u2sq, u1u2sq) in zip(
                rs, sqs, block.rows, block.sums.tolist(), block.moments.tolist()):
            coef = r1 * r2
            r1sq, r2sq = r1 * r1, r2 * r2
            out.append((
                coef * Lsq * Ltsq * float(row.i1i2[0] @ row.damp[0]),
                coef * Ltsq * s2, coef * Lsq * s1,
                SecondOrderKernels(  # the fields in order
                    r2sq * Ltsq * u2, r2sq * 3.0 * Lsq * Ltsq * Ltsq * u1u2sq,
                    r2sq * 3.0 * Ltsq * Ltsq * u2sq, r2sq * Lsq * Ltsq * u1u2,
                    r1sq * Lsq * u1, r1sq * 3.0 * Lsq * Lsq * Ltsq * u1squ2,
                    r1sq * 3.0 * Lsq * Lsq * u1sq, r1sq * Lsq * Ltsq * u1u2),
            ))
        return out

    def first_order(self, block, rs, sqs):
        """[(V, V1, V2)]: v_pair, then finish; kept for the benchmark's tracer."""
        self.v_pair(block, rs, sqs)
        return [x[:3] for x in self.finish(block, rs, sqs)]

    def second_order(self, block, rs, sqs):
        """[SecondOrderKernels]: v_pair, then finish; kept for the tracer."""
        self.v_pair(block, rs, sqs)
        return [x[3] for x in self.finish(block, rs, sqs)]


@lru_cache(maxsize=None)
def get_engine():
    """The shared engine every prediction evaluates its expectations with."""
    return ExpectationEngine()
