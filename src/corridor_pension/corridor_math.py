"""Corridor boundary functionals and their optimizers.

A corridor policy leaves returns inside [-k, k*p] untouched, skims a fraction
of the excess above the upper boundary into the collective account, and tops up
a fraction of the shortfall below the lower boundary from it.  This module
evaluates, in closed form over lognormal partial moments:

* the collective account's expected gain/loss from those transfers
  (`profitability_lhs`, admissibility means it is <= 0),
* the first and second moments of the individual account's transfer-adjusted
  relative change (`psi1`, `psi2`) and the mean-minus-weighted-second-moment
  objective built from them (`m2`),
* the same objective compounded over T periods to retirement
  (`horizon_objective` for a per-period profile, `m2_horizon` for a boundary
  held constant),
* the conditional variant `n_func` whose help leg is switched off below a
  cutoff net return c, as seen by an agent in a finite pool,
* the auxiliary convex functional `xi` with its closed-form derivatives.

Every one of them is a moment of one piecewise-affine payoff of the gross
return, evaluated by `_PayoffMoments`: built once per search for its market,
policy, cutoff and return, then called on arrays of k, each call at most one
normal-CDF evaluation over all its edges and orders.  Each one of a boundary
takes k as an argument, a scalar (returning a float) or an array (returning
an array); none reads the k field of `CorridorPolicy`, the boundary a pool
runs.

Optimizers are grid scans with a zoomed rescan around each peak because the
objectives can be bimodal; near-equal maxima are reported as ties and resolved
by the slope of the transfer-only objective `m1`.  `maximize_m2`, `k_of_c`
and the fixed point's best responses are one search, `_searches`: it checks
its grid once per call and scans the objective of one cutoff after another
(`maximize_m2` is the one at c = -1, compounded over T periods) on the grid's
normal-CDF rows of the edges L and U, which do not depend on c; the gate row
of a cutoff is made from L's row, and c = -1 reads the grid's moments there,
so no grid scan calls ndtr.  `_objective` is the one builder of that objective.

A small memo holds what one market's study asks for more than once: the last
`admissible_min_k`, grid (read-only, with its L/U rows and c = -1 moments from
one pass, which the admissibility scan reads on [0, 1]) and two searches.  Each
is an `lru_cache` keyed by `_Bits`, the pickle of its inputs that keeps them for
a miss, so inputs equal but of other type or bits (-0.0, 0.0) share no entry.

The pool game's closed forms sit here too: `_threshold`, the net-return
threshold a pool's coverage indicator collapses to, serves `z_star`, the
common-boundary fixed point, `best_response_gain` and the engine's `run_path`,
each checking its input once.  The engine, `pool_simulator`, takes only
`CorridorPolicy`, `_check_k` and `_threshold` from here.

All evaluation is exact up to normal-CDF accuracy; no quadrature or sampling
happens here.
"""

from __future__ import annotations

import functools
import math
import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _EXPORTS, _check_count, _check_index
from .market_model import GbmParams, _moment_scale, density, density_peak, ndtr

__all__ = _EXPORTS["corridor_math"]

# floating-point floor for admissibility: the exact LHS approaches 0 from below
# once both boundaries leave the support, and roundoff can land at +5e-17
LHS_TOL = 1e-12

# candidates closer than this in k are one plateau, not a tie
TIE_SEPARATION = 1e-3

# fixed tolerances and grid sizes of the boundary searches: admissible_min_k
# bisects to K_MIN_TOL; maximize_m2 and k_of_c zoom each peak to ZOOM_TOL and
# count maxima within TIE_TOL of the best as tied; mp_stationary_points scans
# STATIONARY_GRID points for sign changes; `_bisect` halves _BISECT_LEVELS
# times per call of its predicate
K_MIN_TOL = 1e-6
ZOOM_TOL = 1e-10
TIE_TOL = 1e-6
STATIONARY_GRID = 4001
_BISECT_LEVELS = 5

# fixed_point_barriers stops once an iterate moves k by less than
# _FIXED_POINT_TOL, or reports no convergence after _FIXED_POINT_MAX_ITER
# iterations; best_response_gain scans _RESPONSE_GRID own boundaries; dp_check
# calls a schedule stationary within _DP_TOL of the best constant boundary
_FIXED_POINT_TOL = 1e-6
_FIXED_POINT_MAX_ITER = 100
_RESPONSE_GRID = 201
_DP_TOL = 1e-9


@dataclass(frozen=True)
class CorridorPolicy:
    """Corridor configuration.

    k is the lower-boundary magnitude a pool runs, k*p the upper boundary
    (p >= 1, symmetric at p = 1); the closed forms take k as an argument.
    give_frac of the excess above the upper boundary is handed to the
    collective; help_frac of the shortfall below -k is claimed from it.  alpha
    weights the second-moment penalty; J is the prefactor discount applied to
    the transfer-only objective m1.
    """

    k: float = 0.0
    p: float = 1.0
    give_frac: float = 0.25
    help_frac: float = 0.5
    alpha: float = 0.0
    J: float = 0.0

    def __post_init__(self):
        _check_k(self.k)
        if not 1.0 <= self.p < math.inf:
            raise ValueError("p must be finite and >= 1")
        _check_k((self.give_frac, self.help_frac), "transfer fractions")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 0")
        if not 0.0 <= self.J < 1.0:
            raise ValueError("J must be in [0, 1)")


@dataclass(frozen=True)
class XiParams:
    """Divisors of the auxiliary functional; require 1 < a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not 1.0 < self.a < self.b:
            raise ValueError("need 1 < a < b")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a boundary search: maximizer, value, and tie diagnostics."""

    k_star: float
    value: float
    tie_flag: bool
    candidates: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class M1Result:
    """Two-point comparison for the transfer-only objective."""

    k_star: float
    value: float
    value_at_k_min: float
    value_at_one: float


@dataclass(frozen=True)
class FixedPointResult:
    k_bar: float
    c: float
    iterations: int
    converged: bool
    cycle_flag: bool


@dataclass(frozen=True)
class DpVerdict:
    stationary: bool
    best_profile: tuple
    best_value: float
    best_constant_k: float
    best_constant_value: float
    gap: float
    tol: float


class _PayoffMoments:
    """k -> (E[f(Y)], E[f(Y)^2]) for the piecewise-affine payoff f = r*(Y - 1) + t(Y), r = 1 or 0.

    t(y) is help_frac*(L - y) on (G, L] and -give_frac*(y - U) on (U, inf),
    zero elsewhere, with L = 1 - k, U = 1 + k*p and the gate G = clip(1 + c,
    0, L); c = -1 (no gate) leaves out G and the empty piece (0, G].  Built
    once per search for its market, policy, cutoff c (an array of c
    broadcasts with k) and return; with no return it computes orders 0 and 1
    only (the mean, second reads 0.0).  Each call's interval masses are
    differences of E[Y^n; Y <= e] = E[Y^n] P(Y <= e) under the order-n tilt,
    one ndtr call for all inner edges e and orders n.  A scalar cutoff's gate
    row is no call's: G is L where L < 1 + c, and elsewhere the constant 1 + c,
    whose column is computed once at build; so a call given the rows of L and
    U (`lu`) makes no ndtr call unless c is an array.
    """

    def __init__(self, params: GbmParams, policy: CorridorPolicy, c=-1.0, with_return=True):
        self.params, self.orders = params, 3 if with_return else 2
        self.r = r = 1.0 if with_return else 0.0
        self.gate = None if np.isscalar(c) and c == -1.0 else np.maximum(np.add(1.0, c), 0.0)
        g = self.gate is not None  # the piece (0, G] comes first
        self.b = np.array([r] * g + [r - policy.help_frac, r, r - policy.give_frac])[:, None]
        self.b2, self.twob = self.b * self.b, 2.0 * self.b  # a * twob is 2.0 * a * b to the bit
        # per piece, its edge row 1 + side*k (G before the gate, L, U, U) and constant fracs*row - r
        self.side = np.array([-1.0] * g + [-1.0, policy.p, policy.p])[:, None]
        self.fracs = np.array([0.0] * g + [policy.help_frac, 0.0, policy.give_frac])[:, None]
        self.shift = (np.arange(self.orders) * params.sigma)[:, None, None]
        self.scale = np.array([_moment_scale(params, n) for n in range(self.orders)])[:, None, None]
        # the CDF column of a scalar gate 1 + c, the row of G = min(1 + c, L)
        # wherever L >= 1 + c; None for no gate or a gate per k
        self.gate_cdf = None
        if g and not self.gate.ndim:
            self.gate_cdf = self._cdf(np.reshape(self.gate, (1, 1)))[:, 0]

    def _pieces(self, k):
        # the shape of k and c broadcast, and over them flattened the inner edges and the constants
        k = np.asarray(k, dtype=float)
        gate = self.gate
        if gate is not None and gate.ndim:
            k, gate = np.broadcast_arrays(k, gate)
            gate = gate.ravel()
        rows = self.side * k.ravel()  # 1 + (-1)*k is 1 - k to the last bit
        rows += 1.0
        if gate is not None:
            # np.clip(1 + c, 0, L) costs several times as much per call
            np.minimum(gate, rows[0], out=rows[0])
        a = self.fracs * rows
        a -= self.r
        return k.shape, rows[:-1], a

    def _cdf(self, edges, out=None):
        # P(Y <= e) under the order-n tilt, n < orders, for each edge e: one ndtr call
        with np.errstate(divide="ignore"):  # an edge at 0 gives -inf
            z = np.log(edges)
        z -= self.params.mu
        z /= self.params.sigma
        return ndtr(z - self.shift, out=out)

    def rows(self, k):
        """The normal-CDF rows of L and U of k (a call's `lu`, free of c) and the call's moments."""
        shape, edges, a = self._pieces(k)
        lu = self._cdf(edges[-2:])
        return lu, self._moments(shape, edges, a, lu)

    def __call__(self, k, lu=None):
        return self._moments(*self._pieces(k), lu)

    def _moments(self, shape, edges, a, lu):
        cdf = np.empty((self.orders, len(edges) + 2, edges.shape[1]))
        cdf[:, 0], cdf[:, -1] = 0.0, 1.0
        if lu is not None:
            cdf[:, -3:-1] = lu
        # the rows left to compute: all but L's and U's when lu has them, and
        # all but a scalar gate's, which is L's where L < 1 + c
        lo, hi = int(self.gate_cdf is not None), len(edges) - 2 * (lu is not None)
        if hi > lo:
            self._cdf(edges[lo:hi], cdf[:, 1 + lo:1 + hi])
        if lo:
            cdf[:, 1] = np.where(edges[1] < self.gate, cdf[:, 2], self.gate_cdf)
        cdf *= self.scale
        mass = cdf[:, 1:] - cdf[:, :-1]
        first = np.add.reduce(a * mass[0] + self.b * mass[1]).reshape(shape)
        if self.orders < 3:
            return first, 0.0
        second = a * a * mass[0] + a * self.twob * mass[1] + self.b2 * mass[2]
        return first, np.add.reduce(second).reshape(shape)


def _transfer_slope(params: GbmParams, help_frac, give_frac, p, k):
    """d/dk of E[t(Y)] without a gate: -help_frac P(Y <= L) + give_frac p P(Y > U).

    The upper tail comes from the complementary CDF, so it does not cancel to
    0 while the lower tail is still positive.  Both tails are one ndtr call.
    """
    k = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore"):  # L = 0 at k = 1
        z = (np.log([1.0 - k, 1.0 + k * p]) - params.mu) / params.sigma
    z[1] = -z[1]  # (mu - ln U) / sigma: negation is exact
    below, above = ndtr(z)
    return -help_frac * below + give_frac * p * above


def _like(k, x):
    # a Python float for a scalar k, the array for an array k
    return float(x) if np.ndim(k) == 0 else x


def _check_k(k, name="k"):
    # the one [0, 1] rule, on a scalar or an array; NaN fails it
    k = np.asarray(k)
    if not np.all((0.0 <= k) & (k <= 1.0)):
        raise ValueError(f"{name} must be in [0, 1]")


def psi1(params: GbmParams, policy: CorridorPolicy, k):
    """Mean of the transfer-adjusted relative account change over one period."""
    _check_k(k)
    return _like(k, _PayoffMoments(params, policy)(k)[0])


def psi2(params: GbmParams, policy: CorridorPolicy, k):
    """Raw second moment of the transfer-adjusted relative account change."""
    _check_k(k)
    return _like(k, _PayoffMoments(params, policy)(k)[1])


def profitability_lhs(params: GbmParams, policy: CorridorPolicy, k):
    """Expected net outflow of the collective account per unit of account value.

    help_frac * E[(1-k-Y)+] - give_frac * E[(Y-1-k*p)+]; boundary k is
    admissible iff this is <= 0 (the collective does not lose in expectation).
    """
    _check_k(k)
    return _like(k, _PayoffMoments(params, policy, with_return=False)(k)[0])


class _Bits(bytes):
    """A memo key, the pickle of its values, kept as `value`: values equal but of other type or
    bits (-0.0 and 0.0, 2 and 2.0) share no entry, and a miss computes from the values."""

    def __new__(cls, *value):
        key = super().__new__(cls, pickle.dumps(value))
        key.value = value
        return key


def _bisect(inside: Callable, lo, hi, tol: float):
    """Halve brackets with `inside` false at lo and true at hi to width <= tol; returns hi.

    lo and hi may be arrays of brackets of equal width, halved together.  One
    call of `inside` takes the midpoints 0.5 * (lo + hi) of _BISECT_LEVELS levels,
    walked one by one after the width test: the midpoints and stops of one call per level.
    """
    shape, lo, hi = np.shape(lo), np.ravel(lo).tolist(), np.ravel(hi).tolist()
    half = 0  # a bracket's half width, in points of the levels
    while any(h - l > tol for l, h in zip(lo, hi)):
        if not half:  # the points of the next levels: 0.5 * (a + b) between neighbours a, b
            half = 2 ** (_BISECT_LEVELS - 1)
            pts = np.empty((2 * half + 1, len(lo)))
            pts[0], pts[-1] = lo, hi
            for step in (half >> level for level in range(_BISECT_LEVELS)):
                pts[step::2 * step] = 0.5 * (pts[:-step:2 * step] + pts[2 * step::2 * step])
            yes, pts, at = inside(pts[1:-1]).T.tolist(), pts.T.tolist(), [0] * len(lo)
        at = [a if y[a + half - 1] else a + half for a, y in zip(at, yes)]  # each bracket's lo
        lo, hi = [p[a] for a, p in zip(at, pts)], [p[a + half] for a, p in zip(at, pts)]
        half //= 2
    return np.reshape(hi, shape)


def admissible_min_k(params: GbmParams, policy: CorridorPolicy) -> float:
    """Smallest admissible boundary in [0, 1].

    k = 1 always qualifies: its help leg is empty, so the LHS is
    -give_frac * E[(Y-1-p)+] <= 0.  Coarse scan for the first sign change,
    then bisection to K_MIN_TOL; the last market's is kept (`_admissible`).
    """
    return _admissible(_Bits(params, policy))


@functools.lru_cache(maxsize=1)
def _admissible(market: _Bits) -> float:
    # `admissible_min_k` of the market (params, policy); the scan reads orders
    # 0 and 1 of the L/U rows of its grid, np.linspace(0, 1, 2001), in the memo
    mean = _PayoffMoments(*market.value, with_return=False)  # E[t(Y)]

    def admissible(k, lu=None):
        return mean(k, lu)[0] <= LHS_TOL

    ks, lu, _ = _grid_rows(market, _Bits(0.0, 2001))
    i = int(np.argmax(admissible(ks, lu[:2])))
    if i == 0:
        return 0.0
    return float(_bisect(admissible, ks[i - 1], ks[i], K_MIN_TOL))


def m1(params: GbmParams, policy: CorridorPolicy, k):
    """Transfer-only objective: the discounted profitability LHS."""
    return (1.0 - policy.J) * profitability_lhs(params, policy, k)


def m2(params: GbmParams, policy: CorridorPolicy, k):
    """Mean-minus-weighted-second-moment objective at boundary k: `m2_horizon` over one period."""
    return m2_horizon(params, policy, k, 1)


def horizon_objective(
    moments, alpha: float, v0: float = 1.0, gamma_pi: float = 0.0
) -> float:
    """Expected gain at retirement minus alpha times the accumulated penalty.

    `moments` holds one (psi1, psi2) pair per period.  The expected account
    value follows m_{t+1} = gamma_pi + m_t (1 + psi1_t) from m_0 = v0, and
    each period adds m_t * psi2_t to the penalty.  The result is
    (m_T - v0) - alpha * penalty; over one period from v0 = 1 without premium
    it is exactly psi1 - alpha * psi2, the one-period objective `m2`.
    """
    m, gain, pen = v0, 0.0, 0.0
    for s1, s2 in moments:
        pen += m * s2
        growth = m * s1
        if gamma_pi:  # skipped at 0: 0.0 + growth changes no sum but a zero's sign
            growth += gamma_pi
        gain += growth
        m += growth
    return gain - alpha * pen


def m2_horizon(params: GbmParams, policy: CorridorPolicy, k, T: int):
    """The objective of `horizon_objective` with the boundary held at k for T periods."""
    _check_count(T, "T")
    _check_k(k)
    return _like(k, _objective(params, policy, T=T)(k))


def mp_stationary_points(params: GbmParams, policy: CorridorPolicy) -> list[tuple[float, str]]:
    """Interior stationary points of the unconstrained transfer-only objective.

    Scans the closed-form derivative for sign changes on STATIONARY_GRID
    points of [0, 1] and bisects each bracket to 1e-12.  Returns (k, kind)
    pairs with kind "max" for a +/- derivative change and "min" for -/+.
    """

    def slope(k):
        return _transfer_slope(params, policy.help_frac, policy.give_frac, policy.p, k)

    ks = np.linspace(0.0, 1.0, STATIONARY_GRID)
    dv = slope(ks)
    i = np.flatnonzero((dv[:-1] != 0.0) & (dv[:-1] * dv[1:] < 0.0))
    up = dv[i] > 0
    roots = _bisect(lambda k: (slope(k) > 0) != up, ks[i], ks[i + 1], 1e-12)
    return [(float(k), "max" if u else "min") for k, u in zip(roots, up)]


def maximize_m1(
    params: GbmParams, policy: CorridorPolicy, k_min: float | None = None
) -> M1Result:
    """Maximize the transfer-only objective over its two boundary candidates.

    The objective is convex-ish in the sense that its maximum over the
    admissible set sits at an endpoint, so only k_min and 1 are compared.
    """
    if k_min is None:
        k_min = admissible_min_k(params, policy)
    v_lo = m1(params, policy, k_min)
    v_hi = m1(params, policy, 1.0)
    if v_hi >= v_lo:
        return M1Result(1.0, v_hi, v_lo, v_hi)
    return M1Result(float(k_min), v_lo, v_lo, v_hi)


def _zoom(f: Callable, lo: float, hi: float):
    """Maximize f on [lo, hi], rescanning 65 points around the best to a bracket <= ZOOM_TOL."""
    while True:
        # np.linspace(lo, hi, 65), the same floats without its overhead
        ks = np.arange(65.0) * ((hi - lo) / 64) + lo
        ks[-1] = hi
        vs = f(ks)
        i = int(np.argmax(vs))
        if hi - lo <= ZOOM_TOL:
            return float(ks[i]), float(vs[i])
        lo, hi = ks[max(i - 1, 0)], ks[min(i + 1, 64)]


def _grid_peaks(vs, tie_tol: float) -> list[int]:
    """Indices of the candidates of `_maximize_scalar` among the values vs of its grid."""
    margin = max(10.0 * tie_tol, 1e-3)
    peak = vs >= vs.max() - margin
    peak[1:] &= vs[1:] >= vs[:-1]  # rising into the point
    peak[:-1] &= vs[:-1] >= vs[1:]  # falling out of it
    peaks = np.flatnonzero(peak)

    # merge peaks with no real dip between them: one plateau, one candidate; low is
    # the lowest value from the last kept peak, whose value is kept, to peak m (a
    # peak is not below its left neighbour).  Conditional expressions stand for
    # min(), whose calls would be most of the loop's time over hundreds of peaks
    top, gaps = vs[peaks].tolist(), np.minimum.reduceat(vs, peaks).tolist()
    merged, kept, low = [0], top[0], math.inf
    for m in range(1, len(top)):
        v, gap = top[m], gaps[m - 1]
        low = gap if gap < low else low
        if (v if v < kept else kept) - low > tie_tol:
            merged.append(m)
        elif v > kept:
            merged[-1] = m
        else:
            continue
        kept, low = v, math.inf
    return peaks[merged].tolist()


def _search_grid(params: GbmParams, policy: CorridorPolicy, k_min: float | None, grid: int):
    """The `grid` points on [k_min, 1] a boundary search scans; k_min defaults to `admissible_min_k`."""
    market = _Bits(params, policy)
    return _grid_rows(market, _grid_key(market, k_min, grid))[0]


def _grid_key(market: _Bits, k_min: float | None, grid: int) -> _Bits:
    # the memo key (k_min, grid) of the grid np.linspace(k_min, 1, grid) of
    # `_search_grid`, with its count and k_min checked once per search
    _check_count(grid, "grid", 100)
    if k_min is None:
        return _Bits(_admissible(market), grid)
    _check_k(k_min, "k_min")
    return _Bits(float(k_min), grid)


def _maximize_scalar(
    f: Callable, params: GbmParams, policy: CorridorPolicy, ks, vs
) -> OptResult:
    """Scan of the values vs = f(ks) on the grid ks of `_search_grid` + local zoom with tie detection.

    `f` maps an array of k to an array of values, unchecked: the caller has
    checked its arguments once.  Candidates are competitive grid-local maxima;
    two of them are distinct only when the grid dips below both by more than
    TIE_TOL in between, so a numerically flat plateau collapses to one
    candidate while genuinely separated maxima survive.  Each candidate is
    refined by `_zoom` to ZOOM_TOL and keeps its grid point if refinement does
    worse.  Refined candidates within TIE_TOL of the best value and separated
    by more than TIE_SEPARATION in k count as a tie, resolved by the sign of
    `_transfer_slope` at the smaller maximizer: negative slope keeps the
    smaller one, nonnegative the larger.  `_transfer_slope` has the sign of
    m1's slope: m1's slope is it times 1 - J > 0.
    """
    cands: list[tuple[float, float]] = []
    for best in _grid_peaks(vs, TIE_TOL):
        cand = float(ks[best]), float(vs[best])
        lo, hi = ks[max(best - 1, 0)], ks[min(best + 1, len(ks) - 1)]
        if hi > lo:
            zoomed = _zoom(f, lo, hi)
            if zoomed[1] >= cand[1]:
                cand = zoomed
        cands.append(cand)

    cands.sort(key=lambda kv: kv[0])
    best_v = max(v for _, v in cands)
    tied = [(k, v) for k, v in cands if best_v - v <= TIE_TOL]
    tie = len(tied) >= 2 and (tied[-1][0] - tied[0][0]) > TIE_SEPARATION

    if not tie:
        k_star, value = max(cands, key=lambda kv: kv[1])
        return OptResult(k_star, value, False, tuple(cands))

    k_small, v_small = tied[0]
    k_large, v_large = tied[-1]
    if _transfer_slope(params, policy.help_frac, policy.give_frac, policy.p, k_small) < 0.0:
        return OptResult(k_small, v_small, True, tuple(cands))
    return OptResult(k_large, v_large, True, tuple(cands))


def maximize_m2(
    params: GbmParams,
    policy: CorridorPolicy,
    k_min: float | None = None,
    grid: int = 2001,
    T: int = 1,
) -> OptResult:
    """Maximize the mean-minus-weighted-second-moment objective on [k_min, 1].

    The search of `k_of_c` at c = -1 (no gate), compounded over T periods to
    retirement (as `PoolConfig.T`): the boundary is held constant and the
    objective is that of `m2_horizon`, which at the default T = 1 is the
    one-period `m2`.  Dense scan plus local refinement; the objective can have
    two separated maxima, in which case near-equal values (within TIE_TOL) set
    tie_flag and the slope rule of `_maximize_scalar` picks the winner.
    """
    _check_count(T, "T")
    return _searches(params, policy, grid, k_min, T)(-1.0)


def n_func(params: GbmParams, policy: CorridorPolicy, c, k):
    """Closed-form E[h - alpha h^2] for an agent whose help is gated at c.

    h is the per-period relative change at the net return rho = Y - 1,
    h(rho) = rho - give_frac*(rho - k*p)+ + help_frac*(-k - rho)+ * 1{rho > c}:
    the pool refuses help when the aggregate return is at or below the
    cutoff.  The gate clips the help leg to gross returns in (1+c, 1-k): the
    payoff of `m2` with the help interval starting at G = clip(1+c, 0, 1-k).
    c and k may be arrays that broadcast together; the result has their shape.
    """
    _check_cutoff(c)
    _check_k(k)
    value = _objective(params, policy, c)(k)
    return _like(value, value)


def _check_cutoff(c):
    # a scalar is compared directly, an array through its min and max; NaN fails either
    if not (-1.0 <= c <= 0.0 if np.isscalar(c) else -1.0 <= np.min(c) <= np.max(c) <= 0.0):
        raise ValueError("c must be in [-1, 0]")


def _objective(params: GbmParams, policy: CorridorPolicy, c=-1.0, T: int = 1) -> Callable:
    # (k, lu=None, ungated=None) -> the objective of `n_func` compounded over T periods by
    # `horizon_objective` (`m2` at c = -1 and T = 1), unchecked, by one evaluator, or at
    # c = -1 from `ungated`, k's moments there
    moments = _PayoffMoments(params, policy, c)

    def objective(k, lu=None, ungated=None):
        s1, s2 = ungated if ungated is not None and moments.gate is None else moments(k, lu)
        if T == 1:  # the one-period value of `horizon_objective`, without its loop
            return s1 - policy.alpha * s2
        return horizon_objective([(s1, s2)] * T, policy.alpha)

    return objective


def _searches(
    params: GbmParams, policy: CorridorPolicy, grid: int, k_min: float | None = None, T: int = 1
) -> Callable:
    """c -> the best boundary against cutoff c over T periods: one grid for every cutoff.

    `k_of_c` and the fixed point's best responses are its searches at T = 1,
    `maximize_m2` its search at c = -1.  The grid is checked once per call and
    its normal-CDF rows of L and U, free of c, and moments at c = -1 computed
    once per market and grid (`_grid_rows`), which every T reads at c = -1; the
    last two searches are kept (`_search`).  A cutoff's gate row takes L's row
    and the CDF column of 1 + c; each is checked as it comes.
    """
    market = _Bits(params, policy)
    ks = _grid_key(market, k_min, grid)
    return lambda c: _search(market, ks, _Bits(T, c))


@functools.lru_cache(maxsize=2)
def _search(market: _Bits, ks: _Bits, cutoff: _Bits) -> OptResult:
    # the search of `_searches` for the market (params, policy) and (T, c) on the grid of ks
    (params, policy), (T, c) = market.value, cutoff.value
    _check_cutoff(c)
    grid, lu, ungated = _grid_rows(market, ks)
    objective = _objective(params, policy, c, T)
    return _maximize_scalar(objective, params, policy, grid, objective(grid, lu, ungated))


@functools.lru_cache(maxsize=1)
def _grid_rows(market: _Bits, ks: _Bits):
    # the grid of ks, the normal-CDF rows of its edges L and U and its moments
    # at c = -1, from one `_pieces` call, all read-only
    grid = np.linspace(ks.value[0], 1.0, ks.value[1])
    lu, ungated = _PayoffMoments(*market.value).rows(grid)
    for array in (grid, lu, *ungated):
        array.flags.writeable = False
    return grid, lu, ungated


def k_of_c(
    params: GbmParams,
    policy: CorridorPolicy,
    c: float,
    grid: int = 2001,
    k_min: float | None = None,
) -> OptResult:
    """Best-response boundary against a fixed help cutoff c.

    The one-period search of `_searches` on the gated objective of `n_func`;
    at c = -1 it is `maximize_m2`.
    """
    return _searches(params, policy, grid, k_min)(c)


def xi(params: GbmParams, xp: XiParams, k):
    """E[rho + (1/a)(-rho-k)+ - (1/b)(rho-k)+] with symmetric boundaries."""
    return psi1(params, CorridorPolicy(give_frac=1.0 / xp.b, help_frac=1.0 / xp.a), k)


def xi_d1(params: GbmParams, xp: XiParams, k):
    """First derivative of `xi` in k."""
    _check_k(k)
    return _like(k, _transfer_slope(params, 1.0 / xp.a, 1.0 / xp.b, 1.0, k))


def xi_d2(params: GbmParams, xp: XiParams, k):
    """Second derivative of `xi` in k; positive at 0 whenever a < b."""
    _check_k(k)
    k = np.asarray(k, dtype=float)
    L, U = 1.0 - k, 1.0 + k
    f_lo = np.where(L > 0, density(params, np.where(L > 0, L, 1.0)), 0.0)
    return _like(k, f_lo / xp.a - density(params, U) / xp.b)


def z_star(
    k_vec: Sequence[float],
    eta_vec: Sequence[float],
    theta: float,
    help_frac: float = 0.5,
) -> float | np.ndarray:
    """Net-return threshold equivalent to the aggregate coverage indicator.

    The collective can cover the weighted claims of the period exactly when
    the net return rho is at or above the returned value.  Boundaries at 1
    never claim; agents enter the active set only while the collective can
    still cover down to their boundary.  Clamped to [-1, 0].

    `k_vec` is one boundary profile (returns a float) or a (profiles, n)
    array of profiles over the same units and collective (returns one
    threshold per row).
    """
    ks = np.asarray(k_vec, dtype=float)
    etas = np.asarray(eta_vec, dtype=float)
    if ks.ndim not in (1, 2) or etas.ndim != 1 or ks.shape[-1:] != etas.shape:
        raise ValueError("k_vec and eta_vec must have equal length")
    _check_pool(etas, theta)
    _check_k(ks, "k_vec")
    if not help_frac >= 0:
        raise ValueError("invalid pool state: help_frac must be nonnegative")
    z = _threshold(ks, etas, theta, help_frac)
    return float(z) if ks.ndim == 1 else z


def _check_pool(eta_vec, theta: float) -> np.ndarray:
    """The unit counts as a float array; refuses a pool without one or more finite nonnegative
    unit counts and a finite nonnegative collective, alike in z_star, the fixed point and the
    two bounds."""
    etas = np.asarray(eta_vec, dtype=float)
    if not (etas.ndim == 1 and etas.size and np.all((0.0 <= etas) & (etas < np.inf))):
        raise ValueError("invalid pool state: unit counts must be nonempty, finite and nonnegative")
    if not 0 <= theta < math.inf:
        raise ValueError("invalid pool state: theta must be finite and nonnegative")
    return etas


def _threshold(ks: np.ndarray, etas: np.ndarray, theta: float, help_frac: float) -> np.ndarray:
    # the body of `z_star` on checked arrays, one threshold per profile
    buffer = float(theta) / float(help_frac) if help_frac > 0 else math.inf  # 2*theta by default
    if buffer == math.inf:  # no help leg, or a buffer past the floats (as floats: no numpy warning)
        return np.full(ks.shape[:-1], -1.0)
    # per-boundary weighted shortfall of everyone with a tighter corridor
    short = np.maximum(ks[..., :, None] - ks[..., None, :], 0.0) @ etas
    active = buffer * (1.0 - ks) - short >= 0.0
    denom = buffer + np.where(active, etas, 0.0).sum(axis=-1)
    num = buffer + np.where(active, etas * ks, 0.0).sum(axis=-1)
    some = denom > 0  # no buffer and nobody active: nothing is ever covered
    # + 0.0 reports a zero threshold as 0.0, never -0.0
    return np.where(some, np.clip(-num / np.where(some, denom, 1.0), -1.0, 0.0) + 0.0, -1.0)


def fixed_point_barriers(
    params: GbmParams,
    policy: CorridorPolicy,
    eta_vec: Sequence[float],
    theta: float,
    grid: int = 2001,
) -> FixedPointResult:
    """Iterate c <- threshold(common k), k <- best response to c, to a fixed point.

    Starts at k = 1 and c = -1 (at k = 1 nobody claims, in any pool) and stops
    when k moves by less than _FIXED_POINT_TOL.  A detected 2-cycle returns the
    iterate with the larger gated objective and sets cycle_flag; running
    _FIXED_POINT_MAX_ITER iterations without either returns converged = False.
    Each best response is `k_of_c` with this `grid`; the grid's normal-CDF rows
    that do not depend on c are computed once per market, and the pool checked once.
    """
    etas = _check_pool(eta_vec, theta)
    def threshold(k):  # the common threshold of everyone at k
        return float(_threshold(np.full(len(etas), k), etas, theta, policy.help_frac))
    best_response = _searches(params, policy, grid)
    k_prev, k_bar, c = math.inf, 1.0, -1.0  # no iterate before k = 1, whose threshold is -1
    for it in range(1, _FIXED_POINT_MAX_ITER + 1):
        k_next = best_response(c).k_star
        if abs(k_next - k_bar) < _FIXED_POINT_TOL:
            return FixedPointResult(k_next, threshold(k_next), it, True, False)
        if abs(k_next - k_prev) < _FIXED_POINT_TOL:
            # 2-cycle: keep whichever iterate scores higher on its own gated objective
            _, kk, cz = max((float(_objective(params, policy, cz)(kk)), kk, cz)
                            for kk, cz in ((k_bar, c), (k_next, threshold(k_next))))
            return FixedPointResult(kk, cz, it, True, True)
        k_prev, k_bar, c = k_bar, k_next, threshold(k_next)
    return FixedPointResult(k_bar, c, _FIXED_POINT_MAX_ITER, False, False)


def improvement_bound(
    j: int,
    eta_vec: Sequence[float],
    theta: float,
    policy: CorridorPolicy,
    params: GbmParams,
) -> float:
    """Upper bound on what one agent can gain by deviating from the common barrier.

    Proportional to the density sup-norm and the agent's unit share of the
    total buffer; vanishes as the pool grows.
    """
    _check_index(j, len(eta_vec), "agent index")
    _check_pool(eta_vec, theta)
    if policy.help_frac <= 0:
        return 0.0
    _, f_max = density_peak(params)
    weight = policy.help_frac * (1.0 + 2.0 * policy.alpha)
    denom = theta / policy.help_frac + sum(eta_vec)
    if denom <= 0:
        return math.inf
    return f_max * weight * eta_vec[j] / denom


def best_response_gain(
    params: GbmParams,
    policy: CorridorPolicy,
    eta_vec: Sequence[float],
    theta: float,
    j: int,
    k_bar: float,
) -> float:
    """Empirical best-response improvement of agent j over the common barrier.

    Scans _RESPONSE_GRID values of the agent's own boundary on [0, 1] while
    everyone else stays at k_bar; the gated objective sees the threshold
    produced by the deviated pool.
    """
    _check_index(j, len(eta_vec), "agent index")
    etas = _check_pool(eta_vec, theta)
    _check_k(k_bar, "k_bar")
    c = float(_threshold(np.full(len(etas), float(k_bar)), etas, theta, policy.help_frac))
    own = np.linspace(0.0, 1.0, _RESPONSE_GRID)
    profiles = np.full((_RESPONSE_GRID, len(etas)), float(k_bar))
    profiles[:, j] = own
    cutoffs = _threshold(profiles, etas, theta, policy.help_frac)
    best = float(np.max(_objective(params, policy, cutoffs)(own)))
    return best - float(_objective(params, policy, c)(k_bar))


def dp_check(
    params: GbmParams,
    policy: CorridorPolicy,
    T: int,
    grid: int = 21,
    gamma_pi: float = 0.0,
    v0: float = 1.0,
) -> DpVerdict:
    """Best per-period boundary schedule against the best constant boundary.

    Both choose from the grid on [k_min, 1], the admissible set `maximize_m2`
    searches, and are scored by the T-period objective of `horizon_objective`,
    reported as a terminal value (v0 plus that objective).  The objective is
    affine in the expected account value m_t, which stays nonnegative when v0
    and gamma_pi are (an account never loses more than it holds), so the
    value from period t on is A_t * m_t + B_t and the best k_t does not
    depend on m_t.  One backward pass from A_T = 1, B_T = 0 takes the argmax
    of A_{t+1} (1 + psi1) - alpha psi2 per period (Bellman): exact on the
    grid for any T, in O(T * grid); best_profile lists the schedule from the
    first period to the last.  Verdict is value-based: stationary means no
    schedule beats the best constant boundary by more than _DP_TOL, reported
    as `tol`.
    """
    _check_count(T, "T")
    _check_count(grid, "grid")
    if not (0 <= v0 < math.inf and 0 <= gamma_pi < math.inf):
        raise ValueError("dp_check needs finite nonnegative v0 and gamma_pi")
    k_min = admissible_min_k(params, policy)
    ks = np.linspace(k_min, 1.0, grid)
    s1, s2 = _PayoffMoments(params, policy)(ks)
    a, b, schedule = 1.0, 0.0, []
    for _ in range(T):
        vals = a * (1.0 + s1) - policy.alpha * s2
        i = int(np.argmax(vals))
        schedule.append(i)
        b += a * gamma_pi
        a = float(vals[i])
    best_value = a * v0 + b
    constant = v0 + horizon_objective([(s1, s2)] * T, policy.alpha, v0, gamma_pi)
    c = int(np.argmax(constant))
    best_constant_value = float(constant[c])
    if best_value < best_constant_value:  # rounding; the constant is a candidate too
        schedule, best_value = [c] * T, best_constant_value
    gap = best_value - best_constant_value
    return DpVerdict(
        stationary=gap <= _DP_TOL,
        best_profile=tuple(float(ks[i]) for i in reversed(schedule)),
        best_value=best_value,
        best_constant_k=float(ks[c]),
        best_constant_value=best_constant_value,
        gap=gap,
        tol=_DP_TOL,
    )
