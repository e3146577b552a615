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
return (`_payoff`, turned into moments by `_moments`), and the functionals
taking a boundary k accept an array of k as well, returning an array.

Optimizers are grid scans with a zoomed rescan around each peak because the
objectives can be bimodal; near-equal maxima are reported as ties and resolved
by the slope of the transfer-only objective `m1`.

All evaluation is exact up to normal-CDF accuracy; no quadrature or sampling
happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .market_model import GbmParams, _cum_moment, density

__all__ = [
    "CorridorPolicy",
    "XiParams",
    "OptResult",
    "M1Result",
    "profitability_lhs",
    "admissible_min_k",
    "psi1",
    "psi2",
    "m1",
    "m2",
    "horizon_objective",
    "m2_horizon",
    "mp_stationary_points",
    "maximize_m1",
    "maximize_m2",
    "h_payoff",
    "n_func",
    "k_of_c",
    "xi",
    "xi_d1",
    "xi_d2",
]

# floating-point floor for admissibility: the exact LHS approaches 0 from below
# once both boundaries leave the support, and roundoff can land at +5e-17
LHS_TOL = 1e-12

# candidates closer than this in k are one plateau, not a tie
TIE_SEPARATION = 1e-3


@dataclass(frozen=True)
class CorridorPolicy:
    """Corridor configuration.

    k is the lower-boundary magnitude, k*p the upper boundary (p >= 1,
    symmetric at p = 1).  give_frac of the excess above the upper boundary is
    handed to the collective; help_frac of the shortfall below -k is claimed
    from it.  alpha weights the second-moment penalty; J is the prefactor
    discount applied to the transfer-only objective m1.
    """

    k: float = 0.0
    p: float = 1.0
    give_frac: float = 0.25
    help_frac: float = 0.5
    alpha: float = 0.0
    J: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.k <= 1.0:
            raise ValueError("k must be in [0, 1]")
        if not 1.0 <= self.p < math.inf:
            raise ValueError("p must be finite and >= 1")
        if not (0.0 <= self.give_frac <= 1.0 and 0.0 <= self.help_frac <= 1.0):
            raise ValueError("transfer fractions must be in [0, 1]")
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


def _payoff(k, help_frac, give_frac, p, c=-1.0, with_return=True):
    """Affine pieces of r*(y - 1) + t(y) in the gross return y, r = 1 or 0.

    The transfer t(y) is help_frac*(L - y) on (G, L] and -give_frac*(y - U) on
    (U, inf), zero elsewhere, with L = 1 - k, U = 1 + k*p and the help gate
    G = clip(1 + c, 0, L); c = -1 means no gate.  Returns the edges
    0 <= G <= L <= U < inf of the four intervals and each interval's constant
    and slope, stacked along a first axis in front of the broadcast shape of
    k and c.
    """
    k = np.asarray(k, dtype=float)
    if not np.isscalar(c):
        k, c = np.broadcast_arrays(k, np.asarray(c, dtype=float))
    L, U = 1.0 - k, 1.0 + k * p
    zero = np.zeros_like(k)
    r = 1.0 if with_return else 0.0
    # np.clip(1 + c, 0, L) costs several times as much per call
    edges = np.array([zero, np.minimum(np.maximum(1.0 + c, 0.0), L), L, U, zero + math.inf])
    const = np.array([zero - r, help_frac * L - r, zero - r, give_frac * U - r])
    slope = np.array([r, r - help_frac, r, r - give_frac]).reshape((4,) + (1,) * k.ndim)
    return edges, const, slope


def _moments(params: GbmParams, pieces, second: bool = True):
    """E[f(Y)] and (when `second`, else 0) E[f(Y)^2] for the pieces of `_payoff`."""
    edges, a, b = pieces

    def mass(n):
        # E[Y^n 1{Y in interval}] for each interval between consecutive edges
        cum = _cum_moment(params, n, edges)
        return cum[1:] - cum[:-1]

    p0, p1 = mass(0), mass(1)
    first = (a * p0 + b * p1).sum(axis=0)
    if not second:
        return first, 0.0
    return first, (a * a * p0 + 2.0 * a * b * p1 + b * b * mass(2)).sum(axis=0)


def _transfer_slope(params: GbmParams, help_frac, give_frac, p, k):
    """d/dk of E[t(Y)] without a gate: -help_frac P(Y <= L) + give_frac p P(Y > U).

    The upper tail comes from the complementary CDF, so it does not cancel to
    0 while the lower tail is still positive.
    """
    k = np.asarray(k, dtype=float)
    below = _cum_moment(params, 0, 1.0 - k)
    above = ndtr((params.mu - np.log(1.0 + k * p)) / params.sigma)
    return -help_frac * below + give_frac * p * above


def _psi(params: GbmParams, policy: CorridorPolicy, k, c=-1.0):
    # (E[g], E[g^2]) of the relative change g(Y) = Y - 1 + t(Y), help gated at c
    return _moments(params, _payoff(k, policy.help_frac, policy.give_frac, policy.p, c))


def _transfer_mean(params: GbmParams, policy: CorridorPolicy, k):
    # E[t(Y)]: the collective's expected outflow per unit of account value
    pieces = _payoff(k, policy.help_frac, policy.give_frac, policy.p, with_return=False)
    return _moments(params, pieces, second=False)[0]


def _like(k, x):
    # a Python float for a scalar k, the array for an array k
    return float(x) if np.ndim(k) == 0 else x


def _check_k(k):
    k = np.asarray(k)
    if not np.all((0.0 <= k) & (k <= 1.0)):
        raise ValueError("k must be in [0, 1]")


def psi1(params: GbmParams, policy: CorridorPolicy) -> float:
    """Mean of the transfer-adjusted relative account change over one period."""
    return float(_psi(params, policy, policy.k)[0])


def psi2(params: GbmParams, policy: CorridorPolicy) -> float:
    """Raw second moment of the transfer-adjusted relative account change."""
    return float(_psi(params, policy, policy.k)[1])


def profitability_lhs(params: GbmParams, policy: CorridorPolicy) -> float:
    """Expected net outflow of the collective account per unit of account value.

    help_frac * E[(1-k-Y)+] - give_frac * E[(Y-1-k*p)+]; the policy is
    admissible iff this is <= 0 (the collective does not lose in expectation).
    """
    return float(_transfer_mean(params, policy, policy.k))


def _bisect(inside: Callable, lo, hi, tol: float):
    """Halve brackets with `inside` false at lo and true at hi to width <= tol; returns hi.

    lo and hi may be arrays of brackets of equal width, halved together.
    """
    while np.any(hi - lo > tol):
        mid = 0.5 * (lo + hi)
        yes = inside(mid)
        lo, hi = np.where(yes, lo, mid), np.where(yes, mid, hi)
    return hi


def admissible_min_k(params: GbmParams, policy: CorridorPolicy, tol: float = 1e-6) -> float:
    """Smallest admissible boundary in [0, 1].

    k = 1 always qualifies: its help leg is empty, so the LHS is
    -give_frac * E[(Y-1-p)+] <= 0.  Coarse scan for the first sign change,
    then bisection to `tol`.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")

    def admissible(k):
        return _transfer_mean(params, policy, k) <= LHS_TOL

    ks = np.linspace(0.0, 1.0, 2001)
    ok = admissible(ks)
    i = int(np.argmax(ok))
    if i == 0:
        return 0.0
    return float(_bisect(admissible, ks[i - 1], ks[i], tol))


def m1(params: GbmParams, policy: CorridorPolicy, k):
    """Transfer-only objective: the discounted profitability LHS."""
    _check_k(k)
    return _like(k, (1.0 - policy.J) * _transfer_mean(params, policy, k))


def m2(params: GbmParams, policy: CorridorPolicy, k):
    """Mean-minus-weighted-second-moment objective at boundary k."""
    _check_k(k)
    s1, s2 = _psi(params, policy, k)
    return _like(k, s1 - policy.alpha * s2)


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
        growth = gamma_pi + m * s1
        gain += growth
        m += growth
    return gain - alpha * pen


def m2_horizon(params: GbmParams, policy: CorridorPolicy, k, T: int):
    """The objective of `horizon_objective` with the boundary held at k for T periods."""
    _check_k(k)
    return _like(k, horizon_objective([_psi(params, policy, k)] * T, policy.alpha))


def mp_stationary_points(
    params: GbmParams, policy: CorridorPolicy, grid: int = 4001
) -> list[tuple[float, str]]:
    """Interior stationary points of the unconstrained transfer-only objective.

    Scans the closed-form derivative for sign changes on (0, 1) and bisects
    each bracket to 1e-12.  Returns (k, kind) pairs with kind "max" for a
    +/- derivative change and "min" for -/+.
    """

    def slope(k):
        return _transfer_slope(params, policy.help_frac, policy.give_frac, policy.p, k)

    ks = np.linspace(0.0, 1.0, grid)
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


def _zoom(f: Callable, lo: float, hi: float, tol: float, points: int = 65):
    """Maximize f on [lo, hi] by rescanning around the best point until the bracket is <= tol."""
    while True:
        ks = np.linspace(lo, hi, points)
        vs = f(ks)
        i = int(np.argmax(vs))
        if hi - lo <= tol:
            return float(ks[i]), float(vs[i])
        lo, hi = ks[max(i - 1, 0)], ks[min(i + 1, points - 1)]


def _maximize_scalar(
    f: Callable,
    k_min: float,
    grid: int,
    tol: float,
    tie_tol: float,
    slope_at: Callable[[float], float],
) -> OptResult:
    """Grid scan + local zoom refinement with tie detection.

    `f` maps an array of k to an array of values.  Candidates are competitive
    grid-local maxima; two of them are distinct only when the grid dips below
    both by more than tie_tol in between, so a numerically flat plateau
    collapses to one candidate while genuinely separated maxima survive.
    Each candidate is refined by `_zoom` to max(tol, 1e-12) and keeps its grid
    point if refinement does worse.  Refined candidates within tie_tol of the
    best value and separated by more than TIE_SEPARATION in k count as a tie,
    resolved by the sign of `slope_at` at the smaller maximizer: negative
    slope keeps the smaller one, nonnegative the larger.  The callers pass
    `_transfer_slope`, which has the sign of m1's slope: m1's slope is it
    times 1 - J > 0.
    """
    ks = np.linspace(k_min, 1.0, grid)
    vs = f(ks)
    margin = max(10.0 * tie_tol, 1e-3)
    rising = np.r_[True, vs[1:] >= vs[:-1]]
    falling = np.r_[vs[:-1] >= vs[1:], True]
    peaks = np.flatnonzero(rising & falling & (vs >= vs.max() - margin))

    # merge peaks with no real dip between them: one plateau, one candidate
    merged: list[int] = [int(peaks[0])]
    for i in peaks[1:]:
        j = merged[-1]
        dip = min(vs[j], vs[i]) - vs[j : i + 1].min()
        if dip <= tie_tol:
            if vs[i] > vs[j]:
                merged[-1] = int(i)
        else:
            merged.append(int(i))

    cands: list[tuple[float, float]] = []
    for best in merged:
        cand = float(ks[best]), float(vs[best])
        lo, hi = ks[max(best - 1, 0)], ks[min(best + 1, grid - 1)]
        if hi > lo:
            zoomed = _zoom(f, lo, hi, max(tol, 1e-12))
            if zoomed[1] >= cand[1]:
                cand = zoomed
        cands.append(cand)

    cands.sort(key=lambda kv: kv[0])
    best_v = max(v for _, v in cands)
    tied = [(k, v) for k, v in cands if best_v - v <= tie_tol]
    tie = len(tied) >= 2 and (tied[-1][0] - tied[0][0]) > TIE_SEPARATION

    if not tie:
        k_star, value = max(cands, key=lambda kv: kv[1])
        return OptResult(k_star, value, False, tuple(cands))

    k_small, v_small = tied[0]
    k_large, v_large = tied[-1]
    if slope_at(k_small) < 0.0:
        return OptResult(k_small, v_small, True, tuple(cands))
    return OptResult(k_large, v_large, True, tuple(cands))


def _search_args(params, policy, k_min, grid, tol):
    # validation shared by maximize_m2 and k_of_c; returns the resolved k_min
    if grid < 100:
        raise ValueError("grid must be >= 100")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if k_min is None:
        k_min = admissible_min_k(params, policy)
    return float(k_min)


def maximize_m2(
    params: GbmParams,
    policy: CorridorPolicy,
    k_min: float | None = None,
    grid: int = 2001,
    tol: float = 1e-10,
    tie_tol: float = 1e-6,
    T: int = 1,
) -> OptResult:
    """Maximize the mean-minus-weighted-second-moment objective on [k_min, 1].

    T is the number of periods to retirement (as `PoolConfig.T`): the boundary
    is held constant and the objective is compounded by `m2_horizon`, which at
    the default T = 1 is the one-period `m2`.  Dense scan plus local
    refinement; the objective can have two separated maxima, in which case
    near-equal values (within tie_tol) set tie_flag and the slope rule of
    `_maximize_scalar` picks the winner.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    k_min = _search_args(params, policy, k_min, grid, tol)
    return _maximize_scalar(
        lambda k: m2_horizon(params, policy, k, T),
        k_min, grid, tol, tie_tol,
        lambda k: _transfer_slope(params, policy.help_frac, policy.give_frac, policy.p, k),
    )


def h_payoff(rho, c: float, k: float, policy: CorridorPolicy):
    """Per-period relative change seen by an agent whose help is gated at c.

    rho - give_frac*(rho - k*p)+ + help_frac*(-k - rho)+ * 1{rho > c}; the
    indicator models the pool refusing help when the aggregate return is at or
    below the cutoff.  Vectorized over rho.
    """
    r = np.asarray(rho, dtype=float)
    give = policy.give_frac * np.maximum(r - k * policy.p, 0.0)
    help_ = policy.help_frac * np.maximum(-k - r, 0.0) * (r > c)
    out = r - give + help_
    return float(out) if np.isscalar(rho) else out


def n_func(params: GbmParams, policy: CorridorPolicy, c, k):
    """Closed-form E[h - alpha h^2] for the gated payoff of `h_payoff`.

    The gate clips the help leg to gross returns in (1+c, 1-k): the payoff of
    `m2` with the help interval starting at G = clip(1+c, 0, 1-k).  c and k
    may be arrays that broadcast together; the result has their shape.
    """
    c_lo, c_hi = (c, c) if np.isscalar(c) else (np.min(c), np.max(c))
    if not -1.0 <= c_lo <= c_hi <= 0.0:
        raise ValueError("c must be in [-1, 0]")
    _check_k(k)
    s1, s2 = _psi(params, policy, k, c)
    return _like(s1, s1 - policy.alpha * s2)


def k_of_c(
    params: GbmParams,
    policy: CorridorPolicy,
    c: float,
    grid: int = 2001,
    tol: float = 1e-10,
    k_min: float | None = None,
    tie_tol: float = 1e-6,
) -> OptResult:
    """Best-response boundary against a fixed help cutoff c.

    Same search machinery as `maximize_m2` applied to the gated objective.
    """
    k_min = _search_args(params, policy, k_min, grid, tol)
    return _maximize_scalar(
        lambda k: n_func(params, policy, c, k),
        k_min, grid, tol, tie_tol,
        lambda k: _transfer_slope(params, policy.help_frac, policy.give_frac, policy.p, k),
    )


def xi(params: GbmParams, xp: XiParams, k):
    """E[rho + (1/a)(-rho-k)+ - (1/b)(rho-k)+] with symmetric boundaries."""
    _check_k(k)
    pieces = _payoff(k, 1.0 / xp.a, 1.0 / xp.b, 1.0)
    return _like(k, _moments(params, pieces, second=False)[0])


def xi_d1(params: GbmParams, xp: XiParams, k):
    """First derivative of `xi` in k."""
    return _like(k, _transfer_slope(params, 1.0 / xp.a, 1.0 / xp.b, 1.0, k))


def xi_d2(params: GbmParams, xp: XiParams, k: float) -> float:
    """Second derivative of `xi` in k; positive at 0 whenever a < b."""
    L, U = 1.0 - k, 1.0 + k
    f_lo = density(params, L) if L > 0 else 0.0
    return f_lo / xp.a - density(params, U) / xp.b
