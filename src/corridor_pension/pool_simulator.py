"""Multi-agent pool dynamics under corridor smoothing.

A pool holds n individual accounts (unit counts eta^i, values V^i) and one
collective account (theta units) in the same fund.  Each period the fund moves,
premia buy new units, and corridor breaches trigger transfers.  Three regimes
govern what happens when individual claims exceed what the collective can
cover:

* AlwaysHelp: claims are always paid; the collective balance may go negative
  and a cumulative external-support counter records what an outside sponsor
  would have had to inject.
* NoHelpIfInsufficient: claims are paid only when the collective can strictly
  cover the aggregate claim; otherwise nobody is paid that period.
* IndexCappedHelp: when full coverage fails, each claimant is capped by its
  lagged redistribution share and the remainder goes through the recursive
  claim settlement.

One period rule, `_period`, works on (columns, paths) arrays for every
regime: `simulate` runs it over blocks of paths, and `step` and `run_path` run
it on one path with a column per member to give per-member step logs.
Members 0..n-1 match ledger ids by `str(id)`.

The coverage indicator collapses to a threshold on the net return (`z_star`),
which drives the fixed-point search for a common near-optimal boundary and the
best-response improvement bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corridor_math import (
    CorridorPolicy,
    _psi,
    admissible_min_k,
    horizon_objective,
    k_of_c,
    n_func,
)
from .market_model import GbmParams, _return_blocks, density_peak
from .redistribution_index import Ledger, index_for_pool

__all__ = [
    "ALWAYS_HELP",
    "NO_HELP_IF_INSUFFICIENT",
    "INDEX_CAPPED_HELP",
    "IndividualAccount",
    "CollectiveAccount",
    "PoolConfig",
    "PoolState",
    "StepReport",
    "SimulationResult",
    "FixedPointResult",
    "DpVerdict",
    "init_pool",
    "step",
    "run_path",
    "simulate",
    "z_star",
    "fixed_point_barriers",
    "improvement_bound",
    "best_response_gain",
    "dp_check",
]

ALWAYS_HELP = "AlwaysHelp"
NO_HELP_IF_INSUFFICIENT = "NoHelpIfInsufficient"
INDEX_CAPPED_HELP = "IndexCappedHelp"
_REGIMES = (ALWAYS_HELP, NO_HELP_IF_INSUFFICIENT, INDEX_CAPPED_HELP)


@dataclass(frozen=True)
class IndividualAccount:
    eta: float
    value: float
    k: float
    owner_id: object


@dataclass(frozen=True)
class CollectiveAccount:
    theta: float
    value: float


@dataclass(frozen=True)
class PoolConfig:
    """Static pool description.

    pi_ind may be a scalar (homogeneous premia) or one value per individual;
    the collective's inflow is their sum.  k_vec overrides the policy
    boundary per individual.  index_source must be a recorded ledger when the regime is
    IndexCappedHelp, with an event before t = 1 (the first period reads the
    shares before it), and at least one member id 0..n-1 must appear in it
    (compared as strings, so a JSON ledger's "0" is member 0).  Initial
    values must be nonnegative.
    """

    n: int
    gamma: float
    pi_ind: object
    T: int
    regime: str
    policy: CorridorPolicy
    index_source: Ledger | None = None
    k_vec: tuple | None = None
    v0_ind: object = 1.0
    c0: float = 0.0
    h0: float = 1.0

    def __post_init__(self):
        if self.n < 1 or self.T < 1:
            raise ValueError("n and T must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.regime not in _REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        # chained comparisons, so NaN fails each check
        if not (0 < self.h0 < math.inf and 0 <= self.c0 < math.inf):
            raise ValueError("h0 must be positive and c0 nonnegative, both finite")
        if not all(0 <= p < math.inf for p in self.premiums):
            raise ValueError("premia must be finite and nonnegative")
        if not all(0 <= v < math.inf for v in self.initial_values):
            raise ValueError("initial values must be finite and nonnegative")
        if self.k_vec is not None:
            if len(self.k_vec) != self.n or not all(0 <= k <= 1 for k in self.k_vec):
                raise ValueError("k_vec needs n entries in [0, 1]")
            object.__setattr__(self, "k_vec", tuple(float(k) for k in self.k_vec))
        if self.regime == INDEX_CAPPED_HELP:
            if self.index_source is None:
                raise ValueError("IndexCappedHelp needs an index_source ledger")
            events = self.index_source.events
            if not events or not events[0].t < 1:
                raise ValueError("the index_source ledger needs an event before t = 1")
            if not {str(j) for j in self.index_source.ids} & {str(i) for i in range(self.n)}:
                raise ValueError("no pool member (ids 0..n-1) appears in the index_source ledger")

    @property
    def premiums(self) -> tuple:
        if np.isscalar(self.pi_ind):
            return tuple(float(self.pi_ind) for _ in range(self.n))
        if len(self.pi_ind) != self.n:
            raise ValueError("pi_ind needs n entries")
        return tuple(float(p) for p in self.pi_ind)

    @property
    def premium_total(self) -> float:
        return sum(self.premiums)

    @property
    def initial_values(self) -> tuple:
        if np.isscalar(self.v0_ind):
            return tuple(float(self.v0_ind) for _ in range(self.n))
        if len(self.v0_ind) != self.n:
            raise ValueError("v0_ind needs n entries")
        return tuple(float(v) for v in self.v0_ind)

    @property
    def boundaries(self) -> tuple:
        if self.k_vec is not None:
            return self.k_vec
        return tuple(self.policy.k for _ in range(self.n))


@dataclass(frozen=True)
class PoolState:
    t: int
    price: float
    accounts: tuple
    collective: CollectiveAccount
    external_support: float = 0.0  # cumulative units an outside sponsor covered


@dataclass(frozen=True)
class StepReport:
    t: int
    z_star: float
    covered: bool
    claims_total: float
    rows: tuple
    support_added: float


@dataclass(frozen=True)
class SimulationResult:
    mean_terminal_value: float
    penalized_objective: float
    realized_variation: float
    shortfall_freq: float
    external_support: float
    n_paths: int


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


def init_pool(config: PoolConfig) -> PoolState:
    """Fresh pool at t = 0 with values priced at h0."""
    values = config.initial_values
    ks = config.boundaries
    accounts = tuple(
        IndividualAccount(eta=v / config.h0, value=v, k=k, owner_id=i)
        for i, (v, k) in enumerate(zip(values, ks))
    )
    theta0 = config.c0 / config.h0
    return PoolState(0, config.h0, accounts, CollectiveAccount(theta0, config.c0))


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
    if not (np.all((0.0 <= ks) & (ks <= 1.0)) and np.all((0.0 <= etas) & (etas < np.inf))
            and 0 <= theta < math.inf and help_frac >= 0):
        raise ValueError("invalid pool state")
    if help_frac <= 0:
        z = np.full(ks.shape[:-1], -1.0)
    else:
        buffer = theta / help_frac  # 2*theta at the default help fraction
        # per-boundary weighted shortfall of everyone with a tighter corridor
        short = np.maximum(ks[..., :, None] - ks[..., None, :], 0.0) @ etas
        active = buffer * (1.0 - ks) - short >= 0.0
        denom = buffer + np.where(active, etas, 0.0).sum(axis=-1)
        num = buffer + np.where(active, etas * ks, 0.0).sum(axis=-1)
        some = denom > 0  # no buffer and nobody active: nothing is ever covered
        # + 0.0 reports a zero threshold as 0.0, never -0.0
        z = np.where(some, np.clip(-num / np.where(some, denom, 1.0), -1.0, 0.0) + 0.0, -1.0)
    return float(z) if ks.ndim == 1 else z


def _coverage_ok(theta_prev, rho, claims_weighted, help_frac):
    # strict: help only when the collective can strictly cover the aggregate claim;
    # a period with no claims has nothing to cover.  Elementwise over paths.
    return (claims_weighted <= 0) | (theta_prev * (1.0 + rho) > help_frac * claims_weighted)


def step(pool: PoolState, gross_return: float, config: PoolConfig):
    """Advance one period: growth, premium purchases, corridor transfers.

    Returns the new state and a per-agent report.  Transfers are computed from
    the pre-step values and the period's net return; premia buy units at the
    post-growth price.  Runs the period rule of `simulate` on one path.
    """
    if not gross_return > 0:
        raise ValueError("gross return must be positive")
    accounts, theta_prev, t = pool.accounts, pool.collective.theta, pool.t + 1
    owners = [a.owner_id for a in accounts]
    ks = [a.k for a in accounts]
    eta_prev = np.array([a.eta for a in accounts])
    z = z_star(ks, eta_prev, max(theta_prev, 0.0), config.policy.help_frac)
    price, v, eta, theta, claim, net, covered, _, support = _period(
        config, _rule(config, ks, config.premiums, _member_sum, owners), t, np.array([float(gross_return)]), np.array([pool.price]),
        np.array([[a.value] for a in accounts]), eta_prev[:, None], np.array([theta_prev]),
    )
    price, theta, support_added = float(price[0]), float(theta[0]), float(support[0])
    v, eta, net = v[:, 0].tolist(), eta[:, 0].tolist(), net[:, 0].tolist()
    collective = CollectiveAccount(theta, theta * price)
    rows = tuple(
        {
            "t": t,
            "owner_id": owners[i],
            "V": v[i],
            "eta": eta[i],
            "transfer_units": net[i] / price,
            "transfer_value": net[i],
            "help_granted": net[i] > 0,  # nobody gives and claims in one period
            "z_star": z,
            "theta": theta,
            "C": collective.value,
        }
        for i in range(len(accounts))
    )
    state = PoolState(
        t,
        price,
        tuple(IndividualAccount(e, x, k, o) for e, x, k, o in zip(eta, v, ks, owners)),
        collective,
        pool.external_support + support_added,
    )
    claims_total = float(_member_sum(claim)[0])
    return state, StepReport(t, z, bool(covered[0]), claims_total, rows, support_added)


def run_path(config: PoolConfig, gross_returns: Sequence[float]):
    """Run one full trajectory; returns the final state and all step reports."""
    pool = init_pool(config)
    reports = []
    for y in gross_returns:
        pool, rep = step(pool, float(y), config)
        reports.append(rep)
    return pool, reports


# paths drawn and run together: memory stays flat in the path count and a
# period's row of a block stays in cache
_BLOCK_PATHS = 8192


def _member_sum(x: np.ndarray) -> np.ndarray:
    """Sum a (members, paths) array over members, adding row after row.

    numpy keeps that order for two or more paths but pairwise-sums a single
    column, so a lone path (the last of a block, or the one failing path of a
    settlement) would round differently from the same path among others.
    """
    return x.sum(axis=0) if x.shape[1] > 1 else np.cumsum(x, axis=0)[-1]


def _settle_rounds(claims: np.ndarray, weights: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """The round rule of `claim_settlement.settle` on many batches at once.

    Column b of `claims` and `weights` (members x batches; weights need not sum
    to 1) with `pool[b]` is one batch.  Each batch ends within `members` rounds.
    """
    alloc = np.zeros_like(claims)
    active = claims > 0
    for _ in range(claims.shape[0]):
        if not active.any():
            break
        total_w = _member_sum(np.where(active, weights, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            slices = np.where(total_w > 0, pool * (weights / total_w), 0.0)  # as settle
        fits = active & (claims <= slices)
        # a round where nothing fits pays min(claim, slice) and ends the batch
        last = active & ~fits.any(axis=0)
        alloc = np.where(fits, claims, np.where(last, np.minimum(claims, slices), alloc))
        pool = pool - _member_sum(np.where(fits, claims, 0.0))
        active &= ~(fits | last)
    return alloc


def _rule(config: PoolConfig, ks, prem, total, owners) -> tuple:
    """What `_period` holds fixed, for columns with boundaries ks, premia prem and owners."""

    @functools.cache
    def weights(t):
        return np.array(_lagged_shares(config.index_source, t, owners), dtype=float)[:, None]

    gp = config.gamma * np.array(prem)[:, None]
    return np.array(ks)[:, None], gp, (1.0 - config.gamma) * config.premium_total, total, weights


def _period(config: PoolConfig, rule, t, y, price, v, eta, theta):
    """Period t of the transfer rule on (columns, paths) arrays, from returns y.

    `rule` holds what stays fixed over the periods: the boundaries k and the
    premium purchases gamma * pi (columns x 1), the collective's inflow, the
    member sum `total` of a (columns, paths) array and `weights(t)`, the lagged
    ledger shares by column.  Returns the new price, values, units and
    collective, the claims and net transfers by column, and per path whether
    the collective covered the claims, whether coverage failed with a claim
    open, and the support an outside sponsor added.
    """
    pol, regime = config.policy, config.regime
    k, gp, inflow, total, weights = rule
    if eta.min() < 0:
        raise ValueError("invalid pool state: negative unit count")
    rho = y - 1.0
    price = price * y
    eta_prev, theta_prev = eta, theta
    eta = eta_prev + gp / price
    theta = theta_prev + inflow / price

    give = pol.give_frac * v * np.maximum(rho - k * pol.p, 0.0)
    short = np.maximum(-k - rho, 0.0)
    claim = pol.help_frac * v * short
    covered = _coverage_ok(theta_prev, rho, total(eta_prev * short), pol.help_frac)
    failed = ~covered & (claim > 0).any(axis=0)
    paid = claim if regime == ALWAYS_HELP else np.where(covered, claim, 0.0)
    if regime == INDEX_CAPPED_HELP:
        # where coverage failed, the claims settle in units against the
        # collective by the claimants' lagged ledger shares
        paths = np.flatnonzero(failed & (theta_prev > 0))
        if paths.size:
            units = _settle_rounds(claim[:, paths] / price[paths], weights(t), theta_prev[paths])
            paid[:, paths] = units * price[paths]

    deficit_before = np.maximum(0.0, -theta)
    net = paid - give
    eta = eta + net / price
    theta = theta - total(net) / price
    support = np.maximum(0.0, np.maximum(0.0, -theta) - deficit_before)
    if regime != ALWAYS_HELP and theta.min() < -1e-12:
        raise RuntimeError("collective went negative outside AlwaysHelp")
    return price, eta * price, eta, theta, claim, net, covered, failed, support


def _pool_kernel(config: PoolConfig, blocks, n_paths: int) -> SimulationResult:
    # state is (columns, paths): one column per member, or one column for all
    # n members when they are alike and no ledger tells them apart.  Each block
    # of return paths runs through all T periods on its own; only per-path
    # statistics are kept, and reduced over all paths at the end.
    n, T = config.n, config.T
    ks, prem, v0 = config.boundaries, config.premiums, config.initial_values
    if config.regime != INDEX_CAPPED_HELP and len(set(zip(ks, prem, v0))) == 1:
        ks, prem, v0 = ks[:1], prem[:1], v0[:1]
    if len(ks) == 1:
        total, mean = (lambda x: n * x[0]), (lambda x: x[0])
    else:
        total, mean = _member_sum, (lambda x: _member_sum(x) / n)
    rule = _rule(config, ks, prem, total, range(n))
    gp = rule[1]
    terminal, rv, support = np.empty(n_paths), np.zeros(n_paths), np.zeros(n_paths)
    shortfall_steps, lo = 0, 0
    for block in blocks:
        hi = lo + len(block)
        price = np.full(hi - lo, config.h0)
        v = np.repeat(np.array(v0)[:, None], hi - lo, axis=1)
        eta = v / config.h0
        theta = np.full(hi - lo, config.c0 / config.h0)
        path_rv, path_support = rv[lo:hi], support[lo:hi]  # views the periods add into

        # period-major, so each period's returns are contiguous (no copy for
        # the blocks of `simulate`'s pipeline, which are stored that way)
        for t, y in enumerate(np.ascontiguousarray(block.T), 1):
            v_prev = v
            price, v, eta, theta, _, _, _, failed, added = _period(
                config, rule, t, y, price, v, eta, theta
            )
            shortfall_steps += int(np.count_nonzero(failed))
            path_support += added
            # a member holding nothing adds the limit of its term, 0: with
            # V_{t-1} = eps the numerator is O(eps^2)
            sq = (v - v_prev - gp) ** 2
            path_rv += mean(np.divide(sq, v_prev, out=np.zeros_like(sq), where=v_prev > 0))
        terminal[lo:hi] = mean(v)
        lo = hi
        del block, y  # a finished block is freed before the next is asked for

    mean_vt, mean_rv = float(terminal.mean()), float(rv.mean())
    return SimulationResult(
        mean_terminal_value=mean_vt,
        penalized_objective=mean_vt - config.policy.alpha * mean_rv,
        realized_variation=mean_rv,
        shortfall_freq=shortfall_steps / (n_paths * T),
        external_support=float(support.mean()),
        n_paths=n_paths,
    )


def _lagged_shares(ledger: Ledger, t, owner_ids) -> list:
    """Ledger shares before t of each owner, matched by str(id) as in `Ledger.to_json`."""
    shares = {str(j): s for j, s in index_for_pool(ledger, t).items()}
    return [shares.get(str(i), 0.0) for i in owner_ids]


def _one_ahead(blocks):
    """Yield the items of `blocks`, drawing the next on a helper thread meanwhile.

    One draw is in flight at most, so the generator `blocks` is never run by
    two threads at once, and its items come in order.  An error raised by a
    draw is raised here, to the caller.  Closing this generator waits for the
    draw in flight and joins the thread.  The executor's module is imported
    here, on first use, so runs of one block never load it.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(next, blocks, None)
        while (block := pending.result()) is not None:
            pending = helper.submit(next, blocks, None)
            yield block
            del block  # the caller's finished block is freed before the wait


def simulate(
    config: PoolConfig, params: GbmParams, n_paths: int, seed: int
) -> SimulationResult:
    """Monte Carlo wealth statistics over n_paths independent trajectories.

    Every regime runs the period rule of `step` over blocks of paths; when
    members are alike and no ledger tells them apart, one column stands for
    all of them, so the result agrees with `run_path` up to rounding.
    Deterministic for a fixed seed: the returns are those of
    `sample_return_matrix(params, config.T, n_paths, seed)`, drawn and
    consumed a block of paths at a time, so memory does not grow with
    T * n_paths.  With more than one block, one helper thread draws the next
    block of that same stream while the current block runs, so the results
    are the same floats; the thread is joined before this returns or raises.
    A member whose previous value is 0 adds 0 to the realized variation, the
    limit of its term.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    blocks = _return_blocks(params, config.T, n_paths, seed, _BLOCK_PATHS)
    if n_paths > _BLOCK_PATHS:
        # each block is stored period-major on the helper thread, off the kernel's path
        blocks = _one_ahead(np.asfortranarray(b) for b in blocks)
    try:
        return _pool_kernel(config, blocks, n_paths)
    finally:
        blocks.close()


def fixed_point_barriers(
    params: GbmParams,
    policy: CorridorPolicy,
    eta_vec: Sequence[float],
    theta: float,
    tol: float = 1e-6,
    max_iter: int = 100,
    grid: int = 2001,
) -> FixedPointResult:
    """Iterate c <- threshold(common k), k <- best response to c, to a fixed point.

    Starts at k = 1 (nobody claims).  A detected 2-cycle returns the iterate
    with the larger gated objective and sets cycle_flag; hitting max_iter
    returns converged = False.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    n = len(eta_vec)
    k_min = admissible_min_k(params, policy)
    k_bar = 1.0
    history = [k_bar]
    c = 0.0
    for it in range(1, max_iter + 1):
        c = z_star([k_bar] * n, eta_vec, theta, policy.help_frac)
        k_next = k_of_c(params, policy, c, grid=grid, k_min=k_min).k_star
        if abs(k_next - k_bar) < tol:
            c_final = z_star([k_next] * n, eta_vec, theta, policy.help_frac)
            return FixedPointResult(k_next, c_final, it, True, False)
        if len(history) >= 2 and abs(k_next - history[-2]) < tol:
            # 2-cycle: keep whichever iterate scores higher on its own gated objective
            cand = []
            for kk in (k_bar, k_next):
                cz = z_star([kk] * n, eta_vec, theta, policy.help_frac)
                cand.append((n_func(params, policy, cz, kk), kk, cz))
            val, kk, cz = max(cand)
            return FixedPointResult(kk, cz, it, True, True)
        history.append(k_next)
        k_bar = k_next
    return FixedPointResult(k_bar, c, max_iter, False, False)


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
    if not 0 <= j < len(eta_vec):
        raise ValueError("agent index out of range")
    if not 0 <= theta < math.inf:
        raise ValueError("theta must be finite and nonnegative")
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
    grid: int = 201,
) -> float:
    """Empirical best-response improvement of agent j over the common barrier.

    Scans the agent's own boundary while everyone else stays at k_bar; the
    gated objective sees the threshold produced by the deviated pool.
    """
    n = len(eta_vec)
    common = n_func(params, policy, z_star([k_bar] * n, eta_vec, theta, policy.help_frac), k_bar)
    own = np.linspace(0.0, 1.0, grid)
    profiles = np.full((grid, n), float(k_bar))
    profiles[:, j] = own
    cutoffs = z_star(profiles, eta_vec, theta, policy.help_frac)
    return float(np.max(n_func(params, policy, cutoffs, own))) - common


def dp_check(
    params: GbmParams,
    policy: CorridorPolicy,
    T: int,
    grid: int = 21,
    gamma_pi: float = 0.0,
    v0: float = 1.0,
    tol: float = 1e-9,
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
    schedule beats the best constant boundary by more than tol.
    """
    if not (T >= 1 and 0 <= v0 < math.inf and 0 <= gamma_pi < math.inf):
        raise ValueError("dp_check needs T >= 1 and finite nonnegative v0 and gamma_pi")
    if not grid >= 1:
        raise ValueError("dp_check needs grid >= 1")
    k_min = admissible_min_k(params, policy)
    ks = np.linspace(k_min, 1.0, grid)
    s1, s2 = _psi(params, policy, ks)
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
        stationary=gap <= tol,
        best_profile=tuple(float(ks[i]) for i in reversed(schedule)),
        best_value=best_value,
        best_constant_k=float(ks[c]),
        best_constant_value=best_constant_value,
        gap=gap,
        tol=tol,
    )
