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
regime, and one loop, `_trajectory`, runs it from the initial state:
`simulate` over blocks of paths, and `run_path` on one path with a column per
member, returning a `StepReport` (price, coverage, claims, support and one row
per member) for each period.
An IndexCappedHelp run reads its ledger once, as it starts, into one row of
shares per period (`_share_table`, the one place members 0..n-1 match ledger
ids, by `str(id)`); every other pool runs on the numeric modules alone.

`run_path`'s z_star column is `corridor_math._threshold`.  The pool game's
closed forms (`z_star`, the common-boundary fixed point, the best-response
bounds, `dp_check`) live in `corridor_math` too, which never loads this engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import _EXPORTS, _check_count
from .corridor_math import CorridorPolicy, _check_k, _threshold
from .market_model import GbmParams, _path_stream, _return_blocks

if TYPE_CHECKING:
    from .redistribution_index import Ledger

__all__ = _EXPORTS["pool_simulator"]

ALWAYS_HELP = "AlwaysHelp"
NO_HELP_IF_INSUFFICIENT = "NoHelpIfInsufficient"
INDEX_CAPPED_HELP = "IndexCappedHelp"
_REGIMES = (ALWAYS_HELP, NO_HELP_IF_INSUFFICIENT, INDEX_CAPPED_HELP)


def _per_member(value, n: int, name: str) -> tuple:
    """The setting `name` as n floats: one scalar for every member, or one value each."""
    if np.isscalar(value):
        return (float(value),) * n
    if len(value) != n:
        raise ValueError(f"{name} needs n entries")
    return tuple(float(x) for x in value)


@dataclass(frozen=True)
class PoolConfig:
    """Static pool description.

    pi_ind may be a scalar (homogeneous premia) or one value per individual;
    the collective's inflow is their sum.  k_vec overrides the policy
    boundary per individual.  index_source must be a recorded ledger when the regime is
    IndexCappedHelp, with an event before t = 1 (the first period reads the
    shares before it), and at least one member id 0..n-1 must appear in it
    (compared as strings, so a JSON ledger's "0" is member 0); each run reads
    it as it stands when the run starts.  Under any other regime it must be
    None, as no other regime reads it.  Initial values must be nonnegative.
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
        _check_count(self.n, "n")
        _check_count(self.T, "T")
        _check_k(self.gamma, "gamma")
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
            if len(self.k_vec) != self.n:
                raise ValueError("k_vec needs n entries")
            _check_k(self.k_vec, "k_vec")
            object.__setattr__(self, "k_vec", tuple(float(k) for k in self.k_vec))
        if self.regime == INDEX_CAPPED_HELP:
            if self.index_source is None:
                raise ValueError("IndexCappedHelp needs an index_source ledger")
            _share_table(self, 1)  # raises unless an event precedes t = 1 and a member is named
        elif self.index_source is not None:
            raise ValueError(f"{self.regime} reads no index_source ledger; pass None")

    @property
    def premiums(self) -> tuple:
        return _per_member(self.pi_ind, self.n, "pi_ind")

    @property
    def premium_total(self) -> float:
        return sum(self.premiums)

    @property
    def initial_values(self) -> tuple:
        return _per_member(self.v0_ind, self.n, "v0_ind")

    @property
    def boundaries(self) -> tuple:
        return self.k_vec if self.k_vec is not None else (self.policy.k,) * self.n


@dataclass(frozen=True)
class StepReport:
    """A period of `run_path`; its rows, one per member, hold t, z_star and the collective."""

    price: float
    covered: bool
    claims_total: float
    support_added: float
    rows: tuple


@dataclass(frozen=True)
class SimulationResult:
    mean_terminal_value: float
    penalized_objective: float
    realized_variation: float
    shortfall_freq: float
    external_support: float
    n_paths: int


def _coverage_ok(theta_prev, rho, claims_weighted, help_frac):
    # strict: help only when the collective can strictly cover the aggregate claim;
    # a period with no claims has nothing to cover.  Elementwise over paths.
    return (claims_weighted <= 0) | (theta_prev * (1.0 + rho) > help_frac * claims_weighted)


# paths drawn and run together: memory stays flat in the path count and a
# period's row of a block stays in cache
_BLOCK_PATHS = 8192


def _member_sum(x: np.ndarray) -> np.ndarray:
    """Sum a (members, paths) array over members, adding row after row.

    numpy keeps that order for two or more paths but pairwise-sums a single
    column, so a lone path (the last of a block, or the one failing path of a
    settlement) would round differently from the same path among others.
    """
    return np.add.reduce(x, axis=0) if x.shape[1] > 1 else np.cumsum(x, axis=0)[-1]


def _settle_rounds(claims: np.ndarray, weights: np.ndarray, pool: np.ndarray):
    """The round rule of `claim_settlement.settle` on many batches at once.

    Column b of `claims` and `weights` (members x batches; weights need not sum
    to 1) with `pool[b]` is one batch.  Each batch ends within `members` rounds.
    Claimants without weight, whom `settle` never pays (their slice is 0), are dropped
    up front.  Row 0 of `running`, (members + 1) x batches, holds the pool left.
    Returns the allocations and the pool left, as `settle` computes them.
    """
    alloc = np.zeros(claims.shape)
    active = (claims > 0) & (weights > 0)
    running = np.concatenate((pool[None], alloc))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(claims.shape[0]):
            if not np.count_nonzero(active):
                break
            # an active batch's total weight is > 0; the other batches' slices are masked
            slices = running[0] * (weights / _member_sum(np.where(active, weights, 0.0)))
            fits = active & (claims <= slices)
            # a round where nothing fits pays min(claim, slice) and ends the batch
            paying = np.where(fits.any(axis=0), fits, active)
            due = np.where(paying, np.minimum(claims, slices), 0.0)
            # settle pays member after member, none more than the pool left.  The running
            # pool, unclamped, first goes below 0 at the payment that overdraws it; clamped
            # at 0, it pays that one what was left, and the later ones nothing
            running[1:] = due
            np.maximum(np.subtract.accumulate(running, axis=0, out=running), 0.0, out=running)
            alloc += np.minimum(due, running[:-1])  # 0 where not paying
            running[0] = running[-1]
            active ^= paying
    return alloc, running[0]


def _share_table(config: PoolConfig, periods: int) -> np.ndarray:
    """The lagged shares of periods 1..periods, (periods, n, 1) floats: row t - 1 holds
    what `index_for_pool` reads at t for members 0..n-1, matched to ledger ids by
    str(id) as `Ledger.to_json` writes them (0 for one not named by then).  Raises
    as `index_for_pool` does without an event before t = 1, then if no member is
    among the ledger's ids."""
    from .redistribution_index import index_for_pool

    ledger, members = config.index_source, [str(i) for i in range(config.n)]
    rows = []
    for t in range(1, periods + 1):
        shares = {str(j): s for j, s in index_for_pool(ledger, t).items()}
        rows.append([shares.get(i, 0.0) for i in members])
    if not {str(j) for j in ledger.ids}.intersection(members):
        raise ValueError("no pool member (ids 0..n-1) appears in the index_source ledger")
    return np.array(rows, dtype=float).reshape(periods, config.n, 1)


def _rule(config: PoolConfig, ks, prem, total, periods: int) -> tuple:
    """What `_period` holds fixed over `periods` periods, for columns with boundaries ks and
    premia prem; IndexCappedHelp, which runs a column per member, reads its share table."""
    weights = _share_table(config, periods) if config.regime == INDEX_CAPPED_HELP else None
    k, gp = np.array(ks)[:, None], config.gamma * np.array(prem)[:, None]
    return -k, k * config.policy.p, gp, (1.0 - config.gamma) * config.premium_total, total, weights


def _period(config: PoolConfig, rule, t, y, price, v, eta, theta):
    """Period t of the transfer rule on (columns, paths) arrays, from returns y.

    `rule` holds what stays fixed over the periods: -k and k * p for the
    boundaries k and the premium purchases gamma * pi (columns x 1), the
    collective's inflow, the member sum `total` of a (columns, paths) array
    and `weights`, the share table (None outside IndexCappedHelp), whose row
    t - 1 holds the lagged ledger shares by column.  Returns the new
    price, values, units and collective, the claims and net transfers by
    column, and per path whether the collective covered the claims, whether
    coverage failed with a claim open, and the support an outside sponsor
    added: only where the collective ended below zero, None (+0.0 on every
    path) in a period where it did so on no path.
    """
    pol, regime = config.policy, config.regime
    neg_k, kp, gp, inflow, total, weights = rule
    if eta.min() < 0:
        raise ValueError("invalid pool state: negative unit count")
    rho = y - 1.0
    price = price * y
    eta_prev, theta_prev = eta, theta
    eta = eta_prev + gp / price
    theta = theta_prev + inflow / price

    # clipped and scaled in place: each is (frac * v) times its clipped excess
    give = rho - kp
    np.maximum(give, 0.0, out=give)
    give *= pol.give_frac * v
    short = neg_k - rho
    np.maximum(short, 0.0, out=short)
    claim = pol.help_frac * v
    claim *= short
    short *= eta_prev
    covered = _coverage_ok(theta_prev, rho, total(short), pol.help_frac)
    failed = ~covered & (claim > 0).any(axis=0)
    paid = claim if regime == ALWAYS_HELP else np.where(covered, claim, 0.0)
    if regime == INDEX_CAPPED_HELP:
        # where coverage failed, the claims settle in units against the
        # collective by the claimants' lagged ledger shares
        paths = np.flatnonzero(failed & (theta_prev > 0))
        if paths.size:
            at = price[paths]
            units, left = _settle_rounds(claim[:, paths] / at, weights[t - 1], theta_prev[paths])
            paid[:, paths] = units * at

    net = paid - give
    eta += net / price
    theta_next = theta - total(net) / price
    if regime == INDEX_CAPPED_HELP and paths.size:
        # the units settlement left, not a round trip of the paid units
        # through their value, which can leave the collective an ulp below 0
        theta_next[paths] = left + (inflow + total(give[:, paths])) / at
    low = theta_next.min()
    if regime != ALWAYS_HELP and low < -1e-12:
        raise RuntimeError("collective went negative outside AlwaysHelp")
    # the deficit's growth, max(0, -theta_next) - max(0, -theta), where it is above 0
    support = np.maximum(np.minimum(theta, 0.0) - theta_next, 0.0) if low < 0 else None
    return price, eta * price, eta, theta_next, claim, net, covered, failed, support


def _initial_state(config: PoolConfig, v0, paths: int) -> tuple:
    """(price, values, units, collective) at t = 0: v0 priced at h0, c0 / h0 collective units."""
    v = np.repeat(np.array(v0, dtype=float)[:, None], paths, axis=1)
    return np.full(paths, config.h0), v, v / config.h0, np.full(paths, config.c0 / config.h0)


def _trajectory(config: PoolConfig, rule, v0, returns):
    """The period loop: `_period` with `rule` over the rows of `returns` (periods x paths).

    Yields, for each period, the (price, values, units, collective) it started
    from and what `_period` returned; the first four of that are the state
    the next period starts from.  Once exhausted, it refuses (ValueError) a
    last state with a price outside (0, inf) or a value or collective not finite.
    """
    state = _initial_state(config, v0, returns.shape[1])
    for t, y in enumerate(returns, 1):
        out = _period(config, rule, t, y, *state)
        yield state, out
        state = out[:4]
    # such a price, or a value overflowed on a subnormal price, stays so: the last state tells
    price, v, _, theta = state
    if not (price.min() > 0.0 and all(np.isfinite(x).all() for x in (price, v, theta))):
        raise ValueError("the fund price or the accounts left the floats: the returns are too extreme")


def run_path(config: PoolConfig, gross_returns: Sequence[float]) -> list[StepReport]:
    """Run one trajectory with a column per member; returns a `StepReport` per period.

    The period rule is that of `simulate`.  The rows of the last report hold
    the terminal accounts and collective; the support an outside sponsor
    added over the path is the sum of `support_added`.  No returns give no
    reports.  The returns are one sequence of finite floats > 0 (NaN is not).
    """
    returns = np.array(gross_returns, dtype=float)
    if returns.ndim != 1 or not np.all((0.0 < returns) & (returns < math.inf)):
        raise ValueError("gross returns must be one sequence of positive finite floats")
    ks, help_frac = np.array(config.boundaries), config.policy.help_frac
    rule = _rule(config, ks, config.premiums, _member_sum, len(returns))
    # the whole trajectory first, so that a state that left the floats raises before any row
    steps = list(_trajectory(config, rule, config.initial_values, returns[:, None]))
    reports = []
    for t, (state, out) in enumerate(steps, 1):
        z = float(_threshold(ks, state[2][:, 0], max(float(state[3][0]), 0.0), help_frac))
        price, v, eta, theta, claim, net, covered, _, support = out
        price, theta = float(price[0]), float(theta[0])
        v, eta, net = v[:, 0].tolist(), eta[:, 0].tolist(), net[:, 0].tolist()
        rows = tuple(
            {
                "t": t,
                "owner_id": i,
                "V": v[i],
                "eta": eta[i],
                "transfer_units": net[i] / price,
                "transfer_value": net[i],
                "help_granted": net[i] > 0,  # nobody gives and claims in one period
                "z_star": z,
                "theta": theta,
                "C": theta * price,
            }
            for i in range(config.n)
        )
        claims_total = float(_member_sum(claim)[0])
        support = 0.0 if support is None else float(support[0])
        reports.append(StepReport(price, bool(covered[0]), claims_total, support, rows))
    return reports


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
    rule = _rule(config, ks, prem, total, T)
    gp = rule[2]
    terminal, rv, support = np.empty(n_paths), np.zeros(n_paths), np.zeros(n_paths)
    shortfall_steps, lo = 0, 0
    for block in blocks:
        hi = lo + len(block)
        path_rv, path_support = rv[lo:hi], support[lo:hi]  # views the periods add into

        # period-major, so each period's returns are contiguous (no copy for
        # the blocks of `simulate`'s pipeline, which are stored that way)
        for (_, v, _, _), out in _trajectory(config, rule, v0, np.ascontiguousarray(block.T)):
            _, v_next, _, _, _, _, _, failed, added = out
            shortfall_steps += int(np.count_nonzero(failed))
            if added is not None:
                path_support += added
            sq = (v_next - v - gp) ** 2
            if v.min() > 0:
                sq /= v
            else:  # a member holding nothing adds the limit of its term, 0: with
                # V_{t-1} = eps the numerator is O(eps^2)
                sq = np.divide(sq, v, out=np.zeros_like(sq), where=v > 0)
            path_rv += mean(sq)
        terminal[lo:hi] = mean(v_next)  # T >= 1, so the loop ran
        lo = hi
        del block  # a finished block is freed before the next is asked for

    mean_vt, mean_rv = float(terminal.mean()), float(rv.mean())
    if not math.isfinite(mean_vt) or not math.isfinite(mean_rv):  # squares of values near 1e154 do
        raise ValueError("the mean value or variation overflowed the floats: mu or sigma is too large")
    return SimulationResult(
        mean_terminal_value=mean_vt,
        penalized_objective=mean_vt - config.policy.alpha * mean_rv,
        realized_variation=mean_rv,
        shortfall_freq=shortfall_steps / (n_paths * T),
        external_support=float(support.mean()),
        n_paths=n_paths,
    )


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

    Every regime runs the period rule of `run_path` over blocks of paths; when
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
    _check_count(n_paths, "n_paths")
    blocks = _return_blocks(params, config.T, n_paths, _path_stream(seed), _BLOCK_PATHS)
    if n_paths > _BLOCK_PATHS:
        # each block is stored period-major on the helper thread, off the kernel's path
        blocks = _one_ahead(np.asfortranarray(b) for b in blocks)
    try:
        return _pool_kernel(config, blocks, n_paths)
    finally:
        blocks.close()
