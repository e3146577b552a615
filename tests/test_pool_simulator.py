import itertools
import math
import threading
import tracemalloc
import warnings
from dataclasses import astuple, replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor_pension.corridor_math import (
    CorridorPolicy,
    _PayoffMoments,
    admissible_min_k,
    best_response_gain,
    dp_check,
    fixed_point_barriers,
    horizon_objective,
    improvement_bound,
    k_of_c,
    m2_horizon,
    maximize_m2,
    n_func,
    psi1,
    psi2,
    z_star,
)
from corridor_pension.market_model import GbmParams, density_peak
from corridor_pension.pool_simulator import (
    ALWAYS_HELP,
    INDEX_CAPPED_HELP,
    NO_HELP_IF_INSUFFICIENT,
    PoolConfig,
    SimulationResult,
    StepReport,
    _coverage_ok,
    _settle_rounds,
    run_path,
    simulate,
)
from corridor_pension import corridor_math, pool_simulator
from corridor_pension.claim_settlement import ClaimBatch, settle
from corridor_pension.market_model import _path_stream, _return_blocks, expect_mc, ndtr, sample_return_matrix
from corridor_pension.redistribution_index import Ledger, index_for_pool

A = GbmParams(0.045, 0.06)


def start_units(config):
    """Unit counts and collective units at t = 0: the initial values and c0 priced at h0."""
    return [v / config.h0 for v in config.initial_values], config.c0 / config.h0


def _scalar_step(state, t, gross_return, config):
    # the period rule written out member by member with the exact `settle`,
    # kept as the oracle for the array rule that `run_path` and `simulate` share;
    # state is (price, unit counts, values, collective units) before period t
    if gross_return <= 0:
        raise ValueError("gross return must be positive")
    price_prev, eta_prev, v_prev, theta_prev = state
    pol = config.policy
    price = price_prev * gross_return
    rho = gross_return - 1.0
    prem = config.premiums
    ks = config.boundaries

    # growth + premium
    eta = [e + config.gamma * p / price for e, p in zip(eta_prev, prem)]
    values = [e * price for e in eta]
    theta = theta_prev + (1.0 - config.gamma) * config.premium_total / price

    gives = [
        pol.give_frac * v * (rho - k * pol.p) if rho > k * pol.p else 0.0
        for v, k in zip(v_prev, ks)
    ]
    claims = [
        pol.help_frac * v * (-k - rho) if rho < -k else 0.0 for v, k in zip(v_prev, ks)
    ]
    claims_weighted = sum(e * max(-k - rho, 0.0) for e, k in zip(eta_prev, ks))
    covered = _coverage_ok(theta_prev, rho, claims_weighted, pol.help_frac)
    z = z_star(ks, eta_prev, max(theta_prev, 0.0), pol.help_frac)

    if config.regime == ALWAYS_HELP or covered:
        paid = list(claims)
    elif config.regime == NO_HELP_IF_INSUFFICIENT:
        paid = [0.0] * config.n
    else:  # IndexCappedHelp, coverage failed: cap by lagged shares, then settle
        paid = [0.0] * config.n
        claimants = [i for i, c in enumerate(claims) if c > 0]  # member i has owner id i
        if claimants and theta_prev > 0:
            shares = {str(j): s for j, s in index_for_pool(config.index_source, t).items()}
            weights = [shares.get(str(i), 0.0) for i in claimants]
            total_w = sum(weights)
            if total_w > 0:
                batch = ClaimBatch(
                    claims=[claims[i] / price for i in claimants],
                    indices=[w / total_w for w in weights],
                    pool_shares=theta_prev,
                )
                result = settle(batch)
                for i, units in zip(claimants, result.allocations):
                    paid[i] = units * price

    deficit_before = max(0.0, -theta)
    for i in range(config.n):
        net = paid[i] - gives[i]
        values[i] += net
        eta[i] += net / price
    theta += (sum(gives) - sum(paid)) / price
    deficit_after = max(0.0, -theta)
    support_added = max(0.0, deficit_after - deficit_before)
    if config.regime != ALWAYS_HELP and theta < -1e-12:
        raise RuntimeError("collective went negative outside AlwaysHelp")

    rows = tuple(
        {
            "t": t,
            "owner_id": i,
            "V": values[i],
            "eta": eta[i],
            "transfer_units": (paid[i] - gives[i]) / price,
            "transfer_value": paid[i] - gives[i],
            "help_granted": paid[i] > 0,
            "z_star": z,
            "theta": theta,
            "C": theta * price,
        }
        for i in range(config.n)
    )
    state = (price, eta, values, theta)
    return state, StepReport(price, covered, sum(claims), support_added, rows)


def _scalar_run_path(config, gross_returns):
    eta, theta = start_units(config)
    state = (config.h0, eta, list(config.initial_values), theta)
    reports = []
    for t, y in enumerate(gross_returns, 1):
        state, rep = _scalar_step(state, t, float(y), config)
        reports.append(rep)
    return reports


def replay(config, returns) -> SimulationResult:
    """The statistics of `simulate`, from each sampled path stepped through the oracle."""
    n_paths, T = returns.shape
    gp = [config.gamma * p for p in config.premiums]
    terminal, rv, support, shortfall_steps = [], [], [], 0
    for row in returns:
        reports = _scalar_run_path(config, row)
        v_prev, path_rv = config.initial_values, 0.0
        for rep in reports:
            v = [r["V"] for r in rep.rows]
            path_rv += sum((vi - vp - g) ** 2 / vp for vi, vp, g in zip(v, v_prev, gp)) / config.n
            v_prev = v
            shortfall_steps += rep.claims_total > 0 and not rep.covered
        terminal.append(sum(v_prev) / config.n)
        rv.append(path_rv)
        support.append(sum(rep.support_added for rep in reports))
    mean_vt, mean_rv = float(np.mean(terminal)), float(np.mean(rv))
    return SimulationResult(
        mean_terminal_value=mean_vt,
        penalized_objective=mean_vt - config.policy.alpha * mean_rv,
        realized_variation=mean_rv,
        shortfall_freq=shortfall_steps / (n_paths * T),
        external_support=float(np.mean(support)),
        n_paths=n_paths,
    )


def base_config(**kw):
    defaults = dict(
        n=3,
        gamma=0.8,
        pi_ind=0.1,
        T=4,
        regime=ALWAYS_HELP,
        policy=CorridorPolicy(k=0.1),
        c0=0.3,
    )
    defaults.update(kw)
    return PoolConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(n=0)
    with pytest.raises(ValueError):
        base_config(gamma=1.5)
    with pytest.raises(ValueError):
        base_config(regime="Sometimes")
    with pytest.raises(ValueError):
        base_config(pi_ind=-0.1)
    with pytest.raises(ValueError):
        base_config(k_vec=(0.1, 0.2))  # wrong length
    with pytest.raises(ValueError):
        base_config(regime=INDEX_CAPPED_HELP)  # ledger missing
    for bad in ({"c0": math.nan}, {"c0": math.inf}, {"h0": math.nan}, {"gamma": math.nan},
                {"pi_ind": math.nan}, {"pi_ind": (0.1, math.nan, 0.1)}, {"pi_ind": math.inf},
                {"v0_ind": math.nan}, {"v0_ind": (1.0, 1.0, math.nan)}, {"k_vec": (0.1, math.nan, 0.1)}):
        with pytest.raises(ValueError):
            base_config(**bad)
    # a scalar stands for every member; a sequence needs one entry each
    config = base_config(pi_ind=0.1, v0_ind=(1.0, 2, 0.5))
    assert config.premiums == (0.1, 0.1, 0.1) and config.initial_values == (1.0, 2.0, 0.5)
    for field in ("pi_ind", "v0_ind", "k_vec"):
        with pytest.raises(ValueError, match=f"{field} needs n entries"):
            base_config(**{field: (1.0, 1.0)})
    for k_vec in ((0.1, 1.5, 0.1), (0.1, math.nan, 0.1)):
        with pytest.raises(ValueError, match=r"k_vec must be in \[0, 1\]"):
            base_config(k_vec=k_vec)


# each entry point that takes a count, with the smallest count it accepts
COUNT_ENTRY_POINTS = {
    "m2_horizon": (lambda T: m2_horizon(A, CorridorPolicy(), 0.1, T), 1),
    "maximize_m2": (lambda T: maximize_m2(A, CorridorPolicy(), T=T), 1),
    "dp_check": (lambda T: dp_check(A, CorridorPolicy(), T), 1),
    "PoolConfig.T": (lambda T: base_config(T=T), 1),
    "PoolConfig.n": (lambda n: base_config(n=n), 1),
    "maximize_m2.grid": (lambda grid: maximize_m2(A, CorridorPolicy(), grid=grid), 100),
    "k_of_c.grid": (lambda grid: k_of_c(A, CorridorPolicy(), -0.1, grid=grid), 100),
    "fixed_point_barriers.grid": (
        lambda grid: fixed_point_barriers(A, CorridorPolicy(), [1.0] * 3, 0.5, grid=grid), 100),
    "dp_check.grid": (lambda grid: dp_check(A, CorridorPolicy(), 2, grid=grid), 1),
    "simulate.n_paths": (lambda n_paths: simulate(base_config(), A, n_paths, 1), 1),
    "sample_return_matrix.T": (lambda T: sample_return_matrix(A, T, 3, 1), 1),
    "sample_return_matrix.n_paths": (lambda n_paths: sample_return_matrix(A, 3, n_paths, 1), 1),
    "expect_mc.n_paths": (lambda n_paths: expect_mc(A, lambda y: y, n_paths, 1), 2),
    "simulate.seed": (lambda seed: simulate(base_config(), A, 2, seed), 0),
    "sample_return_matrix.seed": (lambda seed: sample_return_matrix(A, 3, 2, seed), 0),
    "expect_mc.seed": (lambda seed: expect_mc(A, lambda y: y, 2, seed), 0),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
@pytest.mark.parametrize("count", [2.5, 2.0, True, "2", np.float64(2.0)],
                         ids=["2.5", "2.0", "True", "str", "float64"])
def test_counts_must_be_integers(entry, count):
    # a horizon, member, path or grid count is refused at entry unless it is
    # an integer, where 2.5 used to fail late with a TypeError or run as 2
    call, least = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="must be an integer >= "):
        call(count)
    with pytest.raises(ValueError, match=f"must be an integer >= {least}"):
        call(np.int64(least - 1))
    call(np.int64(least))


def test_run_path_starts_from_the_initial_state():
    # no returns give no reports; one period at y = 1, inside the corridor,
    # adds only the premia to the initial values and c0, priced at h0
    v0, c0, h0, gamma, pi = 2.0, 0.5, 2.0, 0.75, 0.25
    cfg = base_config(v0_ind=v0, c0=c0, h0=h0, gamma=gamma, pi_ind=pi)
    assert run_path(cfg, []) == []
    (rep,) = run_path(cfg, [1.0])
    assert (rep.price, rep.covered, rep.claims_total, rep.support_added) == (h0, True, 0.0, 0.0)
    assert [r["eta"] for r in rep.rows] == [(v0 + gamma * pi) / h0] * 3
    assert [r["transfer_value"] for r in rep.rows] == [0.0] * 3
    assert rep.rows[0]["theta"] == (c0 + (1 - gamma) * 3 * pi) / h0


def test_run_path_rejects_returns_that_are_not_positive():
    for bad in (0.0, -0.5, math.nan, math.inf):  # inf gave NaN rows
        with pytest.raises(ValueError, match="positive"):
            run_path(base_config(), [1.01, bad, 1.02])
    with pytest.raises(ValueError, match="positive"):
        run_path(base_config(), [[1.01, 1.02]])  # ran two periods, flattened


@pytest.mark.parametrize("returns", [
    [1e200, 1e200],  # the price overflows to inf: NaN rows
    [1e-200, 1e-200],  # it underflows to 0: ZeroDivisionError
    [1e-155, 1e-155, 1e150],  # a subnormal price overflows the units, then recovers: NaN rows
])
def test_run_path_refuses_returns_whose_state_leaves_the_floats(returns):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="left the floats"):
            run_path(base_config(regime=NO_HELP_IF_INSUFFICIENT), returns)


@pytest.mark.parametrize("mu, T, match", [
    (800.0, 2, "left the floats"),  # the draws overflow to inf
    (-800.0, 2, "left the floats"),  # the draws underflow to 0
    (-715.0, 1, "left the floats"),  # a subnormal last price: the units overflowed
    (200.0, 2, "overflowed the floats"),  # finite values whose squares overflow
])
def test_simulate_refuses_a_market_that_leaves_the_floats(mu, T, match):
    # each returned NaN or infinite statistics, and no invariant fired
    cfg = PoolConfig(n=2, gamma=0.9, pi_ind=0.05, T=T, regime=NO_HELP_IF_INSUFFICIENT,
                     policy=CorridorPolicy(k=0.1, alpha=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match=match):
            simulate(cfg, GbmParams(mu, 0.1), 10, 0)


def test_z_star_edges():
    # empty buffer: threshold at the tightest boundary
    assert z_star([0.3, 0.5], [1.0, 1.0], 0.0) == pytest.approx(-0.3)
    # nobody ever claims
    assert z_star([1.0, 1.0], [1.0, 1.0], 0.5) == -1.0
    # single agent closed form: -(2*theta + eta*k) / (2*theta + eta)
    assert z_star([0.2], [1.0], 0.1) == pytest.approx(-(0.2 + 0.2) / (0.2 + 1.0))
    # no help leg at all
    assert z_star([0.2], [1.0], 0.1, help_frac=0.0) == -1.0
    # a buffer theta / help_frac past the floats covers everything; both gave NaN
    assert z_star([0.2], [1.0], 0.1, help_frac=5e-324) == -1.0
    assert z_star([0.2, 0.5], [1.0, 1.0], 1e308) == -1.0
    assert z_star([0.2, 0.5], [1.0, 1.0], np.float64(1e308)) == -1.0  # numpy would warn
    assert z_star([0.2], [1.0], 0.1, help_frac=np.float64(5e-324)) == -1.0
    # huge buffer covers everything down to the boundary
    assert z_star([0.2], [1.0], 1e6) == pytest.approx(-1.0, abs=1e-5)
    with pytest.raises(ValueError):
        z_star([0.2], [1.0, 1.0], 0.1)
    with pytest.raises(ValueError):
        z_star([1.2], [1.0], 0.1)
    with pytest.raises(ValueError):
        z_star([0.2], [1.0], -0.1)
    for ks, etas, theta in (([0.2], [1.0], math.nan), ([0.2], [1.0], math.inf),
                            ([0.2, 0.3], [1.0, math.nan], 0.1), ([math.nan], [1.0], 0.1)):
        with pytest.raises(ValueError):
            z_star(ks, etas, theta)
    with pytest.raises(ValueError):
        z_star([0.2], [1.0], 0.1, help_frac=math.nan)
    with pytest.raises(ValueError):
        z_star([0.2], [1.0], 0.1, help_frac=-0.1)
    with pytest.raises(ValueError, match=r"k_vec must be in \[0, 1\]"):
        z_star([1.5], [1.0], 0.0)
    # a pool with no members has no threshold, and so no fixed point: both
    # returned a cutoff of -1.0, the fixed point with converged=True
    with pytest.raises(ValueError, match="unit counts"):
        z_star([], [], 0.2)
    with pytest.raises(ValueError, match="unit counts"):
        fixed_point_barriers(A, CorridorPolicy(alpha=4.0), [], 0.2)


def test_z_star_active_set_drops_wide_boundaries():
    # with a small buffer the wide-boundary agent is out of reach and inactive
    tight = z_star([0.1, 0.9], [1.0, 1.0], 0.05)
    only_tight = z_star([0.1], [1.0], 0.05)
    assert tight == pytest.approx(only_tight)


def _z_star_loop(ks, etas, theta, help_frac):
    # the one-profile threshold written out member by member, as the reference
    # for the array form; only the order of its sums differs
    if help_frac <= 0:
        return -1.0
    buffer = theta / help_frac
    active = [
        i for i, k in enumerate(ks)
        if buffer * (1.0 - k) - sum(e * max(k - kj, 0.0) for kj, e in zip(ks, etas)) >= 0.0
    ]
    denom = buffer + sum(etas[i] for i in active)
    if denom <= 0:
        return -1.0
    return min(0.0, max(-1.0, -(buffer + sum(etas[i] * ks[i] for i in active)) / denom))


def test_z_star_over_profiles_matches_row_calls():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 8, 9, 30):
        etas = rng.uniform(0.0, 3.0, n)
        profiles = rng.uniform(0.0, 1.0, (40, n))
        profiles[:3] = 0.0
        profiles[3:6] = 1.0
        profiles[6:12] = rng.choice([0.0, 0.1, 0.5, 1.0], (6, n))
        for theta, help_frac in ((0.0, 0.5), (1.3, 0.5), (0.4, 1.0), (2.0, 0.0)):
            batched = z_star(profiles, etas, theta, help_frac)
            assert batched.shape == (40,)
            rows = [z_star(row, etas, theta, help_frac) for row in profiles]
            assert all(type(z) is float for z in rows)
            assert batched.tolist() == rows
            loop = [_z_star_loop(row.tolist(), etas.tolist(), theta, help_frac) for row in profiles]
            assert np.max(np.abs(batched - loop)) <= 1e-15
    # an empty buffer with a member at k = 0 gives threshold 0.0, never -0.0
    assert math.copysign(1.0, z_star([0.0, 0.5], [1.0, 1.0], 0.0)) == 1.0
    with pytest.raises(ValueError):
        z_star(np.zeros((2, 2, 2)), [1.0, 1.0], 0.1)
    with pytest.raises(ValueError):
        z_star(np.zeros((3, 2)), [1.0, 1.0, 1.0], 0.1)


@given(
    n=st.integers(1, 6),
    theta=st.floats(0.0, 3.0),
    rho=st.floats(-0.95, 0.5),
    data=st.data(),
)
@settings(max_examples=10_000, deadline=None)
def test_indicator_matches_z_star(n, theta, rho, data):
    ks = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    etas = data.draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n))
    z = z_star(ks, etas, theta)
    claims = sum(e * max(-k - rho, 0.0) for e, k in zip(etas, ks))
    covered = _coverage_ok(theta, rho, claims, 0.5)
    if abs(rho - z) <= 1e-9:
        return  # boundary itself is ambiguous in floating point
    if claims == 0.0:
        assert covered
        return
    assert covered == (rho > z)


def test_step_conservation_and_accounting():
    cfg = base_config()
    eta0, theta0 = start_units(cfg)
    y = 0.8  # breach below: -0.2 < -k
    (rep,) = run_path(cfg, [y])
    price = cfg.h0 * y
    assert rep.price == price
    # unit conservation: transfers move units, premia add them
    units_before = sum(eta0) + theta0
    units_after = sum(r["eta"] for r in rep.rows) + rep.rows[0]["theta"]
    premium_units = cfg.premium_total / price
    assert units_after == pytest.approx(units_before + premium_units, abs=1e-12)
    # value identities
    for r in rep.rows:
        assert r["V"] == pytest.approx(r["eta"] * price, abs=1e-12)
        assert r["C"] == pytest.approx(r["theta"] * price, abs=1e-12)
    # every agent breached and was helped
    assert all(r["help_granted"] for r in rep.rows)
    assert rep.claims_total == pytest.approx(3 * 0.5 * 1.0 * 0.1, abs=1e-12)


def test_step_give_direction():
    cfg = base_config(policy=CorridorPolicy(k=0.1, give_frac=0.25))
    (rep,) = run_path(cfg, [1.3])  # +30% breaches the upper boundary
    give = 0.25 * 1.0 * 0.2
    for r in rep.rows:
        assert r["transfer_value"] == pytest.approx(-give, abs=1e-12)
    assert rep.rows[0]["theta"] > start_units(cfg)[1]


def test_step_inside_corridor_no_transfer():
    cfg = base_config()
    (rep,) = run_path(cfg, [1.05])
    for r in rep.rows:
        assert r["transfer_value"] == 0.0
        assert not r["help_granted"]


def test_always_help_support_counter():
    # tiny buffer, certain breach: collective goes negative, support recorded
    cfg = base_config(c0=0.01, gamma=1.0)
    (rep,) = run_path(cfg, [0.7])
    assert rep.rows[0]["theta"] < 0
    assert rep.support_added == pytest.approx(-rep.rows[0]["theta"], abs=1e-12)


def test_no_help_regime_blocks_uncovered_claims():
    cfg = base_config(regime=NO_HELP_IF_INSUFFICIENT, c0=0.01, gamma=1.0)
    (rep,) = run_path(cfg, [0.7])
    assert not rep.covered
    assert all(not r["help_granted"] for r in rep.rows)
    assert rep.rows[0]["theta"] >= 0
    assert rep.support_added == 0.0


def test_coverage_gate_is_strict():
    # theta exactly equal to the claim in units must NOT count as covered
    pol = CorridorPolicy(k=0.1, help_frac=0.5)
    rho = -0.3
    claims_units = 1.0 * (-(-0.1) - rho - 0.2)  # eta * (-k - rho) = 0.1... computed below
    claims_units = 1.0 * (-0.1 - rho)  # 0.2
    theta_exact = 0.5 * claims_units / (1.0 + rho)
    assert not _coverage_ok(theta_exact, rho, claims_units, 0.5)
    assert _coverage_ok(theta_exact * (1 + 1e-9), rho, claims_units, 0.5)
    # nothing to cover is always covered
    assert _coverage_ok(0.0, 0.05, 0.0, 0.5)


def test_index_capped_regime_caps_by_lagged_shares():
    led = Ledger(mode="proportional")
    led.record(0.5, {0: F(3), 1: F(1)}, F(0))
    pol = CorridorPolicy(k=0.1, help_frac=0.5)
    cfg = PoolConfig(
        n=2, gamma=1.0, pi_ind=0.0, T=1, regime=INDEX_CAPPED_HELP,
        policy=pol, index_source=led, c0=0.05,
    )
    y = 0.7  # claims: 0.5 * 1.0 * 0.2 = 0.1 each in value, pool holds 0.05 units
    (rep,) = run_path(cfg, [y])
    assert not rep.covered
    paid = [r["transfer_value"] for r in rep.rows]
    # entire buffer distributed, nothing more
    assert sum(paid) == pytest.approx(0.05 * cfg.h0 * y, abs=1e-12)
    # agent 0 holds 3/4 of the index, agent 1 one quarter
    assert paid[0] == pytest.approx(3 * paid[1], rel=1e-9)
    assert rep.rows[0]["theta"] == pytest.approx(0.0, abs=1e-12)


def test_run_path_step_count_and_rows():
    cfg = base_config(T=6)
    reports = run_path(cfg, [1.01] * 6)
    assert len(reports) == 6
    assert all(len(rep.rows) == cfg.n for rep in reports)
    assert [r["t"] for r in reports[2].rows] == [3, 3, 3]


def test_simulate_deterministic_and_engines_agree():
    cfg = base_config(T=5)
    r1 = simulate(cfg, A, 400, seed=9)
    r2 = simulate(cfg, A, 400, seed=9)
    assert r1 == r2
    # the vectorized kernel against every path stepped through the scalar reference
    returns = sample_return_matrix(A, cfg.T, 400, 9)
    fast = r1
    slow = replay(cfg, returns)
    assert fast.mean_terminal_value == pytest.approx(slow.mean_terminal_value, rel=1e-10)
    assert fast.realized_variation == pytest.approx(slow.realized_variation, rel=1e-10)
    assert fast.shortfall_freq == slow.shortfall_freq
    assert fast.external_support == pytest.approx(slow.external_support, abs=1e-12)


def capped_ledger(ids, T=12):
    # the i-th id pays 1 + i each period into a pot that neither grows nor shrinks
    led = Ledger(mode="proportional")
    c_post = 0.0
    for t in range(T):
        contrib = {j: 1.0 + i for i, j in enumerate(ids)}
        led.record(t, contrib, c_post)
        c_post += sum(contrib.values())
    return led


KERNEL_POOL = dict(n=5, gamma=0.8, pi_ind=0.1, T=12)
STRESSED = GbmParams(0.045, 0.15)


KERNEL_CONFIGS = [
    ("heterogeneous AlwaysHelp", PoolConfig(
        regime=ALWAYS_HELP, policy=CorridorPolicy(alpha=2.0),
        k_vec=(0.02, 0.05, 0.1, 0.2, 0.3), c0=0.05, **KERNEL_POOL)),
    ("heterogeneous NoHelpIfInsufficient", PoolConfig(
        regime=NO_HELP_IF_INSUFFICIENT, policy=CorridorPolicy(alpha=2.0),
        k_vec=(0.02, 0.05, 0.1, 0.2, 0.3), c0=0.05, v0_ind=(1.0, 2.0, 0.5, 1.0, 1.5),
        **KERNEL_POOL)),
    ("IndexCappedHelp, integer ids", PoolConfig(
        regime=INDEX_CAPPED_HELP, policy=CorridorPolicy(k=0.05), c0=0.05,
        index_source=capped_ledger(range(5)), **KERNEL_POOL)),
    ("IndexCappedHelp, JSON round trip", PoolConfig(
        regime=INDEX_CAPPED_HELP, policy=CorridorPolicy(k=0.05), c0=0.05,
        index_source=Ledger.from_json(capped_ledger(range(5)).to_json()), **KERNEL_POOL)),
]


@pytest.mark.parametrize("name, config", KERNEL_CONFIGS)
def test_kernel_matches_run_path_replay(name, config):
    n_paths, seed = 80, 5
    got = simulate(config, STRESSED, n_paths, seed)
    want = replay(config, sample_return_matrix(STRESSED, config.T, n_paths, seed))
    assert got.shortfall_freq == want.shortfall_freq > 0
    for field in ("mean_terminal_value", "penalized_objective", "realized_variation"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12), field
    assert got.external_support == pytest.approx(want.external_support, rel=1e-12, abs=1e-15)
    if config.regime == INDEX_CAPPED_HELP:
        # settlement paid something: the capped pool is not the strict one
        strict = replace(config, regime=NO_HELP_IF_INSUFFICIENT, index_source=None)
        assert got.mean_terminal_value != simulate(strict, STRESSED, n_paths, seed).mean_terminal_value


def fraction_ledger(ids, T=12):
    # capped_ledger in exact arithmetic, with a pot that grows between events
    led = Ledger(mode="proportional")
    c_post = F(0)
    for t in range(T):
        contrib = {j: F(2 + i, 3) for i, j in enumerate(ids)}
        led.record(t, contrib, c_post)
        c_post = (c_post + sum(contrib.values())) * F(21, 20)
    return led


@pytest.mark.parametrize("name, config", KERNEL_CONFIGS + [
    # unit prices other than 1 and unequal initial values check the initial state too
    ("IndexCappedHelp, Fraction ledger, h0 = 1.7", PoolConfig(
        regime=INDEX_CAPPED_HELP, policy=CorridorPolicy(k=0.05), c0=0.05, h0=1.7,
        v0_ind=(1.0, 2.0, 0.5, 1.0, 1.5), index_source=fraction_ledger(range(5)), **KERNEL_POOL)),
])
def test_run_path_matches_scalar_oracle_row_by_row(name, config):
    flags = set()
    for row in sample_return_matrix(STRESSED, config.T, 60, 4):
        reports = run_path(config, row)
        for rep, want in zip(reports, _scalar_run_path(config, row), strict=True):
            assert (rep.price, rep.covered) == (want.price, want.covered)
            assert rep.support_added == pytest.approx(want.support_added, rel=1e-12)
            assert rep.claims_total == pytest.approx(want.claims_total, rel=1e-12)
            for r, w in zip(rep.rows, want.rows, strict=True):
                assert (r["t"], r["owner_id"], r["help_granted"]) == (w["t"], w["owner_id"], w["help_granted"])
                assert r["z_star"] == pytest.approx(w["z_star"], rel=0, abs=1e-15)
                for field in ("V", "eta", "transfer_value", "theta", "C"):
                    assert r[field] == pytest.approx(w[field], rel=1e-12), (field, r, w)
            flags.add((rep.covered, any(r["help_granted"] for r in rep.rows)))
    # help is paid on covered periods, and coverage fails on some
    assert (True, True) in flags and any(not covered for covered, _ in flags)
    if config.regime == INDEX_CAPPED_HELP:
        assert (False, True) in flags  # settlement paid a claim the collective could not cover


BLOCK = 7
# nine members, so a lone path's member sums would be pairwise in numpy
BLOCK_POOL = dict(n=9, gamma=0.8, pi_ind=0.1, T=12)
BLOCK_K = (0.02, 0.04, 0.05, 0.08, 0.1, 0.12, 0.2, 0.25, 0.3)


@pytest.mark.parametrize(
    "config",
    [
        PoolConfig(regime=ALWAYS_HELP, policy=CorridorPolicy(k=0.05, alpha=2.0), **BLOCK_POOL),
        PoolConfig(regime=NO_HELP_IF_INSUFFICIENT, policy=CorridorPolicy(k=0.05, alpha=2.0),
                   c0=0.05, **BLOCK_POOL),
        PoolConfig(regime=ALWAYS_HELP, policy=CorridorPolicy(alpha=2.0), k_vec=BLOCK_K,
                   c0=0.05, **BLOCK_POOL),
        PoolConfig(regime=INDEX_CAPPED_HELP, policy=CorridorPolicy(k=0.05, alpha=2.0), c0=0.05,
                   index_source=Ledger.from_json(capped_ledger(range(9)).to_json()),
                   **BLOCK_POOL),
    ],
    ids=["homogeneous AlwaysHelp", "NoHelpIfInsufficient", "heterogeneous k_vec",
         "IndexCappedHelp, JSON ledger"],
)
def test_simulate_does_not_depend_on_the_block_size(config, monkeypatch):
    # a lone path's rounding shows in the means of few paths on some seeds only
    for seed, n_paths in itertools.product(range(12), (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)):
        monkeypatch.setattr(pool_simulator, "_BLOCK_PATHS", 10**6)
        whole = simulate(config, STRESSED, n_paths, seed)
        monkeypatch.setattr(pool_simulator, "_BLOCK_PATHS", BLOCK)
        assert simulate(config, STRESSED, n_paths, seed) == whole, (seed, n_paths)
    # coverage fails on some paths, so each regime's shortfall branch runs
    assert whole.shortfall_freq > 0


def test_return_blocks_concatenate_to_the_matrix():
    for n_paths in (1, BLOCK, 2 * BLOCK + 3):
        blocks = list(_return_blocks(STRESSED, 5, n_paths, _path_stream(8), BLOCK))
        assert [len(b) for b in blocks[:-1]] == [BLOCK] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), sample_return_matrix(STRESSED, 5, n_paths, 8))


def test_return_blocks_need_a_seed_sequence():
    # a plain int seed would draw the expect_mc stream, not the path stream
    with pytest.raises(TypeError, match="SeedSequence"):
        next(_return_blocks(STRESSED, 2, 3, 8, 3))


PIPELINE_CONFIGS = [
    PoolConfig(regime=ALWAYS_HELP, policy=CorridorPolicy(k=0.05, alpha=2.0), **KERNEL_POOL),
    PoolConfig(regime=NO_HELP_IF_INSUFFICIENT, policy=CorridorPolicy(k=0.05, alpha=2.0), c0=0.05,
               **KERNEL_POOL),
    PoolConfig(regime=INDEX_CAPPED_HELP, policy=CorridorPolicy(k=0.05, alpha=2.0), c0=0.05,
               index_source=capped_ledger(range(5)), **KERNEL_POOL),
]


@pytest.mark.parametrize("config", PIPELINE_CONFIGS, ids=[c.regime for c in PIPELINE_CONFIGS])
def test_pipelined_simulate_equals_one_block(config):
    # past one block, the next block is drawn on a helper thread
    size = pool_simulator._BLOCK_PATHS
    for n_paths in (size - 1, size, size + 1, 3 * size + 5):
        returns = sample_return_matrix(STRESSED, config.T, n_paths, 3)
        one_block = pool_simulator._pool_kernel(config, [returns], n_paths)
        assert simulate(config, STRESSED, n_paths, 3) == one_block, n_paths


BENCH_POOL = dict(n=10, gamma=0.8, pi_ind=0.1, T=40)
BENCH_MARKET = GbmParams(0.045, 0.12)
# simulate(config, market, n_paths, seed=11), each field as float.hex, as the
# period rule gave them before its passes were fused; the bench pools run the
# helper thread and end on a partial block, and the last pool's collective
# goes below 0, so its support is not 0
PINNED = {
    "AlwaysHelp, bench pool": (
        PoolConfig(regime=ALWAYS_HELP, policy=CorridorPolicy(k=0.1, alpha=2.0), **BENCH_POOL),
        BENCH_MARKET, 3 * 8192 + 5,
        ("0x1.fce5cbb750070p+3", "0x1.1e5b801450917p+3", "0x1.bd149745feeb2p+1",
         "0x1.077acf7864edfp-7", "0x1.1cc8db2ae85f5p-4")),
    "NoHelpIfInsufficient, bench pool": (
        PoolConfig(regime=NO_HELP_IF_INSUFFICIENT, policy=CorridorPolicy(k=0.1, alpha=2.0),
                   **BENCH_POOL),
        BENCH_MARKET, 3 * 8192 + 5,
        ("0x1.fa72f9e9f3b7dp+3", "0x1.1c9e5d4c4b412p+3", "0x1.bba9393b50ed5p+1",
         "0x1.a0fb594f14f2ap-8", "0x0.0p+0")),
    "heterogeneous AlwaysHelp": (
        PoolConfig(regime=ALWAYS_HELP, policy=CorridorPolicy(alpha=2.0),
                   k_vec=(0.02, 0.04, 0.07, 0.1, 0.12, 0.15, 0.18, 0.22, 0.26, 0.3), **BENCH_POOL),
        BENCH_MARKET, 150,
        ("0x1.110b26c9ecaf1p+4", "0x1.316d046d04842p+3", "0x1.e152924da9b41p+1",
         "0x1.c54a6921735eep-7", "0x1.68259f51cb490p-6")),
    "IndexCappedHelp": (
        PoolConfig(regime=INDEX_CAPPED_HELP, policy=CorridorPolicy(k=0.05, alpha=2.0), c0=0.05,
                   index_source=capped_ledger(range(10), 40), **BENCH_POOL),
        STRESSED, 150,
        ("0x1.181d12e841450p+4", "0x1.197f750661febp+3", "0x1.16bab0ca208b5p+2",
         "0x1.70a3d70a3d70ap-5", "0x0.0p+0")),
    # member 4 is not in the ledger, so a claimant without weight reaches the
    # settlement: floats of the round loop that still kept it active
    "IndexCappedHelp, a member outside the ledger": (
        PoolConfig(regime=INDEX_CAPPED_HELP, policy=CorridorPolicy(k=0.05, alpha=2.0), c0=0.05,
                   index_source=capped_ledger([i for i in range(10) if i != 4], 40), **BENCH_POOL),
        STRESSED, 150,
        ("0x1.181216a3c9e3fp+4", "0x1.196001b39ed33p+3", "0x1.16c42b93f4f4bp+2",
         "0x1.6f46508dfea28p-5", "0x0.0p+0")),
    "AlwaysHelp, collective below zero": (
        PoolConfig(regime=ALWAYS_HELP, policy=CorridorPolicy(k=0.05, alpha=2.0), n=3, gamma=1.0,
                   pi_ind=0.1, T=12, c0=0.01),
        STRESSED, 150,
        ("0x1.ba3ea3af1e937p+1", "0x1.4d8460ace9997p+1", "0x1.b2e90c08d3e81p-2",
         "0x1.740da740da741p-3", "0x1.d715888cb078cp-2")),
    # transfer fractions that are not powers of 2, so the order of a product shows
    "AlwaysHelp, give 0.3 and help 0.7": (
        PoolConfig(regime=ALWAYS_HELP, c0=0.05, **BENCH_POOL,
                   policy=CorridorPolicy(k=0.1, alpha=2.0, give_frac=0.3, help_frac=0.7)),
        STRESSED, 2000,
        ("0x1.0fb471d2e860fp+4", "0x1.e9ea21dd35e94p+2", "0x1.2a73d2b735cd4p+2",
         "0x1.53404ea4a8c15p-5", "0x1.dfc9e41892d39p+0")),
}


@pytest.mark.parametrize("name", PINNED)
def test_simulate_gives_the_pinned_floats(name):
    config, market, n_paths, fields = PINNED[name]
    got = simulate(config, market, n_paths, 11)
    assert got == SimulationResult(*map(float.fromhex, fields), n_paths)


@pytest.mark.parametrize("name", ["NoHelpIfInsufficient, bench pool", "IndexCappedHelp"])
def test_a_collective_that_cannot_go_negative_adds_no_support(name):
    config, market, _, _ = PINNED[name]
    result = simulate(config, market, 300, 4)
    assert result.shortfall_freq > 0 and result.external_support == 0.0


def test_run_path_reports_no_support_as_positive_zero():
    # a run_path whose collective stays nonnegative reports +0.0, never -0.0, also
    # where settlement empties the collective to exactly 0 (-0.0 before)
    emptied = PoolConfig(regime=INDEX_CAPPED_HELP, policy=CorridorPolicy(k=0.1), n=3, gamma=1.0,
                         pi_ind=0.1, T=1, c0=0.01, index_source=capped_ledger(range(3), 1))
    cfg = base_config(T=6)
    runs = [run_path(emptied, [0.7])]
    runs += [run_path(cfg, row) for row in sample_return_matrix(STRESSED, cfg.T, 40, 2)]
    assert runs[0][0].rows[0]["theta"] == 0.0 and not runs[0][0].covered
    for rep in itertools.chain.from_iterable(runs):
        assert rep.rows[0]["theta"] >= 0
        assert rep.support_added == 0.0 and math.copysign(1.0, rep.support_added) == 1.0


class DrawFailed(Exception):
    pass


def test_pipeline_errors_propagate_and_the_thread_is_joined(monkeypatch):
    config = PIPELINE_CONFIGS[0]
    n_paths = 3 * pool_simulator._BLOCK_PATHS
    baseline = threading.active_count()

    def draw_fails_on_block_2(*args):
        blocks = _return_blocks(*args)
        yield next(blocks)
        raise DrawFailed

    monkeypatch.setattr(pool_simulator, "_return_blocks", draw_fails_on_block_2)
    with pytest.raises(DrawFailed):
        simulate(config, STRESSED, n_paths, 1)
    assert threading.active_count() == baseline
    monkeypatch.undo()

    period, threads_seen = pool_simulator._period, []

    def period_fails_on_block_2(config, rule, t, *args):
        threads_seen.append(threading.active_count())
        if len(threads_seen) > config.T:
            raise RuntimeError("kernel failed on block 2")
        return period(config, rule, t, *args)

    monkeypatch.setattr(pool_simulator, "_period", period_fails_on_block_2)
    with pytest.raises(RuntimeError, match="kernel failed on block 2") as failure:
        simulate(config, STRESSED, n_paths, 1)
    # joined even while the caller holds the traceback, and with it the kernel's frame
    assert threading.active_count() == baseline, failure
    # block 1 ran while the helper thread drew block 2
    assert max(threads_seen) == baseline + 1


def test_zero_initial_values_add_no_variation():
    # (V_t - V_{t-1} - gamma pi)^2 / V_{t-1} at V_{t-1} = 0 is its limit, 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = simulate(base_config(v0_ind=(1.0, 0.0, 1.0)), A, 50, 3)
        zero = simulate(base_config(v0_ind=0.0), A, 50, 3)
        tiny = simulate(base_config(v0_ind=1e-12), A, 50, 3)
    assert all(math.isfinite(x) for x in astuple(mixed) + astuple(zero))
    assert zero.realized_variation > 0  # later periods do vary
    assert abs(zero.realized_variation - tiny.realized_variation) < 1e-9


def test_simulate_memory_stays_flat_in_the_path_count():
    config = PoolConfig(regime=ALWAYS_HELP, policy=CorridorPolicy(k=0.1, alpha=2.0),
                        n=10, gamma=0.8, pi_ind=0.1, T=40)
    peaks = {}
    for n_paths in (20_000, 200_000):
        tracemalloc.start()
        try:
            simulate(config, GbmParams(0.045, 0.12), n_paths, 1)
            peaks[n_paths] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    # drawing every return at once took 122 MiB at 200k paths; the pipeline
    # reads 13.62-13.63 (9.25-10.53 at 20k) however its thread interleaves
    # with the kernel, alone or in this file's run (numpy 2.4), and one that
    # keeps a finished block alive, or draws two blocks ahead, 15.1
    assert peaks[200_000] < 14, peaks
    assert peaks[200_000] - peaks[20_000] < 8, peaks


def test_json_ledger_acts_like_python_ledger():
    led = capped_ledger(range(5))
    as_python = PoolConfig(regime=INDEX_CAPPED_HELP, policy=CorridorPolicy(k=0.05), c0=0.05,
                           index_source=led, **KERNEL_POOL)
    as_json = replace(as_python, index_source=Ledger.from_json(led.to_json()))
    assert simulate(as_json, STRESSED, 60, 2) == simulate(as_python, STRESSED, 60, 2)
    # one path, member by member, pays the same under both ledgers
    assert run_path(as_json, [0.7, 1.1, 0.8]) == run_path(as_python, [0.7, 1.1, 0.8])


def joining_ledger(exact=False):
    # shares that move at every event, at times that are not integers: member 0
    # pays more each time, member 2 joins at t = 2.5 and member 3 at t = 6.5,
    # member 4 never does, and "x" is no pool member
    num = F if exact else float
    led, pot = Ledger(mode="proportional"), num(0)
    times = (0.5, 1.25, 2.5, 3.75, 4.5, 5.25, 6.5, 7.75, 8.5, 9.25, 10.5, 11.75, 12.5)
    for e, t in enumerate(times):
        contrib = {0: num(1 + e), 1: num(2), "x": num(1, 2) if exact else 0.5}
        contrib.update({2: num(3)} if t >= 2.5 else {})
        contrib.update({3: num(1)} if t >= 6.5 else {})
        led.record(t, contrib, pot)
        pot = (pot + sum(contrib.values())) * (F(21, 20) if exact else 1.05)
    return led


SHARE_POOL = dict(n=5, gamma=0.8, pi_ind=0.1, T=8, regime=INDEX_CAPPED_HELP,
                  policy=CorridorPolicy(k=0.05), c0=0.05)
SHARE_CONFIGS = [
    ("integer ids", PoolConfig(index_source=joining_ledger(), **SHARE_POOL)),
    ("JSON ids", PoolConfig(index_source=Ledger.from_json(joining_ledger().to_json()), **SHARE_POOL)),
    ("Fraction shares", PoolConfig(index_source=joining_ledger(exact=True), **SHARE_POOL)),
]


def lookup_shares(config, t):
    # the lagged shares of period t looked up on their own, as the share table's
    # oracle: index_for_pool at t, members 0..n-1 matched to ledger ids by str(id)
    shares = {str(j): s for j, s in index_for_pool(config.index_source, t).items()}
    return np.array([shares.get(str(i), 0.0) for i in range(config.n)], dtype=float)[:, None]


@pytest.mark.parametrize("name, config", SHARE_CONFIGS)
def test_share_table_is_the_per_period_lookup(name, config, monkeypatch):
    tables, share_table = [], pool_simulator._share_table
    def spy(config, periods):
        tables.append(share_table(config, periods))
        return tables[-1]
    monkeypatch.setattr(pool_simulator, "_share_table", spy)
    simulate(config, STRESSED, 20, 3)
    run_path(config, sample_return_matrix(STRESSED, config.T + 7, 1, 3)[0])  # past T, as run_path may
    run_path(config, [])
    assert [len(table) for table in tables] == [config.T, config.T + 7, 0]
    for table in tables:
        want = np.array([lookup_shares(config, t) for t in range(1, len(table) + 1)])
        assert np.array_equal(table, want.reshape(-1, config.n, 1))  # shapes too
    # members who join later hold no share before they do, and member 4 none at all
    table = tables[1]
    assert not table[:2, 2].any() and table[2:, 2].all()
    assert not table[:6, 3].any() and table[6:, 3].all()
    assert not table[:, 4].any()


@pytest.mark.parametrize("name, config", SHARE_CONFIGS)
def test_settlement_reads_the_shares_of_its_own_period(name, config, monkeypatch):
    # every settlement of period t weighs the claims by the shares recorded before t
    seen, now, period, settle_rounds = [], [], pool_simulator._period, pool_simulator._settle_rounds
    def spy_period(config, rule, t, *state):
        now[:] = [t]
        return period(config, rule, t, *state)
    def spy_settle(claims, weights, pool):
        seen.append((now[0], weights.copy()))
        return settle_rounds(claims, weights, pool)
    monkeypatch.setattr(pool_simulator, "_period", spy_period)
    monkeypatch.setattr(pool_simulator, "_settle_rounds", spy_settle)
    simulate(config, STRESSED, 40, 3)
    for row in sample_return_matrix(STRESSED, config.T + 7, 20, 4):
        run_path(config, row)
    settled = {t for t, _ in seen}
    assert {1, 2, 3} <= settled and max(settled) > config.T, settled
    for t, weights in seen:
        assert np.array_equal(weights, lookup_shares(config, t)), t


def test_the_ledger_is_read_when_the_run_starts():
    # a config reads its ledger on each run, not when it is built: an event
    # recorded after the config counts, as for a config built on the finished ledger
    led = Ledger(mode="proportional")
    led.record(0.5, {0: 1.0, 1: 2.0, 2: 1.0}, 0.0)
    early = PoolConfig(index_source=led, **SHARE_POOL)
    rows = sample_return_matrix(STRESSED, early.T + 7, 5, 2)
    def run(config):
        return simulate(config, STRESSED, 200, 2), [run_path(config, row) for row in rows]
    before = run(early)
    led.record(3.5, {3: 6.0, 4: 2.0}, 4.0)
    after = run(early)
    assert after == run(PoolConfig(index_source=led, **SHARE_POOL))
    assert after[0] != before[0] and after[1] != before[1]


def test_ledger_outside_index_capped_help_rejected():
    # no other regime reads a ledger, so passing one is refused, not ignored
    for regime in (ALWAYS_HELP, NO_HELP_IF_INSUFFICIENT):
        with pytest.raises(ValueError, match="reads no index_source ledger"):
            base_config(regime=regime, index_source=capped_ledger(range(3)))


def test_index_capped_needs_a_member_in_the_ledger():
    with pytest.raises(ValueError, match="no pool member"):
        base_config(regime=INDEX_CAPPED_HELP, index_source=capped_ledger(["a", "b"]))
    # a ledger that holds some of the members is enough
    base_config(regime=INDEX_CAPPED_HELP, index_source=capped_ledger(["2", "x"]))


def test_config_rejects_negative_initial_values():
    with pytest.raises(ValueError, match="initial values"):
        base_config(v0_ind=(1.0, -0.5, 1.0))
    with pytest.raises(ValueError, match="initial values"):
        base_config(v0_ind=-1.0)
    base_config(v0_ind=(1.0, 0.0, 1.0))


def test_simulate_matches_the_exact_always_help_horizon_moments():
    # under AlwaysHelp every claim is paid, so each member's value follows
    # V_t = V_{t-1} (1 + g_t) + gamma pi exactly, with E[g] = psi1 and
    # E[g^2] = psi2: E[V_T] is v0 plus horizon_objective at alpha 0, and
    # E[V_T^2] follows q <- q (1 + 2 psi1 + psi2) + 2 gamma pi m (1 + psi1) + (gamma pi)^2
    params, policy = GbmParams(0.045, 0.12), CorridorPolicy(k=0.1, alpha=2.0)
    T, gamma, pi, v0, paths = 40, 0.8, 0.1, 1.0, 100_000
    s1, s2, gp = psi1(params, policy, policy.k), psi2(params, policy, policy.k), gamma * pi
    m, q = v0, v0 * v0
    for _ in range(T):
        m, q = m * (1 + s1) + gp, q * (1 + 2 * s1 + s2) + 2 * gp * m * (1 + s1) + gp * gp
    assert m == pytest.approx(v0 + horizon_objective([(s1, s2)] * T, 0.0, v0, gp), rel=1e-12)
    # the members are alike, so a path's member mean is each member's V_T
    config = PoolConfig(n=10, gamma=gamma, pi_ind=pi, T=T, regime=ALWAYS_HELP, policy=policy)
    res = simulate(config, params, paths, seed=1)
    assert abs(res.mean_terminal_value - m) <= 4 * math.sqrt((q - m * m) / paths)


def always_help_log_growth_law(params, policy, T, width=2e-4, lo=-2.0, hi=2.0):
    """The exact law of log V_T / v0 for an AlwaysHelp member with gamma pi = 0.

    Then V_T = v0 prod (1 + h(Y_t)), where 1 + h(Y) = Y + help (1 - k - Y)^+ -
    give (Y - 1 - k p)^+ is strictly increasing in Y for give and help below 1.
    So the law of log(1 + h) on bins of `width` over [lo, hi] is one `ndtr`
    call over the bin edges mapped back to Y, and the law of T such terms,
    each at its bin's centre, is that law's T-th power under an FFT.  Returns
    the grid of sums and their probabilities.
    """
    edges = np.linspace(lo, hi, round((hi - lo) / width) + 1)
    u, floor, cap = np.exp(edges), 1.0 - policy.k, 1.0 + policy.k * policy.p
    g, hf = policy.give_frac, policy.help_frac
    y = np.where(u < floor, (u - hf * floor) / (1.0 - hf), np.where(u > cap, (u - g * cap) / (1.0 - g), u))
    z = np.full(y.shape, -np.inf)  # edges below the floor hf (1 - k) have no Y > 0
    z[y > 0] = (np.log(y[y > 0]) - params.mu) / params.sigma
    pmf = np.diff(ndtr(z))
    size = 1 << (T * (len(pmf) - 1)).bit_length()  # past the largest sum: no wrap-around
    law = np.fft.irfft(np.fft.rfft(pmf, size) ** T, size)
    return T * (lo + width / 2) + width * np.arange(size), law


def test_always_help_tail_matches_its_exact_oracle():
    # quantiles of V_T under AlwaysHelp with gamma pi = 0, from the exact law
    # above, against 400k paths of the pool's own period rule: each lies in
    # its distribution-free order-statistic band at z = 4
    params, policy, T, paths = GbmParams(0.045, 0.12), CorridorPolicy(k=0.1, p=1.0), 40, 400_000
    assert (policy.give_frac, policy.help_frac) == (0.25, 0.5)
    sums, law = always_help_log_growth_law(params, policy, T)
    assert law.sum() == pytest.approx(1.0, abs=1e-9)
    levels = (0.001, 0.01, 0.05, 0.5, 0.95)
    oracle = np.exp(sums[np.searchsorted(np.cumsum(law), levels)])
    config = PoolConfig(n=1, gamma=0.8, pi_ind=0.0, T=T, regime=ALWAYS_HELP, policy=policy)
    rule = pool_simulator._rule(config, config.boundaries, config.premiums, pool_simulator._member_sum, T)
    terminal = []
    for block in _return_blocks(params, T, paths, _path_stream(3), pool_simulator._BLOCK_PATHS):
        for _, out in pool_simulator._trajectory(config, rule, config.initial_values, block.T.copy()):
            pass
        terminal.append(out[1][0])
    terminal = np.sort(np.concatenate(terminal))
    assert len(terminal) == paths
    for q, want in zip(levels, oracle):
        half = 4 * math.sqrt(paths * q * (1 - q))
        # the order statistics of ranks floor(Nq - half) and ceil(Nq + half), 1-based
        band = terminal[math.floor(paths * q - half) - 1], terminal[math.ceil(paths * q + half) - 1]
        assert band[0] <= want <= band[1], (q, want, band)


def test_index_capped_needs_an_event_before_the_first_period():
    # the first period reads the shares before t = 1; a ledger starting at
    # t = 5 used to fail inside simulate on some seeds and path counts only
    late = Ledger(mode="proportional")
    late.record(5, {0: 1.0, 1: 2.0, 2: 3.0}, 0.0)
    with pytest.raises(ValueError, match="event before t = 1"):
        PoolConfig(n=3, gamma=0.8, pi_ind=0.1, T=10, regime=INDEX_CAPPED_HELP,
                   policy=CorridorPolicy(k=0.05), c0=0.05, index_source=late)
    early = Ledger(mode="proportional")
    early.record(0.5, {0: 1.0}, 0.0)
    base_config(regime=INDEX_CAPPED_HELP, index_source=early)


def test_invariants_raise_real_exceptions():
    # a collective below zero outside AlwaysHelp, reached only by bypassing validation
    cfg = base_config(regime=NO_HELP_IF_INSUFFICIENT)
    object.__setattr__(cfg, "c0", -0.5)
    with pytest.raises(RuntimeError, match="collective went negative"):
        run_path(cfg, [1.0])
    with pytest.raises(RuntimeError, match="collective went negative"):
        simulate(cfg, A, 10, seed=1)
    # negative unit counts, reached the same way
    cfg = base_config()
    object.__setattr__(cfg, "v0_ind", (1.0, -0.5, 1.0))
    with pytest.raises(ValueError, match="negative unit count"):
        run_path(cfg, [1.0])
    with pytest.raises(ValueError, match="negative unit count"):
        simulate(cfg, A, 10, seed=1)


def settle_columns(claims, weights, pools):
    """`settle` on each column of (claims, weights), with weights normalized over the column.

    Returns the allocations and the pool left of each column.
    """
    out, left = np.zeros_like(claims), np.zeros_like(pools)
    for b in range(claims.shape[1]):
        total = weights[:, b].sum()
        res = settle(ClaimBatch(claims[:, b], weights[:, b] / total, pools[b]))
        out[:, b], left[b] = res.allocations, res.remaining
    return out, left


# float slices that sum to more than the pool: a terminal round, and a round
# where every claim fits (columns 5 and 6 of the named cases)
TERMINAL_OVERDRAW = ([1.0, 1.0, 0.0, 0.0, 0.0], [1 / 1.015625, 0.015625 / 1.015625, 0.0, 0.0, 0.0], 1.0)
FITTING_OVERDRAW = (
    [0.9251583110112886, 2.0626488404442447, 2.986439832655913, 2.023594785678333, 1.002160978655896],
    [0.10279533649821007, 0.22918313450520555, 0.33182654673874173, 0.22484379641193036,
     0.11135118584591233],
    9.000002748445674,
)


def test_settle_rounds_named_cases():
    # columns: README batch (three rounds), all fit in one round, terminal
    # pro rata, zero claims and zero weights mixed in, a lone claimant of
    # weight 1/64 against a subnormal pool, and the two overdraws above
    claims = np.array([[4.0, 1.0, 10.0, 0.0, 1.0], [6.0, 2.0, 10.0, 3.0, 0.0],
                       [20.0, 0.0, 10.0, 5.0, 0.0], [35.0, 0.0, 10.0, 4.0, 0.0],
                       [80.0, 0.0, 10.0, 2.0, 0.0]])
    weights = np.array([[0.2, 0.5, 0.1, 0.4, 1 / 64], [0.2, 0.5, 0.2, 0.0, 63 / 64],
                        [0.2, 0.0, 0.3, 0.3, 0.0], [0.2, 0.0, 0.2, 0.3, 0.0],
                        [0.2, 0.0, 0.2, 0.0, 0.0]])
    pools = np.array([100.0, 100.0, 10.0, 6.0, 2.225073858507e-311])
    for c, w, pool in (TERMINAL_OVERDRAW, FITTING_OVERDRAW):
        claims, weights = np.column_stack([claims, c]), np.column_stack([weights, w])
        pools = np.append(pools, pool)
    got, left = _settle_rounds(claims, weights, pools)
    assert got[:, 0].tolist() == [4.0, 6.0, 20.0, 35.0, 35.0]
    assert got[:, 1].tolist() == [1.0, 2.0, 0.0, 0.0, 0.0]
    assert got[:, 2] == pytest.approx([1.0, 2.0, 3.0, 2.0, 2.0], rel=1e-15)
    assert got[:, 3] == pytest.approx([0.0, 0.0, 3.0, 3.0, 0.0], rel=1e-15)  # weight 0: nothing
    assert got[:, 4].tolist() == [2.225073858507e-311, 0.0, 0.0, 0.0, 0.0]  # the pool, no more
    assert left[:2].tolist() == [0.0, 97.0]
    want, want_left = settle_columns(claims[:, :5], weights[:, :5], pools[:5])
    assert np.array_equal(got[:, :5], want) and np.array_equal(left[:5], want_left)
    # the overdraws as `settle` pays them: the last payment is what is left
    for b, batch in enumerate((TERMINAL_OVERDRAW, FITTING_OVERDRAW), 5):
        res = settle(ClaimBatch(*batch))
        assert got[:, b].tolist() == list(res.allocations) and left[b] == res.remaining == 0.0
    assert got[:4, 6].tolist() == FITTING_OVERDRAW[0][:4]
    assert 0 < FITTING_OVERDRAW[0][4] - got[4, 6] < 1e-14


@given(
    members=st.integers(1, 6),
    batches=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_settle_rounds_match_settle(members, batches, data):
    claim = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    shape = (members, batches)
    claims = np.array(data.draw(st.lists(claim, min_size=members * batches,
                                         max_size=members * batches))).reshape(shape)
    weights = np.array(data.draw(st.lists(weight, min_size=members * batches,
                                          max_size=members * batches))).reshape(shape)
    weights[0, weights.sum(axis=0) == 0] = 1.0  # ClaimBatch needs weights summing to 1
    pool = st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 2.3e-308))  # subnormals too
    pools = np.array(data.draw(st.lists(pool, min_size=batches, max_size=batches)))
    got, left = _settle_rounds(claims, weights, pools)
    want, want_left = settle_columns(claims, weights, pools)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * max(pools.max(), 1e-300))
    assert np.all((got >= 0) & (got <= claims))
    # pays at most the pool, and what is paid plus what is left is the pool,
    # both up to the rounding of at most `members` payments subtracted from
    # the pool and of summing them here (exact for a subnormal pool)
    ulps = pools * members * 2**-52
    for paid, rest in ((got, left), (want, want_left)):
        assert np.all(paid.sum(axis=0) <= pools + ulps)
        assert np.all(np.abs(paid.sum(axis=0) + rest - pools) <= ulps)
    assert np.allclose(left, want_left, rtol=1e-12, atol=1e-12 * max(pools.max(), 1e-300))


def reference_settle_rounds(claims, weights, pool):
    # the round loop of `_settle_rounds` with the running pool concatenated and
    # claimants without weight kept active: the reference for its bit identity
    alloc = np.zeros_like(claims)
    active = claims > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(claims.shape[0]):
            if not active.any():
                break
            total_w = pool_simulator._member_sum(np.where(active, weights, 0.0))
            slices = np.where(total_w > 0, pool * (weights / total_w), 0.0)
            fits = active & (claims <= slices)
            paying = fits | (active & ~fits.any(axis=0))
            due = np.where(paying, np.minimum(claims, slices), 0.0)
            left = np.subtract.accumulate(np.concatenate((pool[None], due)), axis=0)
            alloc += np.minimum(due, np.maximum(left[:-1], 0.0))
            pool = np.maximum(left[-1], 0.0)
            active &= ~paying
    return alloc, pool


def random_settlement(rng):
    """Claims, weights and pools of 1-12 batches of 1-10 members, with the edge cases mixed in."""
    members, batches = int(rng.integers(1, 11)), int(rng.integers(1, 13))
    scale = 10.0 ** rng.uniform(-3, 3)
    claims = rng.uniform(0, scale, (members, batches)) * (rng.random((members, batches)) < 0.7)
    shape = (members, 1) if rng.random() < 0.5 else (members, batches)
    weights = rng.uniform(0, 1, shape) * (rng.random(shape) < 0.75)
    tiny = rng.random(shape) < 0.05
    weights[tiny] = rng.uniform(0, 2.3e-308, tiny.sum())  # subnormal
    # batches whose only claimants hold no weight
    unweighted = rng.random(batches) < 0.1
    claims[:, unweighted] *= np.broadcast_to(weights == 0, claims.shape)[:, unweighted]
    pools = rng.uniform(0, 2 * members * scale, batches)
    kind = rng.random(batches)
    pools[kind < 0.1] = 0.0
    pools[kind > 0.9] = rng.uniform(0, 2.3e-308, (kind > 0.9).sum())  # subnormal
    if shape[1] == batches and members >= 5 and rng.random() < 0.3:
        # an overdraw in one column, members past the fifth without claim or weight
        c, w, pool = (TERMINAL_OVERDRAW, FITTING_OVERDRAW)[int(rng.integers(2))]
        b = int(rng.integers(batches))
        claims[:, b], weights[:, b], pools[b] = 0.0, 0.0, pool
        claims[:5, b], weights[:5, b] = c, w
    return claims, weights, pools


def test_settle_rounds_are_the_reference_bit_for_bit():
    rng = np.random.default_rng(31)
    seen = dict(batches=0, single=0, shared=0, overdraw=0, unweighted=0)
    while seen["batches"] < 20_000:
        claims, weights, pools = random_settlement(rng)
        got, left = _settle_rounds(claims, weights, pools)
        with np.errstate(over="ignore"):  # in slices no claimant reads
            want, want_left = reference_settle_rounds(claims, weights, pools)
        assert got.tobytes() == want.tobytes() and left.tobytes() == want_left.tobytes()
        seen["batches"] += claims.shape[1]
        seen["single"] += claims.shape[1] == 1
        seen["shared"] += weights.shape[1] == 1
        seen["overdraw"] += any(p in pools for p in (TERMINAL_OVERDRAW[2], FITTING_OVERDRAW[2]))
        seen["unweighted"] += np.any((claims > 0).any(axis=0) & ~((claims > 0) & (weights > 0)).any(axis=0))
    assert min(seen.values()) > 100, seen


def test_index_capped_at_money_scale_keeps_the_collective_nonnegative():
    # about 1000 units in the collective, where an ulp is more than the -1e-12
    # check: an overdrawn settlement, or settled units priced into a value and
    # back, left it an ulp below 0 on every seed
    led = Ledger(mode="proportional")
    led.record(0, {i: 1.0 + i for i in range(8)}, 0.0)
    cfg = PoolConfig(n=8, gamma=1.0, pi_ind=0.0, T=20, regime=INDEX_CAPPED_HELP,
                     policy=CorridorPolicy(k=0.05), index_source=led, c0=1000.0, v0_ind=10000.0)
    for seed in range(10):
        assert simulate(cfg, STRESSED, 2000, seed).shortfall_freq > 0
    # the paths of seed 0 on which it went below 0 member by member
    failed_rows = [371, 522, 552, 613, 1007, 1026, 1183, 1740, 1762, 1948]
    rows = sample_return_matrix(STRESSED, cfg.T, 2000, 0)[failed_rows]
    settled = 0
    for row in rows:
        reports = run_path(cfg, row)
        settled += sum(not rep.covered and any(r["help_granted"] for r in rep.rows) for rep in reports)
        assert min(rep.rows[0]["theta"] for rep in reports) >= 0
    assert settled > 0


def test_simulate_heterogeneous_routes_to_general():
    cfg = base_config(k_vec=(0.05, 0.1, 0.2), T=3)
    res = simulate(cfg, A, 50, seed=1)
    assert res.n_paths == 50
    assert 0.0 <= res.shortfall_freq <= 1.0
    assert res.penalized_objective == pytest.approx(
        res.mean_terminal_value - cfg.policy.alpha * res.realized_variation, rel=1e-12
    )


def test_fixed_point_converges_and_is_consistent():
    pol = CorridorPolicy(k=0.05)
    res = fixed_point_barriers(A, pol, [1.0] * 10, 2.0)
    assert res.converged
    assert -1.0 <= res.c <= 0.0
    # the reported c is the threshold generated by the reported barrier
    again = z_star([res.k_bar] * 10, [1.0] * 10, 2.0, pol.help_frac)
    assert res.c == pytest.approx(again, abs=1e-12)
    # fixed point: best response to c stays at k_bar (value-based check)
    vals = [n_func(A, pol, res.c, float(k)) for k in np.linspace(0, 1, 401)]
    assert n_func(A, pol, res.c, res.k_bar) >= max(vals) - 1e-9


def _fixed_point_by_k_of_c(params, policy, eta, theta):
    # the fixed point written out with one public `k_of_c` search per iteration,
    # each computing every normal-CDF row of its grid: the oracle for the
    # iteration that computes the rows of L and U once per call
    n, tol = len(eta), corridor_math._FIXED_POINT_TOL
    k_min = admissible_min_k(params, policy)
    k_bar, history = 1.0, [1.0]
    for it in range(1, corridor_math._FIXED_POINT_MAX_ITER + 1):
        c = z_star([k_bar] * n, eta, theta, policy.help_frac)
        k_next = k_of_c(params, policy, c, k_min=k_min).k_star
        if abs(k_next - k_bar) < tol:
            return k_next, z_star([k_next] * n, eta, theta, policy.help_frac), it, True, False
        if len(history) >= 2 and abs(k_next - history[-2]) < tol:
            cand = []
            for kk in (k_bar, k_next):
                cz = z_star([kk] * n, eta, theta, policy.help_frac)
                cand.append((n_func(params, policy, cz, kk), kk, cz))
            _, kk, cz = max(cand)
            return kk, cz, it, True, True
        history.append(k_next)
        k_bar = k_next
    return (k_bar, z_star([k_bar] * n, eta, theta, policy.help_frac),
            corridor_math._FIXED_POINT_MAX_ITER, False, False)


@pytest.mark.parametrize("params, policy, iterations, cycle", [
    # acceptance 2: a 2-cycle
    (A, CorridorPolicy(alpha=4.0), 3, True),
    # the tie market
    (GbmParams(0.06, 0.09328707495450515), CorridorPolicy(alpha=2.0), 9, False),
    # gives less than it takes, so its smallest admissible boundary is above 0
    (GbmParams(0.045, 0.14), CorridorPolicy(give_frac=0.1, p=1.8, alpha=2.0), 2, False),
])
def test_fixed_point_is_the_loop_of_k_of_c_searches(params, policy, iterations, cycle):
    eta, theta = [1.0] * 10, 0.2
    res = fixed_point_barriers(params, policy, eta, theta)
    assert (res.iterations, res.cycle_flag) == (iterations, cycle)
    assert astuple(res) == _fixed_point_by_k_of_c(params, policy, eta, theta)


def test_fixed_point_without_convergence_reports_the_threshold_of_k_bar(monkeypatch):
    # stopped after one iteration, k_bar = 0 comes with its own threshold, not
    # with the cutoff -1 of the search that found it
    monkeypatch.setattr(corridor_math, "_FIXED_POINT_MAX_ITER", 1)
    policy, eta, theta = CorridorPolicy(alpha=4.0), [1.0] * 10, 0.2
    res = fixed_point_barriers(A, policy, eta, theta)
    assert (res.k_bar, res.iterations, res.converged) == (0.0, 1, False)
    assert res.c == z_star([res.k_bar] * len(eta), eta, theta, policy.help_frac)
    assert astuple(res) == _fixed_point_by_k_of_c(A, policy, eta, theta)


def test_improvement_bound_formula():
    pol = CorridorPolicy(alpha=1.5, help_frac=0.5)
    eta = [1.0, 2.0, 0.5]
    theta = 0.8
    _, f_max = density_peak(A)
    want = f_max * (0.5 + pol.alpha) * eta[1] / (2 * theta + sum(eta))
    assert improvement_bound(1, eta, theta, pol, A) == pytest.approx(want, rel=1e-12)
    assert improvement_bound(0, eta, theta, CorridorPolicy(help_frac=0.0), A) == 0.0
    assert improvement_bound(0, [0.0], 0.0, pol, A) == math.inf
    with pytest.raises(ValueError):
        improvement_bound(5, eta, theta, pol, A)
    for bad_theta in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError):
            improvement_bound(1, eta, bad_theta, pol, A)


def test_best_response_gain_bounded_at_fixed_point():
    pol = CorridorPolicy(alpha=0.5)
    eta = [1.0] * 6
    theta = 1.2
    fp = fixed_point_barriers(A, pol, eta, theta)
    for j in (0, 3):
        gain = best_response_gain(A, pol, eta, theta, j, fp.k_bar)
        assert gain <= improvement_bound(j, eta, theta, pol, A) + 1e-12


def test_best_response_gain_rejects_agent_index_out_of_range():
    # -1 used to score the last member, and n raised IndexError
    pol, eta = CorridorPolicy(alpha=0.5), [1.0] * 3
    for j in (-1, 3):
        with pytest.raises(ValueError, match="agent index"):
            best_response_gain(A, pol, eta, 1.2, j, 0.3)


@pytest.mark.parametrize("eta, j, match", [
    ([math.nan, 1.0], 0, "unit counts"),  # returned nan
    ([-5.0, 1.0], 0, "unit counts"),  # returned inf
    ([1.0, 1.0], True, "agent index"),  # scored member 1
    ([1.0, 1.0], 0.5, "agent index"),  # raised TypeError
])
def test_improvement_bound_refuses_what_z_star_refuses(eta, j, match):
    with pytest.raises(ValueError, match=match):
        improvement_bound(j, eta, 0.1, CorridorPolicy(alpha=1.5), A)


@pytest.mark.parametrize("j", [
    0.5,  # raised IndexError
    True,  # raised numpy's broadcast ValueError
])
def test_best_response_gain_refuses_an_agent_index_that_is_not_an_integer(j):
    with pytest.raises(ValueError, match="agent index out of range"):
        best_response_gain(A, CorridorPolicy(alpha=0.5), [1.0] * 3, 1.2, j, 0.3)


@pytest.mark.parametrize("k_bar", [1.5, -0.1, math.nan])
def test_best_response_gain_checks_k_bar_under_its_own_name(k_bar):
    # refused as "k_vec must be in [0, 1]", by z_star on the profiles
    with pytest.raises(ValueError, match=r"k_bar must be in \[0, 1\]"):
        best_response_gain(A, CorridorPolicy(alpha=0.5), [1.0] * 3, 1.2, 0, k_bar)


def test_threshold_callers_check_their_arguments_once(monkeypatch):
    # each entry checks its pool and boundaries at entry and takes every
    # threshold from _threshold: best_response_gain ran _check_pool 3 times and
    # _check_k 4 times, and run_path ran z_star's checks in every period
    pol, eta, theta = CorridorPolicy(alpha=4.0), [1.0] * 10, 0.2  # a 2-cycle
    cfg = base_config(k_vec=(0.05, 0.1, 0.2), T=6)
    calls = {"_check_pool": 0, "_check_k": 0}
    for module, name in ((corridor_math, "_check_pool"), (corridor_math, "_check_k"),
                         (pool_simulator, "_check_k")):
        def counted(*args, name=name, check=getattr(module, name)):
            calls[name] += 1
            return check(*args)
        monkeypatch.setattr(module, name, counted)
    for call, want in (
        (lambda: z_star([0.2, 0.3], [1.0, 2.0], 0.5), (1, 1)),
        (lambda: improvement_bound(3, eta, theta, pol, A), (1, 0)),
        (lambda: fixed_point_barriers(A, pol, eta, theta), (1, 0)),
        (lambda: best_response_gain(A, pol, eta, theta, 3, 0.2), (1, 1)),
        (lambda: run_path(cfg, [0.7, 1.3, 0.9, 1.1, 0.8, 1.2]), (0, 0)),
    ):
        calls.update(_check_pool=0, _check_k=0)
        call()
        assert (calls["_check_pool"], calls["_check_k"]) == want


def test_dp_check_frozen_values():
    pol = CorridorPolicy(alpha=4.0)
    v2 = dp_check(A, pol, T=2, grid=21)
    assert v2.stationary
    assert v2.best_value == pytest.approx(1.0495283648868812, rel=1e-12)
    v3 = dp_check(A, pol, T=3, grid=21)
    assert v3.stationary
    assert v3.best_value == pytest.approx(1.075707071359815, rel=1e-12)
    assert v3.best_constant_value == pytest.approx(v3.best_value, rel=1e-12)
    # maximize_m2 over the same horizon reports the gain over v0 = 1; its
    # maximizer k=0 lies on the 21-point grid, so it meets the best constant
    for T, verdict in ((2, v2), (3, v3)):
        res = maximize_m2(A, pol, T=T)
        assert res.k_star == pytest.approx(verdict.best_constant_k, abs=1e-9)
        assert 1.0 + res.value == pytest.approx(verdict.best_constant_value, rel=1e-12)
    v3_plain = dp_check(A, CorridorPolicy(alpha=0.0), T=3, grid=21)
    assert v3_plain.stationary
    assert v3_plain.best_value == pytest.approx(1.150734000410945, rel=1e-12)
    with pytest.raises(ValueError):
        dp_check(A, pol, T=0)


def test_dp_check_enumerates_admissible_boundaries():
    # pure help is a net cost below k_min = 0.2784; k = 0 is not a candidate
    pol = CorridorPolicy(give_frac=0.0, help_frac=0.5, alpha=4.0)
    k_min = admissible_min_k(A, pol)
    assert k_min == pytest.approx(0.2784, abs=1e-4)
    verdict = dp_check(A, pol, T=2)
    assert verdict.best_constant_k >= k_min
    assert min(verdict.best_profile) >= k_min
    res = maximize_m2(A, pol, T=2)
    assert verdict.best_constant_value <= 1.0 + res.value + 1e-12


def _dp_enumerate(params, policy, T, grid, gamma_pi):
    # every grid^T profile scored forward by horizon_objective, kept as the
    # oracle for dp_check's backward pass
    ks = np.linspace(admissible_min_k(params, policy), 1.0, grid)
    pairs = list(zip(*(s.tolist() for s in _PayoffMoments(params, policy)(ks))))
    return max(
        1.0 + horizon_objective([pairs[i] for i in profile], policy.alpha, 1.0, gamma_pi)
        for profile in itertools.product(range(grid), repeat=T)
    )


@pytest.mark.parametrize("mu,sigma", [(0.045, 0.06), (0.06, 0.15), (-0.02, 0.1), (0.0, 0.3)])
@pytest.mark.parametrize(
    "pol",
    [
        CorridorPolicy(alpha=4.0),
        CorridorPolicy(give_frac=0.0, help_frac=0.5, alpha=4.0),  # k_min = 0.2784 at (4.5%, 6%)
        CorridorPolicy(give_frac=0.6, help_frac=0.3, p=1.5, alpha=0.5, J=0.2),
    ],
)
def test_dp_check_matches_enumeration(mu, sigma, pol):
    params = GbmParams(mu, sigma)
    for T in (1, 2, 3):
        for gamma_pi in (0.0, 0.1):
            verdict = dp_check(params, pol, T=T, grid=11, gamma_pi=gamma_pi)
            want = _dp_enumerate(params, pol, T, 11, gamma_pi)
            # values, not profiles: a plateau can hold two equally good profiles
            assert verdict.best_value == pytest.approx(want, rel=1e-12)
            assert verdict.gap >= 0.0
            assert len(verdict.best_profile) == T


def test_dp_check_long_horizon_schedule_narrows():
    pol = CorridorPolicy(alpha=4.0)
    verdict = dp_check(A, pol, T=40, grid=201)
    assert verdict.best_profile[0] == pytest.approx(0.43, abs=1e-12)
    assert verdict.best_profile[-4:] == (0.0,) * 4
    assert verdict.best_value == pytest.approx(3.6630, abs=1e-3)
    assert verdict.gap == pytest.approx(0.0308, abs=1e-3)
    assert not verdict.stationary
    with_premia = dp_check(A, pol, T=40, grid=201, gamma_pi=0.1)
    assert with_premia.best_profile[0] == pytest.approx(0.43, abs=1e-12)
    assert with_premia.best_profile[-4:] == (0.0,) * 4
    assert with_premia.best_value == pytest.approx(11.2965, abs=1e-3)
    assert with_premia.gap == pytest.approx(0.0771, abs=1e-3)
    assert not with_premia.stationary
    for bad in ({"v0": -1.0}, {"gamma_pi": -0.1}, {"v0": math.nan}, {"gamma_pi": math.nan},
                {"v0": math.inf}):
        with pytest.raises(ValueError):
            dp_check(A, pol, T=2, **bad)
    with pytest.raises(ValueError, match="grid"):
        dp_check(A, pol, T=2, grid=0)
    one_point = dp_check(A, pol, T=2, grid=1)  # the grid is k_min alone
    assert one_point.best_profile == (0.0, 0.0) and one_point.stationary


def test_transfer_conservation_along_path():
    cfg = base_config(T=8, gamma=0.6)
    returns = [0.75, 1.2, 1.0, 0.85, 1.4, 0.95, 1.1, 0.7]
    reports = run_path(cfg, returns)
    eta_before, theta_before = start_units(cfg)
    price = cfg.h0
    for y, rep in zip(returns, reports, strict=True):
        price *= y
        assert rep.price == price
        eta, theta = [r["eta"] for r in rep.rows], rep.rows[0]["theta"]
        inflow = cfg.premium_total / price
        assert sum(eta) + theta == pytest.approx(sum(eta_before) + theta_before + inflow, abs=1e-9)
        # what the agents received in units is exactly what the collective lost
        net_units = sum(r["transfer_units"] for r in rep.rows)
        theta_transfer = theta - theta_before - (1.0 - cfg.gamma) * cfg.premium_total / price
        assert net_units == pytest.approx(-theta_transfer, abs=1e-9)
        assert sum(r["transfer_value"] for r in rep.rows) == pytest.approx(
            net_units * price, abs=1e-9
        )
        eta_before, theta_before = eta, theta
