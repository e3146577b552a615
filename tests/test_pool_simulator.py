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
    _psi,
    admissible_min_k,
    horizon_objective,
    maximize_m2,
    n_func,
)
from corridor_pension.market_model import GbmParams, density_peak
from corridor_pension.pool_simulator import (
    ALWAYS_HELP,
    INDEX_CAPPED_HELP,
    NO_HELP_IF_INSUFFICIENT,
    CollectiveAccount,
    IndividualAccount,
    PoolConfig,
    PoolState,
    SimulationResult,
    StepReport,
    _coverage_ok,
    _lagged_shares,
    _settle_rounds,
    best_response_gain,
    dp_check,
    fixed_point_barriers,
    improvement_bound,
    init_pool,
    run_path,
    simulate,
    step,
    z_star,
)
from corridor_pension import pool_simulator
from corridor_pension.claim_settlement import ClaimBatch, settle
from corridor_pension.market_model import _return_blocks, sample_return_matrix
from corridor_pension.redistribution_index import Ledger

A = GbmParams(0.045, 0.06)


def _scalar_step(pool, gross_return, config):
    # the period rule written out member by member with the exact `settle`,
    # kept as the oracle for the array rule that `step` and `simulate` share
    if gross_return <= 0:
        raise ValueError("gross return must be positive")
    pol = config.policy
    price = pool.price * gross_return
    rho = gross_return - 1.0
    t_new = pool.t + 1
    prem = config.premiums

    eta_prev = [a.eta for a in pool.accounts]
    v_prev = [a.value for a in pool.accounts]
    ks = [a.k for a in pool.accounts]
    theta_prev = pool.collective.theta

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
        claimants = [i for i, c in enumerate(claims) if c > 0]
        if claimants and theta_prev > 0:
            owners = [pool.accounts[i].owner_id for i in claimants]
            weights = _lagged_shares(config.index_source, t_new, owners)
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

    collective = CollectiveAccount(theta, theta * price)
    accounts = tuple(
        IndividualAccount(eta[i], values[i], ks[i], pool.accounts[i].owner_id)
        for i in range(config.n)
    )
    rows = tuple(
        {
            "t": t_new,
            "owner_id": pool.accounts[i].owner_id,
            "V": values[i],
            "eta": eta[i],
            "transfer_units": (paid[i] - gives[i]) / price,
            "transfer_value": paid[i] - gives[i],
            "help_granted": paid[i] > 0,
            "z_star": z,
            "theta": theta,
            "C": collective.value,
        }
        for i in range(config.n)
    )
    state = PoolState(
        t_new, price, accounts, collective, pool.external_support + support_added
    )
    return state, StepReport(t_new, z, covered, sum(claims), rows, support_added)


def _scalar_run_path(config, gross_returns):
    pool = init_pool(config)
    reports = []
    for y in gross_returns:
        pool, rep = _scalar_step(pool, float(y), config)
        reports.append(rep)
    return pool, reports


def replay(config, returns) -> SimulationResult:
    """The statistics of `simulate`, from each sampled path stepped through the oracle."""
    n_paths, T = returns.shape
    gp = [config.gamma * p for p in config.premiums]
    terminal, rv, support, shortfall_steps = [], [], [], 0
    for row in returns:
        final, reports = _scalar_run_path(config, row)
        v_prev, path_rv = config.initial_values, 0.0
        for rep in reports:
            v = [r["V"] for r in rep.rows]
            path_rv += sum((vi - vp - g) ** 2 / vp for vi, vp, g in zip(v, v_prev, gp)) / config.n
            v_prev = v
            shortfall_steps += rep.claims_total > 0 and not rep.covered
        terminal.append(sum(a.value for a in final.accounts) / config.n)
        rv.append(path_rv)
        support.append(final.external_support)
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


def test_init_pool():
    cfg = base_config(v0_ind=2.0, c0=0.5, h0=2.0)
    pool = init_pool(cfg)
    assert pool.t == 0 and pool.price == 2.0
    for acct in pool.accounts:
        assert acct.value == 2.0
        assert acct.eta == 1.0
        assert acct.k == 0.1
    assert pool.collective.theta == 0.25
    assert pool.collective.value == 0.5


def test_z_star_edges():
    # empty buffer: threshold at the tightest boundary
    assert z_star([0.3, 0.5], [1.0, 1.0], 0.0) == pytest.approx(-0.3)
    # nobody ever claims
    assert z_star([1.0, 1.0], [1.0, 1.0], 0.5) == -1.0
    # single agent closed form: -(2*theta + eta*k) / (2*theta + eta)
    assert z_star([0.2], [1.0], 0.1) == pytest.approx(-(0.2 + 0.2) / (0.2 + 1.0))
    # no help leg at all
    assert z_star([0.2], [1.0], 0.1, help_frac=0.0) == -1.0
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
    pool = init_pool(cfg)
    y = 0.8  # breach below: -0.2 < -k
    new, rep = step(pool, y, cfg)
    price = cfg.h0 * y
    # unit conservation: transfers move units, premia add them
    units_before = sum(a.eta for a in pool.accounts) + pool.collective.theta
    units_after = sum(a.eta for a in new.accounts) + new.collective.theta
    premium_units = cfg.premium_total / price
    assert units_after == pytest.approx(units_before + premium_units, abs=1e-12)
    # value identities
    for acct in new.accounts:
        assert acct.value == pytest.approx(acct.eta * price, abs=1e-12)
    assert new.collective.value == pytest.approx(new.collective.theta * price, abs=1e-12)
    # every agent breached and was helped
    assert all(r["help_granted"] for r in rep.rows)
    assert rep.claims_total == pytest.approx(3 * 0.5 * 1.0 * 0.1, abs=1e-12)


def test_step_give_direction():
    cfg = base_config(policy=CorridorPolicy(k=0.1, give_frac=0.25))
    pool = init_pool(cfg)
    new, rep = step(pool, 1.3, cfg)  # +30% breaches the upper boundary
    give = 0.25 * 1.0 * 0.2
    for r in rep.rows:
        assert r["transfer_value"] == pytest.approx(-give, abs=1e-12)
    assert new.collective.theta > pool.collective.theta


def test_step_inside_corridor_no_transfer():
    cfg = base_config()
    pool = init_pool(cfg)
    _, rep = step(pool, 1.05, cfg)
    for r in rep.rows:
        assert r["transfer_value"] == 0.0
        assert not r["help_granted"]


def test_always_help_support_counter():
    # tiny buffer, certain breach: collective goes negative, support recorded
    cfg = base_config(c0=0.01, gamma=1.0)
    pool = init_pool(cfg)
    new, rep = step(pool, 0.7, cfg)
    assert new.collective.theta < 0
    assert new.external_support == pytest.approx(-new.collective.theta, abs=1e-12)
    assert rep.support_added == new.external_support


def test_no_help_regime_blocks_uncovered_claims():
    cfg = base_config(regime=NO_HELP_IF_INSUFFICIENT, c0=0.01, gamma=1.0)
    pool = init_pool(cfg)
    new, rep = step(pool, 0.7, cfg)
    assert not rep.covered
    assert all(not r["help_granted"] for r in rep.rows)
    assert new.collective.theta >= 0
    assert new.external_support == 0.0


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
    pool = init_pool(cfg)
    y = 0.7  # claims: 0.5 * 1.0 * 0.2 = 0.1 each in value, pool holds 0.05 units
    new, rep = step(pool, y, cfg)
    assert not rep.covered
    paid = [r["transfer_value"] for r in rep.rows]
    # entire buffer distributed, nothing more
    assert sum(paid) == pytest.approx(0.05 * pool.price * y, abs=1e-12)
    # agent 0 holds 3/4 of the index, agent 1 one quarter
    assert paid[0] == pytest.approx(3 * paid[1], rel=1e-9)
    assert new.collective.theta == pytest.approx(0.0, abs=1e-12)


def test_run_path_step_count_and_rows():
    cfg = base_config(T=6)
    final, reports = run_path(cfg, [1.01] * 6)
    assert final.t == 6
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
    ("IndexCappedHelp, Fraction ledger", PoolConfig(
        regime=INDEX_CAPPED_HELP, policy=CorridorPolicy(k=0.05), c0=0.05,
        index_source=fraction_ledger(range(5)), **KERNEL_POOL)),
])
def test_run_path_matches_scalar_oracle_row_by_row(name, config):
    flags = set()
    for row in sample_return_matrix(STRESSED, config.T, 60, 4):
        final, reports = run_path(config, row)
        want_final, want_reports = _scalar_run_path(config, row)
        assert final.t == want_final.t and final.price == want_final.price
        assert final.external_support == pytest.approx(want_final.external_support, rel=1e-12)
        for rep, want in zip(reports, want_reports, strict=True):
            assert (rep.t, rep.covered) == (want.t, want.covered)
            assert rep.z_star == pytest.approx(want.z_star, rel=0, abs=1e-15)
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
        blocks = list(_return_blocks(STRESSED, 5, n_paths, 8, BLOCK))
        assert [len(b) for b in blocks[:-1]] == [BLOCK] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), sample_return_matrix(STRESSED, 5, n_paths, 8))


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
    # reads 13.19-13.26 however its thread interleaves with the kernel, and
    # one that keeps a finished block alive, or draws two blocks ahead, 15.1
    assert peaks[200_000] < 14, peaks
    assert peaks[200_000] - peaks[20_000] < 8, peaks


def test_json_ledger_acts_like_python_ledger():
    led = capped_ledger(range(5))
    as_python = PoolConfig(regime=INDEX_CAPPED_HELP, policy=CorridorPolicy(k=0.05), c0=0.05,
                           index_source=led, **KERNEL_POOL)
    as_json = replace(as_python, index_source=Ledger.from_json(led.to_json()))
    assert simulate(as_json, STRESSED, 60, 2) == simulate(as_python, STRESSED, 60, 2)
    # one period through the scalar step pays the same under both ledgers
    pool = init_pool(as_python)
    assert step(pool, 0.7, as_json)[1].rows == step(pool, 0.7, as_python)[1].rows


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
        step(init_pool(cfg), 1.0, cfg)
    with pytest.raises(RuntimeError, match="collective went negative"):
        simulate(cfg, A, 10, seed=1)
    # negative unit counts, reached the same way
    cfg = base_config()
    object.__setattr__(cfg, "v0_ind", (1.0, -0.5, 1.0))
    with pytest.raises(ValueError):
        step(init_pool(cfg), 1.0, cfg)
    with pytest.raises(ValueError, match="negative unit count"):
        simulate(cfg, A, 10, seed=1)


def settle_columns(claims, weights, pools):
    """`settle` on each column of (claims, weights), with weights normalized over the column."""
    out = np.zeros_like(claims)
    for b in range(claims.shape[1]):
        total = weights[:, b].sum()
        batch = ClaimBatch(claims[:, b], weights[:, b] / total, pools[b])
        out[:, b] = settle(batch).allocations
    return out


def test_settle_rounds_named_cases():
    # columns: README batch (three rounds), all fit in one round, terminal
    # pro rata, zero claims and zero weights mixed in, and a lone claimant of
    # weight 1/64 against a subnormal pool
    claims = np.array([[4.0, 1.0, 10.0, 0.0, 1.0], [6.0, 2.0, 10.0, 3.0, 0.0],
                       [20.0, 0.0, 10.0, 5.0, 0.0], [35.0, 0.0, 10.0, 4.0, 0.0],
                       [80.0, 0.0, 10.0, 2.0, 0.0]])
    weights = np.array([[0.2, 0.5, 0.1, 0.4, 1 / 64], [0.2, 0.5, 0.2, 0.0, 63 / 64],
                        [0.2, 0.0, 0.3, 0.3, 0.0], [0.2, 0.0, 0.2, 0.3, 0.0],
                        [0.2, 0.0, 0.2, 0.0, 0.0]])
    pools = np.array([100.0, 100.0, 10.0, 6.0, 2.225073858507e-311])
    got = _settle_rounds(claims, weights, pools)
    assert got[:, 0].tolist() == [4.0, 6.0, 20.0, 35.0, 35.0]
    assert got[:, 1].tolist() == [1.0, 2.0, 0.0, 0.0, 0.0]
    assert got[:, 2] == pytest.approx([1.0, 2.0, 3.0, 2.0, 2.0], rel=1e-15)
    assert got[:, 3] == pytest.approx([0.0, 0.0, 3.0, 3.0, 0.0], rel=1e-15)  # weight 0: nothing
    assert got[:, 4].tolist() == [2.225073858507e-311, 0.0, 0.0, 0.0, 0.0]  # the pool, no more
    assert np.array_equal(got, settle_columns(claims, weights, pools))


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
    got = _settle_rounds(claims, weights, pools)
    want = settle_columns(claims, weights, pools)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * max(pools.max(), 1e-300))
    assert np.all((got >= 0) & (got <= claims))
    # a subnormal pool can be overpaid by a few of the smallest subnormals
    assert np.all(got.sum(axis=0) <= pools * (1 + 1e-12) + members * 5e-324)


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


def test_fixed_point_validation():
    with pytest.raises(ValueError):
        fixed_point_barriers(A, CorridorPolicy(), [1.0], 1.0, tol=0.0)


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
    pairs = list(zip(*(s.tolist() for s in _psi(params, policy, ks))))
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
    pool = init_pool(cfg)
    for y in returns:
        theta_before = pool.collective.theta
        before = sum(a.eta for a in pool.accounts) + theta_before
        pool, rep = step(pool, y, cfg)
        after = sum(a.eta for a in pool.accounts) + pool.collective.theta
        inflow = cfg.premium_total / pool.price
        assert after == pytest.approx(before + inflow, abs=1e-9)
        # what the agents received in units is exactly what the collective lost
        net_units = sum(r["transfer_units"] for r in rep.rows)
        theta_transfer = (
            pool.collective.theta
            - theta_before
            - (1.0 - cfg.gamma) * cfg.premium_total / pool.price
        )
        assert net_units == pytest.approx(-theta_transfer, abs=1e-9)
        assert sum(r["transfer_value"] for r in rep.rows) == pytest.approx(
            net_units * pool.price, abs=1e-9
        )
