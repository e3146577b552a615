"""End-to-end acceptance checks.

Each test evaluates one acceptance criterion at its stated tolerance and prints
a single PASS/FAIL line (bypassing capture, so the verdicts appear in any run).
The assertions are strict: a criterion that does not hold fails its test.
"""

import time
from fractions import Fraction as F

import numpy as np

from corridor_pension.claim_settlement import ClaimBatch, settle
from corridor_pension.corridor_math import (
    LHS_TOL,
    CorridorPolicy,
    admissible_min_k,
    best_response_gain,
    dp_check,
    fixed_point_barriers,
    improvement_bound,
    m1,
    m2,
    m2_horizon,
    maximize_m1,
    maximize_m2,
    mp_stationary_points,
    n_func,
    profitability_lhs,
    psi1,
    psi2,
    z_star,
)
from corridor_pension.market_model import GbmParams, expect_mc, expect_quad
from corridor_pension.pool_simulator import _coverage_ok
from corridor_pension.redistribution_index import (
    Ledger,
    check_add,
    check_cont,
    check_fix,
    check_lin,
    check_mon,
)


def _report(capfd, num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capfd.disabled():
        print(line, flush=True)
    return line


def test_acceptance_1_asymmetric_stationary_point(capfd):
    t0 = time.perf_counter()
    params = GbmParams(0.015, 0.03)
    pol = CorridorPolicy(p=2.0)
    pts = mp_stationary_points(params, pol)
    maxima = [k for k, kind in pts if kind == "max"]
    k = maxima[0] if maxima else float("nan")
    lhs = profitability_lhs(params, pol, k) if maxima else float("nan")
    elapsed = time.perf_counter() - t0
    ok = (
        len(maxima) == 1
        and abs(k - 0.03257) <= 5e-4
        and abs(2 * k - 0.06515) <= 1e-3
        and lhs > 0
        and elapsed < 1.0
    )
    line = _report(
capfd, 1, ok,
        f"stationary k={k:.6f} (target 0.03257+-5e-4), upper={2 * k:.6f} "
        f"(target 0.06515+-1e-3), lhs={lhs:.3e}>0, {elapsed:.2f}s",
    )
    assert ok, line


def test_acceptance_2_mean_variance_maximizer(capfd):
    # the boundary is chosen for the capital at retirement: the reference 0.1215
    # maximizes the objective compounded over a 20-period horizon, while the
    # one-period objective peaks at k=0 for these parameters
    t0 = time.perf_counter()
    params = GbmParams(0.045, 0.06)
    pol = CorridorPolicy(alpha=4.0)
    res = maximize_m2(params, pol, T=20)
    worst_lhs = float(profitability_lhs(params, pol, np.linspace(0.0, 1.0, 2001)).max())
    elapsed = time.perf_counter() - t0
    k_ok = abs(res.k_star - 0.1215) <= 2e-3
    prof_ok = worst_lhs <= LHS_TOL
    ok = k_ok and prof_ok and elapsed < 1.0
    line = _report(
capfd, 2, ok,
        f"T=20 k_star={res.k_star:.6f} vs target 0.1215+-2e-3 ({'ok' if k_ok else 'MISS'}; "
        f"value {res.value:.10f} vs {m2_horizon(params, pol, 0.1215, 20):.10f} at 0.1215 "
        f"and {m2_horizon(params, pol, 0.0, 20):.10f} at 0), "
        f"profitability on [0,1] {'holds' if prof_ok else 'fails'} "
        f"(max lhs {worst_lhs:.1e}), {elapsed:.2f}s",
    )
    assert ok, line


def test_acceptance_3_tie_example(capfd):
    """Near-exact tie between k=0 and an interior boundary at mu=6%, alpha=2.

    The reference example put the tie at sigma=0.092367 with partner k=0.1897.
    That is not a tie of this objective: quadrature, independent of the closed
    form, gives M2(0.19823) - M2(0) = 2.37e-4 there, and 0.1897 stays 1.02e-6
    below the maximum even at the exact tie.  The tie sits at
    sigma=0.09328707495450515 with partner k=0.19557, where quadrature gives
    |M2(0) - M2(0.19557)| = 3.5e-9.
    """
    sigma_tie, k_tie = 0.09328707495450515, 0.19557
    t0 = time.perf_counter()
    params = GbmParams(0.06, sigma_tie)
    pol = CorridorPolicy(alpha=2.0)
    v0 = m2(params, pol, 0.0)
    v1 = m2(params, pol, k_tie)
    res = maximize_m2(params, pol)
    elapsed = time.perf_counter() - t0

    def quad_m2(k):
        L, U = 1.0 - k, 1.0 + k * pol.p

        def g(y):
            return (
                (y - 1.0)
                - pol.give_frac * np.maximum(y - U, 0.0)
                + pol.help_frac * np.maximum(L - y, 0.0)
            )

        return expect_quad(params, lambda y: g(y) - pol.alpha * g(y) ** 2, (L, U))

    q0, q1 = quad_m2(0.0), quad_m2(k_tie)
    quad_ok = abs(q0 - q1) <= 1e-6 and abs(q0 - v0) <= 1e-8 and abs(q1 - v1) <= 1e-8
    diff_ok = abs(v0 - v1) <= 5e-4
    near0_ok = res.value - v0 <= 1e-6
    near1_ok = res.value - v1 <= 1e-6
    tie_ok = res.tie_flag
    # resolution rule: with a nonnegative transfer-only slope the larger wins
    resolved_ok = (not res.tie_flag) or res.k_star == max(k for k, _ in res.candidates)
    ok = (
        quad_ok and diff_ok and near0_ok and near1_ok and tie_ok and resolved_ok
        and elapsed < 1.0
    )
    line = _report(
capfd, 3, ok,
        f"sigma={sigma_tie}: quadrature |M2(0)-M2({k_tie})|={abs(q0 - q1):.3e}<=1e-6 "
        f"({'ok' if quad_ok else 'MISS'}), closed form {abs(v0 - v1):.3e}<=5e-4 "
        f"({'ok' if diff_ok else 'MISS'}), "
        f"gaps to max {res.value - v0:.3e}/{res.value - v1:.3e} vs 1e-6 "
        f"({'ok' if near0_ok and near1_ok else 'MISS'}), tie_flag={res.tie_flag} "
        f"({'ok' if tie_ok else 'MISS'}), k_star={res.k_star:.6f} "
        f"({'ok' if resolved_ok else 'MISS'}; candidates at "
        f"k={[round(k, 4) for k, _ in res.candidates]}), {elapsed:.2f}s",
    )
    assert ok, line


def test_acceptance_4_redistribution_ledger(capfd):
    led = Ledger(mode="proportional")
    led.record(1, {1: F(100), 2: F(0)}, F(0))
    led.record(2, {1: F(0), 2: F(80)}, F(75))  # pot dropped 25% in between
    ev1, ev2 = led.events
    c_ok = (ev1.c_pre, ev1.c_post, ev2.c_pre, ev2.c_post) == (0, 100, 75, 155)
    rho_ok = led.shares == {1: F(75, 155), 2: F(80, 155)}
    i_ok = led.indices[1] == 100 and round(float(led.indices[2]), 2) == 106.67
    mon = check_mon(led)
    mon_ok = (not mon.ok) and mon.witness == (2, (1, 2))

    mono = Ledger(mode="monotone")
    mono.record(1, {1: F(100), 2: F(0)}, F(0))
    mono.record(2, {1: F(0), 2: F(80)}, a=F(0), c_pre=F(75))
    suite_ok = bool(
        check_fix(mono)
        and check_add(mono, 0, 3, F(40))
        and check_lin(mono)
        and check_mon(mono)
    )
    ok = c_ok and rho_ok and i_ok and mon_ok and suite_ok
    line = _report(
capfd, 4, ok,
        f"C=(0,100,75,155) {'ok' if c_ok else 'MISS'}, rho2=(75/155,80/155) "
        f"{'ok' if rho_ok else 'MISS'}, I2=(100,106.67) {'ok' if i_ok else 'MISS'}, "
        f"mon witness {mon.witness} {'ok' if mon_ok else 'MISS'}, "
        f"monotone suite {'ok' if suite_ok else 'MISS'}",
    )
    assert ok, line


def test_acceptance_5_settlement(capfd):
    batch = ClaimBatch(
        claims=[4, 6, 20, 35, 50],
        indices=[F(1, 10), F(2, 10), F(3, 10), F(2, 10), F(2, 10)],
        pool_shares=100,
    )
    res = settle(batch)
    alloc_ok = tuple(res.allocations) == (4, 6, 20, 35, 35)
    rem_ok = res.remaining == 0
    exact_ok = all(isinstance(a, (int, F)) for a in res.allocations)
    ok = alloc_ok and rem_ok and exact_ok
    line = _report(
capfd, 5, ok,
        f"allocations={tuple(res.allocations)} {'ok' if alloc_ok else 'MISS'}, "
        f"remaining={res.remaining}, exact={'ok' if exact_ok else 'MISS'}, "
        f"rounds={res.rounds}",
    )
    assert ok, line


def test_acceptance_6_oracle_agreement(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    worst_quad = 0.0
    worst_z = 0.0
    n_paths = 1_000_000
    for trial in range(50):
        params = GbmParams(float(rng.uniform(-0.05, 0.1)), float(rng.uniform(0.01, 0.3)))
        k = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.0, 5.0))
        c = float(rng.uniform(-1.0, 0.0))
        pol = CorridorPolicy(k=k, alpha=alpha)
        L, U = 1.0 - k, 1.0 + k * pol.p

        def g(y):
            return (
                (y - 1.0)
                - pol.give_frac * np.maximum(y - U, 0.0)
                + pol.help_frac * np.maximum(L - y, 0.0)
            )

        def h(y):
            r = y - 1.0
            gated = pol.help_frac * np.maximum(-k - r, 0.0) * (r > c)
            return r - pol.give_frac * np.maximum(r - k, 0.0) + gated

        targets = [
            (psi1(params, pol, k), g),
            (psi2(params, pol, k), lambda y: g(y) ** 2),
            (n_func(params, pol, c, k), lambda y: h(y) - alpha * h(y) ** 2),
        ]
        for i, (closed, fn) in enumerate(targets):
            quad = expect_quad(params, fn, breakpoints=(L, U, 1.0 + c))
            worst_quad = max(worst_quad, abs(closed - quad))
            mc, se = expect_mc(params, fn, n_paths, seed=1000 * trial + i)
            if se > 0:
                worst_z = max(worst_z, abs(closed - mc) / se)
    elapsed = time.perf_counter() - t0
    ok = worst_quad <= 1e-8 and worst_z <= 4.0 and elapsed < 60.0
    line = _report(
capfd, 6, ok,
        f"50 tuples x (psi1, psi2, N): max |closed-quad|={worst_quad:.2e}<=1e-8, "
        f"max |closed-mc|/se={worst_z:.2f}<=4, {elapsed:.1f}s<60s",
    )
    assert ok, line


def test_acceptance_7_improvement_bound(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    worst_margin = -np.inf
    all_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 51))
        eta = rng.uniform(0.5, 2.0, n).tolist()
        theta = float(rng.uniform(0.1, 5.0))
        params = GbmParams(float(rng.uniform(0.02, 0.08)), float(rng.uniform(0.05, 0.2)))
        pol = CorridorPolicy(alpha=float(rng.uniform(0.0, 2.0)))
        fp = fixed_point_barriers(params, pol, eta, theta)
        assert fp.converged
        for j in range(n):
            gain = best_response_gain(params, pol, eta, theta, j, fp.k_bar)
            bound = improvement_bound(j, eta, theta, pol, params)
            all_ok = all_ok and gain <= bound
            worst_margin = max(worst_margin, gain - bound)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 120.0
    line = _report(
capfd, 7, ok,
        f"20 pools, {checked} agent deviations: max(gain-bound)={worst_margin:.3e}<=0, "
        f"{elapsed:.1f}s<120s",
    )
    assert ok, line


def test_acceptance_8_property_suites(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    notes = []

    # indicator <-> z* equivalence on 1e4 random pools
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        ks = rng.uniform(0.0, 1.0, n)
        etas = rng.uniform(0.01, 3.0, n)
        theta = float(rng.uniform(0.0, 3.0))
        rho = float(rng.uniform(-0.95, 0.5))
        z = z_star(ks, etas, theta)
        claims = float(np.sum(etas * np.maximum(-ks - rho, 0.0)))
        if abs(rho - z) <= 1e-9:
            continue
        covered = _coverage_ok(theta, rho, claims, 0.5)
        want = True if claims == 0.0 else rho > z
        mismatches += covered != want
    notes.append(f"z* equivalence mismatches={mismatches}/10000")

    # transfer conservation in units and currency along a stressed path
    from corridor_pension.pool_simulator import PoolConfig, run_path

    cfg = PoolConfig(
        n=4, gamma=0.7, pi_ind=0.05, T=1, regime="AlwaysHelp",
        policy=CorridorPolicy(k=0.08), c0=0.2,
    )
    returns = (0.7, 1.25, 0.9, 1.02, 0.85)
    reports = run_path(cfg, returns)
    before = sum(v / cfg.h0 for v in cfg.initial_values) + cfg.c0 / cfg.h0
    price, max_unit_err = cfg.h0, 0.0
    for y, rep in zip(returns, reports, strict=True):
        price *= y
        after = sum(r["eta"] for r in rep.rows) + rep.rows[0]["theta"]
        err = abs(after - before - cfg.premium_total / price)
        max_unit_err = max(max_unit_err, err)
        before = after
    cons_ok = max_unit_err <= 1e-9
    notes.append(f"conservation err={max_unit_err:.1e}")

    # share normalization: exact for rationals, 1e-12 for floats
    led = Ledger(mode="proportional")
    led.record(1, {1: F(60), 2: F(40)}, F(0))
    led.record(2, {1: F(10), 2: F(30)}, F(120))
    exact_ok = sum(led.shares.values()) == 1
    fled = Ledger(mode="proportional")
    fled.record(1, {1: 60.0, 2: 40.0}, 0.0)
    fled.record(2, {1: 10.0, 2: 30.0}, 119.99)
    float_ok = abs(sum(fled.shares.values()) - 1.0) <= 1e-12
    notes.append(f"sum rho exact={exact_ok} float={float_ok}")

    # settlement conservation and termination on random rational batches
    settle_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 7))
        claims = [F(int(rng.integers(0, 40)), int(rng.integers(1, 8))) for _ in range(n)]
        weights = [int(w) for w in rng.integers(1, 9, n)]
        tot = sum(weights)
        pool_val = F(int(rng.integers(0, 120)))
        res = settle(ClaimBatch(claims, [F(w, tot) for w in weights], pool_val))
        settle_ok = settle_ok and sum(res.allocations) + res.remaining == pool_val
        settle_ok = settle_ok and all(0 <= a <= c for a, c in zip(res.allocations, claims))
        settle_ok = settle_ok and res.rounds <= n + 1
    notes.append(f"settlement invariants={'ok' if settle_ok else 'MISS'}")

    # dp stationarity, T in {2, 3} on a 21-point grid
    dp_ok = True
    for T in (2, 3):
        verdict = dp_check(GbmParams(0.045, 0.06), CorridorPolicy(alpha=4.0), T=T, grid=21)
        dp_ok = dp_ok and verdict.stationary
    notes.append(f"dp stationary T=2,3={'ok' if dp_ok else 'MISS'}")

    # bang-bang structure of the transfer-only objective on 100 draws
    bang_ok = True
    for _ in range(100):
        params = GbmParams(float(rng.uniform(-0.05, 0.1)), float(rng.uniform(0.02, 0.3)))
        pol = CorridorPolicy(
            give_frac=float(rng.uniform(0.05, 1.0)),
            help_frac=float(rng.uniform(0.05, 1.0)),
            J=float(rng.uniform(0.0, 0.9)),
        )
        k_min = admissible_min_k(params, pol)
        res = maximize_m1(params, pol, k_min=k_min)
        bang_ok = bang_ok and res.k_star in (float(k_min), 1.0)
        # the endpoint value dominates every admissible boundary (the set can
        # be disconnected, so inadmissible interior points do not count)
        grid_best = max(
            m1(params, pol, float(k))
            for k in np.linspace(k_min, 1.0, 101)
            if profitability_lhs(params, pol, float(k)) <= LHS_TOL
        )
        bang_ok = bang_ok and res.value >= grid_best - 1e-9
    notes.append(f"bang-bang={'ok' if bang_ok else 'MISS'}")

    elapsed = time.perf_counter() - t0
    ok = (
        mismatches == 0
        and cons_ok
        and exact_ok
        and float_ok
        and settle_ok
        and dp_ok
        and bang_ok
    )
    line = _report(capfd, 8, ok, "; ".join(notes) + f"; {elapsed:.1f}s")
    assert ok, line
