"""One pool, one bad year, three rulebooks.

Walks a three-person pool through the same return path under each help regime
and shows where they diverge: the unconditional regime lets the buffer go
negative (an outside sponsor would have to cover the hole), the strict regime
refuses help entirely in the bad year, and the capped regime pays out what the
buffer holds, split by the recorded shares.
"""

from fractions import Fraction as F

from corridor_pension import (
    ALWAYS_HELP,
    INDEX_CAPPED_HELP,
    NO_HELP_IF_INSUFFICIENT,
    CorridorPolicy,
    GbmParams,
    Ledger,
    PoolConfig,
    run_path,
    simulate,
)

path = [1.06, 0.97, 0.72, 1.04]  # year three is the crash
policy = CorridorPolicy(k=0.1, give_frac=0.25, help_frac=0.5)

ledger = Ledger(mode="proportional")
ledger.record(0.5, {0: F(2), 1: F(1), 2: F(1)}, F(0))

for regime in (ALWAYS_HELP, NO_HELP_IF_INSUFFICIENT, INDEX_CAPPED_HELP):
    cfg = PoolConfig(
        n=3, gamma=0.9, pi_ind=0.05, T=len(path), regime=regime, policy=policy,
        c0=0.05, index_source=ledger if regime == INDEX_CAPPED_HELP else None,
    )
    reports = run_path(cfg, path)
    print(f"--- {regime}")
    for rep in reports:
        row = rep.rows[0]
        print(
            f"  t={row['t']}: covered={str(rep.covered):5} "
            f"V0={row['V']:.4f} transfer0={row['transfer_value']:+.4f} "
            f"theta={row['theta']:+.5f} z*={row['z_star']:.3f}"
        )
    print(f"  terminal individual values: {[round(r['V'], 4) for r in reports[-1].rows]}")
    print(f"  external support needed: {sum(rep.support_added for rep in reports):.5f} units")
    print()

params = GbmParams(0.045, 0.06)
cfg = PoolConfig(n=3, gamma=0.9, pi_ind=0.05, T=10, regime=ALWAYS_HELP, policy=policy, c0=0.05)
stats = simulate(cfg, params, n_paths=20_000, seed=4)
print("Monte Carlo over 20000 paths of the unconditional pool:")
print(f"  mean terminal value {stats.mean_terminal_value:.4f}")
print(f"  realized variation  {stats.realized_variation:.4f}")
print(f"  shortfall frequency {stats.shortfall_freq:.4f}")
print(f"  mean external support {stats.external_support:.5f} units")
