"""Recursive settlement of simultaneous claims against a deficient share pool.

Each claimant holds a redistribution weight.  Rounds proceed as follows: every
claim no larger than its weighted slice of the pool is paid in full and
removed, the weights of the survivors are renormalized, and the process
repeats.  Once no remaining claim fits inside its slice, each survivor gets
min(claim, slice) and the pool is exhausted pro rata.  Payments are made in
claimant order, and none is more than the pool left: float slices can sum to
an ulp more than the pool.

Arithmetic is type-transparent: feed `fractions.Fraction` inputs and every
intermediate and output stays exact; feed floats and a 1e-9 conservation
tolerance applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _EXPORTS
from .redistribution_index import _close, _finite

__all__ = _EXPORTS["claim_settlement"]


@dataclass(frozen=True)
class ClaimBatch:
    """Claims in pool units, their weights (summing to 1), and the available pool.

    The weights must sum to 1: exactly if rational, else to 1e-9 relative (`_close`)."""

    claims: tuple
    indices: tuple
    pool_shares: object

    def __init__(self, claims: Sequence, indices: Sequence, pool_shares):
        claims = tuple(claims)
        indices = tuple(indices)
        if not claims:
            raise ValueError("batch must contain at least one claim")
        if len(claims) != len(indices):
            raise ValueError("claims and indices must have equal length")
        if not all(_finite(v) for v in (*claims, *indices, pool_shares)):
            raise ValueError("claims, indices and pool_shares must be finite numbers")
        if min(*claims, *indices, pool_shares) < 0:
            raise ValueError("claims, indices and pool_shares must be nonnegative")
        if not _close(sum(indices), 1):
            raise ValueError("indices must sum to 1 over claimants")
        object.__setattr__(self, "claims", claims)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "pool_shares", pool_shares)


@dataclass(frozen=True)
class SettlementResult:
    allocations: tuple
    remaining: object
    rounds: int


def settle(batch: ClaimBatch) -> SettlementResult:
    """Allocate the pool across claims by the round structure above.

    Guarantees 0 <= allocation <= claim pointwise, remaining >= 0,
    conservation sum(allocations) + remaining == pool, and termination within
    one round per claimant.
    """
    n = len(batch.claims)
    zero = batch.pool_shares - batch.pool_shares  # additive zero of the input type
    alloc = [zero] * n
    pool = batch.pool_shares
    active = [j for j in range(n) if batch.claims[j] > 0]
    # zero claims settle vacuously
    rounds = 0

    while active:
        total_w = sum(batch.indices[j] for j in active)
        if total_w == 0:
            break  # nobody holds weight; nothing further can be paid
        rounds += 1
        # the ratio first, so a lone claimant's slice is the pool itself; w * pool
        # loses bits when the pool is subnormal
        slices = {j: pool * (batch.indices[j] / total_w) for j in active}
        fits = [j for j in active if batch.claims[j] <= slices[j]]
        # the fitting claims are paid; if none fits, a terminal round pays
        # every survivor min(claim, slice)
        for j in fits or active:
            alloc[j] = min(batch.claims[j], slices[j], pool)
            pool = pool - alloc[j]
        if not fits:
            break
        active = [j for j in active if j not in fits]

    return SettlementResult(tuple(alloc), pool, rounds)
