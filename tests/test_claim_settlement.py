import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor_pension.claim_settlement import ClaimBatch, SettlementResult, settle


def test_reference_batch_exact():
    batch = ClaimBatch(
        claims=[4, 6, 20, 35, 50],
        indices=[F(1, 10), F(2, 10), F(3, 10), F(2, 10), F(2, 10)],
        pool_shares=100,
    )
    res = settle(batch)
    assert tuple(res.allocations) == (4, 6, 20, 35, 35)
    assert res.remaining == 0
    assert res.rounds == 3
    # exactness: no floats crept in
    assert all(isinstance(a, (int, F)) for a in res.allocations)


def test_all_fit_single_round():
    batch = ClaimBatch([1, 2], [F(1, 2), F(1, 2)], 100)
    res = settle(batch)
    assert tuple(res.allocations) == (1, 2)
    assert res.remaining == 97
    assert res.rounds == 1


def test_terminal_round_pro_rata():
    # nobody fits: everyone gets exactly their slice
    batch = ClaimBatch([10, 10], [F(1, 2), F(1, 2)], 10)
    res = settle(batch)
    assert tuple(res.allocations) == (5, 5)
    assert res.remaining == 0


def test_terminal_round_unequal_indices():
    batch = ClaimBatch([100, 100], [F(3, 4), F(1, 4)], 40)
    res = settle(batch)
    assert tuple(res.allocations) == (30, 10)
    assert res.remaining == 0


def test_exact_boundary_claim_settles():
    # claim equal to its slice counts as fitting
    batch = ClaimBatch([50, 100], [F(1, 2), F(1, 2)], 100)
    res = settle(batch)
    assert res.allocations[0] == 50
    # survivor renormalizes to the whole remainder
    assert res.allocations[1] == 50
    assert res.remaining == 0


def test_zero_claims_get_nothing():
    batch = ClaimBatch([0, 7, 0], [F(1, 3), F(1, 3), F(1, 3)], 30)
    res = settle(batch)
    assert res.allocations[0] == 0 and res.allocations[2] == 0
    assert res.allocations[1] == 7
    assert res.remaining == 23


def test_empty_pool():
    batch = ClaimBatch([5, 5], [F(1, 2), F(1, 2)], 0)
    res = settle(batch)
    assert tuple(res.allocations) == (0, 0)
    assert res.remaining == 0


def test_cascade_renormalization():
    # small claims settle first and free up pool for the big one
    batch = ClaimBatch([1, 1, 60], [F(4, 10), F(4, 10), F(2, 10)], 50)
    res = settle(batch)
    assert res.allocations[0] == 1 and res.allocations[1] == 1
    # big claimant ends with everything left
    assert res.allocations[2] == 48
    assert res.remaining == 0


def test_float_inputs_work():
    batch = ClaimBatch([4.0, 6.0, 20.0, 35.0, 50.0], [0.1, 0.2, 0.3, 0.2, 0.2], 100.0)
    res = settle(batch)
    assert res.allocations[0] == pytest.approx(4.0)
    assert res.allocations[4] == pytest.approx(35.0)
    assert res.remaining == pytest.approx(0.0, abs=1e-9)


def test_validation():
    with pytest.raises(ValueError):
        ClaimBatch([1, 2], [F(1, 2)], 10)
    with pytest.raises(ValueError):
        ClaimBatch([-1, 2], [F(1, 2), F(1, 2)], 10)
    with pytest.raises(ValueError):
        ClaimBatch([1, 2], [F(1, 2), F(1, 3)], 10)
    with pytest.raises(ValueError):
        ClaimBatch([1, 2], [F(-1, 2), F(3, 2)], 10)
    with pytest.raises(ValueError):
        ClaimBatch([1, 2], [F(1, 2), F(1, 2)], -5)
    with pytest.raises(ValueError):
        ClaimBatch([], [], 10)
    # NaN passes every < test, so non-finite values are refused by name
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ClaimBatch([bad, 6.0], [0.5, 0.5], 10.0)
        with pytest.raises(ValueError, match="finite"):
            ClaimBatch([4.0, 6.0], [bad, 0.5], 10.0)
        with pytest.raises(ValueError, match="finite"):
            ClaimBatch([4.0, 6.0], [0.5, 0.5], bad)


def test_subnormal_pool_is_not_overpaid():
    # w * pool rounds when the pool is subnormal; the lone claimant gets the pool exactly
    res = settle(ClaimBatch([1.0, 0.0], [1 / 64, 63 / 64], 2.225073858507e-311))
    assert res.allocations == (2.225073858507e-311, 0.0)
    assert res.remaining == 0.0


def test_result_type():
    batch = ClaimBatch([1], [F(1)], 5)
    res = settle(batch)
    assert isinstance(res, SettlementResult)


_fracs = st.fractions(min_value=0, max_value=1000, max_denominator=50)


@given(
    claims=st.lists(_fracs, min_size=1, max_size=8),
    weights=st.lists(st.integers(1, 20), min_size=1, max_size=8),
    pool=_fracs,
)
@settings(max_examples=200, deadline=None)
def test_settlement_invariants(claims, weights, pool):
    n = min(len(claims), len(weights))
    claims = claims[:n]
    weights = weights[:n]
    total_w = sum(weights)
    indices = [F(w, total_w) for w in weights]
    res = settle(ClaimBatch(claims, indices, pool))
    # conservation, exactly
    assert sum(res.allocations) + res.remaining == pool
    # nobody gets more than claimed, nothing is negative
    for a, c in zip(res.allocations, claims):
        assert 0 <= a <= c
    # leftovers only when every claim is fully met
    if res.remaining > 0:
        assert all(a == c for a, c in zip(res.allocations, claims))
    # at most one round per claimant plus the terminal one
    assert res.rounds <= n + 1
