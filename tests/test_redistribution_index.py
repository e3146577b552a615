import json
import math
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor_pension import redistribution_index
from corridor_pension.redistribution_index import (
    CheckResult,
    Ledger,
    check_add,
    check_cont,
    check_fix,
    check_lin,
    check_mon,
    index_for_pool,
)


def reference_ledger() -> Ledger:
    # one pays 100, pot drops 25%, the other pays 80
    led = Ledger(mode="proportional")
    led.record(1, {1: F(100), 2: F(0)}, F(0))
    led.record(2, {1: F(0), 2: F(80)}, F(75))
    return led


def reference_monotone(a=F(0)) -> Ledger:
    led = Ledger(mode="monotone")
    led.record(1, {1: F(100), 2: F(0)}, F(0))
    led.record(2, {1: F(0), 2: F(80)}, a=a, c_pre=F(75))
    return led


def test_reference_pot_values_exact():
    led = reference_ledger()
    ev1, ev2 = led.events
    assert (ev1.c_pre, ev1.c_post) == (0, 100)
    assert (ev2.c_pre, ev2.c_post) == (75, 155)


def test_reference_shares_exact():
    led = reference_ledger()
    assert led.shares == {1: F(75, 155), 2: F(80, 155)}
    assert led.indices[1] == F(100)
    assert round(float(led.indices[2]), 2) == 106.67


def test_reference_monotonicity_failure():
    led = reference_ledger()
    res = check_mon(led)
    assert not res
    assert res.witness == (2, (1, 2))


def test_reference_passes_other_axioms():
    led = reference_ledger()
    assert check_cont(led)
    assert check_fix(led)
    assert check_lin(led)
    assert check_add(led, 0, 3, F(40))


def test_monotone_reference_passes_fairness_suite():
    led = reference_monotone()
    assert check_fix(led)
    assert check_mon(led)
    assert check_lin(led)
    assert check_add(led, 0, 3, F(40))
    # and the absolute-share identity is what it gives up
    assert not check_cont(led)


def test_monotone_interest_keeps_dominance():
    led = reference_monotone(a=F(1, 10))
    assert led.indices[1] == F(110)
    assert led.indices[2] == F(80)
    assert check_mon(led)


def test_proportional_dual_recursions_agree_floats():
    led = Ledger(mode="proportional")
    led.record(1.0, {"a": 100.0, "b": 50.0}, 0.0)
    led.record(2.0, {"a": 10.0, "b": 40.0}, 120.0)
    led.record(3.0, {"a": 0.0, "b": 5.0}, 200.0)
    assert sum(led.shares.values()) == pytest.approx(1.0, abs=1e-12)
    assert check_cont(led)


def test_dual_recursion_mismatch_raises(monkeypatch):
    led = Ledger(mode="proportional")
    led.record(1, {"a": 1.0}, 0.0)
    # break the index route: equal shares where the direct recursion gives 1/4 and 3/4
    monkeypatch.setattr(redistribution_index, "_normalize", lambda idx: {j: 0.5 for j in idx})
    with pytest.raises(RuntimeError, match="dual share recursions disagree"):
        led.record(2, {"b": 3.0}, 1.0)


def test_first_event_rules():
    led = Ledger(mode="proportional")
    with pytest.raises(ValueError):
        led.record(1, {1: F(100)}, F(5))  # pot must start empty
    with pytest.raises(ValueError):
        led.record(1, {1: F(0)}, F(0))  # needs a positive contribution
    led.record(1, {1: F(100)}, F(0))
    with pytest.raises(ValueError):
        led.record(1, {1: F(10)}, F(90))  # strictly increasing times
    with pytest.raises(ValueError):
        led.record(2, {1: F(-5)}, F(90))
    with pytest.raises(ValueError, match="C_pre must be nonnegative"):
        led.record(2, {1: F(5)}, F(-1))


def test_proportional_undefined_on_wiped_pot():
    led = Ledger(mode="proportional")
    led.record(1, {1: F(100)}, F(0))
    with pytest.raises(ValueError, match="non-positive"):
        led.record(2, {2: F(10)}, F(0))


def test_mode_dispatch_guards():
    prop = Ledger(mode="proportional")
    with pytest.raises(ValueError):
        prop.record(1, {1: F(10)}, F(0), a=F(1, 10))
    with pytest.raises(ValueError):
        Ledger(mode="other")


def test_monotone_negative_interest_rejected():
    led = Ledger(mode="monotone")
    led.record(1, {1: F(10)}, F(0))
    with pytest.raises(ValueError):
        led.record(2, {1: F(5)}, a=F(-1, 10), c_pre=F(9))


def test_zero_contribution_event_fixes_shares():
    led = Ledger(mode="proportional")
    led.record(1, {1: F(60), 2: F(40)}, F(0))
    before = led.shares
    led.record(2, {1: F(0), 2: F(0)}, F(80))  # pure revaluation
    assert led.shares == before
    assert check_fix(led)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_event_values_rejected(bad):
    led = Ledger(mode="monotone")
    with pytest.raises(ValueError, match="finite"):
        led.record(bad, {1: 10.0}, 0.0)
    with pytest.raises(ValueError, match="finite"):
        led.record(0, {1: bad, 2: 2.0}, 0.0)
    led.record(0, {1: 10.0}, 0.0)
    with pytest.raises(ValueError, match="finite"):
        led.record(1, {1: 1.0}, bad)
    with pytest.raises(ValueError, match="finite"):
        led.record(1, {1: 1.0}, 10.0, a={1: bad})
    assert len(led.events) == 1


@pytest.mark.parametrize("mode, first, event", [
    ("proportional", {1: 100.0}, (1, {2: 1e300}, 1e-300)),  # index (1e300 / 1e-300) * 100 is inf
    ("monotone", {1: 1e308}, (1, {1: 1e308}, 1.0)),  # index 1e308 + 1e308 is inf
    ("proportional", {1: 100}, (1, {2: 10**400}, 1)),  # the int quotient 10**400 / 1 overflows
])
def test_an_index_that_overflows_a_float_is_refused(mode, first, event):
    # finite inputs whose new index is no finite float: refused as invalid
    # input, not a RuntimeError from the dual recursion or NaN shares
    led = Ledger(mode=mode)
    led.record(0, first, 0)
    raw = json.loads(led.to_json())
    with pytest.raises(ValueError, match="finite"):
        led.record(*event)
    assert len(led.events) == 1
    t, contributions, c_pre = event
    raw["events"].append({"t": t, "C_pre": c_pre, "contributions": contributions})
    with pytest.raises(ValueError, match="finite"):
        Ledger.from_json(json.dumps(raw))


def test_json_ledger_with_non_finite_or_non_numeric_values_rejected():
    raw = json.loads(reference_ledger().to_json())
    for key, bad in (("C_pre", math.nan), ("t", math.inf), ("C_pre", "75 euros"), ("norm", math.nan),
                     ("t", "1/0"), ("t", None), ("C_pre", None)):
        broken = json.loads(json.dumps(raw))
        (broken if key == "norm" else broken["events"][1])[key] = bad
        if bad is None:  # the key left out
            del broken["events"][1][key]
        with pytest.raises(ValueError, match="finite"):
            Ledger.from_json(json.dumps(broken))


def test_json_round_trip_preserves_exactness():
    led = reference_ledger()
    text = led.to_json()
    back = Ledger.from_json(text)
    assert back.mode == "proportional"
    # ids become strings in JSON; values stay exact rationals
    assert back.shares == {"1": F(75, 155), "2": F(80, 155)}
    assert isinstance(back.indices["2"], F)
    # any string that Fraction parses loads exact, as in a settle batch
    raw = json.loads(text)
    raw["events"][1]["C_pre"], raw["events"][1]["contributions"]["2"] = "75", "80.0"
    assert Ledger.from_json(json.dumps(raw)).shares == back.shares


def test_ids_that_collide_as_json_keys_rejected():
    led = Ledger(mode="proportional")
    led.record(1, {1: 100.0, 2: 50.0}, 0.0)
    back = Ledger.from_json(led.to_json())
    # "1" and 1 would be one member after the next round trip
    with pytest.raises(ValueError, match="JSON keys"):
        back.record(2, {1: 30.0}, 160.0)
    with pytest.raises(ValueError, match="fresh"):
        check_add(back, 0, 1, 5.0)
    # 1.0 is the member 1 in memory but a new member "1.0" once reloaded
    with pytest.raises(ValueError, match="JSON keys"):
        led.record(2, {1.0: 30.0}, 160.0)
    with pytest.raises(ValueError, match="JSON keys"):
        Ledger(mode="monotone").record(1, {1: 10.0, "1": 5.0}, 0.0)
    assert len(led.events) == len(back.events) == 1


def test_interest_factor_keys_must_match_member_ids():
    led = Ledger(mode="monotone")
    led.record(0, {1: 10.0}, 0.0)
    # "1" prints like member 1 but is another id, so its factor would be dropped
    for a in ({"1": 0.5}, {1.0: 0.5}):
        with pytest.raises(ValueError, match="JSON keys"):
            led.record(1, {}, 10.0, a=a)
    assert len(led.events) == 1
    # a factor for an id that has not joined yet is accepted
    led.record(1, {}, 10.0, a={1: 0.5, 2: 0.1})
    assert led.events[-1].a == {1: 0.5}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -3, True, "x"])
def test_bad_default_interest_rejected(bad):
    for mode in ("proportional", "monotone"):
        with pytest.raises(ValueError, match="default_a"):
            Ledger(mode=mode, default_a=bad)
    raw = json.loads(reference_ledger().to_json())
    raw["default_a"] = bad
    with pytest.raises(ValueError, match="default_a"):
        Ledger.from_json(json.dumps(raw))
    assert Ledger(mode="monotone", default_a=F(1, 10)).default_a == F(1, 10)


def test_index_for_pool_lag():
    led = reference_ledger()
    assert index_for_pool(led, 1.5) == {1: F(1), 2: F(0)}
    # an event exactly at t is not yet visible
    assert index_for_pool(led, 2) == {1: F(1), 2: F(0)}
    assert index_for_pool(led, 3) == {1: F(75, 155), 2: F(80, 155)}
    with pytest.raises(ValueError):
        index_for_pool(led, 0)
    with pytest.raises(ValueError):
        index_for_pool(led, 0.5)


def scanned_index_for_pool(ledger, t):
    # the linear scan `index_for_pool` replaced by a bisection: the reference
    if t <= 0:
        raise ValueError("shares are undefined at t = 0; the pot starts empty")
    chosen = None
    for ev in ledger.events:
        if ev.t < t:
            chosen = ev
        else:
            break
    if chosen is None:
        raise ValueError(f"the ledger needs an event before t = {t}")
    return dict(chosen.shares_after)


@pytest.mark.parametrize("times", [
    [1, 2, 3, 5, 8, 13, 21], [0.5, 1.25, 2.0, 3.75, 7.5], [F(1, 3), F(1, 2), F(2), F(7, 2), F(9)],
    [0, F(1, 2), 1.5, 4],
])
def test_index_for_pool_finds_the_event_the_scan_finds(times):
    led = Ledger(mode="proportional")
    c_post = 0.0
    for i, t in enumerate(times):
        led.record(t, {i % 3: 1.0 + i}, c_post)
        c_post += 1.0 + i
    mids = [a + (b - a) / 2 for a, b in zip(times, times[1:])]
    queries = [times[0] / 2, *times, *mids, times[-1] + 1, -1, 0]
    for t in queries + [float(t) for t in queries] + [F(t) for t in queries]:
        try:
            want = scanned_index_for_pool(led, t)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                index_for_pool(led, t)
        else:
            assert index_for_pool(led, t) == want, t


def test_check_add_guards():
    led = reference_ledger()
    with pytest.raises(ValueError):
        check_add(led, 5, 9, F(10))
    with pytest.raises(ValueError):
        check_add(led, 0, 1, F(10))  # not fresh
    with pytest.raises(ValueError):
        check_add(led, 0, 9, F(0))
    # an event index that no event matches is refused, not a vacuous pass
    for join_index in (0.5, 1.5, True):
        with pytest.raises(ValueError, match="join_index out of range"):
            check_add(led, join_index, 9, F(40))
    # the second event empties the pot, so the third has no growth factor to replay
    wiped = Ledger(mode="proportional")
    for t, contributions, c_pre in ((1, {1: F(100)}, F(0)), (2, {}, F(0)), (3, {}, F(0))):
        wiped.record(t, contributions, c_pre)
    with pytest.raises(ValueError, match="cannot replay through a wiped-out pot"):
        check_add(wiped, 0, 9, F(10))



def test_check_add_and_check_lin_name_the_event_that_fails():
    # `record` keeps both rules, so the broken ledgers are built by hand from
    # its events: shares that ignore member 2's contribution break add, and an
    # index that grows by more than member 1 paid breaks lin
    led = Ledger(mode="monotone")
    led.record(0, {1: F(10), 2: F(20)}, F(0))
    led.record(1, {1: F(10), 2: F(20)}, F(33))
    first, second = led.events
    assert check_add(led, 0, 9, F(5)) and check_lin(led)
    skewed = Ledger("monotone", events=[first, replace(second, shares_after={1: F(1, 2), 2: F(1, 2)})])
    assert check_add(skewed, 0, 9, F(5)) == CheckResult(False, "add", (F(1), 1))
    grown = {**second.indices_after, 1: second.indices_after[1] + 5}
    inflated = Ledger("monotone", events=[first, replace(second, indices_after=grown)])
    assert check_lin(inflated) == CheckResult(False, "lin", (F(1), (1, 2)))


_amounts = st.fractions(min_value=0, max_value=500, max_denominator=20)
_growth = st.fractions(min_value=F(1, 2), max_value=F(2), max_denominator=10)


@given(
    first=st.tuples(_amounts, _amounts),
    later=st.lists(st.tuples(_amounts, _amounts, _growth), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_proportional_invariants(first, later):
    a0, b0 = first
    if a0 + b0 == 0:
        a0 = F(1)
    led = Ledger(mode="proportional")
    led.record(0, {1: a0, 2: b0}, F(0))
    t = 0
    for ja, jb, g in later:
        t += 1
        c_pre = led.events[-1].c_post * g
        if c_pre <= 0 and ja + jb > 0:
            continue
        led.record(t, {1: ja, 2: jb}, c_pre)
    # exact normalization and contribution additivity hold by construction
    assert sum(led.shares.values()) == 1
    assert check_cont(led)
    assert check_lin(led)
    assert check_add(led, 0, 3, F(17))


@given(
    first=st.tuples(_amounts, _amounts),
    later=st.lists(
        st.tuples(_amounts, _amounts, st.fractions(min_value=0, max_value=1, max_denominator=10)),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_monotone_always_monotone(first, later):
    a0, b0 = first
    if a0 + b0 == 0:
        a0 = F(1)
    led = Ledger(mode="monotone")
    led.record(0, {1: a0, 2: b0}, F(0))
    t = 0
    for ja, jb, a in later:
        t += 1
        led.record(t, {1: ja, 2: jb}, a=a, c_pre=led.events[-1].c_post)
    assert sum(led.shares.values()) == 1
    assert check_mon(led)


def _check_mon_rescan(ledger: Ledger) -> CheckResult:
    # the definition read literally, kept as the oracle for check_mon: every
    # cumulative total is recomputed for every prefix and pair, O(E^3 N^2)
    def cumulative(j, upto):
        return sum(ledger.events[m].contributions.get(j, 0) for m in range(upto + 1))

    ids = ledger.ids
    for n, ev in enumerate(ledger.events):
        for j in ids:
            for l in ids:
                if j == l:
                    continue
                if not all(cumulative(j, m) >= cumulative(l, m) for m in range(n + 1)):
                    continue
                sj = ev.shares_after.get(j, 0)
                sl = ev.shares_after.get(l, 0)
                if sj < sl and not redistribution_index._close(sj, sl):
                    return CheckResult(False, "mon", (ev.t, (j, l)))
    return CheckResult(True, "mon")


_drops = st.fractions(min_value=F(1, 4), max_value=F(3, 2), max_denominator=8)


@st.composite
def _ledgers(draw):
    # proportional ledgers fail after a market drop, monotone ones when the
    # interest factors differ; members may join late or skip events
    mode = draw(st.sampled_from(["proportional", "monotone"]))
    num = F if draw(st.booleans()) else float
    n = draw(st.integers(2, 5))
    led = Ledger(mode=mode)
    first = {j: num(draw(_amounts)) for j in range(1, n) if draw(st.booleans())}
    first[0] = num(draw(st.fractions(min_value=1, max_value=500, max_denominator=20)))
    led.record(0, first, num(0))
    for t in range(1, draw(st.integers(2, 7))):
        payers = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        contributions = {j: num(draw(_amounts)) for j in payers}
        c_pre = led.events[-1].c_post * num(draw(_drops))
        a = None
        if mode == "monotone":
            rates = st.fractions(min_value=0, max_value=1, max_denominator=10)
            a = {j: num(draw(rates)) for j in range(n)}
        led.record(t, contributions, c_pre, a=a)
    return led


@given(led=_ledgers())
@settings(max_examples=300, deadline=None)
def test_check_mon_matches_the_prefix_rescan(led):
    assert check_mon(led) == _check_mon_rescan(led)


@given(led=_ledgers())
@settings(max_examples=200, deadline=None)
def test_json_round_trip_on_every_kind_of_ledger(led):
    back = Ledger.from_json(led.to_json())
    assert (back.mode, len(back.events)) == (led.mode, len(led.events))
    for ev, got in zip(led.events, back.events):
        assert got.indices_after == {str(j): v for j, v in ev.indices_after.items()}
        assert got.shares_after == {str(j): v for j, v in ev.shares_after.items()}
    for check in (check_cont, check_fix, check_mon, check_lin):
        assert check(back).ok == check(led).ok
    assert check_add(back, 0, "new", 7).ok == check_add(led, 0, "new", 7).ok
