"""Share ledger for the collective account.

Tracks which fraction of the collective pot is attributable to each individual
as contributions arrive at discrete event times while the pot itself is
revalued by the market in between.  `Ledger.record` adds every event, under
one of two update rules fixed by the ledger's mode:

* proportional: a newcomer euro buys exactly its proportion of the current pot,
  so an individual's absolute share moves with contributions only.  This is the
  unique rule with that property, but relative shares can overtake after a
  market drop.
* monotone: indices accrue an artificial nonnegative interest a between events
  and contributions add linearly, which preserves more-pays-more dominance at
  the cost of the absolute-share identity.

Five executable fairness checkers replay a recorded history and return a
witness on failure.  Arithmetic is type-transparent: `fractions.Fraction`
inputs stay exact end to end.

Event records hold the pre-contribution pot value C_pre; the first event must
have C_pre = 0 (the pot starts empty) and a positive first contribution.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational, Real

from . import _EXPORTS, _check_index

__all__ = _EXPORTS["redistribution_index"]

MODE_PROPORTIONAL = "proportional"
MODE_MONOTONE = "monotone"

_REL_TOL = 1e-9


@dataclass(frozen=True)
class EventRecord:
    """One ledger event: contributions observed at time t against pot value C_pre."""

    t: object
    c_pre: object
    contributions: dict
    a: dict | None
    indices_after: dict
    shares_after: dict

    @property
    def c_post(self):
        return self.c_pre + sum(self.contributions.values())


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    rule: str
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


@dataclass
class Ledger:
    """Event-sourced share ledger; `mode` fixes the rule `record` applies to every event.

    proportional: each contributor's index grows by (J / C_pre) times the index
    total; the first event sets it to norm * J / (first positive J).  The direct
    recursion (share * C_pre + J) / C_post runs alongside and must agree,
    exactly for rational inputs and to 1e-12 otherwise.  No interest `a`.

    monotone: I <- I*(1 + a) + J with a >= 0, where `a` is a mapping per
    individual, a scalar, or None for `default_a`.  The first event starts
    indices at the raw contributions.
    """

    mode: str = MODE_PROPORTIONAL
    norm: object = 100
    default_a: object = 0
    events: list = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in (MODE_PROPORTIONAL, MODE_MONOTONE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (_finite(self.norm) and self.norm > 0):
            raise ValueError("norm must be a finite positive number")
        if not (_finite(self.default_a) and self.default_a >= 0):
            raise ValueError("default_a must be a finite nonnegative number")

    # -- state views ------------------------------------------------------

    @property
    def ids(self) -> list:
        return list(dict.fromkeys(j for ev in self.events for j in ev.indices_after))

    @property
    def indices(self) -> dict:
        return dict(self.events[-1].indices_after) if self.events else {}

    @property
    def shares(self) -> dict:
        return dict(self.events[-1].shares_after) if self.events else {}

    def record(self, t, contributions: dict, c_pre, a=None) -> dict:
        """Validate one event, apply the ledger's rule, append it and return the new shares."""
        if self.mode == MODE_PROPORTIONAL and a is not None:
            raise ValueError("proportional ledgers take no interest factors")
        _validate_event(self, t, contributions, c_pre, a)
        prev = self.events[-1] if self.events else None
        try:
            if self.mode == MODE_PROPORTIONAL:
                a_map, indices = None, _proportional_indices(prev, contributions, c_pre, self.norm)
            else:
                a_map = _interest_factors(prev, contributions, a, self.default_a)
                indices = _monotone_indices(prev, contributions, a_map)
            shares = _normalize(indices)
            finite = all(_finite(v) for v in (*indices.values(), *shares.values()))
        except OverflowError:  # an int quotient too large for a float
            finite = False
        if not finite:  # a float index that overflowed to inf, and its NaN shares
            raise ValueError("indices must stay finite: the event overflows a float")

        # the direct share recursion must reproduce the index route (undefined if C_post = 0)
        c_post = c_pre + sum(contributions.values())
        if self.mode == MODE_PROPORTIONAL and prev is not None and c_post > 0:
            for j in indices:
                direct = (prev.shares_after.get(j, 0) * c_pre + contributions.get(j, 0)) / c_post
                if not _close(shares[j], direct, 1e-12):
                    raise RuntimeError(f"dual share recursions disagree at {j}")

        self.events.append(EventRecord(t, c_pre, dict(contributions), a_map, indices, shares))
        return shares

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        def enc(x):
            if isinstance(x, Fraction):
                return f"{x.numerator}/{x.denominator}"
            return x

        events = [
            {
                "t": enc(ev.t),
                "C_pre": enc(ev.c_pre),
                "contributions": {str(j): enc(v) for j, v in ev.contributions.items()},
                **({"a": {str(j): enc(v) for j, v in ev.a.items()}} if ev.a is not None else {}),
            }
            for ev in self.events
        ]
        return json.dumps(
            {"mode": self.mode, "norm": enc(self.norm), "default_a": enc(self.default_a),
             "events": events},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Ledger":
        raw = json.loads(text)
        if not isinstance(raw, dict) or not isinstance(raw.get("events", []), list):
            raise ValueError("a ledger is a JSON object with a list of events")
        led = cls(
            mode=raw.get("mode", MODE_PROPORTIONAL),
            norm=_exact(raw.get("norm", 100)),
            default_a=_exact(raw.get("default_a", 0)),
        )
        for ev in raw.get("events", []):
            if not isinstance(ev, dict) or not all(
                isinstance(ev.get(key, {}), dict) for key in ("contributions", "a")
            ):
                raise ValueError("a ledger event is an object; its contributions and a are objects")
            contributions = {j: _exact(v) for j, v in ev.get("contributions", {}).items()}
            a = {j: _exact(v) for j, v in ev["a"].items()} if "a" in ev else None
            # a missing t or C_pre is None, which `_validate_event` refuses as not finite
            led.record(_exact(ev.get("t")), contributions, _exact(ev.get("C_pre")), a=a)
        return led


def _finite(x) -> bool:
    # exact rationals are finite; anything else must be a real number that is
    # neither NaN nor infinite (NaN slips through every < and <= test).  A bool
    # is an int to Python but never a number here (JSON true is not 1)
    if isinstance(x, bool):
        return False
    return isinstance(x, Rational) or (isinstance(x, Real) and math.isfinite(x))


def _exact(x):
    # a string that Fraction parses ("1/5", "35", "0.25") becomes that exact
    # number; anything else ("1/0", "75 euros", a float) comes back as it is,
    # for `_finite` to accept or refuse
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    return x


def _validate_event(ledger: Ledger, t, contributions: dict, c_pre, a=None):
    if not all(_finite(v) for v in (t, c_pre, *contributions.values())):
        raise ValueError("event time, C_pre and contributions must be finite numbers")
    if any(v < 0 for v in contributions.values()):
        raise ValueError("contributions must be nonnegative")
    if c_pre < 0:
        raise ValueError("C_pre must be nonnegative")
    if not ledger.events:
        if c_pre != 0:
            raise ValueError("first event requires C_pre = 0 (the pot starts empty)")
        if not any(v > 0 for v in contributions.values()):
            raise ValueError("first event needs a positive contribution")
    elif t <= ledger.events[-1].t:
        raise ValueError("event times must be strictly increasing")
    # str(id) is the JSON key: else a round trip merges 1 and "1" or splits 1 from 1.0;
    # a mapping a may name ids that join later, but not one that prints as another
    ids = [*(ledger.events[-1].indices_after if ledger.events else ()), *contributions,
           *(a if isinstance(a, dict) else ())]
    if not len(set(ids)) == len({str(j) for j in ids}) == len({(j, str(j)) for j in ids}):
        raise ValueError("ids must match their JSON keys str(id) one to one")


def _normalize(indices: dict) -> dict:
    total = sum(indices.values())
    if total <= 0:
        raise ValueError("cannot normalize: index total is not positive")
    return {j: v / total for j, v in indices.items()}


def _proportional_indices(prev: EventRecord | None, contributions: dict, c_pre, norm) -> dict:
    if prev is None:
        base = next(v for v in contributions.values() if v > 0)
        return {j: (v / base) * norm for j, v in contributions.items()}
    if sum(contributions.values()) > 0 and c_pre <= 0:
        raise ValueError("collective value non-positive; proportional rule undefined")
    indices = dict(prev.indices_after)
    idx_total = sum(indices.values())
    for j, v in contributions.items():
        if v == 0 and j in indices:
            continue
        indices[j] = indices.get(j, 0) + (v / c_pre) * idx_total
    return indices


def _interest_factors(prev: EventRecord | None, contributions: dict, a, default_a) -> dict:
    # every event's indices carry every id seen so far
    known = prev.indices_after.keys() if prev else set()
    everyone = sorted(known | contributions.keys(), key=str)
    if not isinstance(a, dict):
        a = dict.fromkeys(everyone, default_a if a is None else a)
    a_map = {j: a.get(j, default_a) for j in everyone}
    if not all(_finite(v) and v >= 0 for v in a_map.values()):
        raise ValueError("interest factors must be finite and nonnegative")
    return a_map


def _monotone_indices(prev: EventRecord | None, contributions: dict, a_map: dict) -> dict:
    if prev is None:
        return dict(contributions)
    old = prev.indices_after
    return {j: old.get(j, 0) * (1 + a_map[j]) + contributions.get(j, 0) for j in a_map}


# -- checkers -------------------------------------------------------------


def _close(x, y, tol=_REL_TOL):
    if isinstance(x, Rational) and isinstance(y, Rational):
        return x == y
    scale = max(abs(x), abs(y), 1)
    return abs(x - y) <= tol * scale


def check_cont(ledger: Ledger) -> CheckResult:
    """Absolute-share additivity: share*C_pre + J = new share * C_post at every event."""
    for n, ev in enumerate(ledger.events):
        before = ledger.events[n - 1].shares_after if n > 0 else {}
        c_post = ev.c_post
        for j in ev.indices_after:
            lhs = before.get(j, 0) * ev.c_pre + ev.contributions.get(j, 0)
            rhs = ev.shares_after[j] * c_post
            if not _close(lhs, rhs):
                return CheckResult(False, "cont", (ev.t, j))
    return CheckResult(True, "cont")


def check_fix(ledger: Ledger) -> CheckResult:
    """Pure revaluation events (no contributions) must leave relative shares alone."""
    for n, ev in enumerate(ledger.events):
        if n == 0 or any(v > 0 for v in ev.contributions.values()):
            continue
        before = ledger.events[n - 1].shares_after
        for j in ev.shares_after:
            if not _close(before.get(j, 0), ev.shares_after[j]):
                return CheckResult(False, "fix", (ev.t, j))
    return CheckResult(True, "fix")


def check_mon(ledger: Ledger) -> CheckResult:
    """Cumulative dominance at every prefix must imply share dominance.

    For each event index n and pair (j, l): if j's running contribution total
    is >= l's after every event up to n, then j's share at n must be >= l's.
    Witness is the first (t, (j, l)) violation.  Running totals and the list
    of pairs still dominating make this O(events * members^2).
    """
    ids = ledger.ids
    totals = dict.fromkeys(ids, 0)
    dominating = [(j, l) for j in ids for l in ids if j != l]
    for ev in ledger.events:
        for j in ids:
            totals[j] = totals[j] + ev.contributions.get(j, 0)
        dominating = [(j, l) for j, l in dominating if totals[j] >= totals[l]]
        for j, l in dominating:
            sj = ev.shares_after.get(j, 0)
            sl = ev.shares_after.get(l, 0)
            if sj < sl and not _close(sj, sl):
                return CheckResult(False, "mon", (ev.t, (j, l)))
    return CheckResult(True, "mon")


def _replay_with_extra(ledger: Ledger, join_index: int, new_id, amount) -> Ledger:
    # rebuild the history with one extra contributor; later pot values follow the
    # original inter-event growth factors, so the counterfactual stays market-consistent
    twin = Ledger(mode=ledger.mode, norm=ledger.norm, default_a=ledger.default_a)
    c_post_twin = 0
    for n, ev in enumerate(ledger.events):
        if n == 0:
            c_pre = ev.c_pre
        else:
            prev = ledger.events[n - 1]
            if prev.c_post <= 0:
                raise ValueError("cannot replay through a wiped-out pot")
            c_pre = c_post_twin * (ev.c_pre / prev.c_post)
        contributions = dict(ev.contributions)
        if n == join_index:
            contributions[new_id] = contributions.get(new_id, 0) + amount
        twin.record(ev.t, contributions, c_pre, a=dict(ev.a) if ev.a else None)
        c_post_twin = c_pre + sum(contributions.values())
    return twin


def check_add(ledger: Ledger, join_index: int, new_id, amount) -> CheckResult:
    """A new contributor must not disturb incumbents' shares relative to each other.

    Replays the ledger with `new_id` adding `amount` at event `join_index` and
    compares each incumbent's share of the incumbent subtotal.
    """
    _check_index(join_index, len(ledger.events), "join_index")
    if new_id in ledger.ids or str(new_id) in map(str, ledger.ids):
        raise ValueError("new contributor must be fresh")
    if amount <= 0:
        raise ValueError("amount must be positive")
    twin = _replay_with_extra(ledger, join_index, new_id, amount)
    for n, ev in enumerate(ledger.events):
        tw = twin.events[n]
        incumbents = [j for j in ev.shares_after]
        subtotal = sum(tw.shares_after.get(j, 0) for j in incumbents)
        if subtotal <= 0:
            continue
        for j in incumbents:
            want = ev.shares_after[j]
            got = tw.shares_after.get(j, 0) / subtotal
            if not _close(want, got):
                return CheckResult(False, "add", (ev.t, j))
    return CheckResult(True, "add")


def check_lin(ledger: Ledger) -> CheckResult:
    """Contribution-driven index increments must scale linearly with the amounts.

    At each event the increment d^j (net of any interest accrual) must satisfy
    d^j * J^l = d^l * J^j for contributing pairs; witness on first failure.
    """
    for n, ev in enumerate(ledger.events):
        if n == 0:
            continue
        prev = ledger.events[n - 1].indices_after
        contributors = [j for j, v in ev.contributions.items() if v > 0]
        if len(contributors) < 2:
            continue
        inc = {}
        for j in contributors:
            accrued = prev.get(j, 0)
            if ev.a is not None:
                accrued = accrued * (1 + ev.a.get(j, 0))
            inc[j] = ev.indices_after[j] - accrued
        for x in contributors:
            for y in contributors:
                if str(x) >= str(y):
                    continue
                lhs = inc[x] * ev.contributions[y]
                rhs = inc[y] * ev.contributions[x]
                if not _close(lhs, rhs):
                    return CheckResult(False, "lin", (ev.t, (x, y)))
    return CheckResult(True, "lin")


def index_for_pool(ledger: Ledger, t) -> dict:
    """Lagged shares for capping help claims: the state after the last event
    strictly before t.  t <= 0, or no event before t, raises; `PoolConfig`
    calls it at t = 1, so a pool's first period always has shares to read."""
    if t <= 0:
        raise ValueError("shares are undefined at t = 0; the pot starts empty")
    i = bisect.bisect_left(ledger.events, t, key=lambda ev: ev.t)  # event times increase
    if i == 0:
        raise ValueError(f"the ledger needs an event before t = {t}")
    return dict(ledger.events[i - 1].shares_after)
