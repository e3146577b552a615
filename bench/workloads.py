"""The benchmark's workloads: inputs made from a seed, the operations of one round, and the checks.

Every workload is a closed loop with one caller: the worker runs the
operations of round 0, 1, 2, ... one after another, each waiting for the
previous result, and checks all outputs after the timed window.  The program
receives only the inputs built here.

Calls into the package go through module attributes (`cp.simulate`,
`cli.main`) at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import corridor_pension as cp  # noqa: E402
from corridor_pension import cli  # noqa: E402

import oracles  # noqa: E402

if Path(cp.__file__).resolve().parent != SRC / "corridor_pension":
    raise ImportError(f"corridor_pension imported from {cp.__file__}, not from {SRC}")

# |z| above this rejects a Monte Carlo mean (two-sided, about 6e-5 for a true mean)
Z_LIMIT = 4.0
# quadrature-fed values must match the program's closed forms to this
VALUE_TOL = 1e-8
# admissibility slack for the quadrature LHS; the program's own floor is 1e-12
LHS_SLACK = 1e-10
CLI_TIMEOUT_S = 120


@dataclass
class Result:
    """One operation's outcome: its output, or the error it raised."""

    label: str
    round: int
    value: object = None
    error: str | None = None


def round_seed(seed: int, r: int) -> int:
    """Simulation seed of round r, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


class Workload:
    """Base: subclasses build inputs in __init__, list one round's ops, and check results."""

    name = ""
    # operations that fail on every run because of a named fault in the program
    known_faults: dict[str, str] = {}

    def ops(self, r: int):
        """(label, zero-argument callable) pairs of round r."""
        raise NotImplementedError

    def check(self, results: list[Result]) -> list[tuple[int | None, str]]:
        """(index of the operation, message) for each failed check; index None is run-wide."""
        raise NotImplementedError

    def close(self):
        pass


# -- boundary_design --------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    label: str
    params: cp.GbmParams
    policy: cp.CorridorPolicy
    T: int = 20  # periods to retirement
    members: int = 10
    theta: float = 0.2


@dataclass(frozen=True)
class Study:
    k_min: float | None
    stationary: list
    one_period: cp.OptResult
    horizon: cp.OptResult
    fixed_point: cp.FixedPointResult


ACCEPTANCE_2 = Scenario("acceptance2", cp.GbmParams(0.045, 0.06), cp.CorridorPolicy(alpha=4.0))
TIE = Scenario("tie", cp.GbmParams(0.06, 0.09328707495450515), cp.CorridorPolicy(alpha=2.0))


def draw_scenarios(rng: np.random.Generator, per_stratum: int) -> list[Scenario]:
    """Seeded scenarios, `per_stratum` from each of four strata.

    Each stratum lies inside a region where the fixed-point iteration count
    does not change (3, 3, 4 and 2 iterations), so every seed gives the same
    mix of operation costs and op_p50_s does not jump between cost plateaus.
    The last stratum gives less than it takes (give_frac 0.1), so its
    smallest admissible boundary is above 0.
    """
    u = rng.uniform
    out = []
    for i in range(per_stratum):
        out += [
            Scenario(f"p1-{i}", cp.GbmParams(0.045, u(0.09, 0.15)),
                     cp.CorridorPolicy(alpha=u(2.0, 3.0))),
            Scenario(f"p1.5-{i}", cp.GbmParams(0.045, u(0.12, 0.17)),
                     cp.CorridorPolicy(p=u(1.4, 1.6), alpha=u(2.0, 3.0))),
            Scenario(f"p2-{i}", cp.GbmParams(0.045, u(0.09, 0.17)),
                     cp.CorridorPolicy(p=u(1.9, 2.1), alpha=u(1.0, 2.0))),
            Scenario(f"give0.1-{i}", cp.GbmParams(0.045, u(0.11, 0.17)),
                     cp.CorridorPolicy(give_frac=0.1, p=u(1.5, 2.0), alpha=u(1.0, 3.0))),
        ]
    return out


def run_study(s: Scenario) -> Study:
    k_min = cp.admissible_min_k(s.params, s.policy)
    return Study(
        k_min,
        cp.mp_stationary_points(s.params, s.policy),
        cp.maximize_m2(s.params, s.policy, k_min=k_min),
        cp.maximize_m2(s.params, s.policy, k_min=k_min, T=s.T),
        cp.fixed_point_barriers(s.params, s.policy, [1.0] * s.members, s.theta),
    )


def check_k_min(params, policy, k_min) -> list[str]:
    """k_min is admissible by quadrature and no smaller boundary is (the first sign change)."""
    if k_min is None:
        if oracles.lhs(params, policy, 1.0) <= 0:
            return ["no admissible boundary reported, but k=1 is admissible by quadrature"]
        return []
    errs = []
    if oracles.lhs(params, policy, k_min) > LHS_SLACK:
        errs.append(f"k_min={k_min:.6g} is not admissible by quadrature")
    if k_min > 1e-4:
        for k in np.linspace(0.0, k_min - 1e-4, 41):
            if oracles.lhs(params, policy, float(k)) <= 0:
                errs.append(f"k={k:.6g} below k_min={k_min:.6g} is admissible by quadrature")
                break
    return errs


def check_maximizer(params, policy, res, T: int) -> list[str]:
    """k* is admissible by quadrature and its value matches the quadrature-fed recursion."""
    errs = []
    if oracles.lhs(params, policy, res.k_star) > LHS_SLACK:
        errs.append(f"T={T}: k*={res.k_star:.6g} is not admissible by quadrature")
    s1, s2 = oracles.payoff_moments(params, policy, res.k_star)
    want = oracles.horizon_value(s1, s2, policy.alpha, T)
    if abs(res.value - want) > VALUE_TOL:
        errs.append(f"T={T}: value {res.value!r} at k*={res.k_star:.6g}, quadrature {want!r}")
    return errs


def check_fixed_point(s: Scenario, k_min: float, fp, grid: int = 81) -> list[str]:
    """A converged, non-cycling result is a best response to its own threshold; a cycle is not.

    Best responses are judged by value: the quadrature objective at k_bar
    against its maximum over a grid of [k_min, 1], the set the search covers.
    """
    if not fp.converged:
        return ["fixed point did not converge"]
    etas, pol = [1.0] * s.members, s.policy
    errs = []
    c_want = oracles.common_threshold(fp.k_bar, etas, s.theta, pol.help_frac)
    if abs(fp.c - c_want) > 1e-12:
        errs.append(f"threshold {fp.c!r} for k_bar={fp.k_bar:.6g}, expected {c_want!r}")
    ks = np.linspace(k_min, 1.0, grid)
    vals = [oracles.gated_objective(s.params, pol, c_want, float(k)) for k in ks]
    best = max(vals)
    own = oracles.gated_objective(s.params, pol, c_want, fp.k_bar)
    if not fp.cycle_flag and own < best - 1e-7:
        errs.append(f"k_bar={fp.k_bar:.6g} is {best - own:.3g} short of a best response")
    if fp.cycle_flag and own >= best - 1e-7:
        errs.append(f"cycle_flag set but k_bar={fp.k_bar:.6g} is a best response to its threshold")
    return errs


class BoundaryDesign(Workload):
    """One operation is the full boundary study of one market/policy scenario."""

    name = "boundary_design"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        drawn = draw_scenarios(rng, 1 if tiny else 2)
        self.scenarios = [ACCEPTANCE_2, TIE] + (drawn[-1:] if tiny else drawn)

    def ops(self, r):
        return [(s.label, lambda s=s: run_study(s)) for s in self.scenarios]

    def check(self, results):
        errors = []
        first: dict[str, Study] = {}
        by_label = {s.label: s for s in self.scenarios}
        for i, res in enumerate(results):
            if res.error:
                errors.append((i, res.error))
                continue
            if res.label in first:
                if res.value != first[res.label]:
                    errors.append((i, f"{res.label}: output differs from round 0"))
                continue
            first[res.label] = st = res.value
            s = by_label[res.label]
            msgs = check_k_min(s.params, s.policy, st.k_min)
            if st.k_min is not None:
                msgs += check_maximizer(s.params, s.policy, st.one_period, 1)
                msgs += check_maximizer(s.params, s.policy, st.horizon, s.T)
                msgs += check_fixed_point(s, st.k_min, st.fixed_point)
            if s is ACCEPTANCE_2 and abs(st.horizon.k_star - 0.1215) > 2e-3:
                msgs.append(f"T=20 k*={st.horizon.k_star:.6f}, reference 0.1215 +- 2e-3")
            if s is TIE and not st.one_period.tie_flag:
                msgs.append("tie_flag not set on the tie scenario")
            errors += [(i, f"{res.label}: {m}") for m in msgs]
        return errors


# -- pool_vectorized and pool_general ---------------------------------------


def check_always_help(values, params, members, T, gamma_pi, n_paths, what):
    """z-tests of the mean E[V_T] and E[realized variation] against the exact moment recursion.

    `members` holds (policy, boundary) per member; the pool reports their average.
    The exact standard error of that average is at most the average of the
    members' standard deviations over sqrt(paths), and equal to it for one k.
    """
    if not values:
        return []
    moms = [oracles.pool_moments(params, policy, k, T, gamma_pi) for policy, k in members]
    total = n_paths * len(values)
    errs = []
    for key, attr in (("v", "mean_terminal_value"), ("rv", "realized_variation")):
        want = float(np.mean([m[f"{key}_mean"] for m in moms]))
        sd = float(np.mean([math.sqrt(m[f"{key}_var"]) for m in moms]))
        got = [float(getattr(v, attr)) for v in values]
        z = oracles.z_score(got, want, sd / math.sqrt(total))
        if not abs(z) <= Z_LIMIT:
            errs.append((None, f"{what}: mean {attr} {np.mean(got)!r}, exact {want!r}, z={z:.2f}"))
    return errs


def check_not_above(results, pairs, what):
    """A regime that pays no more than AlwaysHelp on any path ends no higher, and needs no sponsor."""
    errs = []
    for i, upper in pairs:
        res = results[i].value
        if res.mean_terminal_value > upper * (1 + 1e-12):
            errs.append((i, f"{what}: mean V_T {res.mean_terminal_value!r} above AlwaysHelp {upper!r}"))
        if res.external_support != 0:
            errs.append((i, f"{what}: external_support {res.external_support!r}, expected 0"))
    return errs


def errors_of(results):
    return [(i, r.error) for i, r in enumerate(results) if r.error]


POOL_MARKET = cp.GbmParams(0.045, 0.12)
POOL_SHAPE = dict(n=10, gamma=0.8, pi_ind=0.1, T=40)


class PoolVectorized(Workload):
    """One operation is `simulate` on a homogeneous pool, AlwaysHelp and NoHelpIfInsufficient in turn."""

    name = "pool_vectorized"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_paths = 2_000 if tiny else 100_000
        policy = cp.CorridorPolicy(k=0.1, alpha=2.0)
        self.configs = {
            regime: cp.PoolConfig(regime=regime, policy=policy, **POOL_SHAPE)
            for regime in (cp.ALWAYS_HELP, cp.NO_HELP_IF_INSUFFICIENT)
        }

    def ops(self, r):
        seed = round_seed(self.seed, r)
        return [
            (regime, lambda cfg=cfg: cp.simulate(cfg, POOL_MARKET, self.n_paths, seed))
            for regime, cfg in self.configs.items()
        ]

    def check(self, results):
        errors = errors_of(results)
        ok = {i for i, r in enumerate(results) if not r.error}
        always = [i for i in ok if results[i].label == cp.ALWAYS_HELP]
        upper = {results[i].round: results[i].value.mean_terminal_value for i in always}
        pairs = [(i, upper[results[i].round]) for i in ok
                 if results[i].label == cp.NO_HELP_IF_INSUFFICIENT and results[i].round in upper]
        cfg = self.configs[cp.ALWAYS_HELP]
        errors += check_not_above(results, pairs, cp.NO_HELP_IF_INSUFFICIENT)
        errors += check_always_help(
            [results[i].value for i in always], POOL_MARKET, [(cfg.policy, cfg.policy.k)], cfg.T,
            cfg.gamma * cfg.pi_ind, self.n_paths, cp.ALWAYS_HELP,
        )
        return errors


def contribution_ledger(ids, events: int, weights, growth, mode="monotone", default_a=0.0):
    """A ledger whose member j pays weights[j] * growth[t] at event t, the pot growing by (1 + a).

    With one interest rate a for everyone and the pot growing by exactly
    (1 + a) between events, the monotone indices equal the pot's value and
    every fairness checker passes.
    """
    led = cp.Ledger(mode=mode, default_a=default_a)
    c_post = 0.0
    for t in range(events):
        c_pre = c_post * (1.0 + default_a)
        contrib = {j: w * growth[t] for j, w in zip(ids, weights)}
        led.record(t, contrib, c_pre)
        c_post = c_pre + sum(contrib.values())
    return led


class PoolGeneral(Workload):
    """One operation is `simulate` on a pool that takes the path-by-path engine.

    A heterogeneous k_vec pool under AlwaysHelp alternates with an
    IndexCappedHelp pool whose ledger is built in Python; at sigma=0.15,
    c0=0.05 and k=0.05 coverage fails often enough that settlement runs.
    """

    name = "pool_general"
    capped_market = cp.GbmParams(0.045, 0.15)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_paths = 10 if tiny else 150
        rng = np.random.default_rng(seed)
        k_vec = tuple(sorted(rng.uniform(0.02, 0.3, POOL_SHAPE["n"])))
        self.het = cp.PoolConfig(regime=cp.ALWAYS_HELP, policy=cp.CorridorPolicy(alpha=2.0),
                                 k_vec=k_vec, **POOL_SHAPE)
        ids = list(range(POOL_SHAPE["n"]))
        ledger = contribution_ledger(
            ids, POOL_SHAPE["T"], rng.uniform(0.5, 2.0, len(ids)),
            rng.uniform(0.8, 1.2, POOL_SHAPE["T"]), mode="proportional",
        )
        self.capped = cp.PoolConfig(
            regime=cp.INDEX_CAPPED_HELP, policy=cp.CorridorPolicy(k=0.05, alpha=2.0),
            c0=0.05, index_source=ledger, **POOL_SHAPE,
        )

    def ops(self, r):
        seed = round_seed(self.seed, r)
        return [
            ("heterogeneous", lambda: cp.simulate(self.het, POOL_MARKET, self.n_paths, seed)),
            ("index_capped", lambda: cp.simulate(self.capped, self.capped_market, self.n_paths, seed)),
        ]

    def check(self, results):
        errors = errors_of(results)
        ok = [i for i, r in enumerate(results) if not r.error]
        het = [i for i in ok if results[i].label == "heterogeneous"]
        errors += check_always_help(
            [results[i].value for i in het], POOL_MARKET, [(self.het.policy, k) for k in self.het.k_vec],
            self.het.T, self.het.gamma * self.het.pi_ind, self.n_paths, "heterogeneous",
        )
        always = replace(self.capped, regime=cp.ALWAYS_HELP, index_source=None)
        pairs = [
            (i, cp.simulate(always, self.capped_market, self.n_paths,
                            round_seed(self.seed, results[i].round)).mean_terminal_value)
            for i in ok if results[i].label == "index_capped"
        ]
        errors += check_not_above(results, pairs, cp.INDEX_CAPPED_HELP)
        return errors


# -- cli_session ------------------------------------------------------------

WORK_ROOT = ROOT / "bench" / ".work"
# the README's batch: a hand count of the round rule pays (4, 6, 20, 35, 35) in 3 rounds
README_BATCH = {"claims": ["4", "6", "20", "35", "80"], "indices": ["1/5"] * 5, "pool": "100"}
LEDGER_FAULT = (
    "JSON ledgers carry string member ids and init_pool uses integer owner_ids, "
    "so IndexCappedHelp finds total weight 0 and pays nothing"
)


def num(x: float) -> str:
    return repr(float(x))


class CliSession(Workload):
    """One operation is one `corridor-pension` subcommand run as a subprocess.

    The session ledger is a long monotone ledger that passes every checker,
    so each checker does its full work: every member pays in proportion to a
    fixed weight, so the larger payer dominates at every prefix.  Each round
    starts from the ledger set-up wrote, then appends one event and audits it.
    """

    name = "cli_session"
    known_faults = {"simulate-ledger": LEDGER_FAULT}
    members = 8
    rate = 0.03
    # the IndexCappedHelp-from-ledger operation: inputs do not depend on the seed
    capped_market = cp.GbmParams(0.045, 0.15)
    capped_pool = dict(n=8, gamma=0.8, pi_ind=0.1, T=20)
    capped_args = ("--mu", "0.045", "--sigma", "0.15", "--k", "0.05", "--n", "8", "--gamma", "0.8",
                   "--pi-ind", "0.1", "--T", "20", "--c0", "0.05", "--paths", "100", "--seed", "3",
                   "--regime", "IndexCappedHelp")

    def __init__(self, seed: int, tiny: bool = False):
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=WORK_ROOT))
        self.out = str(self.dir / "out")
        self.inprocess = False
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.seed = seed
        rng = np.random.default_rng(seed)
        u = rng.uniform

        # session ledger, written as JSON the way `index update` writes it
        n_events = 8 if tiny else 60
        ids = [str(j) for j in range(self.members)]
        weights = [1.0 + j for j in range(self.members)]
        growth = u(0.5, 1.5, n_events + 1)
        base = contribution_ledger(ids, n_events, weights, growth, default_a=self.rate)
        self.base = self.dir / "base_ledger.json"
        self.base.write_text(base.to_json())
        self.ledger = self.dir / "ledger.json"
        self.update = {
            "t": n_events,
            "c_pre": base.events[-1].c_post * (1.0 + self.rate),
            "contributions": {j: w * growth[n_events] for j, w in zip(ids, weights)},
        }
        self.ledger_events = [(ev.contributions, ev.c_pre) for ev in base.events]
        self.ledger_events.append((self.update["contributions"], self.update["c_pre"]))
        self.join_event = n_events // 2

        # fixed ledger for the IndexCappedHelp run, with the integer-id twin the library uses
        self.pool_ledger_int = contribution_ledger(
            range(self.members), self.capped_pool["T"], weights, [1.0] * self.capped_pool["T"])
        self.pool_ledger = self.dir / "pool_ledger.json"
        self.pool_ledger.write_text(self.pool_ledger_int.to_json())

        batch = self.dir / "batch.json"
        batch.write_text(json.dumps(README_BATCH))

        self.markets = {
            # below sigma 0.14 the scan reports spurious stationary points on some
            # seeds (see CHANGES.md); a seed-dependent failure cannot be kept
            "profitability": (cp.GbmParams(u(0.01, 0.05), u(0.14, 0.2)),
                              cp.CorridorPolicy(p=u(1.0, 2.0), give_frac=u(0.1, 0.3))),
            "optimize": (cp.GbmParams(0.045, u(0.09, 0.15)), cp.CorridorPolicy(alpha=u(2.0, 3.0))),
            "fixed-point": (cp.GbmParams(0.045, u(0.09, 0.15)), cp.CorridorPolicy(alpha=u(2.0, 3.0))),
            "simulate": (cp.GbmParams(0.045, u(0.08, 0.12)), cp.CorridorPolicy(k=u(0.05, 0.15))),
        }
        self.sim_paths = 2_000 if tiny else 20_000
        self.fixed_point = Scenario("fixed-point", *self.markets["fixed-point"])

        def market(name):
            params, pol = self.markets[name]
            return ["--mu", num(params.mu), "--sigma", num(params.sigma), "--k", num(pol.k),
                    "--p", num(pol.p), "--give-frac", num(pol.give_frac), "--alpha", num(pol.alpha)]

        eta = ",".join(["1"] * self.fixed_point.members)
        contrib = [f"--contribution={j}={num(v)}" for j, v in self.update["contributions"].items()]
        self.argv = {
            "profitability": ["profitability", *market("profitability"), "--out", self.out],
            "optimize": ["optimize", *market("optimize"), "--out", self.out],
            "fixed-point": ["fixed-point", *market("fixed-point"),
                            "--theta", num(self.fixed_point.theta), "--eta", eta],
            "simulate": ["simulate", *market("simulate"), "--n", "10", "--gamma", "0.8",
                         "--pi-ind", "0.1", "--T", "40", "--paths", str(self.sim_paths),
                         "--out", self.out],
            "settle": ["settle", str(batch), "--out", self.out],
            "index-update": ["index", "update", str(self.ledger), "--t", str(self.update["t"]),
                             "--c-pre", num(self.update["c_pre"]), *contrib],
            "index-check": ["index", "check", str(self.ledger), "--new-id", "new",
                            "--amount", "5.0", "--join-event", str(self.join_event)],
            "index-show": ["index", "show", str(self.ledger)],
            "simulate-ledger": ["simulate", *self.capped_args, "--ledger", str(self.pool_ledger),
                                "--out", self.out],
        }

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def run_cli(self, argv):
        """Run one subcommand, as a subprocess or (for the traced run) through cli.main."""
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "corridor_pension.cli", *argv], cwd=self.dir,
                env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr.strip()[-300:]}")
        return json.loads(stdout)

    def ops(self, r):
        shutil.copyfile(self.base, self.ledger)  # every round appends to the same ledger
        argv = dict(self.argv)
        argv["simulate"] = argv["simulate"] + ["--seed", str(round_seed(self.seed, r))]
        return [(label, lambda a=a: self.run_cli(a)) for label, a in argv.items()]

    # checks, one per subcommand; each returns a list of messages

    def check_profitability(self, out):
        params, pol = self.markets["profitability"]
        k_min = None if out["k_min"] == "none" else float(out["k_min"])
        msgs = check_k_min(params, pol, k_min)
        for sp in out["stationary_points"]:
            # the slope changes sign across k: + to - at a max, - to + at a min
            before, after = (oracles.lhs_slope(params, pol, sp["k"] + d) for d in (-1e-4, 1e-4))
            kind = {(True, False): "max", (False, True): "min"}.get((before > 0, after > 0))
            if kind != sp["kind"]:
                msgs.append(f"stationary point {sp}: slope {before:.3g} before, {after:.3g} after")
        rows = read_csv(out["csv"])
        if len(rows) != 2001:
            msgs.append(f"{len(rows)} rows in profitability.csv, expected 2001")
        for row in rows:
            if int(row["admissible"]) != (float(row["lhs"]) <= 1e-12):
                msgs.append(f"admissible flag contradicts lhs in row {row}")
                break
        for row in rows[::500]:
            want = oracles.lhs(params, pol, float(row["k"]))
            if abs(float(row["lhs"]) - want) > VALUE_TOL:
                msgs.append(f"lhs {row['lhs']} at k={row['k']}, quadrature {want!r}")
        return msgs

    def check_optimize(self, out):
        params, pol = self.markets["optimize"]
        msgs = check_k_min(params, pol, out["k_min"])
        msgs += check_maximizer(params, pol, Outcome(out), 1)
        for row in read_csv(out["csv"])[::1000]:
            s1, s2 = oracles.payoff_moments(params, pol, float(row["k"]))
            if abs(float(row["m2"]) - (s1 - pol.alpha * s2)) > VALUE_TOL:
                msgs.append(f"m2 {row['m2']} at k={row['k']}, quadrature {s1 - pol.alpha * s2!r}")
        return msgs

    def check_fixed_point(self, out):
        s = self.fixed_point
        k_min = oracles.first_admissible(s.params, s.policy)
        return check_fixed_point(s, k_min, Outcome(out))

    def check_settle(self, out):
        alloc = tuple(Fraction(a) for a in out["allocations"])
        if alloc != (4, 6, 20, 35, 35) or Fraction(out["remaining"]) != 0 or out["rounds"] != 3:
            return [f"settlement {out}, expected allocations (4, 6, 20, 35, 35), remaining 0, 3 rounds"]
        return []

    def check_shares(self, out):
        """Shares (and indices, when shown) against both recursions over the event list."""
        a = {j: self.rate for j in self.update["contributions"]}
        indices, shares = oracles.monotone_replay([(c, a) for c, _ in self.ledger_events])[-1]
        direct = oracles.direct_shares(self.ledger_events)
        msgs = []
        if out["events"] != len(self.ledger_events):
            msgs.append(f"{out['events']} events, expected {len(self.ledger_events)}")
        for j in shares:
            got = out["shares"].get(j)
            if got is None or not (rel_close(got, shares[j], 1e-9) and rel_close(got, direct[j], 1e-9)):
                msgs.append(f"share of {j}: {got!r}, monotone {shares[j]!r}, direct {direct[j]!r}")
            if "indices" in out and not rel_close(out["indices"].get(j, math.nan), indices[j], 1e-9):
                msgs.append(f"index of {j}: {out['indices'].get(j)!r}, expected {indices[j]!r}")
        return msgs

    def check_audit(self, out):
        # uniform interest, a pot that grows by it, and ordered payments: every rule holds
        bad = {name: v for name, v in out.items() if v.get("ok") is not True}
        return [f"checkers {bad} should all pass on this ledger"] if bad else []

    def check_ledger_simulation(self, out):
        """The JSON ledger must act like the same ledger built in Python, and not like no help."""
        msgs = []
        base = cp.PoolConfig(regime=cp.INDEX_CAPPED_HELP, policy=cp.CorridorPolicy(k=0.05), c0=0.05,
                             index_source=self.pool_ledger_int, **self.capped_pool)
        n_paths, seed = 100, 3
        want = cp.simulate(base, self.capped_market, n_paths, seed)
        no_help = cp.simulate(replace(base, regime=cp.NO_HELP_IF_INSUFFICIENT, index_source=None),
                              self.capped_market, n_paths, seed)
        fields = ("mean_terminal_value", "realized_variation", "shortfall_freq", "external_support")
        if all(rel_close(out[f], getattr(no_help, f)) for f in fields):
            msgs.append(f"identical to NoHelpIfInsufficient ({LEDGER_FAULT})")
        if not all(rel_close(out[f], getattr(want, f)) for f in fields):
            msgs.append(f"mean V_T {out['mean_terminal_value']!r}, library with integer ids "
                        f"{want.mean_terminal_value!r}")
        return msgs

    def check(self, results):
        errors = errors_of(results)
        ok = [i for i, r in enumerate(results) if not r.error]
        params, pol = self.markets["simulate"]
        sims = [Outcome(results[i].value) for i in ok if results[i].label == "simulate"]
        errors += check_always_help(sims, params, [(pol, pol.k)], 40, 0.8 * 0.1,
                                    self.sim_paths, "simulate")
        checks = {
            "profitability": self.check_profitability,
            "optimize": self.check_optimize,
            "fixed-point": self.check_fixed_point,
            "settle": self.check_settle,
            "index-update": self.check_shares,
            "index-show": self.check_shares,
            "index-check": self.check_audit,
            "simulate-ledger": self.check_ledger_simulation,
        }
        checked: dict[str, list[str]] = {}
        for i in ok:
            label = results[i].label
            if label not in checks:
                continue
            # identical inputs every round: outputs must repeat; check the first fully
            key = label + json.dumps(results[i].value, sort_keys=True, default=str)
            if key not in checked:
                checked[key] = checks[label](results[i].value)
            errors += [(i, f"{label}: {m}") for m in checked[key]]
        return errors


class Outcome(dict):
    """A parsed JSON summary whose keys also read as attributes."""

    __getattr__ = dict.__getitem__


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (BoundaryDesign, PoolVectorized, PoolGeneral, CliSession)}
