"""Command-line front end.

Subcommands: profitability | optimize | simulate | fixed-point | settle | index.
Each setting is declared once, in `_SETTINGS`, and each subcommand names the
settings it reads.  A setting comes from its flag, else from an optional JSON
config file (--config), else from its default; a config section or key that no
subcommand reads is invalid input.  Outputs are CSV data files plus a JSON
summary on stdout.  Exit codes: 0 success, 1 numerical non-convergence, 2
invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

# each subcommand imports the layers it runs when it runs: the ledger and
# settlement subcommands the exact ledger code on the standard library alone,
# the numeric ones numpy, the corridor modules and scipy's compiled normal CDF
# (market_model loads it without running the __init__ of scipy's
# special-function package), and no ledger code unless they read a ledger
if TYPE_CHECKING:
    from .corridor_math import CorridorPolicy
    from .market_model import GbmParams
    from .redistribution_index import Ledger


class _Setting(NamedTuple):
    flag: str
    section: str | None  # the config section; None is the top level
    key: str  # the config key, the argparse dest and the dataclass field
    kind: Callable | None  # converts a value given; None keeps it as given
    help: str
    default: object = None  # only where no dataclass field supplies one


# every setting that a flag or a config file can set
_SETTINGS = {
    s.key: s
    for s in (
        _Setting("--mu", "market", "mu", float, "per-period log-drift", 0.045),
        _Setting("--sigma", "market", "sigma", float, "per-period log-volatility", 0.06),
        _Setting("--k", "policy", "k", float, "lower boundary magnitude"),
        _Setting("--p", "policy", "p", float, "upper boundary asymmetry factor"),
        _Setting("--give-frac", "policy", "give_frac", float, "share of the excess given"),
        _Setting("--help-frac", "policy", "help_frac", float, "share of the shortfall helped"),
        _Setting("--alpha", "policy", "alpha", float, "second-moment penalty weight"),
        _Setting("--j-discount", "policy", "J", float,
                 "index discount in the transfer-only objective"),
        _Setting("--n", "pool", "n", int, "number of individuals", 1),
        _Setting("--gamma", "pool", "gamma", float, "premium split to individuals", 1.0),
        _Setting("--pi-ind", "pool", "pi_ind", float, "per-period premium", 0.0),
        _Setting("--T", "pool", "T", int, "horizon in periods", 1),
        _Setting("--regime", "pool", "regime", str,
                 "AlwaysHelp, NoHelpIfInsufficient or IndexCappedHelp", "AlwaysHelp"),
        _Setting("--v0", "pool", "v0_ind", float, "initial individual value"),
        _Setting("--c0", "pool", "c0", float, "initial collective value"),
        _Setting("--h0", "pool", "h0", float, "initial fund price"),
        _Setting("--theta", "fixed_point", "theta", float, "collective unit count", 1.0),
        _Setting("--eta", "fixed_point", "eta", None,
                 "comma-separated individual unit counts", "1"),
        _Setting("--out", None, "out", str, "output directory", "."),
        _Setting("--seed", None, "seed", int, "RNG seed", 0),
        _Setting("--grid", None, "grid", int, "grid resolution for scans", 2001),
        _Setting("--paths", None, "paths", int, "Monte Carlo path count", 100_000),
        _Setting("--c", None, "c", float, "help cutoff for the gated objective"),
        _Setting("--horizon", None, "horizon", int,
                 "periods to retirement; the m2 curve and k_star compound over them", 1),
        _Setting("--ledger", None, "ledger", str, "ledger JSON for IndexCappedHelp"),
    )
}
_MARKET_POLICY = ("mu", "sigma", "k", "p", "give_frac", "help_frac", "alpha")


def _read_object(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}")
    if not isinstance(raw, dict):
        raise ValueError(f"{what} root must be a JSON object")
    return raw


def _load_config(path: str | None) -> dict:
    cfg = {} if path is None else _read_object(path, "config")
    # one file serves every subcommand, so a key any of them reads is known
    for name, value in cfg.items():
        if name in _SETTINGS and _SETTINGS[name].section is None:
            continue
        keys = {s.key for s in _SETTINGS.values() if s.section == name}
        if not keys:
            raise ValueError(f"unknown config key {name!r}")
        if not isinstance(value, dict):
            raise ValueError(f"config {name!r} must be a JSON object")
        for key in value:
            if key not in keys:
                raise ValueError(f"unknown config key {key!r} in {name!r}")
    return cfg


def _number(val, where, kind=float):
    # JSON booleans, lists and objects are invalid input, not numbers, an
    # integer setting refuses a fraction (or inf, nan) instead of truncating
    # it, and a string must read as a number of the setting's kind
    if not isinstance(val, bool) and isinstance(val, (int, float, str)) and not (
        kind is int and isinstance(val, float) and not val.is_integer()
    ):
        try:
            return kind(val)
        except (ValueError, ZeroDivisionError):  # Fraction("1/0") is the latter
            pass
    raise ValueError(f"bad value {val!r} for {where}")


def _settings(args) -> dict:
    """The settings the subcommand reads: each from its flag, else the config
    file, else the table default.  One that none of them sets is left out, so
    the dataclass default applies."""
    cfg = _load_config(args.config)
    values = {}
    for key in args.reads:
        s = _SETTINGS[key]
        val = getattr(args, key)
        if val is None:
            val = (cfg if s.section is None else cfg.get(s.section, {})).get(key)
        if val is None:
            val = s.default
        elif s.kind is not None:
            val = _number(val, key, s.kind)
        if val is not None:
            values[key] = val
    return values


def _section(values: dict, section: str) -> dict:
    return {key: val for key, val in values.items() if _SETTINGS[key].section == section}


def _market_policy(values: dict) -> tuple[GbmParams, CorridorPolicy]:
    from .corridor_math import CorridorPolicy
    from .market_model import GbmParams

    return GbmParams(**_section(values, "market")), CorridorPolicy(**_section(values, "policy"))


def _out_dir(values: dict) -> Path:
    out = Path(values["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emit(obj, path: Path | None = None):
    # the JSON summary on stdout, and the same text in the file at path
    text = json.dumps(obj, indent=2, default=str)
    print(text)
    if path is not None:
        path.write_text(text)


def _write_curves(path: Path, header, ks, columns, admissible):
    # one row per k: k to 10 digits, each column's float to 17 and the admissible flag
    rows = [[f"{k:.10g}", *(f"{v:.17g}" for v in vals), int(ok)]
            for k, *vals, ok in zip(*(x.tolist() for x in (ks, *columns, admissible)))]
    _write_csv(path, header, rows)


def cmd_profitability(args) -> int:
    from .corridor_math import (
        LHS_TOL, _search_grid, admissible_min_k, mp_stationary_points, profitability_lhs,
    )

    values = _settings(args)
    params, policy = _market_policy(values)
    ks = _search_grid(params, policy, 0.0, values["grid"])  # the grid rule of the searches
    lhs = profitability_lhs(params, policy, ks)
    out = _out_dir(values)
    _write_curves(out / "profitability.csv", ["k", "lhs", "admissible"], ks, [lhs], lhs <= LHS_TOL)
    k_min = admissible_min_k(params, policy)
    stationary = mp_stationary_points(params, policy)
    _emit(
        {
            "k_min": k_min,
            "stationary_points": [{"k": k, "kind": kind} for k, kind in stationary],
            "csv": str(out / "profitability.csv"),
        }
    )
    return 0


def cmd_optimize(args) -> int:
    from .corridor_math import (
        LHS_TOL, _search_grid, admissible_min_k, k_of_c, m1, m2_horizon, maximize_m2, n_func,
        profitability_lhs,
    )

    values = _settings(args)
    params, policy = _market_policy(values)
    grid, c, horizon = values["grid"], values.get("c"), values["horizon"]

    k_min = admissible_min_k(params, policy)
    res = maximize_m2(params, policy, k_min=k_min, grid=grid, T=horizon)

    ks = _search_grid(params, policy, 0.0, grid)
    header = ["k", "m1", "m2", "admissible"]
    include_gated = c is not None
    if include_gated:
        header.insert(3, "n_gated")
    columns = [m1(params, policy, ks), m2_horizon(params, policy, ks, horizon)]
    if include_gated:
        columns.append(n_func(params, policy, c, ks))
    admissible = profitability_lhs(params, policy, ks) <= LHS_TOL
    out = _out_dir(values)
    _write_curves(out / "optimize_curves.csv", header, ks, columns, admissible)

    summary = {
        "k_star": res.k_star,
        "value": res.value,
        "tie_flag": res.tie_flag,
        "k_min": k_min,
        "candidates": [list(kv) for kv in res.candidates],
        "csv": str(out / "optimize_curves.csv"),
    }
    if include_gated:
        gated = k_of_c(params, policy, c, grid=grid, k_min=k_min)
        summary["k_of_c"] = {
            "c": c,
            "k_star": gated.k_star,
            "value": gated.value,
            "tie_flag": gated.tie_flag,
        }
    _emit(summary, out / "optimize.json")
    return 0


def cmd_simulate(args) -> int:
    from .market_model import sample_return_matrix
    from .pool_simulator import PoolConfig, run_path, simulate

    values = _settings(args)
    params, policy = _market_policy(values)
    ledger = _load_ledger(values["ledger"]) if "ledger" in values else None
    config = PoolConfig(**_section(values, "pool"), policy=policy, index_source=ledger)
    seed, n_paths = values["seed"], values["paths"]

    result = simulate(config, params, n_paths, seed)

    # step log from the first sampled path, deterministic for the seed; its
    # columns are run_path's row keys, ints and bools written as ints
    returns = sample_return_matrix(params, config.T, 1, seed)[0]
    rows = [r for rep in run_path(config, returns) for r in rep.rows]
    out = _out_dir(values)  # a refused run makes no directory
    _write_csv(
        out / "steps.csv",
        rows[0].keys(),
        [[int(v) if isinstance(v, int) else f"{v:.12g}" for v in r.values()] for r in rows],
    )
    summary = {**asdict(result), "seed": seed, "csv": str(out / "steps.csv")}
    _emit(summary, out / "simulate.json")
    return 0


def cmd_fixed_point(args) -> int:
    from .corridor_math import fixed_point_barriers

    values = _settings(args)
    params, policy = _market_policy(values)
    eta_raw = values["eta"]
    if isinstance(eta_raw, str):
        eta_raw = eta_raw.split(",")  # an empty entry is a bad number, not one fewer member
    if not isinstance(eta_raw, list):
        raise ValueError(f"eta must be a comma-separated string or a list, got {eta_raw!r}")
    eta_vec = [_number(x, "eta") for x in eta_raw]

    res = fixed_point_barriers(params, policy, eta_vec, values["theta"], grid=values["grid"])
    _emit(asdict(res))
    return 0 if res.converged else 1


def cmd_settle(args) -> int:
    from .claim_settlement import ClaimBatch, settle
    from .redistribution_index import _exact

    raw = _read_object(args.batch, "batch")
    for key in ("claims", "indices", "pool"):
        if key not in raw:
            raise ValueError(f"batch file missing {key!r}")
    if not isinstance(raw["claims"], list) or not isinstance(raw["indices"], list):
        raise ValueError("claims and indices must be lists")
    # strings become exact Fractions ("1/5", "35", "0.25"); ClaimBatch checks the rest
    batch = ClaimBatch([_exact(c) for c in raw["claims"]], [_exact(w) for w in raw["indices"]],
                       _exact(raw["pool"]))
    result = settle(batch)
    out = _out_dir(_settings(args))
    _write_csv(
        out / "settlement.csv",
        ["claimant", "claim", "index", "allocation"],
        [
            [j, batch.claims[j], batch.indices[j], result.allocations[j]]
            for j in range(len(batch.claims))
        ],
    )
    _emit(
        {
            "allocations": list(result.allocations),
            "remaining": result.remaining,
            "rounds": result.rounds,
            "csv": str(out / "settlement.csv"),
        }
    )
    return 0


def _load_ledger(path: str) -> Ledger:
    from .redistribution_index import Ledger

    try:
        with open(path) as fh:
            return Ledger.from_json(fh.read())
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise ValueError(f"cannot load ledger {path}: {exc}")


def _parse_kv(pairs, what, kind=float):
    out = {}
    for item in pairs or []:
        key, eq, val = item.partition("=")
        if not (eq and key):  # no "=", or no member ID before it
            raise ValueError(f"{what} must look like ID=NUMBER, got {item!r}")
        if key in out:  # else the last entry would silently replace the first
            raise ValueError(f"{what} names member {key!r} twice")
        try:
            out[key] = kind(val)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad number in {what}: {item!r}")
    return out


def cmd_index(args) -> int:
    from fractions import Fraction

    from .redistribution_index import Ledger, check_add, check_cont, check_fix, check_lin, check_mon

    if args.verb == "update":
        path = Path(args.ledger)
        if path.exists():
            ledger = _load_ledger(args.ledger)
            if args.mode not in (None, ledger.mode):
                raise ValueError(f"--mode {args.mode} disagrees with the {ledger.mode} ledger")
        else:
            ledger = Ledger(mode=args.mode or "proportional")
        # a ledger whose shares are exact takes the event's numbers as exact
        # rationals ("0.1" is 1/10), so it stays exact; any other takes floats
        exact = ledger.events and all(isinstance(s, Fraction) for s in ledger.shares.values())
        kind = Fraction if exact else float
        t, c_pre = (None if val is None else _number(val, flag, kind)
                    for val, flag in ((args.t, "--t"), (args.c_pre, "--c-pre")))
        contributions = _parse_kv(args.contribution, "--contribution", kind)
        a = _parse_kv(args.a, "--a", kind) or None
        shares = ledger.record(t, contributions, c_pre, a=a)
        path.write_text(ledger.to_json())
        _emit({"shares": {str(k): float(v) for k, v in shares.items()}, "events": len(ledger.events)})
        return 0

    ledger = _load_ledger(args.ledger)
    if not ledger.events:
        raise ValueError("ledger has no events")

    if args.verb == "show":
        _emit(
            {
                "mode": ledger.mode,
                "events": len(ledger.events),
                "indices": {str(k): float(v) for k, v in ledger.indices.items()},
                "shares": {str(k): float(v) for k, v in ledger.shares.items()},
            }
        )
        return 0

    # check
    if (args.new_id is None) != (args.amount is None):
        raise ValueError("the add check needs both --new-id and --amount")
    if args.new_id is None and args.join_event is not None:
        raise ValueError("--join-event is read only by the add check: pass --new-id and --amount")
    results = {
        "cont": check_cont(ledger),
        "fix": check_fix(ledger),
        "mon": check_mon(ledger),
        "lin": check_lin(ledger),
    }
    if args.new_id is not None:
        join_event = 0 if args.join_event is None else args.join_event
        results["add"] = check_add(ledger, join_event, args.new_id, args.amount)
    report = {
        name: {"ok": r.ok, "witness": list(r.witness) if r.witness else None}
        for name, r in results.items()
    }
    report.setdefault("add", {"ok": None, "witness": None, "note": "pass --new-id/--amount to run"})
    _emit(report)
    return 0


def _add_settings(sub, names):
    # the subcommand reads these settings; no other flag or config key reaches it
    sub.add_argument("--config", help="JSON config file")
    for name in names:
        s = _SETTINGS[name]
        sub.add_argument(s.flag, dest=name, type=s.kind, help=s.help)
    sub.set_defaults(reads=names)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corridor-pension",
        description="Corridor-smoothed collective pension toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # profitability, optimize and fixed-point do not read --k, nor profitability
    # --alpha; they are accepted because the benchmark's CLI session passes them
    for name, fn, help_, names in (
        ("profitability", cmd_profitability, "admissibility scan of the boundary",
         (*_MARKET_POLICY, "out", "grid")),
        ("optimize", cmd_optimize, "objective curves and maximizer",
         (*_MARKET_POLICY, "J", "out", "grid", "c", "horizon")),
        ("simulate", cmd_simulate, "Monte Carlo pool simulation",
         (*_MARKET_POLICY, "n", "gamma", "pi_ind", "T", "regime", "ledger", "v0_ind", "c0", "h0",
          "out", "seed", "paths")),
        ("fixed-point", cmd_fixed_point, "common-boundary fixed point",
         (*_MARKET_POLICY, "theta", "eta", "grid")),
    ):
        sp = subs.add_parser(name, help=help_)
        _add_settings(sp, names)
        sp.set_defaults(fn=fn)

    sp = subs.add_parser("settle", help="settle a claim batch")
    sp.add_argument("batch", help="JSON file with claims, indices, pool")
    _add_settings(sp, ("out",))
    sp.set_defaults(fn=cmd_settle)

    # each verb has its own parser, so a flag of another verb exits 2
    verbs = subs.add_parser("index", help="share ledger operations").add_subparsers(
        dest="verb", required=True)
    update = verbs.add_parser("update", help="record a contribution event")
    check = verbs.add_parser("check", help="audit the ledger's index properties")
    show = verbs.add_parser("show", help="print the ledger's indices and shares")
    for sp in (update, check, show):
        sp.add_argument("ledger", help="ledger JSON file")
        sp.set_defaults(fn=cmd_index)
    update.add_argument("--mode", choices=["proportional", "monotone"])
    update.add_argument("--t", help="event time")
    update.add_argument("--c-pre", dest="c_pre", help="pot value before contributions")
    update.add_argument("--contribution", action="append", metavar="ID=AMT")
    update.add_argument("--a", action="append", metavar="ID=RATE", help="interest factors")
    check.add_argument("--new-id", dest="new_id", help="fresh contributor for the add check")
    check.add_argument("--amount", type=float, help="contribution for the add check")
    check.add_argument("--join-event", dest="join_event", type=int,
                       help="event index where the fresh contributor joins (default 0)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OverflowError) as exc:  # invalid input, or an exact index past the floats
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
