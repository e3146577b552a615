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
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

# the ledger and settlement subcommands need only the standard library; the
# numeric ones import numpy, scipy and the corridor modules when they run
from .claim_settlement import ClaimBatch, settle
from .redistribution_index import (
    Ledger,
    check_add,
    check_cont,
    check_fix,
    check_lin,
    check_mon,
)

if TYPE_CHECKING:
    from .corridor_math import CorridorPolicy
    from .market_model import GbmParams


class CliError(Exception):
    """Invalid input or configuration; maps to exit code 2."""


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


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise CliError("config root must be a JSON object")
    # one file serves every subcommand, so a key any of them reads is known
    for name, value in cfg.items():
        if name in _SETTINGS and _SETTINGS[name].section is None:
            continue
        keys = {s.key for s in _SETTINGS.values() if s.section == name}
        if not keys:
            raise CliError(f"unknown config key {name!r}")
        if not isinstance(value, dict):
            raise CliError(f"config {name!r} must be a JSON object")
        for key in value:
            if key not in keys:
                raise CliError(f"unknown config key {key!r} in {name!r}")
    return cfg


def _number(val, where, kind=float):
    # JSON booleans, lists and objects are invalid input, not numbers
    if isinstance(val, bool) or not isinstance(val, (int, float, str)):
        raise CliError(f"bad value {val!r} for {where}")
    return kind(val)


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


def _emit(obj):
    print(json.dumps(obj, indent=2, default=str))


def _lhs_curve(params, policy, ks):
    from .corridor_math import m1

    # profitability_lhs at each k: the transfer-only objective without discount
    return m1(params, replace(policy, J=0.0), ks)


def cmd_profitability(args) -> int:
    import numpy as np

    from .corridor_math import LHS_TOL, admissible_min_k, mp_stationary_points

    values = _settings(args)
    params, policy = _market_policy(values)
    out = _out_dir(values)
    ks = np.linspace(0.0, 1.0, values["grid"])
    lhs = _lhs_curve(params, policy, ks)
    rows = [[f"{k:.10g}", f"{v:.17g}", int(v <= LHS_TOL)] for k, v in zip(ks, lhs)]
    _write_csv(out / "profitability.csv", ["k", "lhs", "admissible"], rows)
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
    import numpy as np

    from .corridor_math import (
        LHS_TOL, admissible_min_k, k_of_c, m1, m2_horizon, maximize_m2, n_func,
    )

    values = _settings(args)
    params, policy = _market_policy(values)
    out = _out_dir(values)
    grid, c, horizon = values["grid"], values.get("c"), values["horizon"]

    k_min = admissible_min_k(params, policy)
    res = maximize_m2(params, policy, k_min=k_min, grid=grid, T=horizon)

    ks = np.linspace(0.0, 1.0, grid)
    header = ["k", "m1", "m2", "admissible"]
    include_gated = c is not None
    if include_gated:
        header.insert(3, "n_gated")
    columns = [m1(params, policy, ks), m2_horizon(params, policy, ks, horizon)]
    if include_gated:
        columns.append(n_func(params, policy, c, ks))
    admissible = _lhs_curve(params, policy, ks) <= LHS_TOL
    rows = [
        [f"{k:.10g}", *(f"{v:.17g}" for v in vals), int(ok)]
        for k, *vals, ok in zip(ks, *columns, admissible)
    ]
    _write_csv(out / "optimize_curves.csv", header, rows)

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
    with open(out / "optimize.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    _emit(summary)
    return 0


def cmd_simulate(args) -> int:
    from .market_model import sample_return_matrix
    from .pool_simulator import PoolConfig, run_path, simulate

    values = _settings(args)
    params, policy = _market_policy(values)
    ledger = _load_ledger(values["ledger"]) if "ledger" in values else None
    config = PoolConfig(**_section(values, "pool"), policy=policy, index_source=ledger)
    out = _out_dir(values)
    seed, n_paths = values["seed"], values["paths"]

    result = simulate(config, params, n_paths, seed)

    # step log from the first sampled path, deterministic for the seed
    returns = sample_return_matrix(params, config.T, 1, seed)[0]
    _, reports = run_path(config, returns)
    rows = []
    for rep in reports:
        for r in rep.rows:
            rows.append(
                [
                    r["t"],
                    r["owner_id"],
                    f"{r['V']:.12g}",
                    f"{r['eta']:.12g}",
                    f"{r['transfer_units']:.12g}",
                    f"{r['transfer_value']:.12g}",
                    int(r["help_granted"]),
                    f"{r['z_star']:.12g}",
                    f"{r['theta']:.12g}",
                    f"{r['C']:.12g}",
                ]
            )
    _write_csv(
        out / "steps.csv",
        ["t", "owner_id", "V", "eta", "transfer_units", "transfer_value",
         "help_granted", "z_star", "theta", "C"],
        rows,
    )
    summary = {
        "mean_terminal_value": result.mean_terminal_value,
        "penalized_objective": result.penalized_objective,
        "realized_variation": result.realized_variation,
        "shortfall_freq": result.shortfall_freq,
        "external_support": result.external_support,
        "n_paths": result.n_paths,
        "seed": seed,
        "csv": str(out / "steps.csv"),
    }
    with open(out / "simulate.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    _emit(summary)
    return 0


def cmd_fixed_point(args) -> int:
    from .pool_simulator import fixed_point_barriers

    values = _settings(args)
    params, policy = _market_policy(values)
    eta_raw = values["eta"]
    if isinstance(eta_raw, str):
        eta_raw = [x for x in eta_raw.split(",") if x.strip()]
    if not isinstance(eta_raw, list):
        raise CliError(f"eta must be a comma-separated string or a list, got {eta_raw!r}")
    eta_vec = [_number(x, "eta") for x in eta_raw]
    if not eta_vec:
        raise CliError("eta list is empty")

    res = fixed_point_barriers(params, policy, eta_vec, values["theta"], grid=values["grid"])
    _emit(
        {
            "k_bar": res.k_bar,
            "c": res.c,
            "iterations": res.iterations,
            "converged": res.converged,
            "cycle_flag": res.cycle_flag,
        }
    )
    return 0 if res.converged else 1


def _batch_number(value, where):
    # strings become exact Fractions ("1/5", "35", "0.25"); numbers pass through,
    # but not JSON booleans, which Python counts as ints
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad number {value!r} in {where}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise CliError(f"bad number {value!r} in {where}")


def cmd_settle(args) -> int:
    try:
        with open(args.batch) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read batch {args.batch}: {exc}")
    if not isinstance(raw, dict):
        raise CliError("batch root must be a JSON object")
    for key in ("claims", "indices", "pool"):
        if key not in raw:
            raise CliError(f"batch file missing {key!r}")
    if not isinstance(raw["claims"], list) or not isinstance(raw["indices"], list):
        raise CliError("claims and indices must be lists")
    batch = ClaimBatch(
        [_batch_number(c, "claims") for c in raw["claims"]],
        [_batch_number(w, "indices") for w in raw["indices"]],
        _batch_number(raw["pool"], "pool"),
    )
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
    try:
        with open(path) as fh:
            return Ledger.from_json(fh.read())
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        raise CliError(f"cannot load ledger {path}: {exc}")


def _parse_kv(pairs, what):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise CliError(f"{what} must look like ID=NUMBER, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out[key] = float(val)
        except ValueError:
            raise CliError(f"bad number in {what}: {item!r}")
    return out


def cmd_index(args) -> int:
    if args.verb == "update":
        path = Path(args.ledger)
        if path.exists():
            ledger = _load_ledger(args.ledger)
            if args.mode not in (None, ledger.mode):
                raise CliError(f"--mode {args.mode} disagrees with the {ledger.mode} ledger")
        else:
            ledger = Ledger(mode=args.mode or "proportional")
        if args.t is None or args.c_pre is None:
            raise CliError("update needs --t and --c-pre")
        contributions = _parse_kv(args.contribution, "--contribution")
        if not contributions and not ledger.events:
            raise CliError("first update needs at least one --contribution")
        a = _parse_kv(args.a, "--a") or None
        shares = ledger.record(args.t, contributions, args.c_pre, a=a)
        path.write_text(ledger.to_json())
        _emit({"shares": {str(k): v for k, v in shares.items()}, "events": len(ledger.events)})
        return 0

    ledger = _load_ledger(args.ledger)
    if not ledger.events:
        raise CliError("ledger has no events")

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
    results = {
        "cont": check_cont(ledger),
        "fix": check_fix(ledger),
        "mon": check_mon(ledger),
        "lin": check_lin(ledger),
    }
    report = {
        name: {"ok": r.ok, "witness": list(r.witness) if r.witness else None}
        for name, r in results.items()
    }
    if args.new_id is not None and args.amount is not None:
        add = check_add(ledger, args.join_event, args.new_id, args.amount)
        report["add"] = {"ok": add.ok, "witness": list(add.witness) if add.witness else None}
    else:
        report["add"] = {"ok": None, "witness": None, "note": "pass --new-id/--amount to run"}
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

    sp = subs.add_parser("index", help="share ledger operations")
    sp.add_argument("verb", choices=["update", "check", "show"])
    sp.add_argument("ledger", help="ledger JSON file")
    sp.add_argument("--mode", choices=["proportional", "monotone"])
    sp.add_argument("--t", type=float, help="event time")
    sp.add_argument("--c-pre", dest="c_pre", type=float, help="pot value before contributions")
    sp.add_argument("--contribution", action="append", metavar="ID=AMT")
    sp.add_argument("--a", action="append", metavar="ID=RATE", help="interest factors")
    sp.add_argument("--new-id", dest="new_id", help="fresh contributor for the add check")
    sp.add_argument("--amount", type=float, help="contribution for the add check")
    sp.add_argument("--join-event", dest="join_event", type=int, default=0,
                    help="event index where the fresh contributor joins")
    sp.set_defaults(fn=cmd_index)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError) as exc:  # a ValueError is invalid input too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
