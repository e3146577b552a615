"""Command-line front end.

Subcommands: profitability | optimize | simulate | fixed-point | settle | index.
Configuration comes from an optional JSON file (--config) with every field
overridable by flags; outputs are CSV data files plus a JSON summary on
stdout.  Exit codes: 0 success, 1 numerical non-convergence, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

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
    from .pool_simulator import PoolConfig


class CliError(Exception):
    """Invalid input or configuration; maps to exit code 2."""


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
    for name in ("market", "policy", "pool", "fixed_point"):
        if not isinstance(cfg.get(name, {}), dict):
            raise CliError(f"config {name!r} must be a JSON object")
    return cfg


def _number(val, where, kind=float):
    # JSON booleans, lists and objects are invalid input, not numbers
    if isinstance(val, bool) or not isinstance(val, (int, float, str)):
        raise CliError(f"bad value {val!r} for {where}")
    return kind(val)


def _pick(args, name, cfg_section, cfg_key, default, kind=float):
    # the flag, else the config entry, else the default; a value given is
    # converted by kind, and kind=None returns it raw
    val = getattr(args, name, None)
    if val is None:
        val = cfg_section.get(cfg_key)
    if val is None:
        return default
    return val if kind is None else _number(val, cfg_key, kind)


def _market(args, cfg) -> GbmParams:
    from .market_model import GbmParams

    sec = cfg.get("market", {})
    return GbmParams(
        mu=_pick(args, "mu", sec, "mu", 0.045),
        sigma=_pick(args, "sigma", sec, "sigma", 0.06),
    )


def _policy(args, cfg) -> CorridorPolicy:
    from .corridor_math import CorridorPolicy

    sec = cfg.get("policy", {})
    return CorridorPolicy(
        k=_pick(args, "k", sec, "k", 0.0),
        p=_pick(args, "p", sec, "p", 1.0),
        give_frac=_pick(args, "give_frac", sec, "give_frac", 0.25),
        help_frac=_pick(args, "help_frac", sec, "help_frac", 0.5),
        alpha=_pick(args, "alpha", sec, "alpha", 0.0),
        J=_pick(args, "j_discount", sec, "J", 0.0),
    )


def _out_dir(args, cfg) -> Path:
    out = Path(_pick(args, "out", cfg, "out", ".", kind=str))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _grid(args, cfg) -> int:
    return _pick(args, "grid", cfg, "grid", 2001, kind=int)


def _seed(args, cfg) -> int:
    return _pick(args, "seed", cfg, "seed", 0, kind=int)


def _paths(args, cfg) -> int:
    return _pick(args, "paths", cfg, "paths", 100_000, kind=int)


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

    from .corridor_math import admissible_min_k, mp_stationary_points

    cfg = _load_config(args.config)
    params = _market(args, cfg)
    policy = _policy(args, cfg)
    out = _out_dir(args, cfg)
    grid = _grid(args, cfg)
    ks = np.linspace(0.0, 1.0, grid)
    lhs = _lhs_curve(params, policy, ks)
    rows = [[f"{k:.10g}", f"{v:.17g}", int(v <= 1e-12)] for k, v in zip(ks, lhs)]
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

    from .corridor_math import admissible_min_k, k_of_c, m1, m2_horizon, maximize_m2, n_func

    cfg = _load_config(args.config)
    params = _market(args, cfg)
    policy = _policy(args, cfg)
    out = _out_dir(args, cfg)
    grid = _grid(args, cfg)
    c = _pick(args, "c", cfg, "c", None)
    horizon = _pick(args, "horizon", cfg, "horizon", 1, kind=int)

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
    admissible = _lhs_curve(params, policy, ks) <= 1e-12
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


def _pool_config(args, cfg, policy) -> PoolConfig:
    from .pool_simulator import PoolConfig

    sec = cfg.get("pool", {})
    ledger_path = _pick(args, "ledger", cfg, "ledger", None, kind=str)
    ledger = None
    if ledger_path is not None:
        ledger = _load_ledger(ledger_path)
    return PoolConfig(
        n=_pick(args, "n", sec, "n", 1, kind=int),
        gamma=_pick(args, "gamma", sec, "gamma", 1.0),
        pi_ind=_pick(args, "pi_ind", sec, "pi_ind", 0.0),
        T=_pick(args, "T", sec, "T", 1, kind=int),
        regime=_pick(args, "regime", sec, "regime", "AlwaysHelp", kind=str),
        policy=policy,
        index_source=ledger,
        v0_ind=_pick(args, "v0", sec, "v0_ind", 1.0),
        c0=_pick(args, "c0", sec, "c0", 0.0),
        h0=_pick(args, "h0", sec, "h0", 1.0),
    )


def cmd_simulate(args) -> int:
    from .market_model import sample_return_matrix
    from .pool_simulator import run_path, simulate

    cfg = _load_config(args.config)
    params = _market(args, cfg)
    policy = _policy(args, cfg)
    config = _pool_config(args, cfg, policy)
    out = _out_dir(args, cfg)
    seed = _seed(args, cfg)
    n_paths = _paths(args, cfg)

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

    cfg = _load_config(args.config)
    params = _market(args, cfg)
    policy = _policy(args, cfg)
    sec = cfg.get("fixed_point", {})
    theta = _pick(args, "theta", sec, "theta", 1.0)
    eta_raw = _pick(args, "eta", sec, "eta", "1", kind=None)
    if isinstance(eta_raw, str):
        eta_raw = [x for x in eta_raw.split(",") if x.strip()]
    if not isinstance(eta_raw, list):
        raise CliError(f"eta must be a comma-separated string or a list, got {eta_raw!r}")
    eta_vec = [_number(x, "eta") for x in eta_raw]
    if not eta_vec:
        raise CliError("eta list is empty")

    res = fixed_point_barriers(params, policy, eta_vec, theta, grid=_grid(args, cfg))
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
    cfg = _load_config(args.config)
    out = _out_dir(args, cfg)
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


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, help="RNG seed")
    sub.add_argument("--grid", type=int, help="grid resolution for scans")
    sub.add_argument("--paths", type=int, help="Monte Carlo path count")
    sub.add_argument("--mu", type=float, help="per-period log-drift")
    sub.add_argument("--sigma", type=float, help="per-period log-volatility")
    sub.add_argument("--k", type=float, help="lower boundary magnitude")
    sub.add_argument("--p", type=float, help="upper boundary asymmetry factor")
    sub.add_argument("--give-frac", dest="give_frac", type=float)
    sub.add_argument("--help-frac", dest="help_frac", type=float)
    sub.add_argument("--alpha", type=float, help="second-moment penalty weight")
    sub.add_argument("--j-discount", dest="j_discount", type=float,
                     help="index discount in the transfer-only objective")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corridor-pension",
        description="Corridor-smoothed collective pension toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("profitability", help="admissibility scan of the boundary")
    _add_common(sp)
    sp.set_defaults(fn=cmd_profitability)

    sp = subs.add_parser("optimize", help="objective curves and maximizer")
    _add_common(sp)
    sp.add_argument("--c", type=float, help="help cutoff for the gated objective")
    sp.add_argument("--horizon", type=int,
                    help="periods to retirement; the m2 curve and k_star compound over them")
    sp.set_defaults(fn=cmd_optimize)

    sp = subs.add_parser("simulate", help="Monte Carlo pool simulation")
    _add_common(sp)
    sp.add_argument("--n", type=int, help="number of individuals")
    sp.add_argument("--gamma", type=float, help="premium split to individuals")
    sp.add_argument("--pi-ind", dest="pi_ind", type=float, help="per-period premium")
    sp.add_argument("--T", type=int, help="horizon in periods")
    sp.add_argument("--regime", choices=["AlwaysHelp", "NoHelpIfInsufficient", "IndexCappedHelp"])
    sp.add_argument("--ledger", help="ledger JSON for IndexCappedHelp")
    sp.add_argument("--v0", type=float, help="initial individual value")
    sp.add_argument("--c0", type=float, help="initial collective value")
    sp.add_argument("--h0", type=float, help="initial fund price")
    sp.set_defaults(fn=cmd_simulate)

    sp = subs.add_parser("fixed-point", help="common-boundary fixed point")
    _add_common(sp)
    sp.add_argument("--theta", type=float, help="collective unit count")
    sp.add_argument("--eta", help="comma-separated individual unit counts")
    sp.set_defaults(fn=cmd_fixed_point)

    sp = subs.add_parser("settle", help="settle a claim batch")
    sp.add_argument("batch", help="JSON file with claims, indices, pool")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", help="output directory")
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
