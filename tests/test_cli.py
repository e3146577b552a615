import csv
import json
import math
import subprocess
import sys
import warnings
from dataclasses import asdict
from fractions import Fraction as F
from numbers import Rational

import numpy as np
import pytest

from corridor_pension import CorridorPolicy, GbmParams, Ledger, PoolConfig, cli, corridor_math, simulate
from corridor_pension.corridor_math import LHS_TOL, profitability_lhs
from corridor_pension.market_model import sample_return_matrix
from test_pool_simulator import _scalar_run_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_profitability(tmp_path, capsys):
    code, out = run(
        capsys, "profitability", "--mu", "0.045", "--sigma", "0.06",
        "--grid", "101", "--out", str(tmp_path),
    )
    assert code == 0
    assert out["k_min"] == 0.0
    rows = read_csv(tmp_path / "profitability.csv")
    assert len(rows) == 101
    assert set(rows[0]) == {"k", "lhs", "admissible"}
    assert rows[0]["admissible"] == "1"
    assert float(rows[0]["lhs"]) < 0


def test_profitability_pure_help_admissible_only_near_the_top(tmp_path, capsys):
    # pure help against a weak market costs the collective until the corridor
    # is so wide that nobody is helped; k = 1 always qualifies
    code, out = run(
        capsys, "profitability", "--mu", "-0.4", "--sigma", "0.01",
        "--give-frac", "0", "--help-frac", "1", "--grid", "101", "--out", str(tmp_path),
    )
    assert code == 0
    assert isinstance(out["k_min"], float) and 0.3 < out["k_min"] < 0.4
    rows = read_csv(tmp_path / "profitability.csv")
    assert rows[0]["admissible"] == "0" and rows[-1]["admissible"] == "1"


def test_lhs_columns_are_profitability_lhs(tmp_path, capsys):
    # both curve files take the LHS from the closed form over the grid of k
    argv = ("--mu", "-0.4", "--sigma", "0.01", "--give-frac", "0", "--help-frac", "1",
            "--grid", "101", "--out", str(tmp_path))
    lhs = profitability_lhs(GbmParams(-0.4, 0.01), CorridorPolicy(give_frac=0.0, help_frac=1.0),
                            np.linspace(0.0, 1.0, 101))
    assert run(capsys, "profitability", *argv)[0] == 0
    assert run(capsys, "optimize", *argv)[0] == 0
    rows = read_csv(tmp_path / "profitability.csv")
    assert [r["lhs"] for r in rows] == [f"{v:.17g}" for v in lhs]
    admissible = [str(int(v <= LHS_TOL)) for v in lhs]
    assert set(admissible) == {"0", "1"}
    assert [r["admissible"] for r in read_csv(tmp_path / "optimize_curves.csv")] == admissible


def test_optimize_tie_anchor(tmp_path, capsys):
    code, out = run(
        capsys, "optimize", "--mu", "0.06", "--sigma", "0.092367", "--alpha", "2",
        "--grid", "501", "--out", str(tmp_path),
    )
    assert code == 0
    assert out["tie_flag"] is False
    assert len(out["candidates"]) == 2
    assert out["k_star"] == pytest.approx(0.198226, abs=1e-4)
    rows = read_csv(tmp_path / "optimize_curves.csv")
    assert set(rows[0]) == {"k", "m1", "m2", "admissible"}
    assert len(rows) == 501
    assert (tmp_path / "optimize.json").exists()


def test_optimize_horizon(tmp_path, capsys):
    # acceptance 2: compounded over 20 periods to retirement the maximizer is interior
    code, out = run(
        capsys, "optimize", "--mu", "0.045", "--sigma", "0.06", "--alpha", "4",
        "--horizon", "20", "--out", str(tmp_path),
    )
    assert code == 0
    assert out["k_star"] == pytest.approx(0.1215, abs=2e-3)
    # the m2 column is the compounded objective that k_star maximizes
    rows = read_csv(tmp_path / "optimize_curves.csv")
    best = max(rows, key=lambda r: float(r["m2"]))
    assert float(best["k"]) == pytest.approx(out["k_star"], abs=1e-3)
    # the default horizon is one period, where k_star = 0
    code, one = run(capsys, "optimize", "--mu", "0.045", "--sigma", "0.06", "--alpha", "4",
                    "--out", str(tmp_path))
    assert code == 0 and one["k_star"] == 0.0
    code, _ = run(capsys, "optimize", "--horizon", "0", "--out", str(tmp_path))
    assert code == 2


def test_optimize_with_cutoff_column(tmp_path, capsys):
    code, out = run(
        capsys, "optimize", "--mu", "0.045", "--sigma", "0.06", "--alpha", "4",
        "--c", "-0.2", "--grid", "201", "--out", str(tmp_path),
    )
    assert code == 0
    assert "k_of_c" in out and out["k_of_c"]["c"] == -0.2
    rows = read_csv(tmp_path / "optimize_curves.csv")
    assert "n_gated" in rows[0]


def test_simulate(tmp_path, capsys):
    code, out = run(
        capsys, "simulate", "--mu", "0.045", "--sigma", "0.06", "--k", "0.08",
        "--n", "4", "--gamma", "0.9", "--pi-ind", "0.05", "--T", "6",
        "--paths", "200", "--seed", "11", "--out", str(tmp_path),
    )
    assert code == 0
    assert out["n_paths"] == 200
    rows = read_csv(tmp_path / "steps.csv")
    assert len(rows) == 4 * 6
    assert list(rows[0]) == [
        "t", "owner_id", "V", "eta", "transfer_units", "transfer_value",
        "help_granted", "z_star", "theta", "C",
    ]
    # the log of sampled path 0, as the scalar oracle steps it
    config = PoolConfig(n=4, gamma=0.9, pi_ind=0.05, T=6, regime="AlwaysHelp",
                        policy=CorridorPolicy(k=0.08))
    reports = _scalar_run_path(config, sample_return_matrix(GbmParams(0.045, 0.06), 6, 1, 11)[0])
    want = [
        {name: str(int(value)) if name == "help_granted" else
         str(value) if name in ("t", "owner_id") else f"{value:.12g}"
         for name, value in r.items()}
        for rep in reports for r in rep.rows
    ]
    assert rows == want
    # deterministic rerun
    code2, out2 = run(
        capsys, "simulate", "--mu", "0.045", "--sigma", "0.06", "--k", "0.08",
        "--n", "4", "--gamma", "0.9", "--pi-ind", "0.05", "--T", "6",
        "--paths", "200", "--seed", "11", "--out", str(tmp_path),
    )
    assert out2["mean_terminal_value"] == out["mean_terminal_value"]


def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys):
    # numpy's "expected non-negative integer" named no input
    out_dir = tmp_path / "refused"
    assert cli.main(["simulate", "--seed", "-1", "--paths", "10", "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: seed must be an integer >= 0\n")
    assert not out_dir.exists()


def test_simulate_zero_initial_value(tmp_path, capsys):
    # a member holding nothing adds 0 to the realized variation, not NaN
    code, out = run(capsys, "simulate", "--v0", "0", "--n", "2", "--T", "3", "--paths", "10",
                    "--out", str(tmp_path))
    assert code == 0
    assert all(math.isfinite(v) for v in out.values() if isinstance(v, float))


def test_simulate_index_capped_from_json_ledger(tmp_path, capsys):
    # the ledger written by `index update` holds string ids "0".."3"
    led = tmp_path / "led.json"
    python_ledger = Ledger(mode="proportional")
    c_pre = 0.0
    for t in range(6):
        contrib = {j: 1.0 + j + 0.25 * t for j in range(4)}
        code, _ = run(capsys, "index", "update", str(led), "--mode", "proportional",
                      "--t", str(t), "--c-pre", repr(c_pre),
                      *[f"--contribution={j}={v!r}" for j, v in contrib.items()])
        assert code == 0
        python_ledger.record(t, contrib, c_pre)
        c_pre = 1.1 * (c_pre + sum(contrib.values()))
    pool = ["--mu", "0.045", "--sigma", "0.15", "--k", "0.05", "--n", "4", "--gamma", "0.8",
            "--pi-ind", "0.1", "--T", "6", "--c0", "0.05", "--paths", "300", "--seed", "3",
            "--out", str(tmp_path)]
    code, capped = run(capsys, "simulate", *pool, "--regime", "IndexCappedHelp",
                       "--ledger", str(led))
    assert code == 0
    code, strict = run(capsys, "simulate", *pool, "--regime", "NoHelpIfInsufficient")
    assert code == 0
    assert capped["shortfall_freq"] > 0
    assert capped["mean_terminal_value"] != strict["mean_terminal_value"]
    # the same ledger built in Python with integer ids gives the same run
    want = simulate(
        PoolConfig(n=4, gamma=0.8, pi_ind=0.1, T=6, regime="IndexCappedHelp",
                   policy=CorridorPolicy(k=0.05), c0=0.05, index_source=python_ledger),
        GbmParams(0.045, 0.15), 300, 3,
    )
    for field in ("mean_terminal_value", "penalized_objective", "realized_variation",
                  "shortfall_freq", "external_support"):
        assert capped[field] == pytest.approx(getattr(want, field), rel=1e-12), field


def test_simulate_refuses_a_ledger_outside_index_capped_help(tmp_path, capsys):
    led = tmp_path / "led.json"
    code, _ = run(capsys, "index", "update", str(led), "--mode", "proportional",
                  "--t", "0", "--c-pre", "0", "--contribution", "0=1")
    assert code == 0
    for regime in ("AlwaysHelp", "NoHelpIfInsufficient"):
        out_dir = tmp_path / regime
        code = cli.main(["simulate", "--regime", regime, "--ledger", str(led),
                         "--n", "2", "--T", "3", "--paths", "10", "--out", str(out_dir)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), regime
        assert "index_source" in err and not out_dir.exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {
        "market": {"mu": 0.045, "sigma": 0.06},
        "policy": {"k": 0.3, "alpha": 4.0},
        "grid": 101,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _, base = run(capsys, "profitability", "--config", str(path), "--out", str(tmp_path))
    # flag beats config
    _, over = run(
        capsys, "profitability", "--config", str(path), "--sigma", "0.2",
        "--out", str(tmp_path),
    )
    assert base["k_min"] != over["k_min"] or base["stationary_points"] != over["stationary_points"]
    # one file serves every subcommand: keys another subcommand reads are accepted
    others = {"paths": 10, "pool": {"n": 3}, "fixed_point": {"eta": "1,1"}}
    path.write_text(json.dumps({**cfg, **others}))
    _, shared = run(capsys, "profitability", "--config", str(path), "--out", str(tmp_path))
    assert shared == base
    # a section that is no object, a value of the wrong JSON type, a boolean for a
    # number, and a section or key that no subcommand reads
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({"claims": [1], "indices": [1], "pool": 2}))
    for command, bad in (("profitability", {"market": "mu"}),
                         ("fixed-point", {"fixed_point": {"eta": 3}}),
                         ("profitability", {"market": {"mu": True}}),
                         ("profitability", {"grid": [101]}),
                         ("profitability", {"policy": {"alfa": 4}}),
                         ("optimize", {"horizn": 20}),
                         ("simulate", {"markets": {"mu": 0.01}}),
                         ("settle", {"market": {"n": 2}}),
                         # a root that is no object, and a pool with no members
                         ("profitability", [cfg]),
                         ("fixed-point", {"fixed_point": {"eta": []}})):
        path.write_text(json.dumps(bad))
        argv = [str(batch)] if command == "settle" else []
        code, out = run(capsys, command, *argv, "--config", str(path))
        assert (code, out) == (2, None), bad
    code, out = run(capsys, "profitability", "--config", str(tmp_path / "missing.json"))
    assert (code, out) == (2, None)


def test_config_integer_settings_refuse_fractions(tmp_path, capsys):
    # an integer setting from a config file is a whole number: 2.0 is 2, while
    # 2.5 and inf are invalid input, not truncated to 2 or an overflow
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pool": {"T": 2.0, "n": 3.0}, "paths": 10.0}))
    code, out = run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
    assert code == 0 and out["n_paths"] == 10
    assert len(read_csv(tmp_path / "steps.csv")) == 6
    path.write_text(json.dumps({"grid": 101.0}))
    assert run(capsys, "profitability", "--config", str(path), "--out", str(tmp_path))[0] == 0
    assert len(read_csv(tmp_path / "profitability.csv")) == 101
    for command, bad in (("simulate", {"pool": {"T": 2.5, "n": 3.7}}),
                         ("simulate", {"pool": {"n": 3.7}}),
                         ("profitability", {"grid": 150.9}),
                         ("profitability", {"grid": math.inf}),
                         ("optimize", {"horizon": 20.5})):
        out_dir = tmp_path / "refused"
        path.write_text(json.dumps(bad))
        code, out = run(capsys, command, "--config", str(path), "--out", str(out_dir))
        assert (code, out) == (2, None), bad
        assert not out_dir.exists(), bad


def test_grid_below_100_exits_2_for_every_subcommand_that_reads_it(tmp_path, capsys):
    # --grid is one setting, with the rule of the searches: profitability
    # refuses what optimize and fixed-point refuse, before it writes a file
    for command in ("profitability", "optimize", "fixed-point"):
        for grid in ("-3", "0", "99"):
            out_dir = tmp_path / "refused"
            argv = [command, "--grid", grid] + (["--out", str(out_dir)] * (command != "fixed-point"))
            assert cli.main(argv) == 2, (command, grid)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: grid must be an integer >= 100\n", (command, grid)
            assert not out_dir.exists(), (command, grid)
    code, out = run(capsys, "profitability", "--grid", "100", "--out", str(tmp_path))
    assert code == 0 and len(read_csv(tmp_path / "profitability.csv")) == 100


@pytest.mark.parametrize("mu", ["800", "-800"])
def test_simulate_refuses_a_market_that_leaves_the_floats(tmp_path, capsys, mu):
    # it exited 2 only as z_star refused run_path's NaN units, with a message
    # about the pool state; simulate.json and steps.csv would have held NaN
    out_dir = tmp_path / "refused"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main(["simulate", f"--mu={mu}", "--sigma", "0.1", "--paths", "10", "--T", "2",
                         "--n", "2", "--k", "0.1", "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: the fund price or the accounts left the floats")
    assert not out_dir.exists()


@pytest.mark.parametrize("command, flag", [
    ("profitability", "--seed"), ("profitability", "--paths"), ("profitability", "--j-discount"),
    ("optimize", "--seed"), ("optimize", "--paths"),
    ("simulate", "--grid"), ("simulate", "--j-discount"),
    ("fixed-point", "--out"), ("fixed-point", "--seed"), ("fixed-point", "--paths"),
    ("fixed-point", "--j-discount"),
])
def test_flags_a_subcommand_does_not_read_exit_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, "0"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err


def test_fixed_point(capsys):
    code, out = run(
        capsys, "fixed-point", "--mu", "0.045", "--sigma", "0.06", "--k", "0.05",
        "--theta", "2", "--eta", "1,1,1,1,1", "--grid", "301",
    )
    assert code == 0
    assert out["converged"] is True
    assert -1.0 <= out["c"] <= 0.0


def test_each_subcommand_gives_the_same_bytes_twice_in_one_process(tmp_path, capsys):
    # the boundary-search memo outlives a call of cli.main; a second run of
    # each subcommand in the same process writes the same stdout, CSV and JSON
    market = ["--mu", "0.045", "--sigma", "0.12", "--alpha", "2.5"]
    commands = (
        ["optimize", *market, "--horizon", "20", "--c", "-0.2", "--out", str(tmp_path / "o")],
        ["fixed-point", *market, "--theta", "0.2", "--eta", ",".join(["1"] * 10)],
        ["profitability", *market, "--out", str(tmp_path / "p")],
    )
    runs = []
    for _ in range(2):
        outputs = []
        for argv in commands:
            code = cli.main(argv)
            files = {f.name: f.read_bytes() for f in sorted(tmp_path.glob("*/*"))}
            for f in tmp_path.glob("*/*"):
                f.unlink()
            outputs.append((code, capsys.readouterr().out, files))
        runs.append(outputs)
    assert runs[0] == runs[1]
    assert [sorted(files) for _, _, files in runs[0]] == [
        ["optimize.json", "optimize_curves.csv"], [], ["profitability.csv"]]
    assert json.loads(runs[0][1][1])["cycle_flag"] is True


def test_fixed_point_nonconvergence_exit(monkeypatch, capsys):
    # this pool converges in 2 iterations; capped at 1, the search gives up
    monkeypatch.setattr(corridor_math, "_FIXED_POINT_MAX_ITER", 1)
    res = corridor_math.fixed_point_barriers(
        GbmParams(0.045, 0.06), CorridorPolicy(k=0.05), [1.0] * 5, 2.0, grid=301
    )
    assert res.converged is False and res.iterations == 1
    code, out = run(
        capsys, "fixed-point", "--mu", "0.045", "--sigma", "0.06", "--k", "0.05",
        "--theta", "2", "--eta", "1,1,1,1,1", "--grid", "301",
    )
    assert code == 1
    assert out == asdict(res)


def test_settle(tmp_path, capsys):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(
        {"claims": [4, 6, 20, 35, 50], "indices": [0.1, 0.2, 0.3, 0.2, 0.2], "pool": 100}
    ))
    code, out = run(capsys, "settle", str(batch), "--out", str(tmp_path))
    assert code == 0
    assert [round(a, 9) for a in out["allocations"]] == [4, 6, 20, 35, 35]
    assert out["rounds"] == 3
    rows = read_csv(tmp_path / "settlement.csv")
    assert len(rows) == 5
    # the README's batch of exact strings settles in Fractions, printed as strings
    batch.write_text(json.dumps(
        {"claims": ["4", "6", "20", "35", "80"], "indices": ["1/5"] * 5, "pool": "100"}
    ))
    code, out = run(capsys, "settle", str(batch), "--out", str(tmp_path))
    assert code == 0
    assert out["allocations"] == ["4", "6", "20", "35", "35"]
    assert (out["remaining"], out["rounds"]) == ("0", 3)
    assert [r["allocation"] for r in read_csv(tmp_path / "settlement.csv")] == out["allocations"]


def test_settle_bad_inputs(tmp_path, capsys):
    code, _ = run(capsys, "settle", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"claims": [1]}))
    code, _ = run(capsys, "settle", str(bad))
    assert code == 2
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps({"claims": [-1], "indices": [1.0], "pool": 10}))
    code, _ = run(capsys, "settle", str(neg))
    assert code == 2
    # NaN or infinite claims, JSON booleans (which Python counts as ints), and
    # strings that are no exact number
    for claims in ([math.nan, 6], [True, "6"], [4, math.inf], ["1/0", 6], ["four", 6]):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"claims": claims, "indices": [0.5, 0.5], "pool": 10}))
        code, out = run(capsys, "settle", str(odd), "--out", str(tmp_path / "odd"))
        assert (code, out) == (2, None)
        assert not (tmp_path / "odd" / "settlement.csv").exists()
    # a batch that is no JSON object
    odd.write_text(json.dumps("claims indices pool"))
    code, out = run(capsys, "settle", str(odd), "--out", str(tmp_path / "odd"))
    assert (code, out) == (2, None)
    # claims that are no list
    odd.write_text(json.dumps({"claims": "12", "indices": [1], "pool": 5}))
    capsys.readouterr()
    assert cli.main(["settle", str(odd), "--out", str(tmp_path / "odd")]) == 2
    assert "error: claims and indices must be lists" in capsys.readouterr().err


def test_index_update_show_check(tmp_path, capsys):
    led = tmp_path / "led.json"
    code, out = run(
        capsys, "index", "update", str(led), "--mode", "proportional",
        "--t", "1", "--c-pre", "0", "--contribution", "1=100",
    )
    assert code == 0
    assert out["events"] == 1
    code, out = run(
        capsys, "index", "update", str(led), "--t", "2", "--c-pre", "75",
        "--contribution", "2=80",
    )
    assert code == 0
    assert out["shares"]["2"] == pytest.approx(80 / 155)

    code, out = run(capsys, "index", "show", str(led))
    assert code == 0
    assert out["indices"]["2"] == pytest.approx(320 / 3)

    code, out = run(capsys, "index", "check", str(led), "--new-id", "9", "--amount", "10")
    assert code == 0
    assert out["cont"]["ok"] is True
    assert out["mon"]["ok"] is False
    assert out["mon"]["witness"] == [2, ["1", "2"]]
    assert out["add"]["ok"] is True


def test_index_update_prints_the_float_shares_of_an_exact_ledger(tmp_path, capsys):
    # a revaluation keeps a Fraction ledger's shares exact; update printed them
    # as strings ("15/31"), show as numbers
    led = tmp_path / "led.json"
    ledger = Ledger()
    ledger.record(F(1), {"1": F(15), "2": F(16)}, F(0))
    led.write_text(ledger.to_json())
    code, out = run(capsys, "index", "update", str(led), "--t", "2", "--c-pre", "40")
    assert (code, out) == (0, {"shares": {"1": 15 / 31, "2": 16 / 31}, "events": 2})
    assert run(capsys, "index", "show", str(led))[1]["shares"] == out["shares"]


@pytest.mark.parametrize("mode, flags, a", [
    ("proportional", [], None),
    ("monotone", ["--a", "1=0.1", "--a", "3=1/3"], {"1": F(1, 10), "3": F(1, 3)}),
])
def test_index_update_keeps_an_exact_ledger_exact(mode, flags, a, tmp_path, capsys):
    # the flags were read as floats, so the file held 2.0, 62.0 and 31.0 after
    # this update and every later share was a float
    led = tmp_path / "led.json"
    ledger = Ledger(mode=mode)
    ledger.record(F(1), {"1": F(15), "2": F(16)}, F(0))
    led.write_text(ledger.to_json())
    code, out = run(capsys, "index", "update", str(led), "--t", "2", "--c-pre", "62",
                    "--contribution", "3=31", *flags)
    assert code == 0
    ledger.record(F(2), {"3": F(31)}, F(62), a=a)
    updated = Ledger.from_json(led.read_text())
    ev = updated.events[-1]
    numbers = [ev.t, ev.c_pre, *ev.contributions.values(), *ev.indices_after.values(),
               *ev.shares_after.values(), *(ev.a or {}).values()]
    assert all(isinstance(x, Rational) for x in numbers), numbers  # an unnamed member's a is 0
    assert updated.shares == ledger.shares
    assert led.read_text() == ledger.to_json()
    assert out["shares"] == {j: float(s) for j, s in ledger.shares.items()}


def test_an_exact_index_past_the_floats_exits_2_on_show(tmp_path, capsys):
    # the exact update a float ledger refuses as an overflow is recorded, but
    # its index has no float to print: show raised OverflowError, a traceback
    led = tmp_path / "led.json"
    ledger = Ledger()
    ledger.record(F(0), {"1": F(100)}, F(0))
    led.write_text(ledger.to_json())
    code, out = run(capsys, "index", "update", str(led), "--t", "1", "--c-pre", "1e-300",
                    "--contribution", "2=1e300")
    assert (code, out) == (0, {"shares": {"1": 0.0, "2": 1.0}, "events": 2})
    assert cli.main(["index", "show", str(led)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "float" in captured.err


def test_a_value_that_is_no_number_names_its_setting(tmp_path, capsys):
    # the message was Python's own "could not convert string to float: 'x'"
    cfg = tmp_path / "cfg.json"
    for argv, config, message in (
        (["fixed-point", "--eta", "1,x"], None, "bad value 'x' for eta"),
        (["profitability"], {"market": {"mu": "abc"}}, "bad value 'abc' for mu"),
        (["simulate"], {"seed": "7.5"}, "bad value '7.5' for seed"),
    ):
        if config is not None:
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg), "--out", str(tmp_path / "refused")]
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv
    assert not (tmp_path / "refused").exists()


def test_index_check_add_needs_both_flags(tmp_path, capsys):
    led = tmp_path / "led.json"
    code, _ = run(capsys, "index", "update", str(led), "--mode", "proportional",
                  "--t", "1", "--c-pre", "0", "--contribution", "1=100")
    assert code == 0
    # one of the pair used to skip the add check and exit 0
    for flags in (["--new-id", "9"], ["--amount", "10"]):
        assert cli.main(["index", "check", str(led), *flags]) == 2, flags
        out, err = capsys.readouterr()
        assert out == "" and "--new-id" in err and "--amount" in err
    code, out = run(capsys, "index", "check", str(led))
    assert code == 0 and out["add"]["ok"] is None
    # --join-event places the add check's contributor, so alone it would be ignored
    assert cli.main(["index", "check", str(led), "--join-event", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--join-event" in err
    code, out = run(capsys, "index", "check", str(led), "--new-id", "9", "--amount", "10",
                    "--join-event", "0")
    assert code == 0 and out["add"]["ok"] is True


@pytest.mark.parametrize("verb, flags", [
    ("show", ["--new-id", "9", "--amount", "3", "--t", "7", "--contribution", "1=2"]),
    ("show", ["--mode", "monotone"]),
    ("check", ["--t", "7"]),
    ("check", ["--contribution", "1=2"]),
    ("update", ["--new-id", "9"]),
    ("update", ["--join-event", "0"]),
])
def test_index_verbs_refuse_flags_they_do_not_read(verb, flags, tmp_path, capsys):
    led = tmp_path / "led.json"
    code, _ = run(capsys, "index", "update", str(led), "--mode", "proportional",
                  "--t", "1", "--c-pre", "0", "--contribution", "1=100")
    assert code == 0
    before = led.read_bytes()
    with pytest.raises(SystemExit) as exc:
        cli.main(["index", verb, str(led), *flags])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flags[0]}" in err
    assert led.read_bytes() == before


def test_index_errors(tmp_path, capsys):
    led = tmp_path / "led.json"
    # update without required fields
    code, _ = run(capsys, "index", "update", str(led), "--t", "1")
    assert code == 2
    # first event needs a contribution
    code, _ = run(capsys, "index", "update", str(led), "--t", "1", "--c-pre", "0")
    assert code == 2
    # check on a missing ledger
    code, _ = run(capsys, "index", "check", str(led))
    assert code == 2
    # malformed contribution
    code, _ = run(
        capsys, "index", "update", str(led), "--t", "1", "--c-pre", "0",
        "--contribution", "oops",
    )
    assert code == 2
    # non-finite values, and a member ID given twice, exit 2 and leave the ledger file unwritten
    for first, second in (("0=nan", "1=2"), ("1=2", "1=3")):
        code, _ = run(
            capsys, "index", "update", str(led), "--t", "0", "--c-pre", "0",
            "--contribution", first, "--contribution", second,
        )
        assert code == 2, (first, second)
        assert not led.exists()
    code, _ = run(capsys, "index", "update", str(led), "--t", "0", "--c-pre", "0",
                  "--contribution", "0=5", "--mode", "monotone")
    assert code == 0
    before = led.read_bytes()
    for flags in (["--t", "nan", "--c-pre", "5"], ["--t", "1", "--c-pre", "inf"],
                  ["--t", "1", "--c-pre", "5", "--a", "0=nan"],
                  ["--t", "1", "--c-pre", "5", "--contribution", "0=-inf"],
                  # a member ID that is empty
                  ["--t", "1", "--c-pre", "5", "--contribution", "=5"],
                  ["--t", "1", "--c-pre", "5", "--a", "=0.1"],
                  # an amount that is no number, and an event without --t or --c-pre
                  ["--t", "1", "--c-pre", "5", "--contribution", "0=abc"],
                  ["--c-pre", "5"], ["--t", "1"],
                  # a member ID given twice: the first amount used to be dropped
                  ["--t", "1", "--c-pre", "5", "--contribution", "1=3"],
                  ["--t", "1", "--c-pre", "5", "--a", "0=0.1", "--a", "0=0.2"]):
        code, _ = run(capsys, "index", "update", str(led), "--contribution", "1=2", *flags)
        assert code == 2, flags
        assert led.read_bytes() == before
    # a --mode that disagrees with the ledger file is refused, not ignored
    code, _ = run(capsys, "index", "update", str(led), "--mode", "proportional",
                  "--t", "1", "--c-pre", "5", "--contribution", "1=2")
    assert code == 2
    assert led.read_bytes() == before
    # ledger files of the wrong shape, JSON booleans in an event, a ledger with no events,
    # an exact string with a zero denominator and an event without "t"
    bad = tmp_path / "bad_ledger.json"
    for raw in ([1, 2], {"events": [1]}, {"events": [{"t": 0, "C_pre": 0, "contributions": [1]}]},
                {"events": [{"t": 0, "C_pre": 0, "contributions": {"0": True}}]},
                {"mode": "proportional", "events": []},
                {"events": [{"t": "1/0", "C_pre": 0, "contributions": {"0": 1}}]},
                {"events": [{"C_pre": 0, "contributions": {"0": 1}}]}):
        bad.write_text(json.dumps(raw))
        code, out = run(capsys, "index", "show", str(bad))
        assert (code, out) == (2, None), raw


def test_index_event_that_overflows_exits_2(tmp_path, capsys):
    # finite flags whose proportional index overflows to inf: exit 2 with no
    # output and the ledger file unwritten, for update and for show
    led = tmp_path / "led.json"
    code, _ = run(capsys, "index", "update", str(led), "--t", "0", "--c-pre", "0", "--contribution", "1=100")
    assert code == 0
    before = led.read_bytes()
    code, out = run(capsys, "index", "update", str(led), "--t", "1", "--c-pre", "1e-300",
                    "--contribution", "2=1e300")
    assert (code, out) == (2, None)
    assert led.read_bytes() == before
    raw = json.loads(before)
    raw["events"].append({"t": 1, "C_pre": 1e-300, "contributions": {"2": 1e300}})
    led.write_text(json.dumps(raw))
    code, out = run(capsys, "index", "show", str(led))
    assert (code, out) == (2, None)


def test_invalid_parameter_exit(capsys):
    code, _ = run(capsys, "profitability", "--sigma", "-0.5")
    assert code == 2
    code, _ = run(capsys, "fixed-point", "--eta", "")
    assert code == 2
    # an empty entry is a bad number, not a pool of one member fewer
    for eta in ("1,,1", "1,1,", ",1"):
        code, out = run(capsys, "fixed-point", "--eta", eta, "--grid", "101")
        assert (code, out) == (2, None), eta
    # NaN fails numeric validation: exit 2, not a NaN summary or a traceback
    for argv in (["simulate", "--pi-ind", "nan", "--paths", "10"],
                 ["simulate", "--v0", "nan", "--paths", "10"],
                 ["simulate", "--c0", "nan", "--paths", "10"],
                 ["simulate", "--h0", "nan", "--paths", "10"],
                 ["fixed-point", "--theta", "nan", "--grid", "101"],
                 ["fixed-point", "--eta", "1,nan", "--grid", "101"],
                 ["optimize", "--alpha", "nan", "--grid", "101"],
                 ["optimize", "--p", "nan", "--grid", "101"]):
        code, _ = run(capsys, *argv)
        assert code == 2, argv


def test_a_market_whose_moment_overflows_exits_2_without_output(tmp_path, capsys):
    # E[Y^2] overflows a float at sigma 30 and E[Y] at sigma 40: invalid input, not a traceback
    for argv in (["optimize", "--mu", "0", "--sigma", "30"],
                 ["optimize", "--mu", "0", "--sigma", "30", "--c", "-0.2", "--horizon", "20"],
                 ["profitability", "--mu", "0", "--sigma", "40"]):
        out = tmp_path / argv[0]
        code, printed = run(capsys, *argv, "--grid", "101", "--out", str(out))
        assert (code, printed, out.exists()) == (2, None, False), argv
    code = cli.main(["fixed-point", "--mu", "0", "--sigma", "30", "--grid", "101"])
    printed = capsys.readouterr()
    assert (code, printed.out) == (2, "")
    assert "overflows a float for GbmParams(mu=0.0, sigma=30.0)" in printed.err


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "corridor_pension.cli", "profitability",
         "--grid", "101", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["k_min"] == 0.0
