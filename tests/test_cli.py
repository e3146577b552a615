import csv
import json
import math
import subprocess
import sys

import pytest

from corridor_pension import CorridorPolicy, GbmParams, Ledger, PoolConfig, cli, pool_simulator, simulate
from corridor_pension.market_model import sample_return_matrix
from corridor_pension.pool_simulator import FixedPointResult
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
    _, reports = _scalar_run_path(config, sample_return_matrix(GbmParams(0.045, 0.06), 6, 1, 11)[0])
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
                         ("settle", {"market": {"n": 2}})):
        path.write_text(json.dumps(bad))
        argv = [str(batch)] if command == "settle" else []
        code, out = run(capsys, command, *argv, "--config", str(path))
        assert (code, out) == (2, None), bad


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


def test_fixed_point_nonconvergence_exit(monkeypatch, capsys):
    # the handler binds fixed_point_barriers from pool_simulator when it runs
    monkeypatch.setattr(
        pool_simulator, "fixed_point_barriers",
        lambda *a, **kw: FixedPointResult(0.5, -0.1, 100, False, False),
    )
    code, out = run(capsys, "fixed-point", "--theta", "1", "--eta", "1")
    assert code == 1
    assert out["converged"] is False


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
    # NaN or infinite claims, and JSON booleans (which Python counts as ints)
    for claims in ([math.nan, 6], [True, "6"], [4, math.inf]):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"claims": claims, "indices": [0.5, 0.5], "pool": 10}))
        code, out = run(capsys, "settle", str(odd), "--out", str(tmp_path / "odd"))
        assert (code, out) == (2, None)
        assert not (tmp_path / "odd" / "settlement.csv").exists()
    # a batch that is no JSON object
    odd.write_text(json.dumps("claims indices pool"))
    code, out = run(capsys, "settle", str(odd), "--out", str(tmp_path / "odd"))
    assert (code, out) == (2, None)


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
    # non-finite values exit 2 and leave the ledger file unwritten
    code, _ = run(
        capsys, "index", "update", str(led), "--t", "0", "--c-pre", "0",
        "--contribution", "0=nan", "--contribution", "1=2",
    )
    assert code == 2
    assert not led.exists()
    code, _ = run(capsys, "index", "update", str(led), "--t", "0", "--c-pre", "0",
                  "--contribution", "0=5", "--mode", "monotone")
    assert code == 0
    before = led.read_bytes()
    for flags in (["--t", "nan", "--c-pre", "5"], ["--t", "1", "--c-pre", "inf"],
                  ["--t", "1", "--c-pre", "5", "--a", "0=nan"],
                  ["--t", "1", "--c-pre", "5", "--contribution", "0=-inf"]):
        code, _ = run(capsys, "index", "update", str(led), "--contribution", "1=2", *flags)
        assert code == 2, flags
        assert led.read_bytes() == before
    # a --mode that disagrees with the ledger file is refused, not ignored
    code, _ = run(capsys, "index", "update", str(led), "--mode", "proportional",
                  "--t", "1", "--c-pre", "5", "--contribution", "1=2")
    assert code == 2
    assert led.read_bytes() == before
    # ledger files of the wrong shape, and JSON booleans in an event
    bad = tmp_path / "bad_ledger.json"
    for raw in ([1, 2], {"events": [1]}, {"events": [{"t": 0, "C_pre": 0, "contributions": [1]}]},
                {"events": [{"t": 0, "C_pre": 0, "contributions": {"0": True}}]}):
        bad.write_text(json.dumps(raw))
        code, out = run(capsys, "index", "show", str(bad))
        assert (code, out) == (2, None), raw


def test_invalid_parameter_exit(capsys):
    code, _ = run(capsys, "profitability", "--sigma", "-0.5")
    assert code == 2
    code, _ = run(capsys, "fixed-point", "--eta", "")
    assert code == 2
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


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "corridor_pension.cli", "profitability",
         "--grid", "101", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["k_min"] == 0.0
