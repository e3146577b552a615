"""Tests of the benchmark itself: every check rejects a perturbed output, every workload runs.

  python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hostspeed
import run
import spans
import workloads as w
from worker import run_round, scipy_share


def one_run(wl, rounds=2):
    results, latencies = [], []
    for r in range(rounds):
        run_round(wl, r, results, latencies)
    assert not [res.error for res in results if res.error]
    return results


def rejects(wl, results, index, perturb, needle=""):
    """Perturb one output, or every output of a label, and return whether a check names the change."""
    changed = copy.deepcopy(results)
    picked = [i for i, r in enumerate(results) if r.label == index] if isinstance(index, str) else [index]
    for i in picked:
        changed[i] = replace(changed[i], value=perturb(changed[i].value))
    return any(needle in msg for _, msg in wl.check(changed))


def index_of(results, label, round_=0):
    return next(i for i, r in enumerate(results) if r.label == label and r.round == round_)


@pytest.fixture(scope="module")
def boundary():
    wl = w.BoundaryDesign(1, tiny=True)
    return wl, one_run(wl)


@pytest.fixture(scope="module")
def vectorized():
    wl = w.PoolVectorized(1, tiny=True)
    return wl, one_run(wl)


@pytest.fixture(scope="module")
def general():
    wl = w.PoolGeneral(1, tiny=True)
    return wl, one_run(wl)


@pytest.fixture(scope="module")
def session():
    wl = w.CliSession(1, tiny=True)
    wl.inprocess = True
    try:
        yield wl, one_run(wl, rounds=1)
    finally:
        wl.close()


def test_unperturbed_outputs_pass(boundary, vectorized, general):
    for wl, results in (boundary, vectorized, general):
        assert wl.check(results) == []


def with_study(**changes):
    return lambda st: replace(st, **changes)


def test_boundary_checks_reject(boundary):
    wl, res = boundary
    a2, tie, give = (index_of(res, s.label) for s in wl.scenarios)
    st = res[a2].value
    assert rejects(wl, res, a2, with_study(k_min=st.k_min + 0.01), "admissible by quadrature")
    assert rejects(wl, res, a2, with_study(horizon=replace(st.horizon, value=st.horizon.value + 1e-6)),
                   "quadrature")
    assert rejects(wl, res, a2, with_study(
        one_period=replace(st.one_period, value=st.one_period.value - 1e-6)), "T=1")
    assert rejects(wl, res, a2, with_study(horizon=replace(st.horizon, k_star=0.1255)), "0.1215")
    assert rejects(wl, res, a2, with_study(
        fixed_point=replace(st.fixed_point, cycle_flag=False)), "best response")
    assert rejects(wl, res, a2, with_study(
        fixed_point=replace(st.fixed_point, converged=False)), "converge")
    assert rejects(wl, res, a2, with_study(
        fixed_point=replace(st.fixed_point, c=st.fixed_point.c + 1e-9)), "threshold")
    t = res[tie].value
    assert rejects(wl, res, tie, with_study(one_period=replace(t.one_period, tie_flag=False)), "tie_flag")
    assert rejects(wl, res, tie, with_study(fixed_point=replace(t.fixed_point, cycle_flag=True)),
                   "cycle_flag")
    g = res[give].value
    assert g.k_min > 0
    assert rejects(wl, res, give, with_study(k_min=g.k_min - 0.005), "not admissible")
    assert rejects(wl, res, give, with_study(one_period=replace(g.one_period, k_star=g.k_min - 0.01)),
                   "not admissible")
    again = index_of(res, "acceptance2", 1)
    assert rejects(wl, res, again, with_study(k_min=0.5), "differs from round 0")


def test_pool_vectorized_checks_reject(vectorized):
    wl, res = vectorized
    always, nohelp = index_of(res, w.cp.ALWAYS_HELP), index_of(res, w.cp.NO_HELP_IF_INSUFFICIENT)
    up = res[always].value.mean_terminal_value
    # a biased engine shifts every operation, so the z-tests see all of them moved
    assert rejects(wl, res, w.cp.ALWAYS_HELP, lambda v: replace(
        v, mean_terminal_value=v.mean_terminal_value * 1.05), "mean_terminal_value")
    assert rejects(wl, res, w.cp.ALWAYS_HELP, lambda v: replace(
        v, realized_variation=v.realized_variation * 1.1), "realized_variation")
    assert rejects(wl, res, nohelp, lambda v: replace(v, mean_terminal_value=up * 1.001), "above")
    assert rejects(wl, res, nohelp, lambda v: replace(v, external_support=0.01), "external_support")


def test_pool_general_checks_reject(general):
    wl, res = general
    capped = index_of(res, "index_capped")
    assert rejects(wl, res, "heterogeneous", lambda v: replace(
        v, mean_terminal_value=v.mean_terminal_value * 2), "mean_terminal_value")
    assert rejects(wl, res, "heterogeneous", lambda v: replace(
        v, realized_variation=v.realized_variation * 2), "realized_variation")
    assert rejects(wl, res, capped, lambda v: replace(v, mean_terminal_value=v.mean_terminal_value * 1.5),
                   "above")
    assert rejects(wl, res, capped, lambda v: replace(v, external_support=0.01), "external_support")


def edit(**changes):
    def apply(out):
        out = dict(out)
        out.update(changes)
        return out

    return apply


def test_cli_checks_reject(session, tmp_path):
    wl, res = session
    errors = wl.check(res)
    assert {res[i].label for i, _ in errors} == {"simulate-ledger"}
    i = {label: index_of(res, label) for label in spans.CLI_OPS}
    out = {label: res[idx].value for label, idx in i.items()}

    assert rejects(wl, res, i["profitability"], edit(k_min=0.5), "admissible")
    flipped = [dict(sp, kind="min" if sp["kind"] == "max" else "max")
               for sp in out["profitability"]["stationary_points"]]
    if flipped:
        assert rejects(wl, res, i["profitability"], edit(stationary_points=flipped), "stationary")
    assert rejects(wl, res, i["profitability"], edit(stationary_points=[{"k": 0.9, "kind": "max"}]),
                   "stationary")
    csv_copy = tmp_path / "profitability.csv"
    lines = Path(out["profitability"]["csv"]).read_text().splitlines()
    k, lhs, adm = lines[1].split(",")
    lines[1] = ",".join([k, repr(float(lhs) + 1e-6), adm])
    csv_copy.write_text("\n".join(lines) + "\n")
    assert rejects(wl, res, i["profitability"], edit(csv=str(csv_copy)), "lhs")

    assert rejects(wl, res, i["optimize"], edit(value=out["optimize"]["value"] + 1e-6), "quadrature")
    assert rejects(wl, res, i["fixed-point"], edit(cycle_flag=not out["fixed-point"]["cycle_flag"]))
    assert rejects(wl, res, i["fixed-point"], edit(k_bar=out["fixed-point"]["k_bar"] + 0.05))
    assert rejects(wl, res, i["settle"], edit(allocations=["4", "6", "20", "35", "34"]), "settlement")
    assert rejects(wl, res, i["settle"], edit(rounds=2), "settlement")
    for label in ("index-update", "index-show"):
        shares = dict(out[label]["shares"], **{"0": out[label]["shares"]["0"] * (1 + 1e-6)})
        assert rejects(wl, res, i[label], edit(shares=shares), "share of 0")
    assert rejects(wl, res, i["index-update"], edit(events=3), "events")
    indices = dict(out["index-show"]["indices"], **{"7": out["index-show"]["indices"]["7"] + 1e-3})
    assert rejects(wl, res, i["index-show"], edit(indices=indices), "index of 7")
    audit = copy.deepcopy(out["index-check"])
    audit["mon"]["ok"] = False
    assert rejects(wl, res, i["index-check"], lambda _: audit, "checkers")
    assert rejects(wl, res, i["simulate"], edit(
        mean_terminal_value=out["simulate"]["mean_terminal_value"] * 1.05), "mean_terminal_value")


def test_cli_ledger_check_accepts_the_mended_output(session):
    """The kept failure is the program's: the library's integer-id result passes the same check."""
    wl, res = session
    idx = index_of(res, "simulate-ledger")
    assert any("NoHelpIfInsufficient" in m for m in wl.check_ledger_simulation(res[idx].value))
    cfg = w.cp.PoolConfig(regime=w.cp.INDEX_CAPPED_HELP, policy=w.cp.CorridorPolicy(k=0.05), c0=0.05,
                          index_source=wl.pool_ledger_int, **wl.capped_pool)
    mended = w.cp.simulate(cfg, wl.capped_market, 100, 3)
    fields = ("mean_terminal_value", "realized_variation", "shortfall_freq", "external_support")
    assert wl.check_ledger_simulation({f: getattr(mended, f) for f in fields}) == []


def test_scipy_share_takes_outermost_scipy_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |         50 |       unittest",
        "import time:        10 |         60 |     scipy.special._x",
        "import time:        40 |        200 |   scipy",
        "import time:        30 |        300 |   scipy.optimize",
        "import time:         5 |        505 | corridor_pension.corridor_math",
    ])
    assert scipy_share(log) == pytest.approx(500e-6)


def test_benchmark_json_names_every_metric():
    spec = json.loads((w.ROOT / "BENCHMARK.json").read_text())
    assert [wl["name"] for wl in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_runs_tiny(name):
    out = run.run_workload(name, seed=1, seconds=0, trace=0, tiny=True)
    assert out["correct"] is True
    if name == "cli_session":  # the named ledger fault fails once per round of subcommands
        assert out["failed"] * len(spans.CLI_OPS) == out["attempted"]
    else:
        assert out["failed"] == 0
    assert set(out["metrics"]) == {m for m, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in out["metrics"].values())
    record = json.loads((w.ROOT / "bench" / "results" / f"{name}-seed1-trace0.json").read_text())
    assert len(record["probes"]) == len(record["latencies"]) + 1  # a probe on each side of every operation


def test_times_scale_with_the_host_probe():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled([0.5], [ref, ref]) == [0.5]
    assert hostspeed.scaled([1.0], [2 * ref, 4 * ref]) == [pytest.approx(1 / 3)]  # a host 3x slower
    # operation 3 sits between probes 3 and 4; the median of probes 1-6 ignores the spike at 4
    probes = [ref, ref, 2 * ref, 2 * ref, 50 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert hostspeed.scaled([1.0] * 8, probes)[3] == 0.5
    with pytest.raises(ValueError):
        hostspeed.scaled([1.0, 1.0], [ref, ref])
    assert hostspeed.probe() > 0


def test_traced_run_reports_every_layer_metric():
    out = run.run_workload("cli_session", seed=1, seconds=0, trace=1, tiny=True)
    values = {m: v["value"] for m, v in out["metrics"].items()}
    assert list(values) == [m for m, _ in spans.PER_LAYER]
    assert out["correct"] is True
    for metric in ("redistribution_index.check_mon.self_s", "cli.index-check.s", "cli.import_s",
                   "cli.import_scipy_s", "corridor_math.profitability_lhs.calls"):
        assert values[metric] > 0, metric
    assert (w.ROOT / "bench" / "traces" / "cli_session.npz").is_file()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(w.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(w.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "traces", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "boundary_design", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
