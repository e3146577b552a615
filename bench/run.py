"""corridor-pension benchmark: run a workload, check its outputs, print its metrics.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py                    # every workload, untraced and traced

Run from the root of a source checkout; the package is imported from ./src.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, with --trace 1 one with the per-layer metrics; both carry
`correct`, `attempted` and `failed`.  Details of each run, with any check
failures, go to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import scaled
from spans import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("boundary_design", "pool_vectorized", "pool_general", "cli_session")
END_TO_END = [("setup_s", "s"), ("op_p50_s", "s"), ("ops_per_s", "op/s"), ("peak_rss_mb", "MB")]
# set-up is measured this many times in fresh interpreters, besides the measured run's own
SETUP_PROBES = 4
RUN_TIMEOUT_S = 170


def worker(*args: str, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_time(run: dict) -> float:
    return scaled([run["setup_raw_s"]], run["setup_probes"])[0]


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    common = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups = [setup_time(worker(*common, "--setup-only", timeout=60)) for _ in range(SETUP_PROBES)]
    run = worker(*common, "--seconds", str(seconds), "--trace", str(trace), timeout=RUN_TIMEOUT_S)
    setups.append(setup_time(run))
    if trace:
        values = run["per_layer"]
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER}
    else:
        # every time at the reference host speed: see hostspeed.py
        op_s = scaled(run["latencies"], run["probes"])
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(op_s),
            "ops_per_s": len(op_s) / sum(op_s),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    out = {k: run[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = metrics
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    detail = dict(run, setup_samples=setups, workload=name, seed=seed, seconds=seconds, result=out)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(detail, indent=1))
    for msg in run["errors"]:
        print(f"{name}: check failed: {msg}", file=sys.stderr)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, both modes)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "corridor_pension" / "__init__.py").is_file():
        print(f"error: no corridor_pension package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0

    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(name, args.seed, args.seconds, trace)
            summary[f"{name}/trace{trace}"] = res
            print(f"== {name} (trace {trace}): attempted {res['attempted']}, failed {res['failed']}, "
                  f"correct {res['correct']}")
            for metric, v in res["metrics"].items():
                print(f"   {metric:50s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
