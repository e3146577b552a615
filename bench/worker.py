"""One workload run in a fresh interpreter; prints one JSON line for run.py.

  python3 bench/worker.py --workload W --seed N --setup-only
  python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1

Set-up time runs from the first line after the host-speed probe: it covers
importing corridor_pension (with numpy and scipy) and building the workload's
inputs. The untraced run probes the host's speed after every operation (see
hostspeed.py); the traced run does not.
"""

from time import perf_counter

from hostspeed import probe

PROBE0 = probe()
T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from spans import CLI_OPS, Tracer  # noqa: E402

TRACE_DIR = workloads.ROOT / "bench" / "traces"
IMPORT_PROBES = 3


def run_round(wl, r, results, latencies, tracer=None, probes=None):
    """One round of operations; with `probes`, the host's speed is probed after each."""
    for label, fn in wl.ops(r):
        t0 = perf_counter()
        try:
            if tracer is None:
                value = fn()
            else:
                with tracer.span(f"op.{label}"):
                    value = fn()
            results.append(workloads.Result(label, r, value))
        except Exception as exc:  # an operation that raises is a failed operation
            results.append(workloads.Result(label, r, error=f"{type(exc).__name__}: {exc}"))
        latencies.append(perf_counter() - t0)
        if probes is not None:
            probes.append(probe())


def run_rounds(wl, seconds, results, latencies, tracer=None, probes=None) -> tuple[int, float]:
    """Whole rounds until `seconds` have passed (at least one); returns (rounds, elapsed)."""
    start, r = perf_counter(), 0
    while True:
        run_round(wl, r, results, latencies, tracer, probes)
        r += 1
        if perf_counter() - start >= seconds:
            return r, perf_counter() - start


def verdict(wl, results) -> dict:
    errors = wl.check(results)
    failed = {i for i, _ in errors if i is not None}
    unexpected = [m for i, m in errors if i is None or results[i].label not in wl.known_faults]
    return {
        "attempted": len(results),
        "failed": len(failed),
        "correct": not unexpected,
        "errors": sorted({m for _, m in errors}),
    }


def scipy_share(importtime_log: str) -> float:
    """Cumulative seconds of the outermost scipy imports in a `-X importtime` log."""
    rows = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total, stack = 0, []  # the log lists children before parents; walk it backwards
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += cumulative
        stack.append((depth, inside or is_scipy))
    return total / 1e6


def import_metrics() -> dict:
    """Fresh-interpreter import of corridor_pension.cli, and scipy's share of it."""
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    code = "import time; t = time.perf_counter(); import corridor_pension.cli; print(time.perf_counter() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=60).stdout)
        for _ in range(IMPORT_PROBES)
    ]
    log = subprocess.run([sys.executable, "-X", "importtime", "-c", "import corridor_pension.cli"],
                         env=env, capture_output=True, text=True, check=True, timeout=60).stderr
    return {"cli.import_s": statistics.median(times), "cli.import_scipy_s": scipy_share(log)}


def traced_run(wl, args, results) -> dict:
    """Untraced reference round, then traced whole rounds; returns the per-layer metrics."""
    metrics = {f"cli.{op}.s": 0.0 for op in CLI_OPS}
    if isinstance(wl, workloads.CliSession):
        lat: list[float] = []
        run_round(wl, 0, results, lat)  # as subprocesses, the way a shell session runs them
        metrics.update({f"cli.{res.label}.s": t for res, t in zip(results, lat)})
        wl.inprocess = True  # spans need cli.main in this process
    plain: list[float] = []
    run_round(wl, 0, results, plain)
    tracer, traced = Tracer(), []
    tracer.install()
    try:
        rounds, _ = run_rounds(wl, args.seconds, results, traced, tracer)
    finally:
        tracer.uninstall()
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    tracer.save(TRACE_DIR / f"{wl.name}.npz")
    metrics.update(tracer.layer_metrics(rounds))
    # overhead: the first traced round repeats the untraced one operation for operation
    extra = sum(traced[: len(plain)]) - sum(plain)
    metrics["trace.overhead_s"] = extra / len(plain)
    metrics["trace.overhead_pct"] = 100.0 * extra / sum(plain)
    metrics.update(import_metrics())
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for the benchmark's tests")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    setup_raw_s = perf_counter() - T0
    probe1 = probe()
    try:
        out = {"setup_raw_s": setup_raw_s, "setup_probes": [PROBE0, probe1]}
        if args.setup_only:
            print(json.dumps(out))
            return
        results: list = []
        if args.trace:
            out["per_layer"] = traced_run(wl, args, results)
        else:
            # probes[i] and probes[i + 1] bracket operation i
            latencies: list[float] = []
            probes = [probe1]
            rounds, elapsed = run_rounds(wl, args.seconds, results, latencies, probes=probes)
            who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliSession) else resource.RUSAGE_SELF
            out.update(
                latencies=latencies,
                probes=probes,
                elapsed_s=elapsed,
                rounds=rounds,
                peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,  # ru_maxrss is in KiB
            )
        out.update(verdict(wl, results))
        print(json.dumps(out))
    finally:
        wl.close()


if __name__ == "__main__":
    main()
