"""Per-layer spans for the benchmark's traced run, recorded from outside the program.

`Tracer.install()` replaces each public function of the package's six modules,
in every module namespace of the package that holds it, by a wrapper that
records a span: name, start, end and the span that called it.  Calls between
modules go through those namespaces, so they are captured too.  Spans stay in
memory until `save()`; `uninstall()` restores the original functions.

A span's self time is its duration minus the time its direct children cover.
Counts and times are reported per round of the workload's operations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = (
    "market_model",
    "corridor_math",
    "pool_simulator",
    "claim_settlement",
    "redistribution_index",
    "cli",
)

# subcommands of the cli_session workload, timed as subprocesses without tracing
CLI_OPS = (
    "profitability", "optimize", "fixed-point", "simulate", "settle",
    "index-update", "index-check", "index-show", "simulate-ledger",
)

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("market_model.partial_moment.calls", "count"),
    ("market_model.partial_moment.self_s", "s"),
    ("market_model.sample_return_matrix.self_s", "s"),
    ("market_model.sample_return_matrix.mb", "MB"),
    ("corridor_math.admissible_min_k.self_s", "s"),
    ("corridor_math.mp_stationary_points.self_s", "s"),
    ("corridor_math.maximize_m2.self_s", "s"),
    ("corridor_math.k_of_c.self_s", "s"),
    ("corridor_math.m2_horizon.calls", "count"),
    ("corridor_math.n_func.calls", "count"),
    ("corridor_math.profitability_lhs.calls", "count"),
    ("pool_simulator.simulate.self_s", "s"),
    ("pool_simulator.member_steps_per_s", "steps/s"),
    ("pool_simulator.step.calls", "count"),
    ("pool_simulator.step.self_s", "s"),
    ("pool_simulator.z_star.calls", "count"),
    ("pool_simulator.z_star.self_s", "s"),
    ("pool_simulator.fixed_point_barriers.self_s", "s"),
    ("pool_simulator.fixed_point_barriers.iterations", "count"),
    ("claim_settlement.settle.calls", "count"),
    ("claim_settlement.settle.rounds", "count"),
    ("claim_settlement.settle.self_s", "s"),
    ("redistribution_index.index_for_pool.calls", "count"),
    ("redistribution_index.index_for_pool.self_s", "s"),
    ("redistribution_index.Ledger.from_json.self_s", "s"),
    ("redistribution_index.check_mon.self_s", "s"),
    ("redistribution_index.check_add.self_s", "s"),
    *[(f"cli.{op}.s", "s") for op in CLI_OPS],
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextmanager
    def span(self, name: str):
        """Record a span around the body (the benchmark's own operation spans)."""
        idx = self._open(self._name_id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float):
        t1 = perf_counter()
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, t0)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _hooks(self):
        c = self.counters

        def iterations(args, kwargs, res):
            c["pool_simulator.fixed_point_barriers.iterations"] += res.iterations

        def rounds(args, kwargs, res):
            c["claim_settlement.settle.rounds"] += res.rounds

        def matrix(args, kwargs, res):
            key = "market_model.sample_return_matrix.mb"
            c[key] = max(c[key], res.nbytes / 1e6)

        def member_steps(args, kwargs, res):
            config = args[0] if args else kwargs["config"]
            c["member_steps"] += config.n * config.T * res.n_paths

        return {
            "pool_simulator.fixed_point_barriers": iterations,
            "claim_settlement.settle": rounds,
            "market_model.sample_return_matrix": matrix,
            "pool_simulator.simulate": member_steps,
        }

    def install(self):
        pkg = importlib.import_module("corridor_pension")
        modules = {layer: importlib.import_module(f"corridor_pension.{layer}") for layer in LAYERS}
        namespaces = [pkg, *modules.values()]
        hooks = self._hooks()
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, hooks.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._undo.append((ns, key, fn))
                            setattr(ns, key, wrapped)
        ledger = modules["redistribution_index"].Ledger
        raw = vars(ledger)["from_json"]
        self._undo.append((ledger, "from_json", raw))
        ledger.from_json = classmethod(self._wrap("redistribution_index.Ledger.from_json", raw.__func__))

    def uninstall(self):
        while self._undo:
            ns, key, val = self._undo.pop()
            setattr(ns, key, val)

    def arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """(calls, total duration, self time) per span name."""
        names, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=dur, minlength=width)
        own = np.bincount(names, weights=dur - covered, minlength=width)
        return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """The span-derived metrics of PER_LAYER, per round; absent functions read 0."""
        stats = self.stats()
        out = {}
        for metric, _ in PER_LAYER:
            span, _, what = metric.rpartition(".")
            if what == "calls":
                out[metric] = stats.get(span, (0, 0.0, 0.0))[0] / rounds
            elif what == "self_s":
                out[metric] = stats.get(span, (0, 0.0, 0.0))[2] / rounds
        for key in ("pool_simulator.fixed_point_barriers.iterations", "claim_settlement.settle.rounds"):
            out[key] = self.counters[key] / rounds
        out["market_model.sample_return_matrix.mb"] = self.counters["market_model.sample_return_matrix.mb"]
        sim_time = stats.get("pool_simulator.simulate", (0, 0.0, 0.0))[1]
        out["pool_simulator.member_steps_per_s"] = (
            self.counters["member_steps"] / sim_time if sim_time > 0 else 0.0
        )
        return out

    def save(self, path):
        names, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), span_name=names, parent=parent, start=start, end=end)
