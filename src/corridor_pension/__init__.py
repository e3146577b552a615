"""Corridor-smoothed collective pension toolkit.

Closed-form boundary functionals over a lognormal market, multi-agent pool
simulation with three help regimes, an event-sourced redistribution ledger
with executable fairness checks, and a recursive claim settlement rule.

Public names load their submodule on first access (PEP 562), so the ledger
and settlement code import without numpy or scipy.  `_EXPORTS` is the one
list of public names: each submodule's `__all__` is its row of it.  The
count and index rules that the numeric modules and the ledger both apply,
`_check_count` and `_check_index`, sit here too, on the standard library alone.
"""

import importlib
from numbers import Integral

__version__ = "0.1.0"

_EXPORTS = {
    "claim_settlement": ("ClaimBatch", "SettlementResult", "settle"),
    "corridor_math": (
        "CorridorPolicy", "DpVerdict", "FixedPointResult", "M1Result", "OptResult", "XiParams",
        "admissible_min_k", "best_response_gain", "dp_check", "fixed_point_barriers",
        "horizon_objective", "improvement_bound", "k_of_c", "m1", "m2", "m2_horizon",
        "maximize_m1", "maximize_m2", "mp_stationary_points", "n_func", "profitability_lhs",
        "psi1", "psi2", "xi", "xi_d1", "xi_d2", "z_star",
    ),
    "market_model": (
        "GbmParams", "density", "density_peak", "expect_mc", "expect_quad",
        "sample_return_matrix",
    ),
    "pool_simulator": (
        "ALWAYS_HELP", "INDEX_CAPPED_HELP", "NO_HELP_IF_INSUFFICIENT", "PoolConfig",
        "SimulationResult", "StepReport", "run_path", "simulate",
    ),
    "redistribution_index": (
        "CheckResult", "EventRecord", "Ledger", "check_add", "check_cont", "check_fix",
        "check_lin", "check_mon", "index_for_pool",
    ),
    "cli": (),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def _check_count(value, name: str, least: int = 1):
    # a horizon, member, path or grid count, or a seed: an integer >= least
    # (numpy ints too), not a bool or 2.0
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}")


def _check_index(j, n: int, name: str):
    # an index into n items: an integer (numpy ints too), not a bool or 0.5, which none matches
    if isinstance(j, bool) or not isinstance(j, Integral) or not 0 <= j < n:
        raise ValueError(f"{name} out of range")


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
