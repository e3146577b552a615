"""Lognormal single-period market model.

The fund follows a geometric Brownian motion observed at unit intervals, so the
per-period gross return Y is lognormal with log-mean ``mu`` and log-variance
``sigma**2``.  Everything downstream (boundary functionals, pool simulation)
consumes either closed-form partial moments of Y or sampled return paths.

The closed forms, E[Y^n; Y <= c] for n = 0, 1, 2, live in `corridor_math`
(`_PayoffMoments`, scaled by `_moment_scale` here).  This module provides the
two routes they are checked against, kept independent of them: adaptive
quadrature (`expect_quad`) and Monte Carlo (`expect_mc`).

Every sampled return comes from one draw loop, `_return_blocks`: paths from the
first child of `SeedSequence(seed)`, `expect_mc` from `SeedSequence(seed)`.

This module is also the one place that loads the normal CDF `ndtr` and its
inverse `ndtri`; `corridor_math` takes `ndtr` from here.  They are the
compiled ufuncs of `scipy.special._ufuncs`, the very objects `scipy.special`
exports, so no float changes.  `_load_ndtr` imports that compiled module
behind a bare parent entry in `sys.modules`, so `scipy.special`'s package
`__init__` (over half of a numeric subcommand's start-up, most of it the
array-API layer) does not run.  It holds the global import lock while the
bare entry exists, so no other thread's import can see it; numpy and scipy
are imported first, so only `scipy.special`'s own compiled modules load under
the lock.  A later `import scipy.special` runs the real `__init__` in full and
exports the same ufuncs; only the compiled submodules it never names
(`_ufuncs_cxx`, `_gufuncs`, ...) are then not attributes of the package,
though `from scipy.special import _gufuncs` finds them.  If `scipy.special`
is already imported, or the private load raises `ImportError`, the public
`from scipy.special import ndtr, ndtri` is used.
"""

from __future__ import annotations

import math
import sys
import types
from dataclasses import dataclass
from importlib import _bootstrap
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy

from . import _EXPORTS, _check_count

__all__ = _EXPORTS["market_model"]


def _load_ndtr():
    # the bare parent lets the compiled submodule import; it is gone again
    # before the import lock is released
    with _bootstrap._ImportLockContext():
        if "scipy.special" not in sys.modules:
            sys.modules["scipy.special"] = parent = types.ModuleType("scipy.special")
            parent.__path__ = [str(Path(scipy.__file__).parent / "special")]
            try:
                from scipy.special._ufuncs import ndtr, ndtri

                return ndtr, ndtri
            except ImportError:
                pass
            finally:
                del sys.modules["scipy.special"]
    from scipy.special import ndtr, ndtri

    return ndtr, ndtri


ndtr, ndtri = _load_ndtr()

# lognormal mass beyond 10 sigma is below 1e-20; quadrature windows use this
_Z_CUT = 10.0

# absolute error target of expect_quad; paths expect_mc draws at a time
_QUAD_EPSABS = 1e-13
_MC_CHUNK = 1_000_000


@dataclass(frozen=True)
class GbmParams:
    """Per-period log-drift and log-volatility of the fund."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("GbmParams fields must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")

    @property
    def mean_return(self) -> float:
        """E[Y] = exp(mu + sigma^2/2)."""
        return math.exp(self.mu + 0.5 * self.sigma**2)


def density(params: GbmParams, y):
    """Lognormal density of the gross return, f(y) for y > 0.

    Accepts scalars or arrays; y <= 0 raises.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("density requires y > 0")
    z = (np.log(arr) - params.mu) / params.sigma
    out = np.exp(-0.5 * z * z) / (arr * params.sigma * math.sqrt(2.0 * math.pi))
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


def density_peak(params: GbmParams) -> tuple[float, float]:
    """Mode of the return density and the density value there.

    The mode sits at y = exp(mu - sigma^2) with
    f_max = exp(sigma^2/2 - mu) / (sqrt(2 pi) sigma); the sup norm of f feeds
    the best-response improvement bound.
    """
    y_mode = math.exp(params.mu - params.sigma**2)
    f_max = math.exp(0.5 * params.sigma**2 - params.mu) / (math.sqrt(2.0 * math.pi) * params.sigma)
    return y_mode, f_max


def _moment_scale(params: GbmParams, n: int) -> float:
    # E[Y^n] = exp(n mu + n^2 sigma^2 / 2); a market where it overflows a float is invalid input
    try:
        return math.exp(n * params.mu + 0.5 * n * n * params.sigma**2)
    except OverflowError:
        raise ValueError(f"E[Y^{n}] overflows a float for {params}") from None


def sample_return_matrix(params: GbmParams, T: int, n_paths: int, seed: int) -> np.ndarray:
    """Draw `n_paths` i.i.d. paths of T per-period gross returns exp(mu + sigma Z).

    Returns an (n_paths, T) array; deterministic for a fixed seed.  All draws
    come from one stream, the first child of `SeedSequence(seed)`.
    """
    (returns,) = _return_blocks(params, T, n_paths, _path_stream(seed), n_paths)
    return returns


def _path_stream(seed: int) -> np.random.SeedSequence:
    # return paths (`sample_return_matrix`, `simulate`) draw from this child
    _check_count(seed, "seed", 0)
    return np.random.SeedSequence(seed).spawn(1)[0]


def _return_blocks(params: GbmParams, T: int, n_paths: int, seq, rows: int):
    """n_paths paths of T gross returns from the SeedSequence `seq`, `rows` paths at a time.

    The one draw loop.  Normals are inverse-CDF draws and every double takes
    one draw of the stream, so the blocks concatenate to the one block of
    `rows = n_paths` bit for bit.  `simulate` advances this generator on a
    helper thread, so it calls no public function of the package.
    """
    if not isinstance(seq, np.random.SeedSequence):
        raise TypeError("seq must be a numpy SeedSequence")
    _check_count(T, "T")
    _check_count(n_paths, "n_paths")
    rng = np.random.default_rng(seq)
    for start in range(0, n_paths, rows):
        z = rng.random((min(rows, n_paths - start), T))
        ndtri(z, out=z)
        # exp(mu + sigma z) in place: the same floats without two block-sized temporaries
        z *= params.sigma
        z += params.mu
        yield np.exp(z, out=z)


def expect_quad(
    params: GbmParams,
    fn: Callable[[np.ndarray], np.ndarray],
    breakpoints: Sequence[float] = (),
) -> float:
    """Adaptive quadrature of E[fn(Y)].

    Substitutes y = exp(mu + sigma z) so the integral becomes one against the
    standard normal density on |z| <= 10, to an absolute error of
    _QUAD_EPSABS.  `breakpoints` are y-space kinks of fn; they are mapped into
    z and handed to quad as interior points.
    scipy's quadrature is imported here, on first use, not with the package.
    """
    from scipy import integrate

    mu, sg = params.mu, params.sigma

    def integrand(z):
        y = np.exp(mu + sg * z)
        return fn(y) * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    pts = sorted(
        (math.log(b) - mu) / sg
        for b in breakpoints
        if b > 0 and abs((math.log(b) - mu) / sg) < _Z_CUT
    )
    val, _ = integrate.quad(
        integrand, -_Z_CUT, _Z_CUT, points=pts or None, epsabs=_QUAD_EPSABS, epsrel=1e-12, limit=200
    )
    return val


def expect_mc(
    params: GbmParams,
    fn: Callable[[np.ndarray], np.ndarray],
    n_paths: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[fn(Y)] with its standard error.

    Draws from `SeedSequence(seed)` in chunks of _MC_CHUNK paths so n_paths
    can exceed memory.  The mean is the running sum over n_paths.  Each chunk
    gives its sum of squared deviations from its own mean, and the chunks
    merge by the pairwise update of Chan, Golub and LeVeque, so the error
    does not cancel when the mean is large against the spread.
    """
    _check_count(n_paths, "n_paths", 2)
    _check_count(seed, "seed", 0)
    total, count, sq_dev = 0.0, 0, 0.0
    for y in _return_blocks(params, 1, n_paths, np.random.SeedSequence(seed), _MC_CHUNK):
        v = np.asarray(fn(y[:, 0]), dtype=float)
        if v.shape != (len(y),):  # else a scalar or a slice is averaged over n_paths
            raise ValueError(f"fn must return one value per path, not shape {v.shape}")
        n, chunk_total = len(y), float(v.sum())
        chunk_mean = chunk_total / n
        d = v - chunk_mean
        sq_dev += float((d * d).sum())
        if count:  # the spread between the running mean and the chunk's
            gap = chunk_mean - total / count
            sq_dev += gap * gap * count * n / (count + n)
        total += chunk_total
        count += n
    return total / n_paths, math.sqrt(sq_dev / n_paths / n_paths)
