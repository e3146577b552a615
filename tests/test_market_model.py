import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor_pension import market_model
from corridor_pension.market_model import (
    GbmParams,
    density,
    density_peak,
    expect_mc,
    expect_quad,
    sample_return_matrix,
)
from test_corridor_math import _partial_moment

A = GbmParams(0.045, 0.06)


def test_params_validation():
    with pytest.raises(ValueError):
        GbmParams(0.0, 0.0)
    with pytest.raises(ValueError):
        GbmParams(0.0, -0.1)
    with pytest.raises(ValueError):
        GbmParams(math.nan, 0.1)


def test_mean_return():
    assert A.mean_return == pytest.approx(math.exp(0.045 + 0.5 * 0.06**2), rel=1e-15)


def test_density_peak_frozen():
    y_mode, f_max = density_peak(A)
    assert y_mode == pytest.approx(1.0422689297469805, rel=1e-14)
    assert f_max == pytest.approx(6.367915529124833, rel=1e-14)
    # peak really is the sup: density is lower nearby
    assert density(A, y_mode) == pytest.approx(f_max, rel=1e-12)
    for y in (y_mode * 0.99, y_mode * 1.01):
        assert density(A, y) < f_max


def test_density_vectorized_and_validation():
    ys = np.array([0.5, 1.0, 1.5])
    out = density(A, ys)
    assert out.shape == (3,)
    assert np.all(out > 0)
    assert density(A, 1.0) == pytest.approx(out[1], rel=1e-15)
    with pytest.raises(ValueError):
        density(A, 0.0)
    with pytest.raises(ValueError):
        density(A, np.array([1.0, -1.0]))


def test_partial_moment_totals():
    # the tests' closed-form oracle (test_corridor_math.py), checked here
    # against the lognormal moments and quadrature: full-range moments recover
    # the lognormal moments
    assert _partial_moment(A, 0, 0.0, math.inf) == pytest.approx(1.0, abs=1e-15)
    assert _partial_moment(A, 1, 0.0, math.inf) == pytest.approx(A.mean_return, rel=1e-14)
    m2_full = math.exp(2 * A.mu + 2 * A.sigma**2)
    assert _partial_moment(A, 2, 0.0, math.inf) == pytest.approx(m2_full, rel=1e-14)


def test_partial_moment_additivity():
    for order in (0, 1, 2):
        whole = _partial_moment(A, order, 0.5, 2.0)
        split = _partial_moment(A, order, 0.5, 1.1) + _partial_moment(A, order, 1.1, 2.0)
        assert whole == pytest.approx(split, rel=1e-13, abs=1e-15)


@given(
    lo=st.floats(0.0, 2.0),
    width=st.floats(1e-3, 3.0),
    order=st.sampled_from([0, 1, 2]),
)
@settings(max_examples=60, deadline=None)
def test_partial_moment_matches_quadrature(lo, width, order):
    hi = lo + width
    closed = _partial_moment(A, order, lo, hi)
    quad = expect_quad(
        A, lambda y: y**order * ((y > lo) & (y <= hi)), breakpoints=(lo, hi)
    )
    assert closed == pytest.approx(quad, abs=5e-11)


def test_sample_determinism_and_shape():
    a = sample_return_matrix(A, 4, 10, seed=123)
    b = sample_return_matrix(A, 4, 10, seed=123)
    c = sample_return_matrix(A, 4, 10, seed=124)
    assert a.shape == (10, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a > 0)


def test_sample_return_matrix_pinned_entries():
    # one stream, the first child of SeedSequence(5); entries pinned when the
    # samplers were merged into this one function
    mat = sample_return_matrix(A, 3, 7, seed=5)
    assert mat.shape == (7, 3)
    assert mat[0, 0] == 1.0307461855092546
    assert mat[3, 1] == 1.0306548049199538
    assert mat[6, 2] == 1.0312202081704236


def test_expect_quad_known_mean():
    assert expect_quad(A, lambda y: y) == pytest.approx(A.mean_return, abs=1e-11)
    assert expect_quad(A, lambda y: np.ones_like(y)) == pytest.approx(1.0, abs=1e-12)


def test_expect_mc_agrees_with_closed_form():
    mean, se = expect_mc(A, lambda y: y, 200_000, seed=11)
    assert se > 0
    assert abs(mean - A.mean_return) <= 4 * se


def test_expect_mc_chunking_invariance(monkeypatch):
    monkeypatch.setattr(market_model, "_MC_CHUNK", 50_000)
    one = expect_mc(A, lambda y: y * y, 50_000, seed=3)
    monkeypatch.setattr(market_model, "_MC_CHUNK", 7_000)
    many = expect_mc(A, lambda y: y * y, 50_000, seed=3)
    assert one[0] == pytest.approx(many[0], rel=1e-12)
    assert one[1] == pytest.approx(many[1], rel=1e-12)
    with pytest.raises(ValueError):
        expect_mc(A, lambda y: y, 1, seed=0)


@pytest.mark.parametrize("fn", [
    lambda y: 1.0,  # returned (0.001, 0.000999): one value averaged over 1000 paths
    lambda y: y[:500],  # returned 0.527, 500 values averaged over 1000 paths
    lambda y: np.stack([y, y], axis=1),  # returned 2.10, twice the mean
])
def test_expect_mc_refuses_a_result_that_is_not_one_value_per_path(fn):
    with pytest.raises(ValueError, match="one value per path"):
        expect_mc(A, fn, 1000, seed=0)


def test_expect_mc_pinned_values(monkeypatch):
    # one stream, SeedSequence(seed) itself, summed chunk by chunk; values
    # pinned when expect_mc came to draw through the pool's sampler.  The means
    # are a running sum, pinned bit for bit; the errors were pinned from sums of
    # squares, and merged squared deviations round differently in the last bits
    mean, se = expect_mc(A, lambda y: y, 50_000, seed=3)
    assert mean == 1.0475882267910297
    assert se == pytest.approx(0.0002830839674769086, rel=1e-12)
    monkeypatch.setattr(market_model, "_MC_CHUNK", 7_000)
    mean, se = expect_mc(A, lambda y: y * y, 50_000, seed=3)
    assert mean == 1.1014479195432973
    assert se == pytest.approx(0.0005965488806263196, rel=1e-12)


@pytest.mark.parametrize("chunk", [1_000_000, 7_000])
def test_expect_mc_error_does_not_depend_on_a_shift(monkeypatch, chunk):
    # the error of E[Y + a] is that of E[Y], in one chunk or many, as long as
    # y + a still holds y: at a = 1e12 the shift rounds y to 1.2e-4, and no
    # reduction can keep 1e-9 there
    monkeypatch.setattr(market_model, "_MC_CHUNK", chunk)
    _, se = expect_mc(A, lambda y: y, 200_000, seed=3)
    for a in (1.0, 1e3, 1e6, 1e8):
        assert expect_mc(A, lambda y: y + a, 200_000, seed=3)[1] == pytest.approx(se, rel=1e-9), a


# how scipy.special stands when market_model loads ndtr and ndtri
_ROUTES = {
    "private": "",
    "scipy.special first": "import scipy.special\n",
    "private load fails": (
        "import importlib.abc\n"
        "class Refuse(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name == 'scipy.special._ufuncs' and not hasattr(sys.modules['scipy.special'], '__file__'):\n"
        "            refused.append(name)\n"
        "            raise ImportError(name)\n"
        "sys.meta_path.insert(0, Refuse())\n"
    ),
}


@pytest.mark.parametrize("array_api", ["", "1"])
@pytest.mark.parametrize("route", list(_ROUTES))
def test_ndtr_and_ndtri_are_scipy_specials_own(route, array_api):
    # in a fresh process, since this one imported scipy.special long ago: the
    # private route takes the compiled ufuncs without the package __init__ and
    # leaves no bare scipy.special behind; the public one, taken when
    # scipy.special is already imported or the private load fails, gives the
    # public objects.  A later import of scipy.special is the real package,
    # with the same values, and the same objects unless SCIPY_ARRAY_API wraps
    # the public ones
    code = "import sys\nrefused = []\n" + _ROUTES[route] + (
        "import numpy as np\n"
        "from corridor_pension import market_model as mm\n"
        "private = 'scipy.special' not in sys.modules\n"
        "ufuncs = sys.modules['scipy.special._ufuncs']\n"
        "import scipy.special as sp\n"
        "z, p = np.linspace(-40.0, 40.0, 4001), np.linspace(0.0, 1.0, 4001)\n"
        "print(private, mm.ndtr is ufuncs.ndtr and mm.ndtri is ufuncs.ndtri,\n"
        "      mm.ndtr is sp.ndtr and mm.ndtri is sp.ndtri,\n"
        "      np.array_equal(mm.ndtr(z), sp.ndtr(z)) and np.array_equal(mm.ndtri(p), sp.ndtri(p)),\n"
        "      sp.__file__.endswith('__init__.py') and sp.gamma(5.0) == 24.0,\n"
        "      len(refused))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "SCIPY_ARRAY_API"}
    env.update(PYTHONPATH=str(src), **({"SCIPY_ARRAY_API": array_api} if array_api else {}))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    private, is_ufuncs, same, equal, real, refused = proc.stdout.split()
    wrapped = bool(array_api)
    if route == "private":
        assert (private, is_ufuncs, same) == ("True", "True", str(not wrapped))
    else:
        assert (private, is_ufuncs, same) == ("False", str(not wrapped), "True")
    assert (equal, real) == ("True", "True")
    assert (refused != "0") == (route == "private load fails")


def test_import_leaves_scipy_optimize_and_integrate_unloaded(tmp_path):
    # the package, and the ledger and settlement subcommands, load neither numpy
    # nor scipy; the numeric subcommands load scipy.special's compiled ufuncs
    # but not the scipy.special package, and only the expect_quad oracle
    # needs scipy's quadrature; nothing needs scipy.optimize
    (tmp_path / "batch.json").write_text(
        '{"claims": [4, 6, 20, 35, 50], "indices": [0.1, 0.2, 0.3, 0.2, 0.2], "pool": 100}'
    )
    ledger_verbs = [
        ["settle", "batch.json"],
        ["index", "update", "led.json", "--t", "0", "--c-pre", "0", "--contribution", "1=100"],
        ["index", "update", "led.json", "--t", "1", "--c-pre", "75", "--contribution", "2=80"],
        ["index", "show", "led.json"],
        ["index", "check", "led.json", "--new-id", "9", "--amount", "10"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "def loaded(*names):\n"
        "    return sorted(n for n in names if n in sys.modules)\n"
        "import corridor_pension\n"
        "print(loaded('numpy', 'scipy'))\n"
        "from corridor_pension import cli\n"
        f"for argv in {ledger_verbs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(loaded('numpy', 'scipy'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['profitability', '--grid', '101']) == 0\n"
        "print(loaded('scipy.special._ufuncs', 'scipy.special', 'scipy.optimize', 'scipy.integrate'))\n"
        "from corridor_pension import GbmParams, expect_quad\n"
        "print(expect_quad(GbmParams(0.045, 0.06), lambda y: y))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, check=True)
    bare, after_ledger, after_numeric, mean = proc.stdout.split("\n")[:4]
    assert bare == "[]"
    assert after_ledger == "[]"
    assert after_numeric == "['scipy.special._ufuncs']"
    assert float(mean) == pytest.approx(A.mean_return, abs=1e-11)
    for path in (src / "corridor_pension").glob("*.py"):
        text = path.read_text()
        for name in ("scipy.optimize", "brentq", "minimize_scalar"):
            assert name not in text, f"{path.name} mentions {name}"
