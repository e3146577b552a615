import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from corridor_pension.corridor_math import (
    LHS_TOL,
    CorridorPolicy,
    XiParams,
    _PayoffMoments,
    _grid_peaks,
    _objective,
    _zoom,
    admissible_min_k,
    fixed_point_barriers,
    horizon_objective,
    k_of_c,
    m1,
    m2,
    m2_horizon,
    maximize_m1,
    maximize_m2,
    mp_stationary_points,
    n_func,
    profitability_lhs,
    psi1,
    psi2,
    xi,
    xi_d1,
    xi_d2,
    z_star,
)
from corridor_pension import corridor_math
from corridor_pension.market_model import GbmParams, expect_quad

A = GbmParams(0.045, 0.06)
POL4 = CorridorPolicy(alpha=4.0)
B = GbmParams(0.06, 0.092367)
POLB = CorridorPolicy(alpha=2.0)
ASYM = CorridorPolicy(p=2.0)
AS = GbmParams(0.015, 0.03)


def _cum_moment(params, n, c):
    # E[Y^n; Y <= c] = exp(n mu + n^2 sigma^2 / 2) Phi((ln c - mu)/sigma - n sigma),
    # elementwise over a scalar or array c: c <= 0 gives 0, c = inf the full
    # moment.  The scalar reference the closed forms of `_PayoffMoments` reproduce
    scale = math.exp(n * params.mu + 0.5 * n * n * params.sigma**2)
    with np.errstate(divide="ignore"):
        z = (np.log(np.maximum(c, 0.0)) - params.mu) / params.sigma - n * params.sigma
    return scale * ndtr(z)


def _partial_moment(params, n, lo, hi):
    # E[Y^n; lo < Y <= hi]
    return _cum_moment(params, n, hi) - _cum_moment(params, n, lo)


def _h_payoff(rho, c, k, policy):
    # the gated payoff of `n_func` at the net return rho, pointwise:
    # rho - give_frac (rho - k p)+ + help_frac (-k - rho)+ 1{rho > c}
    r = np.asarray(rho, dtype=float)
    give = policy.give_frac * np.maximum(r - k * policy.p, 0.0)
    help_ = policy.help_frac * np.maximum(-k - r, 0.0) * (r > c)
    out = r - give + help_
    return float(out) if np.isscalar(rho) else out


def test_policy_validation():
    with pytest.raises(ValueError):
        CorridorPolicy(k=-0.1)
    with pytest.raises(ValueError):
        CorridorPolicy(k=1.5)
    with pytest.raises(ValueError):
        CorridorPolicy(p=0.5)
    with pytest.raises(ValueError):
        CorridorPolicy(give_frac=1.2)
    with pytest.raises(ValueError):
        CorridorPolicy(alpha=-1.0)
    with pytest.raises(ValueError):
        CorridorPolicy(J=1.0)
    # NaN fails every check, and the penalty and the upper boundary are finite
    for bad in ({"k": math.nan}, {"p": math.nan}, {"p": math.inf}, {"give_frac": math.nan},
                {"help_frac": math.nan}, {"alpha": math.nan}, {"alpha": math.inf}, {"J": math.nan}):
        with pytest.raises(ValueError):
            CorridorPolicy(**bad)


def test_psi_frozen_values():
    assert psi1(A, POL4, 0.1215) == pytest.approx(0.046877451288030156, rel=1e-13)
    assert psi1(A, POL4, 1.0) == pytest.approx(0.04791240563888244, rel=1e-13)
    assert psi2(A, POL4, 0.0) == pytest.approx(0.003385319364540458, rel=1e-13)
    assert psi2(A, POL4, 0.1215) == pytest.approx(0.005886101906773182, rel=1e-13)
    assert psi1(B, POLB, 0.1897) == pytest.approx(0.06488962555377938, rel=1e-13)
    assert psi2(B, POLB, 0.1897) == pytest.approx(0.013309352681658063, rel=1e-13)


def test_lhs_frozen_values():
    assert profitability_lhs(A, POL4, 0.0) == pytest.approx(-0.010066850187528245, rel=1e-13)
    assert profitability_lhs(AS, ASYM, 0.0) == pytest.approx(-0.002432279222317202, rel=1e-13)
    # wide boundaries put both legs outside the support
    assert profitability_lhs(AS, ASYM, 1.0) == 0.0


def test_m2_frozen_values():
    assert m2(A, POL4, 0.0) == pytest.approx(0.024304277993192416, rel=1e-13)
    assert m2(A, POL4, 0.1215) == pytest.approx(0.023333043660937428, rel=1e-13)
    assert m2(A, POL4, 0.9) == pytest.approx(0.02288857981229575, rel=1e-13)
    assert m2(B, POLB, 0.0) == pytest.approx(0.038036084101747275, rel=1e-13)
    assert m2(B, POLB, 0.1897) == pytest.approx(0.03827092019046325, rel=1e-13)


def test_m2_equals_psi_combination():
    for k in (0.0, 0.07, 0.3, 1.0):
        assert m2(A, POL4, k) == pytest.approx(
            psi1(A, POL4, k) - POL4.alpha * psi2(A, POL4, k), rel=1e-14
        )


def test_psi_matches_quadrature():
    pol = POL4
    L, U = 1.0 - 0.15, 1.0 + 0.15

    def g(y):
        return (
            (y - 1.0)
            - pol.give_frac * np.maximum(y - 1.0 - 0.15 * pol.p, 0.0)
            + pol.help_frac * np.maximum(1.0 - 0.15 - y, 0.0)
        )

    assert psi1(A, pol, 0.15) == pytest.approx(expect_quad(A, g, (L, U)), abs=1e-11)
    assert psi2(A, pol, 0.15) == pytest.approx(expect_quad(A, lambda y: g(y) ** 2, (L, U)), abs=1e-11)


def test_m1_is_discounted_lhs():
    pol = replace(POL4, J=0.3)
    for k in (0.0, 0.2, 0.8):
        assert m1(A, pol, k) == pytest.approx(
            0.7 * profitability_lhs(A, pol, k), rel=1e-14
        )
    assert m1(A, POL4, 1.0) == 0.0


def test_admissible_min_k():
    assert admissible_min_k(A, POL4) == 0.0
    # asymmetric case: admissible at 0, inadmissible band in the interior
    assert admissible_min_k(AS, ASYM) == 0.0
    assert profitability_lhs(AS, ASYM, 0.08) > 0


def test_admissible_min_k_interior_crossing():
    # pure help (no give) is a net cost at small k, admissible only once k is large
    pol = CorridorPolicy(give_frac=0.0, help_frac=0.5)
    k_min = admissible_min_k(A, pol)
    assert k_min > 0.2
    assert profitability_lhs(A, pol, k_min) <= LHS_TOL
    assert profitability_lhs(A, pol, k_min - 0.01) > LHS_TOL


def test_mp_stationary_points_asymmetric():
    pts = mp_stationary_points(AS, ASYM)
    maxima = [k for k, kind in pts if kind == "max"]
    assert len(maxima) == 1
    assert maxima[0] == pytest.approx(0.03257706417389133, abs=1e-9)
    # the stationary point sits inside the inadmissible band
    assert profitability_lhs(AS, ASYM, maxima[0]) == pytest.approx(
        1.4431714088788267e-4, rel=1e-9
    )


def test_mp_stationary_points_upper_tail_underflow():
    # past k = 0.5 the upper tail P(Y > 1 + kp) is below 1e-16; taken as
    # 1 - P(Y <= 1 + kp) it cancelled to 0 and a spurious "max" at 0.5116
    # appeared next to the real minimum
    params = GbmParams(0.010047987343473145, 0.06523547758875652)
    pol = CorridorPolicy(p=1.4366670521756526, give_frac=0.14065056722291297)
    pts = mp_stationary_points(params, pol)
    assert len(pts) == 1
    assert pts[0][1] == "min"
    assert pts[0][0] == pytest.approx(0.28162753943303515, abs=1e-9)


def test_array_k_matches_scalar_calls():
    ks = np.linspace(0.0, 1.0, 41)
    pol = replace(POL4, p=1.5, J=0.2)
    xp = XiParams(2.0, 4.0)
    curves = {
        "m1": lambda k: m1(A, pol, k),
        "m2": lambda k: m2(A, pol, k),
        "m2_horizon": lambda k: m2_horizon(A, pol, k, 3),
        "n_func": lambda k: n_func(A, pol, -0.1, k),
        "xi": lambda k: xi(A, xp, k),
        "xi_d1": lambda k: xi_d1(A, xp, k),
        "xi_d2": lambda k: xi_d2(A, xp, k),
        "psi1": lambda k: psi1(A, pol, k),
        "psi2": lambda k: psi2(A, pol, k),
        "profitability_lhs": lambda k: profitability_lhs(A, pol, k),
    }
    for name, f in curves.items():
        scalars = [f(float(k)) for k in ks]
        assert all(type(v) is float for v in scalars), name
        vec = f(ks)
        assert isinstance(vec, np.ndarray) and vec.shape == ks.shape, name
        assert vec == pytest.approx(scalars, rel=1e-14, abs=1e-17), name
        if name in ("psi1", "psi2", "profitability_lhs", "xi_d2"):
            assert vec.tolist() == scalars, name
    lhs = [profitability_lhs(A, pol, float(k)) for k in ks]
    assert m1(A, replace(pol, J=0.0), ks) == pytest.approx(lhs, rel=1e-14, abs=1e-17)
    with pytest.raises(ValueError):
        n_func(A, pol, -0.1, np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        xi(A, xp, np.array([-0.1, 0.5]))
    for f in curves.values():
        for bad in (1.5, -0.2, np.array([0.5, 1.5]), np.array([np.nan])):
            with pytest.raises(ValueError):
                f(bad)


def test_n_func_array_cutoff_matches_scalar_calls():
    # one array call over (c, k) pairs, as the best-response scan makes it
    ks = np.linspace(0.0, 1.0, 41)
    cs = np.linspace(-1.0, 0.0, 41)[::-1]
    scalars = [n_func(A, POL4, float(c), float(k)) for c, k in zip(cs, ks)]
    assert n_func(A, POL4, cs, ks) == pytest.approx(scalars, rel=1e-15, abs=1e-15)
    # a cutoff array against one k broadcasts
    assert n_func(A, POL4, cs, 0.1) == pytest.approx(
        [n_func(A, POL4, float(c), 0.1) for c in cs], rel=1e-15, abs=1e-15)
    for bad in (np.array([-0.5, 0.1]), np.array([-1.5, -0.5]), np.array([np.nan])):
        with pytest.raises(ValueError):
            n_func(A, POL4, bad, 0.1)


@given(
    mu=st.floats(-1.0, 1.0),
    sigma=st.floats(0.005, 1.5),
    give=st.floats(0.0, 1.0),
    helpf=st.floats(0.0, 1.0),
    p=st.floats(1.0, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_k_one_is_always_admissible(mu, sigma, give, helpf, p):
    # at k = 1 nobody is helped, so the LHS is -give * E[(Y-1-p)+] <= 0
    params = GbmParams(mu, sigma)
    pol = CorridorPolicy(p=p, give_frac=give, help_frac=helpf)
    assert profitability_lhs(params, pol, 1.0) <= LHS_TOL
    k_min = admissible_min_k(params, pol)
    assert type(k_min) is float and 0.0 <= k_min <= 1.0


def test_lhs_and_xi_match_partial_moment_formulas():
    # the shortfall and excess terms written out over the partial moments, as
    # each functional computed them before they shared one payoff core
    inf = math.inf

    def short_excess(params, L, U):
        short = L * _partial_moment(params, 0, 0.0, L) - _partial_moment(params, 1, 0.0, L) if L > 0 else 0.0
        excess = _partial_moment(params, 1, U, inf) - U * _partial_moment(params, 0, U, inf)
        return short, excess

    xp = XiParams(2.0, 4.0)
    for params in (A, B, AS, GbmParams(0.01, 0.2)):
        mean_rho = _partial_moment(params, 1, 0.0, inf) - 1.0
        for k in np.linspace(0.0, 1.0, 51):
            k = float(k)
            for pol in (POL4, ASYM, CorridorPolicy(give_frac=0.1, help_frac=0.9, p=1.5)):
                short, excess = short_excess(params, 1.0 - k, 1.0 + k * pol.p)
                want = pol.help_frac * short - pol.give_frac * excess
                assert profitability_lhs(params, pol, k) == pytest.approx(want, rel=1e-13, abs=1e-16)
            short, excess = short_excess(params, 1.0 - k, 1.0 + k)
            want = mean_rho + short / xp.a - excess / xp.b
            assert xi(params, xp, k) == pytest.approx(want, rel=1e-13, abs=1e-16)


def _moments_by_cum_moment(params, help_frac, give_frac, p, k, c=-1.0, with_return=True):
    # (E[f], E[f^2]) of the corridor payoff r*(y - 1) + t(y), gated at c, over
    # its four intervals with every edge, 0 and inf included, through
    # `_cum_moment` once per order: the reference the closed forms reproduce
    k = np.asarray(k, dtype=float)
    if not np.isscalar(c):
        k, c = np.broadcast_arrays(k, np.asarray(c, dtype=float))
    L, U = 1.0 - k, 1.0 + k * p
    zero = np.zeros_like(k)
    r = 1.0 if with_return else 0.0
    edges = np.array([zero, np.minimum(np.maximum(1.0 + c, 0.0), L), L, U, zero + math.inf])
    a = np.array([zero - r, help_frac * L - r, zero - r, give_frac * U - r])
    b = np.array([r, r - help_frac, r, r - give_frac]).reshape((4,) + (1,) * k.ndim)
    p0, p1, p2 = (np.diff(_cum_moment(params, n, edges), axis=0) for n in (0, 1, 2))
    return (a * p0 + b * p1).sum(axis=0), (a * a * p0 + 2.0 * a * b * p1 + b * b * p2).sum(axis=0)


def _horizon_by_loop(pairs, alpha, v0=1.0, gamma_pi=0.0):
    # the recursion of `horizon_objective` written out, gamma_pi added every
    # period even at 0: the reference its shortcuts reproduce
    m, gain, pen = v0, 0.0, 0.0
    for s1, s2 in pairs:
        pen = pen + m * s2
        growth = gamma_pi + m * s1
        gain, m = gain + growth, m + growth
    return gain - alpha * pen


def _same(got, want):
    # the same floats in the same shape: no tolerance, not even the last ulp
    return np.shape(got) == np.shape(want) and np.array_equal(got, want)


@given(
    mu=st.floats(-0.2, 0.3),
    sigma=st.floats(0.01, 0.8),
    give=st.floats(0.0, 1.0),
    helpf=st.floats(0.0, 1.0),
    p=st.floats(1.0, 3.0),
    alpha=st.floats(0.0, 5.0),
    k=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0),
                st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).map(np.array)),
    c=st.one_of(st.sampled_from([-1.0, 0.0]), st.floats(-1.0, 0.0)),
)
@example(mu=0.045, sigma=0.06, give=0.25, helpf=0.5, p=1.0, alpha=4.0,
         k=np.array([0.0, 0.05, 0.1215, 0.5, 1.0]), c=-0.08)  # 1 + c above and below 1 - k
@example(mu=0.045, sigma=0.06, give=0.25, helpf=0.5, p=1.0, alpha=4.0, k=0.2, c=-0.5)
@example(mu=0.045, sigma=0.06, give=0.25, helpf=0.5, p=1.0, alpha=4.0, k=0.2, c=-0.1)
@settings(max_examples=300, deadline=None)
def test_closed_forms_are_the_floats_of_cum_moment_per_edge(mu, sigma, give, helpf, p, alpha, k, c):
    params = GbmParams(mu, sigma)
    pol = CorridorPolicy(p=p, give_frac=give, help_frac=helpf, alpha=alpha)
    xp = XiParams(1.0 / helpf, 1.0 / give) if 0 < give < helpf < 1 else XiParams(2.0, 4.0)

    def ref(c=-1.0, **kw):
        return _moments_by_cum_moment(params, helpf, give, p, k, c, **kw)

    # every route of the evaluator: ungated, a scalar cutoff, a cutoff per k
    # (as the best-response scan passes them) and the transfer mean (2 orders)
    cs = np.linspace(-1.0, 0.0, np.size(k))
    for cut in (-1.0, c, cs):
        for got, want in zip(_PayoffMoments(params, pol, cut)(k), ref(cut)):
            assert _same(got, want)
    mean = _PayoffMoments(params, pol, with_return=False)(k)[0]
    assert _same(mean, ref(with_return=False)[0])
    gated, ungated = ref(c), ref()
    assert _same(n_func(params, pol, c, k), gated[0] - alpha * gated[1])
    assert _same(n_func(params, pol, -1.0, k), ungated[0] - alpha * ungated[1])
    assert _same(profitability_lhs(params, pol, k), ref(with_return=False)[0])
    for T in (1, 20):
        assert _same(m2_horizon(params, pol, k, T), _horizon_by_loop([ungated] * T, alpha))
        for v0, gamma_pi in ((0.0, 0.0), (2.5, 0.0), (1.0, 0.3)):
            assert _same(horizon_objective([ungated, gated] * T, alpha, v0, gamma_pi),
                         _horizon_by_loop([ungated, gated] * T, alpha, v0, gamma_pi))
    xi_ref = _moments_by_cum_moment(params, 1.0 / xp.a, 1.0 / xp.b, 1.0, k)[0]
    assert _same(xi(params, xp, k), xi_ref)
    # one cutoff after another on the rows of L and U computed once, as the
    # fixed point's searches evaluate their grid, and at c = -1 on the moments
    # computed with those rows
    lu, ungated = _PayoffMoments(params, pol).rows(k)
    assert all(_same(got, want) for got, want in zip(ungated, ref()))
    for cut in (c, -1.0, 0.0, c, -1.0):
        objective = _objective(params, pol, cut)
        assert _same(objective(k, lu), n_func(params, pol, cut, k))
        assert _same(objective(k, lu), objective(k))
        assert _same(objective(k, lu, ungated), objective(k))


def _merge_by_slices(vs, tie_tol):
    # the candidates of `_maximize_scalar` in their direct form, one slice
    # minimum per pair of peaks compared: the oracle for `_grid_peaks`
    margin = max(10.0 * tie_tol, 1e-3)
    rising = np.r_[True, vs[1:] >= vs[:-1]]
    falling = np.r_[vs[:-1] >= vs[1:], True]
    peaks = np.flatnonzero(rising & falling & (vs >= vs.max() - margin))
    merged = [int(peaks[0])]
    for i in peaks[1:]:
        j = merged[-1]
        dip = min(vs[j], vs[i]) - vs[j : i + 1].min()
        if dip <= tie_tol:
            if vs[i] > vs[j]:
                merged[-1] = int(i)
        else:
            merged.append(int(i))
    return merged


TIE = 1e-6
# offsets from a base value: level, a step up, and dips just inside, at and
# just beyond tie_tol, or far below it
_OFFSETS = [0.0, 0.0, 2e-7, 5e-7, -5e-7, -TIE * (1 - 1e-9), -TIE, -TIE * (1 + 1e-9), -3e-6, -2e-3]


@given(
    runs=st.lists(st.tuples(st.sampled_from(_OFFSETS), st.integers(1, 6)), min_size=1, max_size=40),
    base=st.sampled_from([0.0, 0.0243, -1.7, 12.5]),
    tie_tol=st.sampled_from([TIE, 0.0, 1e-4]),
)
@example(runs=[(0.0, 30)], base=0.0243, tie_tol=TIE)  # one plateau
@example(runs=[(0.0, 3), (-2e-3, 5), (0.0, 2)], base=0.0243, tie_tol=TIE)  # two separated maxima
@example(runs=[(0.0, 2), (-TIE * (1 - 1e-9), 1), (0.0, 2)], base=0.0243, tie_tol=TIE)  # dip below tie_tol
@example(runs=[(0.0, 2), (-TIE * (1 + 1e-9), 1), (0.0, 2)], base=0.0243, tie_tol=TIE)  # dip above tie_tol
@settings(max_examples=1000, deadline=None)
def test_grid_peaks_match_the_slice_merge(runs, base, tie_tol):
    vs = np.repeat([base + off for off, _ in runs], [n for _, n in runs])
    assert _grid_peaks(vs, tie_tol) == _merge_by_slices(vs, tie_tol)


def _merge_by_min_loop(vs, tie_tol):
    # `_grid_peaks` with its merge loop written with min(), as it was before the
    # loop kept the last kept peak's value in a local: the oracle of that rewrite
    margin = max(10.0 * tie_tol, 1e-3)
    peak = vs >= vs.max() - margin
    peak[1:] &= vs[1:] >= vs[:-1]
    peak[:-1] &= vs[:-1] >= vs[1:]
    peaks = np.flatnonzero(peak)
    top, gaps = vs[peaks].tolist(), np.minimum.reduceat(vs, peaks).tolist()
    merged, low = [0], math.inf
    for m in range(1, len(top)):
        j, low = merged[-1], min(low, gaps[m - 1])
        if min(top[j], top[m]) - low > tie_tol:
            merged.append(m)
        elif top[m] > top[j]:
            merged[-1] = m
        if merged[-1] != j:
            low = math.inf
    return peaks[merged].tolist()


@given(
    runs=st.lists(st.tuples(st.one_of(st.sampled_from(_OFFSETS), st.floats(-3e-3, 3e-3)),
                            st.integers(1, 6)), min_size=1, max_size=60),
    base=st.sampled_from([0.0, 0.0243, -1.7, 12.5]),
    tie_tol=st.sampled_from([TIE, 0.0, 1e-4]),
)
@example(runs=[(0.0, 1), (-TIE, 1)] * 30, base=0.0243, tie_tol=TIE)  # many peaks, dips at tie_tol
@example(runs=[(0.0, 1), (5e-7, 1), (-3e-6, 1), (2e-7, 1)] * 15, base=-1.7, tie_tol=TIE)
@settings(max_examples=400, deadline=None)
def test_grid_peaks_match_the_min_loop(runs, base, tie_tol):
    # plateaus (runs of one value), ties and dips near tie_tol: the same indices
    vs = np.repeat([base + off for off, _ in runs], [n for _, n in runs])
    assert _grid_peaks(vs, tie_tol) == _merge_by_min_loop(vs, tie_tol)


@given(
    mu=st.floats(-0.2, 0.3),
    sigma=st.floats(0.01, 0.8),
    give=st.floats(0.0, 1.0),
    helpf=st.floats(0.0, 1.0),
    p=st.floats(1.0, 3.0),
    c=st.one_of(st.sampled_from([0.0, -0.25, -0.5]), st.floats(-1.0, 0.0, exclude_min=True)),
    lo=st.floats(0.0, 1.0),
    n=st.integers(1, 300),
)
@example(mu=0.045, sigma=0.06, give=0.25, helpf=0.5, p=1.0, c=0.0, lo=0.0, n=2001)
@example(mu=0.06, sigma=0.092367, give=0.25, helpf=0.5, p=1.0, c=-0.02, lo=0.05, n=2001)
@settings(max_examples=300, deadline=None)
def test_scalar_gate_row_is_the_per_edge_row(mu, sigma, give, helpf, p, c, lo, n):
    # a scalar cutoff's gate row, L's where L < 1 + c and the column of 1 + c
    # elsewhere, gives the floats of the gate row computed edge by edge, as a
    # cutoff per k computes it; on a grid, at k = 0 and 1, and at k = -c, where
    # G = 1 + c ties L = 1 - k (1 - (-c) is 1 + c to the last bit)
    params = GbmParams(mu, sigma)
    pol = CorridorPolicy(p=p, give_frac=give, help_frac=helpf)
    ks = np.r_[np.linspace(lo, 1.0, n), 0.0, 1.0, -c]
    assert 1.0 - ks[-1] == 1.0 + c
    lu = _PayoffMoments(params, pol).rows(ks)[0]
    for with_return, orders in ((True, 3), (False, 2)):
        scalar = _PayoffMoments(params, pol, c, with_return)
        per_edge = _PayoffMoments(params, pol, np.full(ks.shape, c), with_return)
        assert scalar.gate_cdf is not None and per_edge.gate_cdf is None
        want = per_edge(ks)
        for got in (scalar(ks), scalar(ks, lu[:orders])):
            assert all(_same(g, w) for g, w in zip(got, want))


def test_maximize_m2_frozen_anchor_a():
    res = maximize_m2(A, POL4)
    assert res.value == pytest.approx(0.024304277993192416, rel=1e-12)
    assert res.k_star == pytest.approx(0.0, abs=1e-9)
    assert res.tie_flag is False
    assert len(res.candidates) == 1


def test_maximize_m2_frozen_anchor_b():
    res = maximize_m2(B, POLB)
    assert res.k_star == pytest.approx(0.19822613529072197, abs=1e-6)
    assert res.value == pytest.approx(0.038273113913158255, rel=1e-12)
    # two separated local maxima, not close enough for a tie at 1e-6
    assert res.tie_flag is False
    assert len(res.candidates) == 2
    assert res.candidates[0][0] == pytest.approx(0.0, abs=1e-9)


def test_maximize_m2_exact_tie():
    # log-volatility tuned so the two local maxima have equal value
    bt = GbmParams(0.06, 0.09328707495450515)
    res = maximize_m2(bt, POLB, k_min=0.0)
    assert res.tie_flag is True
    assert len(res.candidates) == 2
    v0, v1 = res.candidates[0][1], res.candidates[1][1]
    assert abs(v0 - v1) <= 1e-6
    # transfer-only slope at the smaller maximizer is positive, so the larger wins
    assert res.k_star == pytest.approx(res.candidates[1][0], rel=1e-12)
    assert res.k_star == pytest.approx(0.1955691353306097, abs=1e-6)


def test_maximize_m2_tie_resolved_to_the_smaller_boundary():
    # a tie whose transfer-only slope at the smaller maximizer is negative, so
    # the slope rule picks the smaller boundary
    params = GbmParams(0.06, 0.06619339832030946)
    pol = CorridorPolicy(give_frac=0.1, alpha=2.0)
    res = maximize_m2(params, pol)
    assert res.tie_flag is True
    (k0, v0), (k1, v1) = res.candidates
    assert k0 == 0.0 and k1 == pytest.approx(0.22315, abs=1e-5)
    assert (res.k_star, res.value) == (k0, v0)

    def quad_m2(k):
        # ungated: at c = -1 the help leg is never refused
        def objective(y):
            h = _h_payoff(y - 1.0, -1.0, k, pol)
            return h - pol.alpha * h**2
        return expect_quad(params, objective, breakpoints=(1.0 - k, 1.0 + k * pol.p))

    # quadrature, independent of the closed forms, confirms the tie
    q0, q1 = quad_m2(k0), quad_m2(k1)
    assert abs(q0 - q1) <= 1e-6 and abs(q0 - v0) <= 1e-8 and abs(q1 - v1) <= 1e-8


def test_m2_horizon_one_period_is_m2():
    for k in (0.0, 0.1215, 0.9):
        assert m2_horizon(A, POL4, k, 1) == m2(A, POL4, k)
    # compounding: the second period starts from 1 + psi1 and pays its penalty on it
    s1, s2 = psi1(A, POL4, 0.1), psi2(A, POL4, 0.1)
    two = (1.0 + s1) ** 2 - 1.0 - POL4.alpha * (s2 + (1.0 + s1) * s2)
    assert m2_horizon(A, POL4, 0.1, 2) == pytest.approx(two, rel=1e-13)


def test_maximize_m2_validation():
    with pytest.raises(ValueError):
        maximize_m2(A, POL4, grid=50)
    for T in (0, -1):
        with pytest.raises(ValueError):
            maximize_m2(A, POL4, T=T)
        with pytest.raises(ValueError):
            m2_horizon(A, POL4, 0.1, T)


def test_searches_refuse_k_min_and_c_outside_their_range():
    # checked once per search; a NaN fails the chained comparison
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="k_min"):
            maximize_m2(A, POL4, k_min=bad)
        with pytest.raises(ValueError, match="k_min"):
            k_of_c(A, POL4, -0.2, k_min=bad)
        with pytest.raises(ValueError, match="k_min"):
            maximize_m2(A, POL4, k_min=bad, T=20)
    for bad in (0.1, -1.5, math.nan):
        with pytest.raises(ValueError, match="c must be"):
            k_of_c(A, POL4, bad)
        with pytest.raises(ValueError, match="c must be"):
            k_of_c(A, POL4, bad, k_min=0.0)


def test_searches_check_their_arguments_once(monkeypatch):
    # a search checks k_min, T and the grid at entry, not at each of its
    # hundreds of grid and zoom evaluations
    calls = {"_check_k": 0, "_check_count": 0}
    for name in calls:
        def counted(*args, name=name, check=getattr(corridor_math, name)):
            calls[name] += 1
            return check(*args)
        monkeypatch.setattr(corridor_math, name, counted)
    maximize_m2(B, POLB, T=20)
    assert (calls["_check_k"], calls["_check_count"]) == (0, 2)  # T and grid
    calls.update(_check_k=0, _check_count=0)
    k_of_c(B, POLB, -0.02, k_min=0.05)
    assert (calls["_check_k"], calls["_check_count"]) == (1, 1)  # k_min and grid


def test_searches_build_one_evaluator_and_call_ndtr_once_per_evaluation(monkeypatch):
    # a search builds its payoff evaluator once per cutoff (maximize_m2's is
    # c = -1), besides admissible_min_k's and the one for the rows of L and U
    # its cutoffs share, and each zoom evaluation is one ndtr call; the shared
    # grid makes none, at any scalar cutoff, as its gate row is taken from L's
    # row and the column of 1 + c that the evaluator computed when built
    ndtr_calls, built, evaluations = [0], [], []

    def counted_ndtr(*args, real=corridor_math.ndtr, **kw):
        ndtr_calls[0] += 1
        return real(*args, **kw)

    class Counted(corridor_math._PayoffMoments):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(self)

        def __call__(self, k, lu=None):
            before = ndtr_calls[0]
            out = super().__call__(k, lu)
            evaluations.append(ndtr_calls[0] - before == (lu is None))
            return out

    monkeypatch.setattr(corridor_math, "ndtr", counted_ndtr)
    monkeypatch.setattr(corridor_math, "_PayoffMoments", Counted)
    for search, evaluators in ((lambda: maximize_m2(B, POLB, k_min=0.0, T=20), 2),
                               (lambda: k_of_c(B, POLB, -0.02, k_min=0.05), 2)):
        built.clear(), evaluations.clear()
        search()
        assert len(built) == evaluators and len(evaluations) > 1 and all(evaluations)
    built.clear(), evaluations.clear()
    res = fixed_point_barriers(B, POLB, [1.0] * 10, 0.2)
    assert res.converged and not res.cycle_flag
    assert len(built) == 2 + res.iterations and all(evaluations)
    for name in ("_payoff", "_edge_rows", "_moments_of_rows", "_moments", "_gated_on_rows"):
        assert not hasattr(corridor_math, name), name


@given(lo=st.floats(0.0, 1.0), width_exp=st.floats(-11.0, -3.0))
@example(lo=0.0, width_exp=-3.0)
@example(lo=1.0 - 1e-11, width_exp=-11.0)
@settings(max_examples=300, deadline=None)
def test_zoom_grid_is_linspace(lo, width_exp):
    # every zoom round scans np.linspace(lo, hi, 65), to the last bit
    hi = min(lo + 10.0**width_exp, 1.0)
    if not hi > lo:
        return
    grids = []

    def f(ks):
        grids.append(ks.copy())
        return -np.abs(ks - (lo + 0.37 * (hi - lo)))

    _zoom(f, lo, hi)
    assert grids
    assert grids[0][0] == lo and grids[0][-1] == hi
    for ks in grids:
        assert _same(ks, np.linspace(ks[0], ks[-1], 65))


def test_a_moment_that_overflows_is_invalid_input():
    # E[Y^2] = exp(2 mu + 2 sigma^2) is past the float range at sigma 30, E[Y]
    # at sigma 40: a ValueError naming the market, not an OverflowError
    wide, wider = GbmParams(0.0, 30.0), GbmParams(0.0, 40.0)
    for f in (lambda: maximize_m2(wide, POL4), lambda: m2(wide, POL4, 0.1),
              lambda: psi1(wide, POL4, 0.1), lambda: n_func(wide, POL4, -0.1, 0.1),
              lambda: profitability_lhs(wider, POL4, 0.1), lambda: xi(wider, XiParams(2.0, 4.0), 0.1)):
        with pytest.raises(ValueError, match=r"overflows a float for GbmParams\(mu=0.0, sigma="):
            f()
    # the mean alone is still in range at sigma 30
    assert profitability_lhs(wide, POL4, 0.1) <= 0.0


def test_maximize_m2_respects_k_min():
    res = maximize_m2(B, POLB, k_min=0.1)
    assert res.k_star >= 0.1
    assert res.value == pytest.approx(0.038273113913158255, rel=1e-10)


def test_maximize_m1_endpoints():
    res = maximize_m1(A, POL4)
    assert res.k_star in (0.0, 1.0)
    assert res.value == max(res.value_at_k_min, res.value_at_one)
    # frozen: the no-transfer endpoint wins for these parameters
    assert res.k_star == 1.0


@given(
    mu=st.floats(-0.05, 0.1),
    sigma=st.floats(0.02, 0.3),
    give=st.floats(0.05, 1.0),
    helpf=st.floats(0.05, 1.0),
    j_disc=st.floats(0.0, 0.9),
)
@settings(max_examples=100, deadline=None)
def test_maximize_m1_bang_bang(mu, sigma, give, helpf, j_disc):
    params = GbmParams(mu, sigma)
    pol = CorridorPolicy(give_frac=give, help_frac=helpf, J=j_disc)
    k_min = admissible_min_k(params, pol)
    res = maximize_m1(params, pol, k_min=k_min)
    assert res.k_star in (float(k_min), 1.0)
    # no admissible grid point beats the better endpoint; the admissible set
    # can be disconnected, so inadmissible interior boundaries do not count
    grid_best = max(
        m1(params, pol, float(k))
        for k in np.linspace(k_min, 1.0, 201)
        if profitability_lhs(params, pol, float(k)) <= LHS_TOL
    )
    assert res.value >= grid_best - 1e-9


def test_h_payoff_shapes_and_gate():
    pol = CorridorPolicy(give_frac=0.25, help_frac=0.5)
    k = 0.1
    # inside the corridor: identity
    assert _h_payoff(0.05, -0.5, k, pol) == pytest.approx(0.05)
    # above: give a quarter of the excess
    assert _h_payoff(0.3, -0.5, k, pol) == pytest.approx(0.3 - 0.25 * 0.2)
    # below with help granted
    assert _h_payoff(-0.3, -0.5, k, pol) == pytest.approx(-0.3 + 0.5 * 0.2)
    # below the cutoff: no help
    assert _h_payoff(-0.6, -0.5, k, pol) == pytest.approx(-0.6)
    # cutoff is strict: at rho == c help is refused
    assert _h_payoff(-0.5, -0.5, k, pol) == pytest.approx(-0.5)
    out = _h_payoff(np.array([-0.6, -0.3, 0.05, 0.3]), -0.5, k, pol)
    assert out.shape == (4,)


def test_n_func_frozen_and_ungated_limit():
    assert n_func(A, POL4, -0.5, 0.1) == pytest.approx(0.02348989059758339, rel=1e-12)
    # cutoff at -1 never bites: N(-1, k) is the plain objective
    for k in (0.0, 0.1, 0.4):
        assert n_func(A, POL4, -1.0, k) == pytest.approx(m2(A, POL4, k), rel=1e-13)
    with pytest.raises(ValueError):
        n_func(A, POL4, 0.5, 0.1)
    with pytest.raises(ValueError):
        n_func(A, POL4, -0.5, 1.5)


def test_n_func_matches_quadrature():
    c, k = -0.08, 0.12
    closed = n_func(A, POL4, c, k)
    quad = expect_quad(
        A,
        lambda y: _h_payoff(y - 1.0, c, k, POL4) - POL4.alpha * _h_payoff(y - 1.0, c, k, POL4) ** 2,
        breakpoints=(1.0 - k, 1.0 + k, 1.0 + c),
    )
    assert closed == pytest.approx(quad, abs=1e-10)


def test_n_func_gate_only_hurts():
    # refusing help below the cutoff can only lower the objective
    for c in (-0.3, -0.1, -0.02):
        for k in (0.05, 0.15, 0.35):
            assert n_func(A, POL4, c, k) <= m2(A, POL4, k) + 1e-14


def test_k_of_c_matches_m2_at_no_gate():
    full = maximize_m2(A, POL4)
    gated = k_of_c(A, POL4, -1.0)
    assert gated.value == pytest.approx(full.value, rel=1e-10)
    # one search: maximize_m2 is k_of_c's search at c = -1, tie diagnostics included
    tie = GbmParams(0.06, 0.09328707495450515)
    for params, k_min, grid in ((tie, 0.0, 2001), (B, 0.05, 1001), (A, None, 401)):
        res = maximize_m2(params, POLB, k_min=k_min, grid=grid)
        assert res == k_of_c(params, POLB, -1.0, grid=grid, k_min=k_min)
        assert res.tie_flag is (params is tie)


def test_k_of_c_with_binding_gate():
    res = k_of_c(B, POLB, -0.02)
    # value-based: the reported maximum dominates a dense scan
    grid_best = max(n_func(B, POLB, -0.02, float(k)) for k in np.linspace(0, 1, 501))
    assert res.value >= grid_best - 1e-9


def test_xi_frozen_and_derivatives():
    xp = XiParams(2.0, 4.0)
    assert xi(A, xp, 0.0) == pytest.approx(0.03784555545135419, rel=1e-13)
    assert xi_d1(A, xp, 0.0) == pytest.approx(0.08002948571734883, rel=1e-13)
    assert xi_d2(A, xp, 0.0) == pytest.approx(1.2547393006450187, rel=1e-12)
    # a < b makes the curvature at 0 positive
    assert xi_d2(A, XiParams(1.5, 5.0), 0.0) > 0
    with pytest.raises(ValueError):
        XiParams(1.0, 2.0)
    with pytest.raises(ValueError):
        XiParams(3.0, 2.0)


def test_xi_d1_matches_numeric():
    xp = XiParams(2.0, 4.0)
    for k in (0.05, 0.2, 0.5):
        num = (xi(A, xp, k + 1e-6) - xi(A, xp, k - 1e-6)) / 2e-6
        assert xi_d1(A, xp, k) == pytest.approx(num, abs=1e-8)
        num2 = (xi_d1(A, xp, k + 1e-6) - xi_d1(A, xp, k - 1e-6)) / 2e-6
        assert xi_d2(A, xp, k) == pytest.approx(num2, abs=1e-6)


# -- the memo of the boundary searches --------------------------------------

MEMOS = (corridor_math._admissible, corridor_math._grid_rows, corridor_math._search)


def _study(params, policy, clear=lambda: None):
    # one market's boundary study in the order of the bench's boundary_design;
    # `clear` runs before every call
    calls = (
        lambda: admissible_min_k(params, policy),
        lambda: mp_stationary_points(params, policy),
        lambda: maximize_m2(params, policy, k_min=out[0]),
        lambda: maximize_m2(params, policy, k_min=out[0], T=20),
        lambda: fixed_point_barriers(params, policy, [1.0] * 10, 0.2),
    )
    out = []
    for call in calls:
        clear()
        out.append(call())
    return out


def _study_markets(seed=29):
    # acceptance 2, the acceptance-3 tie and the eight markets that the bench's
    # boundary_design draws at `seed`, in the order it draws them
    u = np.random.default_rng(seed).uniform
    markets = [(A, POL4), (GbmParams(0.06, 0.09328707495450515), POLB)]
    for _ in range(2):
        markets += [
            (GbmParams(0.045, u(0.09, 0.15)), CorridorPolicy(alpha=u(2.0, 3.0))),
            (GbmParams(0.045, u(0.12, 0.17)), CorridorPolicy(p=u(1.4, 1.6), alpha=u(2.0, 3.0))),
            (GbmParams(0.045, u(0.09, 0.17)), CorridorPolicy(p=u(1.9, 2.1), alpha=u(1.0, 2.0))),
            (GbmParams(0.045, u(0.11, 0.17)),
             CorridorPolicy(give_frac=0.1, p=u(1.5, 2.0), alpha=u(1.0, 3.0))),
        ]
    return markets


def test_a_study_scans_admissibility_and_the_rows_once(monkeypatch, cold_memo):
    # on a cold memo one market's study builds the admissibility evaluator once,
    # and the fixed point's first best response (c = -1, T = 1) is maximize_m2's
    # search, so it builds no evaluator.  The admissibility scan reads the L/U
    # rows of its grid on [0, 1] and calls no ndtr; where k_min = 0 that is the
    # search grid, so the study makes one row pass, and with it the one pass of
    # c = -1 moments that both maximize_m2 searches read; where k_min > 0 the
    # search grid makes a second row pass
    built, rows, grid_calls, ndtr_calls = [], [0], [], [0]

    def counted_ndtr(*args, real=corridor_math.ndtr, **kw):
        ndtr_calls[0] += 1
        return real(*args, **kw)

    class Counted(corridor_math._PayoffMoments):
        def __init__(self, params, policy, c=-1.0, with_return=True):
            super().__init__(params, policy, c, with_return)
            built.append((c, with_return))

        def rows(self, k):
            rows[0] += 1
            return super().rows(k)

        def __call__(self, k, lu=None):
            before = ndtr_calls[0]
            out = super().__call__(k, lu)
            if np.size(k) == 2001:  # (with_return, gated, ndtr calls)
                grid_calls.append((self.r == 1.0, self.gate is not None, ndtr_calls[0] - before))
            return out

    monkeypatch.setattr(corridor_math, "ndtr", counted_ndtr)
    monkeypatch.setattr(corridor_math, "_PayoffMoments", Counted)
    cycles = []
    for params, policy in ((A, POL4), (B, POLB), _study_markets()[-1]):
        cold_memo()
        built.clear(), grid_calls.clear()
        rows[0] = 0
        starts = []  # where each call's evaluators begin in `built`
        k_min, *_, res = _study(params, policy, lambda: starts.append(len(built)))
        assert [with_return for _, with_return in built].count(False) == 1
        assert rows[0] == 1 + (k_min > 0)
        # the scan, then the fixed point's gated best responses; no ungated grid call
        assert grid_calls == [(False, False, 0)] + [(True, True, 0)] * (res.iterations - 1)
        # the fixed point builds one evaluator per best response after the
        # first, and two to score a 2-cycle
        in_fixed_point = built[starts[-1]:]
        assert len(in_fixed_point) == res.iterations - 1 + 2 * res.cycle_flag
        assert all(c != -1.0 for c, _ in in_fixed_point)
        cycles.append((k_min > 0, res.cycle_flag))
    assert cycles == [(False, True), (False, False), (True, False)]


def test_studies_on_the_memo_equal_studies_on_a_cold_one(cold_memo):
    for params, policy in _study_markets():
        assert _study(params, policy) == _study(params, policy, cold_memo)


def test_the_memo_keeps_read_only_arrays_of_about_144_kb():
    # the grid, its L/U rows (3 orders) and its moments at c = -1 (2 arrays);
    # k_min = 0, so maximize_m2's search hit the grid of the admissibility scan
    maximize_m2(A, POL4)
    market = corridor_math._Bits(A, POL4)
    key = corridor_math._grid_key(market, None, 2001)
    grid, lu, ungated = corridor_math._grid_rows(market, key)
    assert corridor_math._grid_rows.cache_info().hits == 2
    assert grid.nbytes + lu.nbytes + sum(m.nbytes for m in ungated) == 9 * 2001 * 8
    for array in (grid, lu, *ungated):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5


def test_inputs_equal_in_value_but_not_in_bits_share_no_entry(cold_memo):
    # -0.0 == 0.0 and 2 == 2.0 hash alike, but each input gets its own entry,
    # and what the memo returns is bit for bit what a cold call returns
    markets = [(GbmParams(mu, 0.1), CorridorPolicy(alpha=alpha))
               for mu, alpha in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                                 (0.0, 2.0), (0.0, 2))]
    searches = (
        lambda params, policy: admissible_min_k(params, policy),
        lambda params, policy: maximize_m2(params, policy, T=20),
        lambda params, policy: k_of_c(params, policy, -0.05),
        lambda params, policy: fixed_point_barriers(params, policy, [1.0] * 10, 0.2),
    )
    for i, search in enumerate(searches):
        cold = []
        for params, policy in markets:
            cold_memo()
            cold.append(pickle.dumps(search(params, policy)))
        cold_memo()
        for (params, policy), want in zip(markets, cold):
            misses = [memo.cache_info().misses for memo in MEMOS[:2]]
            assert pickle.dumps(search(params, policy)) == want
            assert corridor_math._admissible.cache_info().misses == misses[0] + 1
            # the admissibility scan's grid on [0, 1], and each search's on [k_min, 1], k_min > 0
            assert corridor_math._grid_rows.cache_info().misses == misses[1] + 1 + (i > 0)


def test_a_cutoff_of_any_scalar_type_gets_the_search_of_a_cold_call(cold_memo):
    cutoffs = (-0.02, np.float64(-0.02), np.array(-0.02), -1.0, np.float64(-1.0), np.array(-1.0))
    cold = []
    for c in cutoffs:
        cold_memo()
        cold.append(k_of_c(B, POLB, c))
    assert cold[:3] == [cold[0]] * 3 and cold[3:] == [maximize_m2(B, POLB)] * 3
    cold_memo()
    maximize_m2(B, POLB)  # the search at c = -1.0 is in the memo
    for c, want in zip(cutoffs, cold):
        assert pickle.dumps(k_of_c(B, POLB, c)) == pickle.dumps(want)


def test_the_memo_holds_nothing_of_a_market_after_the_next_study(cold_memo):
    first, second = (A, POL4), (B, POLB)
    k_first = _study(*first)[0]
    misses = [memo.cache_info().misses for memo in MEMOS]
    _study(*second)
    # the second study fills every entry (the sizes are 1, 1 and 2) ...
    for memo, before in zip(MEMOS, misses):
        info = memo.cache_info()
        assert info.currsize == info.maxsize and info.misses - before >= info.maxsize
    # ... so the first market's searches and its boundary all miss
    misses = [memo.cache_info().misses for memo in MEMOS]
    maximize_m2(*first, k_min=k_first)
    admissible_min_k(*first)
    assert [memo.cache_info().misses for memo in MEMOS] == [m + 1 for m in misses]


# -- the bisection -----------------------------------------------------------


def _bisect_a_level_a_call(inside, lo, hi, tol):
    # the reference for `_bisect`: one call of `inside` per level
    while np.any(hi - lo > tol):
        mid = 0.5 * (lo + hi)
        yes = inside(mid)
        lo, hi = np.where(yes, lo, mid), np.where(yes, mid, hi)
    return hi


def test_the_bisection_takes_five_levels_a_call_with_the_results_of_one(monkeypatch, cold_memo):
    # 400 random markets (136 with k_min > 0, whose one scalar bracket
    # admissible_min_k bisects over 9 levels, and 97 with two stationary
    # points, bisected together over 28 levels) and the bench's markets at seeds
    # 29 and 61.  admissible_min_k sums its predicate over pieces for 31 points
    # at once, where the reference sums them for one (see `_member_sum`)
    rng = np.random.default_rng(2030)
    markets = [(GbmParams(rng.uniform(-0.1, 0.15), rng.uniform(0.02, 0.4)),
                CorridorPolicy(p=rng.uniform(1.0, 3.0), give_frac=rng.uniform(0.0, 1.0),
                               help_frac=rng.uniform(0.0, 1.0)))
               for _ in range(400)] + _study_markets(29) + _study_markets(61)

    def boundaries(bisect):
        calls = []  # per bisection, the calls of its predicate

        def counted(inside, lo, hi, tol):
            n = len(calls)
            calls.append(0)

            def predicate(k):
                calls[n] += 1
                return inside(k)
            return bisect(predicate, lo, hi, tol)

        monkeypatch.setattr(corridor_math, "_bisect", counted)
        out = []
        for params, policy in markets:
            cold_memo()
            out.append((admissible_min_k(params, policy), mp_stationary_points(params, policy)))
        return pickle.dumps(out), out, calls

    (got, out, calls), (want, _, levels) = boundaries(corridor_math._bisect), boundaries(
        _bisect_a_level_a_call)
    assert got == want
    assert calls == [-(-n // 5) for n in levels]
    assert sum(k > 0 for k, _ in out) >= 120 and sum(len(s) == 2 for _, s in out) >= 80
    assert min(levels) == 0 and 9 in levels and max(levels) == 28


def test_z_star_edges():
    # empty buffer: threshold at the tightest boundary
    assert z_star([0.3, 0.5], [1.0, 1.0], 0.0) == pytest.approx(-0.3)
    # nobody ever claims
    assert z_star([1.0, 1.0], [1.0, 1.0], 0.5) == -1.0
    # single agent closed form: -(2*theta + eta*k) / (2*theta + eta)
    assert z_star([0.2], [1.0], 0.1) == pytest.approx(-(0.2 + 0.2) / (0.2 + 1.0))
    # no help leg at all
    assert z_star([0.2], [1.0], 0.1, help_frac=0.0) == -1.0
    # a buffer theta / help_frac past the floats covers everything; both gave NaN
    assert z_star([0.2], [1.0], 0.1, help_frac=5e-324) == -1.0
    assert z_star([0.2, 0.5], [1.0, 1.0], 1e308) == -1.0
    assert z_star([0.2, 0.5], [1.0, 1.0], np.float64(1e308)) == -1.0  # numpy would warn
    assert z_star([0.2], [1.0], 0.1, help_frac=np.float64(5e-324)) == -1.0
    # huge buffer covers everything down to the boundary
    assert z_star([0.2], [1.0], 1e6) == pytest.approx(-1.0, abs=1e-5)
    with pytest.raises(ValueError):
        z_star([0.2], [1.0, 1.0], 0.1)
    with pytest.raises(ValueError):
        z_star([1.2], [1.0], 0.1)
    with pytest.raises(ValueError):
        z_star([0.2], [1.0], -0.1)
    for ks, etas, theta in (([0.2], [1.0], math.nan), ([0.2], [1.0], math.inf),
                            ([0.2, 0.3], [1.0, math.nan], 0.1), ([math.nan], [1.0], 0.1)):
        with pytest.raises(ValueError):
            z_star(ks, etas, theta)
    with pytest.raises(ValueError):
        z_star([0.2], [1.0], 0.1, help_frac=math.nan)
    with pytest.raises(ValueError):
        z_star([0.2], [1.0], 0.1, help_frac=-0.1)
    with pytest.raises(ValueError, match=r"k_vec must be in \[0, 1\]"):
        z_star([1.5], [1.0], 0.0)
    # a pool with no members has no threshold, and so no fixed point: both
    # returned a cutoff of -1.0, the fixed point with converged=True
    with pytest.raises(ValueError, match="unit counts"):
        z_star([], [], 0.2)
    with pytest.raises(ValueError, match="unit counts"):
        fixed_point_barriers(A, CorridorPolicy(alpha=4.0), [], 0.2)


def test_z_star_active_set_drops_wide_boundaries():
    # with a small buffer the wide-boundary agent is out of reach and inactive
    tight = z_star([0.1, 0.9], [1.0, 1.0], 0.05)
    only_tight = z_star([0.1], [1.0], 0.05)
    assert tight == pytest.approx(only_tight)


def _z_star_loop(ks, etas, theta, help_frac):
    # the one-profile threshold written out member by member, as the reference
    # for the array form; only the order of its sums differs
    if help_frac <= 0:
        return -1.0
    buffer = theta / help_frac
    active = [
        i for i, k in enumerate(ks)
        if buffer * (1.0 - k) - sum(e * max(k - kj, 0.0) for kj, e in zip(ks, etas)) >= 0.0
    ]
    denom = buffer + sum(etas[i] for i in active)
    if denom <= 0:
        return -1.0
    return min(0.0, max(-1.0, -(buffer + sum(etas[i] * ks[i] for i in active)) / denom))


def test_z_star_over_profiles_matches_row_calls():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 8, 9, 30):
        etas = rng.uniform(0.0, 3.0, n)
        profiles = rng.uniform(0.0, 1.0, (40, n))
        profiles[:3] = 0.0
        profiles[3:6] = 1.0
        profiles[6:12] = rng.choice([0.0, 0.1, 0.5, 1.0], (6, n))
        for theta, help_frac in ((0.0, 0.5), (1.3, 0.5), (0.4, 1.0), (2.0, 0.0)):
            batched = z_star(profiles, etas, theta, help_frac)
            assert batched.shape == (40,)
            rows = [z_star(row, etas, theta, help_frac) for row in profiles]
            assert all(type(z) is float for z in rows)
            assert batched.tolist() == rows
            loop = [_z_star_loop(row.tolist(), etas.tolist(), theta, help_frac) for row in profiles]
            assert np.max(np.abs(batched - loop)) <= 1e-15
    # an empty buffer with a member at k = 0 gives threshold 0.0, never -0.0
    assert math.copysign(1.0, z_star([0.0, 0.5], [1.0, 1.0], 0.0)) == 1.0
    with pytest.raises(ValueError):
        z_star(np.zeros((2, 2, 2)), [1.0, 1.0], 0.1)
    with pytest.raises(ValueError):
        z_star(np.zeros((3, 2)), [1.0, 1.0, 1.0], 0.1)
