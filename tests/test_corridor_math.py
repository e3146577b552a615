import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor_pension.corridor_math import (
    LHS_TOL,
    CorridorPolicy,
    XiParams,
    admissible_min_k,
    h_payoff,
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
)
from corridor_pension.market_model import GbmParams, expect_quad, partial_moment

A = GbmParams(0.045, 0.06)
POL4 = CorridorPolicy(alpha=4.0)
B = GbmParams(0.06, 0.092367)
POLB = CorridorPolicy(alpha=2.0)
ASYM = CorridorPolicy(p=2.0)
AS = GbmParams(0.015, 0.03)


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
    assert psi1(A, replace(POL4, k=0.1215)) == pytest.approx(0.046877451288030156, rel=1e-13)
    assert psi1(A, replace(POL4, k=1.0)) == pytest.approx(0.04791240563888244, rel=1e-13)
    assert psi2(A, POL4) == pytest.approx(0.003385319364540458, rel=1e-13)
    assert psi2(A, replace(POL4, k=0.1215)) == pytest.approx(0.005886101906773182, rel=1e-13)
    assert psi1(B, replace(POLB, k=0.1897)) == pytest.approx(0.06488962555377938, rel=1e-13)
    assert psi2(B, replace(POLB, k=0.1897)) == pytest.approx(0.013309352681658063, rel=1e-13)


def test_lhs_frozen_values():
    assert profitability_lhs(A, POL4) == pytest.approx(-0.010066850187528245, rel=1e-13)
    assert profitability_lhs(AS, ASYM) == pytest.approx(-0.002432279222317202, rel=1e-13)
    # wide boundaries put both legs outside the support
    assert profitability_lhs(AS, replace(ASYM, k=1.0)) == 0.0


def test_m2_frozen_values():
    assert m2(A, POL4, 0.0) == pytest.approx(0.024304277993192416, rel=1e-13)
    assert m2(A, POL4, 0.1215) == pytest.approx(0.023333043660937428, rel=1e-13)
    assert m2(A, POL4, 0.9) == pytest.approx(0.02288857981229575, rel=1e-13)
    assert m2(B, POLB, 0.0) == pytest.approx(0.038036084101747275, rel=1e-13)
    assert m2(B, POLB, 0.1897) == pytest.approx(0.03827092019046325, rel=1e-13)


def test_m2_equals_psi_combination():
    for k in (0.0, 0.07, 0.3, 1.0):
        pol = replace(POL4, k=k)
        assert m2(A, POL4, k) == pytest.approx(
            psi1(A, pol) - POL4.alpha * psi2(A, pol), rel=1e-14
        )


def test_psi_matches_quadrature():
    pol = replace(POL4, k=0.15)
    L, U = 1.0 - 0.15, 1.0 + 0.15

    def g(y):
        return (
            (y - 1.0)
            - pol.give_frac * np.maximum(y - 1.0 - 0.15 * pol.p, 0.0)
            + pol.help_frac * np.maximum(1.0 - 0.15 - y, 0.0)
        )

    assert psi1(A, pol) == pytest.approx(expect_quad(A, g, (L, U)), abs=1e-11)
    assert psi2(A, pol) == pytest.approx(expect_quad(A, lambda y: g(y) ** 2, (L, U)), abs=1e-11)


def test_m1_is_discounted_lhs():
    pol = replace(POL4, J=0.3)
    for k in (0.0, 0.2, 0.8):
        assert m1(A, pol, k) == pytest.approx(
            0.7 * profitability_lhs(A, replace(pol, k=k)), rel=1e-14
        )
    assert m1(A, POL4, 1.0) == 0.0


def test_admissible_min_k():
    assert admissible_min_k(A, POL4) == 0.0
    # asymmetric case: admissible at 0, inadmissible band in the interior
    assert admissible_min_k(AS, ASYM) == 0.0
    assert profitability_lhs(AS, replace(ASYM, k=0.08)) > 0
    with pytest.raises(ValueError):
        admissible_min_k(A, POL4, tol=0.0)


def test_admissible_min_k_interior_crossing():
    # pure help (no give) is a net cost at small k, admissible only once k is large
    pol = CorridorPolicy(give_frac=0.0, help_frac=0.5)
    k_min = admissible_min_k(A, pol)
    assert k_min > 0.2
    assert profitability_lhs(A, replace(pol, k=k_min)) <= LHS_TOL
    assert profitability_lhs(A, replace(pol, k=k_min - 0.01)) > LHS_TOL


def test_mp_stationary_points_asymmetric():
    pts = mp_stationary_points(AS, ASYM)
    maxima = [k for k, kind in pts if kind == "max"]
    assert len(maxima) == 1
    assert maxima[0] == pytest.approx(0.03257706417389133, abs=1e-9)
    # the stationary point sits inside the inadmissible band
    assert profitability_lhs(AS, replace(ASYM, k=maxima[0])) == pytest.approx(
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
    }
    for name, f in curves.items():
        scalars = [f(float(k)) for k in ks]
        assert all(type(v) is float for v in scalars), name
        vec = f(ks)
        assert isinstance(vec, np.ndarray) and vec.shape == ks.shape, name
        assert vec == pytest.approx(scalars, rel=1e-14, abs=1e-17), name
    lhs = [profitability_lhs(A, replace(pol, k=float(k))) for k in ks]
    assert m1(A, replace(pol, J=0.0), ks) == pytest.approx(lhs, rel=1e-14, abs=1e-17)
    assert type(psi1(A, pol)) is float and type(psi2(A, pol)) is float
    with pytest.raises(ValueError):
        n_func(A, pol, -0.1, np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        xi(A, xp, np.array([-0.1, 0.5]))
    for name in ("m1", "m2", "m2_horizon"):
        for bad in (1.5, -0.2, np.array([0.5, 1.5]), np.array([np.nan])):
            with pytest.raises(ValueError):
                curves[name](bad)


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
    pol = CorridorPolicy(k=1.0, p=p, give_frac=give, help_frac=helpf)
    assert profitability_lhs(params, pol) <= LHS_TOL
    k_min = admissible_min_k(params, pol)
    assert type(k_min) is float and 0.0 <= k_min <= 1.0


def test_lhs_and_xi_match_partial_moment_formulas():
    # the shortfall and excess terms written out over partial_moment, as each
    # functional computed them before they shared one payoff core
    inf = math.inf

    def short_excess(params, L, U):
        short = L * partial_moment(params, 0, 0.0, L) - partial_moment(params, 1, 0.0, L) if L > 0 else 0.0
        excess = partial_moment(params, 1, U, inf) - U * partial_moment(params, 0, U, inf)
        return short, excess

    xp = XiParams(2.0, 4.0)
    for params in (A, B, AS, GbmParams(0.01, 0.2)):
        mean_rho = partial_moment(params, 1, 0.0, inf) - 1.0
        for k in np.linspace(0.0, 1.0, 51):
            k = float(k)
            for pol in (POL4, ASYM, CorridorPolicy(give_frac=0.1, help_frac=0.9, p=1.5)):
                short, excess = short_excess(params, 1.0 - k, 1.0 + k * pol.p)
                want = pol.help_frac * short - pol.give_frac * excess
                assert profitability_lhs(params, replace(pol, k=k)) == pytest.approx(want, rel=1e-13, abs=1e-16)
            short, excess = short_excess(params, 1.0 - k, 1.0 + k)
            want = mean_rho + short / xp.a - excess / xp.b
            assert xi(params, xp, k) == pytest.approx(want, rel=1e-13, abs=1e-16)


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


def test_m2_horizon_one_period_is_m2():
    for k in (0.0, 0.1215, 0.9):
        assert m2_horizon(A, POL4, k, 1) == m2(A, POL4, k)
    # compounding: the second period starts from 1 + psi1 and pays its penalty on it
    s1, s2 = psi1(A, replace(POL4, k=0.1)), psi2(A, replace(POL4, k=0.1))
    two = (1.0 + s1) ** 2 - 1.0 - POL4.alpha * (s2 + (1.0 + s1) * s2)
    assert m2_horizon(A, POL4, 0.1, 2) == pytest.approx(two, rel=1e-13)


def test_maximize_m2_validation():
    with pytest.raises(ValueError):
        maximize_m2(A, POL4, grid=50)
    with pytest.raises(ValueError):
        maximize_m2(A, POL4, tol=0.0)
    for T in (0, -1):
        with pytest.raises(ValueError):
            maximize_m2(A, POL4, T=T)


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
        if profitability_lhs(params, replace(pol, k=float(k))) <= LHS_TOL
    )
    assert res.value >= grid_best - 1e-9


def test_h_payoff_shapes_and_gate():
    pol = CorridorPolicy(give_frac=0.25, help_frac=0.5)
    k = 0.1
    # inside the corridor: identity
    assert h_payoff(0.05, -0.5, k, pol) == pytest.approx(0.05)
    # above: give a quarter of the excess
    assert h_payoff(0.3, -0.5, k, pol) == pytest.approx(0.3 - 0.25 * 0.2)
    # below with help granted
    assert h_payoff(-0.3, -0.5, k, pol) == pytest.approx(-0.3 + 0.5 * 0.2)
    # below the cutoff: no help
    assert h_payoff(-0.6, -0.5, k, pol) == pytest.approx(-0.6)
    # cutoff is strict: at rho == c help is refused
    assert h_payoff(-0.5, -0.5, k, pol) == pytest.approx(-0.5)
    out = h_payoff(np.array([-0.6, -0.3, 0.05, 0.3]), -0.5, k, pol)
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
        lambda y: h_payoff(y - 1.0, c, k, POL4) - POL4.alpha * h_payoff(y - 1.0, c, k, POL4) ** 2,
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
