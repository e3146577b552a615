"""Independent computations the benchmark checks the program's outputs against.

Nothing here calls the closed forms, optimizers, pool engines, ledger or
settlement code under test.  Expectations over the lognormal gross return Y
are adaptive quadrature (`expect_quad`, a thin wrapper over scipy's `quad`),
the lognormal tails come from `math.erfc`, and the recursions below are written out
here from the model's definitions.
"""

from __future__ import annotations

import math

import numpy as np

from corridor_pension.market_model import expect_quad


def corridor_payoff(policy, k: float):
    """g(y): the relative account change over one period at boundary k, and its kinks."""
    L, U = 1.0 - k, 1.0 + k * policy.p

    def g(y):
        return (
            (y - 1.0)
            - policy.give_frac * np.maximum(y - U, 0.0)
            + policy.help_frac * np.maximum(L - y, 0.0)
        )

    return g, (L, U)


def payoff_moments(params, policy, k: float, orders=(1, 2)) -> list[float]:
    """E[g(Y)^j] for each j in `orders`, by quadrature."""
    g, kinks = corridor_payoff(policy, k)
    return [expect_quad(params, lambda y, j=j: g(y) ** j, kinks) for j in orders]


def lhs(params, policy, k: float) -> float:
    """Expected net outflow of the collective: help E[(L-Y)+] - give E[(Y-U)+]."""
    L, U = 1.0 - k, 1.0 + k * policy.p
    return expect_quad(
        params,
        lambda y: policy.help_frac * np.maximum(L - y, 0.0)
        - policy.give_frac * np.maximum(y - U, 0.0),
        (L, U),
    )


def lognormal_tails(params, y: float) -> tuple[float, float]:
    """(P(Y < y), P(Y > y)), each from `math.erfc` so neither tail cancels to 0 early."""
    if y <= 0:
        return 0.0, 1.0
    z = (math.log(y) - params.mu) / (params.sigma * math.sqrt(2.0))
    return 0.5 * math.erfc(-z), 0.5 * math.erfc(z)


def lhs_slope(params, policy, k: float) -> float:
    """d/dk of `lhs`: -help P(Y < 1-k) + give p P(Y > 1+kp)."""
    below = lognormal_tails(params, 1.0 - k)[0]
    above = lognormal_tails(params, 1.0 + k * policy.p)[1]
    return -policy.help_frac * below + policy.give_frac * policy.p * above


def horizon_value(s1: float, s2: float, alpha: float, T: int, v0=1.0, gamma_pi=0.0) -> float:
    """Gain over v0 at retirement minus alpha times the penalty, boundary held for T periods.

    m <- gamma_pi + m (1 + s1) from m = v0; each period adds m s2 to the penalty.
    """
    m, pen = v0, 0.0
    for _ in range(T):
        pen += m * s2
        m = gamma_pi + m * (1.0 + s1)
    return (m - v0) - alpha * pen


def gated_objective(params, policy, c: float, k: float) -> float:
    """E[h - alpha h^2] for the payoff whose help leg is paid only when rho > c."""

    def h(y):
        r = y - 1.0
        return (
            r
            - policy.give_frac * np.maximum(r - k * policy.p, 0.0)
            + policy.help_frac * np.maximum(-k - r, 0.0) * (r > c)
        )

    return expect_quad(
        params, lambda y: h(y) - policy.alpha * h(y) ** 2, (1.0 - k, 1.0 + k * policy.p, 1.0 + c)
    )


def common_threshold(k: float, etas, theta: float, help_frac: float) -> float:
    """Coverage threshold on the net return when every member uses boundary k.

    The collective covers the weighted claims sum(eta) (-k - rho) at a help
    fraction h exactly when theta (1 + rho) >= h sum(eta) (-k - rho), i.e. for
    rho >= -(theta/h + k sum(eta)) / (theta/h + sum(eta)); clamped to [-1, 0].
    """
    if help_frac <= 0:
        return -1.0
    buffer, total = theta / help_frac, float(sum(etas))
    return min(0.0, max(-1.0, -(buffer + k * total) / (buffer + total)))


def pool_moments(params, policy, k: float, T: int, gamma_pi: float, v0: float = 1.0) -> dict:
    """Exact mean and variance of V_T and of the realized variation under AlwaysHelp.

    Under AlwaysHelp every claim is paid, so a member's value follows
    V <- V (1 + g(Y)) + gamma_pi and the realized variation adds V g(Y)^2 per
    period, with Y independent of the past.  The first and second moments of
    (V, R) therefore follow a closed recursion in E[g^j], j = 1..4.
    """
    e1, e2, e3, e4 = payoff_moments(params, policy, k, orders=(1, 2, 3, 4))
    ey, ey2 = 1.0 + e1, 1.0 + 2.0 * e1 + e2  # E[1+g], E[(1+g)^2]
    ex, ex2, exy = e2, e4, e2 + e3  # X = g^2: E[X], E[X^2], E[X (1+g)]
    c = gamma_pi
    m1, m2, r1, r2, rv = v0, v0 * v0, 0.0, 0.0, 0.0
    for _ in range(T):
        m1, m2, r1, r2, rv = (
            m1 * ey + c,
            m2 * ey2 + 2.0 * c * m1 * ey + c * c,
            r1 + m1 * ex,
            r2 + 2.0 * rv * ex + m2 * ex2,
            rv * ey + c * r1 + m2 * exy + c * m1 * ex,
        )
    return {
        "v_mean": m1,
        "v_var": max(m2 - m1 * m1, 0.0),
        "rv_mean": r1,
        "rv_var": max(r2 - r1 * r1, 0.0),
    }


def z_score(values, expected: float, exact_se: float) -> float:
    """(mean - expected) / se for the mean of `values`, one value per seeded operation.

    se is the larger of the spread-based standard error across the operations
    and `exact_se`, the standard error the model implies; the floor keeps a
    spread estimated from a handful of operations from reading too small.
    """
    n = len(values)
    mean = float(np.mean(values))
    se = exact_se
    if n >= 2:
        se = max(se, float(np.std(values, ddof=1)) / math.sqrt(n))
    return (mean - expected) / se if se > 0 else (0.0 if mean == expected else math.inf)


def monotone_replay(events) -> list[tuple[dict, dict]]:
    """Indices and shares after each event of a monotone ledger, I <- I (1 + a) + J.

    `events` holds (contributions, a) pairs with a a per-id mapping; the first
    event starts the indices at the raw contributions.
    """
    out, indices = [], {}
    for n, (contrib, a) in enumerate(events):
        ids = set(indices) | set(contrib)
        if n == 0:
            indices = dict(contrib)
        else:
            indices = {
                j: indices.get(j, 0.0) * (1.0 + a.get(j, 0.0)) + contrib.get(j, 0.0) for j in ids
            }
        total = sum(indices.values())
        out.append((dict(indices), {j: v / total for j, v in indices.items()}))
    return out


def direct_shares(events) -> dict:
    """Shares by the direct recursion s' = (s C_pre + J) / C_post over (contributions, C_pre) pairs."""
    shares: dict = {}
    for contrib, c_pre in events:
        c_post = c_pre + sum(contrib.values())
        ids = set(shares) | set(contrib)
        shares = {j: (shares.get(j, 0.0) * c_pre + contrib.get(j, 0.0)) / c_post for j in ids}
    return shares


def first_admissible(params, policy, grid: int = 201, tol: float = 1e-9) -> float | None:
    """Smallest k in [0, 1] with lhs(k) <= 0: a scan for the first sign change, then bisection."""
    ks = np.linspace(0.0, 1.0, grid)
    for i, k in enumerate(ks):
        if lhs(params, policy, float(k)) <= 0:
            if i == 0:
                return 0.0
            lo, hi = float(ks[i - 1]), float(k)
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if lhs(params, policy, mid) <= 0 else (mid, hi)
            return hi
    return None
