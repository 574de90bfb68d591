"""Independent oracles used to validate engine results.

Each oracle deliberately avoids the code path it checks: interpolation
by divided differences instead of least squares, trapezoid grid scans
instead of closed-form cubics, pool simulation instead of the analytic
impermanent-loss formula, and bisection on the raw balance residual
instead of the piecewise quadratic solver (and, for flows large enough
to cancel a float residual, bisection in exact rational arithmetic).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from dfmm.pricing import RebalanceParams, premium_fn, premium_units


def newton_quadratic(points):
    """Exact degree-2 interpolation of three points, via divided
    differences, expanded to standard coefficients (c2, c1, c0)."""
    (x0, y0), (x1, y1), (x2, y2) = points
    f01 = (y1 - y0) / (x1 - x0)
    f12 = (y2 - y1) / (x2 - x1)
    f012 = (f12 - f01) / (x2 - x0)
    c2 = f012
    c1 = f01 - f012 * (x0 + x1)
    c0 = y0 - f01 * x0 + f012 * x0 * x1
    return c2, c1, c0


def cpmm_impermanent_loss(ratio: float) -> float:
    """Impermanent loss from simulating a constant-product pool.

    Start with one unit of each asset (price 1), let an arbitrageur
    trade against the pool until its marginal price equals the external
    ratio (found by bisection on the post-trade reserve), then compare
    the pool value against buy-and-hold, normalised by the initial
    position value.
    """
    x0 = y0 = 1.0
    k = x0 * y0
    lo, hi = 1e-9, 1e9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        price = k / (mid * mid)  # pool price y/x after arbitrage to reserve x=mid
        if price > ratio:
            lo = mid
        else:
            hi = mid
    x1 = 0.5 * (lo + hi)
    y1 = k / x1
    pool_value = x1 * ratio + y1
    hold_value = x0 * ratio + y0
    initial_value = x0 * 1.0 + y0
    return (pool_value - hold_value) / initial_value


def grid_solve_volume(c2, c1, c0, v1, v_hi, target, steps=10**6):
    """Invert the cumulative curve value by a fine trapezoid scan."""
    vs = np.linspace(v1, v_hi, steps + 1)
    dens = (c2 * vs + c1) * vs + c0
    dv = (v_hi - v1) / steps
    increments = 0.5 * (dens[1:] + dens[:-1]) * dv
    cum = np.concatenate(([0.0], np.cumsum(increments)))
    idx = int(np.searchsorted(cum, target))
    if idx == 0:
        return v1
    if idx > steps:
        raise ValueError("target beyond grid capacity")
    c_lo, c_hi = cum[idx - 1], cum[idx]
    frac = 0.0 if c_hi == c_lo else (target - c_lo) / (c_hi - c_lo)
    return float(vs[idx - 1] + frac * dv)


def balance_residual(
    v: float,
    v_s: float,
    t_in0: float,
    t_out0: float,
    params_in: RebalanceParams,
    params_out: RebalanceParams,
    theta: float,
) -> float:
    return (
        v
        + premium_fn(t_in0 - v, params_in)
        - premium_fn(t_in0, params_in)
        + premium_fn(t_out0 + v, params_out)
        - premium_fn(t_out0, params_out)
        + theta * v_s
        - v_s
    )


def bisect_adjusted_notional(
    v_s: float,
    t_in0: float,
    t_out0: float,
    params_in: RebalanceParams,
    params_out: RebalanceParams,
    theta: float,
) -> float:
    """Scan the balance residual from zero for its first sign change,
    then bisect. Independent of the piecewise-quadratic solver."""
    scale = max(v_s, abs(t_in0), abs(t_out0), 1.0)
    step = scale / 4096.0
    lo = 0.0
    f_lo = balance_residual(0.0, v_s, t_in0, t_out0, params_in, params_out, theta)
    if f_lo == 0.0:
        return 0.0
    hi = None
    v = step
    for _ in range(500_000):
        f = balance_residual(v, v_s, t_in0, t_out0, params_in, params_out, theta)
        if f == 0.0:
            return v
        if (f > 0) != (f_lo > 0):
            hi = v
            break
        lo, f_lo = v, f
        v += step
    if hi is None:
        raise ValueError("no sign change found")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = balance_residual(mid, v_s, t_in0, t_out0, params_in, params_out, theta)
        if f == 0.0:
            return mid
        if (f > 0) == (f_lo > 0):
            lo, f_lo = mid, f
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_positive_quadratic(rng: np.random.Generator):
    """(c2, c1, c0, v_hi) with density strictly positive on [0, v_hi]."""
    v_hi = float(rng.uniform(2.0, 20.0))
    c2 = float(rng.uniform(-0.5, 0.5))
    c1 = float(rng.uniform(-1.0, 1.0))
    vs = np.linspace(0.0, v_hi, 512)
    base = (c2 * vs + c1) * vs
    margin = float(rng.uniform(0.5, 3.0))
    c0 = margin - float(base.min())
    return c2, c1, c0, v_hi


def scan_commit(
    p0: int,
    v_s_units: int,
    t_in0_u: int,
    t_out0_u: int,
    params_in: RebalanceParams,
    params_out: RebalanceParams,
    theta: float,
) -> tuple[int, int, int, int]:
    """The integer commit by pricing all 13 candidates p0-6 .. p0+6.

    Returns (p, rp_in, rp_out, fee). This is the scan the pricing module
    replaced with a bounded outward search, kept as its reference.
    """
    r_in0_u = premium_units(t_in0_u, params_in)
    r_out0_u = premium_units(t_out0_u, params_out)
    target_fee = round(theta * v_s_units)

    def implied(p: int) -> tuple[int, int, int]:
        rp_in = premium_units(t_in0_u - p, params_in) - r_in0_u
        rp_out = premium_units(t_out0_u + p, params_out) - r_out0_u
        return rp_in, rp_out, v_s_units - p - rp_in - rp_out

    best_p, best_err = None, None
    for p in range(max(0, p0 - 6), p0 + 7):
        _, _, fee = implied(p)
        err = abs(fee - target_fee) + (10**9 if fee < 0 else 0)
        if best_err is None or err < best_err:
            best_p, best_err = p, err
    p = best_p
    rp_in_u, rp_out_u, fee_u = implied(p)
    while fee_u < 0 and p > 0:
        p -= 1
        rp_in_u, rp_out_u, fee_u = implied(p)
    return p, rp_in_u, rp_out_u, fee_u


def exact_adjusted_notional(
    v_s: float,
    t_in0: float,
    t_out0: float,
    params_in: RebalanceParams,
    params_out: RebalanceParams,
    theta: float,
) -> float:
    """Root of the balance residual bracketed from zero and bisected in
    exact rational arithmetic (every float is a rational), so large flows
    cannot cancel it away. Assumes one root in the first bracket."""

    def premium(t: Fraction, p: RebalanceParams) -> Fraction:
        if t >= 0:
            return t * (t + Fraction(p.a_rhs)) * Fraction(p.d_rhs)
        return -t * (-t + Fraction(p.a_lhs)) * Fraction(p.d_lhs)

    t_in, t_out = Fraction(t_in0), Fraction(t_out0)
    rhs = (1 - Fraction(theta)) * Fraction(v_s)

    def residual(v: Fraction) -> Fraction:
        return (
            v
            + premium(t_in - v, params_in) - premium(t_in, params_in)
            + premium(t_out + v, params_out) - premium(t_out, params_out)
            - rhs
        )

    lo, hi = Fraction(0), Fraction(v_s)
    while residual(hi) < 0:
        lo, hi = hi, 2 * hi
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if residual(mid) < 0 else (lo, mid)
    return float((lo + hi) / 2)
