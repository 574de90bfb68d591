"""Independent oracles used to validate engine results.

Each oracle deliberately avoids the code path it checks: interpolation
by divided differences instead of least squares, trapezoid grid scans
instead of closed-form cubics, pool simulation instead of the analytic
impermanent-loss formula, and bisection on the raw balance residual
instead of the piecewise quadratic solver (and, for flows large enough
to cancel a float residual, bisection in exact rational arithmetic).

The reference implementations at the end are earlier versions of engine
code, kept verbatim so that faster replacements can be checked for
identical results: the snapshot-point refit, the point-based
``fit_eldf``, ``integrate_eldf`` and ``solve_volume_for_value`` before
they were computed in one pass, ``fit_eldf`` with ``np.linalg.solve``
and its error handling before it called LAPACK's gufunc directly,
``ArbitrageurAgent`` with its sizing for one-sided flows, which flows
that sum to zero never reach,
``solve_adjusted_notional`` (with the ``_branch`` it read) and
``TraderFlow`` before their per-call overhead was trimmed, the
trades-log row ``Engine.submit_trade`` built for each fill before that
log was rendered from the ledger, and ``settle_swaption`` before it read
the position's stored fixed leg, when it valued the notional on the
strike curve again. Among them, ``density`` evaluates a curve at one
depth, which the engine never needs: it values volume only through
``integrate_eldf`` and ``solve_volume_for_value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from dfmm import eldf
from dfmm.eldf import (
    CurvePoint,
    Eldf,
    _antideriv,
    _cubic_real_roots,
    _design,
    _domain_check,
    _poly,
)
from dfmm.errors import (
    BadCurve,
    BadParams,
    NoFeasibleSolution,
    OutOfDomain,
    ZeroPrevValue,
)
from dfmm.money import from_units, to_units
from dfmm.pricing import (
    RebalanceParams,
    _quad_roots,
    premium_fn,
    rp_delta,
)
from dfmm.sim.agents import TradeIntent
from dfmm.sim.config import ScenarioConfig
from dfmm.vaults import SHORT, SwaptionPosition, Vault


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


# ----------------------------------------------------------------------
# verbatim references


def snapshot_fit_curves(market, *, clamp: bool) -> tuple[Eldf, Eldf]:
    """``AssetMarket.fit_curves`` through per-side snapshot points: the
    grid and normalised depths of ``__post_init__``, then ``snapshot``
    and the point fit, as the market did before it fitted from arrays."""
    vols = np.linspace(0.0, market.cfg.depth, market.cfg.n_points)
    _vols = vols.tolist()
    _x = vols / market.cfg.depth

    cfg = market.cfg
    x = _x
    bid_prices = market.mid * (
        1.0 - cfg.spread / 2.0 - cfg.bid_slope * x - cfg.bid_curv * x * x
    )
    ask_prices = market.mid * (
        1.0 + cfg.spread / 2.0 + cfg.ask_slope * x + cfg.ask_curv * x * x
    )
    bid_pts = [CurvePoint(v, p) for v, p in zip(_vols, bid_prices.tolist())]
    ask_pts = [CurvePoint(v, p) for v, p in zip(_vols, ask_prices.tolist())]

    bid = point_fit_eldf(bid_pts, clamp=clamp)
    ask = point_fit_eldf(ask_pts, clamp=clamp)
    return bid, ask


def point_fit_eldf(points: Sequence[CurvePoint], *, clamp: bool = False) -> Eldf:
    """Least-squares degree-2 fit of density over volume.

    Volumes must be strictly increasing. Exact degree-<=2 data is
    reproduced to fitting tolerance. Raises BadCurve when the
    fitted curve dips to zero or below anywhere inside the domain.

    The design matrix, its Gram matrix and the column scales depend only
    on the volumes, so they come from a small cache (``_design``) keyed on
    the volumes' exact float64 bytes; simulated venues resample one fixed
    grid every slot. Each fit computes only the price-dependent part with
    the same numpy operations on the same operands as an uncached fit, so
    the coefficients are bit-identical either way.
    """
    if len(points) < 3:
        raise BadCurve(f"need at least 3 points, got {len(points)}")
    vols = np.array([p.volume for p in points], dtype=float)
    prices = np.array([p.price for p in points], dtype=float)
    a_s, ata, scale = _design(vols.tobytes())
    atb = a_s.T @ prices
    try:
        coef = np.linalg.solve(ata, atb) / scale
    except np.linalg.LinAlgError as exc:
        raise BadCurve(f"normal equations singular: {exc}") from None
    c0, c1, c2 = coef.tolist()
    return Eldf(c2=c2, c1=c1, c0=c0, v_lo=float(vols[0]), v_hi=float(vols[-1]), clamp=clamp)


def linalg_fit_eldf(volumes, prices) -> Eldf:
    """``fit_eldf`` solving with ``np.linalg.solve``, with its design built
    afresh as the uncached ``_design`` built it."""
    vols = np.asarray(volumes, dtype=float)
    prices = np.asarray(prices, dtype=float)
    if len(vols) < 3:
        raise BadCurve(f"need at least 3 points, got {len(vols)}")
    if not prices.min() > 0:  # NaN propagates through min
        raise BadCurve(f"price must be positive, got {prices[~(prices > 0)][0]}")
    if vols[0] < 0:
        raise BadCurve(f"volume must be nonnegative, got {vols[0]}")
    if not np.all(np.diff(vols) > 0):
        raise BadCurve("snapshot volumes must be strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.column_stack([np.ones_like(vols), vols, vols * vols])
        scale = np.maximum(np.abs(a).max(axis=0), 1e-300)
        a_s = a / scale
        ata = a_s.T @ a_s
    atb = a_s.T @ prices
    try:
        coef = np.linalg.solve(ata, atb) / scale
    except np.linalg.LinAlgError as exc:
        raise BadCurve(f"normal equations singular: {exc}") from None
    c0, c1, c2 = coef.tolist()
    return Eldf(c2=c2, c1=c1, c0=c0, v_lo=float(vols[0]), v_hi=float(vols[-1]))


def density(curve: Eldf, v: float) -> float:
    """Density at depth v; clamped at the boundary in clamp mode."""
    _domain_check(curve, v)
    v_eff = min(max(v, curve.v_lo), curve.v_hi)
    return _poly(curve.c2, curve.c1, curve.c0, v_eff)


def integrate_eldf(curve: Eldf, v1: float, v2: float) -> float:
    """Value of the volume interval [v1, v2] under the curve.

    Additive over adjacent intervals. In clamp mode, the part of the
    interval outside the fit domain contributes boundary density times
    length.
    """
    if v2 < v1:
        raise BadParams(f"v2={v2} < v1={v1}")
    _domain_check(curve, v1)
    _domain_check(curve, v2)
    lo, hi = curve.v_lo, curve.v_hi
    a1, a2 = min(max(v1, lo), hi), min(max(v2, lo), hi)
    total = _antideriv(curve.c2, curve.c1, curve.c0, a2) - _antideriv(
        curve.c2, curve.c1, curve.c0, a1
    )
    if v1 < lo:
        total += (min(v2, lo) - v1) * _poly(curve.c2, curve.c1, curve.c0, lo)
    if v2 > hi:
        total += (v2 - max(v1, hi)) * _poly(curve.c2, curve.c1, curve.c0, hi)
    return total


def solve_volume_for_value(curve: Eldf, v1: float, target_value: float) -> float:
    """Smallest v2 >= v1 with integrate_eldf(curve, v1, v2) == target_value.

    Closed-form cubic roots followed by Newton polish on the residual.
    Because the density is positive over the domain the cumulative value
    is strictly increasing there, so the in-domain root is unique. In
    clamp mode, value beyond the domain capacity is sourced at the
    boundary density.
    """
    if target_value < 0:
        raise BadParams(f"target value must be nonnegative, got {target_value}")
    _domain_check(curve, v1)
    if target_value == 0.0:
        return v1
    c2, c1, c0 = curve.c2, curve.c1, curve.c0
    lo, hi = curve.v_lo, curve.v_hi
    v1_eff = min(max(v1, lo), hi)
    capacity = integrate_eldf(curve, v1, hi)
    if target_value > capacity:
        if curve.clamp:
            tail_density = _poly(c2, c1, c0, hi)
            return hi + (target_value - capacity) / tail_density
        raise OutOfDomain(
            f"book can source only {capacity:.6g} from v1={v1:.6g}, "
            f"requested {target_value:.6g}"
        )

    # Roots of F(v2) - (F(v1) + M) where F is the antiderivative; the part
    # of [v1, v1_eff] below the domain was already valued at clamp density.
    # Inside the domain that interval is empty and its value exactly 0.0.
    head = 0.0 if v1 == v1_eff else integrate_eldf(curve, v1, v1_eff)
    konst = _antideriv(c2, c1, c0, v1_eff) + (target_value - head)
    roots = _cubic_real_roots(c2 / 3.0, c1 / 2.0, c0, -konst)
    span = hi - lo
    slack = 1e-9 * max(1.0, span)
    feasible = sorted(r for r in roots if v1_eff - slack <= r <= hi + slack)
    if not feasible:
        raise NoFeasibleSolution(
            f"no real root in [{v1_eff:.6g}, {hi:.6g}] for value {target_value:.6g}"
        )
    v2 = min(max(feasible[0], v1_eff), hi)

    # Newton polish: density is positive in-domain so iteration is stable.
    for _ in range(8):
        resid = (
            _antideriv(c2, c1, c0, v2) - _antideriv(c2, c1, c0, v1_eff)
        ) - (target_value - head)
        dens = _poly(c2, c1, c0, v2)
        if dens <= 0:
            break
        step = resid / dens
        v2 = min(max(v2 - step, v1_eff), hi)
        if abs(step) < 1e-15 * max(1.0, abs(v2)):
            break
    final = integrate_eldf(curve, v1, v2)
    if abs(final - target_value) > 1e-6 * max(1.0, target_value):
        raise NoFeasibleSolution(
            f"cubic solve residual {final - target_value:.3g} for M={target_value:.6g}"
        )
    return v2


@dataclass(frozen=True)
class ArbitrageurAgent:
    """Harvests premium rebates by walking the synthetic flows toward zero.

    Acts only when the expected net payoff is strictly positive: the
    rebate claimable for moving both legs' flow toward zero, minus fees
    and the fixed round-trip cost. It does not trade on gaps between
    internal and external prices.
    """

    fixed_cost: float
    max_exposure: float

    def decide(self, t_units_by_asset: dict, params_by_asset: dict, theta: float):
        """Pick the flow-reducing pair and size; None when unprofitable.

        The in-leg is the asset with the most positive flow (selling it
        to the pool walks that flow down), the out-leg the most negative
        (buying walks it up). Sizing targets the notional that maximises
        the combined rebate, capped at the exposure limit.
        """
        ids = sorted(t_units_by_asset)
        if len(ids) < 2:
            return None
        t_by_asset = {a: from_units(t_units_by_asset[a]) for a in ids}
        asset_in = max(ids, key=lambda a: t_by_asset[a])
        asset_out = min(ids, key=lambda a: t_by_asset[a])
        if asset_in == asset_out:
            return None
        t_in = t_by_asset[asset_in]
        t_out = t_by_asset[asset_out]
        if t_in <= 0.0 and t_out >= 0.0:
            return None  # nothing to rebalance

        target = self._target_notional(
            t_in, t_out, params_by_asset[asset_in], params_by_asset[asset_out]
        )
        target = min(target, self.max_exposure)
        if target <= 0.0:
            return None

        rebate = -(
            rp_delta(t_in, t_in - target, params_by_asset[asset_in])
            + rp_delta(t_out, t_out + target, params_by_asset[asset_out])
        )
        payoff = rebate - theta * target - self.fixed_cost
        if payoff <= 0.0:
            return None
        return asset_in, asset_out, target

    @staticmethod
    def _target_notional(
        t_in: float,
        t_out: float,
        p_in: RebalanceParams,
        p_out: RebalanceParams,
    ) -> float:
        """Notional maximising the two-leg rebate.

        While both legs move toward zero every unit earns, so at least
        min of the two distances is optimal; past the point where one leg
        crosses zero, marginal rebate on the other leg must still beat
        the marginal penalty, which for quadratic premia has a closed
        form.
        """
        dist_in = max(t_in, 0.0)
        dist_out = max(-t_out, 0.0)
        if dist_in > 0.0 and dist_out > 0.0:
            return min(dist_in, dist_out)
        if dist_in > 0.0:
            d_i, a_i = p_in.d_rhs, p_in.a_rhs
            d_o, a_o = p_out.d_rhs, p_out.a_rhs
            denom = 2.0 * (d_i + d_o)
            if denom <= 0.0:
                return dist_in
            v = (2.0 * d_i * dist_in + d_i * a_i - d_o * a_o) / denom
            return min(max(v, 0.0), dist_in)
        d_o, a_o = p_out.d_lhs, p_out.a_lhs
        d_i, a_i = p_in.d_lhs, p_in.a_lhs
        denom = 2.0 * (d_i + d_o)
        if denom <= 0.0:
            return dist_out
        v = (2.0 * d_o * dist_out + d_o * a_o - d_i * a_i) / denom
        return min(max(v, 0.0), dist_out)


def _branch(t_sign_positive: bool, params: RebalanceParams):
    """(d, a, s) of R(t) = d*(t*t + s*a*t) on one side of t = 0."""
    if t_sign_positive:
        return params.d_rhs, params.a_rhs, 1.0
    return params.d_lhs, params.a_lhs, -1.0


def solve_adjusted_notional(
    v_s: float,
    t_in0: float,
    t_out0: float,
    params_in: RebalanceParams,
    params_out: RebalanceParams,
    theta: float,
) -> float:
    """Smallest V' >= 0 balancing V' + dR_in + dR_out + theta*v_s = v_s.

    The in-leg flow moves t_in0 -> t_in0 - V', the out-leg
    t_out0 -> t_out0 + V'. Pieces are delimited by the volumes at which
    either flow crosses zero; within a piece the balance is a quadratic.
    """
    if v_s < 0:
        raise BadParams(f"gross notional must be nonnegative, got {v_s}")
    if v_s == 0.0:
        return 0.0
    rhs = (1.0 - theta) * v_s

    def move(t0: float, h: float, params: RebalanceParams) -> float:
        # R(t0 + h) - R(t0), in h while t0 + h stays on t0's branch so
        # that large flows do not cancel away a small move
        if (t0 + h >= 0) != (t0 >= 0):
            return premium_fn(t0 + h, params) - premium_fn(t0, params)
        d, a, s = _branch(t0 >= 0, params)
        return d * h * (h + 2.0 * t0 + s * a)

    def residual(v: float) -> float:
        return v + move(t_in0, -v, params_in) + move(t_out0, v, params_out) - rhs

    breaks = sorted(
        b for b in (t_in0 if t_in0 > 0 else None, -t_out0 if t_out0 < 0 else None)
        if b is not None
    )
    edges = [0.0] + breaks + [math.inf]
    scale = max(1.0, v_s, abs(t_in0), abs(t_out0))
    tol = 1e-12 * scale

    for lo, hi in zip(edges, edges[1:]):
        if hi - lo <= tol and math.isfinite(hi):
            continue
        mid = lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
        d_i, a_i, s_i = _branch(t_in0 - mid >= 0, params_in)
        d_o, a_o, s_o = _branch(t_out0 + mid >= 0, params_out)
        qa = d_i + d_o
        qb = 1.0 - d_i * (2.0 * t_in0 + s_i * a_i) + d_o * (2.0 * t_out0 + s_o * a_o)
        # each leg's move is d*h*(h + 2*t0 + s*a) on this piece's branch,
        # plus a constant only when the piece lies across zero from t0
        qc = -rhs
        if (t_in0 - mid >= 0) != (t_in0 >= 0):
            qc += d_i * (t_in0 * t_in0 + s_i * a_i * t_in0) - premium_fn(t_in0, params_in)
        if (t_out0 + mid >= 0) != (t_out0 >= 0):
            qc += d_o * (t_out0 * t_out0 + s_o * a_o * t_out0) - premium_fn(t_out0, params_out)
        candidates = sorted(
            min(max(r, lo), hi if math.isfinite(hi) else r)
            for r in _quad_roots(qa, qb, qc)
            if lo - tol <= r and (math.isinf(hi) or r <= hi + tol)
        )
        for root in candidates:
            # Newton polish on the exact piecewise residual.
            v = root
            for _ in range(4):
                d_i2, a_i2, s_i2 = _branch(t_in0 - v >= 0, params_in)
                d_o2, a_o2, s_o2 = _branch(t_out0 + v >= 0, params_out)
                deriv = (
                    1.0
                    - d_i2 * (2.0 * (t_in0 - v) + s_i2 * a_i2)
                    + d_o2 * (2.0 * (t_out0 + v) + s_o2 * a_o2)
                )
                if deriv == 0.0:
                    break
                step = residual(v) / deriv
                v_new = v - step
                if not (lo - tol <= v_new and (math.isinf(hi) or v_new <= hi + tol)):
                    break
                v = v_new
                if abs(step) < 1e-15 * scale:
                    break
            if abs(residual(v)) <= 1e-9 * scale and v >= -tol:
                return max(v, 0.0)
    raise NoFeasibleSolution(
        f"no nonnegative root for v_s={v_s}, t_in={t_in0}, t_out={t_out0}"
    )


class TraderFlow:
    """Poisson arrivals with lognormal sizes over uniform asset pairs."""

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        self.rate = cfg.trader_rate
        self.size_mu = cfg.trader_size_mu
        self.size_sigma = cfg.trader_size_sigma
        self.rng = rng

    def arrivals(self, asset_ids) -> list[TradeIntent]:
        if self.rate <= 0 or len(asset_ids) < 2:
            return []
        n = int(self.rng.poisson(self.rate))
        out = []
        ids = sorted(asset_ids)
        for _ in range(n):
            i = int(self.rng.integers(len(ids)))
            j = int(self.rng.integers(len(ids) - 1))
            if j >= i:
                j += 1
            size = float(self.rng.lognormal(self.size_mu, self.size_sigma))
            out.append(TradeIntent(ids[i], ids[j], size))
        return out


def trade_row(t: int, pair: str, quote, v_in: float, t_after_units: tuple[int, int]) -> tuple:
    """The trades-log row of a fill of ``pair`` at timestep ``t``;
    ``t_after_units`` holds the in- and out-asset flows T after it, which
    the quote itself carried when this row was built."""
    t_in_after_units, t_out_after_units = t_after_units
    return (
        t,
        pair,
        v_in,
        from_units(quote.v_s_units),
        from_units(quote.v_prime_units),
        from_units(quote.rp_in_units),
        from_units(quote.rp_out_units),
        from_units(quote.fee_units),
        quote.v_out,
        from_units(t_in_after_units),
        from_units(t_out_after_units),
    )


def settle_swaption(
    pos: SwaptionPosition, curve_prev: Eldf, curve_now: Eldf, vault: Vault
) -> int:
    """Settle the epoch move of the notional's curve valuation with the
    vault on the position's side; returns the units moved into it.

    The move is notional * (value_now / value_prev - 1). The short vault
    pays a rise and the long vault pays a fall, capped at its collateral
    (nothing once liquidated); the vault is credited the other way. The
    protocol side of the cash movement is the caller's to book.
    """
    value_prev = eldf.integrate_eldf(curve_prev, 0.0, pos.notional)
    if value_prev <= 0:
        raise ZeroPrevValue(
            f"previous-epoch valuation {value_prev} of {pos.asset_id} notional"
        )
    value_now = eldf.integrate_eldf(curve_now, 0.0, pos.notional)
    rise = to_units(pos.notional * (value_now / value_prev - 1.0))
    owed = rise if pos.side == SHORT else -rise
    available = 0 if vault.liquidated else vault.collateral_units
    moved = -min(owed, available) if owed > 0 else -owed
    vault.collateral_units += moved
    return moved
