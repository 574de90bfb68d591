"""Rebalancing-premium pricing and swap execution.

Every swap is two synthetic legs against the accounting asset: the
trader sells asset_in (that pool's synthetic flow T falls by the
adjusted notional) and buys asset_out (its T rises by the same amount).
Each leg pays or earns a premium delta equal to the move of that leg's
premium function between the old and new T, so trades that worsen an
imbalance pay and trades that restore balance are rebated. The adjusted
notional V' solves

    V' + dR_in(V') + dR_out(V') + theta * v_s = v_s

which is piecewise quadratic in V' (the pieces change where either leg's
T crosses zero). The solver walks the pieces outward from V' = 0 and
returns the first root, so it is continuous across piece boundaries and
lands exactly on the closed-form boundary solutions when a leg's T is
driven exactly to zero.

A swap is quoted and committed in one call: ``execute_swap`` prices it
with ``quote_swap``, which reads the state and changes nothing, and
commits the result at once, so no quote can outlive the state it priced.

Committed amounts are integer ledger units. The premium deltas are
functions of the committed integer T states (so premium flows telescope
exactly to zero over any path that returns T to zero), the trade balance
v_s = V' + rp_in + rp_out + fee holds exactly in integer units, and the
sub-unit rounding residue is absorbed into the fee.

Commit rule (``_commit_notional``): the committed notional is p0, the
real solution rounded to units, when the fee it leaves is nonnegative.
Otherwise it steps down: it gallops p0-1, p0-2, p0-4, ... (clamped at 0)
to a notional whose fee is nonnegative and bisects the fee's sign change
behind it, so it commits a p < p0 with fee(p) >= 0 > fee(p + 1). Where
the fee is monotone over that span, this is the p that a unit-by-unit
walk down from p0 reaches, in logarithmically many pricings. The fee at
p = 0 is v_s, so the step-down always ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .eldf import AssetCurves, integrate_eldf, solve_volume_for_value
from .errors import BadParams, InsufficientInventory, NoFeasibleSolution, NonFiniteAmount
from .ledger import LONG, SHORT, BalanceSheet
from .money import SCALE, from_units, to_units

if TYPE_CHECKING:
    from .vaults import VaultPair

_CAP_TOL = 1e-9


@dataclass(frozen=True)
class RebalanceParams:
    """Premium aggressiveness and cover coefficients, one pair per side."""

    a_rhs: float
    a_lhs: float
    d_rhs: float
    d_lhs: float

    def __post_init__(self):
        if self.a_rhs < 0 or self.a_lhs < 0:
            raise BadParams("aggressiveness must be nonnegative")
        if self.d_rhs < 0 or self.d_lhs < 0:
            raise BadParams("cover coefficients must be nonnegative")


def premium_fn(t: float, params: RebalanceParams) -> float:
    """Outstanding premium at synthetic flow t; nonnegative on both sides."""
    if t >= 0:
        return t * (t + params.a_rhs) * params.d_rhs
    return -t * (-t + params.a_lhs) * params.d_lhs


def rp_delta(t_prev: float, t_next: float, params: RebalanceParams) -> float:
    """Trader premium for moving the flow t_prev -> t_next.

    Positive when the move grows the imbalance (trader pays), negative
    when it shrinks it (trader is rebated).
    """
    return premium_fn(t_next, params) - premium_fn(t_prev, params)


def premium_units(t_units: int, params: RebalanceParams) -> int:
    """Premium at an integer-unit flow state, rounded to ledger units.

    Deterministic function of the committed state so premium deltas
    telescope exactly over any trade path. Equal to
    ``to_units(premium_fn(from_units(t_units), params))``, written out
    because every quote calls it at least four times; a premium with no
    ledger units raises ``NonFiniteAmount`` as there.
    """
    premium = premium_fn(t_units / SCALE, params) * SCALE
    try:
        return round(premium)
    except (OverflowError, ValueError):
        raise NonFiniteAmount(
            f"no ledger units for premium {premium!r} at T={t_units} units"
        ) from None


def _branches(params: RebalanceParams):
    """(d, s*a) of R(t) = d*(t*t + s*a*t) on each side of t = 0, indexed
    by t >= 0."""
    return (params.d_lhs, -params.a_lhs), (params.d_rhs, params.a_rhs)


def _quad_roots(a: float, b: float, c: float) -> list[float]:
    if a == 0.0:
        if b == 0.0:
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    if b >= 0.0:
        q = -(b + sq) / 2.0
    else:
        q = -(b - sq) / 2.0
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    return roots


def _move(t0: float, h: float, params: RebalanceParams, d: float, sa: float) -> float:
    """R(t0 + h) - R(t0), given (d, sa) = (d, s*a) on t0's branch: in h
    while t0 + h stays on that branch, so that large flows do not cancel
    away a small move."""
    if (t0 + h >= 0) != (t0 >= 0):
        return premium_fn(t0 + h, params) - premium_fn(t0, params)
    return d * h * (h + 2.0 * t0 + sa)


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
    # each leg's branches, and its start branch
    br_in, br_out = _branches(params_in), _branches(params_out)
    up_in, up_out = t_in0 >= 0, t_out0 >= 0
    d_in0, sa_in0 = br_in[up_in]
    d_out0, sa_out0 = br_out[up_out]

    edges = [0.0]
    if t_in0 > 0 and t_out0 < 0:
        edges += (t_in0, -t_out0) if t_in0 <= -t_out0 else (-t_out0, t_in0)
    elif t_in0 > 0:
        edges.append(t_in0)
    elif t_out0 < 0:
        edges.append(-t_out0)
    edges.append(math.inf)
    scale = max(1.0, v_s, abs(t_in0), abs(t_out0))
    tol = 1e-12 * scale

    for lo, hi in zip(edges, edges[1:]):
        finite = hi != math.inf
        if hi - lo <= tol and finite:
            continue
        mid = 0.5 * (lo + hi) if finite else lo + 1.0
        d_i, sa_i = br_in[t_in0 - mid >= 0]
        d_o, sa_o = br_out[t_out0 + mid >= 0]
        qa = d_i + d_o
        qb = 1.0 - d_i * (2.0 * t_in0 + sa_i) + d_o * (2.0 * t_out0 + sa_o)
        # each leg's move is d*h*(h + 2*t0 + s*a) on this piece's branch,
        # plus a constant only when the piece lies across zero from t0
        qc = -rhs
        if (t_in0 - mid >= 0) != up_in:
            qc += d_i * (t_in0 * t_in0 + sa_i * t_in0) - premium_fn(t_in0, params_in)
        if (t_out0 + mid >= 0) != up_out:
            qc += d_o * (t_out0 * t_out0 + sa_o * t_out0) - premium_fn(t_out0, params_out)
        candidates = [
            min(max(r, lo), hi if finite else r)
            for r in _quad_roots(qa, qb, qc)
            if lo - tol <= r and (not finite or r <= hi + tol)
        ]
        if len(candidates) == 2 and candidates[1] < candidates[0]:
            candidates.reverse()
        for root in candidates:
            # up to 4 Newton steps on the exact piecewise residual, which
            # is evaluated once more at the last v for the acceptance test
            v, steps = root, 4
            while True:
                residual = (
                    v
                    + _move(t_in0, -v, params_in, d_in0, sa_in0)
                    + _move(t_out0, v, params_out, d_out0, sa_out0)
                    - rhs
                )
                if steps == 0:
                    break
                steps -= 1
                d_i, sa_i = br_in[t_in0 - v >= 0]
                d_o, sa_o = br_out[t_out0 + v >= 0]
                deriv = (
                    1.0
                    - d_i * (2.0 * (t_in0 - v) + sa_i)
                    + d_o * (2.0 * (t_out0 + v) + sa_o)
                )
                if deriv == 0.0:
                    break
                step = residual / deriv
                v_new = v - step
                if not (lo - tol <= v_new and (not finite or v_new <= hi + tol)):
                    break
                v = v_new
                if abs(step) < 1e-15 * scale:
                    steps = 0
            if abs(residual) <= 1e-9 * scale and v >= -tol:
                return max(v, 0.0)
    raise NoFeasibleSolution(
        f"no nonnegative root for v_s={v_s}, t_in={t_in0}, t_out={t_out0}"
    )


def _commit_notional(
    p0: int,
    v_s_units: int,
    t_in0_u: int,
    t_out0_u: int,
    params_in: RebalanceParams,
    params_out: RebalanceParams,
) -> tuple[int, int, int, int, int, int]:
    """Integer adjusted notional committed at or below ``p0`` and its premia.

    Returns ``(p, rp_in, rp_out, fee, r_in, r_out)``: the notional, the
    two legs' premium deltas, the fee ``v_s - p - rp_in - rp_out`` and
    the legs' premia ``premium_units`` at the committed flows, by the
    commit rule in the module docstring.
    """
    r_in0 = premium_units(t_in0_u, params_in)
    r_out0 = premium_units(t_out0_u, params_out)

    def implied(p: int) -> tuple[int, int, int]:
        r_in = premium_units(t_in0_u - p, params_in)
        r_out = premium_units(t_out0_u + p, params_out)
        return v_s_units - p - (r_in - r_in0) - (r_out - r_out0), r_in, r_out

    p = neg = p0
    best, step = implied(p0), 1
    while best[0] < 0 and p > 0:
        neg, p = p, max(0, p0 - step)
        best, step = implied(p), 2 * step
    # fee(p) >= 0 > fee(neg) brackets the step-down
    while neg - p > 1:
        mid = (p + neg) // 2
        cand = implied(mid)
        if cand[0] >= 0:
            p, best = mid, cand
        else:
            neg = mid
    fee, r_in, r_out = best
    return p, r_in - r_in0, r_out - r_out0, fee, r_in, r_out


@dataclass(slots=True)
class SwapQuote:
    v_out: float
    v_s_units: int
    v_prime_units: int
    rp_in_units: int
    rp_out_units: int
    fee_units: int

    def __post_init__(self):
        if self.v_prime_units < 0:
            raise NoFeasibleSolution("adjusted notional cannot be negative")
        balance = (
            self.v_prime_units
            + self.rp_in_units
            + self.rp_out_units
            + self.fee_units
        )
        if balance != self.v_s_units:
            raise NoFeasibleSolution(
                f"quote does not balance: {balance} != {self.v_s_units}"
            )


def quote_swap(
    asset_in: str,
    asset_out: str,
    v_in: float,
    sheet: BalanceSheet,
    curves: Mapping[str, AssetCurves],
    params_by_asset: Mapping[str, RebalanceParams],
    theta: float,
    *,
    vaults_by_asset: Mapping[str, VaultPair],
) -> SwapQuote:
    """Price v_in of asset_in against asset_out at the current state,
    with fee rate ``theta`` on the gross notional.

    The gross notional marks the in-leg on the bid curve from its slot
    mark; the adjusted notional is converted to asset_out on its ask
    curve. The quote is gated by ``vaults_by_asset``
    (``VaultPair.admit``): the in-asset's post-trade surplus must stay
    within its long cap and the out-asset's post-trade deficit within
    its short cap, each given the leg's post-trade flow T, the premium
    committed there and these params, else ``ExceedsCapacity``.
    """
    if not v_in > 0:
        raise BadParams(f"v_in must be positive, got {v_in}")
    if asset_in == asset_out:
        raise BadParams("cannot swap an asset for itself")
    cin = curves[asset_in]
    cout = curves[asset_out]
    params_in = params_by_asset[asset_in]
    params_out = params_by_asset[asset_out]

    v_s = integrate_eldf(cin.bid, cin.bid_mark, cin.bid_mark + v_in)
    v_s_units = to_units(v_s)
    t_in0_u = sheet.t_units[asset_in]
    t_out0_u = sheet.t_units[asset_out]

    v_prime = solve_adjusted_notional(
        from_units(v_s_units),
        from_units(t_in0_u),
        from_units(t_out0_u),
        params_in,
        params_out,
        theta,
    )

    p, rp_in_u, rp_out_u, fee_u, r_in_u, r_out_u = _commit_notional(
        to_units(v_prime), v_s_units, t_in0_u, t_out0_u, params_in, params_out
    )

    v_out = solve_volume_for_value(cout.ask, cout.ask_mark, from_units(p)) - cout.ask_mark

    pool_out = sheet.pools[asset_out]
    if v_out > pool_out.inventory + _CAP_TOL * max(1.0, pool_out.inventory):
        raise InsufficientInventory(
            f"{asset_out} pool holds {pool_out.inventory}, quote needs {v_out}"
        )
    vaults_by_asset[asset_in].admit(
        LONG, sheet.pools[asset_in], v_in, t_in0_u - p, r_in_u, params_in
    )
    vaults_by_asset[asset_out].admit(
        SHORT, pool_out, -v_out, t_out0_u + p, r_out_u, params_out
    )

    return SwapQuote(
        v_out=v_out,
        v_s_units=v_s_units,
        v_prime_units=p,
        rp_in_units=rp_in_u,
        rp_out_units=rp_out_u,
        fee_units=fee_u,
    )


def execute_swap(
    asset_in: str,
    asset_out: str,
    v_in: float,
    sheet: BalanceSheet,
    curves: Mapping[str, AssetCurves],
    params_by_asset: Mapping[str, RebalanceParams],
    theta: float,
    *,
    vaults_by_asset: Mapping[str, VaultPair],
    timestep: int = 0,
) -> SwapQuote:
    """Quote a swap with ``quote_swap`` and commit it at once: the
    ledger ``trade`` row moves inventory, T and the premium reserves,
    and both legs' marks advance. Returns the quote; a rejected quote
    raises and commits nothing."""
    quote = quote_swap(
        asset_in, asset_out, v_in, sheet, curves, params_by_asset, theta,
        vaults_by_asset=vaults_by_asset,
    )
    sheet.record_trade((
        timestep, asset_in, asset_out, v_in, quote.v_out, quote.v_s_units,
        quote.v_prime_units, quote.rp_in_units, quote.rp_out_units, quote.fee_units,
    ))
    curves[asset_in].bid_mark += v_in
    curves[asset_out].ask_mark += quote.v_out
    return quote
