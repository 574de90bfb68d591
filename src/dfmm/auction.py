"""Premium auction: regime tracking and aggressiveness updates.

Utilisation is classified into four regimes. Inside the optimal band no
auction runs. Outside it, a breach clock measures how long rebalancing
takes; every time a regime's deadline window expires without the system
re-entering the optimal band, the active side's aggressiveness steps up
by one increment (treasury reserve permitting). When a breach resolves
faster than its deadline the aggressiveness steps back down; one that
resolves at or after its deadline leaves it unchanged, since every
expiry on the way was already penalised.
Band-regime deadlines are denominated in epochs and evaluated at epoch
boundaries, and a resolved band breach of n timesteps took
ceil(n / epoch_len) epochs; the critical regime counts raw timesteps.
The deadline windows run on across regime changes until an expiry or a
resolution restarts them. Aggressiveness changes with open flow create a
discrepancy between premia already charged and premia now promised;
that discrepancy is the treasury's to fund, so increases are capped at
the treasury balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import BadParams
from .money import from_units
from .pricing import RebalanceParams, premium_units

OPTIMAL = "optimal"
BAND1 = "band1"
BAND2 = "band2"
CRITICAL = "critical"

RHS = "rhs"
LHS = "lhs"


def classify_regime(u: float, cfg) -> str:
    """Left-closed interval lookup on the scenario's ``theta0``,
    ``theta_star`` and ``theta_dagger``; total for all u >= 0."""
    if u < 0:
        raise BadParams(f"utilisation must be nonnegative, got {u}")
    if u < cfg.theta0:
        return OPTIMAL
    if u < cfg.theta_star:
        return BAND1
    if u < cfg.theta_dagger:
        return BAND2
    return CRITICAL


@dataclass
class SideClock:
    """Breach and deadline-window clocks for one asset side."""

    breach_timesteps: int = 0
    window_timesteps: int = 0
    window_epochs: int = 0
    last_regime: str = OPTIMAL


def update_aggressiveness(
    side: str,
    t_open_units: int,
    too_slow: bool,
    params: RebalanceParams,
    lam: float,
    a_min: float,
    tr_units: int,
) -> tuple[float, bool, int, RebalanceParams]:
    """Move ``side``'s aggressiveness in ``params`` by one auction step.

    Returns ``(a_after, capped, upsilon_units, params_after)``. A fast
    resolution steps down by the increment (floored at the minimum); a
    ``too_slow`` one steps up, but when the implied premium increase at
    the open flow would exceed the treasury reserve, the step is capped
    so the increase about exhausts it. ``upsilon_units`` is the exact ledger-unit premium change
    at the open flow, and a too_slow step never prices above ``tr_units``:
    when rounding would take it over, the step is bisected back toward
    the previous aggressiveness (``premium_units`` is nondecreasing in a)
    and marked capped. ``auction_step`` calls it only for RHS or LHS with
    open flow.
    """
    if side == RHS:
        a_prev, d = params.a_rhs, params.d_rhs
    else:
        a_prev, d = params.a_lhs, params.d_lhs
    abs_t = abs(from_units(t_open_units))

    capped = False
    if not too_slow:
        a_new = max(a_prev - lam, a_min)
    else:
        tr = from_units(tr_units)
        if abs_t * lam * d <= tr or d == 0.0:
            a_new = a_prev + lam
        else:
            a_new = a_prev + tr / (abs_t * d)
            capped = True

    r_before = premium_units(t_open_units, params)

    def priced(a: float) -> tuple[RebalanceParams, int]:
        after = replace(params, a_rhs=a) if side == RHS else replace(params, a_lhs=a)
        return after, premium_units(t_open_units, after) - r_before

    params_after, upsilon = priced(a_new)
    if too_slow and upsilon > tr_units:
        # keep the largest a in [a_prev, a_new) whose increase fits
        lo, hi = a_prev, a_new
        params_after, upsilon = priced(lo)
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            p_mid, u_mid = priced(mid)
            if u_mid <= tr_units:
                lo, params_after, upsilon = mid, p_mid, u_mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        a_new = lo
        capped = True
    return a_new, capped, upsilon, params_after


def auction_step(
    cfg,
    clocks: dict,
    timestep: int,
    utilisation_by_asset,
    t_units_by_asset,
    params_by_asset,
    tr_units: int,
    *,
    at_epoch_boundary: bool,
):
    """One scheduler tick of the auction across all assets.

    ``cfg`` is the scenario config: its regime thresholds, deadlines,
    ``epoch_len``, ``lam`` and ``a_min``. ``clocks`` maps (asset, side) to
    its SideClock and gains one for a side it lacks.
    utilisation_by_asset maps asset -> Utilisation; t_units_by_asset maps
    asset -> synthetic flow in ledger units and is only read. Assets are
    processed in ascending id order, draining the shared treasury reserve
    sequentially. Returns the updated params mapping and one
    ``(upsilon_units, row)`` per aggressiveness move, ``row`` being its
    ``auction`` log row; the caller books each upsilon against the
    treasury and the premium reserve.
    """
    deadline = {BAND1: cfg.j_star, BAND2: cfg.j_prime, CRITICAL: cfg.j_dagger}
    params_out = dict(params_by_asset)
    events = []
    for asset_id in sorted(utilisation_by_asset):
        util = utilisation_by_asset[asset_id]
        t_units = t_units_by_asset[asset_id]
        for side, u_now in ((RHS, util.u_rhs), (LHS, util.u_lhs)):
            clock = clocks.get((asset_id, side))
            if clock is None:
                clock = clocks[asset_id, side] = SideClock()
            regime = classify_regime(u_now, cfg)
            breach = clock.breach_timesteps
            if regime == OPTIMAL:
                if breach == 0:
                    continue
                # Breach resolved: each re-entry restarts the clocks, and
                # the time taken is compared against the deadline of the
                # regime active when it resolved. Slower than target was
                # already penalised at each expiry, so only a fast
                # resolution acts here.
                clocks[asset_id, side] = SideClock()
                regime = clock.last_regime
                target = deadline[regime]
                taken = breach if regime == CRITICAL else math.ceil(breach / cfg.epoch_len)
                if taken >= target:
                    continue
                too_slow = False
            else:
                breach = clock.breach_timesteps = breach + 1
                clock.window_timesteps += 1
                clock.last_regime = regime
                target = deadline[regime]
                if regime == CRITICAL:
                    expired = clock.window_timesteps >= target
                elif at_epoch_boundary:
                    clock.window_epochs += 1
                    expired = clock.window_epochs >= target
                else:
                    expired = False
                if not expired:
                    continue
                clock.window_timesteps = clock.window_epochs = 0
                too_slow = True

            if t_units == 0:
                continue  # no open flow: the auction passes
            params = params_out[asset_id]
            a_before = params.a_rhs if side == RHS else params.a_lhs
            a_after, capped, upsilon, params_out[asset_id] = update_aggressiveness(
                side, t_units, too_slow, params, cfg.lam, cfg.a_min, tr_units
            )
            tr_units -= upsilon
            row = (
                timestep, asset_id, side, regime, breach, target, a_before, a_after, int(capped)
            )
            events.append((upsilon, row))
    return params_out, events
