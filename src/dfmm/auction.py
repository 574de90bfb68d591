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
boundaries; the critical regime counts raw timesteps. Aggressiveness
changes with open flow create a discrepancy between premia already
charged and premia now promised; that discrepancy is the treasury's to
fund, so increases are capped at the treasury balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import BadParams
from .money import from_units
from .pricing import RebalanceParams, premium_units

OPTIMAL = "optimal"
BAND1 = "band1"
BAND2 = "band2"
CRITICAL = "critical"

RHS = "rhs"
LHS = "lhs"

TOO_SLOW = "too_slow"
TOO_FAST = "too_fast"


@dataclass(frozen=True)
class RegimeThresholds:
    theta0: float
    theta_star: float
    theta_dagger: float


@dataclass(frozen=True)
class RebalanceTargets:
    j_star: int
    j_prime: int
    j_dagger: int


def classify_regime(u: float, thresholds: RegimeThresholds) -> str:
    """Left-closed interval lookup; total for all u >= 0."""
    if u < 0:
        raise BadParams(f"utilisation must be nonnegative, got {u}")
    if u < thresholds.theta0:
        return OPTIMAL
    if u < thresholds.theta_star:
        return BAND1
    if u < thresholds.theta_dagger:
        return BAND2
    return CRITICAL


def target_for(regime: str, targets: RebalanceTargets) -> tuple[int, str]:
    """Deadline of a breach regime: (count, unit) with unit 'epochs' or
    'timesteps'. The optimal band has none."""
    return {
        BAND1: (targets.j_star, "epochs"),
        BAND2: (targets.j_prime, "epochs"),
        CRITICAL: (targets.j_dagger, "timesteps"),
    }[regime]


@dataclass
class SideClock:
    """Breach and deadline-window clocks for one asset side."""

    breach_timesteps: int = 0
    window_timesteps: int = 0
    window_epochs: int = 0
    last_regime: str = OPTIMAL


def record_rebalance_progress(clock: SideClock, u_now: float, thresholds: RegimeThresholds):
    """Advance the breach clock by one timestep.

    Returns the measured rebalancing time (in timesteps) when the side
    just re-entered the optimal band, else None. Each re-entry resets
    the clock, so oscillating breaches are measured separately.
    """
    regime = classify_regime(u_now, thresholds)
    if regime == OPTIMAL:
        if clock.breach_timesteps > 0:
            measured = clock.breach_timesteps
            clock.breach_timesteps = 0
            clock.window_timesteps = 0
            clock.window_epochs = 0
            clock.last_regime = OPTIMAL
            return measured
        return None
    clock.breach_timesteps += 1
    clock.window_timesteps += 1
    clock.last_regime = regime
    return None


def update_aggressiveness(
    side: str,
    t_open_units: int,
    comparison: str,
    params: RebalanceParams,
    lam: float,
    a_min: float,
    tr_units: int,
) -> tuple[float, bool, int, RebalanceParams]:
    """Apply one auction comparison to ``side``'s aggressiveness in ``params``.

    Returns ``(a_after, capped, upsilon_units, params_after)``. too_fast
    steps down by the increment (floored at the minimum); too_slow steps
    up, but when the implied premium increase at the open flow would
    exceed the treasury reserve, the step is capped so the increase about
    exhausts it. ``upsilon_units`` is the exact ledger-unit premium change
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
    if comparison == TOO_FAST:
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
    if comparison == TOO_SLOW and upsilon > tr_units:
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


@dataclass
class AuctionState:
    """Per-asset auction clocks plus the shared increment parameters."""

    lam: float
    a_min: float
    clocks: dict = field(default_factory=dict)

    def clock(self, asset_id: str, side: str) -> SideClock:
        clock = self.clocks.get((asset_id, side))
        if clock is None:
            clock = self.clocks[asset_id, side] = SideClock()
        return clock


@dataclass(frozen=True)
class AuctionEvent:
    asset_id: str
    side: str
    regime: str
    breach_clock: int
    target: int
    comparison: str
    a_before: float
    a_after: float
    capped: bool
    upsilon_units: int


def auction_step(
    state: AuctionState,
    utilisation_by_asset,
    t_units_by_asset,
    params_by_asset,
    targets: RebalanceTargets,
    thresholds: RegimeThresholds,
    tr_units: int,
    *,
    at_epoch_boundary: bool,
    epoch_len: int,
):
    """One scheduler tick of the auction across all assets.

    utilisation_by_asset maps asset -> Utilisation; t_units_by_asset maps
    asset -> synthetic flow in ledger units and is only read. Assets are
    processed in ascending id order, draining the shared treasury reserve
    sequentially. Returns the updated params mapping and the list of
    AuctionEvents; the caller books each event's discrepancy against the
    treasury and the premium reserve.
    """
    params_out = dict(params_by_asset)
    events: list[AuctionEvent] = []
    for asset_id in sorted(utilisation_by_asset):
        util = utilisation_by_asset[asset_id]
        t_units = t_units_by_asset[asset_id]
        for side, u_now in ((RHS, util.u_rhs), (LHS, util.u_lhs)):
            clock = state.clock(asset_id, side)
            regime_before = clock.last_regime
            measured = record_rebalance_progress(clock, u_now, thresholds)
            comparison = None
            regime = clock.last_regime
            target = 0
            breach_shown = clock.breach_timesteps

            if measured is not None:
                # Breach resolved: compare measured time against the
                # deadline of the regime active when it resolved. Slower
                # than target was already penalised at each expiry, so
                # only a fast resolution acts here.
                regime = regime_before
                target, unit = target_for(regime_before, targets)
                measured_units = (
                    measured if unit == "timesteps" else math.ceil(measured / epoch_len)
                )
                breach_shown = measured
                if measured_units < target:
                    comparison = TOO_FAST
            elif clock.last_regime != OPTIMAL:
                target, unit = target_for(regime, targets)
                expired = False
                if unit == "timesteps":
                    expired = clock.window_timesteps >= target
                elif at_epoch_boundary:
                    clock.window_epochs += 1
                    expired = clock.window_epochs >= target
                if expired:
                    comparison = TOO_SLOW
                    clock.window_timesteps = 0
                    clock.window_epochs = 0

            if comparison is None or t_units == 0:
                continue  # no comparison, or no open flow: the auction passes
            params = params_out[asset_id]
            a_before = params.a_rhs if side == RHS else params.a_lhs
            a_after, capped, upsilon, params_out[asset_id] = update_aggressiveness(
                side, t_units, comparison, params, state.lam, state.a_min, tr_units
            )
            tr_units -= upsilon
            events.append(
                AuctionEvent(
                    asset_id=asset_id,
                    side=side,
                    regime=regime,
                    breach_clock=breach_shown,
                    target=target,
                    comparison=comparison,
                    a_before=a_before,
                    a_after=a_after,
                    capped=capped,
                    upsilon_units=upsilon,
                )
            )
    return params_out, events
