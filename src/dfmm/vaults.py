"""Secondary-LP collateral vaults, swaptions, and capacity bounds.

Vault collateral backs open inventory on one side each: the short vault
covers deficits (inventory below the LP claim, positive T), the long
vault covers surpluses (``AssetPool.open_inventory``). A vault's capacity
is collateral divided by its collateralisation rate and drops to zero on
liquidation. Each epoch boundary passes the premium move to the covering
vault; the trade gate holds that debit back from the vault's capacity at
quote time (``VaultPair.cap`` and ``admit``). A swaption per asset
and epoch settles the change in external-curve valuation of the
open-inventory notional, from the fixed leg stored at the strike, with
the vault on the open side.

Sign convention: every boundary function returns the integer ledger
units it moved into the vault, negative when the vault paid. The short
vault pays a rise in the notional's valuation and the long vault pays a
fall; a payment is non-recourse, capped at the collateral of a vault
that is not liquidated. ``margin_check`` returns True only on the call
that liquidates a vault, so a caller that adds up its results counts
each liquidation once.

Liquidation policy: a liquidated vault stays liquidated, covering
nothing, however much a settlement or a premium flow credits it
afterwards; only a deposit that lifts its collateral above the margin
floor revives it (``Vault.deposit``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .eldf import Eldf, integrate_eldf
from .errors import BadParams, ExceedsCapacity, ZeroPrevValue
from .ledger import LONG, SHORT, AssetPool
from .money import SCALE, from_units, to_units
from .pricing import _CAP_TOL, RebalanceParams, premium_units


@dataclass
class Vault:
    asset_id: str
    side: str
    collateral_units: int
    coll_rate: float
    margin_floor_units: int
    liquidated: bool = False

    @property
    def collateral(self) -> float:
        return from_units(self.collateral_units)

    def capacity(self, reserve_units: int = 0) -> float:
        """Maximum open inventory this vault can cover, net of a reserve.

        Reserve rule: ``reserve_units``, the premium debit the next epoch
        boundary will take from this vault, is held back from its
        collateral, and a vault whose collateral net of the reserve is at
        or below the margin floor covers nothing, since that boundary's
        margin check would liquidate it; nor does a liquidated vault.
        """
        free_units = self.collateral_units - reserve_units
        if self.liquidated or free_units <= self.margin_floor_units:
            return 0.0
        return from_units(free_units) / self.coll_rate

    def deposit(self, amount_units: int) -> None:
        if amount_units <= 0:
            raise BadParams("vault deposit must be positive")
        self.collateral_units += amount_units
        if self.liquidated and self.collateral_units > self.margin_floor_units:
            self.liquidated = False

    def withdraw(self, amount_units: int) -> None:
        if amount_units <= 0 or amount_units > self.collateral_units:
            raise BadParams(
                f"vault withdrawal {amount_units} outside (0, {self.collateral_units}]"
            )
        self.collateral_units -= amount_units


@dataclass
class VaultPair:
    """One asset's two vaults and the state its epoch opened with.

    ``Engine`` sets the three epoch fields at each boundary: the asset's
    flow T, from which the next boundary's premium flow is measured, the
    bid curve the swaption was struck on, and that swaption (None with no
    open inventory).

    The trade gate admits each leg against one cap: the in-leg's
    surplus against the long cap, the out-leg's deficit against the short
    cap. Each holds back the debit the next boundary would take from that
    vault, valued from the premium the quote committed at the leg's
    post-trade flow: ``premium_after_units - premium_units(t_open)``, the
    value ``boundary_premium_flow`` gives while the params stay put.
    """

    long: Vault
    short: Vault
    t_open_units: int = 0
    strike_bid: Optional[Eldf] = None
    position: Optional[SwaptionPosition] = None

    def by_side(self, side: str) -> Vault:
        return self.long if side == LONG else self.short

    def cap(
        self,
        side: str,
        pool: AssetPool,
        t_after_units: int,
        premium_after_units: int,
        params: RebalanceParams,
    ) -> float:
        """``side_cap`` of the vault on ``side``, net of the debit it
        would owe at the boundary with the leg's flow at ``t_after_units``."""
        reserve = 0
        if covering_side(self.t_open_units, t_after_units) == side:
            reserve = max(premium_after_units - premium_units(self.t_open_units, params), 0)
        return side_cap(pool, self.by_side(side), reserve)

    def admit(
        self,
        side: str,
        pool: AssetPool,
        inflow: float,
        t_after_units: int,
        premium_after_units: int,
        params: RebalanceParams,
    ) -> None:
        """Raise ``ExceedsCapacity`` if ``inflow`` (negative for an
        outflow) leaves more open inventory on ``side`` than its ``cap``."""
        cap = self.cap(side, pool, t_after_units, premium_after_units, params)
        open_side, open_after = pool.open_inventory(inflow)
        if open_side == side and open_after > cap + _CAP_TOL * max(1.0, cap):
            kind = "surplus" if side == LONG else "deficit"
            raise ExceedsCapacity(
                f"{pool.asset_id} {kind} {open_after:.6g} would exceed "
                f"{side}-vault capacity {cap:.6g}"
            )


@dataclass(frozen=True)
class Utilisation:
    u_rhs: float
    u_lhs: float


U_MAX_REPORT = 10.0


def utilisation(pool: AssetPool, vaults: VaultPair) -> Utilisation:
    """Open inventory relative to what the vaults can support, per side.

    Each side's open inventory is divided by the bound the trade gate
    applies to it, ``side_cap`` with no reserve: the deficit by
    min(LP claim, short capacity), so more short collateral lowers
    u_rhs, and with it the cover coefficient, only while the vault and
    not the LP claim is the binding term; the surplus by long capacity.
    Each side is reported capped at ``U_MAX_REPORT``, which is also what
    a side with open inventory and no capacity (a liquidated vault, or
    one at or below its margin floor) reports; zero open inventory
    reports zero whatever the capacity.
    """
    side, open_inventory = pool.open_inventory()
    u = 0.0
    if side is not None:
        denom = side_cap(pool, vaults.by_side(side))
        u = min(open_inventory / denom if denom > 0 else U_MAX_REPORT, U_MAX_REPORT)
    return Utilisation(u_rhs=u if side == SHORT else 0.0, u_lhs=u if side == LONG else 0.0)


def cover_coefficient(
    u: float, d_min: float, d_max: float, u_max: float, k: float
) -> float:
    """Utilisation-dependent premium multiplier.

    Equals d_min at zero utilisation and d_max at u_max, following a
    power-k ramp in between; utilisation beyond u_max is clamped. The
    parameters' ranges are declared on ``ScenarioConfig``'s fields.
    """
    if u < 0:
        raise BadParams(f"utilisation must be nonnegative, got {u}")
    u_eff = min(u, u_max)
    return (d_max - d_min) * (u_eff / u_max) ** k + d_min


@dataclass(frozen=True)
class SwaptionPosition:
    """One epoch's hedge of the open-inventory notional with the vault on
    ``side``: LONG for a surplus, SHORT for a deficit."""

    asset_id: str
    notional: float
    fixed_leg_value: float
    side: str


def strike_swaption(pool: AssetPool, curve: Eldf) -> Optional[SwaptionPosition]:
    """Open a position on the current open inventory; its value on the
    current curve is the fixed leg that settlement reads."""
    side, notional = pool.open_inventory()
    if side is None:
        return None
    value = integrate_eldf(curve, 0.0, notional)
    return SwaptionPosition(
        asset_id=pool.asset_id, notional=notional, fixed_leg_value=value, side=side
    )


def settle_swaption(pos: SwaptionPosition, curve_now: Eldf, vault: Vault) -> int:
    """Settle the epoch move of the notional's curve valuation with the
    vault on the position's side; returns the units moved into it.

    The move is notional * (value_now / fixed_leg_value - 1), the fixed
    leg being the notional's value on the curve it was struck on. The
    short vault pays a rise and the long vault pays a fall, capped at its
    collateral (nothing once liquidated); the vault is credited the other
    way. The protocol side of the cash movement is the caller's to book.
    """
    value_prev = pos.fixed_leg_value
    if value_prev <= 0:
        raise ZeroPrevValue(
            f"previous-epoch valuation {value_prev} of {pos.asset_id} notional"
        )
    value_now = integrate_eldf(curve_now, 0.0, pos.notional)
    rise = to_units(pos.notional * (value_now / value_prev - 1.0))
    owed = rise if pos.side == SHORT else -rise
    available = 0 if vault.liquidated else vault.collateral_units
    moved = -min(owed, available) if owed > 0 else -owed
    vault.collateral_units += moved
    return moved


def margin_check(vault: Vault) -> bool:
    """Liquidate a vault whose collateral is at or below its floor.

    Liquidation zeroes the vault's capacity. Returns True only when this
    call liquidated the vault, False for one already liquidated.
    """
    if vault.liquidated or vault.collateral_units > vault.margin_floor_units:
        return False
    vault.liquidated = True
    return True


def side_cap(pool: AssetPool, vault: Vault, reserve_units: int = 0) -> float:
    """Cap on the open inventory one vault covers, net of a reserve: the
    long vault's capacity caps the surplus; the short vault's capacity
    and the LP claim together cap the deficit."""
    cap = vault.capacity(reserve_units)
    return cap if vault.side == LONG else min(pool.lp_inventory, cap)


def withdrawable_units(pool: AssetPool, vault: Vault) -> int:
    """Largest part of a queued withdrawal a boundary may apply.

    While the vault's side has open inventory (a surplus for the long
    vault, a deficit for the short one), the collateral left must still
    cover it, capacity >= open inventory, and stay above the margin
    floor; a liquidated vault then releases nothing. With no open
    inventory on its side all of the collateral may go.
    """
    side, open_inventory = pool.open_inventory()
    if side != vault.side:
        return vault.collateral_units
    if vault.liquidated:
        return 0
    # the 2**-50 pad keeps the float capacity of what stays >= open inventory
    keep = max(
        math.ceil(open_inventory * vault.coll_rate * SCALE * (1.0 + 2.0**-50)),
        vault.margin_floor_units + 1,
    )
    return max(vault.collateral_units - keep, 0)


def covering_side(t_open_units: int, t_now_units: int) -> str | None:
    """Vault side that carries an epoch's premium flow.

    The short vault covers a positive flow T, the long vault a negative
    one, judged by T at the boundary, or by T at the epoch's open when T
    closed at zero; None when T is zero at both ends.
    """
    active = t_now_units if t_now_units != 0 else t_open_units
    if active == 0:
        return None
    return SHORT if active > 0 else LONG


def boundary_premium_flow(
    t_open_units: int, t_now_units: int, params: RebalanceParams
) -> int:
    """Premium flow an epoch boundary passes to the covering vault.

    The signed flow in ledger units is the fall of the outstanding
    premium from the epoch's open to now, a credit when positive and a
    debit when negative; ``covering_side`` names the vault. The boundary
    (``slp_premium_flow``) values the flow here; the trade gate
    (``VaultPair.cap``) takes the same difference of ``premium_units``
    values, so the reserve held back at quote time is what the boundary
    takes while the params stay put.
    """
    return premium_units(t_open_units, params) - premium_units(t_now_units, params)


def slp_premium_flow(
    t_prev_units: int,
    t_next_units: int,
    params: RebalanceParams,
    vault: Vault,
) -> int:
    """Pass the premium move through to the covering vault's collateral;
    returns the units applied.

    The vault is credited when the outstanding premium fell (the system
    rebalanced) and debited when it rose; the amount is
    ``boundary_premium_flow``. Debits are non-recourse: they stop at
    zero collateral, ``max(flow, -collateral)``; the caller's margin
    check then liquidates. The trade gate holds each quote's debit back
    from the covering vault's capacity, so while that vault's side has
    open inventory a debit only outgrows the collateral when the params
    rose after the quote or a settlement took collateral first.
    """
    flow = boundary_premium_flow(t_prev_units, t_next_units, params)
    applied = max(flow, -vault.collateral_units)
    vault.collateral_units += applied
    return applied
