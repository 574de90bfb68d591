"""Secondary-LP collateral vaults, swaptions, and capacity bounds.

Vault collateral backs open inventory on one side each: the short vault
covers deficits (inventory below the LP claim, positive T), the long
vault covers surpluses. A vault's capacity is collateral divided by its
collateralisation rate and drops to zero on liquidation. Each epoch
boundary passes the premium move to the covering vault; the trade gate
holds that debit back from the vault's capacity at quote time
(``side_cap``, ``VaultLimits``). A swaption per
asset and epoch settles the change in external-curve valuation of the
open-inventory notional; settlement is non-recourse, capped at the
paying vault's collateral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .eldf import Eldf, integrate_eldf
from .errors import BadParams, NoCounterpartyCollateral, ZeroPrevValue
from .ledger import AssetPool
from .money import SCALE, from_units, to_units
from .pricing import RebalanceParams, premium_units

LONG = "long"
SHORT = "short"

PROTOCOL_PAYS_VARIABLE = "protocol_pays_variable"
PROTOCOL_PAYS_FIXED = "protocol_pays_fixed"


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
        """Maximum open inventory this vault can cover; 0 once liquidated.

        ``reserve_units`` is collateral the vault already owes, held back
        from what it covers: the trade gate passes the premium debit the
        next epoch boundary will take from it, and covers nothing once
        that debit would leave the vault at or below its margin floor
        (``side_cap``).
        """
        if self.liquidated:
            return 0.0
        return from_units(self.collateral_units - reserve_units) / self.coll_rate

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
    long: Vault
    short: Vault

    def by_side(self, side: str) -> Vault:
        return self.long if side == LONG else self.short


@dataclass(frozen=True)
class Utilisation:
    u_rhs: float
    u_lhs: float


def utilisation(
    pool: AssetPool, vaults: VaultPair, *, u_max_report: float = math.inf
) -> Utilisation:
    """Open inventory relative to what the vaults can support, per side.

    The deficit side is additionally bounded by the LP claim itself (a
    deficit can never exceed what LPs deposited), so the deficit is
    divided by min(LP claim, short capacity): more short collateral
    lowers u_rhs, and with it the cover coefficient, only while the
    vault and not the LP claim is the binding term. Each side is
    reported capped at ``u_max_report``, which is also what a side with
    open inventory and no capacity (a liquidated vault) reports; zero
    open inventory reports zero whatever the capacity.
    """
    deficit = pool.lp_inventory - pool.inventory
    u_rhs = 0.0
    u_lhs = 0.0
    if deficit > 0:
        denom = min(pool.lp_inventory, vaults.short.capacity())
        u_rhs = deficit / denom if denom > 0 else u_max_report
    elif deficit < 0:
        denom = vaults.long.capacity()
        u_lhs = -deficit / denom if denom > 0 else u_max_report
    return Utilisation(
        u_rhs=min(max(u_rhs, 0.0), u_max_report),
        u_lhs=min(max(u_lhs, 0.0), u_max_report),
    )


def cover_coefficient(
    u: float, d_min: float, d_max: float, u_max: float, k: float
) -> float:
    """Utilisation-dependent premium multiplier.

    Equals d_min at zero utilisation and d_max at u_max, following a
    power-k ramp in between; utilisation beyond u_max is clamped. The
    parameters' ranges are ``ScenarioConfig.validate``'s to check.
    """
    if u < 0:
        raise BadParams(f"utilisation must be nonnegative, got {u}")
    u_eff = min(u, u_max)
    return (d_max - d_min) * (u_eff / u_max) ** k + d_min


@dataclass(frozen=True)
class SwaptionPosition:
    """One epoch's hedge of the open-inventory notional."""

    asset_id: str
    notional: float
    fixed_leg_value_units: int
    direction: str


def strike_swaption(pool: AssetPool, curve: Eldf) -> Optional[SwaptionPosition]:
    """Open a position on the current open inventory, valued on the
    current curve (which becomes the fixed leg at settlement)."""
    gap = pool.inventory - pool.lp_inventory
    if gap == 0.0:
        return None
    notional = abs(gap)
    direction = PROTOCOL_PAYS_VARIABLE if gap > 0 else PROTOCOL_PAYS_FIXED
    value = integrate_eldf(curve, 0.0, notional)
    return SwaptionPosition(
        asset_id=pool.asset_id,
        notional=notional,
        fixed_leg_value_units=to_units(value),
        direction=direction,
    )


@dataclass(frozen=True)
class SettlementOutcome:
    """Signed settlement from the variable payer to the fixed owner.

    paid_units carries the actual transfer after the non-recourse cap;
    vault_pays is True when the sLP side owes (its collateral was
    debited), False when the protocol owes the sLP.
    """

    raw_units: int
    paid_units: int
    vault_pays: bool
    capped: bool


def settle_swaption(
    pos: SwaptionPosition,
    curve_prev: Eldf,
    curve_now: Eldf,
    counterparty: Vault | None,
) -> SettlementOutcome:
    """Settle the epoch move of the notional's curve valuation.

    Settlement = notional * (value_now / value_prev - 1), positive paid
    by the variable-leg payer to the fixed-leg owner. When the sLP vault
    is the payer the transfer is capped at its collateral and the vault
    is debited here; the protocol side of the cash movement is the
    caller's to book.
    """
    value_prev = integrate_eldf(curve_prev, 0.0, pos.notional)
    if value_prev <= 0:
        raise ZeroPrevValue(
            f"previous-epoch valuation {value_prev} of {pos.asset_id} notional"
        )
    value_now = integrate_eldf(curve_now, 0.0, pos.notional)
    raw = to_units(pos.notional * (value_now / value_prev - 1.0))
    if raw == 0:
        return SettlementOutcome(0, 0, vault_pays=False, capped=False)

    # Variable payer owes on raw > 0. The sLP holds the variable leg when
    # the protocol pays fixed, and vice versa.
    slp_is_variable = pos.direction == PROTOCOL_PAYS_FIXED
    vault_pays = (raw > 0) == slp_is_variable
    if vault_pays:
        if counterparty is None:
            raise NoCounterpartyCollateral(f"no vault to settle {pos.asset_id}")
        available = 0 if counterparty.liquidated else counterparty.collateral_units
        paid = min(abs(raw), available)
        counterparty.collateral_units -= paid
        return SettlementOutcome(raw, paid, vault_pays=True, capped=paid < abs(raw))
    paid = abs(raw)
    if counterparty is not None:
        counterparty.collateral_units += paid
    return SettlementOutcome(raw, paid, vault_pays=False, capped=False)


def margin_check(vault: Vault) -> bool:
    """Liquidate when collateral is at or below the floor.

    Liquidation zeroes the vault's capacity contribution; swaption
    exposure is unwound by the caller. Returns True when liquidation
    fired.
    """
    if vault.liquidated:
        return True
    if vault.collateral_units <= vault.margin_floor_units:
        vault.liquidated = True
        return True
    return False


def side_cap(pool: AssetPool, vault: Vault, reserve_units: int = 0) -> float:
    """Cap on the open inventory one vault covers, net of a reserve.

    The long vault caps the surplus; the short vault and the LP claim
    together cap the deficit. Reserve rule: ``reserve_units``, the
    premium debit the next epoch boundary will take from this vault, is
    held back from its collateral, and a vault whose collateral net of
    the reserve is at or below the margin floor caps open inventory at
    zero, since that boundary's margin check would liquidate it.
    """
    if vault.collateral_units - reserve_units <= vault.margin_floor_units:
        return 0.0
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
    gap = pool.inventory - pool.lp_inventory
    open_inventory = gap if vault.side == LONG else -gap
    if open_inventory <= 0.0:
        return vault.collateral_units
    if vault.liquidated:
        return 0
    # the 2**-50 pad keeps the float capacity of what stays >= open inventory
    keep = max(
        math.ceil(open_inventory * vault.coll_rate * SCALE * (1.0 + 2.0**-50)),
        vault.margin_floor_units + 1,
    )
    return max(vault.collateral_units - keep, 0)


@dataclass(frozen=True)
class VaultLimits:
    """One asset's trade-gate caps as its vault pair sets them.

    ``t_open_units`` is the asset's flow T when the epoch opened, from
    which the next boundary's premium flow is measured. A leg reads one
    cap: the in-leg the long cap, the out-leg the short (deficit) cap.
    Each holds back the debit the next boundary would take from that
    vault, valued from the premium the quote committed at the leg's
    post-trade flow: ``premium_after_units - premium_units(t_open)``,
    the value ``boundary_premium_flow`` gives while the params stay put.
    """

    pool: AssetPool
    vaults: VaultPair
    t_open_units: int

    def surplus_cap(
        self, t_after_units: int, premium_after_units: int, params: RebalanceParams
    ) -> float:
        return self._cap(LONG, t_after_units, premium_after_units, params)

    def deficit_cap(
        self, t_after_units: int, premium_after_units: int, params: RebalanceParams
    ) -> float:
        return self._cap(SHORT, t_after_units, premium_after_units, params)

    def _cap(
        self, side: str, t_after_units: int, premium_after_units: int, params: RebalanceParams
    ) -> float:
        reserve = 0
        if covering_side(self.t_open_units, t_after_units) == side:
            reserve = max(premium_after_units - premium_units(self.t_open_units, params), 0)
        return side_cap(self.pool, self.vaults.by_side(side), reserve)


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
) -> tuple[str | None, int]:
    """Premium flow an epoch boundary passes to the sLP vaults.

    Returns the covering side and the signed flow in ledger units: the
    fall of the outstanding premium from the epoch's open to now, a
    credit when positive and a debit when negative. The boundary
    (``slp_premium_flow``) values the flow here; the trade gate
    (``VaultLimits``) takes the same difference of ``premium_units``
    values, so the reserve held back at quote time is what the boundary
    takes while the params stay put.
    """
    flow = premium_units(t_open_units, params) - premium_units(t_now_units, params)
    return covering_side(t_open_units, t_now_units), flow


@dataclass(frozen=True)
class PremiumFlowResult:
    applied_units: int
    requested_units: int
    liquidated: bool


def slp_premium_flow(
    t_prev_units: int,
    t_next_units: int,
    params: RebalanceParams,
    vault: Vault,
) -> PremiumFlowResult:
    """Pass the premium move through to the covering vault's collateral.

    The vault is credited when the outstanding premium fell (the system
    rebalanced) and debited when it rose; the amount is
    ``boundary_premium_flow``. Debits are non-recourse: they stop at
    zero collateral, after which the margin check liquidates. The trade
    gate holds each quote's debit back from the covering vault's
    capacity, so while that vault's side has open inventory a debit
    only outgrows the collateral when the params rose after the quote
    or a settlement took collateral first.
    """
    _, flow = boundary_premium_flow(t_prev_units, t_next_units, params)
    if flow >= 0:
        vault.collateral_units += flow
        applied = flow
    else:
        applied = -min(-flow, vault.collateral_units)
        vault.collateral_units += applied
    liquidated = margin_check(vault)
    return PremiumFlowResult(
        applied_units=applied, requested_units=flow, liquidated=liquidated
    )
