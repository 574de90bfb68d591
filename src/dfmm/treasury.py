"""Treasury reserve and reward distribution.

The reserve accumulates the rebalancing fee slice of every trade and
funds the discrepancies created when the auction moves aggressiveness
with flow open (``auction.update_aggressiveness`` prices each one in
ledger units; the engine splits each fill's fee). Its balance always
equals cumulative fees minus cumulative discrepancies, exactly, and the
auction cap keeps it nonnegative; a negative balance is a fatal engine bug, not a market
condition. Trade rewards (fee minus the treasury slice) are split
between the pLP class and the two sLP vault classes, starting from equal
thirds and corrected toward balanced capacity shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadParams, InvariantBreach
from .ledger import AssetPool
from .money import from_units
from .vaults import VaultPair

PLP = "plp"
SLP_LONG = "slp_long"
SLP_SHORT = "slp_short"


@dataclass
class TreasuryReserve:
    balance_units: int = 0
    cum_xi_units: int = 0
    cum_upsilon_units: int = 0

    @property
    def balance(self) -> float:
        return from_units(self.balance_units)


def treasury_update(
    reserve: TreasuryReserve, xi_delta_units: int = 0, upsilon_delta_units: int = 0
) -> TreasuryReserve:
    """Book a fee inflow and/or a discrepancy against the reserve.

    Keeps balance == cum_xi - cum_upsilon exactly. A negative resulting
    balance means the auction cap failed and is raised as fatal.
    """
    reserve.cum_xi_units += xi_delta_units
    reserve.cum_upsilon_units += upsilon_delta_units
    reserve.balance_units = reserve.cum_xi_units - reserve.cum_upsilon_units
    if reserve.balance_units < 0:
        raise InvariantBreach(
            f"treasury balance {reserve.balance_units} units after "
            f"xi={xi_delta_units}, upsilon={upsilon_delta_units}"
        )
    return reserve


def reward_distribute(
    pool: AssetPool, vaults: VaultPair, accrued_units: int, *, gamma: float
) -> dict[str, int]:
    """Split accrued rewards across the pLP and sLP classes: the units of
    each class, keyed ``PLP``, ``SLP_LONG`` and ``SLP_SHORT``.

    Baseline is a third each. The class whose capacity share of
    B = I + C_short/rho_short + C_long/rho_long sits above the 1/3
    target pays a corrective transfer of gamma (a fraction of the
    accrued amount) to the underweighted classes. With the pLP share on
    target, the vault with the larger capacity share, by
    (C_long/rho_long - C_short/rho_short) / B, pays gamma to the other.
    Transfers clamp at zero so no share goes negative, and the integer
    residue lands on the pLP share. ``ScenarioConfig`` declares gamma's
    range as [0, 1).
    """
    if accrued_units < 0:
        raise BadParams(f"accrued rewards cannot be negative, got {accrued_units}")
    if accrued_units == 0:
        return {PLP: 0, SLP_LONG: 0, SLP_SHORT: 0}

    cap_short = vaults.short.capacity()
    cap_long = vaults.long.capacity()
    b = pool.inventory + cap_short + cap_long
    third = 1.0 / 3.0
    long = short = third
    if b > 0:
        tol = 1e-12
        p_share = pool.inventory / b
        if p_share > third + tol:
            long = short = third + min(gamma, third) / 2.0
        elif p_share < third - tol:
            long = short = third - min(gamma / 2.0, third)
        else:
            diff = (cap_long - cap_short) / b
            pay = min(gamma, third)
            if diff > tol:
                long, short = third - pay, third + pay
            elif diff < -tol:
                long, short = third + pay, third - pay

    long_units = round(long * accrued_units)
    short_units = round(short * accrued_units)
    plp_units = accrued_units - long_units - short_units
    # Rounding can only push plp negative when both sLP shares round up
    # while plp's true share is ~0; pull the excess back from the larger.
    while plp_units < 0:
        if long_units >= short_units and long_units > 0:
            long_units -= 1
        elif short_units > 0:
            short_units -= 1
        else:
            break
        plp_units = accrued_units - long_units - short_units
    return {PLP: plp_units, SLP_LONG: long_units, SLP_SHORT: short_units}


@dataclass
class RewardLedger:
    """Accrued and claimable reward balances per asset and class."""

    accrued_units: dict = field(default_factory=dict)
    claimable_units: dict = field(default_factory=dict)

    def accrue(self, asset_id: str, units: int) -> None:
        if units < 0:
            raise BadParams("cannot accrue a negative reward")
        self.accrued_units[asset_id] = self.accrued_units.get(asset_id, 0) + units

    def pending_units(self, asset_id: str) -> int:
        return self.accrued_units.get(asset_id, 0)

    def total_units(self) -> int:
        return sum(self.accrued_units.values()) + sum(self.claimable_units.values())

    def distribute(self, asset_id: str, shares: dict[str, int]) -> None:
        """Move ``asset_id``'s pending units to the classes' claimable
        balances; ``shares`` (class -> units) must sum to them."""
        pending = self.accrued_units.get(asset_id, 0)
        total = sum(shares.values())
        if total != pending:
            raise BadParams(f"shares {total} do not match pending {pending}")
        for cls, units in shares.items():
            key = (asset_id, cls)
            self.claimable_units[key] = self.claimable_units.get(key, 0) + units
        self.accrued_units[asset_id] = 0

    def claims(self):
        """(agent, asset, class, claimable $S) rows, class-level agents."""
        rows = []
        for (asset_id, cls), units in sorted(self.claimable_units.items()):
            rows.append((cls, asset_id, cls, from_units(units)))
        return rows
