"""Reward distribution across the pLP and sLP classes.

The treasury and the reward balances live on the balance sheet
(``ledger.BalanceSheet``): each fill's fee splits into the treasury
slice xi and a reward that accrues to the out-asset, and at each epoch
boundary the engine books a ``reward`` row that moves an asset's pending
reward to the classes' claimable balances, split by ``reward_distribute``
from equal thirds corrected toward balanced capacity shares.
"""

from __future__ import annotations

from .errors import BadParams
from .ledger import PLP, SLP_LONG, SLP_SHORT, AssetPool
from .vaults import VaultPair


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
