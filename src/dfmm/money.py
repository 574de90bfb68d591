"""Fixed-point accounting-asset arithmetic.

All accounting-asset ($S) amounts are carried as integers scaled by
10**12 (picodollar resolution) so that conservation identities can be
checked exactly. Curve valuations and other real-valued quantities are
rounded half-even at the boundary where they enter the integer ledger.
"""

from __future__ import annotations

SCALE = 10**12


def to_units(amount: float) -> int:
    """Round a $S amount to integer ledger units (half-even)."""
    return round(amount * SCALE)


def from_units(units: int) -> float:
    return units / SCALE

