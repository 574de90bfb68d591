"""Fixed-point accounting-asset arithmetic.

All accounting-asset ($S) amounts are carried as integers scaled by
10**12 (picodollar resolution) so that conservation identities can be
checked exactly. Curve valuations and other real-valued quantities are
rounded half-even at the boundary where they enter the integer ledger.
"""

from __future__ import annotations

from .errors import NonFiniteAmount

SCALE = 10**12


def to_units(amount: float) -> int:
    """Round a $S amount to integer ledger units (half-even).

    An amount whose scaled value is not finite has no ledger units: it
    raises ``NonFiniteAmount``, an engine error, so a quote rejects it and
    a run halts on it fail-stop."""
    try:
        return round(amount * SCALE)
    except (OverflowError, ValueError):
        raise NonFiniteAmount(f"no ledger units for {amount!r}") from None


def from_units(units: int) -> float:
    return units / SCALE

