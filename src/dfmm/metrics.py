"""Market diagnostics computed over simulation output."""

from __future__ import annotations

import math

from .errors import BadParams


def impermanent_loss(p0: float, p1: float) -> float:
    """LP shortfall versus holding, as a fraction of the initial position.

    sqrt(r) - (r + 1)/2 for price ratio r = p1/p0. Nonpositive for all
    positive prices (AM-GM), zero only when the price is unchanged.
    """
    if p0 <= 0 or p1 <= 0:
        raise BadParams(f"prices must be positive, got p0={p0}, p1={p1}")
    r = p1 / p0
    return math.sqrt(r) - (r + 1.0) / 2.0
