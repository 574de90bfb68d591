"""Exogenous trader flow and the rebalancing arbitrageur."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..money import from_units
from ..pricing import rp_delta
from .config import ScenarioConfig


@dataclass(slots=True)
class TradeIntent:
    asset_in: str
    asset_out: str
    v_in: float


class TraderFlow:
    """Poisson arrivals with lognormal sizes over uniform asset pairs."""

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        self.rate = cfg.trader_rate
        self.size_mu = cfg.trader_size_mu
        # numpy's lognormal checks sigma's sign bit and refuses -0.0
        self.size_sigma = cfg.trader_size_sigma + 0.0
        self.rng = rng

    def arrivals(self, asset_ids) -> list[TradeIntent]:
        if self.rate <= 0 or len(asset_ids) < 2:
            return []
        rng = self.rng
        n = int(rng.poisson(self.rate))
        out = []
        ids = sorted(asset_ids)
        k = len(ids)
        for _ in range(n):
            i = int(rng.integers(k))
            # integers(1) is always 0 and draws nothing, so two assets skip it
            j = int(rng.integers(k - 1)) if k > 2 else 0
            if j >= i:
                j += 1
            size = float(rng.lognormal(self.size_mu, self.size_sigma))
            out.append(TradeIntent(ids[i], ids[j], size))
        return out


@dataclass(frozen=True)
class ArbitrageurAgent:
    """Harvests premium rebates by walking the synthetic flows toward zero.

    Acts only when the expected net payoff is strictly positive: the
    rebate claimable for moving both legs' flow toward zero, minus fees
    and the fixed round-trip cost. It does not trade on gaps between
    internal and external prices.
    """

    fixed_cost: float
    max_exposure: float

    def decide(self, t_units_by_asset: dict, params_by_asset: dict, theta: float):
        """Pick the flow-reducing pair and size; None when unprofitable.

        Precondition: the flows sum to zero in integer units (each swap
        moves one V' between two flows), so the most positive flow, the
        in-leg, is above zero exactly when the most negative, the
        out-leg, is below. Every unit up to the nearer leg's distance
        from zero earns on both legs; the exposure limit caps the size.
        ``t_units_by_asset`` is only read.
        """
        ids = sorted(t_units_by_asset)
        t_by_asset = {a: from_units(t_units_by_asset[a]) for a in ids}
        asset_in = max(ids, key=lambda a: t_by_asset[a])
        asset_out = min(ids, key=lambda a: t_by_asset[a])
        t_in = t_by_asset[asset_in]
        t_out = t_by_asset[asset_out]
        if t_in <= 0.0:
            return None  # every flow is zero: nothing to rebalance

        target = min(t_in, -t_out, self.max_exposure)
        rebate = -(
            rp_delta(t_in, t_in - target, params_by_asset[asset_in])
            + rp_delta(t_out, t_out + target, params_by_asset[asset_out])
        )
        payoff = rebate - theta * target - self.fixed_cost
        if payoff <= 0.0:
            return None
        return asset_in, asset_out, target
