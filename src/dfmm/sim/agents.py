"""Exogenous trader flow and the rebalancing arbitrageur."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..money import from_units
from ..pricing import RebalanceParams, rp_delta
from .config import ScenarioConfig


@dataclass(frozen=True)
class TradeIntent:
    asset_in: str
    asset_out: str
    v_in: float


class TraderFlow:
    """Poisson arrivals with lognormal sizes over uniform asset pairs."""

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        self.rate = cfg.trader_rate
        self.size_mu = cfg.trader_size_mu
        self.size_sigma = cfg.trader_size_sigma
        self.rng = rng

    def arrivals(self, asset_ids) -> list[TradeIntent]:
        if self.rate <= 0 or len(asset_ids) < 2:
            return []
        n = int(self.rng.poisson(self.rate))
        out = []
        ids = sorted(asset_ids)
        for _ in range(n):
            i = int(self.rng.integers(len(ids)))
            j = int(self.rng.integers(len(ids) - 1))
            if j >= i:
                j += 1
            size = float(self.rng.lognormal(self.size_mu, self.size_sigma))
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

        The in-leg is the asset with the most positive flow (selling it
        to the pool walks that flow down), the out-leg the most negative
        (buying walks it up). Sizing targets the notional that maximises
        the combined rebate, capped at the exposure limit.
        """
        ids = sorted(t_units_by_asset)
        if len(ids) < 2:
            return None
        t_by_asset = {a: from_units(t_units_by_asset[a]) for a in ids}
        asset_in = max(ids, key=lambda a: t_by_asset[a])
        asset_out = min(ids, key=lambda a: t_by_asset[a])
        if asset_in == asset_out:
            return None
        t_in = t_by_asset[asset_in]
        t_out = t_by_asset[asset_out]
        if t_in <= 0.0 and t_out >= 0.0:
            return None  # nothing to rebalance

        target = self._target_notional(
            t_in, t_out, params_by_asset[asset_in], params_by_asset[asset_out]
        )
        target = min(target, self.max_exposure)
        if target <= 0.0:
            return None

        rebate = -(
            rp_delta(t_in, t_in - target, params_by_asset[asset_in])
            + rp_delta(t_out, t_out + target, params_by_asset[asset_out])
        )
        payoff = rebate - theta * target - self.fixed_cost
        if payoff <= 0.0:
            return None
        return asset_in, asset_out, target

    @staticmethod
    def _target_notional(
        t_in: float,
        t_out: float,
        p_in: RebalanceParams,
        p_out: RebalanceParams,
    ) -> float:
        """Notional maximising the two-leg rebate.

        While both legs move toward zero every unit earns, so at least
        min of the two distances is optimal; past the point where one leg
        crosses zero, marginal rebate on the other leg must still beat
        the marginal penalty, which for quadratic premia has a closed
        form.
        """
        dist_in = max(t_in, 0.0)
        dist_out = max(-t_out, 0.0)
        if dist_in > 0.0 and dist_out > 0.0:
            return min(dist_in, dist_out)
        if dist_in > 0.0:
            d_i, a_i = p_in.d_rhs, p_in.a_rhs
            d_o, a_o = p_out.d_rhs, p_out.a_rhs
            denom = 2.0 * (d_i + d_o)
            if denom <= 0.0:
                return dist_in
            v = (2.0 * d_i * dist_in + d_i * a_i - d_o * a_o) / denom
            return min(max(v, 0.0), dist_in)
        d_o, a_o = p_out.d_lhs, p_out.a_lhs
        d_i, a_i = p_in.d_lhs, p_in.a_lhs
        denom = 2.0 * (d_i + d_o)
        if denom <= 0.0:
            return dist_out
        v = (2.0 * d_o * dist_out + d_o * a_o - d_i * a_i) / denom
        return min(max(v, 0.0), dist_out)
