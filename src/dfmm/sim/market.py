"""Synthetic external market: price processes and venue depth profiles.

Each asset's external mid follows a lognormal step process with optional
drift, plus a linear price impact from net arbitrage hedging flow. Each
slot's venue snapshot samples per-side quadratic depth profiles around
the mid, so the fitted curves reproduce the generating profile exactly.

A market's config is frozen, so its volume grid and both sides' profiles
at unit mid, 1 -+ (spread/2 + slope*x + curv*x^2) with x = vols / depth,
are built once, as read-only arrays, when the market is created. A refit
hands ``fit_eldf`` the grid and mid * profile for each side, the same
numpy expressions on the same operands as building the snapshot afresh.
Because every slot fits on the same volumes, the fit's design-matrix
cache (keyed on the volumes' exact bytes) serves every refit after the
first, so fitted curves are bit-identical to rebuilding them each slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from ..eldf import Eldf, fit_eldf
from ..errors import NonFiniteAmount
from .config import AssetConfig


@dataclass
class AssetMarket:
    cfg: AssetConfig
    mid: float
    rng: np.random.Generator
    pending_flow: float = 0.0
    _vols: np.ndarray = field(init=False, repr=False, compare=False)
    _profiles: tuple = field(init=False, repr=False, compare=False)  # bid, ask at unit mid

    def __post_init__(self):
        cfg = self.cfg
        self._vols = np.linspace(0.0, cfg.depth, cfg.n_points)
        x = self._vols / cfg.depth
        bid = 1.0 - cfg.spread / 2.0 - cfg.bid_slope * x - cfg.bid_curv * x * x
        ask = 1.0 + cfg.spread / 2.0 + cfg.ask_slope * x + cfg.ask_curv * x * x
        for arr in (self._vols, bid, ask):
            arr.flags.writeable = False
        self._profiles = (bid, ask)

    def step(self) -> None:
        """One lognormal return step, after applying any queued impact,
        linear in the flow: ``impact_alpha`` times its size.

        Raises ``NonFiniteAmount`` naming the asset when the mid overflows
        or underflows to 0.
        """
        if self.pending_flow != 0.0:
            self.mid = max(self.mid + self.cfg.impact_alpha * self.pending_flow, 1e-9)
            self.pending_flow = 0.0
        z = float(self.rng.standard_normal())
        sigma = self.cfg.sigma
        try:
            self.mid *= math.exp(self.cfg.drift - 0.5 * sigma * sigma + sigma * z)
        except OverflowError:
            self.mid = math.inf
        if not 0.0 < self.mid < math.inf:
            how = "overflows" if self.mid else "underflows to 0"
            raise NonFiniteAmount(f"asset {self.cfg.asset_id}: external mid {how}")

    def record_flow(self, signed_volume: float) -> None:
        """Net external hedging flow; positive = external buying pressure."""
        self.pending_flow += signed_volume

    def fit_curves(self, *, clamp: bool) -> tuple[Eldf, Eldf]:
        """This slot's (bid, ask) curves, fitted to the profiles at the mid."""
        return tuple(fit_eldf(self._vols, self.mid * unit, clamp=clamp) for unit in self._profiles)


def build_markets(assets, seed_seq: np.random.SeedSequence) -> dict[str, AssetMarket]:
    """Each asset's market by asset id, in asset-id order, each on its own
    deterministic RNG stream spawned from ``seed_seq``."""
    assets = sorted(assets, key=lambda a: a.asset_id)
    return {
        cfg.asset_id: AssetMarket(cfg=cfg, mid=cfg.mid_price, rng=np.random.default_rng(child))
        for cfg, child in zip(assets, seed_seq.spawn(len(assets)))
    }


def step_all(markets: dict[str, AssetMarket]) -> None:
    """Step every market, in the dict's (asset-id) order."""
    for market in markets.values():
        market.step()
