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

from ..eldf import ASK, BID, Eldf, fit_eldf
from ..errors import NonFiniteAmount
from .config import AssetConfig


@dataclass
class AssetMarket:
    cfg: AssetConfig
    mid: float
    rng: np.random.Generator
    pending_flow: float = 0.0
    _vols: np.ndarray = field(init=False, repr=False, compare=False)
    _profiles: tuple = field(init=False, repr=False, compare=False)  # (side, unit-mid prices)

    def __post_init__(self):
        cfg = self.cfg
        self._vols = np.linspace(0.0, cfg.depth, cfg.n_points)
        x = self._vols / cfg.depth
        bid = 1.0 - cfg.spread / 2.0 - cfg.bid_slope * x - cfg.bid_curv * x * x
        ask = 1.0 + cfg.spread / 2.0 + cfg.ask_slope * x + cfg.ask_curv * x * x
        for arr in (self._vols, bid, ask):
            arr.flags.writeable = False
        self._profiles = ((BID, bid), (ASK, ask))

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

    def fit_curves(self, slot_id: int, *, extrapolation: str) -> tuple[Eldf, Eldf]:
        """This slot's (bid, ask) curves, fitted to the profiles at the mid."""
        bid, ask = (
            fit_eldf(
                self._vols, self.mid * unit,
                side=side, slot_id=slot_id, extrapolation=extrapolation,
            )
            for side, unit in self._profiles
        )
        return bid, ask


class ExternalMarket:
    """All asset markets, each on its own deterministic RNG stream."""

    def __init__(self, assets, seed_seq: np.random.SeedSequence):
        children = seed_seq.spawn(len(assets))
        self.markets: dict[str, AssetMarket] = {}
        for cfg, child in zip(sorted(assets, key=lambda a: a.asset_id), children):
            self.markets[cfg.asset_id] = AssetMarket(
                cfg=cfg, mid=cfg.mid_price, rng=np.random.default_rng(child)
            )

    def __getitem__(self, asset_id: str) -> AssetMarket:
        return self.markets[asset_id]

    def asset_ids(self):
        return sorted(self.markets)

    def step_all(self) -> None:
        for asset_id in self.asset_ids():
            self.markets[asset_id].step()
