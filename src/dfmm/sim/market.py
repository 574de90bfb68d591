"""Synthetic external market: price processes and venue snapshots.

Each asset's external mid follows a lognormal step process with optional
drift, plus a linear price impact from net arbitrage hedging flow. Venue
snapshots are sampled from per-side quadratic depth profiles around the
mid, so the fitted curves reproduce the generating profile exactly.

A market's config is frozen, so its snapshot volume grid and the
normalised depths x = vols / depth are built once, when the market is
created; every snapshot then only evaluates the price expressions at
the current mid. Because every slot hands ``fit_eldf`` the same volumes,
its design-matrix cache (keyed on the volumes' exact bytes) serves every
refit after the first, and both caches hold exactly the arrays a fresh
build would compute, so fitted curves are bit-identical to rebuilding
them each slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from ..eldf import ASK, BID, CurvePoint, Eldf, fit_eldf
from ..metrics import market_impact
from .config import AssetConfig


@dataclass
class AssetMarket:
    cfg: AssetConfig
    mid: float
    rng: np.random.Generator
    pending_flow: float = 0.0
    _vols: list = field(init=False, repr=False, compare=False)
    _x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vols = np.linspace(0.0, self.cfg.depth, self.cfg.n_points)
        self._vols = vols.tolist()
        self._x = vols / self.cfg.depth

    def step(self) -> None:
        """One lognormal return step, after applying any queued impact."""
        if self.pending_flow != 0.0:
            self.mid = max(
                self.mid + market_impact(self.cfg.impact_alpha, self.pending_flow),
                1e-9,
            )
            self.pending_flow = 0.0
        z = float(self.rng.standard_normal())
        sigma = self.cfg.sigma
        self.mid *= math.exp(self.cfg.drift - 0.5 * sigma * sigma + sigma * z)

    def record_flow(self, signed_volume: float) -> None:
        """Net external hedging flow; positive = external buying pressure."""
        self.pending_flow += signed_volume

    def snapshot(self, slot_id: int):
        """Per-side snapshot points sampled from the depth profile."""
        cfg = self.cfg
        x = self._x
        bid_prices = self.mid * (
            1.0 - cfg.spread / 2.0 - cfg.bid_slope * x - cfg.bid_curv * x * x
        )
        ask_prices = self.mid * (
            1.0 + cfg.spread / 2.0 + cfg.ask_slope * x + cfg.ask_curv * x * x
        )
        bid_pts = [CurvePoint(v, p) for v, p in zip(self._vols, bid_prices.tolist())]
        ask_pts = [CurvePoint(v, p) for v, p in zip(self._vols, ask_prices.tolist())]
        return bid_pts, ask_pts

    def fit_curves(self, slot_id: int, *, extrapolation: str) -> tuple[Eldf, Eldf]:
        bid_pts, ask_pts = self.snapshot(slot_id)
        bid = fit_eldf(bid_pts, side=BID, slot_id=slot_id, extrapolation=extrapolation)
        ask = fit_eldf(ask_pts, side=ASK, slot_id=slot_id, extrapolation=extrapolation)
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
