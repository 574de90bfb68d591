"""Asset pools, synthetic accounting-asset pools, and the balance sheet.

The balance sheet is event-sourced: every mutation appends an entry with
fully resolved amounts, and replaying the log from genesis reproduces all
balances bit-exactly. Accounting-asset amounts are integer ledger units
(see money.SCALE); physical inventory is carried in asset units as
floats, with float operations applied in the same order on replay.

Sign convention for the synthetic flow T: T > 0 means accounting value
was net received against an asset deficit (inventory below the LP claim),
T < 0 means value is owed against a surplus. Buying an asset from a pool
raises that asset's T; selling into the pool lowers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .eldf import Eldf, integrate_eldf
from .errors import NonPositiveAmount, ValuationUnavailable
from .money import from_units, to_units


@dataclass
class AssetPool:
    asset_id: str
    inventory: float = 0.0
    lp_inventory: float = 0.0


@dataclass
class SyntheticPool:
    asset_id: str
    t_units: int = 0

    @property
    def t(self) -> float:
        return from_units(self.t_units)


@dataclass(frozen=True, slots=True)
class LogEntry:
    kind: str
    data: tuple


class BalanceSheet:
    """Single-writer aggregate of all pools plus the append-only log."""

    def __init__(self, asset_ids=()):
        self.pools: dict[str, AssetPool] = {}
        self.spools: dict[str, SyntheticPool] = {}
        self.rr_units: dict[str, int] = {}
        self.log: list[LogEntry] = []
        self.version: int = 0
        for asset_id in asset_ids:
            self.add_asset(asset_id)

    def add_asset(self, asset_id: str) -> None:
        if asset_id in self.pools:
            return
        self.pools[asset_id] = AssetPool(asset_id)
        self.spools[asset_id] = SyntheticPool(asset_id)
        self.rr_units[asset_id] = 0

    def asset_ids(self):
        return sorted(self.pools)

    def bump_version(self) -> None:
        """Invalidate outstanding quotes (e.g. after a curve refit)."""
        self.version += 1

    # --- primary LP operations ---

    def deposit_plp(self, asset_id: str, amount: float) -> AssetPool:
        if not amount > 0:
            raise NonPositiveAmount(f"deposit must be positive, got {amount}")
        self.add_asset(asset_id)
        entry = LogEntry("deposit_plp", (asset_id, float(amount)))
        self._apply(entry)
        self.log.append(entry)
        self.version += 1
        return self.pools[asset_id]

    # --- trade and reserve entries (appended by the pricing commit path) ---

    def record_trade(self, data: tuple) -> None:
        """data: (timestep, asset_in, asset_out, v_in, v_out, v_s_units,
        v_prime_units, rp_in_units, rp_out_units, fee_units)."""
        entry = LogEntry("trade", data)
        self._apply(entry)
        self.log.append(entry)
        self.version += 1

    def adjust_rr(self, asset_id: str, delta_units: int, reason: str) -> None:
        entry = LogEntry("rr_adjust", (asset_id, int(delta_units), reason))
        self._apply(entry)
        self.log.append(entry)
        self.version += 1

    # --- application / replay ---

    def _apply(self, entry: LogEntry) -> None:
        kind, data = entry.kind, entry.data
        if kind == "deposit_plp":
            asset_id, amount = data
            self.add_asset(asset_id)
            pool = self.pools[asset_id]
            pool.inventory += amount
            pool.lp_inventory += amount
        elif kind == "trade":
            (_t, a_in, a_out, v_in, v_out, _vs, vp, rp_in, rp_out, _fee) = data
            self.add_asset(a_in)
            self.add_asset(a_out)
            self.pools[a_in].inventory += v_in
            self.pools[a_out].inventory -= v_out
            self.spools[a_in].t_units -= vp
            self.spools[a_out].t_units += vp
            self.rr_units[a_in] += rp_in
            self.rr_units[a_out] += rp_out
        elif kind == "rr_adjust":
            asset_id, delta, _reason = data
            self.add_asset(asset_id)
            self.rr_units[asset_id] += delta
        else:
            raise ValueError(f"unknown log entry kind {kind!r}")

    @classmethod
    def replay(cls, log) -> "BalanceSheet":
        sheet = cls()
        for entry in log:
            sheet._apply(entry)
            sheet.log.append(entry)
            sheet.version += 1
        return sheet

    def balances(self) -> dict:
        """Flat snapshot used to compare a sheet against its replay."""
        return {
            "pools": {a: (p.inventory, p.lp_inventory) for a, p in self.pools.items()},
            "t": {a: s.t_units for a, s in self.spools.items()},
            "rr": dict(self.rr_units),
        }


def solvency_check(sheet: BalanceSheet, bid_curves: Mapping[str, Eldf]) -> int:
    """Bid-curve value of inventories minus the LP claims, across assets,
    in ledger units. Both sides value every pool from zero depth on the
    asset's own bid curve; the surplus is negative when obligations are
    not covered.
    """
    lhs = 0
    rhs = 0
    for asset_id in sheet.asset_ids():
        pool = sheet.pools[asset_id]
        if pool.inventory == 0.0 and pool.lp_inventory == 0.0:
            continue
        bid = bid_curves.get(asset_id)
        if bid is None:
            raise ValuationUnavailable(f"no bid curve for {asset_id}")
        lhs += to_units(integrate_eldf(bid, 0.0, pool.inventory))
        rhs += to_units(integrate_eldf(bid, 0.0, pool.lp_inventory))
    return lhs - rhs
