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

from dataclasses import dataclass, field
from typing import Mapping

from .eldf import Eldf, integrate_eldf
from .errors import (
    ExceedsLpClaim,
    NegativeFlow,
    NonPositiveAmount,
    ValuationUnavailable,
)
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


def open_inventory(pool: AssetPool) -> float:
    """Inventory minus the LP claim: the unhedged exposure in the asset."""
    return pool.inventory - pool.lp_inventory


def hedge_target(pool: AssetPool, bid: Eldf | None, ask: Eldf | None) -> float:
    """Synthetic flow required to fully hedge the open inventory.

    A surplus should be carried against negative T worth its bid-side
    value; a deficit against positive T worth its ask-side repurchase
    cost. Returns 0 when inventory matches the LP claim.
    """
    gap = abs(pool.lp_inventory - pool.inventory)
    if gap == 0.0:
        return 0.0
    if pool.inventory >= pool.lp_inventory:
        if bid is None:
            raise ValuationUnavailable(f"no bid curve for {pool.asset_id}")
        return -integrate_eldf(bid, 0.0, gap)
    if ask is None:
        raise ValuationUnavailable(f"no ask curve for {pool.asset_id}")
    return integrate_eldf(ask, 0.0, gap)


@dataclass(frozen=True)
class Payout:
    """Result of an LP withdrawal: in-kind units plus any $S shortfall leg."""

    asset_id: str
    in_kind: float
    s_units: int

    @property
    def s_value(self) -> float:
        return from_units(self.s_units)


@dataclass(frozen=True)
class SolvencyReport:
    solvent: bool
    surplus_units: int

    @property
    def surplus(self) -> float:
        return from_units(self.surplus_units)

    @property
    def deficit(self) -> float:
        return max(0.0, -self.surplus)


@dataclass(frozen=True)
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

    def withdraw_plp(self, asset_id: str, amount: float, bid: Eldf | None = None) -> Payout:
        """Pay the LP claim in kind, topping up any inventory shortfall in $S.

        The shortfall leg is valued on the asset's bid curve (what the
        missing units would fetch), so a missing curve is an error only
        when a shortfall actually exists.
        """
        if not amount > 0:
            raise NonPositiveAmount(f"withdrawal must be positive, got {amount}")
        pool = self.pools[asset_id]
        if amount > pool.lp_inventory:
            raise ExceedsLpClaim(
                f"withdraw {amount} exceeds LP claim {pool.lp_inventory}"
            )
        in_kind = min(pool.inventory, amount)
        shortfall = amount - in_kind
        s_units = 0
        if shortfall > 0:
            if bid is None:
                raise ValuationUnavailable(
                    f"no bid curve to value {shortfall} {asset_id} shortfall"
                )
            s_units = to_units(integrate_eldf(bid, 0.0, shortfall))
        entry = LogEntry(
            "withdraw_plp", (asset_id, float(amount), float(in_kind), s_units)
        )
        self._apply(entry)
        self.log.append(entry)
        self.version += 1
        return Payout(asset_id, in_kind, s_units)

    # --- synthetic pool operations ---

    def apply_synthetic_flow(
        self, asset_id: str, withdrawn: float, deposited: float
    ) -> SyntheticPool:
        if withdrawn < 0 or deposited < 0:
            raise NegativeFlow(
                f"flows must be nonnegative, got withdrawn={withdrawn} "
                f"deposited={deposited}"
            )
        entry = LogEntry(
            "synthetic_flow", (asset_id, to_units(withdrawn), to_units(deposited))
        )
        self._apply(entry)
        self.log.append(entry)
        self.version += 1
        return self.spools[asset_id]

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
        elif kind == "withdraw_plp":
            asset_id, amount, in_kind, _s_units = data
            pool = self.pools[asset_id]
            pool.inventory -= in_kind
            pool.lp_inventory -= amount
        elif kind == "synthetic_flow":
            asset_id, w_units, d_units = data
            self.add_asset(asset_id)
            self.spools[asset_id].t_units += w_units - d_units
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


def solvency_check(sheet: BalanceSheet, bid_curves: Mapping[str, Eldf]) -> SolvencyReport:
    """Bid-curve value of inventories versus the LP claims, across assets.

    Both sides value every pool from zero depth on the asset's own bid
    curve; the signed surplus is positive when obligations are covered.
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
    surplus = lhs - rhs
    return SolvencyReport(solvent=surplus >= 0, surplus_units=surplus)
