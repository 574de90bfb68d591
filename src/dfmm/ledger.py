"""Asset pools, the accounting-asset balances, and the balance sheet.

The balance sheet is event-sourced: every mutation appends a row with
fully resolved amounts, and replaying the rows from genesis reproduces
all balances bit-exactly. Accounting-asset amounts are integer ledger
units (see money.SCALE); physical inventory is carried in asset units as
floats, with float operations applied in the same order on replay.

Each row is one row of a run's ``ledger.csv`` (columns ``LEDGER``),
stamped with the engine's timestep, 0 for the deposits made before the
first one. A deposit fills ``asset_in`` and ``v_in``, an ``rr_adjust``
fills ``asset_in``, ``rp_in_units`` and ``reason``, and the cells a kind
does not use hold ``""``. The engine streams ``BalanceSheet.log`` to that
file with its other log rows and empties it as it goes, so a replay of a
run starts from ``ledger.csv``: floats are written by str(), which
round-trips them, and ledger units as ints. A fill's one record is its
``trade`` row; ``trade_rows`` renders it as a row of ``trades.csv``.

Sign convention for the synthetic flow T: T > 0 means accounting value
was net received against an asset deficit (inventory below the LP claim),
T < 0 means value is owed against a surplus. Buying an asset from a pool
raises that asset's T; selling into the pool lowers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .eldf import Eldf, integrate_eldf
from .errors import BadParams
from .money import from_units, to_units


# the sLP vault sides (see vaults)
LONG = "long"
SHORT = "short"


@dataclass
class AssetPool:
    asset_id: str
    inventory: float = 0.0
    lp_inventory: float = 0.0

    def open_inventory(self, inflow: float = 0.0) -> tuple[str | None, float]:
        """The vault side covering the open inventory once ``inflow`` more
        asset units are in the pool, and that inventory: a surplus over
        the LP claim is the long vault's, a deficit the short vault's;
        (None, 0.0) when the pool matches the claim."""
        gap = (self.inventory + inflow) - self.lp_inventory
        if gap > 0:
            return LONG, gap
        if gap < 0:
            return SHORT, -gap
        return None, 0.0


LEDGER = (
    "timestep", "kind", "asset_in", "asset_out", "v_in", "v_out", "v_s_units",
    "v_prime_units", "rp_in_units", "rp_out_units", "fee_units", "reason",
)


class BalanceSheet:
    """Single-writer aggregate of all pools plus the append-only log of
    ``LEDGER`` rows. Each asset's accounting-asset balances, the flow T
    and the premium reserve RR, are ledger units in ``t_units`` and
    ``rr_units``."""

    def __init__(self, asset_ids=()):
        self.pools: dict[str, AssetPool] = {}
        self.t_units: dict[str, int] = {}
        self.rr_units: dict[str, int] = {}
        self.log: list[tuple] = []
        for asset_id in asset_ids:
            self.add_asset(asset_id)

    def add_asset(self, asset_id: str) -> None:
        if asset_id in self.pools:
            return
        self.pools[asset_id] = AssetPool(asset_id)
        self.t_units[asset_id] = 0
        self.rr_units[asset_id] = 0

    def asset_ids(self):
        return sorted(self.pools)

    # --- primary LP operations ---

    def deposit_plp(self, asset_id: str, amount: float) -> AssetPool:
        """Deposit before the first timestep: the row's timestep is 0."""
        if not amount > 0:
            raise BadParams(f"deposit must be positive, got {amount}")
        self._record((0, "deposit_plp", asset_id, "", float(amount), "", "", "", "", "", "", ""))
        return self.pools[asset_id]

    # --- trade and reserve entries (appended by the pricing commit path) ---

    def record_trade(self, data: tuple) -> None:
        """data: (timestep, asset_in, asset_out, v_in, v_out, v_s_units,
        v_prime_units, rp_in_units, rp_out_units, fee_units)."""
        self._record((data[0], "trade", *data[1:], ""))

    def adjust_rr(
        self, asset_id: str, delta_units: int, reason: str, *, timestep: int = 0
    ) -> None:
        self._record(
            (timestep, "rr_adjust", asset_id, "", "", "", "", "", int(delta_units), "", "", reason)
        )

    # --- application / replay ---

    def _record(self, row: tuple) -> None:
        self._apply(row)
        self.log.append(row)

    def _apply(self, row: tuple) -> None:
        _t, kind, a_in, a_out, v_in, v_out, _vs, vp, rp_in, rp_out, _fee, _reason = row
        self.add_asset(a_in)
        if kind == "trade":
            self.add_asset(a_out)
            self.pools[a_in].inventory += v_in
            self.pools[a_out].inventory -= v_out
            self.t_units[a_in] -= vp
            self.t_units[a_out] += vp
            self.rr_units[a_in] += rp_in
            self.rr_units[a_out] += rp_out
        elif kind == "deposit_plp":
            pool = self.pools[a_in]
            pool.inventory += v_in
            pool.lp_inventory += v_in
        elif kind == "rr_adjust":
            self.rr_units[a_in] += rp_in
        else:
            raise BadParams(f"unknown ledger row kind {kind!r}")

    @classmethod
    def replay(cls, rows) -> "BalanceSheet":
        """The sheet that ``rows`` (``LEDGER`` rows from genesis, typed as
        the sheet logs them) produce."""
        sheet = cls()
        for row in rows:
            sheet._record(row)
        return sheet

    def balances(self) -> dict:
        """Flat snapshot used to compare a sheet against its replay."""
        return {
            "pools": {a: (p.inventory, p.lp_inventory) for a, p in self.pools.items()},
            "t": dict(self.t_units),
            "rr": dict(self.rr_units),
        }


def trade_rows(rows, t_units: dict) -> list[tuple]:
    """The ``trades.csv`` rows of the ``trade`` rows among ``rows``. The
    flows T after each fill advance in ``t_units`` (asset -> units, 0 when
    absent) as ``_apply`` advances the sheet's, so one dict passed to each
    batch of a log in turn renders the whole log."""
    out = []
    for t, kind, a_in, a_out, v_in, v_out, v_s, vp, rp_in, rp_out, fee, _ in rows:
        if kind == "trade":
            t_in = t_units[a_in] = t_units.get(a_in, 0) - vp
            t_out = t_units[a_out] = t_units.get(a_out, 0) + vp
            out.append((
                t, f"{a_in}->{a_out}", v_in, from_units(v_s), from_units(vp), from_units(rp_in),
                from_units(rp_out), from_units(fee), v_out, from_units(t_in), from_units(t_out),
            ))
    return out


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
        bid = bid_curves[asset_id]
        lhs += to_units(integrate_eldf(bid, 0.0, pool.inventory))
        rhs += to_units(integrate_eldf(bid, 0.0, pool.lp_inventory))
    return lhs - rhs
