"""Asset pools, the accounting-asset balances, and the balance sheet.

The balance sheet is event-sourced: every mutation appends a row with
fully resolved amounts, and replaying the rows from genesis reproduces
all balances bit-exactly. Accounting-asset amounts are integer ledger
units (see money.SCALE); physical inventory is carried in asset units as
floats, with float operations applied in the same order on replay. A
row the sheet refuses raises before it moves anything.

Each row is one row of a run's ``ledger.csv`` (columns ``LEDGER``),
stamped with the engine's timestep, 0 for the rows booked before the
first one. A deposit fills ``asset_in`` and ``v_in``; a ``trade`` the
fill, the fee's treasury slice ``xi_units`` (the rest accrues to
``asset_out``'s pending reward) and the ``agent`` that sent it; an
``rr_adjust``, which moves RR and debits the treasury by the same units,
``asset_in``, ``rp_in_units`` and ``reason``; and a ``reward``, which
moves an asset's pending reward to the classes' claimable balances,
``asset_in`` and the units per class. The four vault kinds fill
``asset_in`` and put their units in the vault's class column,
``slp_long_units`` or ``slp_short_units``: a ``vault_flow`` (a vault's
opening collateral at timestep 0, or a queued deposit or withdrawal
applied), a ``settle`` (the swaption's settlement, the first row of
each asset's epoch boundary, both cells empty with no position), a
``premium_flow`` and a ``liquidate``, whose 1 liquidates the vault and
0 revives it. The cells a kind does not use hold ``""``. The engine
streams ``BalanceSheet.log`` to that file with its other log rows and
empties it as it goes, so a replay of a run starts from ``ledger.csv``:
floats are written by str(), which round-trips them, and ledger units as
ints. ``views`` renders ``trades.csv``, ``treasury.csv`` and
``vaults.csv`` from the rows.

Sign convention for the synthetic flow T: T > 0 means accounting value
was net received against an asset deficit (inventory below the LP claim),
T < 0 means value is owed against a surplus. Buying an asset from a pool
raises that asset's T; selling into the pool lowers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .eldf import Eldf, integrate_eldf
from .errors import BadParams, InvariantBreach
from .money import from_units, to_units


# the sLP vault sides (see vaults)
LONG = "long"
SHORT = "short"

# the reward classes (see treasury.reward_distribute)
PLP = "plp"
SLP_LONG = "slp_long"
SLP_SHORT = "slp_short"
REWARD_CLASSES = (PLP, SLP_LONG, SLP_SHORT)


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


@dataclass
class Vault:
    """An sLP vault; its collateral and flag move only by sheet rows."""

    asset_id: str
    side: str
    collateral_units: int
    coll_rate: float
    margin_floor_units: int
    liquidated: bool = False

    def capacity(self, reserve_units: int = 0) -> float:
        """Maximum open inventory this vault can cover, net of a reserve.

        Reserve rule: ``reserve_units``, the premium debit the next epoch
        boundary will take from this vault, is held back from its
        collateral, and a vault whose collateral net of the reserve is at
        or below the margin floor covers nothing, since that boundary's
        margin check would liquidate it; nor does a liquidated vault.
        """
        free_units = self.collateral_units - reserve_units
        if self.liquidated or free_units <= self.margin_floor_units:
            return 0.0
        return from_units(free_units) / self.coll_rate


LEDGER = (
    "timestep", "kind", "asset_in", "asset_out", "v_in", "v_out", "v_s_units",
    "v_prime_units", "rp_in_units", "rp_out_units", "fee_units", "xi_units", "agent",
    "plp_units", "slp_long_units", "slp_short_units", "reason",
)
VAULT_KINDS = ("vault_flow", "settle", "premium_flow", "liquidate")


class BalanceSheet:
    """Single-writer aggregate of all pools plus the append-only log of
    ``LEDGER`` rows. Its accounting-asset balances are ledger units: per
    asset the flow T, the premium reserve RR and the pending reward
    (``t_units``, ``rr_units``, ``pending_units``), the treasury, and
    the rewards each (asset, class) can claim, and the ``vaults`` by
    (asset, side). ``totals`` sums the rows' ``v_s``, ``v_prime``, premia
    ``rp``, ``fee``, ``xi``, ``upsilon`` (an ``rr_adjust``'s units) and
    the units of each of ``VAULT_KINDS`` for the engine's audit."""

    def __init__(self, asset_ids=()):
        self.pools: dict[str, AssetPool] = {}
        self.t_units: dict[str, int] = {}
        self.rr_units: dict[str, int] = {}
        self.pending_units: dict[str, int] = {}
        self.claimable_units: dict[tuple[str, str], int] = {}
        self.vaults: dict[tuple[str, str], Vault] = {}
        self.treasury_units = 0
        self.totals = dict.fromkeys(("v_s", "v_prime", "rp", "fee", "xi", "upsilon"), 0)
        self.totals.update(dict.fromkeys(VAULT_KINDS, 0))
        self.log: list[tuple] = []
        for asset_id in asset_ids:
            self.add_asset(asset_id)

    def add_asset(self, asset_id: str) -> None:
        if asset_id in self.pools:
            return
        self.pools[asset_id] = AssetPool(asset_id)
        self.t_units[asset_id] = 0
        self.rr_units[asset_id] = 0
        self.pending_units[asset_id] = 0

    def asset_ids(self):
        return sorted(self.pools)

    # --- primary LP operations ---

    def deposit_plp(self, asset_id: str, amount: float) -> AssetPool:
        """Deposit before the first timestep: the row's timestep is 0."""
        if not amount > 0:
            raise BadParams(f"deposit must be positive, got {amount}")
        self._record((0, "deposit_plp", asset_id, "", float(amount), *[""] * 12))
        return self.pools[asset_id]

    # --- trade, reserve and reward entries ---

    def record_trade(self, data: tuple) -> None:
        """data: (timestep, asset_in, asset_out, v_in, v_out, v_s_units,
        v_prime_units, rp_in_units, rp_out_units, fee_units, xi_units,
        agent)."""
        self._record((data[0], "trade", *data[1:], "", "", "", ""))

    def adjust_rr(
        self, asset_id: str, delta_units: int, reason: str, *, timestep: int = 0
    ) -> None:
        """Move ``asset_id``'s RR by ``delta_units`` against the treasury;
        a debit above the treasury balance raises ``InvariantBreach``."""
        self._record(
            (timestep, "rr_adjust", asset_id, *[""] * 5, int(delta_units), *[""] * 7, reason)
        )

    def record_reward(self, timestep: int, asset_id: str, shares: dict[str, int]) -> None:
        """Move ``asset_id``'s pending reward to the classes' claimable
        balances; ``shares`` (class -> units) must sum to it, or the row
        raises ``BadParams``."""
        self._record(
            (timestep, "reward", asset_id, *[""] * 10, *(shares[c] for c in REWARD_CLASSES), "")
        )

    def open_vault(self, asset_id: str, side: str, coll_rate: float, floor_units: int) -> Vault:
        """An empty vault on ``side`` of ``asset_id``; rows fill it."""
        vault = self.vaults[(asset_id, side)] = Vault(asset_id, side, 0, coll_rate, floor_units)
        return vault

    def book_vault(
        self, timestep: int, kind: str, asset_id: str, side: str | None, units: int
    ) -> None:
        """A row of one of ``VAULT_KINDS`` on the vault on ``side`` (None
        for a ``settle`` with no position); a move that would take its
        collateral below 0 raises ``BadParams``."""
        cells = (units, "") if side == LONG else ("", units) if side == SHORT else ("", "")
        self._record((timestep, kind, asset_id, *[""] * 11, *cells, ""))

    # --- application / replay ---

    def _record(self, row: tuple) -> None:
        self._apply(row)
        self.log.append(row)

    def _apply(self, row: tuple) -> None:
        (
            _t, kind, a_in, a_out, v_in, v_out, v_s, vp, rp_in, rp_out, fee, xi, _agent,
            *shares, _reason,
        ) = row
        totals = self.totals
        if kind == "trade":
            self.add_asset(a_in)
            self.add_asset(a_out)
            self.pools[a_in].inventory += v_in
            self.pools[a_out].inventory -= v_out
            self.t_units[a_in] -= vp
            self.t_units[a_out] += vp
            self.rr_units[a_in] += rp_in
            self.rr_units[a_out] += rp_out
            self.treasury_units += xi
            self.pending_units[a_out] += fee - xi
            totals["v_s"] += v_s
            totals["v_prime"] += vp
            totals["rp"] += rp_in + rp_out
            totals["fee"] += fee
            totals["xi"] += xi
        elif kind == "deposit_plp":
            self.add_asset(a_in)
            pool = self.pools[a_in]
            pool.inventory += v_in
            pool.lp_inventory += v_in
        elif kind == "rr_adjust":
            if rp_in > self.treasury_units:
                raise InvariantBreach(
                    f"{a_in} rr_adjust of {rp_in} units overdraws the treasury's "
                    f"{self.treasury_units}"
                )
            self.add_asset(a_in)
            self.rr_units[a_in] += rp_in
            self.treasury_units -= rp_in
            totals["upsilon"] += rp_in
        elif kind == "reward":
            pending = self.pending_units.get(a_in, 0)
            if sum(shares) != pending:
                raise BadParams(f"{a_in} reward shares sum to {sum(shares)}, not {pending}")
            self.add_asset(a_in)
            for cls, units in zip(REWARD_CLASSES, shares):
                key = (a_in, cls)
                self.claimable_units[key] = self.claimable_units.get(key, 0) + units
            self.pending_units[a_in] = 0
        elif kind in VAULT_KINDS:
            side, units = (LONG, shares[1]) if shares[1] != "" else (SHORT, shares[2])
            if units == "":
                return
            vault = self.vaults.get((a_in, side))
            if vault is None:  # replayed: the rate and floor are not ledger facts
                vault = self.vaults[(a_in, side)] = Vault(a_in, side, 0, 1.0, 0)
            if kind == "liquidate":
                vault.liquidated = bool(units)
            elif vault.collateral_units + units < 0:
                raise BadParams(
                    f"vault withdrawal of {-units} units ({kind}) overdraws {a_in} {side}'s "
                    f"{vault.collateral_units}"
                )
            else:
                vault.collateral_units += units
            totals[kind] += units
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
            "pending": dict(self.pending_units),
            "claimable": dict(self.claimable_units),
            "treasury": self.treasury_units,
            "vaults": {k: (v.collateral_units, v.liquidated) for k, v in self.vaults.items()},
            "totals": dict(self.totals),
        }


def views(rows, state: dict) -> dict[str, list[tuple]]:
    """The ``trades``, ``treasury`` and ``vaults`` rows of ``rows``: a
    trade row per ``trade`` row, with the flows T after it; an ``xi``,
    ``upsilon`` or ``reward`` row per ``trade``, ``rr_adjust`` or
    ``reward`` row, with the treasury balance after it; and a long and a
    short vault row per ``settle`` row, for the asset's epoch boundary,
    which runs to its next ``settle`` row or the end of ``rows``.

    ``state`` carries T, the treasury balance and each vault's last row
    (epoch, collateral and flag), so one dict passed to each batch of a
    log in turn renders the whole log; ``Engine.run`` drains batches
    between timesteps, so none splits a boundary."""
    trades, treasury, vault_rows = [], [], []
    t_units = state.setdefault("t", {})
    vaults = state.setdefault("vaults", {})  # (asset, side) -> its last vaults row
    balance = state.get("treasury", 0)
    for t, kind, a_in, a_out, v_in, v_out, v_s, vp, rp_in, rp_out, fee, xi, _, *shares, _ in rows:
        if kind == "trade":
            t_in = t_units[a_in] = t_units.get(a_in, 0) - vp
            t_out = t_units[a_out] = t_units.get(a_out, 0) + vp
            trades.append((
                t, f"{a_in}->{a_out}", v_in, from_units(v_s), from_units(vp), from_units(rp_in),
                from_units(rp_out), from_units(fee), v_out, from_units(t_in), from_units(t_out),
            ))
            balance += xi
            treasury.append((t, "xi", a_in, from_units(xi), from_units(balance)))
        elif kind == "rr_adjust":
            balance -= rp_in
            treasury.append((t, "upsilon", a_in, from_units(rp_in), from_units(balance)))
        elif kind == "reward":
            treasury.append((t, "reward", a_in, from_units(sum(shares)), from_units(balance)))
        elif kind in VAULT_KINDS:
            if kind == "settle":  # opens the boundary's rows from the last ones
                for side in (LONG, SHORT):
                    epoch, *_, units, flag = vaults.get((a_in, side), (0, 0, 0))
                    vaults[(a_in, side)] = row = [epoch + 1, a_in, side, units, 0, 0, units, flag]
                    vault_rows.append(row)
            side, units = (LONG, shares[1]) if shares[1] != "" else (SHORT, shares[2])
            if units != "":
                row = vaults.setdefault((a_in, side), [0, a_in, side, 0, 0, 0, 0, 0])
                if kind == "liquidate":
                    row[7] = units
                else:
                    row[6] += units  # collateral after
                    if kind == "premium_flow":
                        row[4] += units
                    elif kind == "settle":
                        row[5] += units
    state["treasury"] = balance
    vault_rows = [
        (e, a, s, from_units(c0), from_units(flow), from_units(settled), from_units(c1), flag)
        for e, a, s, c0, flow, settled, c1, flag in vault_rows
    ]
    return {"trades": trades, "treasury": treasury, "vaults": vault_rows}


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
