"""Deterministic scenario engine: timesteps, epochs, agents, accounting.

Phase order within a timestep is fixed: external market step, slot
refits, exogenous trader flow, arbitrageur, auction progress, metrics.
Epoch boundaries additionally settle swaptions, pass premium flows to
the vaults, apply queued vault deposits and the covered part of queued
withdrawals, distribute rewards, and re-strike hedge positions. The
engine is single-threaded, and ``dfmm run`` has a separate writer
process format and append its log rows (``sim.output.LogWriter``); all
randomness derives from the scenario seed, so identical configs produce
identical outputs byte for byte.

Settlement, premium flow and each queued flow move a vault's collateral
by integer ledger units (positive into the vault, the sign convention of
``vaults``), each booked on the balance sheet and followed by a margin
check, as is every vault when the engine is built. The check books a
``liquidate`` row of 1 for a vault at or below its floor and of 0 for a
liquidated vault a deposit lifted above it, so ``liquidations``, the
sheet's ``liquidate`` total, counts the vaults log's 0 -> 1 flips.

Every swap, whether from a trader, the script or the arbitrageur, is
quoted and committed in one ``pricing.execute_swap`` call, and its quote
is gated on vault capacity net of a reserve: the premium debit the next
boundary would take from the covering vault at the post-trade flow T,
valued with the params in force at the quote by the same
``boundary_premium_flow`` the boundary uses. A trade is rejected unless
the vault still covers its side's open inventory after that debit and
stays above its margin floor.

The audit runs at the end of every timestep, in exact ledger units. Each
identity but the last sets the balance sheet's live balances, the
treasury and the rewards among them, against its sums of rows by kind:
trade balance (fills' V_S = V' + premia + fees), fee split (fees = cum
xi + pending and claimable rewards), premium reserve (RR = premia + cum
upsilon), treasury identity (balance = cum xi - cum upsilon) and
synthetic flows net (the flows T sum to zero) and hedge book (the
vaults' collateral = vault flows, the opening collateral among them, +
settlements + premium flows).
A failed identity raises ``InvariantBreach`` naming it. That, like any
other engine error raised mid-run or by the first refit at construction,
is fail-stop: the run halts with a diagnostic naming the error class and
timestep, and the logs collected so far are preserved.

Log rows are appended to the lists in ``Engine.logs``, one per kind in
``sim.output.LOGGED``. Its ``ledger`` list is the balance sheet's own
event log, ``BalanceSheet.log``, so the drain covers the ledger rows too;
``trades.csv``, ``treasury.csv`` and ``vaults.csv`` are rendered from
its rows when they are written (``ledger.views``). ``run(drain)`` hands
that buffer to ``drain`` and empties it whenever, between two timesteps,
it holds at least ``DRAIN_ROWS`` rows, so a run's memory does not grow
with its horizon; no drain runs inside a timestep. The rows not yet
drained, with the reward claims added at the end, are returned in
``RunArtifacts.logs`` for the caller's last write. A halt therefore
leaves on disk every row drained before it; the caller's last write adds
the rest, including those the halting timestep logged before its error,
so the files match those of the same run kept in memory. Without
``drain``, every row stays in memory, and ``BalanceSheet.replay`` of the
sheet's log rebuilds the sheet.

Each timestep adds its wall-clock time per phase (``PHASES``) to
``Engine.perf`` in ns; ``RunArtifacts.perf`` holds the totals in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from ..auction import auction_step
from ..eldf import AssetCurves, integrate_eldf, solve_volume_for_value
from ..errors import BadParams, EngineError, InvariantBreach
from ..ledger import PLP, BalanceSheet, solvency_check
from ..metrics import impermanent_loss
from ..money import from_units, to_units
from ..pricing import RebalanceParams, execute_swap
from ..treasury import reward_distribute
from ..vaults import (
    LONG,
    SHORT,
    Vault,
    VaultPair,
    cover_coefficient,
    covering_side,
    settle_swaption,
    slp_premium_flow,
    strike_swaption,
    utilisation,
    withdrawable_units,
)
from .agents import ArbitrageurAgent, TraderFlow
from .config import ScenarioConfig
from .market import build_markets, step_all
from .output import LOGGED


@dataclass
class RunArtifacts:
    logs: dict  # kind -> rows not drained during the run
    summary: dict
    config: ScenarioConfig
    perf: dict = field(default_factory=dict)  # seconds per engine phase


# rows the log buffer may hold before run() drains it: about one drain
# per 8 timesteps on a busy two-asset run. A drain evicts some of the
# engine's working set from the caches, so the timestep after it runs
# slower: by about 25-50 us on average with 256-row drains handed to the
# writer process (35-80 us when this process formatted them). Small
# drains keep that cost small and spread it out instead of putting a few
# much slower timesteps in the tail.
DRAIN_ROWS = 256

PHASES = ("market", "refit", "cover", "traders", "arb", "auction", "metrics", "epoch", "audit")


class Engine:
    def __init__(self, cfg: ScenarioConfig):
        cfg.require_valid()
        self.cfg = cfg
        self.t = 0
        self.epoch = 0
        self.halted = False
        self.diagnostic = ""

        root = np.random.SeedSequence(cfg.seed)
        market_seq, trader_seq, arb_seq = root.spawn(3)
        self.markets = build_markets(cfg.assets, market_seq)
        self.traders = TraderFlow(cfg, np.random.default_rng(trader_seq))
        self.arb = (
            ArbitrageurAgent(
                fixed_cost=cfg.arb_fixed_cost,
                max_exposure=cfg.arb_max_exposure,
            )
            if cfg.arb_enabled
            else None
        )

        self.auction_clocks: dict = {}  # (asset, side) -> auction.SideClock

        self.sheet = BalanceSheet()
        self.curves: dict[str, AssetCurves] = {}
        self.vaults: dict[str, VaultPair] = {}
        self.params: dict[str, RebalanceParams] = {}
        self.queued_vault_flows: list[tuple[str, str, int]] = []
        # [script] trades by timestep, each timestep's in file order
        self.script: dict[int, list[tuple[str, str, float]]] = {}
        for trade_t, a_in, a_out, size in cfg.scripted_trades:
            self.script.setdefault(trade_t, []).append((a_in, a_out, size))

        floor_units = to_units(cfg.margin_floor)
        for acfg in sorted(cfg.assets, key=lambda a: a.asset_id):
            aid = acfg.asset_id
            self.sheet.deposit_plp(aid, acfg.deposit)
            vp = self.vaults[aid] = VaultPair(
                long=self.sheet.open_vault(aid, LONG, cfg.rho_long, floor_units),
                short=self.sheet.open_vault(aid, SHORT, cfg.rho_short, floor_units),
            )
            # the opening collateral is each vault's first flow, so a vault
            # that opens at or below its floor is liquidated up front
            self._move_vault("vault_flow", vp.long, to_units(acfg.c_long))
            self._move_vault("vault_flow", vp.short, to_units(acfg.c_short))
            d0 = cfg.d_min
            self.params[aid] = RebalanceParams(
                a_rhs=cfg.a_init, a_lhs=cfg.a_init, d_rhs=d0, d_lhs=d0
            )

        self.logs: dict[str, list] = {kind: [] for kind in LOGGED}
        self.logs["ledger"] = self.sheet.log

        # summary trackers
        self.fills = 0
        self.rejected = 0
        self.trader_cost_units = 0
        self.arb_pnl = 0.0
        self.max_utilisation = 0.0
        self.min_margin_units: int | None = None
        self.perf = dict.fromkeys(PHASES, 0)

        try:
            self._refit_curves(slot_id=0)
            self._strike_all()
        except EngineError as exc:
            self._halt(exc)

    # ------------------------------------------------------------------
    # curve and vault plumbing

    def _refit_curves(self, slot_id: int) -> None:
        rows = self.logs["curves"]
        for aid, market in self.markets.items():
            bid, ask = market.fit_curves(clamp=self.cfg.clamp_extrapolation)
            self.curves[aid] = AssetCurves(bid, ask)
            for side, c in (("bid", bid), ("ask", ask)):
                rows.append((slot_id, aid, side, c.c2, c.c1, c.c0, c.v_lo, c.v_hi))

    def _strike_all(self) -> None:
        """Open each asset's epoch on its vault pair: T, bid and hedge."""
        for aid in self.sheet.asset_ids():
            vp = self.vaults[aid]
            vp.t_open_units = self.sheet.t_units[aid]
            vp.strike_bid = self.curves[aid].bid
            vp.position = strike_swaption(self.sheet.pools[aid], vp.strike_bid)

    def _recompute_cover(self) -> None:
        cfg = self.cfg
        for aid in self.sheet.asset_ids():
            util = utilisation(self.sheet.pools[aid], self.vaults[aid])
            d_rhs, d_lhs = (
                cover_coefficient(u, cfg.d_min, cfg.d_max, cfg.u_max, cfg.k)
                for u in (util.u_rhs, util.u_lhs)
            )
            p = self.params[aid]
            if p.d_rhs != d_rhs or p.d_lhs != d_lhs:
                self.params[aid] = RebalanceParams(
                    a_rhs=p.a_rhs, a_lhs=p.a_lhs, d_rhs=d_rhs, d_lhs=d_lhs
                )

    # ------------------------------------------------------------------
    # trading

    def submit_trade(self, asset_in: str, asset_out: str, v_in: float, agent: str):
        """Quote and commit one swap in one ``execute_swap`` call; returns
        the quote it filled, or None if rejected. Each fill is one
        ``trade`` row of the ledger."""
        try:
            quote = execute_swap(
                asset_in, asset_out, v_in, self.sheet, self.curves, self.params,
                self.cfg.theta, self.cfg.xi, vaults_by_asset=self.vaults, timestep=self.t,
                agent=agent,
            )
        except EngineError:
            self.rejected += 1
            return None
        self.fills += 1

        # expected minus executed price: positive favours the trader
        slip = self.markets[asset_in].mid - from_units(quote.v_s_units) / v_in
        self.logs["metrics"].append((self.t, "slippage", f"{asset_in}->{asset_out}", slip))
        if agent == "trader":
            self.trader_cost_units += (
                quote.rp_in_units + quote.rp_out_units + quote.fee_units
            )
        return quote

    def queue_vault_flow(self, asset_id: str, side: str, amount: float) -> None:
        """Queue an sLP deposit (positive) or withdrawal; applied at the
        next epoch boundary so collateral cannot dodge a settlement.

        A boundary applies only the part of a withdrawal that leaves the
        vault covering its side's open inventory (``withdrawable_units``);
        the rest stays queued for the next boundary. A flow that rounds
        to 0 ledger units moves nothing and is dropped here. A flow to an
        asset or side with no vault raises ``BadParams``."""
        if asset_id not in self.vaults or side not in (LONG, SHORT):
            raise BadParams(f"no {side!r} vault for asset {asset_id!r}")
        units = to_units(amount)
        if units:
            self.queued_vault_flows.append((asset_id, side, units))

    # ------------------------------------------------------------------
    # timestep and epoch

    def _lap(self, phase: str, since: int) -> int:
        now = perf_counter_ns()
        self.perf[phase] += now - since
        return now

    def step_timestep(self) -> None:
        clock = perf_counter_ns()
        self.t += 1
        cfg = self.cfg
        step_all(self.markets)
        clock = self._lap("market", clock)
        if (self.t - 1) % cfg.slot_len == 0:
            self._refit_curves(slot_id=(self.t - 1) // cfg.slot_len)
        clock = self._lap("refit", clock)
        self._recompute_cover()
        clock = self._lap("cover", clock)

        for a_in, a_out, size in self.script.get(self.t, ()):
            self.submit_trade(a_in, a_out, size, agent="script")
        for intent in self.traders.arrivals(self.sheet.asset_ids()):
            self.submit_trade(intent.asset_in, intent.asset_out, intent.v_in, "trader")
        clock = self._lap("traders", clock)

        if self.arb is not None:
            self._run_arbitrageur()
        clock = self._lap("arb", clock)

        # the auction moves only params, the premium reserve and the
        # treasury, so one reading serves it and the metrics
        utils = {
            aid: utilisation(self.sheet.pools[aid], self.vaults[aid])
            for aid in self.sheet.asset_ids()
        }
        at_epoch_boundary = self.t % cfg.epoch_len == 0
        self._run_auction(utils, at_epoch_boundary)
        clock = self._lap("auction", clock)
        self._emit_metrics(utils)
        clock = self._lap("metrics", clock)
        if at_epoch_boundary:
            self.step_epoch()
        clock = self._lap("epoch", clock)
        self._audit()
        self._lap("audit", clock)

    def _run_arbitrageur(self) -> None:
        decision = self.arb.decide(self.sheet.t_units, self.params, self.cfg.theta)
        if decision is None:
            return
        asset_in, asset_out, notional = decision
        # size the in-leg so its bid value is about the target notional
        cin = self.curves[asset_in]
        try:
            v_in = (
                solve_volume_for_value(cin.bid, cin.bid_mark, notional) - cin.bid_mark
            )
        except EngineError:
            return
        if v_in <= 0:
            return
        quote = self.submit_trade(asset_in, asset_out, v_in, agent="arb")
        if quote is None:
            return
        self.markets[asset_in].record_flow(v_in)
        self.markets[asset_out].record_flow(-quote.v_out)
        gain = (
            self.markets[asset_out].mid * quote.v_out
            - self.markets[asset_in].mid * v_in
            - self.arb.fixed_cost
        )
        self.arb_pnl += gain

    def _run_auction(self, utils: dict, at_epoch_boundary: bool) -> None:
        if not self.cfg.auction_enabled:
            return
        self.params, events = auction_step(
            self.cfg, self.auction_clocks, self.t, utils, self.sheet.t_units, self.params,
            self.sheet.treasury_units, at_epoch_boundary=at_epoch_boundary,
        )
        for upsilon_units, row in events:
            # row[1] is the auction row's asset column
            self.sheet.adjust_rr(row[1], upsilon_units, "auction", timestep=self.t)
            self.logs["auction"].append(row)

    def _move_vault(self, kind: str, vault: Vault, units: int) -> None:
        """Book ``units`` into ``vault`` as a ``kind`` row, then its margin
        check: a ``liquidate`` row of 1 for a vault at or below its floor,
        and of 0 for a liquidated one that a deposit lifted above it."""
        self.sheet.book_vault(self.t, kind, vault.asset_id, vault.side, units)
        above = vault.collateral_units > vault.margin_floor_units
        revive = vault.liquidated and above and kind == "vault_flow" and units > 0
        if revive or not (vault.liquidated or above):
            self.sheet.book_vault(self.t, "liquidate", vault.asset_id, vault.side, int(not revive))

    def step_epoch(self) -> None:
        cfg = self.cfg
        self.epoch += 1
        for aid in self.sheet.asset_ids():
            vp = self.vaults[aid]
            pool = self.sheet.pools[aid]

            pos = vp.position
            if pos is None:
                self.sheet.book_vault(self.t, "settle", aid, None, 0)
            else:
                vault = vp.by_side(pos.side)
                moved = settle_swaption(pos, self.curves[aid].bid, vault)
                self._move_vault("settle", vault, moved)

            t_now = self.sheet.t_units[aid]
            side = covering_side(vp.t_open_units, t_now)
            if side is not None:
                vault = vp.by_side(side)
                applied = slp_premium_flow(vp.t_open_units, t_now, self.params[aid], vault)
                if applied:
                    self._move_vault("premium_flow", vault, applied)

            still_queued = []
            for asset_q, side_q, amount_q in self.queued_vault_flows:
                if asset_q != aid:
                    still_queued.append((asset_q, side_q, amount_q))
                    continue
                vault = vp.by_side(side_q)
                # a withdrawal above the collateral is the sheet's BadParams halt
                if 0 < -amount_q <= vault.collateral_units:
                    take = min(-amount_q, withdrawable_units(pool, vault))
                    if take < -amount_q:
                        still_queued.append((asset_q, side_q, amount_q + take))
                    if take == 0:
                        continue
                    amount_q = -take
                self._move_vault("vault_flow", vault, amount_q)
            self.queued_vault_flows = still_queued

            pending = self.sheet.pending_units[aid]
            if pending > 0:
                shares = reward_distribute(pool, vp, pending, gamma=cfg.reward_gamma)
                self.sheet.record_reward(self.t, aid, shares)
        self._strike_all()

    # ------------------------------------------------------------------
    # metrics, audit, run loop

    def solvency_margin_units(self, surplus_units: int | None = None) -> int:
        """Hedged protocol margin: inventory surplus plus protocol cash.

        ``surplus_units`` is the current solvency_check result when the
        caller already holds it; otherwise it is computed here.
        """
        if surplus_units is None:
            surplus_units = solvency_check(
                self.sheet, {a: c.bid for a, c in self.curves.items()}
            )
        cash = (
            sum(self.sheet.t_units.values())
            + sum(self.sheet.rr_units.values())
            + self.sheet.treasury_units
            - (self.sheet.totals["settle"] + self.sheet.totals["premium_flow"])
        )
        return surplus_units + cash

    def unsettled_revaluation_units(self) -> int:
        """Curve move since epoch open, valued on current open inventory."""
        total = 0
        for aid in self.sheet.asset_ids():
            _, notional = self.sheet.pools[aid].open_inventory()
            if notional == 0.0:
                continue
            now = integrate_eldf(self.curves[aid].bid, 0.0, notional)
            then = integrate_eldf(self.vaults[aid].strike_bid, 0.0, notional)
            total += abs(to_units(now) - to_units(then))
        return total

    def _emit_metrics(self, utils: dict) -> None:
        surplus_units = solvency_check(self.sheet, {a: c.bid for a, c in self.curves.items()})
        margin_units = self.solvency_margin_units(surplus_units)
        if self.min_margin_units is None or margin_units < self.min_margin_units:
            self.min_margin_units = margin_units
        rows = self.logs["metrics"]
        for aid in self.sheet.asset_ids():
            market = self.markets[aid]
            util = utils[aid]
            self.max_utilisation = max(self.max_utilisation, util.u_rhs, util.u_lhs)
            rows.append((self.t, "mid", aid, market.mid))
            rows.append(
                (self.t, "il", aid, impermanent_loss(market.cfg.mid_price, market.mid))
            )
            rows.append((self.t, "t_open", aid, from_units(self.sheet.t_units[aid])))
            rows.append((self.t, "util_rhs", aid, util.u_rhs))
            rows.append((self.t, "util_lhs", aid, util.u_lhs))
        rows.append((self.t, "solvency_margin", "*", from_units(margin_units)))
        rows.append((self.t, "solvency_deficit_raw", "*", max(0.0, -from_units(surplus_units))))
        rows.append(
            (self.t, "unsettled_reval", "*", from_units(self.unsettled_revaluation_units()))
        )
        rows.append((self.t, "treasury", "*", from_units(self.sheet.treasury_units)))

    def _audit(self) -> None:
        sheet = self.sheet
        total = sheet.totals
        rewards = sum(sheet.pending_units.values()) + sum(sheet.claimable_units.values())
        checks = {
            "trade balance": total["v_s"] == total["v_prime"] + total["rp"] + total["fee"],
            "fee split": total["fee"] == total["xi"] + rewards,
            "premium reserve": sum(sheet.rr_units.values()) == total["rp"] + total["upsilon"],
            "treasury identity": sheet.treasury_units == total["xi"] - total["upsilon"],
            "synthetic flows net": sum(sheet.t_units.values()) == 0,
            "hedge book": sum(v.collateral_units for v in sheet.vaults.values())
            == total["vault_flow"] + total["settle"] + total["premium_flow"],
        }
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            self.halted = True
            self.diagnostic = f"conservation audit failed: {', '.join(failed)}"
            raise InvariantBreach(self.diagnostic)

    def _halt(self, exc: EngineError) -> None:
        self.halted = True
        self.diagnostic = f"{type(exc).__name__} at t={self.t}: {exc}"

    def run(self, drain=None) -> RunArtifacts:
        """Step to the horizon and value the final margin; any engine
        error, including one in the first refit at construction or in
        that final valuation, halts the run fail-stop, and the summary's
        ``solvency_margin`` of a halted run is None.

        ``drain(logs)`` takes the buffered rows between timesteps (see
        the module docstring); an error it raises ends the run.
        """
        margin_units = None
        logs = self.logs
        try:
            while self.t < self.cfg.horizon and not self.halted:
                self.step_timestep()
                if drain is not None and sum(map(len, logs.values())) >= DRAIN_ROWS:
                    drain(logs)
                    for rows in logs.values():
                        rows.clear()
            if not self.halted:
                margin_units = self.solvency_margin_units()
        except EngineError as exc:
            self._halt(exc)
        for (aid, cls), units in sorted(self.sheet.claimable_units.items()):
            self.logs["rewards"].append((cls, aid, cls, from_units(units)))
        perf = {phase: ns / 1e9 for phase, ns in self.perf.items()}
        return RunArtifacts(self.logs, self._summary(margin_units), self.cfg, perf)

    def _summary(self, margin_units: int | None) -> dict:
        totals = self.sheet.totals
        return {
            "halted": self.halted,
            "diagnostic": self.diagnostic,
            "timesteps": self.t,
            "epochs": self.epoch,
            "fills": self.fills,
            "rejected": self.rejected,
            "final_treasury": from_units(self.sheet.treasury_units),
            "trader_cost": from_units(self.trader_cost_units),
            "arb_pnl": self.arb_pnl,
            "slp_pnl": from_units(totals["settle"] + totals["premium_flow"]),
            "plp_rewards": from_units(
                sum(units for (_, cls), units in self.sheet.claimable_units.items() if cls == PLP)
            ),
            # None: a halted run's final margin, and the minimum of no timestep
            "solvency_margin": None if margin_units is None else from_units(margin_units),
            "min_solvency_margin": (
                None if self.min_margin_units is None else from_units(self.min_margin_units)
            ),
            "max_utilisation": self.max_utilisation,
            "liquidations": totals["liquidate"],
        }
