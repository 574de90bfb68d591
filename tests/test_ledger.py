import numpy as np
import pytest

from dfmm.eldf import Eldf
from dfmm.errors import (
    ExceedsLpClaim,
    NegativeFlow,
    NonPositiveAmount,
    ValuationUnavailable,
)
from dfmm.ledger import (
    AssetPool,
    BalanceSheet,
    hedge_target,
    open_inventory,
    solvency_check,
)


def make_sheet(**pools) -> BalanceSheet:
    """pools: asset_id -> (inventory, lp_inventory), built via log entries."""
    sheet = BalanceSheet()
    for asset_id, (inv, lp) in pools.items():
        sheet.deposit_plp(asset_id, lp)
        diff = inv - lp
        if diff > 0:
            sheet.apply_synthetic_flow(asset_id, 0.0, 0.0)  # keep asset present
            sheet.pools[asset_id].inventory += diff  # direct seed for tests
        elif diff < 0:
            sheet.pools[asset_id].inventory += diff
    return sheet


class TestDepositWithdraw:
    def test_fresh_pool_deposit(self):
        sheet = BalanceSheet()
        pool = sheet.deposit_plp("X", 100.0)
        assert (pool.inventory, pool.lp_inventory) == (100.0, 100.0)
        assert open_inventory(pool) == 0.0

    def test_deposit_preserves_open_inventory(self):
        sheet = make_sheet(X=(120.0, 100.0))
        assert open_inventory(sheet.pools["X"]) == pytest.approx(20.0)
        sheet.deposit_plp("X", 50.0)
        pool = sheet.pools["X"]
        assert (pool.inventory, pool.lp_inventory) == (170.0, 150.0)
        assert open_inventory(pool) == pytest.approx(20.0)

    def test_zero_deposit_rejected(self):
        with pytest.raises(NonPositiveAmount):
            BalanceSheet().deposit_plp("X", 0.0)

    def test_fully_funded_withdrawal(self):
        sheet = make_sheet(X=(100.0, 100.0))
        payout = sheet.withdraw_plp("X", 40.0)
        assert payout.in_kind == 40.0
        assert payout.s_units == 0
        pool = sheet.pools["X"]
        assert (pool.inventory, pool.lp_inventory) == (60.0, 60.0)

    def test_shortfall_paid_in_accounting_asset(self, unit_curve):
        sheet = make_sheet(X=(30.0, 100.0))
        payout = sheet.withdraw_plp("X", 100.0, bid=unit_curve())
        assert payout.in_kind == 30.0
        assert payout.s_value == pytest.approx(70.0)

    def test_shortfall_without_curve(self):
        sheet = make_sheet(X=(30.0, 100.0))
        with pytest.raises(ValuationUnavailable):
            sheet.withdraw_plp("X", 100.0)

    def test_over_withdrawal(self):
        sheet = make_sheet(X=(100.0, 100.0))
        with pytest.raises(ExceedsLpClaim):
            sheet.withdraw_plp("X", 101.0)

    def test_round_trip_restores_balances(self):
        sheet = BalanceSheet()
        sheet.deposit_plp("X", 250.0)
        before = sheet.balances()
        sheet.deposit_plp("X", 80.0)
        sheet.withdraw_plp("X", 80.0)
        assert sheet.balances() == before


class TestOpenInventory:
    @pytest.mark.parametrize(
        "inv,lp,expected", [(100.0, 100.0, 0.0), (120.0, 100.0, 20.0), (80.0, 100.0, -20.0)]
    )
    def test_values(self, inv, lp, expected):
        assert open_inventory(AssetPool("X", inv, lp)) == pytest.approx(expected)


class TestSyntheticFlow:
    def test_netting(self):
        sheet = BalanceSheet(["X"])
        spool = sheet.apply_synthetic_flow("X", withdrawn=10.0, deposited=4.0)
        assert spool.t == pytest.approx(6.0)

    def test_exact_unwind(self):
        sheet = BalanceSheet(["X"])
        sheet.apply_synthetic_flow("X", 10.0, 4.0)
        spool = sheet.apply_synthetic_flow("X", 0.0, 6.0)
        assert spool.t_units == 0

    def test_negative_flow_rejected(self):
        with pytest.raises(NegativeFlow):
            BalanceSheet(["X"]).apply_synthetic_flow("X", -1.0, 0.0)


class TestSolvency:
    def test_identical_sides(self, unit_curve):
        sheet = make_sheet(X=(100.0, 100.0), Y=(50.0, 50.0))
        report = solvency_check(sheet, {"X": unit_curve(), "Y": unit_curve()})
        assert report.solvent
        assert report.surplus_units == 0
        assert report.deficit == 0.0

    def test_surplus(self, unit_curve):
        sheet = make_sheet(X=(120.0, 100.0), Y=(90.0, 100.0))
        report = solvency_check(sheet, {"X": unit_curve(), "Y": unit_curve()})
        assert report.solvent
        assert report.surplus == pytest.approx(10.0)

    def test_deficit(self, unit_curve):
        sheet = make_sheet(X=(80.0, 100.0), Y=(100.0, 100.0))
        report = solvency_check(sheet, {"X": unit_curve(), "Y": unit_curve()})
        assert not report.solvent
        assert report.deficit == pytest.approx(20.0)

    def test_missing_curve(self):
        sheet = make_sheet(X=(80.0, 100.0))
        with pytest.raises(ValuationUnavailable):
            solvency_check(sheet, {})


class TestHedgeTarget:
    def test_balanced(self, unit_curve):
        pool = AssetPool("X", 100.0, 100.0)
        assert hedge_target(pool, unit_curve("bid"), unit_curve("ask")) == 0.0

    def test_surplus_requires_negative_flow(self, unit_curve):
        pool = AssetPool("X", 120.0, 100.0)
        assert hedge_target(pool, unit_curve("bid"), unit_curve("ask")) == pytest.approx(-20.0)

    def test_deficit_requires_positive_flow(self, unit_curve):
        pool = AssetPool("X", 80.0, 100.0)
        assert hedge_target(pool, unit_curve("bid"), unit_curve("ask")) == pytest.approx(20.0)

    def test_sign_law(self, unit_curve):
        rng = np.random.default_rng(3)
        bid, ask = unit_curve("bid"), unit_curve("ask")
        for _ in range(200):
            inv = float(rng.uniform(0.0, 500.0))
            lp = float(rng.uniform(0.0, 500.0))
            pool = AssetPool("X", inv, lp)
            gap = open_inventory(pool)
            target = hedge_target(pool, bid, ask)
            if gap > 0:
                assert target < 0
            elif gap < 0:
                assert target > 0
            else:
                assert target == 0


class TestReplay:
    def test_replay_reproduces_balances_bit_exactly(self, unit_curve):
        rng = np.random.default_rng(17)
        sheet = BalanceSheet(["X", "Y", "Z"])
        bid = unit_curve()
        for _ in range(10_000):
            op = rng.integers(4)
            asset = ("X", "Y", "Z")[int(rng.integers(3))]
            if op == 0:
                sheet.deposit_plp(asset, float(rng.uniform(0.1, 50.0)))
            elif op == 1:
                claim = sheet.pools[asset].lp_inventory
                if claim > 1.0:
                    sheet.withdraw_plp(asset, float(rng.uniform(0.1, claim)), bid=bid)
            elif op == 2:
                sheet.apply_synthetic_flow(
                    asset, float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0))
                )
            else:
                other = ("X", "Y", "Z")[int(rng.integers(3))]
                if other != asset:
                    units = int(rng.integers(1, 10**12))
                    sheet.record_trade(
                        (0, asset, other, 1.0, 1.0, units, units, 0, 0, 0)
                    )
        replayed = BalanceSheet.replay(sheet.log)
        assert replayed.balances() == sheet.balances()
