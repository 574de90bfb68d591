import numpy as np
import pytest

from dfmm.errors import BadParams, EngineError, NonFiniteAmount
from dfmm.ledger import BalanceSheet, solvency_check
from dfmm.money import to_units


def make_sheet(**pools) -> BalanceSheet:
    """pools: asset_id -> (inventory, lp_inventory), built via log entries."""
    sheet = BalanceSheet()
    for asset_id, (inv, lp) in pools.items():
        sheet.deposit_plp(asset_id, lp)
        diff = inv - lp
        sheet.pools[asset_id].inventory += diff  # direct seed for tests
    return sheet


class TestToUnits:
    @pytest.mark.parametrize("amount", [float("inf"), float("-inf"), float("nan"), 1e300])
    def test_amount_without_units_is_an_engine_error(self, amount):
        with pytest.raises(NonFiniteAmount, match="no ledger units"):
            to_units(amount)
        assert issubclass(NonFiniteAmount, EngineError)


class TestDepositWithdraw:
    def test_fresh_pool_deposit(self):
        sheet = BalanceSheet()
        pool = sheet.deposit_plp("X", 100.0)
        assert (pool.inventory, pool.lp_inventory) == (100.0, 100.0)

    def test_deposit_preserves_open_inventory(self):
        sheet = make_sheet(X=(120.0, 100.0))
        sheet.deposit_plp("X", 50.0)
        pool = sheet.pools["X"]
        assert (pool.inventory, pool.lp_inventory) == (170.0, 150.0)
        assert pool.inventory - pool.lp_inventory == pytest.approx(20.0)

    def test_zero_deposit_rejected(self):
        with pytest.raises(BadParams):
            BalanceSheet().deposit_plp("X", 0.0)

def trade(sheet, asset_in, asset_out, v_prime_units):
    """Record a fill that moves only the synthetic flows T."""
    sheet.record_trade(
        (0, asset_in, asset_out, 0.0, 0.0, v_prime_units, v_prime_units, 0, 0, 0)
    )


class TestSyntheticFlow:
    """Trades are the only entries that move T: the in-leg's T falls and
    the out-leg's rises by the adjusted notional."""

    def test_netting(self):
        sheet = BalanceSheet(["X", "Y"])
        trade(sheet, "X", "Y", 10_000)
        trade(sheet, "Y", "X", 4_000)
        assert (sheet.t_units["X"], sheet.t_units["Y"]) == (-6_000, 6_000)

    def test_exact_unwind(self):
        sheet = BalanceSheet(["X", "Y"])
        trade(sheet, "X", "Y", 10_000)
        trade(sheet, "Y", "X", 4_000)
        trade(sheet, "Y", "X", 6_000)
        assert sheet.t_units["X"] == sheet.t_units["Y"] == 0


class TestSolvency:
    def test_identical_sides(self, unit_curve):
        sheet = make_sheet(X=(100.0, 100.0), Y=(50.0, 50.0))
        assert solvency_check(sheet, {"X": unit_curve(), "Y": unit_curve()}) == 0

    def test_surplus(self, unit_curve):
        sheet = make_sheet(X=(120.0, 100.0), Y=(90.0, 100.0))
        surplus = solvency_check(sheet, {"X": unit_curve(), "Y": unit_curve()})
        assert surplus == to_units(10.0)

    def test_deficit(self, unit_curve):
        sheet = make_sheet(X=(80.0, 100.0), Y=(100.0, 100.0))
        surplus = solvency_check(sheet, {"X": unit_curve(), "Y": unit_curve()})
        assert surplus == -to_units(20.0)


class TestReplay:
    def test_replay_reproduces_balances_bit_exactly(self):
        """Every entry kind: deposit, trade and rr_adjust."""
        rng = np.random.default_rng(17)
        sheet = BalanceSheet(["X", "Y", "Z"])
        for _ in range(10_000):
            op = rng.integers(3)
            asset = ("X", "Y", "Z")[int(rng.integers(3))]
            if op == 0:
                sheet.deposit_plp(asset, float(rng.uniform(0.1, 50.0)))
            elif op == 1:
                other = ("X", "Y", "Z")[int(rng.integers(3))]
                if other != asset:
                    v_s, v_prime = (int(u) for u in rng.integers(1, 10**12, size=2))
                    rp_in, rp_out = (int(u) for u in rng.integers(-10**9, 10**9, size=2))
                    sheet.record_trade(
                        (
                            0, asset, other, float(rng.uniform(0.0, 5.0)),
                            float(rng.uniform(0.0, 5.0)), v_s, v_prime, rp_in, rp_out,
                            v_s - v_prime - rp_in - rp_out,
                        )
                    )
            else:
                delta = int(rng.integers(-10**9, 10**9))
                sheet.adjust_rr(asset, delta, "auction")
        replayed = BalanceSheet.replay(sheet.log)
        assert replayed.balances() == sheet.balances()
