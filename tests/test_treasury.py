import numpy as np
import pytest

from dfmm.auction import LHS, RHS, update_aggressiveness
from dfmm.errors import BadParams, ConfigInvalid, InvariantBreach
from dfmm.ledger import AssetPool
from dfmm.money import from_units, to_units
from dfmm.pricing import RebalanceParams
from dfmm.sim.config import AssetConfig, ScenarioConfig
from dfmm.sim.engine import Engine
from dfmm.treasury import (
    PLP,
    SLP_LONG,
    SLP_SHORT,
    RewardLedger,
    TreasuryReserve,
    reward_distribute,
    treasury_update,
)
from dfmm.vaults import LONG, SHORT, Vault, VaultPair


def pair(c_long, c_short, rate=0.5):
    floor = to_units(0.0)
    return VaultPair(
        long=Vault("X", LONG, to_units(c_long), rate, floor),
        short=Vault("X", SHORT, to_units(c_short), rate, floor),
    )


def discrepancy(t_open, a_prev, too_slow, lam, d, a_min=0.0, tr=1e9):
    """The auction's discrepancy, in ledger units, when one step, up if
    ``too_slow``, moves the aggressiveness at open flow ``t_open``
    (treasury ``tr``)."""
    params = RebalanceParams(a_rhs=a_prev, a_lhs=a_prev, d_rhs=d, d_lhs=d)
    side = RHS if t_open > 0 else LHS
    a_after, _, upsilon, _ = update_aggressiveness(
        side, to_units(t_open), too_slow, params, lam=lam, a_min=a_min,
        tr_units=to_units(tr),
    )
    return a_after, upsilon


def fee_split(theta, xi):
    """One fill: (its quote, treasury xi slice, accrued reward), units."""
    assets = tuple(
        AssetConfig(asset_id=aid, depth=5000.0, deposit=2000.0) for aid in ("X", "Y")
    )
    eng = Engine(ScenarioConfig(horizon=1, theta=theta, xi=xi, assets=assets))
    quote = eng.submit_trade("X", "Y", 25.0, agent="script")
    return quote, eng.reserve.balance_units, eng.rewards.pending_units("Y")


class TestDiscrepancy:
    def test_frozen_params_zero(self):
        # a step down from the floor, or up with an empty treasury, leaves
        # the params where they were and costs nothing
        assert discrepancy(10.0, 5.0, False, 2.0, 0.1, a_min=5.0) == (5.0, 0)
        assert discrepancy(-10.0, 5.0, True, 2.0, 0.1, tr=0.0) == (5.0, 0)

    def test_reverse_dutch_costs(self):
        a_after, ups = discrepancy(10.0, 5.0, True, 2.0, 0.1)
        assert a_after == 7.0
        assert from_units(ups) == pytest.approx(2.0)

    def test_dutch_earns(self):
        a_after, ups = discrepancy(10.0, 7.0, False, 2.0, 0.1)
        assert a_after == 5.0
        assert from_units(ups) == pytest.approx(-2.0)

    def test_sign_law(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            t = float(rng.uniform(-50, 50))
            if abs(t) < 1e-3:
                continue
            a_prev = float(rng.uniform(0, 20))
            lam = float(rng.uniform(0.01, 5.0))
            d = float(rng.uniform(1e-6, 1.0))
            too_slow = not rng.integers(2)
            # a floor at a_prev or an empty treasury half the time makes
            # frozen moves as well as full ones
            a_min = a_prev if rng.integers(2) else 0.0
            tr = 1e9 if rng.integers(2) else 0.0
            a_after, ups = discrepancy(t, a_prev, too_slow, lam, d, a_min, tr)
            if a_after > a_prev:
                assert ups > 0
            elif a_after < a_prev:
                assert ups < 0
            else:
                assert ups == 0


class TestFeesAndRewards:
    """The engine's split of each fill's fee: the treasury takes
    round(xi * v_s), capped at the fee, and the rest accrues as reward."""

    def test_zero_rate(self):
        quote, xi_units, reward_units = fee_split(0.003, 0.0)
        assert xi_units == 0
        assert reward_units == quote.fee_units > 0

    def test_fee_value(self):
        quote, xi_units, _ = fee_split(0.003, 0.001)
        assert xi_units == round(0.001 * quote.v_s_units)
        assert from_units(xi_units) == pytest.approx(0.001 * from_units(quote.v_s_units))

    def test_unit_rate_rejected(self):
        with pytest.raises(ConfigInvalid, match="xi"):
            fee_split(0.003, 1.0)

    def test_reward_all_to_treasury(self):
        # xi == theta: the reward is only the commit's rounding residue
        quote, xi_units, reward_units = fee_split(0.003, 0.003)
        assert xi_units + reward_units == quote.fee_units
        assert reward_units == max(quote.fee_units - round(0.003 * quote.v_s_units), 0)
        assert reward_units <= 4

    def test_reward_value(self):
        quote, xi_units, reward_units = fee_split(0.003, 0.001)
        assert xi_units + reward_units == quote.fee_units
        assert from_units(reward_units) == pytest.approx(
            0.002 * from_units(quote.v_s_units), abs=1e-11
        )

    def test_xi_above_theta_rejected(self):
        with pytest.raises(ConfigInvalid, match="xi"):
            fee_split(0.001, 0.002)


class TestTreasuryUpdate:
    def test_fee_then_cost(self):
        res = TreasuryReserve()
        treasury_update(res, xi_delta_units=to_units(5.0))
        treasury_update(res, upsilon_delta_units=to_units(2.0))
        assert res.balance == pytest.approx(3.0)
        assert res.balance_units == res.cum_xi_units - res.cum_upsilon_units

    def test_negative_upsilon_adds(self):
        res = TreasuryReserve()
        treasury_update(res, upsilon_delta_units=-to_units(2.0))
        assert res.balance == pytest.approx(2.0)

    def test_uncapped_overdraw_is_fatal(self):
        res = TreasuryReserve()
        treasury_update(res, xi_delta_units=to_units(3.0))
        with pytest.raises(InvariantBreach):
            treasury_update(res, upsilon_delta_units=to_units(4.0))

    def test_identity_over_random_flows(self):
        rng = np.random.default_rng(47)
        res = TreasuryReserve()
        for _ in range(1000):
            treasury_update(res, xi_delta_units=int(rng.integers(0, 10**12)))
            affordable = res.balance_units
            treasury_update(
                res, upsilon_delta_units=int(rng.integers(-(10**12), affordable + 1))
            )
            assert res.balance_units == res.cum_xi_units - res.cum_upsilon_units
            assert res.balance_units >= 0


class TestRewardDistribute:
    def test_balanced_capacity_equal_thirds(self):
        pool = AssetPool("X", 100.0, 100.0)
        vaults = pair(50.0, 50.0)  # capacities 100 each: all shares 1/3
        accrued = to_units(9.0)
        shares = reward_distribute(pool, vaults, accrued, gamma=0.01)
        assert sum(shares.values()) == accrued
        assert shares[PLP] == pytest.approx(accrued / 3, abs=2)
        assert shares[SLP_LONG] == pytest.approx(accrued / 3, abs=2)

    def test_plp_overweight_pays_gamma_split(self):
        pool = AssetPool("X", 200.0, 200.0)
        vaults = pair(25.0, 25.0)  # capacities 50: pLP share 2/3
        accrued = to_units(300.0)
        shares = reward_distribute(pool, vaults, accrued, gamma=0.03)
        assert sum(shares.values()) == accrued
        third = accrued / 3
        assert shares[PLP] < third
        assert shares[SLP_LONG] > third
        assert shares[SLP_SHORT] > third
        assert shares[SLP_LONG] == shares[SLP_SHORT]

    # pLP share on target: inventory 100 of B = 100 + 2*(c_long + c_short)
    # = 300, so the vault with the larger capacity pays gamma to the other
    @pytest.mark.parametrize(
        "c_long,c_short,long_units,short_units",
        [(75.0, 25.0, 91_000, 109_000), (25.0, 75.0, 109_000, 91_000), (50.0, 50.0, 100_000, 100_000)],
        ids=["long-larger", "short-larger", "equal"],
    )
    def test_on_target_plp_share_moves_gamma_between_vaults(
        self, c_long, c_short, long_units, short_units
    ):
        pool = AssetPool("X", 100.0, 100.0)
        assert pool.inventory / (pool.inventory + 2 * (c_long + c_short)) == 1.0 / 3.0
        shares = reward_distribute(pool, pair(c_long, c_short), 300_000, gamma=0.03)
        assert shares == {PLP: 100_000, SLP_LONG: long_units, SLP_SHORT: short_units}

    def test_zero_accrued(self):
        shares = reward_distribute(AssetPool("X", 1.0, 1.0), pair(1.0, 1.0), 0, gamma=0.01)
        assert shares == {PLP: 0, SLP_LONG: 0, SLP_SHORT: 0}

    def test_simplex_over_random_states(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            pool = AssetPool("X", float(rng.uniform(0, 500)), float(rng.uniform(0, 500)))
            vaults = pair(float(rng.uniform(0, 200)), float(rng.uniform(0, 200)))
            accrued = int(rng.integers(0, 10**14))
            gamma = float(rng.uniform(0.0, 0.5))
            shares = reward_distribute(pool, vaults, accrued, gamma=gamma)
            assert sum(shares.values()) == accrued
            assert shares[PLP] >= 0
            assert shares[SLP_LONG] >= 0
            assert shares[SLP_SHORT] >= 0


class TestRewardLedger:
    def test_accrue_distribute_claims(self):
        ledger = RewardLedger()
        ledger.accrue("X", to_units(9.0))
        pool = AssetPool("X", 100.0, 100.0)
        shares = reward_distribute(pool, pair(50.0, 50.0), ledger.pending_units("X"), gamma=0.01)
        ledger.distribute("X", shares)
        rows = ledger.claims()
        assert {r[2] for r in rows} == {PLP, SLP_LONG, SLP_SHORT}
        assert sum(r[3] for r in rows) == pytest.approx(9.0)

    def test_mismatched_distribution_rejected(self):
        ledger = RewardLedger()
        ledger.accrue("X", 100)
        with pytest.raises(BadParams):
            ledger.distribute("X", {PLP: 10, SLP_LONG: 10, SLP_SHORT: 10})
