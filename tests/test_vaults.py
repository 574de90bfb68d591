import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfmm.eldf import Eldf, fit_eldf, integrate_eldf
from dfmm.errors import BadParams, ZeroPrevValue
from dfmm.ledger import AssetPool, BalanceSheet
from dfmm.sim.engine import Engine
from dfmm.money import from_units, to_units
from dfmm.pricing import RebalanceParams, premium_units
from dfmm.vaults import (
    LONG,
    SHORT,
    U_MAX_REPORT,
    SwaptionPosition,
    Vault,
    VaultPair,
    boundary_premium_flow,
    cover_coefficient,
    covering_side,
    settle_swaption,
    side_cap,
    slp_premium_flow,
    strike_swaption,
    utilisation,
    withdrawable_units,
)
import oracles
from test_sim import asset, scenario


def vault(side, collateral, rate=0.5, floor=1.0, asset="X"):
    return Vault(asset, side, to_units(collateral), rate, to_units(floor))


def pair(c_long=50.0, c_short=50.0, rate_long=0.5, rate_short=0.5):
    return VaultPair(
        long=vault(LONG, c_long, rate_long), short=vault(SHORT, c_short, rate_short)
    )


def margin_engine(collateral, floor=1.0):
    """An engine whose X short vault opens with ``collateral`` over a
    margin ``floor``, and that vault."""
    eng = Engine(scenario(margin_floor=floor, assets=(asset("X", c_short=collateral), asset("Y"))))
    return eng, eng.vaults["X"].short


def flags(eng):
    """The flags of the ``liquidate`` rows the engine booked, in order."""
    return [row[15] for row in eng.sheet.log if row[1] == "liquidate"]


def flat_curve(level, v_hi=1000.0):
    return Eldf(0.0, 0.0, level, v_lo=0.0, v_hi=v_hi)


def struck(notional, side, level=1.0):
    """A position struck on ``flat_curve(level)``: its fixed leg is the
    notional's value there."""
    return SwaptionPosition(
        "X", notional, integrate_eldf(flat_curve(level), 0.0, notional), side
    )


def bid_curve(mid, depth=1000.0, slope=0.05, curv=0.02):
    """A bid curve fitted to a falling profile at ``mid``, as the market's."""
    x = np.linspace(0.0, 1.0, 7)
    prices = mid * (1.0 - 0.001 - slope * x - curv * x * x)
    return fit_eldf(depth * x, prices)


class TestUtilisation:
    def test_balanced(self):
        u = utilisation(AssetPool("X", 100.0, 100.0), pair())
        assert (u.u_rhs, u.u_lhs) == (0.0, 0.0)

    def test_deficit_side(self):
        u = utilisation(AssetPool("X", 80.0, 100.0), pair(c_short=50.0, rate_short=0.5))
        assert u.u_rhs == pytest.approx(20.0 / min(100.0, 100.0))
        assert u.u_lhs == 0.0

    def test_surplus_side(self):
        u = utilisation(AssetPool("X", 130.0, 100.0), pair(c_long=60.0, rate_long=0.5))
        assert u.u_lhs == pytest.approx(30.0 / 120.0)
        assert u.u_rhs == 0.0

    def test_lp_claim_bounds_deficit_denominator(self):
        # short capacity 400 exceeds the LP claim 100: claim wins
        u = utilisation(AssetPool("X", 80.0, 100.0), pair(c_short=200.0, rate_short=0.5))
        assert u.u_rhs == pytest.approx(20.0 / 100.0)

    def test_zero_capacity_with_deficit(self):
        # open inventory with no capacity reports the cap
        pool = AssetPool("X", 80.0, 100.0)
        u = utilisation(pool, pair(c_short=0.0))
        assert (u.u_rhs, u.u_lhs) == (10.0, 0.0)
        vaults = pair(c_long=0.0)
        vaults.long.liquidated = True
        u = utilisation(AssetPool("X", 130.0, 100.0), vaults)
        assert (u.u_rhs, u.u_lhs) == (0.0, 10.0)

    def test_zero_capacity_without_deficit_is_fine(self):
        u = utilisation(AssetPool("X", 100.0, 100.0), pair(c_long=0.0, c_short=0.0))
        assert (u.u_rhs, u.u_lhs) == (0.0, 0.0)

    def test_report_cap(self):
        # open inventory 100 against a short capacity of 6 is 16.7, reported
        # as the cap
        u = utilisation(AssetPool("X", 0.0, 100.0), pair(c_short=3.0))
        assert u.u_rhs == U_MAX_REPORT == 10.0

    def test_vault_at_or_below_floor_has_no_capacity(self):
        # 0.5 of collateral under a floor of 1.0, not yet liquidated: the
        # trade gate's side_cap is 0, so utilisation reports the cap
        u = utilisation(AssetPool("X", 99.9, 100.0), pair(c_short=0.5))
        assert u.u_rhs == 10.0


class TestCoverCoefficient:
    def test_lower_boundary(self):
        assert cover_coefficient(0.0, 0.5, 2.0, 1.0, 2.0) == 0.5

    def test_upper_boundary(self):
        assert cover_coefficient(1.0, 0.5, 2.0, 1.0, 2.0) == 2.0

    def test_interior(self):
        assert cover_coefficient(0.5, 0.5, 2.0, 1.0, 2.0) == pytest.approx(0.875)

    def test_clamps_beyond_u_max(self):
        assert cover_coefficient(5.0, 0.5, 2.0, 1.0, 2.0) == 2.0

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d_min = float(rng.uniform(0.0, 1.0))
            d_max = d_min + float(rng.uniform(0.0, 2.0))
            u_max = float(rng.uniform(0.5, 2.0))
            k = float(rng.uniform(0.2, 4.0))
            us = np.sort(rng.uniform(0.0, u_max, size=10))
            ds = [cover_coefficient(float(u), d_min, d_max, u_max, k) for u in us]
            assert all(b >= a - 1e-12 for a, b in zip(ds, ds[1:]))

    def test_bad_params(self):
        # d_min, d_max, u_max and k are ScenarioConfig.validate's to check
        # (tests/test_sim.py::TestConfig); the utilisation is a runtime value
        with pytest.raises(BadParams, match="utilisation"):
            cover_coefficient(-0.5, 0.5, 2.0, 1.0, 2.0)


class TestSwaption:
    def test_strike_directions(self):
        bid = flat_curve(1.0)
        surplus = strike_swaption(AssetPool("X", 110.0, 100.0), bid)
        assert surplus.side == LONG
        assert surplus.notional == pytest.approx(10.0)
        deficit = strike_swaption(AssetPool("X", 90.0, 100.0), bid)
        assert deficit.side == SHORT
        assert strike_swaption(AssetPool("X", 100.0, 100.0), bid) is None

    def test_unchanged_curve_settles_zero(self):
        pos = struck(10.0, SHORT)
        counter = vault(SHORT, 100.0)
        assert settle_swaption(pos, flat_curve(1.0), counter) == 0
        assert counter.collateral_units == to_units(100.0)

    def test_value_ratio_gain(self):
        # value rises 10%: the short vault pays notional * 0.1
        pos = struck(10.0, SHORT)
        counter = vault(SHORT, 100.0)
        moved = settle_swaption(pos, flat_curve(1.1), counter)
        assert moved == -to_units(1.0)
        assert counter.collateral_units == to_units(100.0)  # the caller books it

    def test_non_recourse_cap(self):
        # value falls 10%: the long vault owes 1.0 but holds only 0.5
        pos = struck(10.0, LONG)
        counter = vault(LONG, 0.5)
        moved = settle_swaption(pos, flat_curve(0.9), counter)
        assert moved == -to_units(0.5)
        assert counter.collateral_units == to_units(0.5)

    def test_protocol_pays_credits_vault(self):
        pos = struck(10.0, LONG)
        counter = vault(LONG, 5.0)
        moved = settle_swaption(pos, flat_curve(1.2), counter)
        assert moved == to_units(2.0)
        assert counter.collateral_units == to_units(5.0)

    # (side, collateral, liquidated, value now, units moved into the vault)
    @pytest.mark.parametrize(
        "side,collateral,liquidated,level,moved",
        [
            (SHORT, 100.0, False, 1.1, -1.0),  # short pays a rise
            (SHORT, 100.0, False, 0.9, 1.0),  # and receives a fall
            (LONG, 100.0, False, 0.9, -1.0),  # long pays a fall
            (LONG, 100.0, False, 1.1, 1.0),  # and receives a rise
            (SHORT, 0.25, False, 1.1, -0.25),  # a payment stops at collateral
            (LONG, 0.25, False, 0.9, -0.25),
            (SHORT, 100.0, True, 1.1, 0.0),  # a liquidated vault pays nothing
            (LONG, 100.0, True, 0.9, 0.0),
            (LONG, 100.0, True, 1.1, 1.0),  # but is still credited
        ],
    )
    def test_sign_and_cap(self, side, collateral, liquidated, level, moved):
        pos = struck(10.0, side)
        counter = vault(side, collateral)
        counter.liquidated = liquidated
        got = settle_swaption(pos, flat_curve(level), counter)
        assert got == to_units(moved)
        assert counter.collateral_units == to_units(collateral)

    def test_zero_prev_value(self):
        pos = struck(0.0, SHORT)
        with pytest.raises(ZeroPrevValue):
            settle_swaption(pos, flat_curve(1.0), vault(SHORT, 1.0))

    def test_settlement_antisymmetry(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            notional = float(rng.uniform(1.0, 50.0))
            r = float(rng.uniform(0.5, 2.0))
            if abs(r - 1.0) < 1e-6:
                continue
            fwd = settle_swaption(struck(notional, SHORT), flat_curve(r), vault(SHORT, 1e9))
            rev = settle_swaption(
                struck(notional, SHORT, r), flat_curve(1.0), vault(SHORT, 1e9)
            )
            assert fwd * rev <= 0

    # (collateral, liquidated): ample, small enough that the cap binds on
    # most payments, and liquidated
    @pytest.mark.parametrize("collateral,liquidated", [(1e9, False), (0.5, False), (1e9, True)])
    @pytest.mark.parametrize("side", [LONG, SHORT])
    @pytest.mark.parametrize("mid", [100.0, 0.5])
    def test_stored_fixed_leg_settles_as_strike_curve_revaluation(
        self, mid, side, collateral, liquidated
    ):
        # the stored fixed leg moves the units that valuing the notional
        # on the strike curve again moved, on curves away from price 1
        rng = np.random.default_rng(29)
        paid = capped = 0
        for _ in range(50):
            gap = float(rng.uniform(0.5, 300.0))
            pool = AssetPool("X", 1000.0 + (gap if side == LONG else -gap), 1000.0)
            curve_then = bid_curve(mid * float(rng.uniform(0.8, 1.2)))
            curve_now = bid_curve(mid * float(rng.uniform(0.8, 1.2)))
            pos = strike_swaption(pool, curve_then)
            assert pos.side == side
            new, old = vault(side, collateral), vault(side, collateral)
            new.liquidated = old.liquidated = liquidated
            moved = settle_swaption(pos, curve_now, new)
            assert moved == oracles.settle_swaption(pos, curve_then, curve_now, old)
            assert new.collateral_units == to_units(collateral)
            paid += moved < 0
            capped += moved == -to_units(collateral)
        assert (paid > 0) == (not liquidated)
        assert (capped > 0) == (collateral < 1.0 and not liquidated)


class TestMargin:
    """The engine's margin check after each vault move, booked as
    ``liquidate`` rows; a 0-unit settlement is a move that changes nothing."""

    def test_above_floor(self):
        eng, v = margin_engine(10.0, floor=1.0)
        eng._move_vault("settle", v, 0)
        assert not v.liquidated and flags(eng) == []

    def test_at_floor_liquidates(self):
        eng, v = margin_engine(1.0, floor=1.0)
        assert v.liquidated and flags(eng) == [1]
        assert v.capacity() == 0.0

    def test_zero_collateral_liquidates(self):
        eng, v = margin_engine(0.0, floor=1.0)
        assert v.liquidated and flags(eng) == [1]

    def test_liquidates_once(self):
        # one row on the check that liquidates: the sheet's liquidate
        # total counts each liquidation once
        eng, v = margin_engine(0.5, floor=1.0)
        for _ in range(3):
            eng._move_vault("settle", v, 0)
        assert v.liquidated and flags(eng) == [1] and eng.sheet.totals["liquidate"] == 1

    def test_only_a_deposit_above_the_floor_revives(self):
        # credits do not revive a vault (test_sim's liquidation-policy
        # test); a deposit that leaves it above its floor does
        eng, v = margin_engine(0.5, floor=1.0)
        eng._move_vault("vault_flow", v, to_units(0.5))  # at the floor
        assert v.liquidated and v.capacity() == 0.0
        eng._move_vault("vault_flow", v, 1)
        assert not v.liquidated and v.capacity() > 0.0
        assert flags(eng) == [1, 0] and eng.sheet.totals["liquidate"] == 1


class TestCapacity:
    """``side_cap``: the long vault caps the surplus, the short vault and
    the LP claim together cap the deficit (the pool's ask side)."""

    def test_max_ask(self):
        pool = AssetPool("X", 100.0, 100.0)
        assert side_cap(pool, vault(SHORT, 40.0)) == pytest.approx(80.0)

    def test_max_bid(self):
        assert side_cap(AssetPool("X", 0.0, 0.0), vault(LONG, 60.0)) == pytest.approx(120.0)

    def test_theorem_equality_point(self):
        # short capacity equal to the LP claim: neither term binds alone
        pool = AssetPool("X", 100.0, 100.0)
        v = vault(SHORT, 50.0)
        assert side_cap(pool, v) == pytest.approx(100.0)
        assert v.capacity() == pytest.approx(pool.lp_inventory)

    @pytest.mark.parametrize("c,expected", [(40.0, 20.0), (60.0, 20.0)])
    def test_gap(self, c, expected):
        # the distance between short capacity and the LP claim is the
        # claim side_cap leaves uncovered, or the capacity it leaves idle
        pool = AssetPool("X", 100.0, 100.0)
        v = vault(SHORT, c)
        cap = side_cap(pool, v)
        assert (pool.lp_inventory - cap) + (v.capacity() - cap) == pytest.approx(expected)

    def test_ask_capacity_argmax_at_zero_gap(self):
        # sweeping short collateral: the ask-side cap peaks exactly where
        # short capacity meets the LP claim; undersized collateral is
        # strictly worse, oversized collateral adds nothing (the cap
        # plateaus at the claim) so cap per unit of capital is strictly
        # maximised at the zero-gap point in both directions
        pool = AssetPool("X", 100.0, 100.0)
        grid = [10.0 * i for i in range(1, 16)]
        vol_max = max(side_cap(pool, vault(SHORT, c)) for c in grid)
        best_eff = None
        for c in grid:
            v = vault(SHORT, c)
            vol = side_cap(pool, v)
            gap = abs(v.capacity() - pool.lp_inventory)
            eff = vol / (pool.inventory + c)
            if gap == 0.0:
                assert vol == vol_max
            elif v.capacity() < pool.lp_inventory:
                assert vol < vol_max
            else:
                assert vol == vol_max  # plateau: extra collateral is idle
            if best_eff is None or eff > best_eff[0]:
                best_eff = (eff, gap)
        assert best_eff[1] == pytest.approx(0.0)

    def test_open_inventory_limits(self):
        pool = AssetPool("X", 100.0, 80.0)
        vaults = pair(c_long=30.0, c_short=20.0)
        assert side_cap(pool, vaults.long) == pytest.approx(60.0)
        assert side_cap(pool, vaults.short) == pytest.approx(40.0)


class TestPremiumReserve:
    PARAMS = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.1, d_lhs=0.1)

    def test_covering_side_follows_closing_flow(self):
        assert covering_side(to_units(4.0), to_units(-3.0)) == LONG
        assert covering_side(to_units(-4.0), to_units(3.0)) == SHORT
        # T closed at zero: the side it opened on carries the credit
        assert covering_side(to_units(-4.0), 0) == LONG
        assert covering_side(to_units(4.0), 0) == SHORT
        assert covering_side(0, 0) is None

    def test_boundary_flow_is_premium_fall(self):
        t_open, t_now = to_units(10.0), to_units(-6.0)
        flow = boundary_premium_flow(t_open, t_now, self.PARAMS)
        assert flow == premium_units(t_open, self.PARAMS) - premium_units(t_now, self.PARAMS)
        assert boundary_premium_flow(0, 0, self.PARAMS) == 0

    def test_reserve_held_back_on_its_side_only(self):
        # a flow below zero at the boundary: the long vault owes the debit
        pool = AssetPool("X", 100.0, 80.0)
        vaults = pair(c_long=30.0, c_short=20.0)
        vaults.t_open_units = to_units(-2.0)
        t_after = to_units(-8.0)
        r_after = premium_units(t_after, self.PARAMS)
        flow = boundary_premium_flow(vaults.t_open_units, t_after, self.PARAMS)
        long_cap = vaults.cap(LONG, pool, t_after, r_after, self.PARAMS)
        assert long_cap == pytest.approx((30.0 + from_units(flow)) / 0.5)
        assert vaults.cap(SHORT, pool, t_after, r_after, self.PARAMS) == pytest.approx(40.0)

    def test_reserve_down_to_the_floor_covers_nothing(self):
        pool = AssetPool("X", 100.0, 80.0)
        vaults = pair(c_long=30.0, c_short=20.0)  # floor 1.0
        assert side_cap(pool, vaults.short, to_units(19.0)) == 0.0
        assert side_cap(pool, vaults.long) == pytest.approx(60.0)
        assert side_cap(pool, vaults.short, to_units(18.5)) == pytest.approx(1.5 / 0.5)

    def test_vault_limits_reserve_the_boundary_debit(self):
        pool = AssetPool("X", 60.0, 80.0)
        vaults = pair(c_long=30.0, c_short=20.0)
        t_open = vaults.t_open_units = to_units(2.0)
        t_after = to_units(8.0)
        r_after = premium_units(t_after, self.PARAMS)
        debit = r_after - premium_units(t_open, self.PARAMS)
        max_deficit = vaults.cap(SHORT, pool, t_after, r_after, self.PARAMS)
        assert max_deficit == pytest.approx((20.0 - from_units(debit)) / 0.5)
        assert vaults.cap(LONG, pool, t_after, r_after, self.PARAMS) == pytest.approx(60.0)
        # a trade back toward the open flow owes nothing: full capacity
        t_back = to_units(1.0)
        r_back = premium_units(t_back, self.PARAMS)
        assert vaults.cap(SHORT, pool, t_back, r_back, self.PARAMS) == pytest.approx(40.0)


# ledger units from 1 to 1e18 (1e-12 $ to 1e6 $), spread evenly in log scale
_UNITS = st.integers(0, 180).map(lambda k: round(10.0 ** (k / 10)))
_FLOW = st.one_of(st.just(0), _UNITS, _UNITS.map(lambda u: -u))


@st.composite
def gate_states(draw):
    """A pool, a vault pair (possibly liquidated), params and two flows."""
    pool = AssetPool(
        "X", inventory=from_units(draw(_UNITS)), lp_inventory=from_units(draw(_UNITS))
    )

    def one(side):
        v = Vault(
            "X",
            side,
            draw(_UNITS),
            draw(st.integers(10**4, 10**6)) / 10**6,
            draw(st.one_of(st.just(0), _UNITS)),
        )
        v.liquidated = draw(st.booleans())
        return v

    vaults = VaultPair(long=one(LONG), short=one(SHORT))
    params = RebalanceParams(
        a_rhs=draw(st.floats(0.0, 50.0)),
        a_lhs=draw(st.floats(0.0, 50.0)),
        d_rhs=draw(st.floats(0.0, 1.0)),
        d_lhs=draw(st.floats(0.0, 1.0)),
    )
    return pool, vaults, params, draw(_FLOW), draw(_FLOW)


class TestGateCaps:
    @given(gate_states())
    def test_one_sided_caps_equal_open_inventory_limits(self, state):
        # each VaultPair cap is side_cap with the boundary debit held
        # back from the covering vault only
        pool, vaults, params, t_open, t_after = state
        side = covering_side(t_open, t_after)
        flow = boundary_premium_flow(t_open, t_after, params)
        reserve = max(-flow, 0)
        vaults.t_open_units = t_open
        r_after = premium_units(t_after, params)
        assert vaults.cap(LONG, pool, t_after, r_after, params) == side_cap(
            pool, vaults.long, reserve if side == LONG else 0
        )
        assert vaults.cap(SHORT, pool, t_after, r_after, params) == side_cap(
            pool, vaults.short, reserve if side == SHORT else 0
        )

    @given(gate_states())
    @settings(max_examples=500)
    def test_withdrawal_leaves_open_inventory_covered(self, state):
        pool, vaults, _, _, _ = state
        gap = pool.inventory - pool.lp_inventory
        for vault, open_inventory in ((vaults.long, gap), (vaults.short, -gap)):
            take = withdrawable_units(pool, vault)
            assert 0 <= take <= vault.collateral_units
            if open_inventory <= 0.0:
                assert take == vault.collateral_units
                continue
            if take > 0:
                vault.collateral_units -= take
                assert vault.capacity() >= open_inventory
                assert vault.collateral_units > vault.margin_floor_units


    def test_withdrawal_keeps_capacity_despite_float_rounding(self):
        # ceil(deficit * rho) in units alone would leave capacity one
        # float rounding short of this deficit
        pool = AssetPool(
            "X", inventory=from_units(50594774317388), lp_inventory=from_units(75356383085125)
        )
        v = Vault("X", SHORT, to_units(100.0), 0.861786, to_units(1.0))
        v.collateral_units -= withdrawable_units(pool, v)
        assert v.capacity() >= pool.lp_inventory - pool.inventory


class TestPremiumFlow:
    PARAMS = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.1, d_lhs=0.1)

    def test_no_move(self):
        v = vault(SHORT, 100.0)
        assert slp_premium_flow(to_units(5.0), to_units(5.0), self.PARAMS, v) == 0

    def test_rebalance_credits(self):
        v = vault(SHORT, 100.0)
        applied = slp_premium_flow(to_units(10.0), to_units(5.0), self.PARAMS, v)
        assert applied == to_units(10.0)
        assert v.collateral_units == to_units(100.0)  # the caller books it

    def test_debit_clamps_at_zero_then_liquidates(self):
        eng, v = margin_engine(3.0, floor=1.0)
        t_prev, t_next = to_units(5.0), to_units(20.0)
        flow = boundary_premium_flow(t_prev, t_next, self.PARAMS)
        assert flow == to_units(5.0 * 10.0 * 0.1 - 20.0 * 25.0 * 0.1)
        applied = slp_premium_flow(t_prev, t_next, self.PARAMS, v)
        assert applied == -to_units(3.0)
        eng._move_vault("premium_flow", v, applied)
        assert v.collateral_units == 0
        assert v.liquidated and flags(eng) == [1]

    def test_non_recourse_over_path(self):
        rng = np.random.default_rng(37)
        sheet = BalanceSheet()
        v = sheet.open_vault("X", SHORT, 0.5, 0)
        sheet.book_vault(0, "vault_flow", "X", SHORT, to_units(25.0))
        deposited = v.collateral_units
        credited = 0
        t_prev = 0
        for _ in range(300):
            t_next = to_units(float(rng.uniform(-40.0, 40.0)))
            applied = slp_premium_flow(t_prev, t_next, self.PARAMS, v)
            sheet.book_vault(0, "premium_flow", "X", SHORT, applied)
            credited += max(applied, 0)
            t_prev = t_next
            assert v.collateral_units >= 0
        # losses never exceed deposits plus what the vault earned
        assert v.collateral_units <= deposited + credited
