import numpy as np
import pytest

from dfmm.auction import (
    BAND1,
    BAND2,
    CRITICAL,
    LHS,
    OPTIMAL,
    RHS,
    TOO_FAST,
    TOO_SLOW,
    AuctionState,
    RebalanceTargets,
    RegimeThresholds,
    SideClock,
    auction_step,
    classify_regime,
    record_rebalance_progress,
    target_for,
    update_aggressiveness,
)
from dfmm.money import from_units, to_units
from dfmm.pricing import RebalanceParams, premium_units
from dfmm.vaults import Utilisation

THR = RegimeThresholds(theta0=0.3, theta_star=0.6, theta_dagger=0.9)
TGT = RebalanceTargets(j_star=10, j_prime=5, j_dagger=3)


class TestRegimes:
    def test_zero_is_optimal(self):
        assert classify_regime(0.0, THR) == OPTIMAL

    def test_interval_lookup(self):
        assert classify_regime(0.7, THR) == BAND2

    def test_left_closed_boundary(self):
        assert classify_regime(0.3, THR) == BAND1
        assert classify_regime(0.6, THR) == BAND2
        assert classify_regime(0.9, THR) == CRITICAL

    def test_total_and_ordered(self):
        rng = np.random.default_rng(3)
        order = [OPTIMAL, BAND1, BAND2, CRITICAL]
        prev_u = 0.0
        for u in np.sort(rng.uniform(0.0, 2.0, size=200)):
            regime = classify_regime(float(u), THR)
            assert order.index(regime) >= order.index(classify_regime(prev_u, THR))
            prev_u = float(u)

    def test_targets(self):
        assert target_for(BAND1, TGT) == (10, "epochs")
        assert target_for(BAND2, TGT) == (5, "epochs")
        assert target_for(CRITICAL, TGT) == (3, "timesteps")
        with pytest.raises(KeyError):  # the optimal band has no deadline
            target_for(OPTIMAL, TGT)


class TestBreachClock:
    def test_stays_zero_in_optimal(self):
        clock = SideClock()
        for _ in range(5):
            assert record_rebalance_progress(clock, 0.1, THR) is None
        assert clock.breach_timesteps == 0

    def test_measures_breach_duration(self):
        clock = SideClock()
        for _ in range(4):
            assert record_rebalance_progress(clock, 0.5, THR) is None
        assert record_rebalance_progress(clock, 0.1, THR) == 4
        assert clock.breach_timesteps == 0

    def test_oscillation_measured_separately(self):
        clock = SideClock()
        record_rebalance_progress(clock, 0.5, THR)
        record_rebalance_progress(clock, 0.5, THR)
        first = record_rebalance_progress(clock, 0.1, THR)
        record_rebalance_progress(clock, 0.5, THR)
        second = record_rebalance_progress(clock, 0.1, THR)
        assert (first, second) == (2, 1)


class TestUpdateAggressiveness:
    PARAMS = RebalanceParams(a_rhs=10.0, a_lhs=10.0, d_rhs=0.1, d_lhs=0.1)

    def test_too_fast_decrements(self):
        a_after, _, upsilon, _ = update_aggressiveness(
            RHS, to_units(5.0), TOO_FAST, self.PARAMS, lam=1.0, a_min=5.0,
            tr_units=to_units(100.0),
        )
        assert a_after == 9.0
        assert upsilon < 0

    def test_too_fast_clamps_at_minimum(self):
        params = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.1, d_lhs=0.1)
        a_after, _, upsilon, _ = update_aggressiveness(
            RHS, to_units(5.0), TOO_FAST, params, lam=1.0, a_min=5.0,
            tr_units=to_units(100.0),
        )
        assert a_after == 5.0
        assert upsilon == 0

    def test_too_slow_cap_exhausts_treasury_exactly(self):
        params = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.1, d_lhs=0.1)
        a_after, capped, upsilon, _ = update_aggressiveness(
            RHS, to_units(10.0), TOO_SLOW, params, lam=2.0, a_min=1.0,
            tr_units=to_units(1.0),
        )
        assert capped
        assert a_after == pytest.approx(6.0)
        assert abs(from_units(upsilon) - 1.0) <= 1e-9

    def test_too_slow_uncapped_when_funded(self):
        params = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.1, d_lhs=0.1)
        a_after, capped, upsilon, params_after = update_aggressiveness(
            RHS, to_units(10.0), TOO_SLOW, params, lam=2.0, a_min=1.0,
            tr_units=to_units(100.0),
        )
        assert not capped
        assert a_after == 7.0
        assert params_after.a_rhs == 7.0 and params_after.a_lhs == 5.0
        assert upsilon == premium_units(
            to_units(10.0), params_after
        ) - premium_units(to_units(10.0), params)

    def test_lhs_side_mirrors(self):
        params = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.1, d_lhs=0.1)
        a_after, capped, upsilon, params_after = update_aggressiveness(
            LHS, to_units(-10.0), TOO_SLOW, params, lam=2.0, a_min=1.0,
            tr_units=to_units(1.0),
        )
        assert capped
        assert a_after == pytest.approx(6.0)
        assert params_after.a_lhs == a_after and params_after.a_rhs == 5.0
        assert abs(from_units(upsilon) - 1.0) <= 1e-9

    def test_too_slow_never_prices_above_the_treasury(self):
        # the linear cap a_prev + tr / (|T| d) rounds to 69231 units here
        params = RebalanceParams(a_rhs=1.0, a_lhs=1.0, d_rhs=0.0005, d_lhs=0.0005)
        a_after, capped, upsilon, params_after = update_aggressiveness(
            RHS, 3000000000000600, TOO_SLOW, params, lam=1.0, a_min=1.0,
            tr_units=69230,
        )
        assert capped
        assert 0 < upsilon <= 69230
        assert 1.0 < a_after < 2.0
        assert upsilon == premium_units(
            3000000000000600, params_after
        ) - premium_units(3000000000000600, params)

    def test_too_slow_upsilon_fits_the_treasury(self):
        rng = np.random.default_rng(83)
        for _ in range(5000):
            side = RHS if rng.integers(2) else LHS
            t_units = round(10.0 ** rng.uniform(0.0, 18.0))
            a_prev = float(rng.uniform(0.0, 50.0))
            d = 10.0 ** rng.uniform(-7.0, 0.0)
            lam = float(rng.uniform(1e-3, 10.0))
            tr_units = round(10.0 ** rng.uniform(0.0, 16.0))
            params = RebalanceParams(a_rhs=a_prev, a_lhs=a_prev, d_rhs=d, d_lhs=d)
            a_after, capped, upsilon, _ = update_aggressiveness(
                side, t_units if side == RHS else -t_units, TOO_SLOW, params,
                lam=lam, a_min=0.0, tr_units=tr_units,
            )
            assert 0 <= upsilon <= tr_units
            assert a_prev <= a_after <= a_prev + lam
            if not capped:
                assert a_after == a_prev + lam

    def test_inactive_side(self):
        # X's rhs stays critical past j_dagger = 3 timesteps and Y's lhs
        # breaches and resolves fast; without open flow no auction runs
        params = {"X": self.PARAMS, "Y": self.PARAMS}
        path = [
            {"X": Utilisation(0.95, 0.0), "Y": Utilisation(0.0, u_y)}
            for u_y in (0.95, 0.0, 0.95, 0.0, 0.95, 0.0, 0.95)
        ]

        def run(t):
            state, out, seen = AuctionState(lam=1.0, a_min=1.0), params, []
            for u in path:
                out, events = auction_step(state, **step_args(u, t, out, to_units(100.0)))
                seen += [(e.asset_id, e.side, e.comparison) for e in events]
            return out, seen

        assert run({"X": 0, "Y": 0}) == (params, [])
        # the same path with open flow on both sides moves both
        out, seen = run({"X": to_units(5.0), "Y": -to_units(5.0)})
        assert ("X", RHS, TOO_SLOW) in seen and ("Y", LHS, TOO_FAST) in seen
        assert out != params

    def test_on_target_no_change(self):
        # band1 (j_star = 2 epochs of one timestep) off the epoch boundary:
        # resolved after exactly 2 timesteps, the breach is on target
        state = AuctionState(lam=1.0, a_min=1.0)
        params = {"X": self.PARAMS, "Y": self.PARAMS}
        t = {"X": to_units(5.0), "Y": -to_units(5.0)}
        for u_x in (0.4, 0.4, 0.0):
            u = {"X": Utilisation(u_x, 0.0), "Y": Utilisation(0.0, 0.0)}
            out, events = auction_step(
                state, **step_args(u, t, params, to_units(100.0), boundary=False)
            )
            assert events == []
            assert out == params
        assert state.clock("X", RHS).breach_timesteps == 0

    def test_convergence_pairs(self):
        params = RebalanceParams(a_rhs=10.0, a_lhs=10.0, d_rhs=0.1, d_lhs=0.1)
        a = 10.0
        for _ in range(10):
            _, _, _, params = update_aggressiveness(
                RHS, to_units(5.0), TOO_SLOW, params, 1.0, 1.0, to_units(10**6)
            )
            a, _, _, params = update_aggressiveness(
                RHS, to_units(5.0), TOO_FAST, params, 1.0, 1.0, 0
            )
            assert abs(a - 10.0) <= 1e-12


def step_args(u_by_asset, t_by_asset, params, tr, *, boundary=True):
    return dict(
        utilisation_by_asset=u_by_asset,
        t_units_by_asset=t_by_asset,
        params_by_asset=params,
        targets=RebalanceTargets(j_star=2, j_prime=1, j_dagger=3),
        thresholds=THR,
        tr_units=tr,
        at_epoch_boundary=boundary,
        epoch_len=1,
    )


class TestAuctionStep:
    def make(self, lam=1.0, a_min=1.0):
        return AuctionState(lam=lam, a_min=a_min)

    def base_params(self, a=5.0, d=0.1):
        return {"X": RebalanceParams(a, a, d, d), "Y": RebalanceParams(a, a, d, d)}

    def test_optimal_no_change(self):
        state = self.make()
        params = self.base_params()
        u = {aid: Utilisation(0.0, 0.0) for aid in params}
        t = {aid: to_units(5.0) for aid in params}
        out, events = auction_step(state, **step_args(u, t, params, 0))
        assert out == params
        assert events == []

    def test_band1_past_deadline_increments(self):
        state = self.make()
        params = self.base_params()
        u = {"X": Utilisation(0.4, 0.0), "Y": Utilisation(0.0, 0.0)}
        t = {"X": to_units(10.0), "Y": 0}
        tr = to_units(1000.0)
        events_all = []
        for _ in range(2):  # j_star=2 epoch boundaries
            params, events = auction_step(state, **step_args(u, t, params, tr))
            events_all.extend(events)
        assert len(events_all) == 1
        ev = events_all[0]
        assert ev.asset_id == "X" and ev.side == RHS
        assert ev.comparison == TOO_SLOW
        assert ev.a_after == 6.0

    def test_contention_ascending_asset_order(self):
        state = AuctionState(lam=2.0, a_min=1.0)
        params = self.base_params(a=5.0, d=0.1)
        u = {"X": Utilisation(0.4, 0.0), "Y": Utilisation(0.4, 0.0)}
        t = {"X": to_units(10.0), "Y": to_units(10.0)}
        # enough reserve for X's full increment (10*2*0.1 = 2) plus half of Y's
        tr = to_units(3.0)
        events_all = []
        for _ in range(2):
            params, events = auction_step(state, **step_args(u, t, params, tr))
            events_all.extend(events)
        assert [e.asset_id for e in events_all] == ["X", "Y"]
        assert not events_all[0].capped
        assert events_all[0].a_after == 7.0
        assert events_all[1].capped
        assert events_all[1].a_after == pytest.approx(6.0)  # 5 + 1/(10*0.1)
        assert from_units(events_all[1].upsilon_units) == pytest.approx(1.0, abs=1e-9)

    def test_too_fast_on_quick_resolution(self):
        state = self.make()
        params = self.base_params()
        t = {"X": to_units(10.0), "Y": 0}
        breached = {"X": Utilisation(0.95, 0.0), "Y": Utilisation(0.0, 0.0)}
        resolved = {"X": Utilisation(0.0, 0.0), "Y": Utilisation(0.0, 0.0)}
        # one critical timestep then resolve: measured 1 < j_dagger 3
        params, events = auction_step(
            state, **step_args(breached, t, params, 0, boundary=False)
        )
        assert events == []
        params, events = auction_step(
            state, **step_args(resolved, t, params, 0, boundary=False)
        )
        assert len(events) == 1
        assert events[0].comparison == TOO_FAST
        assert events[0].a_after == 4.0

    def test_floor_holds_over_random_scenario(self):
        rng = np.random.default_rng(71)
        state = AuctionState(lam=0.5, a_min=1.0)
        params = self.base_params(a=2.0)
        tr = to_units(50.0)
        for _ in range(2000):
            u = {
                "X": Utilisation(float(rng.uniform(0, 1.2)), 0.0),
                "Y": Utilisation(0.0, float(rng.uniform(0, 1.2))),
            }
            t = {
                "X": to_units(float(rng.uniform(0.1, 20.0))),
                "Y": -to_units(float(rng.uniform(0.1, 20.0))),
            }
            params, events = auction_step(
                state, **step_args(u, t, params, tr, boundary=bool(rng.integers(2)))
            )
            for p in params.values():
                assert p.a_rhs >= 1.0 - 1e-12
                assert p.a_lhs >= 1.0 - 1e-12

    def test_monotone_pressure_until_treasury_exhausts(self):
        state = AuctionState(lam=1.0, a_min=1.0)
        params = self.base_params(a=5.0, d=0.1)
        u = {"X": Utilisation(0.4, 0.0), "Y": Utilisation(0.0, 0.0)}
        t = {"X": to_units(10.0), "Y": 0}
        tr = to_units(2.5)  # funds two full increments (1.0 each), caps the third
        a_values = [5.0]
        for _ in range(12):
            params, events = auction_step(state, **step_args(u, t, params, tr))
            for ev in events:
                tr -= ev.upsilon_units
                a_values.append(ev.a_after)
        assert all(b >= a for a, b in zip(a_values, a_values[1:]))
        full_steps = [b - a for a, b in zip(a_values, a_values[1:]) if b - a > 0.9]
        assert len(full_steps) == 2
        assert tr == 0
