import numpy as np
import pytest

from dfmm.auction import (
    BAND1,
    BAND2,
    CRITICAL,
    LHS,
    OPTIMAL,
    RHS,
    auction_step,
    classify_regime,
    update_aggressiveness,
)
from dfmm.money import from_units, to_units
from dfmm.pricing import RebalanceParams, premium_units
from dfmm.sim.config import ScenarioConfig
from dfmm.sim.output import SCHEMAS
from dfmm.vaults import Utilisation

THR = ScenarioConfig(theta0=0.3, theta_star=0.6, theta_dagger=0.9)


def config(*, targets=(2, 1, 3), epoch_len=1, lam=1.0, a_min=1.0):
    """THR's thresholds with deadlines (j_star, j_prime, j_dagger)."""
    j_star, j_prime, j_dagger = targets
    return ScenarioConfig(
        theta0=THR.theta0, theta_star=THR.theta_star, theta_dagger=THR.theta_dagger,
        j_star=j_star, j_prime=j_prime, j_dagger=j_dagger,
        epoch_len=epoch_len, lam=lam, a_min=a_min,
    )


def step_args(clocks, u_by_asset, t_by_asset, params, tr, *, boundary=True, t=1, **cfg):
    return dict(
        cfg=config(**cfg),
        clocks=clocks,
        timestep=t,
        utilisation_by_asset=u_by_asset,
        t_units_by_asset=t_by_asset,
        params_by_asset=params,
        tr_units=tr,
        at_epoch_boundary=boundary,
    )


def moves(events):
    """Each move's auction row as a dict by column, with its upsilon."""
    return [dict(zip(SCHEMAS["auction"], row), upsilon=ups) for ups, row in events]


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
        # (u, boundary, first move): band deadlines count epochs, which
        # pass only at boundaries, and the critical one timesteps
        cases = [
            (0.4, True, 10),  # band1: j_star = 10 epochs
            (0.4, False, None),
            (0.7, True, 5),  # band2: j_prime = 5 epochs
            (0.95, False, 3),  # critical: j_dagger = 3 timesteps
            (0.0, True, None),  # the optimal band has no deadline
        ]
        for u, boundary, first_move in cases:
            clocks, params, seen = {}, {"X": RebalanceParams(5.0, 5.0, 0.1, 0.1)}, []
            for t in range(1, 21):
                params, events = auction_step(**step_args(
                    clocks, {"X": Utilisation(u, 0.0)}, {"X": to_units(5.0)}, params,
                    to_units(100.0), boundary=boundary, t=t, targets=(10, 5, 3),
                ))
                seen += moves(events)
            if first_move is None:
                assert seen == []
            else:
                assert seen[0]["time"] == seen[0]["target"] == first_move


class TestBreachClock:
    """The breach clock shows in the breach_clock of a fast resolution:
    band1 (j_star = 10 epochs) with no epoch boundary on the way."""

    def run(self, path):
        clocks, params, seen = {}, {"X": RebalanceParams(5.0, 5.0, 0.1, 0.1)}, []
        for u_x in path:
            params, events = auction_step(**step_args(
                clocks, {"X": Utilisation(u_x, 0.0)}, {"X": to_units(5.0)}, params,
                to_units(100.0), boundary=False, targets=(10, 5, 3),
            ))
            seen += [m["breach_clock"] for m in moves(events)]
        return seen, clocks["X", RHS]

    def test_stays_zero_in_optimal(self):
        seen, clock = self.run([0.1] * 5)
        assert seen == [] and clock.breach_timesteps == 0

    def test_measures_breach_duration(self):
        seen, clock = self.run([0.5] * 4 + [0.1])
        assert seen == [4]
        assert clock.breach_timesteps == 0

    def test_oscillation_measured_separately(self):
        seen, _ = self.run([0.5, 0.5, 0.1, 0.5, 0.1])
        assert seen == [2, 1]


class TestUpdateAggressiveness:
    PARAMS = RebalanceParams(a_rhs=10.0, a_lhs=10.0, d_rhs=0.1, d_lhs=0.1)

    def test_too_fast_decrements(self):
        a_after, _, upsilon, _ = update_aggressiveness(
            RHS, to_units(5.0), False, self.PARAMS, lam=1.0, a_min=5.0,
            tr_units=to_units(100.0),
        )
        assert a_after == 9.0
        assert upsilon < 0

    def test_too_fast_clamps_at_minimum(self):
        params = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.1, d_lhs=0.1)
        a_after, _, upsilon, _ = update_aggressiveness(
            RHS, to_units(5.0), False, params, lam=1.0, a_min=5.0,
            tr_units=to_units(100.0),
        )
        assert a_after == 5.0
        assert upsilon == 0

    def test_too_slow_cap_exhausts_treasury_exactly(self):
        params = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.1, d_lhs=0.1)
        a_after, capped, upsilon, _ = update_aggressiveness(
            RHS, to_units(10.0), True, params, lam=2.0, a_min=1.0,
            tr_units=to_units(1.0),
        )
        assert capped
        assert a_after == pytest.approx(6.0)
        assert abs(from_units(upsilon) - 1.0) <= 1e-9

    def test_too_slow_uncapped_when_funded(self):
        params = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.1, d_lhs=0.1)
        a_after, capped, upsilon, params_after = update_aggressiveness(
            RHS, to_units(10.0), True, params, lam=2.0, a_min=1.0,
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
            LHS, to_units(-10.0), True, params, lam=2.0, a_min=1.0,
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
            RHS, 3000000000000600, True, params, lam=1.0, a_min=1.0,
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
                side, t_units if side == RHS else -t_units, True, params,
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
            clocks, out, seen = {}, params, []
            for u in path:
                out, events = auction_step(**step_args(clocks, u, t, out, to_units(100.0)))
                seen += [
                    (m["asset"], m["side"], m["a_after"] > m["a_before"]) for m in moves(events)
                ]
            return out, seen

        assert run({"X": 0, "Y": 0}) == (params, [])
        # the same path with open flow on both sides moves both: X up, Y down
        out, seen = run({"X": to_units(5.0), "Y": -to_units(5.0)})
        assert ("X", RHS, True) in seen and ("Y", LHS, False) in seen
        assert out != params

    def test_on_target_no_change(self):
        # band1 (j_star = 2 epochs of one timestep) off the epoch boundary:
        # resolved after exactly 2 timesteps, the breach is on target
        clocks = {}
        params = {"X": self.PARAMS, "Y": self.PARAMS}
        t = {"X": to_units(5.0), "Y": -to_units(5.0)}
        for u_x in (0.4, 0.4, 0.0):
            u = {"X": Utilisation(u_x, 0.0), "Y": Utilisation(0.0, 0.0)}
            out, events = auction_step(
                **step_args(clocks, u, t, params, to_units(100.0), boundary=False)
            )
            assert events == []
            assert out == params
        assert clocks["X", RHS].breach_timesteps == 0

    def test_convergence_pairs(self):
        params = RebalanceParams(a_rhs=10.0, a_lhs=10.0, d_rhs=0.1, d_lhs=0.1)
        a = 10.0
        for _ in range(10):
            _, _, _, params = update_aggressiveness(
                RHS, to_units(5.0), True, params, 1.0, 1.0, to_units(10**6)
            )
            a, _, _, params = update_aggressiveness(
                RHS, to_units(5.0), False, params, 1.0, 1.0, 0
            )
            assert abs(a - 10.0) <= 1e-12


class TestAuctionStep:
    def base_params(self, a=5.0, d=0.1):
        return {"X": RebalanceParams(a, a, d, d), "Y": RebalanceParams(a, a, d, d)}

    def test_optimal_no_change(self):
        params = self.base_params()
        u = {aid: Utilisation(0.0, 0.0) for aid in params}
        t = {aid: to_units(5.0) for aid in params}
        out, events = auction_step(**step_args({}, u, t, params, 0))
        assert out == params
        assert events == []

    def test_band1_past_deadline_increments(self):
        clocks = {}
        params = self.base_params()
        u = {"X": Utilisation(0.4, 0.0), "Y": Utilisation(0.0, 0.0)}
        t = {"X": to_units(10.0), "Y": 0}
        tr = to_units(1000.0)
        events_all = []
        for step in (1, 2):  # j_star=2 epoch boundaries
            params, events = auction_step(**step_args(clocks, u, t, params, tr, t=step))
            events_all.extend(moves(events))
        assert len(events_all) == 1
        ev = events_all[0]
        assert ev["asset"] == "X" and ev["side"] == RHS
        assert (ev["time"], ev["regime"], ev["breach_clock"], ev["target"]) == (2, BAND1, 2, 2)
        assert ev["a_before"] == 5.0 and ev["a_after"] == 6.0 and ev["capped"] == 0

    def test_contention_ascending_asset_order(self):
        clocks = {}
        params = self.base_params(a=5.0, d=0.1)
        u = {"X": Utilisation(0.4, 0.0), "Y": Utilisation(0.4, 0.0)}
        t = {"X": to_units(10.0), "Y": to_units(10.0)}
        # enough reserve for X's full increment (10*2*0.1 = 2) plus half of Y's
        tr = to_units(3.0)
        events_all = []
        for _ in range(2):
            params, events = auction_step(**step_args(clocks, u, t, params, tr, lam=2.0))
            events_all.extend(moves(events))
        assert [e["asset"] for e in events_all] == ["X", "Y"]
        assert not events_all[0]["capped"]
        assert events_all[0]["a_after"] == 7.0
        assert events_all[1]["capped"]
        assert events_all[1]["a_after"] == pytest.approx(6.0)  # 5 + 1/(10*0.1)
        assert from_units(events_all[1]["upsilon"]) == pytest.approx(1.0, abs=1e-9)

    def test_too_fast_on_quick_resolution(self):
        clocks = {}
        params = self.base_params()
        t = {"X": to_units(10.0), "Y": 0}
        breached = {"X": Utilisation(0.95, 0.0), "Y": Utilisation(0.0, 0.0)}
        resolved = {"X": Utilisation(0.0, 0.0), "Y": Utilisation(0.0, 0.0)}
        # one critical timestep then resolve: measured 1 < j_dagger 3
        params, events = auction_step(
            **step_args(clocks, breached, t, params, 0, boundary=False)
        )
        assert events == []
        params, events = auction_step(
            **step_args(clocks, resolved, t, params, 0, boundary=False)
        )
        (ev,) = moves(events)
        assert (ev["regime"], ev["breach_clock"], ev["target"]) == (CRITICAL, 1, 3)
        assert ev["a_after"] == 4.0

    def test_floor_holds_over_random_scenario(self):
        rng = np.random.default_rng(71)
        clocks = {}
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
            params, events = auction_step(**step_args(
                clocks, u, t, params, tr, boundary=bool(rng.integers(2)), lam=0.5
            ))
            for p in params.values():
                assert p.a_rhs >= 1.0 - 1e-12
                assert p.a_lhs >= 1.0 - 1e-12

    def test_monotone_pressure_until_treasury_exhausts(self):
        clocks = {}
        params = self.base_params(a=5.0, d=0.1)
        u = {"X": Utilisation(0.4, 0.0), "Y": Utilisation(0.0, 0.0)}
        t = {"X": to_units(10.0), "Y": 0}
        tr = to_units(2.5)  # funds two full increments (1.0 each), caps the third
        a_values = [5.0]
        for _ in range(12):
            params, events = auction_step(**step_args(clocks, u, t, params, tr))
            for ev in moves(events):
                tr -= ev["upsilon"]
                a_values.append(ev["a_after"])
        assert all(b >= a for a, b in zip(a_values, a_values[1:]))
        full_steps = [b - a for a, b in zip(a_values, a_values[1:]) if b - a > 0.9]
        assert len(full_steps) == 2
        assert tr == 0


class TestClockUnits:
    """A band breach's deadline counts epochs and the critical one
    timesteps; the deadline windows run on across regime changes."""

    PARAMS = {"X": RebalanceParams(5.0, 5.0, 0.1, 0.1)}
    FLOW = {"X": to_units(10.0)}

    def rows(self, path, epoch_len=1, targets=(2, 1, 3)):
        """Drive X's rhs through ``path`` from t = 1, with the epoch
        boundaries of ``epoch_len``; (t, regime, breach, target, slow)
        of each move."""
        clocks, params, seen = {}, self.PARAMS, []
        for t, u_x in enumerate(path, start=1):
            u = {"X": Utilisation(u_x, 0.0)}
            params, events = auction_step(**step_args(
                clocks, u, self.FLOW, params, to_units(100.0), boundary=t % epoch_len == 0,
                t=t, epoch_len=epoch_len, targets=targets,
            ))
            seen += [
                (m["time"], m["regime"], m["breach_clock"], m["target"],
                 m["a_after"] > m["a_before"])
                for m in moves(events)
            ]
        return seen

    def test_resolved_band_breach_counts_started_epochs(self):
        # band1, j_star = 2 epochs of 3 timesteps: a 3-timestep breach
        # took ceil(3/3) = 1 epoch, fast; a 4-timestep one ceil(4/3) = 2,
        # on target, so no row, and no boundary expired it on the way
        assert self.rows([0.4] * 3 + [0.0], epoch_len=3) == [(4, BAND1, 3, 2, False)]
        assert self.rows([0.4] * 4 + [0.0], epoch_len=3) == []
        assert self.rows([0.4] * 2 + [0.0], epoch_len=3) == [(3, BAND1, 2, 2, False)]

    def test_resolved_critical_breach_counts_timesteps(self):
        # j_dagger = 3 timesteps whatever the epoch length
        assert self.rows([0.95] * 2 + [0.0], epoch_len=3) == [(3, CRITICAL, 2, 3, False)]

    def test_critical_window_counts_from_the_breach_start(self):
        # two band1 timesteps off the boundary, then critical: its
        # j_dagger = 3 is reached on its first timestep, then every 3rd
        path = [0.4, 0.4, 0.95, 0.95, 0.95, 0.95]
        assert self.rows(path, epoch_len=5) == [
            (3, CRITICAL, 3, 3, True),
            (6, CRITICAL, 6, 3, True),
        ]

    def test_critical_window_counts_from_the_last_expiry(self):
        # band1 (j_star = 1) expires at the boundary t = 2, which restarts
        # the window: critical's 3 timesteps run from there
        path = [0.4, 0.4, 0.95, 0.95, 0.95]
        assert self.rows(path, epoch_len=2, targets=(1, 1, 3)) == [
            (2, BAND1, 2, 1, True),
            (5, CRITICAL, 5, 3, True),
        ]

    def test_epoch_window_carries_into_the_next_band(self):
        # one band1 boundary (1 of j_star = 3), then one band2 boundary:
        # the window holds 2 epochs, which meets j_prime = 2
        path = [0.4, 0.7]
        assert self.rows(path, targets=(3, 2, 3)) == [(2, BAND2, 2, 2, True)]
