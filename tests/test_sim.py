import configparser
import copy
import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from dfmm import cli, eldf, pricing
from dfmm.errors import BadCurve, BadParams, ConfigInvalid, ExceedsCapacity, InvariantBreach
from dfmm.ledger import BalanceSheet, trade_rows
from dfmm.money import from_units, to_units
from dfmm.pricing import RebalanceParams, quote_swap
from dfmm.sim.agents import ArbitrageurAgent, TraderFlow
from dfmm.sim.config import _INI_NAMES, AssetConfig, ScenarioConfig, load_config
from dfmm.sim import engine as engine_mod
from dfmm.sim.engine import PHASES, Engine, RunArtifacts
from dfmm.sim.market import AssetMarket, build_markets, step_all
from dfmm.sim.output import SCHEMAS, LogWriter, write_logs
from dfmm.vaults import SHORT, boundary_premium_flow, covering_side, side_cap

import numpy as np

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.ini"

# a scenario file's global keys and the ScenarioConfig field each sets
INI_FIELDS = {
    "run.horizon": "horizon", "run.epoch_len": "epoch_len", "run.slot_len": "slot_len",
    "run.seed": "seed", "fees.theta": "theta", "fees.xi": "xi",
    "premium.a_init": "a_init", "premium.a_min": "a_min", "premium.lambda": "lam",
    "premium.d_min": "d_min", "premium.d_max": "d_max", "premium.u_max": "u_max",
    "premium.k": "k", "auction.enabled": "auction_enabled", "auction.theta0": "theta0",
    "auction.theta_star": "theta_star", "auction.theta_dagger": "theta_dagger",
    "auction.j_star": "j_star", "auction.j_prime": "j_prime", "auction.j_dagger": "j_dagger",
    "vaults.rho_long": "rho_long", "vaults.rho_short": "rho_short",
    "vaults.margin_floor": "margin_floor", "engine.clamp_extrapolation": "clamp_extrapolation",
    "rewards.gamma": "reward_gamma", "traders.rate": "trader_rate",
    "traders.size_mu": "trader_size_mu", "traders.size_sigma": "trader_size_sigma",
    "arbitrageur.enabled": "arb_enabled", "arbitrageur.fixed_cost": "arb_fixed_cost",
    "arbitrageur.max_exposure": "arb_max_exposure",
}


def asset(asset_id, **kw):
    defaults = dict(
        mid_price=100.0,
        sigma=0.0,
        depth=5000.0,
        deposit=2000.0,
        c_long=100000.0,
        c_short=100000.0,
    )
    defaults.update(kw)
    return AssetConfig(asset_id=asset_id, **defaults)


def scenario(**kw):
    defaults = dict(
        horizon=30,
        epoch_len=5,
        seed=7,
        theta=0.003,
        xi=0.001,
        a_init=5.0,
        a_min=1.0,
        lam=1.0,
        d_min=0.00005,
        d_max=0.0005,
        trader_rate=0.0,
        arb_enabled=False,
        assets=(asset("X"), asset("Y", mid_price=50.0)),
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def bump(obj, attr):
    """Add one ledger unit to an integer field."""
    setattr(obj, attr, getattr(obj, attr) + 1)


class TestConfig:
    def test_demo_config_valid(self):
        cfg = load_config("scenarios/demo.ini")
        assert cfg.validate() == []

    def test_seed_override(self):
        cfg = load_config("scenarios/demo.ini", seed_override=99)
        assert cfg.seed == 99

    def test_xi_above_theta_rejected(self):
        cfg = scenario(theta=0.001, xi=0.002)
        violations = cfg.validate()
        assert any("xi" in v and "theta" in v for v in violations)

    def test_threshold_ordering_rejected(self):
        cfg = scenario(theta0=0.6, theta_star=0.3)
        assert any("theta_star" in v for v in cfg.validate())

    # validate is the one implementation of each range rule: the fee
    # schedule, auction thresholds and targets, vaults, cover coefficient
    # and reward split take their parameters from a validated config.
    @pytest.mark.parametrize(
        "overrides,violation",
        [
            ({"theta": 1.0}, "fees.theta must be in [0, 1), got 1.0"),
            ({"xi": -0.001}, "fees.xi must be in [0, 1), got -0.001"),
            (
                {"theta": 0.001, "xi": 0.002},
                "fees.xi (0.002) must not exceed fees.theta (0.001)",
            ),
            (
                {"theta0": 0.6, "theta_star": 0.3},
                "auction thresholds must satisfy 0 <= theta0 <= theta_star <= "
                "theta_dagger <= 1, got (0.6, 0.3, 0.75)",
            ),
            ({"j_star": 2, "j_prime": 3}, "auction.j_star (2) must be >= j_prime (3) >= 1"),
            ({"j_dagger": 0}, "auction.j_dagger must be >= 1, got 0"),
            ({"rho_long": 0.0}, "vaults.rho_long must be in (0, 1], got 0.0"),
            ({"rho_short": 1.5}, "vaults.rho_short must be in (0, 1], got 1.5"),
            (
                {"assets": (asset("X", c_long=-1.0), asset("Y"))},
                "asset.X.c_long must be >= 0, got -1.0",
            ),
            (
                {"d_min": 0.001, "d_max": 0.0005},
                "premium.d_min (0.001) must not exceed d_max (0.0005)",
            ),
            ({"u_max": 0.0}, "premium.u_max must be > 0, got 0.0"),
            ({"k": 0.0}, "premium.k must be > 0, got 0.0"),
            ({"reward_gamma": 1.0}, "rewards.gamma must be in [0, 1), got 1.0"),
            # "," splits a CSV cell, "->" a pair and "*" is the run-wide context
            *(
                (
                    {"assets": (asset(bad), asset("Y"))},
                    f"asset id {bad!r} must be letters, digits, '_' or '-'",
                )
                for bad in ("BE,TA", "A->B", "*", "")
            ),
            (
                {"assets": (asset("X", n_points=10**13), asset("Y"))},
                "asset.X.n_points must be in [3, 10000], got 10000000000000",
            ),
            ({"horizon": -1}, "run.horizon must be >= 0, got -1"),
            ({"epoch_len": 0}, "run.epoch_len must be >= 1, got 0"),
            ({"slot_len": 0}, "run.slot_len must be >= 1, got 0"),
            ({"a_min": -1.0}, "premium.a_min must be >= 0, got -1.0"),
            ({"a_init": 0.5}, "premium.a_init (0.5) must be >= a_min (1.0)"),
            ({"lam": 0.0}, "premium.lambda must be > 0, got 0.0"),
            ({"d_min": -1.0}, "premium.d_min must be >= 0, got -1.0"),
            ({"margin_floor": -1.0}, "vaults.margin_floor must be >= 0, got -1.0"),
            ({"trader_rate": -1.0}, "traders.rate must be >= 0, got -1.0"),
            ({"arb_fixed_cost": -1.0}, "arbitrageur.fixed_cost must be >= 0, got -1.0"),
            ({"arb_max_exposure": 0.0}, "arbitrageur.max_exposure must be > 0, got 0.0"),
            *(
                (
                    {"assets": (asset("X", **{name: value}), asset("Y"))},
                    f"asset.X.{name} must be {rule}, got {value}",
                )
                for name, value, rule in (
                    ("mid_price", 0.0, "> 0"), ("sigma", -0.1, ">= 0"), ("depth", 0.0, "> 0"),
                    ("deposit", 0.0, "> 0"), ("spread", -0.01, ">= 0"),
                )
            ),
            # an interval rejects NaN as well; a lone bound leaves it to the
            # finiteness rule
            (
                {"theta": math.nan},
                ["fees.theta must be finite, got nan", "fees.theta must be in [0, 1), got nan"],
            ),
            ({"lam": math.nan}, "premium.lambda must be finite, got nan"),
        ],
        ids=[
            "theta-range", "xi-range", "xi-above-theta", "threshold-order",
            "j_star-below-j_prime", "j_dagger-below-1", "rho_long-zero",
            "rho_short-above-1", "collateral-negative", "d_min-above-d_max",
            "u_max-zero", "k-zero", "gamma-range", "asset-id-comma", "asset-id-arrow",
            "asset-id-star", "asset-id-empty", "n_points-above-max",
            "horizon-negative", "epoch_len-zero", "slot_len-zero", "a_min-negative",
            "a_init-below-a_min", "lambda-zero", "d_min-negative", "margin_floor-negative",
            "rate-negative", "fixed_cost-negative",
            "max_exposure-zero", "mid_price-zero", "sigma-negative", "depth-zero",
            "deposit-zero", "spread-negative", "theta-nan", "lambda-nan",
        ],
    )
    def test_rule_violation_rejected(self, overrides, violation):
        cfg = scenario(**overrides)
        expected = violation if isinstance(violation, list) else [violation]
        assert cfg.validate() == expected
        with pytest.raises(ConfigInvalid) as exc:
            Engine(cfg)
        assert exc.value.violations == expected

    # each field's own rule in declaration order, globals first, then
    # the rules that relate fields, then each asset's fields
    def test_violations_list_field_rules_before_cross_field_rules(self):
        cfg = scenario(
            theta=0.001, xi=0.002, lam=0.0, d_min=-1.0, k=math.inf, margin_floor=1e300,
            assets=(asset("X", mid_price=0.0, c_long=-1.0), asset("Y")),
        )
        assert cfg.validate() == [
            "premium.k must be finite, got inf",
            "premium.lambda must be > 0, got 0.0",
            "premium.d_min must be >= 0, got -1.0",
            "vaults.margin_floor overflows ledger units, got 1e+300",
            "fees.xi (0.002) must not exceed fees.theta (0.001)",
            "asset.X.mid_price must be > 0, got 0.0",
            "asset.X.c_long must be >= 0, got -1.0",
        ]

    def test_every_numeric_field_declares_a_rule_or_is_listed_unconstrained(self):
        # none of these has a one-field rule: a_init, the thresholds and
        # j_star, j_prime are checked against other fields in validate
        unconstrained = {
            "drift", "impact_alpha", "bid_slope", "bid_curv", "ask_slope", "ask_curv",
            "trader_size_mu", "a_init", "theta0", "theta_star", "theta_dagger",
            "j_star", "j_prime",
        }
        numeric = [
            f for cls in (ScenarioConfig, AssetConfig) for f in dataclasses.fields(cls)
            if f.type in ("int", "float")
        ]
        assert {f.name for f in numeric if not f.metadata.get("rule")} == unconstrained

    def test_asset_id_of_letters_digits_underscore_and_dash_is_valid(self):
        assert scenario(assets=(asset("ALPHA_1"), asset("b-2"))).validate() == []

    def test_run_scenario_rejects_invalid(self):
        with pytest.raises(ConfigInvalid):
            Engine(scenario(theta=0.001, xi=0.002)).run()

    def test_every_ini_key_sets_its_field(self, tmp_path):
        # each key gets its own value, none a default: a key read into
        # another field, or left unread, leaves some field off its value
        defaults = ScenarioConfig()
        assert set(INI_FIELDS.values()) == {
            f.name for f in dataclasses.fields(ScenarioConfig)
        } - {"assets", "scripted_trades"}
        expected = {}
        sections: dict = {}
        for i, ini in enumerate(_INI_NAMES.values()):
            name = INI_FIELDS[ini]
            default = getattr(defaults, name)
            if isinstance(default, bool):
                value, text = not default, str(not default).lower()
            else:
                value = type(default)(100_000 + i)
                text = repr(value)
            expected[name] = value
            section, key = ini.split(".")
            sections.setdefault(section, []).append(f"{key} = {text}")
        assert len(expected) == len(INI_FIELDS)
        path = tmp_path / "keys.ini"
        path.write_text(
            "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())
        )
        cfg = load_config(path)
        assert {name: getattr(cfg, name) for name in expected} == expected


class TestMarket:
    def test_zero_sigma_mid_constant(self):
        cfg = scenario()
        markets = build_markets(cfg.assets, np.random.SeedSequence(1))
        before = markets["X"].mid
        for _ in range(100):
            step_all(markets)
        assert markets["X"].mid == before

    def test_snapshot_reproduces_profile_exactly(self):
        cfg = scenario()
        markets = build_markets(cfg.assets, np.random.SeedSequence(1))
        bid, ask = markets["X"].fit_curves(clamp=False)
        acfg = cfg.assets[0]  # X
        # density at zero depth matches mid less half the spread
        assert oracles.density(bid, 0.0) == pytest.approx(
            acfg.mid_price * (1 - acfg.spread / 2)
        )
        assert oracles.density(ask, 0.0) == pytest.approx(
            acfg.mid_price * (1 + acfg.spread / 2)
        )

    @given(
        depth=st.tuples(st.floats(1.0, 10.0), st.integers(-150, 150)).map(
            lambda me: me[0] * 10.0 ** me[1]
        ),
        n_points=st.integers(3, 64),
        spread=st.floats(0.0, 1.0),
        profile=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
        mid=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
        clamp=st.booleans(),
    )
    @settings(max_examples=150)
    def test_fit_curves_identical_to_snapshot_point_fit(
        self, depth, n_points, spread, profile, mid, clamp
    ):
        bid_slope, bid_curv, ask_slope, ask_curv = profile
        acfg = AssetConfig(
            "X", depth=depth, n_points=n_points, spread=spread, bid_slope=bid_slope,
            bid_curv=bid_curv, ask_slope=ask_slope, ask_curv=ask_curv,
        )
        assume(scenario(assets=(acfg, asset("Y"))).validate() == [])
        market = AssetMarket(cfg=acfg, mid=mid, rng=np.random.default_rng(0))

        def fit(fn):
            try:
                return repr(fn(market, clamp=clamp))
            except Exception as exc:  # the class is compared, not swallowed
                return type(exc).__name__

        assert fit(AssetMarket.fit_curves) == fit(oracles.snapshot_fit_curves)

    def test_profiles_are_read_only(self):
        market = build_markets(scenario().assets, np.random.SeedSequence(1))["X"]
        for arr in (market._vols, *market._profiles):
            assert not arr.flags.writeable

    def test_impact_shifts_mid(self):
        cfg = scenario(assets=(asset("X", impact_alpha=0.001), asset("Y")))
        markets = build_markets(cfg.assets, np.random.SeedSequence(1))
        markets["X"].record_flow(500.0)
        step_all(markets)
        assert markets["X"].mid == pytest.approx(100.0 + 0.5)


class TestEngine:
    def test_zero_horizon_echoes_initial_state(self):
        art = Engine(scenario(horizon=0)).run()
        assert art.summary["timesteps"] == 0
        assert art.summary["fills"] == 0
        assert trade_rows(art.logs["ledger"], {}) == []

    def test_determinism_same_seed(self):
        cfg = scenario(trader_rate=1.5, arb_enabled=True, horizon=40)
        a1 = Engine(cfg).run()
        a2 = Engine(cfg).run()
        assert a1.logs == a2.logs
        assert a1.summary == a2.summary

    def test_different_seed_differs(self):
        cfg = scenario(trader_rate=1.5, horizon=40)
        a1 = Engine(cfg).run()
        a2 = Engine(dataclasses.replace(cfg, seed=8)).run()
        assert trade_rows(a1.logs["ledger"], {}) != trade_rows(a2.logs["ledger"], {})

    def test_scripted_trade_fills_once(self):
        cfg = scenario(scripted_trades=((3, "X", "Y", 25.0),))
        art = Engine(cfg).run()
        assert art.summary["fills"] == 1
        (row,) = trade_rows(art.logs["ledger"], {})
        assert row[0] == 3

    def test_scripted_trades_fill_in_file_order(self):
        script = ((3, "X", "Y", 25.0), (1, "Y", "X", 10.0), (3, "Y", "X", 40.0))
        art = Engine(scenario(scripted_trades=script, horizon=5)).run()
        filled = [(row[0], row[1], row[2]) for row in trade_rows(art.logs["ledger"], {})]
        assert filled == [(1, "Y->X", 10.0), (3, "X->Y", 25.0), (3, "Y->X", 40.0)]

    def test_one_quote_per_attempted_trade(self, monkeypatch):
        # small pools under busy flow reject some trades for inventory;
        # every fill and every reject is one quote, and a fill one row
        calls = []
        quote = pricing.quote_swap

        def counting(*args, **kwargs):
            calls.append(args)
            return quote(*args, **kwargs)

        monkeypatch.setattr(pricing, "quote_swap", counting)
        small = (asset("X", deposit=50.0), asset("Y", mid_price=50.0, deposit=50.0))
        art = Engine(scenario(trader_rate=4, horizon=30, assets=small)).run()
        fills, rejected = art.summary["fills"], art.summary["rejected"]
        assert fills > 0 and rejected > 0
        assert len(calls) == fills + rejected
        assert sum(row[1] == "trade" for row in art.logs["ledger"]) == fills

    def test_refit_starts_every_asset_at_zero_marks(self):
        # trades at t=1 and t=2 move all four marks; the refit that opens
        # the second 2-step slot, at t=3, starts them again from zero
        script = ((1, "X", "Y", 25.0), (2, "Y", "X", 10.0))
        eng = Engine(scenario(scripted_trades=script, slot_len=2, horizon=3))
        eng.step_timestep()
        eng.step_timestep()
        assert all(c.bid_mark > 0.0 and c.ask_mark > 0.0 for c in eng.curves.values())
        eng.step_timestep()
        assert all(c.bid_mark == c.ask_mark == 0.0 for c in eng.curves.values())

    def test_curves_rows_are_the_fitted_curves(self):
        # slot s is fitted at timestep s * slot_len + 1, after the market
        # step; slot 0 also at construction, at the initial mid
        moving = (asset("X", sigma=0.02), asset("Y", mid_price=50.0, sigma=0.02))
        eng = Engine(scenario(trader_rate=1.5, slot_len=3, horizon=8, assets=moving))

        def fitted(slot_id):
            return [
                (slot_id, aid, side, c.c2, c.c1, c.c0, c.v_lo, c.v_hi)
                for aid, curves in sorted(eng.curves.items())
                for side, c in (("bid", curves.bid), ("ask", curves.ask))
            ]

        expected = fitted(0)
        while eng.t < 8:
            eng.step_timestep()
            if eng.t % 3 == 1:
                expected += fitted(eng.t // 3)
        assert len(set(expected)) == len(expected) == 4 * 4
        assert eng.logs["curves"] == expected

    def test_trade_moves_flow_and_inventory(self):
        cfg = scenario(scripted_trades=((1, "X", "Y", 25.0),))
        eng = Engine(cfg)
        eng.step_timestep()
        assert eng.sheet.t_units["X"] < 0 < eng.sheet.t_units["Y"]
        assert eng.sheet.pools["X"].inventory > 2000.0
        assert eng.sheet.pools["Y"].inventory < 2000.0

    def test_settlement_happens_at_epoch(self):
        cfg = scenario(
            scripted_trades=((1, "X", "Y", 25.0),),
            assets=(asset("X", sigma=0.01), asset("Y", sigma=0.01)),
            horizon=10,
            epoch_len=5,
        )
        art = Engine(cfg).run()
        settlements = [row for row in art.logs["vaults"] if float(row[5]) != 0.0]
        assert settlements, "open inventory plus curve moves must settle"

    def test_liquidations_count_each_vault_flip_once(self):
        # tiny vaults under busy flow: several liquidate, and a liquidated
        # vault stays liquidated through the later boundaries
        small = dict(c_long=10.0, c_short=10.0, sigma=0.1)
        cfg = scenario(
            trader_rate=4,
            horizon=80,
            epoch_len=2,
            seed=1,
            assets=(asset("X", **small), asset("Y", mid_price=50.0, **small)),
        )
        art = Engine(cfg).run()
        liquidated, flips = {}, 0
        for row in art.logs["vaults"]:
            vault, now = (row[1], row[2]), int(row[7])
            flips += now and not liquidated.get(vault, 0)
            liquidated[vault] = now
        assert flips > 0
        assert art.summary["liquidations"] == flips

    def test_credits_leave_a_liquidated_vault_liquidated_until_a_deposit(self):
        # the liquidation policy in the vaults docstring, on the tiny-vault
        # run above: premium-flow and settlement credits accrue to a
        # liquidated vault, which still covers nothing; a queued deposit
        # that leaves it above the floor revives it at the next boundary
        small = dict(c_long=10.0, c_short=10.0, sigma=0.1)
        cfg = scenario(
            trader_rate=4,
            horizon=80,
            epoch_len=2,
            seed=1,
            assets=(asset("X", **small), asset("Y", mid_price=50.0, **small)),
        )
        eng = Engine(cfg)
        liquidated, credits = {}, {}
        while len(credits.get(("Y", SHORT), ())) < 2:
            assert eng.t < cfg.horizon, "no credit to a liquidated vault"
            n = len(eng.logs["vaults"])
            eng.step_timestep()
            for row in eng.logs["vaults"][n:]:
                key, flow, settlement = (row[1], row[2]), row[4], row[5]
                if liquidated.get(key) and (flow > 0 or settlement > 0):
                    vault = eng.vaults[row[1]].by_side(row[2])
                    assert row[7] == 1 and vault.liquidated
                    assert side_cap(eng.sheet.pools[row[1]], vault) == 0.0
                    kinds = credits.setdefault(key, set())
                    kinds.update(("flow",) if flow > 0 else ())
                    kinds.update(("settlement",) if settlement > 0 else ())
                liquidated[key] = row[7]
        vault = eng.vaults["Y"].short
        assert vault.collateral_units > vault.margin_floor_units
        eng.queue_vault_flow("Y", SHORT, 1.0)
        epoch = eng.epoch
        while eng.epoch == epoch:
            eng.step_timestep()
        row = eng.logs["vaults"][-1]
        assert (row[0], row[1], row[2], row[7]) == (epoch + 1, "Y", SHORT, 0)
        assert not vault.liquidated and side_cap(eng.sheet.pools["Y"], vault) > 0.0

    def test_vault_starting_at_floor_is_liquidated_at_construction(self):
        cfg = scenario(horizon=20, epoch_len=5, assets=(asset("X", c_long=0.0), asset("Y")))
        eng = Engine(cfg)
        assert eng.vaults["X"].long.liquidated and eng.liquidations == 1
        art = eng.run()
        rows = [r for r in art.logs["vaults"] if (r[1], r[2]) == ("X", "long")]
        assert len(rows) == 4 and all(r[7] == 1 for r in rows)
        assert art.summary["liquidations"] == 1
        # the other vaults start well above the floor
        assert sum(r[7] for r in art.logs["vaults"]) == 4

    def test_clamped_marks_past_the_domain_keep_quoting(self, monkeypatch):
        # 20-unit books under 4 trades a step for 5-step slots: the ask
        # mark runs past v_hi, and the clamp mode sources the rest at the
        # boundary density instead of rejecting with ReversedInterval
        errors = []
        quote = pricing.quote_swap

        def recording(*args, **kwargs):
            try:
                return quote(*args, **kwargs)
            except Exception as exc:
                errors.append(type(exc).__name__)
                raise

        monkeypatch.setattr(pricing, "quote_swap", recording)
        cfg = scenario(
            trader_rate=4,
            horizon=40,
            slot_len=5,
            clamp_extrapolation=True,
            assets=(asset("X", depth=20.0), asset("Y", depth=20.0)),
        )
        eng = Engine(cfg)
        art = eng.run()
        assert not art.summary["halted"]
        assert errors == []
        assert (art.summary["fills"], art.summary["rejected"]) == (135, 0)
        assert max(c.ask_mark for c in eng.curves.values()) > 20.0

    def test_no_settlement_when_curves_static(self):
        cfg = scenario(scripted_trades=((1, "X", "Y", 25.0),), horizon=10)
        art = Engine(cfg).run()
        for row in art.logs["vaults"]:
            assert float(row[5]) == pytest.approx(0.0)

    def test_queued_vault_deposit_applies_at_boundary_and_lowers_cover(self):
        # Y's short capacity (500 / 0.5 = 1000) is below its 2000-unit LP
        # claim, so the vault, not the claim, bounds the deficit and more
        # short collateral lowers the deficit-side cover coefficient.
        cfg = scenario(
            scripted_trades=((1, "X", "Y", 2.0),),
            assets=(asset("X"), asset("Y", mid_price=1.0, c_short=500.0)),
            horizon=12,
            epoch_len=5,
            d_min=0.0001,
            d_max=0.01,
        )
        eng = Engine(cfg)
        for _ in range(4):
            eng.step_timestep()
            assert not eng.vaults["Y"].short.liquidated
        assert len(trade_rows(eng.logs["ledger"], {})) == 1
        d_before = eng.params["Y"].d_rhs
        cap_before = eng.vaults["Y"].short.capacity()
        eng.queue_vault_flow("Y", "short", 5000.0)
        assert eng.vaults["Y"].short.capacity() == cap_before  # not yet
        for _ in range(2):
            eng.step_timestep()  # crosses the epoch boundary at t=5
            assert not eng.vaults["Y"].short.liquidated
        assert eng.vaults["Y"].short.capacity() > cap_before
        assert eng.params["Y"].d_rhs < d_before
        # the rise comes from the deposit, not from reviving a liquidated vault
        assert eng.liquidations == 0

    @pytest.mark.parametrize("amount", [0.0, -1e-13, 1e-13])
    def test_queued_flow_of_no_ledger_units_is_dropped(self, amount):
        cfg = dataclasses.replace(load_config(DEMO), horizon=20)
        eng = Engine(cfg)
        eng.queue_vault_flow("ALPHA", "long", amount)
        assert eng.queued_vault_flows == []
        art = eng.run()
        assert not art.summary["halted"], art.summary["diagnostic"]
        assert art.logs["vaults"] == Engine(cfg).run().logs["vaults"]

    @pytest.mark.parametrize("asset_id, side", [("NOPE", "long"), ("ALPHA", "sideways")])
    def test_queued_flow_to_no_vault_is_refused(self, asset_id, side):
        # unchecked, the first would stay queued for good and the second
        # would reach ALPHA's short vault
        eng = Engine(dataclasses.replace(load_config(DEMO), horizon=20))
        with pytest.raises(BadParams, match="vault"):
            eng.queue_vault_flow(asset_id, side, 100.0)
        assert eng.queued_vault_flows == []

    def test_queued_withdrawal_keeps_open_deficit_covered(self):
        # the deposit scenario above with a withdrawal instead: taking all
        # 450 would leave short capacity 65.15 under a 191.28 deficit
        cfg = scenario(
            scripted_trades=((1, "X", "Y", 2.0),),
            assets=(asset("X"), asset("Y", mid_price=1.0, c_short=500.0)),
            horizon=12,
            epoch_len=5,
            d_min=0.0001,
            d_max=0.01,
        )
        eng = Engine(cfg)
        eng.queue_vault_flow("Y", "short", -450.0)
        eng.queue_vault_flow("Y", "long", -100.0)  # Y has no surplus: all of it goes
        vault = eng.vaults["Y"].short
        pool = eng.sheet.pools["Y"]
        for t in range(1, 13):
            eng.step_timestep()
            deficit = pool.lp_inventory - pool.inventory
            assert deficit > 190.0
            assert vault.capacity() >= deficit
            assert vault.collateral_units > vault.margin_floor_units
            if t < 5:
                assert eng.vault_external_units == 0
        assert not vault.liquidated and eng.liquidations == 0
        ((aid, side, rest),) = eng.queued_vault_flows
        assert (aid, side) == ("Y", SHORT) and -to_units(450.0) < rest < 0
        taken = -to_units(450.0) - rest
        assert eng.vault_external_units == taken - to_units(100.0)
        assert vault.capacity() == pytest.approx(deficit, rel=1e-9)

    def test_audit_failure_halts_and_preserves_logs(self):
        cfg = scenario(trader_rate=1.0, horizon=30)
        eng = Engine(cfg)
        for _ in range(3):
            eng.step_timestep()
        eng.total_fee_units += 1  # corrupt an accumulator
        with pytest.raises(InvariantBreach):
            eng.step_timestep()
        art = eng.run()
        assert art.summary["halted"]
        assert "audit failed" in art.summary["diagnostic"]
        assert trade_rows(art.logs["ledger"], {})  # evidence preserved

    @pytest.mark.parametrize(
        "corrupt,identity",
        [
            (lambda eng: bump(eng.vaults["X"].long, "collateral_units"), "hedge book"),
            (lambda eng: eng.rewards.accrue("X", 1), "fee split"),
            (lambda eng: bump(eng.reserve, "cum_upsilon_units"), "premium reserve"),
            (lambda eng: eng.sheet.adjust_rr("X", 1, "corrupt"), "premium reserve"),
            (lambda eng: bump(eng, "total_fee_units"), "fee split"),
        ],
        ids=["vault_collateral", "reward_accrual", "cum_upsilon", "rr_adjust", "fee_total"],
    )
    def test_one_unit_corruption_halts_naming_its_identity(self, corrupt, identity):
        # one ledger unit, mid-run, in a record the audit compares
        cfg = scenario(trader_rate=2.0, arb_enabled=True, horizon=30)
        eng = Engine(cfg)
        for _ in range(7):
            eng.step_timestep()
        corrupt(eng)
        with pytest.raises(InvariantBreach, match=identity):
            eng.step_timestep()
        assert identity in eng.diagnostic

    def test_conservation_accumulators_over_random_run(self):
        cfg = scenario(trader_rate=3.0, arb_enabled=True, horizon=60, epoch_len=6)
        eng = Engine(cfg)
        art = eng.run()
        assert not art.summary["halted"]
        assert eng.total_v_s_units == (
            eng.total_v_prime_units + eng.total_rp_units + eng.total_fee_units
        )
        assert eng.total_fee_units == (
            eng.reserve.cum_xi_units + eng.rewards.total_units()
        )
        assert sum(eng.sheet.rr_units.values()) == (
            eng.total_rp_units + eng.reserve.cum_upsilon_units
        )
        assert eng.reserve.balance_units == (
            eng.reserve.cum_xi_units - eng.reserve.cum_upsilon_units
        )
        assert sum(eng.sheet.t_units.values()) == 0
        assert eng._vault_units() - eng.initial_vault_units == (
            eng.vault_external_units - eng.hedge_pnl_units
        )
        # every record the identities compare moved during the run
        assert eng.reserve.cum_xi_units > 0 and eng.rewards.total_units() > 0
        assert eng.hedge_pnl_units != 0

    def test_ledger_replay_matches_engine_sheet(self):
        cfg = scenario(trader_rate=2.0, horizon=40)
        eng = Engine(cfg)
        eng.run()
        replayed = BalanceSheet.replay(eng.sheet.log)
        assert replayed.balances() == eng.sheet.balances()

    def test_capacity_honesty(self):
        # tiny vaults: trades must never push open inventory past capacity
        cfg = scenario(
            trader_rate=4.0,
            horizon=50,
            assets=(
                asset("X", c_long=200.0, c_short=150.0),
                asset("Y", c_long=200.0, c_short=150.0),
            ),
        )
        eng = Engine(cfg)

        seen_reject = False
        for _ in range(cfg.horizon):
            eng.step_timestep()
            for aid in eng.sheet.asset_ids():
                pool = eng.sheet.pools[aid]
                vp = eng.vaults[aid]
                surplus = pool.inventory - pool.lp_inventory
                deficit = -surplus
                assert surplus <= vp.long.capacity() + 1e-6
                assert deficit <= min(pool.lp_inventory, vp.short.capacity()) + 1e-6
            seen_reject = seen_reject or eng.rejected > 0
        assert seen_reject, "scenario should have stressed the caps"

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_capacity_honesty_across_seeds(self, seed):
        cfg = scenario(
            trader_rate=4.0,
            horizon=50,
            seed=seed,
            assets=(
                asset("X", c_long=200.0, c_short=150.0),
                asset("Y", c_long=200.0, c_short=150.0),
            ),
        )
        eng = Engine(cfg)
        for _ in range(cfg.horizon):
            eng.step_timestep()
            for aid in eng.sheet.asset_ids():
                pool = eng.sheet.pools[aid]
                vp = eng.vaults[aid]
                surplus = pool.inventory - pool.lp_inventory
                assert surplus <= vp.long.capacity() + 1e-6
                assert -surplus <= min(pool.lp_inventory, vp.short.capacity()) + 1e-6
        assert eng.rejected > 0, "scenario should have stressed the caps"
        assert BalanceSheet.replay(eng.sheet.log).balances() == eng.sheet.balances()


class TestPremiumReserve:
    """The trade gate holds back the premium debit of the next boundary."""

    def cfg(self, c_short):
        # fixed params: cover pinned (d_min == d_max), auction off
        return scenario(
            scripted_trades=((1, "X", "Y", 2.0),),
            assets=(asset("X"), asset("Y", mid_price=1.0, c_short=c_short)),
            horizon=5,
            epoch_len=5,
            d_min=0.01,
            d_max=0.01,
            auction_enabled=False,
        )

    def quote(self, eng, vaults):
        return quote_swap(
            "X", "Y", 2.0, eng.sheet, eng.curves, eng.params, eng.cfg.theta,
            vaults_by_asset=vaults,
        )

    # The trade owes a ~61.6 debit at the boundary and leaves a ~76 deficit:
    # with 80 of collateral (80 - 61.6) / 0.5 is below the deficit; with
    # 60 the debit would take all of the collateral.
    @pytest.mark.parametrize("c_short", [80.0, 60.0])
    def test_debit_leaving_too_little_collateral_rejects(self, c_short):
        eng = Engine(self.cfg(c_short))
        # behind vaults whose collateral never binds, the same quote's
        # deficit fits in the capacity c / 0.5
        quote = self.quote(eng, Engine(self.cfg(c_short=1e9)).vaults)
        pool = eng.sheet.pools["Y"]
        deficit_after = pool.lp_inventory - (pool.inventory - quote.v_out)
        assert deficit_after < c_short / 0.5
        t_out_after = eng.sheet.t_units["Y"] + quote.v_prime_units
        assert covering_side(0, t_out_after) == SHORT
        flow = boundary_premium_flow(0, t_out_after, eng.params["Y"])
        assert (c_short - from_units(-flow)) / 0.5 < deficit_after
        with pytest.raises(ExceedsCapacity):
            self.quote(eng, eng.vaults)
        eng.step_timestep()
        assert trade_rows(eng.logs["ledger"], {}) == [] and eng.rejected == 1

    def test_debit_within_reserve_fills_and_keeps_vault(self):
        eng = Engine(self.cfg(c_short=200.0))
        eng.step_timestep()
        assert len(trade_rows(eng.logs["ledger"], {})) == 1
        t_open, t_now = eng.vaults["Y"].t_open_units, eng.sheet.t_units["Y"]
        flow = boundary_premium_flow(t_open, t_now, eng.params["Y"])
        assert covering_side(t_open, t_now) == SHORT and flow < 0
        reserve_units = -flow
        for _ in range(4):
            eng.step_timestep()  # t=5 is the epoch boundary
        (row,) = [r for r in eng.logs["vaults"] if r[1] == "Y" and r[2] == SHORT]
        debit_units = -to_units(row[4])
        assert 0 < debit_units <= reserve_units
        vault = eng.vaults["Y"].short
        assert not vault.liquidated and eng.liquidations == 0
        pool = eng.sheet.pools["Y"]
        assert pool.lp_inventory - pool.inventory <= vault.capacity()


class TestAuctionRecords:
    def test_each_move_books_one_upsilon_and_one_rr_adjust(self):
        # a flow-shaped run with low thresholds, so breaches resolve fast
        # as well as expire
        cfg = dataclasses.replace(
            load_config(DEMO), horizon=300, trader_rate=8.0,
            theta0=0.05, theta_star=0.1, theta_dagger=0.2,
        )
        logs = Engine(cfg).run().logs
        moves = logs["auction"]
        upsilons = [r for r in logs["treasury"] if r[1] == "upsilon"]
        adjusts = [r for r in logs["ledger"] if r[1] == "rr_adjust" and r[11] == "auction"]
        assert len(moves) == len(upsilons) == len(adjusts)
        assert any(m[7] > m[6] for m in moves) and any(m[7] < m[6] for m in moves)
        for move, ups, adj in zip(moves, upsilons, adjusts):
            assert move[0] == ups[0] == adj[0] and move[1] == ups[2] == adj[2]
            units = adj[8]
            assert ups[3] == from_units(units)
            if move[7] > move[6]:
                assert units >= 0
            elif move[7] < move[6]:
                assert units <= 0


class TestArbitrageLoop:
    def shock_cfg(self, **kw):
        defaults = dict(
            horizon=20,
            epoch_len=5,
            theta=0.0,
            xi=0.0,
            d_min=0.0005,
            d_max=0.0005,
            a_init=5.0,
            a_min=1.0,
            auction_enabled=False,
            arb_enabled=True,
            arb_fixed_cost=0.0,
            arb_max_exposure=100000.0,
            scripted_trades=((2, "X", "Y", 300.0),),
            assets=(asset("X"), asset("Y")),
        )
        defaults.update(kw)
        return scenario(**defaults)

    def test_arbitrage_closes_imbalance(self):
        eng = Engine(self.shock_cfg())
        eng.run()
        # the zero-cost arbitrageur walks both flows back toward zero
        assert abs(from_units(eng.sheet.t_units["X"])) < 1.0
        assert abs(from_units(eng.sheet.t_units["Y"])) < 1.0
        # the script fills once, at t=2, and no trader flows, so every
        # later fill is the arbitrageur's
        fills = trade_rows(eng.logs["ledger"], {})
        assert [row[0] for row in fills][:1] == [2]
        assert len(fills) > 1

    def test_flow_nonincreasing_after_shock(self):
        eng = Engine(self.shock_cfg())
        worst = []
        for _ in range(20):
            eng.step_timestep()
            worst.append(
                max(abs(from_units(t)) for t in eng.sheet.t_units.values())
            )
        after_shock = worst[2:]
        for a, b in zip(after_shock, after_shock[1:]):
            assert b <= a + 1e-9


@st.composite
def zero_sum_flows(draw):
    """Integer flows over 2-6 assets that sum to zero, with ties and zeros."""
    n = draw(st.integers(2, 6))
    ids = draw(st.permutations(["A", "B", "C", "D", "E", "F"]))[:n]
    unit = st.one_of(
        st.just(0), st.integers(-10**3, 10**3), st.integers(-10**20, 10**20)
    )
    units = draw(st.lists(unit, min_size=n - 1, max_size=n - 1))
    return dict(zip(ids, units + [-sum(units)]))


rebalance_params = st.builds(
    RebalanceParams,
    a_rhs=st.floats(0.0, 50.0),
    a_lhs=st.floats(0.0, 50.0),
    d_rhs=st.floats(0.0, 0.05),
    d_lhs=st.floats(0.0, 0.05),
)


@given(
    flows=zero_sum_flows(),
    params=st.lists(rebalance_params, min_size=6, max_size=6),
    theta=st.floats(0.0, 0.5),
    fixed_cost=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
    max_exposure=st.floats(1e-6, 1e9),
)
@settings(max_examples=400)
def test_arbitrageur_identical_to_reference(flows, params, theta, fixed_cost, max_exposure):
    by_asset = dict(zip(sorted(flows), params))
    new = ArbitrageurAgent(fixed_cost, max_exposure).decide(flows, by_asset, theta)
    ref = oracles.ArbitrageurAgent(fixed_cost, max_exposure).decide(flows, by_asset, theta)
    assert repr(new) == repr(ref)


@pytest.fixture(scope="module")
def calm_states() -> list:
    """Ten engines between timesteps of demo.ini (the ``calm`` workload's
    scenario, shortened), one every 6 steps, with drained logs."""
    engine = Engine(load_config(DEMO))
    states = []
    for t in range(1, 61):
        engine.step_timestep()
        for rows in engine.logs.values():
            rows.clear()
        if t % 6 == 0:
            states.append(copy.deepcopy(engine))
    return states


@given(state=st.integers(0, 9), forward=st.booleans(), v_in=st.floats(10.0, 60.0))
@settings(max_examples=100)
def test_split_swap_matches_whole_swap(calm_states, state, forward, v_in):
    """A swap and the same swap made in two halves in one timestep agree:
    summed V', premium and fee within 3 ledger units, v_out within 1e-14.

    The sizes span the traders' larger draws. Below 10 units a one-unit
    rounding of V' exceeds 1e-14 of v_out; above 60, float64 rounding of
    the premium on trades worth over 10^16 units exceeds 3 units.
    """
    ids = calm_states[state].sheet.asset_ids()
    a_in, a_out = ids if forward else ids[::-1]
    whole = copy.deepcopy(calm_states[state]).submit_trade(a_in, a_out, v_in, "trader")
    halves = copy.deepcopy(calm_states[state])
    first = halves.submit_trade(a_in, a_out, v_in / 2, "trader")
    second = halves.submit_trade(a_in, a_out, v_in - v_in / 2, "trader")
    for field in ("v_prime_units", "fee_units"):
        assert abs(getattr(whole, field) - getattr(first, field) - getattr(second, field)) <= 3
    premium = [q.rp_in_units + q.rp_out_units for q in (whole, first, second)]
    assert abs(premium[0] - premium[1] - premium[2]) <= 3
    assert first.v_out + second.v_out == pytest.approx(whole.v_out, rel=1e-14, abs=0)


def demo_ini(tmp_path, overrides: dict) -> Path:
    """demo.ini with ``overrides`` ({section: {key: value}}) written to tmp_path."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(DEMO, encoding="utf-8")
    for section, values in overrides.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, value in values.items():
            parser.set(section, key, str(value))
    path = tmp_path / "scenario.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


class TestFailStop:
    def test_out_of_domain_halts_with_exit_3_and_logs(self, tmp_path, capsys):
        ini = demo_ini(
            tmp_path,
            {
                "engine": {"clamp_extrapolation": "false"},
                "traders": {"rate": 8},
                "run": {"horizon": 400},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["run", str(ini), "--out", str(out)]) == cli.EXIT_BREACH
        summary = json.loads((out / "summary.json").read_text())
        assert summary["halted"]
        t = summary["timesteps"]
        assert 0 < t < 400
        assert summary["diagnostic"].startswith(f"OutOfDomain at t={t}: v=")
        assert "OutOfDomain" in capsys.readouterr().err.strip().splitlines()[-1]
        # no final margin is valued after a halt; the timesteps' minimum is
        assert summary["solvency_margin"] is None
        assert isinstance(summary["min_solvency_margin"], float)
        manifest = json.loads((out / "manifest.json").read_text())
        rows = {f["name"]: f["rows"] for f in manifest["files"]}
        assert rows["trades.csv"] == summary["fills"] > 0
        assert rows["metrics.csv"] > 0

    def test_first_refit_error_halts_with_exit_3(self, tmp_path, capsys, monkeypatch):
        # an engine error in the first refit, in Engine.__init__
        def failing_fit(*args, **kwargs):
            raise BadCurve("normal equations singular")

        monkeypatch.setattr("dfmm.sim.market.fit_eldf", failing_fit)
        out = tmp_path / "out"
        assert cli.main(["run", str(DEMO), "--out", str(out)]) == cli.EXIT_BREACH
        diagnostic = "BadCurve at t=0: normal equations singular"
        err = capsys.readouterr().err
        assert err == f"run halted: {diagnostic}\n"  # no traceback
        summary = json.loads((out / "summary.json").read_text())
        assert summary["halted"] and summary["timesteps"] == 0
        assert summary["diagnostic"] == diagnostic
        manifest = json.loads((out / "manifest.json").read_text())
        assert {f["name"] for f in manifest["files"]} >= {"summary.json", "trades.csv"}

    def test_final_margin_error_halts_with_exit_3(self, tmp_path, capsys):
        # horizon 0 and no clamping: valuing A's 1000 of inventory on a
        # curve only 100 deep, for the summary's final margin, is out of
        # domain before any timestep runs
        ini = tmp_path / "scenario.ini"
        ini.write_text(
            "[run]\nhorizon = 0\n[engine]\nclamp_extrapolation = false\n"
            "[asset.A]\ndepth = 100\ndeposit = 1000\n[asset.B]\n"
        )
        assert cli.main(["validate", str(ini)]) == cli.EXIT_OK
        out = tmp_path / "out"
        assert cli.main(["run", str(ini), "--out", str(out)]) == cli.EXIT_BREACH
        err = capsys.readouterr().err
        assert err.startswith("run halted: OutOfDomain at t=0: ")
        assert err.count("\n") == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["halted"] and summary["timesteps"] == 0
        # neither a final margin nor a timestep's margin was computed
        assert summary["solvency_margin"] is None
        assert summary["min_solvency_margin"] is None

    def test_oversized_queued_withdrawal_halts(self):
        cfg = scenario(
            scripted_trades=((1, "X", "Y", 25.0),),
            assets=(asset("X"), asset("Y", c_short=1500.0)),
        )
        eng = Engine(cfg)
        eng.queue_vault_flow("Y", "short", -2000.0)
        art = eng.run()
        assert art.summary["halted"]
        assert art.summary["timesteps"] == cfg.epoch_len
        assert art.summary["diagnostic"].startswith(
            f"BadParams at t={cfg.epoch_len}: vault withdrawal"
        )
        assert len(trade_rows(art.logs["ledger"], {})) == 1
        assert art.logs["metrics"]


class TestDeterministicOutput:
    def test_two_demo_runs_write_identical_files(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert cli.main(["run", str(DEMO), "--out", str(out)]) == cli.EXIT_OK
        names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
        assert "summary.json" in names and "trades.csv" in names
        assert names == sorted(p.name for p in outs[1].iterdir() if p.name != "manifest.json")
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        summary = json.loads((outs[0] / "summary.json").read_text())
        assert "duration_seconds" not in summary
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert manifest["duration_seconds"] >= 0.0

    def test_manifest_reports_phase_seconds(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", str(DEMO), "--out", str(out)]) == cli.EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        perf = manifest["perf"]
        assert sorted(perf) == sorted(PHASES) and len(PHASES) == 9
        assert all(seconds >= 0.0 for seconds in perf.values())
        assert perf["refit"] > 0.0 and perf["traders"] > 0.0
        assert sum(perf.values()) <= manifest["duration_seconds"]

    def test_artifacts_without_perf_write_an_empty_perf(self, tmp_path):
        art = RunArtifacts(logs={}, summary={}, config=scenario())
        assert art.perf == {}
        assert write_logs(art, tmp_path, LogWriter(tmp_path))["perf"] == {}

    # SHA-256 over the seven CSVs below and summary.json, in name order,
    # each as name, NUL, bytes, NUL. A refactor that keeps the outputs
    # keeps these; ledger.csv is pinned on its own in GOLDEN_LEDGER.
    GOLDEN_FILES = (
        "auction.csv", "curves.csv", "metrics.csv", "rewards.csv", "summary.json",
        "trades.csv", "treasury.csv", "vaults.csv",
    )
    GOLDEN = {
        "demo": "a0d29c6856a2af6a96cef9911a61d6059bfd32f6958784efb957155e18457c12",
        "busy": "e6b14d74e280715cff17a5646fc3a12bf9eeb225d6784ed92871e213787c3ead",
        "three": "4ab63e388248395dc7edd43fd984355f11c72df7bcdb522f66b1553de7c3279c",
    }
    GOLDEN_LEDGER = {
        "demo": "16f87e0c96557cd925b47f8423a661308fea820d693631290d3608a12b72e047",
        "busy": "a0e81a982223d02b107f2c0056236f33b95a0f3b3658bcb0e991bec146102f8b",
        "three": "d1ddb4ecc7fa0f130cee8c034c7d44fefa08d7b3419a988a7f52a064f4a764c1",
    }
    GAMMA = {
        "mid_price": 20.0,
        "sigma": 0.01,
        "depth": 3000.0,
        "deposit": 2500.0,
        "c_long": 80000.0,
        "c_short": 80000.0,
    }

    @pytest.mark.parametrize(
        "name,overrides",
        [
            ("demo", {}),
            ("busy", {"traders": {"rate": 8.0}, "run": {"horizon": 300}}),
            # three assets with the arbitrageur on: it fills every step,
            # across all six ordered pairs
            (
                "three",
                {"asset.GAMMA": GAMMA, "traders": {"rate": 3.0}, "run": {"horizon": 200}},
            ),
        ],
    )
    def test_golden_digest(self, tmp_path, name, overrides):
        ini = demo_ini(tmp_path, overrides)
        out = tmp_path / "out"
        assert cli.main(["run", str(ini), "--out", str(out)]) == cli.EXIT_OK
        digest = hashlib.sha256()
        for file_name in self.GOLDEN_FILES:
            digest.update(file_name.encode() + b"\0" + (out / file_name).read_bytes() + b"\0")
        assert digest.hexdigest() == self.GOLDEN[name]
        ledger = hashlib.sha256((out / "ledger.csv").read_bytes()).hexdigest()
        assert ledger == self.GOLDEN_LEDGER[name]

    def test_uncached_refits_give_identical_run(self, monkeypatch):
        cfg = load_config(DEMO)
        cached = Engine(cfg).run()
        fit = eldf.fit_eldf

        def fit_uncached(*args, **kwargs):
            eldf._design.cache_clear()
            return fit(*args, **kwargs)

        monkeypatch.setattr("dfmm.sim.market.fit_eldf", fit_uncached)
        uncached = Engine(cfg).run()
        assert eldf._design.cache_info().hits == 0
        assert uncached.logs == cached.logs
        assert uncached.summary == cached.summary

    def test_solvency_checked_once_per_timestep(self, monkeypatch):
        from dfmm.sim import engine as engine_mod

        calls = []
        check = engine_mod.solvency_check

        def counting(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "solvency_check", counting)
        cfg = scenario(trader_rate=1.5, arb_enabled=True, horizon=40)
        art = Engine(cfg).run()
        assert not art.summary["halted"]
        # one per timestep's metrics, one for the summary's final margin
        assert len(calls) == art.summary["timesteps"] + 1 == 41


@pytest.mark.parametrize("n_assets", [2, 6])
@pytest.mark.parametrize("seed,rate", [(1, 0.8), (7, 8.0), (42, 3.0)])
def test_arrivals_identical_to_reference(n_assets, seed, rate):
    cfg = scenario(trader_rate=rate)
    ids = [f"A{i}" for i in range(n_assets)][::-1]
    new = TraderFlow(cfg, np.random.default_rng(seed))
    ref = oracles.TraderFlow(cfg, np.random.default_rng(seed))
    for _ in range(50):
        assert repr(new.arrivals(ids)) == repr(ref.arrivals(ids))
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state


class TestLogWriter:
    @staticmethod
    def reference_row(row):
        """A row as the writer rendered it before: repr for a float, str
        for anything else."""
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"

    def write(self, tmp_path, rows):
        logs = {"metrics": rows}
        art = RunArtifacts(logs=logs, summary={}, config=scenario())
        write_logs(art, tmp_path, LogWriter(tmp_path))
        return (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines(True)[2:]

    def test_rows_render_as_before(self, tmp_path):
        floats = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-300, 1e22, 0.1, -2.5e-7, 3.0]
        rows = [
            (t, kind, flag, value)
            for t, (kind, flag, value) in enumerate(
                zip(["mid", "il", "x,y"] * 4, [True, False, 7, "s"] * 3, floats)
            )
        ]
        rows.append((-(10**30), "", None, 12345678901234567890))
        lines = self.write(tmp_path, rows)
        assert lines == [self.reference_row(row) for row in rows]

    def test_numpy_scalars_are_refused(self, tmp_path):
        # marshal sends a numpy scalar as raw bytes, which the writer
        # refuses to format rather than writing b'...' into the file
        writer = LogWriter(tmp_path)
        writer.write({"metrics": [(np.int64(3), "mid", "X", np.float64(0.1))]})
        pid = writer._proc.pid
        with pytest.raises(OSError, match="refused a metrics row"):
            writer.close()
        with pytest.raises(ChildProcessError):  # the writer process is reaped
            os.waitpid(pid, os.WNOHANG)


class TestPlainRows:
    """Every value the engine logs is an int, float, str, bool or None,
    the types marshal sends as themselves; the writer refuses the rest."""

    PLAIN = (int, float, str, bool, type(None))

    @staticmethod
    def wide(cfg):
        """The benchmark's ``wide`` shape: three scaled copies of each asset."""
        assets = tuple(
            dataclasses.replace(
                a, asset_id=f"{a.asset_id}{i}", mid_price=a.mid_price * m, sigma=a.sigma * s
            )
            for a in cfg.assets
            for i, (m, s) in enumerate(((1.0, 1.0), (2.0, 0.75), (0.5, 1.5)), start=1)
        )
        return dataclasses.replace(cfg, slot_len=5, epoch_len=1, trader_rate=3.0, assets=assets)

    @pytest.mark.parametrize("shape", ["calm", "flow", "wide", "halts"])
    def test_every_drained_value_is_plain(self, monkeypatch, shape):
        monkeypatch.setattr(engine_mod, "DRAIN_ROWS", 500)
        demo = dataclasses.replace(load_config(DEMO), horizon=100)
        cfg = {
            "calm": dataclasses.replace(demo, trader_rate=0.8),
            "flow": dataclasses.replace(demo, trader_rate=8.0),
            "wide": self.wide(demo),
            "halts": dataclasses.replace(
                demo, horizon=400, trader_rate=8.0, clamp_extrapolation=False
            ),
        }[shape]
        types, t_units, batches = {}, {}, []

        def census(logs):  # one batch as LogWriter.write sends it
            batches.append(sum(map(len, logs.values())))
            for kind, rows in {**logs, "trades": trade_rows(logs["ledger"], t_units)}.items():
                for row in rows:
                    assert len(row) == len(SCHEMAS[kind]), (kind, row)
                    for v in row:
                        types.setdefault(type(v), (kind, row))

        art = Engine(cfg).run(census)
        census(art.logs)
        assert art.summary["halted"] == (shape == "halts")
        assert len(batches) > 2  # drains during the run, then the last write
        assert {int, float, str} <= types.keys()
        assert all(t in self.PLAIN for t in types), types


class TestDrain:
    def test_drains_hold_the_budget_and_join_to_the_kept_logs(self):
        cfg = scenario(trader_rate=8.0, horizon=300)
        kept = Engine(cfg).run()

        eng = Engine(cfg)
        step = eng.step_timestep
        step_rows = []

        def counted_step():
            before = sum(map(len, eng.logs.values()))
            step()
            step_rows.append(sum(map(len, eng.logs.values())) - before)

        eng.step_timestep = counted_step
        drained = {kind: [] for kind in eng.logs}
        sizes = []

        def record(logs):
            n = sum(map(len, logs.values()))
            assert engine_mod.DRAIN_ROWS <= n < engine_mod.DRAIN_ROWS + step_rows[-1]
            sizes.append(n)
            for kind, rows in logs.items():
                drained[kind] += rows

        streamed = eng.run(record)
        assert len(sizes) >= 2  # about 40 rows a timestep
        assert streamed.summary == kept.summary
        assert sum(map(len, streamed.logs.values())) < engine_mod.DRAIN_ROWS + len(
            kept.logs["rewards"]
        )
        # the joined kinds include the sheet's ledger rows, most of them drained
        assert {k: drained[k] + streamed.logs[k] for k in drained} == kept.logs
        assert len(drained["ledger"]) > len(streamed.logs["ledger"]) > 0

    def test_drain_error_ends_the_run(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "DRAIN_ROWS", 10)

        def full(logs):
            raise OSError(28, "No space left on device")

        eng = Engine(scenario(trader_rate=1.0))
        with pytest.raises(OSError):
            eng.run(full)
        assert eng.t == 1 and not eng.halted


class TestTradesView:
    """trades.csv is rendered from the ledger's trade rows: each rendered
    row equals the row the engine built for the fill before."""

    @staticmethod
    def record_fills(eng):
        """Wrap ``eng.submit_trade``; returns the oracle row and the agent
        of each fill, in order."""
        rows, agents = [], []
        submit = eng.submit_trade

        def recorded(asset_in, asset_out, v_in, agent):
            quote = submit(asset_in, asset_out, v_in, agent)
            if quote is not None:
                t_units = eng.sheet.t_units
                t_after = (t_units[asset_in], t_units[asset_out])
                pair = f"{asset_in}->{asset_out}"
                rows.append(oracles.trade_row(eng.t, pair, quote, v_in, t_after))
                agents.append(agent)
            return quote

        eng.submit_trade = recorded
        return rows, agents

    def test_view_equals_the_row_each_fill_built(self):
        cfg = scenario(
            trader_rate=1.5,
            arb_enabled=True,
            horizon=40,
            scripted_trades=((3, "X", "Y", 25.0), (9, "Y", "X", 40.0)),
        )
        eng = Engine(cfg)
        rows, agents = self.record_fills(eng)
        art = eng.run()
        assert not art.summary["halted"]
        assert {"trader", "script", "arb"} <= set(agents)
        assert len(rows) == art.summary["fills"]
        assert repr(trade_rows(art.logs["ledger"], {})) == repr(rows)

    def test_view_equals_the_rows_of_a_halted_run(self):
        # the withdrawal halts the run at the first boundary, after that
        # timestep's traders filled
        cfg = scenario(trader_rate=2.0, assets=(asset("X"), asset("Y", c_short=1500.0)))
        eng = Engine(cfg)
        eng.queue_vault_flow("Y", "short", -2000.0)
        rows, _ = self.record_fills(eng)
        art = eng.run()
        assert art.summary["halted"] and art.summary["timesteps"] == cfg.epoch_len
        assert rows and rows[-1][0] == cfg.epoch_len
        assert repr(trade_rows(art.logs["ledger"], {})) == repr(rows)

    def test_drained_batches_render_as_one(self, monkeypatch):
        # one dict carries the flows T from each drain to the next
        monkeypatch.setattr(engine_mod, "DRAIN_ROWS", 50)
        eng = Engine(scenario(trader_rate=8.0, arb_enabled=True, horizon=60))
        batches = []
        art = eng.run(lambda logs: batches.append(list(logs["ledger"])))
        batches.append(art.logs["ledger"])
        assert len(batches) > 5
        t_units = {}
        rendered = [row for batch in batches for row in trade_rows(batch, t_units)]
        whole = trade_rows([row for batch in batches for row in batch], {})
        assert len(whole) == art.summary["fills"]
        assert rendered == whole
        assert t_units == eng.sheet.t_units
