import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dfmm import pricing
from dfmm.eldf import AssetCurves, Eldf
from dfmm.errors import (
    ExceedsCapacity,
    InsufficientInventory,
    NoFeasibleSolution,
    NonFiniteAmount,
)
from dfmm.ledger import BalanceSheet
from dfmm.money import from_units, to_units
from dfmm.pricing import (
    _commit_notional,
    RebalanceParams,
    execute_swap,
    premium_fn,
    premium_units,
    quote_swap,
    rp_delta,
    solve_adjusted_notional,
)
from dfmm.vaults import LONG, SHORT, Vault, VaultPair
import oracles
from oracles import balance_residual, bisect_adjusted_notional, exact_adjusted_notional
from test_eldf import outcome

P_STD = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.1, d_lhs=0.1)
P_ZERO = RebalanceParams(a_rhs=0.0, a_lhs=0.0, d_rhs=0.0, d_lhs=0.0)
P_UNIT_D = RebalanceParams(a_rhs=0.0, a_lhs=0.0, d_rhs=1.0, d_lhs=1.0)


UNIT = Eldf(0.0, 0.0, 1.0, v_lo=0.0, v_hi=100_000.0)


def make_env(t_x=0.0, t_y=0.0, params=P_ZERO, theta=0.0, deposit=10_000.0):
    sheet = BalanceSheet()
    sheet.deposit_plp("X", deposit)
    sheet.deposit_plp("Y", deposit)
    sheet.t_units["X"] = to_units(t_x)
    sheet.t_units["Y"] = to_units(t_y)
    curves = {
        "X": AssetCurves(UNIT, UNIT),
        "Y": AssetCurves(UNIT, UNIT),
    }
    params_by_asset = {"X": params, "Y": params}
    return sheet, curves, params_by_asset, theta


def vaults(c_long_x=5e5, c_short_y=5e5):
    """Vault pairs for X and Y; the defaults cover 1e6 of open inventory
    on every side, which no quote here comes near."""
    return {
        aid: VaultPair(
            long=Vault(aid, LONG, to_units(c_long), 0.5, 0),
            short=Vault(aid, SHORT, to_units(c_short), 0.5, 0),
        )
        for aid, c_long, c_short in (("X", c_long_x, 5e5), ("Y", 5e5, c_short_y))
    }


class TestPremiumFn:
    def test_zero_flow(self):
        assert premium_fn(0.0, P_STD) == 0.0

    def test_rhs(self):
        assert premium_fn(10.0, P_STD) == pytest.approx(15.0)

    def test_lhs_mirror(self):
        assert premium_fn(-10.0, P_STD) == pytest.approx(15.0)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(500)        :
            p = RebalanceParams(
                a_rhs=float(rng.uniform(0, 20)),
                a_lhs=float(rng.uniform(0, 20)),
                d_rhs=float(rng.uniform(0, 1)),
                d_lhs=float(rng.uniform(0, 1)),
            )
            t = float(rng.uniform(-100, 100))
            assert premium_fn(t, p) >= 0.0

    def test_convexity_both_branches(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = RebalanceParams(
                a_rhs=float(rng.uniform(0, 20)),
                a_lhs=float(rng.uniform(0, 20)),
                d_rhs=float(rng.uniform(1e-6, 1)),
                d_lhs=float(rng.uniform(1e-6, 1)),
            )
            for sign in (1.0, -1.0):
                t1, t2, t3 = sorted(rng.uniform(0, 50, size=3))
                vals = [premium_fn(sign * t, p) for t in (t1, t2, t3)]
                if t2 - t1 > 1e-9 and t3 - t2 > 1e-9:
                    slope_lo = (vals[1] - vals[0]) / (t2 - t1)
                    slope_hi = (vals[2] - vals[1]) / (t3 - t2)
                    assert slope_hi >= slope_lo - 1e-9


class TestRpDelta:
    def test_no_move(self):
        assert rp_delta(7.0, 7.0, P_STD) == 0.0

    def test_growing_imbalance_costs(self):
        assert rp_delta(5.0, 10.0, P_STD) == pytest.approx(10.0)

    def test_sign_crossing(self):
        assert rp_delta(2.0, -3.0, P_STD) == pytest.approx(1.0)

    def test_shrinking_imbalance_rebates(self):
        assert rp_delta(10.0, 5.0, P_STD) == pytest.approx(-10.0)


class TestNotionalSolver:
    def test_identity_no_premium_no_fee(self):
        assert solve_adjusted_notional(10.0, 0.0, 0.0, P_ZERO, P_ZERO, 0.0) == 10.0

    def test_fee_only(self):
        assert solve_adjusted_notional(10.0, 0.0, 0.0, P_ZERO, P_ZERO, 0.1) == pytest.approx(9.0)

    def test_hand_case(self):
        v = solve_adjusted_notional(10.0, 0.0, 0.0, P_UNIT_D, P_UNIT_D, 0.0)
        assert v == pytest.approx(2.0, abs=1e-12)

    def test_boundary_closed_form(self):
        # root exactly where the out-leg flow crosses zero
        p = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.01, d_lhs=0.01)
        t_out = -7.0
        b = 7.0
        v_s_star = b + rp_delta(3.0, 3.0 - b, p) + rp_delta(t_out, 0.0, p)
        assert v_s_star > 0
        v = solve_adjusted_notional(v_s_star, 3.0, t_out, p, p, 0.0)
        assert v == pytest.approx(b, abs=1e-9)

    def test_branch_continuity(self):
        p = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=0.01, d_lhs=0.01)
        t_in, t_out = 4.0, -6.0
        for b in (4.0, 6.0):
            v_s_star = (
                b + rp_delta(t_in, t_in - b, p) + rp_delta(t_out, t_out + b, p)
            )
            assert v_s_star > 0
            eps = 1e-7
            lo = solve_adjusted_notional(v_s_star - eps, t_in, t_out, p, p, 0.0)
            hi = solve_adjusted_notional(v_s_star + eps, t_in, t_out, p, p, 0.0)
            assert abs(hi - lo) < 1e-5

    @pytest.mark.parametrize("sign_in,sign_out", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_oracle_agreement_all_branches(self, sign_in, sign_out):
        rng = np.random.default_rng(41 + sign_in + 2 * sign_out)
        for _ in range(25):
            t_in = sign_in * float(rng.uniform(0.5, 50.0))
            t_out = sign_out * float(rng.uniform(0.5, 50.0))
            params_in = RebalanceParams(
                a_rhs=float(rng.uniform(0, 10)),
                a_lhs=float(rng.uniform(0, 10)),
                d_rhs=float(rng.uniform(0, 0.05)),
                d_lhs=float(rng.uniform(0, 0.05)),
            )
            params_out = RebalanceParams(
                a_rhs=float(rng.uniform(0, 10)),
                a_lhs=float(rng.uniform(0, 10)),
                d_rhs=float(rng.uniform(0, 0.05)),
                d_lhs=float(rng.uniform(0, 0.05)),
            )
            theta = float(rng.choice([0.0, 0.003, 0.1]))
            v_s = float(rng.uniform(0.1, 100.0))
            fast = solve_adjusted_notional(v_s, t_in, t_out, params_in, params_out, theta)
            slow = bisect_adjusted_notional(v_s, t_in, t_out, params_in, params_out, theta)
            scale = max(1.0, v_s, abs(t_in), abs(t_out))
            assert abs(fast - slow) <= 1e-9 * scale
            assert abs(
                balance_residual(fast, v_s, t_in, t_out, params_in, params_out, theta)
            ) <= 1e-9 * scale

    @pytest.mark.parametrize("t0,v_s", [(1e6, 1e-12), (1e6, 1e-9), (1e6, 1e-6), (1e5, 1e-12)])
    def test_small_trade_at_large_flows(self, t0, v_s):
        # each leg's premium moves by ~2*t0*v; the two moves cancel to
        # about the root itself, which a float R(t0 + h) - R(t0) loses
        p_out = RebalanceParams(a_rhs=1.151, a_lhs=1.151, d_rhs=1.0, d_lhs=1.0)
        v = solve_adjusted_notional(v_s, t0, t0, P_UNIT_D, p_out, 0.0)
        exact = exact_adjusted_notional(v_s, t0, t0, P_UNIT_D, p_out, 0.0)
        assert v == pytest.approx(exact, rel=1e-9, abs=0.0)


class TestQuoteExecute:
    def test_identity_swap(self):
        sheet, curves, params, theta = make_env()
        quote = execute_swap(
            "X", "Y", 10.0, sheet, curves, params, theta, vaults_by_asset=vaults(), timestep=1
        )
        assert from_units(quote.v_s_units) == pytest.approx(10.0)
        assert from_units(quote.v_prime_units) == pytest.approx(10.0)
        assert from_units(quote.fee_units) == 0.0
        assert quote.v_out == pytest.approx(10.0)
        assert sheet.log[-1][:3] == (1, "trade", "X")
        assert from_units(sheet.t_units["X"]) == pytest.approx(-10.0)
        assert from_units(sheet.t_units["Y"]) == pytest.approx(10.0)
        assert sheet.pools["X"].inventory == pytest.approx(10_010.0)
        assert sheet.pools["Y"].inventory == pytest.approx(9_990.0)

    def test_fee_only_swap(self):
        sheet, curves, params, theta = make_env(theta=0.1)
        quote = execute_swap("X", "Y", 10.0, sheet, curves, params, theta, vaults_by_asset=vaults())
        assert quote.v_out == pytest.approx(9.0)
        assert from_units(quote.fee_units) == pytest.approx(1.0)

    def test_hand_case_quote(self):
        sheet, curves, params, theta = make_env(params=P_UNIT_D)
        quote = quote_swap("X", "Y", 10.0, sheet, curves, params, theta, vaults_by_asset=vaults())
        assert from_units(quote.v_prime_units) == pytest.approx(2.0)
        assert from_units(quote.rp_in_units) == pytest.approx(4.0, abs=1e-9)
        assert from_units(quote.rp_out_units) == pytest.approx(4.0, abs=1e-9)

    def test_balance_identity_exact(self):
        sheet, curves, params, theta = make_env(params=P_STD, theta=0.003)
        quote = quote_swap("X", "Y", 17.3, sheet, curves, params, theta, vaults_by_asset=vaults())
        assert (
            quote.v_prime_units
            + quote.rp_in_units
            + quote.rp_out_units
            + quote.fee_units
            == quote.v_s_units
        )

    def test_marks_advance_and_reset_matters(self):
        sheet, curves, params, theta = make_env()
        execute_swap("X", "Y", 10.0, sheet, curves, params, theta, vaults_by_asset=vaults())
        assert curves["X"].bid_mark == pytest.approx(10.0)
        assert curves["Y"].ask_mark == pytest.approx(10.0)

    def test_insufficient_inventory(self):
        sheet, curves, params, theta = make_env(deposit=5.0)
        for swap in (quote_swap, execute_swap):
            with pytest.raises(InsufficientInventory):
                swap("X", "Y", 50.0, sheet, curves, params, theta, vaults_by_asset=vaults())
        # the rejected swap committed nothing
        assert len(sheet.log) == 2 and curves["X"].bid_mark == curves["Y"].ask_mark == 0.0

    def test_capacity_limits(self):
        # small vaults cap X's surplus or Y's deficit at 5
        sheet, curves, params, theta = make_env()
        for gated in (vaults(2.5, 5e5), vaults(5e5, 2.5)):
            with pytest.raises(ExceedsCapacity):
                quote_swap("X", "Y", 50.0, sheet, curves, params, theta, vaults_by_asset=gated)
        quote = quote_swap(
            "X", "Y", 4.0, sheet, curves, params, theta, vaults_by_asset=vaults(2.5, 2.5)
        )
        assert quote.v_out == pytest.approx(4.0)

    def test_imbalance_monotonicity(self):
        # both legs' |T| strictly grow: total premium positive
        sheet, curves, params, theta = make_env(t_x=-5.0, t_y=5.0, params=P_STD)
        quote = quote_swap("X", "Y", 3.0, sheet, curves, params, theta, vaults_by_asset=vaults())
        assert quote.rp_in_units + quote.rp_out_units > 0
        # both legs' |T| strictly shrink: total premium negative
        sheet, curves, params, theta = make_env(t_x=50.0, t_y=-50.0, params=P_STD)
        quote = quote_swap("X", "Y", 3.0, sheet, curves, params, theta, vaults_by_asset=vaults())
        assert quote.rp_in_units + quote.rp_out_units < 0


class TestConservation:
    def test_value_conservation_random_trades(self):
        rng = np.random.default_rng(53)
        sheet, curves, params, theta = make_env(params=P_STD, theta=0.003, deposit=50_000.0)
        gate = vaults()
        total_vs = total_vp = total_rp = total_fee = 0
        for _ in range(500):
            a_in, a_out = ("X", "Y") if rng.integers(2) else ("Y", "X")
            v_in = float(rng.uniform(0.1, 20.0))
            quote = execute_swap(
                a_in, a_out, v_in, sheet, curves, params, theta, vaults_by_asset=gate
            )
            total_vs += quote.v_s_units
            total_vp += quote.v_prime_units
            total_rp += quote.rp_in_units + quote.rp_out_units
            total_fee += quote.fee_units
            assert (
                quote.v_prime_units
                + quote.rp_in_units
                + quote.rp_out_units
                + quote.fee_units
                == quote.v_s_units
            )
        assert total_vs == total_vp + total_rp + total_fee
        assert sum(sheet.rr_units.values()) == total_rp

    def test_neutrality_cycle_exact(self):
        """Shock then rebalance back to exactly zero flow: the premium
        reserve returns every unit it collected."""
        params = RebalanceParams(a_rhs=5.0, a_lhs=5.0, d_rhs=5e-5, d_lhs=5e-5)
        sheet, curves, params_by_asset, theta = make_env(params=params, deposit=100_000.0)
        env = (sheet, curves, params_by_asset, theta)
        gate = vaults()

        execute_swap("X", "Y", 40.0, *env, vaults_by_asset=gate)
        assert sheet.t_units["X"] < 0 < sheet.t_units["Y"]

        # unwind toward zero, then land the residual exactly
        for _ in range(50):
            t_y = sheet.t_units["Y"]
            if t_y == 0:
                break
            v_in = from_units(abs(t_y))
            if t_y > 0:
                execute_swap("Y", "X", v_in, *env, vaults_by_asset=gate)
            else:
                execute_swap("X", "Y", v_in, *env, vaults_by_asset=gate)
        assert sheet.t_units["X"] == 0
        assert sheet.t_units["Y"] == 0
        assert sheet.rr_units["X"] == 0
        assert sheet.rr_units["Y"] == 0

    def test_premium_units_telescopes(self):
        rng = np.random.default_rng(61)
        path = [0]
        for _ in range(100):
            path.append(int(rng.integers(-10**14, 10**14)))
        path.append(0)
        total = 0
        for prev, nxt in zip(path, path[1:]):
            total += premium_units(nxt, P_STD) - premium_units(prev, P_STD)
        assert total == 0


# signed ledger units of magnitude 10**0.5 .. 10**18 (a few units to 1e6 $)
_FLOW_UNITS = st.builds(
    lambda e, sign: sign * round(10.0**e), st.floats(0.5, 18.0), st.sampled_from([-1, 1])
)
_OFFSET = st.integers(-8, 8)
_A = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 50.0))
_D = st.one_of(st.just(0.0), st.floats(-7.0, 0.0).map(lambda e: 10.0**e))
_PARAMS = st.builds(RebalanceParams, a_rhs=_A, a_lhs=_A, d_rhs=_D, d_lhs=_D)
_THETA = st.one_of(st.just(0.0), st.just(0.003), st.floats(0.0, 0.99))


@st.composite
def commit_states(draw):
    """(p0, v_s, t_in0, t_out0, params_in, params_out, theta) in units.

    The notional p is drawn first and v_s is the gross notional that p
    balances; a leg's flow may sit within 8 units of p so that its T
    crosses zero near the committed notional. p0 is within 8 units of the
    solver's rounded root, which quote_swap passes.
    """
    p = abs(draw(_FLOW_UNITS))
    t_in0 = draw(_FLOW_UNITS) if draw(st.booleans()) else p + draw(_OFFSET)
    t_out0 = draw(_FLOW_UNITS) if draw(st.booleans()) else -p + draw(_OFFSET)
    params_in, params_out = draw(_PARAMS), draw(_PARAMS)
    theta = draw(_THETA)
    balance = (
        from_units(p)
        + premium_fn(from_units(t_in0 - p), params_in)
        - premium_fn(from_units(t_in0), params_in)
        + premium_fn(from_units(t_out0 + p), params_out)
        - premium_fn(from_units(t_out0), params_out)
    )
    v_s_units = to_units(balance / (1.0 - theta))
    if v_s_units <= 0:
        v_s_units = abs(draw(_FLOW_UNITS))
    try:
        root = solve_adjusted_notional(
            from_units(v_s_units),
            from_units(t_in0),
            from_units(t_out0),
            params_in,
            params_out,
            theta,
        )
    except NoFeasibleSolution:
        assume(False)
    p0 = max(0, to_units(root) + draw(_OFFSET))
    return p0, v_s_units, t_in0, t_out0, params_in, params_out, theta


# The in-leg's premium is 4.6e23 units, where float64 spacing is 2**26
# units, and both legs' premia after the trade are 0, so the fee falls one
# unit per unit of notional and the rounded root sits 10,231,808 units
# above the last notional with a nonnegative fee.
FAR_STEP_DOWN = (
    464160025436423976910848,
    999999999999991808,
    999999999999991815,
    -999999999999991800,
    RebalanceParams(0.3060916393901321, 45.48507912012991, 0.4641588833612779, 0.0),
    RebalanceParams(0.0, 46.125083091703104, 0.0, 0.0),
    0.0,
)


def counted_commit(state):
    """``_commit_notional`` at a ``commit_states`` state, and the number
    of ``premium_units`` calls it made."""
    calls = 0

    def counting(t_units, params):
        nonlocal calls
        calls += 1
        return premium_units(t_units, params)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pricing, "premium_units", counting)
        committed = _commit_notional(*state[:6])
    return committed, calls


class TestCommit:
    # Two states at the edge of float64 precision: one where each leg's
    # rounding to units moves the fee, and one with a premium near 4e19
    # units, where float spacing is 4096 units.
    @example(
        (
            6312165065410,
            89798880677111,
            77839937617748,
            -227232379154,
            RebalanceParams(
                39.532223085705226, 8.69991650763215, 0.0017876355450997222, 0.15009457031774698
            ),
            RebalanceParams(0.0, 20.462117193372293, 0.04426018579204115, 0.2708004013389143),
            0.949372077407556,
        )
    )
    @example(
        (
            383,
            255023,
            -111885972038274416,
            0,
            RebalanceParams(27.639310723091455, 43.004353539953286, 0.0, 0.002954570791002799),
            RebalanceParams(0.0, 38.00580468143938, 0.013251718331441835, 0.5459831057777595),
            0.003,
        )
    )
    @example(FAR_STEP_DOWN)
    @given(commit_states())
    @settings(max_examples=600)
    def test_commits_the_rounded_root_or_steps_down_to_a_nonnegative_fee(self, state):
        p0, v_s, t_in0, t_out0, params_in, params_out, _ = state
        r_in0 = premium_units(t_in0, params_in)
        r_out0 = premium_units(t_out0, params_out)

        def fee_at(p):
            return (
                v_s
                - p
                - (premium_units(t_in0 - p, params_in) - r_in0)
                - (premium_units(t_out0 + p, params_out) - r_out0)
            )

        (p, rp_in, rp_out, fee, r_in, r_out), calls = counted_commit(state)
        assert r_in == premium_units(t_in0 - p, params_in)
        assert r_out == premium_units(t_out0 + p, params_out)
        assert (rp_in, rp_out) == (r_in - r_in0, r_out - r_out0)
        assert p + rp_in + rp_out + fee == v_s
        assert fee >= 0 or p == 0
        if fee_at(p0) >= 0:
            assert p == p0
            assert calls == 4
        else:
            assert 0 <= p < p0
            assert fee_at(p + 1) < 0
            # gallop and bisection price O(log(p0 - p)) notionals
            assert calls <= 6 + 4 * (p0 - p - 1).bit_length()

    def test_far_step_down_commits_what_a_unit_walk_does_in_100_pricings(self):
        (p, _, _, fee, _, _), calls = counted_commit(FAR_STEP_DOWN)
        assert (p, fee) == (FAR_STEP_DOWN[0] - 10_231_808, 0)
        assert calls <= 100

    def test_premium_units_is_the_unit_rounding_of_premium_fn(self):
        rng = np.random.default_rng(71)
        for _ in range(2000):
            t = int(rng.integers(-10**18, 10**18)) // 10 ** int(rng.integers(0, 18))
            assert premium_units(t, P_STD) == to_units(premium_fn(from_units(t), P_STD))

    def test_premium_without_ledger_units_raises_as_to_units_does(self):
        # 1000^2 * 1e300 overflows to inf, which has no ledger units
        with pytest.raises(NonFiniteAmount, match="no ledger units"):
            premium_units(10**15, RebalanceParams(5.0, 5.0, 1e300, 1e300))


@st.composite
def solver_inputs(draw):
    """Arguments of ``solve_adjusted_notional``: flows on both sides of
    zero and at zero, a leg that crosses zero exactly at V' = v_s, both
    legs crossing at the same V', params with zero coefficients, and a
    few zero and negative gross notionals."""
    flow = st.one_of(st.just(0.0), _FLOW_UNITS.map(from_units))
    v_s = draw(
        st.one_of(st.just(0.0), st.just(-1.0), _FLOW_UNITS.map(lambda u: from_units(abs(u))))
    )
    t_in0 = draw(st.one_of(flow, st.just(v_s)))
    t_out0 = draw(st.one_of(flow, st.just(-v_s), st.just(-t_in0)))
    return v_s, t_in0, t_out0, draw(_PARAMS), draw(_PARAMS), draw(_THETA)


# the first piece holds both roots, -2e-8 within its tolerance and 0.25:
# the smaller is polished first, and accepted
@example(
    (
        1e-8,
        1e9,
        1e9,
        RebalanceParams(a_rhs=1.5, a_lhs=0.0, d_rhs=1.0, d_lhs=1.0),
        RebalanceParams(a_rhs=0.0, a_lhs=0.0, d_rhs=1.0, d_lhs=1.0),
        0.0,
    )
)
@given(solver_inputs())
@settings(max_examples=600)
def test_solver_identical_to_reference(args):
    assert outcome(solve_adjusted_notional, *args) == outcome(
        oracles.solve_adjusted_notional, *args
    )
