import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfmm import eldf
from dfmm.eldf import (
    CurvePoint,
    Eldf,
    fit_eldf,
    integrate_eldf,
    parse_snapshot_lines,
    snapshot_to_curves,
    solve_volume_for_value,
)
from dfmm.errors import BadCurve, BadParams, OutOfDomain, ParseError
import oracles
from oracles import density, grid_solve_volume, newton_quadratic, random_positive_quadratic


def quad_prices(c2, c1, c0, vols):
    """(volumes, prices) arrays sampling the density c2*v^2 + c1*v + c0."""
    vols = np.asarray(vols, dtype=float)
    return vols, (c2 * vols + c1) * vols + c0


class TestFit:
    def test_constant_data(self):
        curve = fit_eldf(np.array([0.0, 1.0, 2.0]), np.ones(3))
        assert curve.c2 == pytest.approx(0.0, abs=1e-12)
        assert curve.c1 == pytest.approx(0.0, abs=1e-12)
        assert curve.c0 == pytest.approx(1.0, abs=1e-12)
        assert (curve.v_lo, curve.v_hi) == (0.0, 2.0)

    def test_exact_quadratic_matches_newton_oracle(self):
        vols, prices = quad_prices(2.0, 3.0, 1.0, (0.0, 1.0, 2.0))
        curve = fit_eldf(vols, prices)
        c2, c1, c0 = newton_quadratic(list(zip(vols.tolist(), prices.tolist())))
        assert curve.c2 == pytest.approx(c2, abs=1e-8)
        assert curve.c1 == pytest.approx(c1, abs=1e-8)
        assert curve.c0 == pytest.approx(c0, abs=1e-8)

    def test_fit_exactness_random_quadratics(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c2, c1, c0, v_hi = random_positive_quadratic(rng)
            vols = np.linspace(0.0, v_hi, 9)
            curve = fit_eldf(*quad_prices(c2, c1, c0, vols))
            scale = max(1.0, abs(c2), abs(c1), abs(c0))
            assert abs(curve.c2 - c2) <= 1e-8 * scale
            assert abs(curve.c1 - c1) <= 1e-8 * scale
            assert abs(curve.c0 - c0) <= 1e-8 * scale

    def test_perturbed_fit_beats_grid_around_truth(self):
        # alternating +/-0.01 perturbation of p = v + 1 at 7 points
        vols = [float(v) for v in range(7)]
        prices = [v + 1.0 + (0.01 if i % 2 == 0 else -0.01) for i, v in enumerate(vols)]
        curve = fit_eldf(np.array(vols), np.array(prices))

        def sse(c2, c1, c0):
            return sum(((c2 * v + c1) * v + c0 - p) ** 2 for v, p in zip(vols, prices))

        best_fit = sse(curve.c2, curve.c1, curve.c0)
        offsets = [-0.10, -0.05, 0.0, 0.05, 0.10]
        for d2 in offsets:
            for d1 in offsets:
                for d0 in offsets:
                    assert best_fit <= sse(0.0 + d2, 1.0 + d1, 1.0 + d0) + 1e-12

    def test_too_few_points(self):
        with pytest.raises(BadCurve):
            fit_eldf(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_non_monotone_volumes(self):
        with pytest.raises(BadCurve):
            fit_eldf(np.array([0.0, 2.0, 1.0]), np.ones(3))

    def test_negative_dip_rejected(self):
        # positive V-shaped data whose least-squares parabola dips below zero
        prices = np.array([5.0, 0.1, 0.05, 0.1, 5.0])
        with pytest.raises(BadCurve):
            fit_eldf(np.arange(5.0), prices)

    # the checks CurvePoint made on each point, made on the arrays
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, -math.inf])
    def test_non_positive_price_rejected(self, bad):
        prices = np.array([1.0, 1.0, bad, 1.0])
        with pytest.raises(BadCurve, match="price must be positive"):
            fit_eldf(np.arange(4.0), prices)

    def test_negative_first_volume_rejected(self):
        with pytest.raises(BadCurve, match="nonnegative"):
            fit_eldf(np.array([-1.0, 0.0, 1.0]), np.ones(3))

    def test_two_points_rejected_before_other_checks(self):
        with pytest.raises(BadCurve, match="got 2"):
            fit_eldf(np.array([-1.0, -2.0]), np.array([0.0, math.nan]))

    def test_sequences_fit_like_arrays(self):
        vols, prices = quad_prices(0.1, -0.2, 3.0, (0.0, 1.0, 2.5, 4.0))
        assert fit_eldf(vols.tolist(), prices.tolist()) == fit_eldf(vols, prices)

    # Every comparison with NaN is false, so only an explicit finiteness
    # check keeps a NaN or infinite curve out of the engine.
    @pytest.mark.parametrize(
        "c2,c1,c0,v_hi",
        [
            (math.nan, 0.0, 1.0, 1.0),
            (0.0, math.inf, 1.0, 1.0),
            (0.0, 0.0, -math.inf, 1.0),
            (1e300, 0.0, 1.0, 1e200),  # finite coefficients, density overflows
        ],
    )
    def test_non_finite_density_rejected(self, c2, c1, c0, v_hi):
        with pytest.raises(BadCurve, match="not finite"):
            Eldf(c2, c1, c0, v_lo=0.0, v_hi=v_hi)

    def test_overflowing_volumes_rejected(self):
        # v*v overflows, so the normal equations give NaN coefficients
        vols = np.linspace(0.0, 1e200, 7)
        with pytest.raises(BadCurve, match="not finite"):
            fit_eldf(vols, np.ones(7))

    def test_underflowing_volumes_diverge(self):
        # v*v underflows to zero, so the normal equations are singular
        vols = np.linspace(0.0, 1e-200, 7)
        with pytest.raises(BadCurve, match="singular"):
            fit_eldf(vols, np.ones(7))


class TestSolveErrors:
    """The fit refuses what the ``np.linalg.solve`` fit refused, alike."""

    CASES = {
        # v*v underflows to zero, so the Gram matrix is singular
        "singular-grid": (np.linspace(0.0, 1e-197, 7), np.ones(7), BadCurve),
        # an infinite right-hand side solves to NaN coefficients
        "inf-price": (np.arange(5.0), np.array([1, 1, math.inf, 1, 1.0]), BadCurve),
        "overflowing-volumes": (np.linspace(0.0, 1e201, 7), np.ones(7), BadCurve),
        # the price-dependent product is the one numpy op left to warn
        "huge-prices": (np.arange(5.0), np.full(5, 1e308), RuntimeWarning),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_error_as_linalg_solve(self, case):
        vols, prices, error = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as want:
                oracles.linalg_fit_eldf(vols, prices)
            with pytest.raises(error) as got:
                fit_eldf(vols, prices)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        if case == "inf-price":
            assert "not finite" in str(got.value)

    def test_singular_grid_is_not_cached(self):
        eldf._design.cache_clear()
        fit_eldf(*quad_prices(0.0, 1.0, 1.0, [0.0, 1.0, 2.0, 3.0]))
        for _ in range(2):  # refused again, not served from the cache
            with pytest.raises(BadCurve, match="singular"):
                fit_eldf(np.linspace(0.0, 1e-199, 5), np.ones(5))
        info = eldf._design.cache_info()
        assert (info.currsize, info.hits) == (1, 0)


def uncached_coefficients(vols, prices):
    """Column-scaled normal-equation fit rebuilt from scratch: (c2, c1, c0)."""
    vols = np.array(vols, dtype=float)
    prices = np.array(prices, dtype=float)
    a = np.column_stack([np.ones_like(vols), vols, vols * vols])
    scale = np.maximum(np.abs(a).max(axis=0), 1e-300)
    a_s = a / scale
    c0, c1, c2 = (float(c) for c in np.linalg.solve(a_s.T @ a_s, a_s.T @ prices) / scale)
    return c2, c1, c0


class TestDesignCache:
    def random_grid(self, rng):
        """Uneven strictly increasing volumes; odd sizes start at zero."""
        n = int(rng.integers(3, 10))
        steps = rng.uniform(0.05, 1.0, n) * float(rng.uniform(1.0, 1000.0))
        vols = np.cumsum(steps) - steps[0] * (n % 2)
        return [float(v) for v in vols]

    def random_prices(self, rng, vols):
        c2, c1, c0, span = random_positive_quadratic(rng)
        x = [v / vols[-1] * span for v in vols]
        noise = rng.uniform(0.99, 1.01, len(vols))
        return [((c2 * xi + c1) * xi + c0) * float(e) for xi, e in zip(x, noise)]

    def test_bit_equal_to_uncached_fit_on_random_grids(self):
        rng = np.random.default_rng(11)
        grids = [self.random_grid(rng) for _ in range(20)]
        for _ in range(3):  # later passes hit the cache for every grid
            for vols in grids:
                prices = self.random_prices(rng, vols)
                curve = fit_eldf(vols, prices)
                assert (curve.c2, curve.c1, curve.c0) == uncached_coefficients(vols, prices)
                assert (curve.v_lo, curve.v_hi) == (vols[0], vols[-1])

    def test_repeated_grid_hits_cache_and_stays_bit_equal(self):
        vols = [0.0, 1.5, 3.0, 4.5, 6.0]
        fit_eldf(*quad_prices(0.1, -0.2, 3.0, vols))
        hits = eldf._design.cache_info().hits
        for c0 in (2.0, 5.0, 11.0):
            grid, prices = quad_prices(0.05, 0.3, c0, vols)
            curve = fit_eldf(grid, prices)
            assert (curve.c2, curve.c1, curve.c0) == uncached_coefficients(grid, prices)
        assert eldf._design.cache_info().hits == hits + 3

    def test_cached_design_is_read_only(self):
        vols = [0.0, 1.0, 2.0, 4.0]
        fit_eldf(*quad_prices(0.0, 0.5, 1.0, vols))
        for arr in eldf._design(np.array(vols).tobytes()):
            assert not arr.flags.writeable

    def test_non_monotone_grid_after_cached_grid_raises(self):
        vols = [0.0, 1.0, 2.0, 3.0]
        fit_eldf(*quad_prices(0.0, 1.0, 1.0, vols))
        with pytest.raises(BadCurve):
            fit_eldf(*quad_prices(0.0, 1.0, 1.0, [0.0, 2.0, 1.0, 3.0]))
        with pytest.raises(BadCurve):
            fit_eldf(*quad_prices(0.0, 1.0, 1.0, [0.0, 1.0, 1.0, 3.0]))
        # a failed grid is not cached: it raises again
        with pytest.raises(BadCurve):
            fit_eldf(*quad_prices(0.0, 1.0, 1.0, [0.0, 2.0, 1.0, 3.0]))

    def test_non_positive_price_on_cached_grid_raises(self):
        vols = [0.0, 1.0, 2.0, 3.0]
        fit_eldf(*quad_prices(0.0, 1.0, 1.0, vols))
        with pytest.raises(BadCurve):
            fit_eldf(np.array(vols), np.array([1.0, 1.0, 1.0, 0.0]))
        # the line 1 - 2v/3 is negative at v_hi: its last price is refused
        with pytest.raises(BadCurve):
            fit_eldf(*quad_prices(0.0, -2.0 / 3.0, 1.0, vols))
        # positive prices whose fitted line reaches zero inside the domain
        # pass the price check; the fitted curve's density check rejects it
        with pytest.raises(BadCurve, match="not positive|dips"):
            fit_eldf(np.array(vols), np.array([1.0, 0.3, 1e-9, 1e-9]))


class TestEval:
    """``oracles.density``, the density every test reads a curve by."""

    def test_constant(self):
        curve = Eldf(0.0, 0.0, 1.0, v_lo=0.0, v_hi=10.0)
        assert density(curve, 7.0) == 1.0

    def test_quadratic(self):
        curve = Eldf(2.0, 3.0, 1.0, v_lo=0.0, v_hi=5.0)
        assert density(curve, 1.0) == pytest.approx(6.0)

    def test_pure_square(self):
        curve = Eldf(1.0, 0.0, 0.0, v_lo=1.0, v_hi=5.0)
        assert density(curve, 3.0) == pytest.approx(9.0)

    def test_out_of_domain_errors_by_default(self):
        curve = Eldf(0.0, 0.0, 1.0, v_lo=0.0, v_hi=10.0)
        with pytest.raises(OutOfDomain):
            density(curve, 11.0)

    def test_clamped_extrapolation(self):
        curve = Eldf(0.0, 1.0, 1.0, v_lo=0.0, v_hi=10.0, clamp=True)
        assert density(curve, 15.0) == pytest.approx(11.0)


class TestIntegrate:
    def test_unit_density(self):
        curve = Eldf(0.0, 0.0, 1.0, v_lo=0.0, v_hi=10.0)
        assert integrate_eldf(curve, 0.0, 5.0) == pytest.approx(5.0)

    def test_antiderivative(self):
        curve = Eldf(3.0, 2.0, 1.0, v_lo=0.0, v_hi=5.0)
        assert integrate_eldf(curve, 0.0, 1.0) == pytest.approx(3.0)

    def test_linear_density(self):
        curve = Eldf(0.0, 2.0, 0.0, v_lo=0.0, v_hi=5.0)
        assert integrate_eldf(curve, 1.0, 2.0) == pytest.approx(3.0)

    def test_reversed_interval(self):
        curve = Eldf(0.0, 0.0, 1.0, v_lo=0.0, v_hi=10.0)
        with pytest.raises(BadParams):
            integrate_eldf(curve, 5.0, 4.0)

    def test_additivity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            c2, c1, c0, v_hi = random_positive_quadratic(rng)
            curve = Eldf(c2, c1, c0, v_lo=0.0, v_hi=v_hi)
            a, b, c = sorted(rng.uniform(0.0, v_hi, size=3))
            whole = integrate_eldf(curve, a, c)
            split = integrate_eldf(curve, a, b) + integrate_eldf(curve, b, c)
            assert abs(whole - split) <= 1e-9 * max(1.0, abs(whole))

    def test_clamp_adds_boundary_tail(self):
        curve = Eldf(0.0, 0.0, 2.0, v_lo=0.0, v_hi=10.0, clamp=True)
        assert integrate_eldf(curve, 0.0, 12.0) == pytest.approx(24.0)


class TestSolve:
    def test_unit_density(self):
        curve = Eldf(0.0, 0.0, 1.0, v_lo=0.0, v_hi=10.0)
        assert solve_volume_for_value(curve, 0.0, 5.0) == pytest.approx(5.0)

    def test_linear_density(self):
        curve = Eldf(0.0, 2.0, 0.0, v_lo=0.0, v_hi=5.0)
        assert solve_volume_for_value(curve, 0.0, 4.0) == pytest.approx(2.0)

    def test_pure_square(self):
        curve = Eldf(3.0, 0.0, 0.0, v_lo=1.0, v_hi=5.0)
        assert solve_volume_for_value(curve, 1.0, 7.0) == pytest.approx(2.0)

    def test_infeasible_target(self):
        curve = Eldf(0.0, 0.0, 1.0, v_lo=0.0, v_hi=10.0)
        with pytest.raises(OutOfDomain, match="source only 10"):
            solve_volume_for_value(curve, 0.0, 11.0)

    def test_negative_target(self):
        curve = Eldf(0.0, 0.0, 1.0, v_lo=0.0, v_hi=10.0)
        with pytest.raises(BadParams, match="nonnegative"):
            solve_volume_for_value(curve, 0.0, -1.0)

    def test_clamp_sources_beyond_domain(self):
        curve = Eldf(0.0, 0.0, 2.0, v_lo=0.0, v_hi=10.0, clamp=True)
        assert solve_volume_for_value(curve, 0.0, 24.0) == pytest.approx(12.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            c2, c1, c0, v_hi = random_positive_quadratic(rng)
            curve = Eldf(c2, c1, c0, v_lo=0.0, v_hi=v_hi)
            v1 = float(rng.uniform(0.0, 0.5 * v_hi))
            cap = integrate_eldf(curve, v1, v_hi)
            target = float(rng.uniform(0.0, cap))
            v2 = solve_volume_for_value(curve, v1, target)
            got = integrate_eldf(curve, v1, v2)
            assert abs(got - target) <= 1e-9 * max(1.0, target)

    def test_monotone_inversion(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            c2, c1, c0, v_hi = random_positive_quadratic(rng)
            curve = Eldf(c2, c1, c0, v_lo=0.0, v_hi=v_hi)
            cap = integrate_eldf(curve, 0.0, v_hi)
            m1, m2 = sorted(rng.uniform(0.0, cap, size=2))
            assert solve_volume_for_value(curve, 0.0, m1) <= solve_volume_for_value(
                curve, 0.0, m2
            ) + 1e-12

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            c2, c1, c0, v_hi = random_positive_quadratic(rng)
            curve = Eldf(c2, c1, c0, v_lo=0.0, v_hi=v_hi)
            v1 = float(rng.uniform(0.0, 0.3 * v_hi))
            cap = integrate_eldf(curve, v1, v_hi)
            target = float(rng.uniform(0.05, 0.95)) * cap
            fast = solve_volume_for_value(curve, v1, target)
            slow = grid_solve_volume(c2, c1, c0, v1, v_hi, target, steps=10**5)
            assert abs(fast - slow) <= 1e-5 * max(1.0, v_hi)


class TestSnapshot:
    def test_split_fits_each_side(self):
        mid = 100.0
        # bid side below mid: density falls away from the best bid
        bid_side = [CurvePoint(v, 99.0 - 0.5 * (3.0 - v)) for v in (0.0, 1.5, 3.0)]
        ask_side = [CurvePoint(v, 101.0 + 0.5 * (v - 4.0)) for v in (4.0, 5.5, 7.0)]
        bid, ask = snapshot_to_curves(bid_side + ask_side, mid)
        # re-based depths start at zero and reproduce the side data
        assert bid.v_lo == 0.0 and ask.v_lo == 0.0
        assert density(bid, 0.0) == pytest.approx(99.0)
        assert density(bid, 3.0) == pytest.approx(97.5)
        assert density(ask, 0.0) == pytest.approx(101.0)
        assert density(ask, 3.0) == pytest.approx(102.5)

    def test_split_empty_side(self):
        pts = [CurvePoint(v, 90.0 + v) for v in (0.0, 1.0, 2.0)]
        with pytest.raises(BadCurve):
            snapshot_to_curves(pts, 200.0)

    def test_empty_snapshot(self):
        with pytest.raises(BadCurve):
            snapshot_to_curves([], 100.0)

    def test_parse_snapshot_lines(self):
        lines = [
            "# venue export",
            "0, nyse, 0.0, 99.5",
            "0, nyse, 1.0, 99.0",
            "1, cme, 0.0, 100.5",
            "",
        ]
        parsed = parse_snapshot_lines(lines)
        assert set(parsed) == {(0, "nyse"), (1, "cme")}
        assert parsed[(0, "nyse")][1].price == 99.0

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_snapshot_lines(["0, nyse, 1.0"])


class TestCurvePoint:
    def test_invalid_price(self):
        with pytest.raises(BadCurve):
            CurvePoint(0.0, 0.0)

    def test_negative_volume(self):
        with pytest.raises(BadCurve):
            CurvePoint(-1.0, 1.0)


@given(
    c1=st.floats(min_value=0.0, max_value=2.0),
    c0=st.floats(min_value=0.1, max_value=5.0),
    span=st.floats(min_value=1.0, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_integration_additivity_hypothesis(c1, c0, span):
    curve = Eldf(0.0, c1, c0, v_lo=0.0, v_hi=span)
    a, b, c = 0.1 * span, 0.4 * span, 0.9 * span
    whole = integrate_eldf(curve, a, c)
    split = integrate_eldf(curve, a, b) + integrate_eldf(curve, b, c)
    assert math.isclose(whole, split, rel_tol=1e-9, abs_tol=1e-12)


class TestSolvePastDomain:
    """A solve from a v1 past v_hi, where the capacity interval is empty."""

    def test_clamp_sources_from_v1_at_boundary_density(self):
        curve = Eldf(0.0, 0.0, 1.0, v_lo=0.0, v_hi=10.0, clamp=True)
        assert solve_volume_for_value(curve, 12.0, 3.0) == 15.0
        assert integrate_eldf(curve, 12.0, 15.0) == 3.0

    def test_clamp_uses_density_at_v_hi(self):
        curve = Eldf(0.0, 1.0, 1.0, v_lo=0.0, v_hi=10.0, clamp=True)
        assert solve_volume_for_value(curve, 20.0, 22.0) == 22.0
        assert integrate_eldf(curve, 20.0, 22.0) == 22.0

    def test_error_mode_within_slack_has_no_capacity(self):
        curve = Eldf(0.0, 0.0, 1.0, v_lo=0.0, v_hi=10.0)
        v1 = 10.0 + 5e-9  # inside the domain check's slack of 1e-8
        with pytest.raises(OutOfDomain, match="source only 0"):
            solve_volume_for_value(curve, v1, 1.0)
        assert solve_volume_for_value(curve, v1, 0.0) == v1
        with pytest.raises(OutOfDomain):
            solve_volume_for_value(curve, 10.0 + 2e-8, 1.0)


class TestSolveBelowDomain:
    """A solve from a v1 in the slack below v_lo for less than the value
    of [v1, v_lo]: the root lies in that slack, at the density of v_lo."""

    @pytest.mark.parametrize("clamp", [True, False], ids=["clamp", "error"])
    @pytest.mark.parametrize("target", [1e-9, 9e-9])  # a tenth and nine tenths of the head
    def test_root_in_the_slack(self, clamp, target):
        curve = Eldf(0.0, 0.0, 2.0, v_lo=0.0, v_hi=10.0, clamp=clamp)
        v2 = solve_volume_for_value(curve, -5e-9, target)
        assert v2 == -5e-9 + target / 2.0 < 0.0
        assert integrate_eldf(curve, -5e-9, v2) == pytest.approx(target, rel=1e-9)

    @pytest.mark.parametrize("clamp", [True, False], ids=["clamp", "error"])
    def test_target_below_one_ulp_of_v1_returns_v1(self, clamp):
        # the solver's residual check used to fail on the whole head
        curve = Eldf(1e-09, 1.4946, 22.47, v_lo=0.0, v_hi=1e4, clamp=clamp)
        assert solve_volume_for_value(curve, -5e-06, 8.9e-286) == -5e-06

    @pytest.mark.parametrize("clamp", [True, False], ids=["clamp", "error"])
    def test_target_at_or_above_the_head_reaches_the_domain(self, clamp):
        curve = Eldf(0.0, 0.0, 2.0, v_lo=0.0, v_hi=10.0, clamp=clamp)
        assert solve_volume_for_value(curve, -5e-9, 1e-8) == 0.0
        assert solve_volume_for_value(curve, -5e-9, 1e-8 + 4.0) == pytest.approx(2.0)


def outcome(fn, *args):
    """repr of the result, or the class of the engine error raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the class is compared, not swallowed
        return type(exc).__name__


@st.composite
def curve_and_points(draw):
    """A valid curve and volumes in, at the edges of, below and above its domain."""
    c2 = draw(st.floats(-2.0, 2.0))
    c1 = draw(st.floats(-5.0, 5.0))
    c0 = draw(st.floats(1e-3, 50.0))
    lo = draw(st.sampled_from([0.0, 0.0, 1.0, 37.5]))
    hi = lo + draw(st.floats(1e-3, 1e4))
    clamp = draw(st.booleans())
    try:
        curve = Eldf(c2, c1, c0, v_lo=lo, v_hi=hi, clamp=clamp)
    except BadCurve:
        curve = Eldf(0.0, 0.0, c0, v_lo=lo, v_hi=hi, clamp=clamp)
    slack = 1e-9 * max(1.0, hi - lo)
    volume = st.one_of(
        st.sampled_from([lo, hi, lo - slack / 2, hi + slack / 2, lo - 2 * slack, hi + 2 * slack]),
        st.floats(-0.5, 1.5).map(lambda u: lo + u * (hi - lo)),
    )
    return curve, draw(volume), draw(volume)


@given(case=curve_and_points())
@settings(max_examples=400)
def test_integrate_identical_to_reference(case):
    curve, v1, v2 = case
    assert outcome(integrate_eldf, curve, v1, v2) == outcome(
        oracles.integrate_eldf, curve, v1, v2
    )


@given(case=curve_and_points(), share=st.floats(-0.5, 2.0))
@settings(max_examples=400)
def test_solve_identical_to_reference(case, share):
    curve, v1, _ = case
    try:
        full = oracles.integrate_eldf(curve, curve.v_lo, curve.v_hi)
    except OutOfDomain:
        full = 1.0
    target = 0.0 if share == 0.5 else share * full
    new = outcome(solve_volume_for_value, curve, v1, target)
    ref = outcome(oracles.solve_volume_for_value, curve, v1, target)
    head = (curve.v_lo - v1) * density(curve, curve.v_lo) if v1 < curve.v_lo else 0.0
    if 0.0 < target < head and ref != "OutOfDomain":
        # the root lies below v_lo, where the reference searched only the
        # in-domain cubic's slack
        assert new == repr(v1 + target / density(curve, curve.v_lo))
    elif ref == "BadParams" and target >= 0.0:
        # a v1 past v_hi: the reference could not value its empty capacity
        assert v1 > curve.v_hi and target > 0.0
        if curve.clamp:
            dens = density(curve, curve.v_hi)
            assert new == repr(v1 + target / dens)
        else:
            assert new == "OutOfDomain"
    else:
        assert new == ref
