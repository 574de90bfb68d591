"""External liquidity density curves.

A curve is a degree-2 polynomial in volume space: density(v) gives the
accounting-asset price per unit at cumulative depth v, so integrating the
curve over a volume interval converts volume to value and the inverse
solve converts value back to volume. Curves are fitted per slot from a
venue snapshot's volume and price arrays and are immutable once built.

Extrapolation beyond the fitted domain is an error by default because a
quadratic tail can go negative; curves built with clamped extrapolation
(``clamp``) freeze the density at the boundary value instead, which
scenario configs may opt into.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import BadCurve, BadParams, NoFeasibleSolution, OutOfDomain, ParseError


@dataclass(frozen=True)
class CurvePoint:
    """One venue snapshot sample: cumulative depth and the price there."""

    volume: float
    price: float

    def __post_init__(self):
        if not self.price > 0:
            raise BadCurve(f"price must be positive, got {self.price}")
        if self.volume < 0:
            raise BadCurve(f"volume must be nonnegative, got {self.volume}")


@dataclass(frozen=True)
class Eldf:
    """Fitted density curve c2*v^2 + c1*v + c0 over [v_lo, v_hi]."""

    c2: float
    c1: float
    c0: float
    v_lo: float
    v_hi: float
    clamp: bool = False

    def __post_init__(self):
        if not self.v_lo < self.v_hi:
            raise BadCurve(f"empty fit domain [{self.v_lo}, {self.v_hi}]")
        _check_positive_density(self.c2, self.c1, self.c0, self.v_lo, self.v_hi)


def _check_positive_density(c2, c1, c0, v_lo, v_hi):
    """Density must be finite and positive inside the fit domain.

    For a quadratic it suffices to check both endpoints plus the vertex
    when the vertex lies strictly inside. A zero exactly at a boundary is
    tolerated (the cumulative value stays strictly increasing inside),
    but a dip to zero or below in the interior, or a curve vanishing at
    both ends, is rejected. Every comparison with NaN is false, so
    non-finite coefficients or endpoint densities are rejected first.
    """
    q_lo = _poly(c2, c1, c0, v_lo)
    q_hi = _poly(c2, c1, c0, v_hi)
    if not all(map(math.isfinite, (c2, c1, c0, q_lo, q_hi))):
        raise BadCurve(
            f"density {c2:.6g}*v^2 + {c1:.6g}*v + {c0:.6g} is not finite "
            f"on [{v_lo:.6g}, {v_hi:.6g}]"
        )
    if q_lo < 0.0 or q_hi < 0.0 or (q_lo == 0.0 and q_hi == 0.0):
        bad = v_lo if q_lo <= q_hi else v_hi
        raise BadCurve(
            f"density {_poly(c2, c1, c0, bad):.6g} at v={bad:.6g} is not positive"
        )
    if c2 != 0.0:
        vertex = -c1 / (2.0 * c2)
        if v_lo < vertex < v_hi and _poly(c2, c1, c0, vertex) <= 0.0:
            raise BadCurve(
                f"density dips to {_poly(c2, c1, c0, vertex):.6g} at v={vertex:.6g}"
            )


def _poly(c2, c1, c0, v):
    return (c2 * v + c1) * v + c0


def _antideriv(c2, c1, c0, v):
    return ((c2 / 3.0 * v + c1 / 2.0) * v + c0) * v


@functools.lru_cache(maxsize=64)
def _design(vol_bytes: bytes) -> tuple:
    """Column-scaled normal-equation design for one snapshot volume grid.

    Returns (a_s, ata, scale), all read-only: the Vandermonde matrix with
    columns rescaled to unit max-norm (so the 3x3 system stays well
    conditioned even for large volume ranges), its Gram matrix and the
    column scales. Keyed on the exact float64 bytes of the volumes, so a
    cache hit hands back the arrays a fresh build would compute. Raises
    BadCurve, caching nothing, unless volumes strictly increase and the
    Gram matrix is not singular: LAPACK's ``gesv`` finds that from the
    matrix alone, so one solve refuses the grid once.
    """
    vols = np.frombuffer(vol_bytes, dtype=float)
    if not np.all(np.diff(vols) > 0):
        raise BadCurve("snapshot volumes must be strictly increasing")
    # volumes whose squares overflow give NaN coefficients, which Eldf
    # rejects, so numpy need not warn about them as well
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.column_stack([np.ones_like(vols), vols, vols * vols])
        scale = np.maximum(np.abs(a).max(axis=0), 1e-300)
        a_s = a / scale
        ata = a_s.T @ a_s
    try:
        np.linalg.solve(ata, scale)  # any right-hand side gives the same verdict
    except np.linalg.LinAlgError as exc:
        raise BadCurve(f"normal equations singular: {exc}") from None
    for arr in (a_s, ata, scale):
        arr.flags.writeable = False
    return a_s, ata, scale


def fit_eldf(volumes, prices, *, clamp: bool = False) -> Eldf:
    """Least-squares degree-2 fit of density (``prices``) over ``volumes``.

    Raises BadCurve for fewer than 3 points, a price that is not > 0
    (NaN included), volumes that do not start at or above zero and
    strictly increase, and a fitted curve that dips to zero or below
    inside the domain. Exact degree-<=2 data is reproduced to fitting
    tolerance.

    The design matrix, its Gram matrix and the column scales depend only
    on the volumes, so they come from a small cache (``_design``) keyed on
    the volumes' exact float64 bytes. Each fit then computes ``atb`` and
    calls the gufunc behind ``np.linalg.solve`` with the loop it picks, so
    the same ``gesv`` runs on the same operands: the coefficients are
    bit-identical to an uncached ``np.linalg.solve`` fit. That wrapper's
    one extra error, a singular matrix, ``_design`` raises; otherwise the
    gufunc clears the FP flags, so a non-finite ``atb`` gives NaN
    coefficients, which Eldf rejects, without a warning.
    """
    vols = np.asarray(volumes, dtype=float)
    prices = np.asarray(prices, dtype=float)
    if len(vols) < 3:
        raise BadCurve(f"need at least 3 points, got {len(vols)}")
    if not prices.min() > 0:  # NaN propagates through min
        raise BadCurve(f"price must be positive, got {prices[~(prices > 0)][0]}")
    if vols[0] < 0:
        raise BadCurve(f"volume must be nonnegative, got {vols[0]}")
    a_s, ata, scale = _design(vols.tobytes())
    atb = a_s.T @ prices
    coef = _umath_linalg.solve1(ata, atb, signature="dd->d") / scale
    c0, c1, c2 = coef.tolist()
    return Eldf(c2, c1, c0, float(vols[0]), float(vols[-1]), clamp)


def _domain_check(curve: Eldf, v: float, tol: float = 1e-9):
    span = curve.v_hi - curve.v_lo
    slack = tol * max(1.0, span)
    if v < curve.v_lo - slack or v > curve.v_hi + slack:
        if not curve.clamp:
            raise OutOfDomain(
                f"v={v:.6g} outside fit domain [{curve.v_lo:.6g}, {curve.v_hi:.6g}]"
            )


def integrate_eldf(curve: Eldf, v1: float, v2: float) -> float:
    """Value of the volume interval [v1, v2] under the curve.

    Additive over adjacent intervals. In clamp mode, the part of the
    interval outside the fit domain contributes boundary density times
    length. An interval inside the domain, where no check can fail and no
    tail applies, is valued straight from the antiderivative.
    """
    c2, c1, c0 = curve.c2, curve.c1, curve.c0
    lo, hi = curve.v_lo, curve.v_hi
    if lo <= v1 <= v2 <= hi:
        return _antideriv(c2, c1, c0, v2) - _antideriv(c2, c1, c0, v1)
    if v2 < v1:
        raise BadParams(f"v2={v2} < v1={v1}")
    _domain_check(curve, v1)
    _domain_check(curve, v2)
    a1, a2 = min(max(v1, lo), hi), min(max(v2, lo), hi)
    total = _antideriv(c2, c1, c0, a2) - _antideriv(c2, c1, c0, a1)
    if v1 < lo:
        total += (min(v2, lo) - v1) * _poly(c2, c1, c0, lo)
    if v2 > hi:
        total += (v2 - max(v1, hi)) * _poly(c2, c1, c0, hi)
    return total


def _cubic_real_roots(a3: float, a2: float, a1: float, a0: float) -> list[float]:
    """Real roots of a3 x^3 + a2 x^2 + a1 x + a0 = 0 (closed form).

    Handles quadratic/linear degeneracies. Depressed-cubic solution with
    the trigonometric branch for three real roots.
    """
    eps = 1e-14 * max(abs(a3), abs(a2), abs(a1), abs(a0), 1.0)
    if abs(a3) <= eps:
        if abs(a2) <= eps:
            if abs(a1) <= eps:
                return []
            return [-a0 / a1]
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0:
            return []
        sq = math.sqrt(disc)
        return [(-a1 - sq) / (2.0 * a2), (-a1 + sq) / (2.0 * a2)]

    b, c, d = a2 / a3, a1 / a3, a0 / a3
    # x = y - b/3 reduces to y^3 + p y + q = 0
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0:
        sq = math.sqrt(disc)
        u = math.copysign(abs(-q / 2.0 + sq) ** (1.0 / 3.0), -q / 2.0 + sq)
        w = math.copysign(abs(-q / 2.0 - sq) ** (1.0 / 3.0), -q / 2.0 - sq)
        return [u + w + shift]
    if abs(p) < 1e-300:
        return [shift]
    # three real roots (disc <= 0 implies p < 0)
    r = math.sqrt(-p / 3.0)
    arg = max(-1.0, min(1.0, 3.0 * q / (2.0 * p * r)))
    phi = math.acos(arg)
    return [2.0 * r * math.cos((phi - 2.0 * math.pi * k) / 3.0) + shift for k in range(3)]


def solve_volume_for_value(curve: Eldf, v1: float, target_value: float) -> float:
    """Smallest v2 >= v1 with integrate_eldf(curve, v1, v2) == target_value.

    Closed-form cubic roots followed by Newton polish on the residual.
    Because the density is positive over the domain the cumulative value
    is strictly increasing there, so the in-domain root is unique. In
    clamp mode, value beyond the domain capacity (none from a v1 past
    v_hi) is sourced at the boundary density. The capacity, residuals and
    final check take ``integrate_eldf``'s float operations in its order.
    """
    if target_value < 0:
        raise BadParams(f"target value must be nonnegative, got {target_value}")
    c2, c1, c0 = curve.c2, curve.c1, curve.c0
    lo, hi = curve.v_lo, curve.v_hi
    if not lo <= v1 <= hi:  # inside the domain the check cannot fail
        _domain_check(curve, v1)
    if target_value == 0.0:
        return v1
    # _antideriv's coefficients, divided once: F(v) = ((a3*v + a2)*v + c0)*v
    a3, a2 = c2 / 3.0, c1 / 2.0
    v1_eff = min(max(v1, lo), hi)
    f1 = ((a3 * v1_eff + a2) * v1_eff + c0) * v1_eff
    # the part of [v1, v1_eff] below the domain is valued at clamp
    # density; otherwise that interval is empty and adding 0.0 is exact
    head = (lo - v1) * _poly(c2, c1, c0, lo) if v1 < lo else 0.0
    if target_value < head:  # the root lies in that part, below v_lo
        return v1 + target_value / _poly(c2, c1, c0, lo)
    capacity = (((a3 * hi + a2) * hi + c0) * hi - f1) + head
    if target_value > capacity:
        if curve.clamp:
            tail_density = _poly(c2, c1, c0, hi)
            return max(hi, v1) + (target_value - capacity) / tail_density
        raise OutOfDomain(
            f"book can source only {capacity:.6g} from v1={v1:.6g}, "
            f"requested {target_value:.6g}"
        )

    # Roots of F(v2) - (F(v1) + M) where F is the antiderivative.
    konst = f1 + (target_value - head)
    roots = _cubic_real_roots(a3, a2, c0, -konst)
    slack = 1e-9 * max(1.0, hi - lo)
    feasible = [r for r in roots if v1_eff - slack <= r <= hi + slack]
    if not feasible:
        raise NoFeasibleSolution(
            f"no real root in [{v1_eff:.6g}, {hi:.6g}] for value {target_value:.6g}"
        )
    v2 = min(max(min(feasible), v1_eff), hi)

    # Newton polish: density is positive in-domain so iteration is stable.
    for _ in range(8):
        resid = (((a3 * v2 + a2) * v2 + c0) * v2 - f1) - (target_value - head)
        dens = _poly(c2, c1, c0, v2)
        if dens <= 0:
            break
        step = resid / dens
        v2 = min(max(v2 - step, v1_eff), hi)
        if abs(step) < 1e-15 * max(1.0, abs(v2)):
            break
    final = (((a3 * v2 + a2) * v2 + c0) * v2 - f1) + head
    if abs(final - target_value) > 1e-6 * max(1.0, target_value):
        raise NoFeasibleSolution(
            f"cubic solve residual {final - target_value:.3g} for M={target_value:.6g}"
        )
    return v2


def snapshot_to_curves(
    raw: Sequence[CurvePoint], mid_price: float, *, clamp: bool = False
) -> tuple[Eldf, Eldf]:
    """Fit snapshot points into a (bid, ask) pair of curves.

    The points split at mid_price: points priced at or below mid are the
    bid side, above are the ask side. Each side is re-based so depth
    starts at zero nearest the mid (bid depth grows as price falls, ask
    depth as price rises), making both sides integrable from zero.
    """

    def fit(pairs):
        vols, prices = zip(*pairs)
        return fit_eldf(vols, prices, clamp=clamp)

    bid_raw = [p for p in raw if p.price <= mid_price]
    ask_raw = [p for p in raw if p.price > mid_price]
    if len(bid_raw) < 3:
        raise BadCurve(f"bid side has {len(bid_raw)} points, need 3")
    if len(ask_raw) < 3:
        raise BadCurve(f"ask side has {len(ask_raw)} points, need 3")

    # Bid points sit below the mid on the shared volume axis; the point
    # nearest the mid is the best bid, so depth counts downward from it.
    v_best_bid = max(p.volume for p in bid_raw)
    v_best_ask = min(p.volume for p in ask_raw)
    return (
        fit(sorted((v_best_bid - p.volume, p.price) for p in bid_raw)),
        fit(sorted((p.volume - v_best_ask, p.price) for p in ask_raw)),
    )


def parse_snapshot_lines(lines: Iterable[str]) -> dict:
    """Parse venue snapshot records: slot_id, venue_id, volume, price.

    Returns {(slot_id, venue_id): [CurvePoint, ...]} preserving record
    order. Blank lines and '#' comments are skipped.
    """
    out: dict = {}
    for n, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ParseError(f"line {n}: expected 4 fields, got {len(parts)}")
        try:
            slot = int(parts[0])
            venue = parts[1]
            vol = float(parts[2])
            price = float(parts[3])
        except ValueError as exc:
            raise ParseError(f"line {n}: {exc}") from None
        out.setdefault((slot, venue), []).append(CurvePoint(vol, price))
    return out


@dataclass
class AssetCurves:
    """Current-slot bid/ask curves plus the traded-volume marks.

    Marks track cumulative volume consumed on each side within the slot
    so successive trades walk along the curve. Each refit builds a fresh
    instance, so the marks start at 0 on every slot's curves.
    """

    bid: Eldf
    ask: Eldf
    bid_mark: float = 0.0
    ask_mark: float = 0.0
