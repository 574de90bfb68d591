"""Scenario configuration: INI parsing and full-range validation.

A scenario file is sectioned key/value text. Global sections hold run,
fee, premium, auction, vault, trader, and arbitrageur parameters, each
a ``ScenarioConfig`` field that names its "section.key" and its valid
range in its metadata; each [asset.<id>] section declares one asset
with its external-market process and initial deposits; optional
[script] entries inject deterministic trades at fixed timesteps.
"""

from __future__ import annotations

import configparser
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..errors import ConfigInvalid, ParseError
from ..money import SCALE

# the largest rate numpy's Poisson draw accepts; above it the draw raises
_POISSON_RATE_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)
# an asset id is a CSV cell and one half of a pair cell "IN->OUT", and "*"
# is the run-wide context that inspect matches: none of ",", ">", "*" fits
_ASSET_ID = re.compile(r"[A-Za-z0-9_-]+")


def _ranged(default, rule: str | None = None, *, amount: bool = False, **metadata):
    """A field valid when ``rule`` holds: ">= b", "> b" or an interval
    such as "[0, 1)". An ``amount`` is in $S and must fit ledger units."""
    return field(default=default, metadata={"rule": rule, "amount": amount, **metadata})


def _ini(key: str, default, rule: str | None = None, *, amount: bool = False):
    """A scenario parameter that the INI ``key`` ("section.name") sets."""
    return _ranged(default, rule, amount=amount, ini=key)


@dataclass(frozen=True)
class AssetConfig:
    asset_id: str
    mid_price: float = _ranged(100.0, "> 0")
    sigma: float = _ranged(0.0, ">= 0")
    drift: float = 0.0
    impact_alpha: float = 0.0
    depth: float = _ranged(1000.0, "> 0")
    # each refit fits both sides of every asset over the whole grid, so the
    # grid sets a run's refit time and memory
    n_points: int = _ranged(7, "[3, 10000]")
    spread: float = _ranged(0.002, ">= 0")
    bid_slope: float = 0.05
    bid_curv: float = 0.02
    ask_slope: float = 0.05
    ask_curv: float = 0.02
    deposit: float = _ranged(1000.0, "> 0")
    c_long: float = _ranged(50000.0, ">= 0", amount=True)
    c_short: float = _ranged(50000.0, ">= 0", amount=True)


@dataclass(frozen=True)
class ScenarioConfig:
    horizon: int = _ini("run.horizon", 100, ">= 0")
    epoch_len: int = _ini("run.epoch_len", 10, ">= 1")
    slot_len: int = _ini("run.slot_len", 1, ">= 1")
    seed: int = _ini("run.seed", 1, ">= 0")
    theta: float = _ini("fees.theta", 0.003, "[0, 1)")
    xi: float = _ini("fees.xi", 0.001, "[0, 1)")
    a_init: float = _ini("premium.a_init", 5.0)
    a_min: float = _ini("premium.a_min", 1.0, ">= 0")
    lam: float = _ini("premium.lambda", 1.0, "> 0")
    d_min: float = _ini("premium.d_min", 0.0001, ">= 0")
    d_max: float = _ini("premium.d_max", 0.001, ">= 0")
    u_max: float = _ini("premium.u_max", 1.0, "> 0")
    k: float = _ini("premium.k", 2.0, "> 0")
    auction_enabled: bool = _ini("auction.enabled", True)
    theta0: float = _ini("auction.theta0", 0.25)
    theta_star: float = _ini("auction.theta_star", 0.5)
    theta_dagger: float = _ini("auction.theta_dagger", 0.75)
    j_star: int = _ini("auction.j_star", 4)
    j_prime: int = _ini("auction.j_prime", 2)
    j_dagger: int = _ini("auction.j_dagger", 5, ">= 1")
    rho_long: float = _ini("vaults.rho_long", 0.5, "(0, 1]")
    rho_short: float = _ini("vaults.rho_short", 0.5, "(0, 1]")
    margin_floor: float = _ini("vaults.margin_floor", 1.0, ">= 0", amount=True)
    clamp_extrapolation: bool = _ini("engine.clamp_extrapolation", True)
    reward_gamma: float = _ini("rewards.gamma", 0.01, "[0, 1)")
    trader_rate: float = _ini("traders.rate", 0.0, ">= 0")
    trader_size_mu: float = _ini("traders.size_mu", 2.0)
    trader_size_sigma: float = _ini("traders.size_sigma", 0.5, ">= 0")
    arb_enabled: bool = _ini("arbitrageur.enabled", False)
    arb_fixed_cost: float = _ini("arbitrageur.fixed_cost", 0.0, ">= 0")
    arb_max_exposure: float = _ini("arbitrageur.max_exposure", 5000.0, "> 0")
    # the [asset.*] and [script] sections
    assets: tuple = ()
    scripted_trades: tuple = ()

    def validate(self) -> list[str]:
        """Itemised violations, each field's declared rule first and then
        the rules that relate fields; empty when the config is usable."""
        v = _field_violations(self)
        if self.xi > self.theta:
            v.append(f"fees.xi ({self.xi}) must not exceed fees.theta ({self.theta})")
        if self.a_init < self.a_min:
            v.append(
                f"premium.a_init ({self.a_init}) must be >= a_min ({self.a_min})"
            )
        if self.d_min > self.d_max:
            v.append(
                f"premium.d_min ({self.d_min}) must not exceed d_max ({self.d_max})"
            )
        if not (0.0 <= self.theta0 <= self.theta_star <= self.theta_dagger <= 1.0):
            v.append(
                "auction thresholds must satisfy 0 <= theta0 <= theta_star <= "
                f"theta_dagger <= 1, got ({self.theta0}, {self.theta_star}, "
                f"{self.theta_dagger})"
            )
        if not (self.j_star >= self.j_prime >= 1):
            v.append(
                f"auction.j_star ({self.j_star}) must be >= j_prime "
                f"({self.j_prime}) >= 1"
            )
        if math.isfinite(self.trader_rate) and self.trader_rate > _POISSON_RATE_MAX:
            v.append(f"traders.rate must be <= {_POISSON_RATE_MAX}, got {self.trader_rate}")
        if len(self.assets) < 2:
            v.append(f"need at least 2 [asset.*] sections, got {len(self.assets)}")
        seen = set()
        for a in self.assets:
            tag = f"asset.{a.asset_id}"
            if not _ASSET_ID.fullmatch(a.asset_id):
                v.append(f"asset id {a.asset_id!r} must be letters, digits, '_' or '-'")
            if a.asset_id in seen:
                v.append(f"duplicate asset id {a.asset_id}")
            seen.add(a.asset_id)
            v += _field_violations(a, tag)
            # the snapshot fit squares each depth its rule lets through (NaN
            # included): NaN or singular otherwise
            if not a.depth <= 0 and not (
                sys.float_info.min <= a.depth * a.depth <= sys.float_info.max
            ):
                v.append(f"{tag}.depth squared must be a normal finite float, got {a.depth}")
            # each side's profile 1 -+ (spread/2 + slope*x + curv*x^2) must
            # stay positive on x in [0, 1]: both ends and an interior vertex
            for side, sign, slope, curv in (
                ("bid", -1.0, a.bid_slope, a.bid_curv),
                ("ask", 1.0, a.ask_slope, a.ask_curv),
            ):
                xs = [0.0, 1.0]
                if curv != 0.0 and 0.0 < -slope / (2.0 * curv) < 1.0:
                    xs.append(-slope / (2.0 * curv))
                profile = (1.0 + sign * (a.spread / 2.0 + slope * x + curv * x * x) for x in xs)
                if min(profile) <= 0:
                    v.append(f"{tag}: {side} density hits zero inside the depth range")
        asset_ids = {a.asset_id for a in self.assets}
        for t, a_in, a_out, size in self.scripted_trades:
            if t < 1 or t > max(self.horizon, 1):
                v.append(f"script trade at t={t} outside [1, horizon]")
            if a_in not in asset_ids or a_out not in asset_ids:
                v.append(f"script trade references unknown asset {a_in}->{a_out}")
            elif a_in == a_out:
                v.append(f"script trade at t={t} swaps {a_in} for itself")
            if not math.isfinite(size):
                v.append(f"script trade size must be finite, got {size}")
            elif size <= 0:
                v.append(f"script trade size must be > 0, got {size}")
        return v

    def require_valid(self) -> "ScenarioConfig":
        violations = self.validate()
        if violations:
            raise ConfigInvalid(violations)
        return self


def _meets(x, rule: str) -> bool:
    """Whether ``x`` meets ``rule``; an interval rejects NaN, a lone bound
    does not."""
    if rule[0] in "[(":
        lo, hi = (float(b) for b in rule[1:-1].split(","))
        return (lo <= x if rule[0] == "[" else lo < x) and (x <= hi if rule[-1] == "]" else x < hi)
    op, bound = rule.split()
    return not (x < float(bound) if op == ">=" else x <= float(bound))


def _field_violations(cfg, tag: str = "") -> list[str]:
    """A violation per float field of ``cfg`` that is infinite or NaN, then
    one per field that breaks its rule or, as a $S amount, overflows ledger
    units. A field without an INI key is named "<tag>.<field>"."""
    named = [
        (f, f.metadata.get("ini", f"{tag}.{f.name}"), getattr(cfg, f.name)) for f in fields(cfg)
    ]
    v = [
        f"{name} must be finite, got {x}"
        for f, name, x in named
        if f.type == "float" and not math.isfinite(x)
    ]
    for f, name, x in named:
        rule = f.metadata.get("rule")
        if rule and not _meets(x, rule):
            v.append(f"{name} must be {'in ' * (rule[0] in '[(')}{rule}, got {x}")
        elif f.metadata.get("amount") and math.isfinite(x) and not math.isfinite(x * SCALE):
            v.append(f"{name} overflows ledger units, got {x}")
    return v


# each global parameter's INI name and type; load_config reads the
# sections in the order their fields are declared
_INI_NAMES = {f.name: f.metadata["ini"] for f in fields(ScenarioConfig) if f.metadata}
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
_FIELD_BY_KEY = {tuple(ini.split(".")): name for name, ini in _INI_NAMES.items()}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _FIELD_BY_KEY))
# what ``dfmm sweep --grid`` may set: each grid point draws its own seed
SWEEPABLE = set(_INI_NAMES) - {"seed"}
_ASSET_FIELD_TYPES = {
    f.name: f.type for f in fields(AssetConfig) if f.name != "asset_id"
}


def _convert(raw: str, type_name: str, where: str):
    if type_name == "bool":
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ParseError(f"{where}: not a boolean: {raw!r}")
    try:
        if type_name == "int":
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def load_config(path, *, seed_override: int | None = None) -> ScenarioConfig:
    """Parse a scenario INI file into a ScenarioConfig (not yet validated)."""
    # no header can name a default section "", so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None

    for section in parser.sections():
        if not (section in _SECTIONS or section == "script" or section.startswith("asset.")):
            raise ParseError(f"{path}: unknown section [{section}]")

    kwargs: dict = {}
    for section in _SECTIONS:
        if not parser.has_section(section):
            continue
        for key, value in parser.items(section):
            name = _FIELD_BY_KEY.get((section, key))
            if name is None:
                raise ParseError(f"[{section}] has unknown key {key!r}")
            kwargs[name] = _convert(value, _FIELD_TYPES[name], f"[{section}] {key}")

    assets = []
    for section in parser.sections():
        if not section.startswith("asset."):
            continue
        asset_id = section.split(".", 1)[1]
        akw: dict = {"asset_id": asset_id}
        for key, value in parser.items(section):
            if key not in _ASSET_FIELD_TYPES:
                raise ParseError(f"[{section}] has unknown key {key!r}")
            akw[key] = _convert(value, _ASSET_FIELD_TYPES[key], f"[{section}] {key}")
        assets.append(AssetConfig(**akw))
    kwargs["assets"] = tuple(sorted(assets, key=lambda a: a.asset_id))

    script = []
    if parser.has_section("script"):
        for key, value in parser.items("script"):
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 4:
                raise ParseError(
                    f"[script] {key}: expected 't, asset_in, asset_out, size'"
                )
            script.append(
                (
                    _convert(parts[0], "int", f"[script] {key}"),
                    parts[1],
                    parts[2],
                    _convert(parts[3], "float", f"[script] {key}"),
                )
            )
    kwargs["scripted_trades"] = tuple(script)

    cfg = ScenarioConfig(**kwargs)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    return cfg
