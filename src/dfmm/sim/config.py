"""Scenario configuration: INI parsing and full-range validation.

A scenario file is sectioned key/value text. Global sections hold run,
fee, premium, auction, vault, trader, and arbitrageur parameters, each
a ``ScenarioConfig`` field that names its "section.key" in its
metadata; each [asset.<id>] section declares one asset with its
external-market process and initial deposits; optional [script]
entries inject deterministic trades at fixed timesteps.
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
# each refit fits both sides of every asset over the whole grid, so the
# grid sets a run's refit time and memory
_N_POINTS_MAX = 10_000


@dataclass(frozen=True)
class AssetConfig:
    asset_id: str
    mid_price: float = 100.0
    sigma: float = 0.0
    drift: float = 0.0
    impact_alpha: float = 0.0
    depth: float = 1000.0
    n_points: int = 7
    spread: float = 0.002
    bid_slope: float = 0.05
    bid_curv: float = 0.02
    ask_slope: float = 0.05
    ask_curv: float = 0.02
    deposit: float = 1000.0
    c_long: float = 50000.0
    c_short: float = 50000.0


def _ini(key: str, default):
    """A scenario parameter that the INI ``key`` ("section.name") sets."""
    return field(default=default, metadata={"ini": key})


@dataclass(frozen=True)
class ScenarioConfig:
    horizon: int = _ini("run.horizon", 100)
    epoch_len: int = _ini("run.epoch_len", 10)
    slot_len: int = _ini("run.slot_len", 1)
    seed: int = _ini("run.seed", 1)
    theta: float = _ini("fees.theta", 0.003)
    xi: float = _ini("fees.xi", 0.001)
    a_init: float = _ini("premium.a_init", 5.0)
    a_min: float = _ini("premium.a_min", 1.0)
    lam: float = _ini("premium.lambda", 1.0)
    d_min: float = _ini("premium.d_min", 0.0001)
    d_max: float = _ini("premium.d_max", 0.001)
    u_max: float = _ini("premium.u_max", 1.0)
    k: float = _ini("premium.k", 2.0)
    auction_enabled: bool = _ini("auction.enabled", True)
    theta0: float = _ini("auction.theta0", 0.25)
    theta_star: float = _ini("auction.theta_star", 0.5)
    theta_dagger: float = _ini("auction.theta_dagger", 0.75)
    j_star: int = _ini("auction.j_star", 4)
    j_prime: int = _ini("auction.j_prime", 2)
    j_dagger: int = _ini("auction.j_dagger", 5)
    rho_long: float = _ini("vaults.rho_long", 0.5)
    rho_short: float = _ini("vaults.rho_short", 0.5)
    margin_floor: float = _ini("vaults.margin_floor", 1.0)
    clamp_extrapolation: bool = _ini("engine.clamp_extrapolation", True)
    u_max_report: float = _ini("engine.u_max_report", 10.0)
    reward_gamma: float = _ini("rewards.gamma", 0.01)
    trader_rate: float = _ini("traders.rate", 0.0)
    trader_size_mu: float = _ini("traders.size_mu", 2.0)
    trader_size_sigma: float = _ini("traders.size_sigma", 0.5)
    arb_enabled: bool = _ini("arbitrageur.enabled", False)
    arb_fixed_cost: float = _ini("arbitrageur.fixed_cost", 0.0)
    arb_max_exposure: float = _ini("arbitrageur.max_exposure", 5000.0)
    # the [asset.*] and [script] sections
    assets: tuple = ()
    scripted_trades: tuple = ()

    def validate(self) -> list[str]:
        """Itemised range violations; empty when the config is usable."""
        v: list[str] = []
        v += _non_finite(self, _INI_NAMES)
        if self.horizon < 0:
            v.append(f"run.horizon must be >= 0, got {self.horizon}")
        if self.epoch_len < 1:
            v.append(f"run.epoch_len must be >= 1, got {self.epoch_len}")
        if self.slot_len < 1:
            v.append(f"run.slot_len must be >= 1, got {self.slot_len}")
        if self.seed < 0:
            v.append(f"run.seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.theta < 1.0):
            v.append(f"fees.theta must be in [0, 1), got {self.theta}")
        if not (0.0 <= self.xi < 1.0):
            v.append(f"fees.xi must be in [0, 1), got {self.xi}")
        if self.xi > self.theta:
            v.append(f"fees.xi ({self.xi}) must not exceed fees.theta ({self.theta})")
        if self.a_min < 0:
            v.append(f"premium.a_min must be >= 0, got {self.a_min}")
        if self.a_init < self.a_min:
            v.append(
                f"premium.a_init ({self.a_init}) must be >= a_min ({self.a_min})"
            )
        if self.lam <= 0:
            v.append(f"premium.lambda must be > 0, got {self.lam}")
        if self.d_min < 0 or self.d_max < 0:
            v.append("premium.d_min and d_max must be >= 0")
        if self.d_min > self.d_max:
            v.append(
                f"premium.d_min ({self.d_min}) must not exceed d_max ({self.d_max})"
            )
        if self.u_max <= 0:
            v.append(f"premium.u_max must be > 0, got {self.u_max}")
        if self.k <= 0:
            v.append(f"premium.k must be > 0, got {self.k}")
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
        if self.j_dagger < 1:
            v.append(f"auction.j_dagger must be >= 1, got {self.j_dagger}")
        for name, rho in (("rho_long", self.rho_long), ("rho_short", self.rho_short)):
            if not (0.0 < rho <= 1.0):
                v.append(f"vaults.{name} must be in (0, 1], got {rho}")
        if self.margin_floor < 0:
            v.append(f"vaults.margin_floor must be >= 0, got {self.margin_floor}")
        elif math.isfinite(self.margin_floor) and not math.isfinite(self.margin_floor * SCALE):
            v.append(f"vaults.margin_floor overflows ledger units, got {self.margin_floor}")
        if self.u_max_report <= 0:
            v.append(f"engine.u_max_report must be > 0, got {self.u_max_report}")
        if not (0.0 <= self.reward_gamma < 1.0):
            v.append(f"rewards.gamma must be in [0, 1), got {self.reward_gamma}")
        if self.trader_rate < 0:
            v.append(f"traders.rate must be >= 0, got {self.trader_rate}")
        elif math.isfinite(self.trader_rate) and self.trader_rate > _POISSON_RATE_MAX:
            v.append(f"traders.rate must be <= {_POISSON_RATE_MAX}, got {self.trader_rate}")
        if self.trader_size_sigma < 0:
            v.append(f"traders.size_sigma must be >= 0, got {self.trader_size_sigma}")
        if self.arb_fixed_cost < 0:
            v.append(f"arbitrageur.fixed_cost must be >= 0, got {self.arb_fixed_cost}")
        if self.arb_max_exposure <= 0:
            v.append(
                f"arbitrageur.max_exposure must be > 0, got {self.arb_max_exposure}"
            )
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
            v += _non_finite(a, {f.name: f"{tag}.{f.name}" for f in fields(a)})
            for name in ("c_long", "c_short"):
                c = getattr(a, name)
                if math.isfinite(c) and not math.isfinite(c * SCALE):
                    v.append(f"{tag}.{name} overflows ledger units, got {c}")
            if a.mid_price <= 0:
                v.append(f"{tag}.mid_price must be > 0, got {a.mid_price}")
            if a.sigma < 0:
                v.append(f"{tag}.sigma must be >= 0, got {a.sigma}")
            if a.depth <= 0:
                v.append(f"{tag}.depth must be > 0, got {a.depth}")
            elif not (sys.float_info.min <= a.depth * a.depth <= sys.float_info.max):
                # the snapshot fit squares depths: NaN or singular otherwise
                v.append(f"{tag}.depth squared must be a normal finite float, got {a.depth}")
            if not 3 <= a.n_points <= _N_POINTS_MAX:
                v.append(f"{tag}.n_points must be in [3, {_N_POINTS_MAX}], got {a.n_points}")
            if a.deposit <= 0:
                v.append(f"{tag}.deposit must be > 0, got {a.deposit}")
            if a.c_long < 0 or a.c_short < 0:
                v.append(f"{tag}.c_long and c_short must be >= 0")
            if a.spread < 0:
                v.append(f"{tag}.spread must be >= 0, got {a.spread}")
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


def _non_finite(cfg, names: dict) -> list[str]:
    """A violation per float field of ``cfg`` that is infinite or NaN,
    named by ``names`` (field name -> INI name)."""
    return [
        f"{names[f.name]} must be finite, got {getattr(cfg, f.name)}"
        for f in fields(cfg)
        if f.type == "float" and not math.isfinite(getattr(cfg, f.name))
    ]


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
    try:
        if type_name == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
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
    except (OSError, configparser.Error) as exc:
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
