"""Scenario generator for the benchmark workloads.

Every workload is ``scenarios/demo.ini`` plus a fixed set of overrides,
with the benchmark's ``--seed`` written into ``[run] seed``. The engine
only ever sees the INI text produced here, so the same workload and seed
always give the same scenario file.
"""

from __future__ import annotations

import configparser
import io

# Why each workload exists and which layer it is meant to load; the
# same lines are recorded in BENCHMARK.json.
WHY = {
    "calm": "2 assets, ~1.5 quotes/step, refit every step: fixed per-step "
    "work (refit, metrics, solvency) dominates; bypass case for pricing",
    "flow": "2 assets, ~9 quotes/step with 10-20% rejects: quote_swap "
    "accept and reject paths and the ELDF solves dominate",
    "wide": "6 assets, epoch every step, refit every 5th: vault, treasury "
    "and auction epoch work and log writing dominate; bypass case for refit",
}

OVERRIDES = {
    "calm": {"run": {"horizon": "2000"}, "traders": {"rate": "0.8"}},
    "flow": {"run": {"horizon": "2000"}, "traders": {"rate": "8.0"}},
    "wide": {
        "run": {"horizon": "1500", "slot_len": "5", "epoch_len": "1"},
        "traders": {"rate": "3.0"},
    },
}

# wide: three copies of each demo asset, (mid_price scale, sigma scale).
WIDE_VARIANTS = ((1.0, 1.0), (2.0, 0.75), (0.5, 1.5))


def _read(demo_path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(demo_path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    return parser


def _widen(parser: configparser.ConfigParser) -> None:
    """Replace each demo asset by three scaled copies of it."""
    bases = [s for s in parser.sections() if s.startswith("asset.")]
    for section in bases:
        base = dict(parser.items(section))
        parser.remove_section(section)
        for i, (mid_scale, sigma_scale) in enumerate(WIDE_VARIANTS, start=1):
            name = f"{section}{i}"
            parser.add_section(name)
            for key, value in base.items():
                parser.set(name, key, value)
            parser.set(name, "mid_price", repr(float(base["mid_price"]) * mid_scale))
            parser.set(name, "sigma", repr(float(base["sigma"]) * sigma_scale))


def render(demo_path, overrides: dict, seed: int, *, wide: bool = False) -> str:
    """INI text of demo.ini with ``overrides`` ({section: {key: value}})."""
    parser = _read(demo_path)
    for section, values in overrides.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, value in values.items():
            parser.set(section, key, str(value))
    parser.set("run", "seed", str(int(seed)))
    if wide:
        _widen(parser)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def build(workload: str, seed: int, demo_path, horizon: int | None = None) -> str:
    """INI text of one named workload at ``seed``; ``horizon`` shortens it."""
    overrides = {s: dict(v) for s, v in OVERRIDES[workload].items()}
    if horizon is not None:
        overrides["run"]["horizon"] = str(horizon)
    return render(demo_path, overrides, seed, wide=workload == "wide")


def shape(ini_text: str) -> dict:
    """Horizon, slot length and asset count of a rendered scenario."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(ini_text)
    return {
        "horizon": parser.getint("run", "horizon"),
        "slot_len": parser.getint("run", "slot_len", fallback=1),
        "assets": sum(1 for s in parser.sections() if s.startswith("asset.")),
    }
