"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench

Each test spawns real ``dfmm run`` children on short scenarios.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

from dfmm.sim.config import load_config  # noqa: E402


@pytest.fixture(scope="module")
def traced_calm():
    ini = workloads.build("calm", 3, run.DEMO, horizon=40)
    return run.measure("calm", 3, 0, True, ini_text=ini)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_and_valid(workload):
    text = workloads.build(workload, 7, run.DEMO)
    assert text == workloads.build(workload, 7, run.DEMO)
    other = workloads.build(workload, 8, run.DEMO)
    changed = [
        (a, b) for a, b in zip(text.splitlines(), other.splitlines()) if a != b
    ]
    assert changed == [("seed = 7", "seed = 8")]
    path = run.WORK / "test" / f"{workload}.ini"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.validate() == []
    assert cfg.seed == 7
    assert len(cfg.assets) == (6 if workload == "wide" else 2)


def test_wide_assets_scale_the_demo_assets():
    shape = workloads.shape(workloads.build("wide", 1, run.DEMO))
    assert shape == {"horizon": 1500, "slot_len": 5, "assets": 6}
    text = workloads.build("wide", 1, run.DEMO)
    assert "[asset.ALPHA2]\nmid_price = 200.0" in text
    assert "[asset.BETA3]\nmid_price = 25.0" in text


@pytest.mark.parametrize("trace", [False, True])
def test_crashing_child_becomes_failed_timesteps(trace):
    # clamp_extrapolation=false at rate 8 raises OutOfDomain out of the
    # engine as a traceback, with no exit code 3 and no logs
    ini = workloads.render(
        run.DEMO,
        {
            "engine": {"clamp_extrapolation": "false"},
            "traders": {"rate": "8"},
            "run": {"horizon": "400"},
        },
        42,
    )
    result = run.measure("repro", 42, 0, trace, ini_text=ini)
    assert not result["correct"]
    assert not result["checks"]["all runs exit 0 with halted=false"]
    assert result["attempted"] == 400 * len(result["runs"])
    assert 0 < result["failed"] < result["attempted"]
    assert all(r["exit_code"] not in (0, None) for r in result["runs"])
    assert any("OutOfDomain" in e for e in result["errors"])
    metrics = result["metrics"]
    if not trace:
        share = 1 - result["failed"] / result["attempted"]
        assert metrics["completed_share"]["value"] == pytest.approx(share)


def test_trace_covers_every_binding_and_reconciles(traced_calm):
    assert traced_calm["correct"], traced_calm["checks"]
    spans = traced_calm["spans"]
    # 40 steps, refit every step, plus the refit in Engine.__init__
    assert spans["eldf.fit_eldf"]["calls"] == 2 * 2 * 41
    assert spans["sim.engine.step_timestep"]["calls"] == 40
    assert spans["cli.main"]["calls"] == 1


def test_benchmark_json_matches_emitted_metrics(traced_calm):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    emitted = {n: m["unit"] for n, m in traced_calm["metrics"].items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == emitted


def test_exits_without_result_when_program_is_absent():
    bare = run.WORK / "test" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
