"""The validate, sweep and inspect commands, through ``cli.main``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dfmm import cli
from test_sim import DEMO, demo_ini

SRC = Path(cli.__file__).resolve().parent.parent


class TestValidate:
    def test_demo_is_valid(self, capsys):
        assert cli.main(["validate", str(DEMO)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "ok\n"

    def test_violation_exits_2(self, tmp_path, capsys):
        ini = demo_ini(tmp_path, {"fees": {"xi": 0.01}})
        assert cli.main(["validate", str(ini)]) == cli.EXIT_VALIDATION
        assert "must not exceed fees.theta" in capsys.readouterr().out

    # Both profiles stay positive at x = 0 and x = 1 and dip below zero
    # only at their interior vertex x = 3/4.02; the engine's first refit
    # would raise NonPositiveDensity there.
    @pytest.mark.parametrize("side,slope,curv", [("bid", 3.0, -2.01), ("ask", -3.0, 2.01)])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_profile_dipping_to_zero_exits_2(
        self, tmp_path, capsys, command, side, slope, curv
    ):
        profile = {f"{side}_slope": slope, f"{side}_curv": curv}
        ini = demo_ini(tmp_path, {"asset.ALPHA": profile})
        out = tmp_path / "out"
        argv = [command, str(ini)] + (["--out", str(out)] if command == "run" else [])
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"asset.ALPHA: {side} density hits zero" in captured.out + captured.err
        assert not out.exists()

    # The snapshot fit squares the depth: at 1e200 that overflows to NaN
    # coefficients, at 1e-200 it underflows to a singular fit.
    @pytest.mark.parametrize("depth", ["1e200", "1e-200"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unfittable_depth_exits_2(self, tmp_path, capsys, command, depth):
        ini = demo_ini(tmp_path, {"asset.ALPHA": {"depth": depth}})
        out = tmp_path / "out"
        argv = [command, str(ini)] + (["--out", str(out)] if command == "run" else [])
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        violation = "asset.ALPHA.depth squared must be a normal finite float, got "
        assert f"violation: {violation}{float(depth)}" in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("depth", ["1.3e154", "1.5e-154"])
    def test_depth_with_normal_square_is_valid(self, tmp_path, capsys, depth):
        ini = demo_ini(tmp_path, {"asset.ALPHA": {"depth": depth}})
        assert cli.main(["validate", str(ini)]) == cli.EXIT_OK

    def test_removed_settlement_key_is_a_parse_error(self, tmp_path, capsys):
        ini = demo_ini(tmp_path, {"vaults": {"settlement_enabled": "true"}})
        assert cli.main(["validate", str(ini)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("parse error: ")


class TestSweep:
    def test_two_point_grid(self, tmp_path, capsys):
        ini = demo_ini(tmp_path, {"run": {"horizon": 20}})
        argv = ["sweep", str(ini), "--grid", "auction_enabled=false, TRUE", "--jobs", "1"]
        assert cli.main(argv) == cli.EXIT_OK
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == (
            "point,auction_enabled,fills,final_treasury,max_utilisation,"
            "liquidations,min_solvency_margin,status"
        )
        assert [r.split(",")[:2] for r in rows] == [["0", "False"], ["1", "True"]]
        assert all(r.endswith(",ok") for r in rows)

    def test_parallel_grid_matches_serial(self, tmp_path, capsys):
        ini = demo_ini(tmp_path, {"run": {"horizon": 20}})
        argv = ["sweep", str(ini), "--grid", "auction_enabled=false, TRUE", "--jobs"]
        assert cli.main(argv + ["1"]) == cli.EXIT_OK
        serial = capsys.readouterr().out
        assert cli.main(argv + ["2"]) == cli.EXIT_OK
        assert capsys.readouterr().out == serial

    def test_process_pool_imported_only_by_parallel_sweep(self):
        code = "import sys, dfmm.cli; print('concurrent.futures.process' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout == "False\n", out.stderr

    @pytest.mark.parametrize("grid", ["horizon=abc", "auction_enabled=flase,ture"])
    def test_unparsable_grid_value_exits_2(self, capsys, grid):
        assert cli.main(["sweep", str(DEMO), "--grid", grid]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("parse error: --grid ")


class TestInspect:
    @pytest.fixture(scope="class")
    def outdir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("demo") / "out"
        assert cli.main(["run", str(DEMO), "--out", str(out)]) == cli.EXIT_OK
        return out

    def rows(self, capsys, outdir, *args):
        assert cli.main(["inspect", str(outdir), "--log", "metrics", *args]) == cli.EXIT_OK
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "timestep,metric_id,context,value"
        return [r.split(",") for r in rows]

    def test_asset_and_time_filters(self, outdir, capsys):
        every = self.rows(capsys, outdir)
        kept = self.rows(capsys, outdir, "--asset", "BETA", "--from", "10", "--to", "20")
        assert kept == [
            r for r in every if r[2] in ("BETA", "*") and 10 <= float(r[0]) <= 20
        ]
        assert {r[2] for r in kept} == {"BETA", "*"}
        assert {r[0] for r in kept} == {str(t) for t in range(10, 21)}

    def test_unknown_log_kind_exits_4(self, outdir, capsys):
        assert cli.main(["inspect", str(outdir), "--log", "nope"]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("inspect error:")
