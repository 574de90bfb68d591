"""The validate, run, sweep and inspect commands, through ``cli.main``."""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from dfmm import cli
from dfmm.ledger import BalanceSheet, views
from dfmm.money import from_units, to_units
from dfmm.sim import engine as engine_mod
from dfmm.sim import output
from dfmm.sim.config import load_config
from dfmm.sim.engine import Engine
from dfmm.vaults import LONG
from test_sim import DEMO, asset, demo_ini, scenario

SRC = Path(cli.__file__).resolve().parent.parent


def child_pids() -> set[int]:
    """This process's children, exited but unreaped ones included, by the
    parent pid in each ``/proc/<pid>/stat``. A test compares the set before
    and after a run, so children left by earlier tests (a ``sweep --jobs``
    forkserver) do not count."""
    me, pids = os.getpid(), set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:  # not a process, or exited since the listing
            continue
        # pid (comm) state ppid ...: comm may hold spaces and parentheses
        if int(stat.rpartition(b")")[2].split()[1]) == me:
            pids.add(int(entry))
    return pids


def ledger_rows(outdir) -> list[tuple]:
    """The rows of a run's ledger.csv, typed as the balance sheet logs them."""

    def cell(convert, text):
        return convert(text) if text else ""

    rows = []
    for t, kind, a_in, a_out, v_in, v_out, *cells, reason in output.read_log(outdir, "ledger")[1]:
        floats = (cell(float, v_in), cell(float, v_out))
        units, agent, shares = cells[:6], cells[6], cells[7:]
        rows.append((
            int(t), kind, a_in, a_out, *floats, *(cell(int, u) for u in units), agent,
            *(cell(int, u) for u in shares), reason,
        ))
    return rows


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
    # would raise BadCurve there.
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

    # numpy's SeedSequence refuses a negative seed, so the run would end
    # in a traceback after creating its directory
    @pytest.mark.parametrize("command", ["validate", "run", "run --seed", "sweep"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("DFMM_OUTPUT_ROOT", str(tmp_path / "runs"))
        if command == "run --seed":
            argv = ["run", str(DEMO), "--seed", "-5"]
        else:
            argv = [command, str(demo_ini(tmp_path, {"run": {"seed": -5}}))]
            argv += ["--grid", "k=1,2"] if command == "sweep" else []
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            "violation: run.seed must be >= 0, got -5"
        ]
        assert not (tmp_path / "runs").exists()

    def test_removed_settlement_key_is_a_parse_error(self, tmp_path, capsys):
        ini = demo_ini(tmp_path, {"vaults": {"settlement_enabled": "true"}})
        assert cli.main(["validate", str(ini)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("parse error: ")

    @pytest.mark.parametrize(
        "section,key",
        [
            # the split never read alpha: it cancels from both vault shares
            ("rewards", "alpha"),
            # utilisation's report cap is the constant vaults.U_MAX_REPORT
            ("engine", "u_max_report"),
        ],
    )
    def test_removed_key_is_a_parse_error(self, tmp_path, capsys, section, key):
        ini = demo_ini(tmp_path, {section: {key: "1.0"}})
        assert cli.main(["validate", str(ini)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"parse error: [{section}] has unknown key {key!r}\n"
        assert captured.out == ""

    # a misspelt section would otherwise leave the arbitrageur silently off
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unknown_section_is_a_parse_error(self, tmp_path, capsys, command):
        ini = demo_ini(tmp_path, {"arbitrager": {"enabled": "true"}})
        out = tmp_path / "out"
        argv = [command, str(ini)] + (["--out", str(out)] if command == "run" else [])
        assert cli.main(argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "unknown section [arbitrager]" in err
        assert not out.exists()

    # configparser copies [DEFAULT]'s keys into every section, which would
    # blame the first section checked for a key it does not name
    def test_default_section_is_a_parse_error(self, tmp_path, capsys):
        ini = tmp_path / "scenario.ini"
        ini.write_text("[DEFAULT]\nhorizon = 5\n\n" + DEMO.read_text(encoding="utf-8"))
        assert cli.main(["validate", str(ini)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"parse error: {ini}: unknown section [DEFAULT]\n"
        assert captured.out == ""

    # the read decodes as UTF-8: any other bytes are a parse error
    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("DFMM_OUTPUT_ROOT", str(tmp_path / "runs"))
        ini = tmp_path / "scenario.ini"
        ini.write_bytes(DEMO.read_bytes() + b"# \xff\n")
        argv = [command, str(ini)] + (["--grid", "k=1,2"] if command == "sweep" else [])
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"parse error: {ini}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "runs").exists()

    # each of these passed validate at one time and then ended the run
    # with a traceback, a silent reject or a halt
    @pytest.mark.parametrize(
        "overrides,violation",
        [
            (
                {"asset.ALPHA": {"mid_price": "nan"}},
                "asset.ALPHA.mid_price must be finite, got nan",
            ),
            ({"asset.ALPHA": {"deposit": "inf"}}, "asset.ALPHA.deposit must be finite, got inf"),
            ({"premium": {"lambda": "inf"}}, "premium.lambda must be finite, got inf"),
            ({"traders": {"size_mu": "nan"}}, "traders.size_mu must be finite, got nan"),
            ({"asset.ALPHA": {"c_long": "inf"}}, "asset.ALPHA.c_long must be finite, got inf"),
            (
                {"asset.ALPHA": {"c_short": "1e300"}},
                "asset.ALPHA.c_short overflows ledger units, got 1e+300",
            ),
            ({"vaults": {"margin_floor": "inf"}}, "vaults.margin_floor must be finite, got inf"),
            (
                {"vaults": {"margin_floor": "1e300"}},
                "vaults.margin_floor overflows ledger units, got 1e+300",
            ),
            ({"traders": {"size_sigma": "-1"}}, "traders.size_sigma must be >= 0, got -1.0"),
            (
                {"script": {"a": "3, ALPHA, ALPHA, 5.0"}},
                "script trade at t=3 swaps ALPHA for itself",
            ),
            (
                {"script": {"a": "3, ALPHA, BETA, inf"}},
                "script trade size must be finite, got inf",
            ),
            # numpy's Poisson draw raises "lam value too large"
            (
                {"traders": {"rate": "1e30"}},
                "traders.rate must be <= 9.223372006484771e+18, got 1e+30",
            ),
        ],
        ids=[
            "mid_price-nan", "deposit-inf", "lambda-inf", "size_mu-nan", "c_long-inf",
            "c_short-overflow", "margin_floor-inf", "margin_floor-overflow",
            "size_sigma-negative", "script-same-asset", "script-size-inf",
            "rate-poisson-overflow",
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_that_would_crash_a_run_exits_2(
        self, tmp_path, capsys, command, overrides, violation
    ):
        ini = demo_ini(tmp_path, {"run": {"horizon": 30}, **overrides})
        out = tmp_path / "out"
        argv = [command, str(ini)] + (["--out", str(out)] if command == "run" else [])
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [f"violation: {violation}"]
        assert not out.exists()


    # each of these passed validate: an id that splits a log cell or a pair
    # wrote rows with more cells than their header, and a run with the grid
    # asked numpy for 72.8 TiB (so this test only validates)
    @pytest.mark.parametrize(
        "overrides,violation",
        [
            *(
                ({f"asset.{bad}": {}}, f"asset id {bad!r} must be letters, digits, '_' or '-'")
                for bad in ("BE,TA", "A->B", "*", "")
            ),
            (
                {"asset.ALPHA": {"n_points": 10**13}},
                "asset.ALPHA.n_points must be in [3, 10000], got 10000000000000",
            ),
        ],
        ids=["id-comma", "id-arrow", "id-star", "id-empty", "n_points-above-max"],
    )
    def test_id_or_grid_that_would_break_a_run_exits_2(
        self, tmp_path, capsys, overrides, violation
    ):
        ini = demo_ini(tmp_path, overrides)
        assert cli.main(["validate", str(ini)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().out.splitlines() == [f"violation: {violation}"]


class TestRun:
    def test_infinite_trade_size_rejects_without_a_traceback(self, tmp_path, capsys):
        # lognormal sizes with mu = 800 overflow to inf: no trade has ledger units
        ini = demo_ini(tmp_path, {"run": {"horizon": 30}, "traders": {"size_mu": 800}})
        out = tmp_path / "out"
        assert cli.main(["run", str(ini), "--out", str(out)]) in (cli.EXIT_OK, cli.EXIT_BREACH)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rejected"] > 0

    # -0.0 meets size_sigma >= 0, and numpy's lognormal refuses it
    def test_negative_zero_size_sigma_runs(self, tmp_path, capsys):
        ini = demo_ini(tmp_path, {"run": {"horizon": 30}, "traders": {"size_sigma": "-0.0"}})
        assert cli.main(["run", str(ini), "--out", str(tmp_path / "out")]) == cli.EXIT_OK

    def test_overflowing_mid_halts_with_exit_3(self, tmp_path, capsys):
        ini = demo_ini(tmp_path, {"run": {"horizon": 30}, "asset.ALPHA": {"drift": 800}})
        out = tmp_path / "out"
        assert cli.main(["run", str(ini), "--out", str(out)]) == cli.EXIT_BREACH
        diagnostic = "NonFiniteAmount at t=1: asset ALPHA: external mid overflows"
        assert capsys.readouterr().err == f"run halted: {diagnostic}\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diagnostic"] == diagnostic
        assert (out / "manifest.json").exists()

    def test_underflowing_mid_halts_with_exit_3(self, tmp_path, capsys):
        # exp(-400) twice underflows the mid to 0 at t=2, between refits
        ini = demo_ini(
            tmp_path, {"run": {"horizon": 30, "slot_len": 3}, "asset.ALPHA": {"drift": -400}}
        )
        out = tmp_path / "out"
        assert cli.main(["run", str(ini), "--out", str(out)]) == cli.EXIT_BREACH
        diagnostic = "NonFiniteAmount at t=2: asset ALPHA: external mid underflows to 0"
        assert capsys.readouterr().err == f"run halted: {diagnostic}\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diagnostic"] == diagnostic

    def test_premium_overflowing_ledger_units_halts_with_exit_3(self, tmp_path, capsys):
        ini = demo_ini(tmp_path, {"premium": {"d_max": "1e300"}})
        out = tmp_path / "out"
        assert cli.main(["run", str(ini), "--out", str(out)]) == cli.EXIT_BREACH
        err = capsys.readouterr().err
        assert err.startswith("run halted: NonFiniteAmount at t=15: no ledger units")
        assert err.count("\n") == 1
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["fills"], summary["rejected"]) == (17, 11)

    def test_output_path_that_is_a_file_exits_4_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_engine(cfg):
            raise AssertionError("engine built for an unusable output path")

        monkeypatch.setattr(cli, "Engine", no_engine)
        out = tmp_path / "out"
        out.write_text("taken")
        assert cli.main(["run", str(DEMO), "--out", str(out)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("output error: [Errno 17] File exists") and err.count("\n") == 1
        assert out.read_text() == "taken"

    def test_output_error_mid_run_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine_mod, "DRAIN_ROWS", 200)
        write = output.LogWriter.write
        drains = []

        def full_on_second_drain(self, logs):
            drains.append(1)
            if len(drains) == 2:
                raise OSError(28, "No space left on device")
            write(self, logs)

        monkeypatch.setattr(output.LogWriter, "write", full_on_second_drain)
        out = tmp_path / "out"
        assert cli.main(["run", str(DEMO), "--out", str(out)]) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == "output error: [Errno 28] No space left on device\n"
        assert captured.out == ""
        assert len(drains) == 2 and not (out / "manifest.json").exists()

    def test_writer_lost_mid_run_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine_mod, "DRAIN_ROWS", 200)
        write = output.LogWriter.write
        drains = []

        def killed_on_second_drain(self, logs):
            drains.append(1)
            if len(drains) == 2:
                pid = self._proc.pid
                os.kill(pid, signal.SIGKILL)
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, left to reap
            write(self, logs)

        monkeypatch.setattr(output.LogWriter, "write", killed_on_second_drain)
        out = tmp_path / "out"
        before = child_pids()
        assert cli.main(["run", str(DEMO), "--out", str(out)]) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == "output error: log writer killed by signal 9\n"
        assert captured.out == ""
        assert len(drains) == 2 and not (out / "manifest.json").exists()
        assert child_pids() <= before  # the killed writer is reaped

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_writer_output_error_exits_4(self, tmp_path, capsys, monkeypatch):
        send = output.LogWriter._send

        def trades_to_a_full_disk(self, message):
            if isinstance(message.get("trades"), tuple):  # the files, sent first
                message = dict(message, trades=("/dev/full", message["trades"][1]))
            send(self, message)

        monkeypatch.setattr(output.LogWriter, "_send", trades_to_a_full_disk)
        out = tmp_path / "out"
        before = child_pids()
        assert cli.main(["run", str(DEMO), "--out", str(out)]) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == "output error: [Errno 28] No space left on device\n"
        assert captured.out == "" and not (out / "manifest.json").exists()
        assert child_pids() <= before

    # a busy demo that completes, and one that halts on OutOfDomain at
    # t=81; the small budget makes either run drain many times
    BUSY = {"traders": {"rate": 8}, "run": {"horizon": 300}}
    HALTS = {"engine": {"clamp_extrapolation": "false"}, **BUSY, "run": {"horizon": 400}}

    @pytest.mark.parametrize(
        "overrides,exit_code,budget",
        [
            (BUSY, cli.EXIT_OK, engine_mod.DRAIN_ROWS),
            (BUSY, cli.EXIT_OK, 97),
            (HALTS, cli.EXIT_BREACH, 97),
        ],
        ids=["completed", "completed-small-budget", "halted-small-budget"],
    )
    def test_streamed_run_matches_the_run_kept_in_memory(
        self, tmp_path, monkeypatch, overrides, exit_code, budget
    ):
        monkeypatch.setattr(engine_mod, "DRAIN_ROWS", budget)
        ini = demo_ini(tmp_path, overrides)
        streamed, kept = tmp_path / "streamed", tmp_path / "kept"
        before = child_pids()
        assert cli.main(["run", str(ini), "--out", str(streamed)]) == exit_code
        assert child_pids() <= before  # the writer process is reaped
        eng = Engine(load_config(ini))
        art = eng.run()
        assert art.summary["halted"] == (exit_code == cli.EXIT_BREACH)
        assert sum(map(len, art.logs.values())) > 2 * engine_mod.DRAIN_ROWS
        manifest = output.write_logs(art, kept, output.LogWriter(kept))
        names = sorted(p.name for p in kept.iterdir())
        assert names == sorted(p.name for p in streamed.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (streamed / name).read_bytes() == (kept / name).read_bytes(), name
        files = json.loads((streamed / "manifest.json").read_text())["files"]
        assert files == manifest["files"]
        for entry in files[:-1]:  # every CSV: its rows below the two header lines
            lines = (streamed / entry["name"]).read_bytes().count(b"\n")
            assert entry["rows"] == lines - 2, entry
        # the sheet replays from the streamed ledger.csv alone
        ledger = ledger_rows(streamed)
        assert {row[1] for row in ledger} >= {"deposit_plp", "trade"}
        assert ledger == eng.sheet.log
        assert BalanceSheet.replay(ledger).balances() == eng.sheet.balances()

    def test_ledger_replay_reproduces_the_treasury_and_the_rewards(self, tmp_path, monkeypatch):
        # many drains, so the treasury balance is carried across batches
        monkeypatch.setattr(engine_mod, "DRAIN_ROWS", 97)
        out = tmp_path / "out"
        assert cli.main(["run", str(demo_ini(tmp_path, self.BUSY)), "--out", str(out)]) == 0
        ledger = ledger_rows(out)
        assert {row[1] for row in ledger} == {
            "deposit_plp", "trade", "rr_adjust", "reward", "vault_flow", "settle", "premium_flow",
        }
        sheet = BalanceSheet.replay(ledger)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_treasury"] == from_units(sheet.treasury_units) > 0
        claims = [
            (cls, aid, cls, str(from_units(units)))
            for (aid, cls), units in sorted(sheet.claimable_units.items())
        ]
        assert output.read_log(out, "rewards")[1] == claims and len(claims) == 6
        rendered = [tuple(map(str, row)) for row in views(ledger, {})["treasury"]]
        assert output.read_log(out, "treasury")[1] == rendered

    def test_ledger_replay_reproduces_the_vaults(self, tmp_path, monkeypatch):
        # test_sim's tiny vaults under busy flow, streamed in many drains:
        # X's long vault takes a deposit, Y's long vault lets a withdrawal
        # go over two boundaries, then is liquidated and revived
        monkeypatch.setattr(engine_mod, "DRAIN_ROWS", 97)
        small = dict(c_long=10.0, c_short=10.0, sigma=0.1)
        cfg = scenario(
            trader_rate=4, horizon=80, epoch_len=2, seed=1,
            assets=(asset("X", **small), asset("Y", mid_price=50.0, **small)),
        )
        eng = Engine(cfg)
        eng.queue_vault_flow("X", LONG, 5.0)
        eng.queue_vault_flow("Y", LONG, -5.0)
        while not eng.vaults["Y"].long.liquidated:
            eng.step_timestep()
        eng.queue_vault_flow("Y", LONG, 5.0)
        out = tmp_path / "out"
        with output.LogWriter(out) as writer:
            output.write_logs(eng.run(writer.write), out, writer)
        ledger = ledger_rows(out)
        y_long = [
            (row[1], row[14]) for row in ledger
            if row[0] > 0 and row[2] == "Y" and row[1] in ("vault_flow", "liquidate")
            and row[14] != ""
        ]
        (_, first), (_, rest), *flags = y_long
        assert -to_units(5.0) < first < 0 and first + rest == -to_units(5.0)
        assert flags == [("liquidate", 1), ("vault_flow", to_units(5.0)), ("liquidate", 0)]
        # balances() holds each vault's collateral and flag
        vaults = BalanceSheet.replay(ledger).balances()["vaults"]
        assert vaults == eng.sheet.balances()["vaults"]
        assert any(liquidated for _, liquidated in vaults.values())
        rendered = "".join(",".join(map(str, row)) + "\n" for row in views(ledger, {})["vaults"])
        assert (out / "vaults.csv").read_text().split("\n", 2)[2] == rendered


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

    def test_table_unchanged_by_draining(self, tmp_path, capsys, monkeypatch):
        # the rows each run drains are discarded; the summaries are not
        monkeypatch.setattr(engine_mod, "DRAIN_ROWS", 100)
        ini = demo_ini(tmp_path, {"run": {"horizon": 60}, "traders": {"rate": 8}})
        grid = "auction_enabled=false,true;k=1,3"
        assert cli.main(["sweep", str(ini), "--grid", grid]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "point,auction_enabled,k,fills,final_treasury,max_utilisation,liquidations,"
            "min_solvency_margin,status",
            "0,False,1.0,536,393.628060907355,0.20684475967762636,0,34.456426848161,ok",
            "1,False,3.0,510,361.03987011092,0.17089804880402124,0,51.360772248652,ok",
            "2,True,1.0,524,398.172310172754,0.20990760645020387,0,75.246544724846,ok",
            "3,True,3.0,529,351.170539353022,0.09711672809651388,0,46.020942787782,ok",
        ]

    def test_parallel_grid_matches_serial(self, tmp_path, capsys):
        ini = demo_ini(tmp_path, {"run": {"horizon": 20}})
        argv = ["sweep", str(ini), "--grid", "auction_enabled=false, TRUE", "--jobs"]
        assert cli.main(argv + ["1"]) == cli.EXIT_OK
        serial = capsys.readouterr().out
        assert cli.main(argv + ["2"]) == cli.EXIT_OK
        assert capsys.readouterr().out == serial

    def test_jobs_start_at_most_one_worker_per_point(self, tmp_path, capsys, monkeypatch):
        import concurrent.futures

        pools = []

        class SerialPool:
            """Records its worker count, checks its start method and maps
            in this process."""

            def __init__(self, max_workers, mp_context):
                assert mp_context.get_start_method() != "fork"
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        ini = demo_ini(tmp_path, {"run": {"horizon": 20}})
        argv = ["sweep", str(ini), "--grid", "auction_enabled=false, TRUE", "--jobs"]
        assert cli.main(argv + ["1"]) == cli.EXIT_OK
        serial = capsys.readouterr().out
        assert pools == []
        assert cli.main(argv + ["64"]) == cli.EXIT_OK
        assert capsys.readouterr().out == serial
        assert pools == [2]

    def test_no_valid_point_exits_2_after_its_table(self, tmp_path, capsys):
        ini = demo_ini(tmp_path, {"run": {"horizon": 12}})
        assert cli.main(["sweep", str(ini), "--grid", "trader_rate=nan"]) == cli.EXIT_VALIDATION
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows == ["0,nan,,,,,,error: traders.rate must be finite, got nan"]

    def test_halted_point_exits_3_after_its_table(self, tmp_path, capsys):
        # unclamped curves at rate 8 run a mark out of the fit domain
        ini = demo_ini(tmp_path, {"run": {"horizon": 200}, "traders": {"rate": 8}})
        grid = "clamp_extrapolation=false,true"
        assert cli.main(["sweep", str(ini), "--grid", grid]) == cli.EXIT_BREACH
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[-1] for r in rows] == ["breach", "ok"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_parse_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", str(DEMO), "--grid", "k=1,2", "--jobs", jobs])
        assert exc.value.code == cli.EXIT_VALIDATION
        assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err

    def test_process_pool_imported_only_by_parallel_sweep(self):
        code = "import sys, dfmm.cli; print('concurrent.futures.process' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout == "False\n", out.stderr

    # every scenario parameter but the seed, which each grid point draws;
    # reward_alpha is no parameter any more
    @pytest.mark.parametrize(
        "key,grid",
        [("not_a_param", "not_a_param=1"), ("seed", "seed=1,2"), ("reward_alpha", "reward_alpha=1,2")],
    )
    def test_unknown_grid_key_exits_2(self, capsys, key, grid):
        assert cli.main(["sweep", str(DEMO), "--grid", grid]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"parse error: unknown sweep parameter {key!r}\n"

    def test_repeated_grid_key_exits_2(self, capsys):
        # a later axis with the same key would overwrite the earlier one
        grid = "theta=0.001,0.002;theta=0.003"
        assert cli.main(["sweep", str(DEMO), "--grid", grid]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == "parse error: sweep parameter 'theta' given twice\n"
        assert captured.out == ""

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

    def rows(self, capsys, outdir, *args, log="metrics"):
        assert cli.main(["inspect", str(outdir), "--log", log, *args]) == cli.EXIT_OK
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == ",".join(output.SCHEMAS[log])
        return [r.split(",") for r in rows]

    def test_asset_and_time_filters(self, outdir, capsys):
        every = self.rows(capsys, outdir)
        kept = self.rows(capsys, outdir, "--asset", "BETA", "--from", "10", "--to", "20")
        # a slippage row's context is the pair it traded, matched on either leg
        assert kept == [
            r for r in every
            if (r[2] == "*" or "BETA" in r[2].split("->")) and 10 <= float(r[0]) <= 20
        ]
        assert {r[2] for r in kept} == {"BETA", "*", "ALPHA->BETA", "BETA->ALPHA"}
        assert {r[0] for r in kept} == {str(t) for t in range(10, 21)}
        slippage = [r for r in self.rows(capsys, outdir, "--asset", "ALPHA") if r[1] == "slippage"]
        assert slippage == [r for r in every if r[1] == "slippage"] and len(slippage) == 160

        # the ledger matches on either leg; each asset's deposit and its
        # vaults' opening collateral are at timestep 0
        every = self.rows(capsys, outdir, log="ledger")
        kept = self.rows(capsys, outdir, "--asset", "BETA", "--to", "20", log="ledger")
        assert kept == [r for r in every if "BETA" in r[2:4] and int(r[0]) <= 20]
        opening = [
            ["0", kind, aid]
            for aid in ("ALPHA", "BETA")
            for kind in ("deposit_plp", "vault_flow", "vault_flow")
        ]
        assert [r[:3] for r in every[:6]] == opening
        assert [r[:3] for r in kept[:3]] == opening[3:]
        assert {r[1] for r in kept[3:]} == {"trade", "settle", "premium_flow", "reward"}
        assert kept[-1][0] == "20"
        kept = self.rows(capsys, outdir, "--asset", "ALPHA", "--from", "1", "--to", "1",
                         log="ledger")
        assert kept == [r for r in every if r[0] == "1"] and len(kept) > 0

    def test_unknown_log_kind_exits_4(self, outdir, capsys):
        assert cli.main(["inspect", str(outdir), "--log", "nope"]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("inspect error:")

    @pytest.mark.parametrize("span", [["--from", "1"], ["--to", "3"], ["--from", "1", "--to", "3"]])
    def test_time_filter_on_a_log_without_a_time_column_exits_4(self, outdir, capsys, span):
        assert self.rows(capsys, outdir, log="rewards")
        assert cli.main(["inspect", str(outdir), "--log", "rewards", *span]) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "inspect error: rewards log has no time column to filter\n"

    def test_readme_tables_exactly_the_files_a_run_writes(self, outdir):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## A run directory", 1)[1].split("\n## ", 1)[0]
        tabled = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]
        written = {f"{kind}.csv" for kind in output.SCHEMAS} | {"summary.json", "manifest.json"}
        assert sorted(tabled) == sorted(written) == sorted(os.listdir(outdir))

    def corrupt(self, outdir, tmp_path, name, data: bytes):
        """A copy of the run directory with file ``name`` replaced by ``data``."""
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)
        (copy / name).write_bytes(data)
        return copy

    def inspect_error(self, capsys, rundir) -> str:
        assert cli.main(["inspect", str(rundir), "--log", "trades"]) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("inspect error:")
        return captured.err

    def test_emptied_log_exits_4(self, outdir, tmp_path, capsys):
        rundir = self.corrupt(outdir, tmp_path, "trades.csv", b"")
        assert "no header row" in self.inspect_error(capsys, rundir)

    def test_manifest_that_is_a_list_exits_4(self, outdir, tmp_path, capsys):
        rundir = self.corrupt(outdir, tmp_path, "manifest.json", b"[]\n")
        assert "unexpected schema None" in self.inspect_error(capsys, rundir)

    def test_manifest_with_a_bad_files_list_exits_4(self, outdir, tmp_path, capsys):
        manifest = json.dumps({"schema": "dfmm.manifest.v1", "files": 3}).encode()
        rundir = self.corrupt(outdir, tmp_path, "manifest.json", manifest)
        assert "bad files list" in self.inspect_error(capsys, rundir)

    def test_non_utf8_log_exits_4(self, outdir, tmp_path, capsys):
        data = (outdir / "trades.csv").read_bytes() + b"1,\xff\xfe\n"
        rundir = self.corrupt(outdir, tmp_path, "trades.csv", data)
        assert "can't decode" in self.inspect_error(capsys, rundir)
