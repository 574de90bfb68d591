"""Command-line entry point.

Commands: validate a scenario config, run a scenario, sweep a parameter
grid, and inspect run output. Exit codes are stable: 0 success, 2
validation failure, 3 run halted fail-stop on an engine error (logs
preserved), 4 I/O or corruption. The DFMM_OUTPUT_ROOT environment
variable sets the default output root (default ./runs).

``run`` opens the run directory's log files before the engine is built,
so an unusable output path exits 4 before the first timestep, and
streams the log rows into them during the run through a writer process,
the balance sheet's ``ledger.csv`` included; an output error mid-run,
or the loss of the writer, also exits 4. ``sweep``
keeps no log rows, only each run's summary, and starts at most one
worker process per grid point. It prints its table in every case and
exits 2 when no grid point passes validation, 3 when any point halted,
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import replace

from .errors import BadRunDir, ParseError
from .sim.config import SWEEPABLE, _FIELD_TYPES, _convert, load_config
from .sim.engine import Engine
from .sim.output import LogWriter, read_log, read_manifest, write_logs

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BREACH = 3
EXIT_IO = 4


def _default_out(config_path: str, seed: int) -> str:
    root = os.environ.get("DFMM_OUTPUT_ROOT", "runs")
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return os.path.join(root, f"{stem}_seed{seed}")


def _load_valid(path: str, violations_to, seed: int | None = None):
    """The validated config of a scenario file, or None once a parse error
    (to stderr) or the violations (to ``violations_to``) are printed."""
    try:
        cfg = load_config(path, seed_override=seed)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None
    violations = cfg.validate()
    for v in violations:
        print(f"violation: {v}", file=violations_to)
    return None if violations else cfg


def cmd_validate(args) -> int:
    if _load_valid(args.config, sys.stdout) is None:
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_valid(args.config, sys.stderr, seed=args.seed)
    if cfg is None:
        return EXIT_VALIDATION
    outdir = args.out or _default_out(args.config, cfg.seed)
    try:
        with LogWriter(outdir) as writer:
            started = time.monotonic()
            artifacts = Engine(cfg).run(writer.write)
            duration = round(time.monotonic() - started, 6)
            write_logs(artifacts, outdir, writer, duration_seconds=duration)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {outdir}")
    if artifacts.summary["halted"]:
        print(f"run halted: {artifacts.summary['diagnostic']}", file=sys.stderr)
        return EXIT_BREACH
    return EXIT_OK


def _grid_points(spec: str) -> list[dict]:
    """Expand 'a=1,2;b=x,y' into the cross product of overrides."""
    axes: dict[str, list] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"grid axis {part!r} is not key=v1,v2,...")
        key, _, values = part.partition("=")
        key = key.strip()
        if key not in SWEEPABLE:
            raise ParseError(f"unknown sweep parameter {key!r}")
        if key in axes:
            raise ParseError(f"sweep parameter {key!r} given twice")
        axes[key] = [_convert(v, _FIELD_TYPES[key], f"--grid {key}") for v in values.split(",")]
    points: list[dict] = [{}]
    for key, values in axes.items():
        points = [dict(p, **{key: v}) for p in points for v in values]
    return points


def _sweep_seed(base_seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _discard(logs) -> None:
    """Drain for a run whose log rows nobody reads."""


def _sweep_worker(payload):
    """Summary of one grid point's run; an engine error halts the run,
    and the sweep reports the point as breach."""
    index, cfg = payload
    return index, Engine(cfg).run(_discard).summary


def cmd_sweep(args) -> int:
    base = _load_valid(args.config, sys.stderr)
    if base is None:
        return EXIT_VALIDATION
    try:
        points = _grid_points(args.grid)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    invalid = {}
    runnable = []
    for index, overrides in enumerate(points):
        cfg = replace(base, **overrides, seed=_sweep_seed(base.seed, index))
        bad = cfg.validate()
        if bad:
            invalid[index] = "; ".join(bad)
        else:
            runnable.append((index, cfg))

    if args.jobs > 1 and len(runnable) > 1:
        import multiprocessing  # 20+ ms with the pool: only when used
        from concurrent.futures import ProcessPoolExecutor

        # a child forked here could deadlock on a lock numpy's thread held;
        # the server preloads nothing (a console script's __main__ is dfmm)
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([])
        jobs = min(args.jobs, len(runnable))
        with ProcessPoolExecutor(jobs, mp_context=context) as pool:
            summaries = dict(pool.map(_sweep_worker, runnable))
    else:
        summaries = dict(map(_sweep_worker, runnable))

    keys = sorted({k for p in points for k in p})
    header = ["point"] + keys + [
        "fills", "final_treasury", "max_utilisation", "liquidations",
        "min_solvency_margin", "status",
    ]
    print(",".join(header))
    for index, overrides in enumerate(points):
        cells = [str(index)] + [repr(overrides.get(k, "")) for k in keys]
        if index in invalid:
            cells += ["", "", "", "", "", f"error: {invalid[index]}"]
        else:
            summary = summaries[index]
            status = "breach" if summary["halted"] else "ok"
            cells += [
                str(summary["fills"]),
                repr(summary["final_treasury"]),
                repr(summary["max_utilisation"]),
                str(summary["liquidations"]),
                repr(summary["min_solvency_margin"]),
                status,
            ]
        print(",".join(cells))
    if not runnable:
        return EXIT_VALIDATION
    return EXIT_BREACH if any(s["halted"] for s in summaries.values()) else EXIT_OK


# the column each log's --from/--to filters on, the first of these it has
TIME_COLUMNS = ("timestep", "time", "epoch", "slot_id")


def _row_asset_match(header, row, asset: str) -> bool:
    for i, name in enumerate(header):
        if name in ("asset", "context", "pair"):  # an asset, "*" or a pair "A->B"
            return row[i] == "*" or asset in row[i].split("->")
        if name == "asset_in":  # the ledger: asset_out follows
            return asset in row[i : i + 2]
    return True


def cmd_inspect(args) -> int:
    try:
        read_manifest(args.outdir)
        header, rows = read_log(args.outdir, args.log)
    except BadRunDir as exc:
        print(f"inspect error: {exc}", file=sys.stderr)
        return EXIT_IO
    by_time = args.time_from is not None or args.time_to is not None
    col = next((i for i, name in enumerate(header) if name in TIME_COLUMNS), None)
    if by_time and col is None:
        print(f"inspect error: {args.log} log has no time column to filter", file=sys.stderr)
        return EXIT_IO
    print(",".join(header))
    for row in rows:
        if args.asset and not _row_asset_match(header, row, args.asset):
            continue
        if by_time:
            try:
                t = float(row[col])
            except ValueError:
                continue
            if args.time_from is not None and t < args.time_from:
                continue
            if args.time_to is not None and t > args.time_to:
                continue
        print(",".join(row))
    return EXIT_OK


def positive_int(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfmm",
        description="Dynamic-function market maker scenario engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario config file")
    p.add_argument("config")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="run a scenario and write logs + manifest")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="run a parameter grid")
    p.add_argument("config")
    p.add_argument("--grid", required=True, help="e.g. 'k=1,2,3;theta=0.001,0.003'")
    p.add_argument(
        "--jobs", type=positive_int, default=1, help="parallel processes, at most one per point"
    )
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("inspect", help="print filtered rows from a run log")
    p.add_argument("outdir")
    p.add_argument("--log", required=True, help="log kind, e.g. trades, treasury, ledger")
    p.add_argument("--asset", default=None, help="filter by asset id")
    p.add_argument("--from", dest="time_from", type=float, default=None)
    p.add_argument("--to", dest="time_to", type=float, default=None)
    p.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
