"""Run output: delimiter-separated log files plus a JSON manifest.

Every log file starts with a schema-version comment line and a header
row; rows hold plain values (int, float, str, bool or None), each
rendered by str(), which gives floats their shortest round-trip form, so
identical runs produce identical bytes. The manifest names the config
hash, seed, engine version and every file with its row count; its wall
clock duration and per-phase ``perf`` seconds are not deterministic.

A ``LogWriter`` writes every log file's header lines when it is created
and then hands rows to a writer process, which formats them and appends
them to the files while the engine runs on; the engine's process only
sends them. ``dfmm run`` streams the engine's rows that way during the
run, the balance sheet's ledger rows (``ledger.csv``) included; the
rows of ``trades.csv`` are rendered from the ledger's fills as they go.
``write_logs`` is the last write: the rows still held, then, once the
writer has finished, ``summary.json`` and the manifest, which is
written last.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import subprocess
import sys
from dataclasses import asdict

from .. import __version__
from ..errors import BadRunDir
from ..ledger import LEDGER, trade_rows

MANIFEST_NAME = "manifest.json"

SCHEMAS = {
    "trades": (
        "timestep", "pair", "v_in", "v_s", "v_prime_s", "rp_x", "rp_y",
        "fee", "v_out", "t_x_after", "t_y_after",
    ),
    "curves": ("slot_id", "asset", "side", "c2", "c1", "c0", "v_lo", "v_hi"),
    "vaults": (
        "epoch", "asset", "side", "c_before", "premium_flow", "settlement",
        "c_after", "liquidated",
    ),
    "auction": (
        "time", "asset", "side", "regime", "breach_clock", "target",
        "a_before", "a_after", "capped",
    ),
    "treasury": ("time", "kind", "asset", "amount", "tr_after"),
    "metrics": ("timestep", "metric_id", "context", "value"),
    "rewards": ("agent", "asset", "class", "claimable"),
    "ledger": LEDGER,
}
LOGGED = tuple(kind for kind in SCHEMAS if kind != "trades")  # the rest render from these

# one "%s" per column: str() of a float is its shortest round-trip repr
_TEMPLATES = {kind: ",".join(["%s"] * len(header)) + "\n" for kind, header in SCHEMAS.items()}

_WRITER_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_logwriter.py")


def config_hash(cfg) -> str:
    payload = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class LogWriter:
    """The run directory's log files and the writer process that fills them.

    Creates ``outdir`` and writes each file's schema and header lines in
    this process, so an unusable directory fails before a run starts,
    then starts the writer process (``_logwriter.py``), which appends
    every row ``write`` sends it, as it is. Rows must hold plain values:
    the writer runs under ``-bb`` and refuses a row with raw bytes, which
    ``marshal`` sends for a numpy scalar. ``rows`` counts rows per kind.

    ``close`` waits for the writer to finish; it raises ``OSError`` if
    the writer failed, and closing again does nothing. A writer that
    dies mid-run makes the next ``write`` raise ``BrokenPipeError``.
    """

    def __init__(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        self.rows = dict.fromkeys(SCHEMAS, 0)
        self._t_units: dict[str, int] = {}
        files = {}
        for kind, header in SCHEMAS.items():
            path = os.path.join(outdir, f"{kind}.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(f"# schema=dfmm.{kind}.v1\n")
                fh.write(",".join(header) + "\n")
            files[kind] = (path, _TEMPLATES[kind])
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-bb", _WRITER_SCRIPT],
            stdin=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            self._send(files)
        except OSError:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            self.close()
        except OSError:
            # the writer's own error names the cause better than the
            # broken pipe it left behind; any other error in flight stands
            if exc_type is None or issubclass(exc_type, OSError):
                raise

    def _send(self, message) -> None:
        data = marshal.dumps(message)
        self._proc.stdin.write(len(data).to_bytes(4, "little") + data)
        self._proc.stdin.flush()

    def write(self, logs) -> None:
        """Send the rows of ``logs`` (kind -> rows, any subset of ``LOGGED``)
        and the ``trades`` rows of its ledger rows, with T carried over from
        the last write, to the writer, which appends them in order."""
        if logs.get("ledger"):
            logs = {**logs, "trades": trade_rows(logs["ledger"], self._t_units)}
        batch = {}
        for kind, rows in logs.items():
            if rows:
                batch[kind] = rows
                self.rows[kind] += len(rows)
        if batch:
            self._send(batch)

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        lines = proc.stderr.read().decode("utf-8", "replace").strip().splitlines()
        proc.stderr.close()
        code = proc.wait()
        if code < 0:
            raise OSError(f"log writer killed by signal {-code}")
        if code != 0:
            raise OSError(lines[-1] if lines else f"log writer exited with status {code}")


def write_logs(artifacts, outdir, writer: LogWriter, duration_seconds: float = 0.0) -> dict:
    """Write the rows in ``artifacts.logs``, summary.json and the manifest;
    returns the manifest dict.

    ``writer`` is the ``LogWriter`` on ``outdir`` that took the rows
    drained during the run; it is closed here, which waits for its
    process. ``duration_seconds`` (wall clock) and ``artifacts.perf`` go
    only into the manifest, so the logs and summary.json stay
    byte-deterministic.
    """
    with writer:
        writer.write(artifacts.logs)
    files = [{"name": f"{kind}.csv", "rows": n} for kind, n in writer.rows.items()]
    summary_path = os.path.join(outdir, "summary.json")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(artifacts.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files.append({"name": "summary.json", "rows": 1})
    manifest = {
        "schema": "dfmm.manifest.v1",
        "engine_version": __version__,
        "config_hash": config_hash(artifacts.config),
        "seed": artifacts.config.seed,
        "files": files,
        "duration_seconds": duration_seconds,
        "perf": artifacts.perf,
    }
    with open(os.path.join(outdir, MANIFEST_NAME), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def read_manifest(outdir) -> dict:
    path = os.path.join(outdir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decode errors too
        raise BadRunDir(f"{path}: {exc}") from None
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != "dfmm.manifest.v1":
        raise BadRunDir(f"{path}: unexpected schema {schema!r}")
    try:
        names = [entry["name"] for entry in manifest.get("files", [])]
    except (TypeError, KeyError) as exc:
        raise BadRunDir(f"{path}: bad files list: {exc!r}") from None
    for name in names:
        if not os.path.exists(os.path.join(outdir, name)):
            raise BadRunDir(f"missing file listed in manifest: {name}")
    return manifest


def read_log(outdir, kind) -> tuple[tuple, list]:
    """Header and raw string rows of one log kind."""
    if kind not in SCHEMAS:
        raise BadRunDir(f"unknown log kind {kind!r}; know {sorted(SCHEMAS)}")
    path = os.path.join(outdir, f"{kind}.csv")
    if not os.path.exists(path):
        raise BadRunDir(f"log file missing: {path}")
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise BadRunDir(f"{path}: {exc}") from None
    if len(lines) < 2:
        raise BadRunDir(f"{path}: no header row")
    header = tuple(lines[1].split(","))
    for line in lines[2:]:
        if line:
            rows.append(tuple(line.split(",")))
    return header, rows
