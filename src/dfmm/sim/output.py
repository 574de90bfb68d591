"""Run output: delimiter-separated log files plus a JSON manifest.

Every log file starts with a schema-version comment line and a header
row; rows are comma-separated with every value rendered by str(), which
gives floats their shortest round-trip form (numpy scalars included), so
identical runs produce identical bytes. The manifest names the config
hash, seed, engine version and every file with its row count; its wall
clock duration and per-phase ``perf`` seconds are not deterministic.

A ``LogWriter`` opens every log file when it is created and appends rows
to them as they come, so ``dfmm run`` streams the engine's rows to disk
during the run, the balance sheet's ledger rows (``ledger.csv``)
included. ``write_logs`` is its last write: the rows still held,
then ``summary.json`` and the manifest, which is written last.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict

from ..errors import CorruptManifest, UnknownLogKind
from ..ledger import LEDGER

ENGINE_VERSION = "0.1.0"
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

# one "%s" per column: str() of a float is its shortest round-trip repr
_TEMPLATES = {kind: ",".join(["%s"] * len(header)) + "\n" for kind, header in SCHEMAS.items()}


def config_hash(cfg) -> str:
    payload = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class LogWriter:
    """The run directory's log files, open for appending rows.

    Creates ``outdir`` and writes each file's schema and header lines up
    front, so an unusable directory fails before a run starts. ``rows``
    counts the rows written per kind. Closing is idempotent.
    """

    def __init__(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        self.rows = dict.fromkeys(SCHEMAS, 0)
        self._files = {}
        try:
            for kind, header in SCHEMAS.items():
                path = os.path.join(outdir, f"{kind}.csv")
                fh = self._files[kind] = open(path, "w", encoding="utf-8", newline="\n")
                fh.write(f"# schema=dfmm.{kind}.v1\n")
                fh.write(",".join(header) + "\n")
        except OSError:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def write(self, logs) -> None:
        """Append the rows of ``logs`` (kind -> rows, any subset of SCHEMAS)."""
        for kind, fh in self._files.items():
            rows = logs.get(kind)
            if rows:
                fh.writelines(map(_TEMPLATES[kind].__mod__, rows))
                self.rows[kind] += len(rows)

    def close(self) -> None:
        for fh in self._files.values():
            fh.close()


def write_logs(artifacts, outdir, duration_seconds: float = 0.0, writer=None) -> dict:
    """Write the rows in ``artifacts.logs``, summary.json and the manifest;
    returns the manifest dict.

    ``writer`` is the ``LogWriter`` on ``outdir`` that took the rows
    drained during the run; it is closed here. Without one, a new writer
    takes every row. ``duration_seconds`` (wall clock) and
    ``artifacts.perf`` go only into the manifest, so the logs and
    summary.json stay byte-deterministic.
    """
    if writer is None:
        writer = LogWriter(outdir)
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
        "engine_version": ENGINE_VERSION,
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
        raise CorruptManifest(f"{path}: {exc}") from None
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != "dfmm.manifest.v1":
        raise CorruptManifest(f"{path}: unexpected schema {schema!r}")
    try:
        names = [entry["name"] for entry in manifest.get("files", [])]
    except (TypeError, KeyError) as exc:
        raise CorruptManifest(f"{path}: bad files list: {exc!r}") from None
    for name in names:
        if not os.path.exists(os.path.join(outdir, name)):
            raise CorruptManifest(f"missing file listed in manifest: {name}")
    return manifest


def read_log(outdir, kind) -> tuple[tuple, list]:
    """Header and raw string rows of one log kind."""
    if kind not in SCHEMAS:
        raise UnknownLogKind(f"unknown log kind {kind!r}; know {sorted(SCHEMAS)}")
    path = os.path.join(outdir, f"{kind}.csv")
    if not os.path.exists(path):
        raise CorruptManifest(f"log file missing: {path}")
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptManifest(f"{path}: {exc}") from None
    if len(lines) < 2:
        raise CorruptManifest(f"{path}: no header row")
    header = tuple(lines[1].split(","))
    for line in lines[2:]:
        if line:
            rows.append(tuple(line.split(",")))
    return header, rows
