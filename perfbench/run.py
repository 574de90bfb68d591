"""Benchmark of the dfmm scenario engine, driven from outside the program.

One workload::

    python3 perfbench/run.py --workload {calm,flow,wide} --seed N --seconds S --trace {0,1}

All three, untraced and traced, with the output checks, the traffic check
and a comparison against perfbench/baseline.json::

    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload is an INI file generated from scenarios/demo.ini (see
workloads.py). It runs as back-to-back ``dfmm run`` children, one fresh
interpreter at a time, until ``--seconds`` have passed. ``--trace 0``
reports the end-to-end metrics. ``--trace 1`` alternates untraced and
traced children and reports the per-layer metrics; the traced children
wrap every public dfmm function (see tracer.py). The last line of
standard output is one JSON object; the full record, with the recorded
context and every span, goes to .perfbench/results/. Exits 2 without a
result when the program under test is not in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic, monotonic_ns

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEMO = ROOT / "scenarios" / "demo.ini"
WORK = ROOT / ".perfbench"
BASELINE = BENCH / "baseline.json"

WORKLOADS = ("calm", "flow", "wide")
MIN_PLAIN_RUNS = 3
CHILD_TIMEOUT_S = 60
WARMUP_HORIZON = 20

END_TO_END_UNITS = {
    "timesteps_per_s": "1/s",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_share": "share",
}

# (span, stats) reported for every workload; the rest of the per-layer
# metrics are derived in layer_metrics().
SPAN_METRICS = (
    ("pricing.quote_swap", ("calls", "self_ms")),
    ("pricing.solve_adjusted_notional", ("calls", "self_ms")),
    ("pricing.premium_units", ("calls",)),
    ("pricing.execute_swap", ("calls", "self_ms")),
    ("eldf.solve_volume_for_value", ("calls", "self_ms")),
    ("eldf.integrate_eldf", ("calls", "self_ms")),
    ("sim.market.fit_curves", ("calls", "self_ms")),
    ("eldf.fit_eldf", ("calls", "self_ms")),
    ("sim.market.step_all", ("self_ms",)),
    ("ledger.solvency_check", ("calls", "self_ms")),
    ("vaults.utilisation", ("calls", "self_ms")),
    ("vaults.open_inventory_limits", ("calls",)),
    ("sim.engine.solvency_margin_units", ("calls",)),
    ("sim.engine.unsettled_revaluation_units", ("self_ms",)),
    ("vaults.settle_swaption", ("calls", "self_ms")),
    ("vaults.slp_premium_flow", ("calls", "self_ms")),
    ("vaults.strike_swaption", ("calls",)),
    ("treasury.reward_distribute", ("calls", "self_ms")),
    ("treasury.treasury_update", ("calls",)),
    ("auction.auction_step", ("calls", "self_ms")),
    ("sim.engine.step_epoch", ("self_ms",)),
    ("sim.output.write_logs", ("self_ms",)),
    ("sim.agents.arrivals", ("self_ms",)),
    ("sim.agents.decide", ("calls",)),
    ("sim.engine.submit_trade", ("self_ms",)),
    ("sim.engine.step_timestep", ("self_ms",)),
    ("sim.config.load_config", ("self_ms",)),
)
REJECT_CLASSES = ("ExceedsCapacity", "InsufficientInventory")

# Layer groups for the traffic check, as shares of all traced self time.
REFIT_SPANS = ("sim.market.fit_curves", "sim.market.snapshot", "eldf.fit_eldf")
EPOCH_PREFIXES = ("vaults.", "treasury.", "auction.", "sim.engine.step_epoch")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# one child


def _digest_outputs(outdir: Path) -> dict:
    """Digest of the CSVs and summary.json, plus row/byte counts and checks.

    ``duration_seconds`` is dropped from the summary before hashing: it is
    wall-clock time, the one field that differs between identical runs.
    """
    manifest_path = outdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    digest = hashlib.sha256()
    rows, size, problems = 0, manifest_path.stat().st_size, []
    for entry in sorted(manifest["files"], key=lambda e: e["name"]):
        data = (outdir / entry["name"]).read_bytes()
        size += len(data)
        if entry["name"] == "summary.json":
            summary = json.loads(data)
            summary.pop("duration_seconds", None)
            data = json.dumps(summary, sort_keys=True).encode("utf-8")
        else:
            n = data.count(b"\n") - 2
            rows += n
            if n != entry["rows"]:
                problems.append(f"{entry['name']}: {n} rows, manifest says {entry['rows']}")
        digest.update(entry["name"].encode("utf-8") + b"\0" + data + b"\0")
    problems += _check_trades(outdir / "trades.csv", summary)
    return {"digest": digest.hexdigest(), "rows": rows, "bytes": size, "problems": problems}


def _check_trades(path: Path, summary: dict) -> list:
    """Every fill keeps v_s = V' + rp_x + rp_y + fee in ledger units."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    cols = [header.index(c) for c in ("v_s", "v_prime_s", "rp_x", "rp_y", "fee")]
    bad = 0
    for line in lines[2:]:
        v_s, v_prime, rp_x, rp_y, fee = (
            round(float(line.split(",")[i]) * 10**12) for i in cols
        )
        # floats carry ~16 digits, so allow a few units of rendering error
        if abs(v_s - v_prime - rp_x - rp_y - fee) > 4:
            bad += 1
    problems = [f"{bad} trades break the balance identity"] if bad else []
    if len(lines) - 2 != summary.get("fills"):
        problems.append(f"{len(lines) - 2} trade rows but summary says {summary.get('fills')} fills")
    return problems


def run_child(ini: Path, horizon: int, mode: str, workdir: Path, index: int) -> dict:
    """Spawn one ``dfmm run`` child, wait for it and account for its steps."""
    outdir = workdir / f"out{index}"
    perf_path = workdir / f"perf{index}.json"
    shutil.rmtree(outdir, ignore_errors=True)
    if perf_path.exists():
        perf_path.unlink()
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(ini), str(outdir), str(perf_path)]
    try:
        proc = subprocess.run(
            cmd + [str(monotonic_ns()), mode],
            cwd=workdir, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        exit_code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        exit_code, stderr = None, f"timed out after {CHILD_TIMEOUT_S} s"
    record = json.loads(perf_path.read_text()) if perf_path.exists() else {}
    summary_path = outdir / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else None

    stamps = record.keys()
    wall_ns = (
        record["logs_written_mono"] - record["config_load_mono"]
        if {"logs_written_mono", "config_load_mono"} <= stamps else None
    )
    setup_ns = (
        record["first_step_mono"] - record["spawn_mono"]
        if "first_step_mono" in stamps else None
    )
    if mode == "trace":
        span = record.get("trace", {}).get("spans", {}).get("sim.engine.step_timestep", {})
        completed = span.get("calls", 0) - sum(span.get("errors", {}).values())
    else:
        completed = len(record.get("step_ns", ()))
    ok = (
        exit_code == 0
        and summary is not None
        and not summary["halted"]
        and summary["timesteps"] == horizon
        and completed == horizon
    )
    run = {
        "mode": mode,
        "exit_code": exit_code,
        "ok": ok,
        "scheduled": horizon,
        "completed": completed,
        "wall_ns": wall_ns,
        "setup_ns": setup_ns,
        "summary": summary,
        "record": record,
        "error": "" if ok else (stderr.strip().splitlines() or ["no output"])[-1],
    }
    if (outdir / "manifest.json").exists() and summary is not None:
        run["outputs"] = _digest_outputs(outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    if perf_path.exists():
        perf_path.unlink()
    return run


# ----------------------------------------------------------------------
# metrics


def end_to_end(runs: list) -> dict:
    """End-to-end metrics of the untraced children.

    Every complete repeat is the same computation (the output check
    requires identical digests), so timestep i does the same work in each
    and its fastest repeat is its cost without interference from the
    host's other tenants, which only ever add time. The step percentiles
    and the run's wall time are built from those per-step minima plus the
    fastest repeat's time outside the steps (config load, validation,
    Engine.__init__, summary and write_logs).
    """
    plain = [r for r in runs if r["mode"] == "plain"]
    full = [r for r in plain if r["ok"]]
    values = dict.fromkeys(END_TO_END_UNITS, 0.0)
    if full:
        fastest = [min(col) for col in zip(*(r["record"]["step_ns"] for r in full))]
        outside = min(r["wall_ns"] - sum(r["record"]["step_ns"]) for r in full)
        values["timesteps_per_s"] = len(fastest) * 1e9 / (outside + sum(fastest))
        values["step_p50_us"] = statistics.median(fastest) / 1e3
        values["step_p99_us"] = statistics.quantiles(fastest, n=100)[98] / 1e3
        values["peak_rss_mb"] = statistics.median(
            r["record"]["peak_rss_kb"] / 1024 for r in full
        )
    values["setup_s"] = _median([r["setup_ns"] / 1e9 for r in plain if r["setup_ns"]])
    scheduled = sum(r["scheduled"] for r in runs)
    values["completed_share"] = sum(r["completed"] for r in runs) / scheduled
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _span_share(spans: dict, total: int, match) -> float:
    return sum(s["self_ns"] for n, s in spans.items() if match(n)) / total if total else 0.0


def layer_metrics(run: dict) -> dict:
    """Per-layer metrics of one traced child, as plain numbers."""
    trace = run["record"]["trace"]
    spans = trace["spans"]
    edges = {(a, b): n for a, b, n in trace["edges"]}
    empty = {"calls": 0, "self_ns": 0, "none_returns": 0, "extra": 0, "errors": {}}

    def span(name):
        return spans.get(name, empty)

    m = {}
    for name, stats in SPAN_METRICS:
        for stat in stats:
            s = span(name)
            m[f"{name}.{stat}"] = s["calls"] if stat == "calls" else s["self_ns"] / 1e6
    quotes = span("pricing.quote_swap")["calls"]
    rejects = span("pricing.quote_swap")["errors"]
    m["pricing.quote_swap.reject_share"] = sum(rejects.values()) / quotes if quotes else 0.0
    for cls in REJECT_CLASSES:
        m[f"pricing.quote_swap.rejects.{cls}"] = rejects.get(cls, 0)
    m["pricing.quote_swap.rejects.other"] = sum(
        n for cls, n in rejects.items() if cls not in REJECT_CLASSES
    )
    m["pricing.premium_units.per_quote"] = (
        edges.get(("pricing.quote_swap", "pricing.premium_units"), 0) / quotes if quotes else 0.0
    )
    steps = span("sim.engine.step_timestep")["calls"]
    m["ledger.solvency_check.per_step"] = (
        span("ledger.solvency_check")["calls"] / steps if steps else 0.0
    )
    m["auction.auction_step.events"] = span("auction.auction_step")["extra"]
    decides = span("sim.agents.decide")
    m["sim.agents.decide.decline_share"] = (
        decides["none_returns"] / decides["calls"] if decides["calls"] else 0.0
    )
    outputs = run.get("outputs", {})
    m["sim.output.rows"] = outputs.get("rows", 0)
    m["sim.output.bytes"] = outputs.get("bytes", 0)
    summary = run["summary"] or {}
    m["sim.engine.fills"] = summary.get("fills", 0)
    m["sim.engine.rejected"] = summary.get("rejected", 0)
    total = sum(s["self_ns"] for s in spans.values())
    m["share.pricing"] = _span_share(spans, total, lambda n: n.startswith("pricing."))
    m["share.refit"] = _span_share(spans, total, lambda n: n in REFIT_SPANS)
    m["share.epoch"] = _span_share(spans, total, lambda n: n.startswith(EPOCH_PREFIXES))
    return m


LAYER_UNITS = {"calls": "count", "self_ms": "ms", "per_quote": "calls/quote",
               "per_step": "calls/step", "events": "count", "rows": "rows",
               "bytes": "bytes", "fills": "count", "rejected": "count",
               "import_ms": "ms", "init_ms": "ms", "overhead_share": "share"}


def layer_unit(name: str) -> str:
    if name.startswith("pricing.quote_swap.rejects."):
        return "count"
    return LAYER_UNITS.get(name.rsplit(".", 1)[1], "share")


def per_layer(runs: list) -> dict:
    plain = [r for r in runs if r["mode"] == "plain"]
    traced = [r for r in runs if r["mode"] == "trace" and "trace" in r["record"]]
    per_run = [layer_metrics(r) for r in traced]
    values = {k: _median([m[k] for m in per_run]) for k in (per_run[0] if per_run else {})}
    values["setup.import_ms"] = _median([r["record"]["import_ns"] / 1e6 for r in plain])
    values["sim.engine.init_ms"] = _median(
        [r["record"]["init_ns"] / 1e6 for r in plain if "init_ns" in r["record"]]
    )
    plain_wall = _median([r["record"]["main_ns"] for r in plain if "main_ns" in r["record"]])
    traced_wall = _median([r["record"]["main_ns"] for r in traced])
    values["trace.overhead_share"] = traced_wall / plain_wall - 1 if plain_wall else 0.0
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}


# ----------------------------------------------------------------------
# checks


def output_checks(runs: list) -> dict:
    """Verdicts on the outputs of every child of one workload and seed."""
    return {
        "all runs exit 0 with halted=false": all(r["ok"] for r in runs),
        "outputs parse and match their manifest": all(
            "outputs" in r and not r["outputs"]["problems"] for r in runs
        ),
        "identical digest on every repeat": len(
            {r.get("outputs", {}).get("digest") for r in runs}
        ) == 1,
    }


def trace_checks(runs: list, shape: dict) -> dict:
    """Coverage and reconciliation checks of the traced children."""
    traced = [r for r in runs if r["mode"] == "trace"]
    checks = {"traced runs completed": bool(traced) and all("trace" in r["record"] for r in traced)}
    if not checks["traced runs completed"]:
        return checks
    refits = math.ceil(shape["horizon"] / shape["slot_len"]) + 1
    counts, quotes, fits, reconcile, unpatched = set(), True, True, True, []
    for r in traced:
        spans = r["record"]["trace"]["spans"]
        summary = r["summary"] or {}
        counts.add(json.dumps({n: s["calls"] for n, s in spans.items()}, sort_keys=True))
        quotes &= spans.get("pricing.quote_swap", {}).get("calls") == (
            summary.get("fills", -1) + summary.get("rejected", 0)
        )
        fits &= spans.get("eldf.fit_eldf", {}).get("calls") == 2 * shape["assets"] * refits
        self_sum = sum(s["self_ns"] for s in spans.values())
        root = spans.get("cli.main", {}).get("total_ns", 0)
        # spans nest, so self times telescope to the root span exactly; the
        # root misses only its own wrapper's cost against the outer clock
        reconcile &= self_sum == root and 0.99 <= self_sum / r["record"]["main_ns"] <= 1.0
        unpatched += r["record"]["trace"]["unpatched"]
    checks["every module binding of a wrapped function is patched"] = not unpatched
    checks["quote_swap.calls == fills + rejected"] = quotes
    checks["fit_eldf.calls == 2 x assets x (refits + 1)"] = fits
    checks["summed self_ms reconciles with traced wall time"] = reconcile
    checks["call counts identical on every traced repeat"] = len(counts) == 1
    return checks


# ----------------------------------------------------------------------
# one workload


def context(workload: str, seed: int, seconds: int, trace: int, shape: dict) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "horizon": shape["horizon"],
        "assets": shape["assets"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, ini_text: str | None = None) -> dict:
    """Run one workload for ``seconds`` and return its full record.

    ``ini_text`` replaces the generated scenario (the harness tests use it
    to feed a scenario that fails).
    """
    if ini_text is None:
        ini_text = workloads.build(workload, seed, DEMO)
    shape = workloads.shape(ini_text)
    workdir = WORK / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ini = workdir / f"{workload}.ini"
        ini.write_text(ini_text, encoding="utf-8")
        # compile bytecode and fill the page cache; not measured
        warm = workdir / "warmup.ini"
        warm.write_text(workloads.render(DEMO, {"run": {"horizon": WARMUP_HORIZON}}, seed))
        run_child(warm, WARMUP_HORIZON, "plain", workdir, 0)

        runs = []
        modes = ("plain", "trace") if trace else ("plain",)
        start = monotonic()
        while True:
            for mode in modes:
                runs.append(run_child(ini, shape["horizon"], mode, workdir, len(runs) + 1))
            plain_runs = sum(r["mode"] == "plain" for r in runs)
            if monotonic() - start >= seconds and (trace or plain_runs >= MIN_PLAIN_RUNS):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = output_checks(runs)
    if trace:
        checks.update(trace_checks(runs, shape))
    first = runs[0]
    return {
        "context": context(workload, seed, seconds, int(trace), shape),
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": sum(r["scheduled"] for r in runs),
        "failed": sum(r["scheduled"] - r["completed"] for r in runs),
        "metrics": per_layer(runs) if trace else end_to_end(runs),
        "digest": first.get("outputs", {}).get("digest"),
        "fills": (first["summary"] or {}).get("fills"),
        "rejected": (first["summary"] or {}).get("rejected"),
        "errors": sorted({r["error"] for r in runs if r["error"]}),
        "runs": [
            {k: r[k] for k in ("mode", "exit_code", "ok", "scheduled", "completed")}
            | {"wall_s": (r["wall_ns"] or 0) / 1e9, "setup_s": (r["setup_ns"] or 0) / 1e9,
               "main_s": r["record"].get("main_ns", 0) / 1e9}
            for r in runs
        ],
        "spans": runs[-1]["record"].get("trace", {}).get("spans") if trace else None,
    }


def print_result(result: dict) -> None:
    ctx = result["context"]
    print(
        f"# {ctx['workload']} seed={ctx['seed']} seconds={ctx['run_seconds']} "
        f"trace={ctx['trace']} horizon={ctx['horizon']} runs={len(result['runs'])} "
        f"nproc={ctx['nproc']} python={ctx['python']} numpy={ctx['numpy']}"
    )
    print(
        f"digest={result['digest']} fills={result['fills']} rejected={result['rejected']}"
    )
    for name, verdict in result["checks"].items():
        print(f"check {'PASS' if verdict else 'FAIL'}: {name}")
    for error in result["errors"]:
        print(f"error: {error}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def write_result(name: str, result: dict) -> Path:
    out = WORK / "results" / f"{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out


# ----------------------------------------------------------------------
# all workloads


def traffic_checks(traced: dict) -> dict:
    """Each workload loads the layer it was chosen for (see workloads.WHY)."""
    pricing, refit, epoch = (
        {w: traced[w]["metrics"][f"share.{layer}"]["value"] for w in traced}
        for layer in ("pricing", "refit", "epoch")
    )
    return {
        "pricing share higher on flow than on calm": pricing["flow"] > pricing["calm"],
        "refit share higher on calm than on wide": refit["calm"] > refit["wide"],
        "epoch share higher on wide than on calm and flow": (
            epoch["wide"] > max(epoch["calm"], epoch["flow"])
        ),
    }


def run_all(seed: int, seconds: float) -> int:
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    results, traced = {}, {}
    for workload in WORKLOADS:
        results[workload] = measure(workload, seed, seconds, trace=False)
        traced[workload] = measure(workload, seed, seconds, trace=True)
        for result in (results[workload], traced[workload]):
            print_result(result)
        base = baseline.get("workloads", {}).get(workload, {}).get("end_to_end", {})
        for name, m in results[workload]["metrics"].items():
            if name in base:
                print(
                    f"vs baseline {workload} {name}: {m['value']:.6g} against "
                    f"median {base[name]['median']:.6g} {m['unit']} "
                    f"({m['value'] / base[name]['median'] - 1:+.1%})"
                )
    traffic = traffic_checks(traced)
    for name, verdict in traffic.items():
        print(f"traffic {'PASS' if verdict else 'FAIL'}: {name}")
    everything = list(results.values()) + list(traced.values())
    combined = {
        "correct": all(r["correct"] for r in everything) and all(traffic.values()),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "traffic": traffic,
        "baseline_context": baseline.get("context"),
        "untraced": results,
        "traced": traced,
    }
    path = write_result(f"all-seed{seed}", combined)
    print(f"results written to {path.relative_to(ROOT)}")
    print(json.dumps({k: combined[k] for k in ("correct", "attempted", "failed", "traffic")}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds numpy's SeedSequence)")

    missing = [p for p in (SRC / "dfmm" / "cli.py", DEMO) if not p.is_file()]
    if missing:
        names = ", ".join(str(p.relative_to(ROOT)) for p in missing)
        print(f"program under test not found: {names}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    path = write_result(f"{args.workload}-seed{args.seed}-trace{args.trace}", result)
    print(f"results written to {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
