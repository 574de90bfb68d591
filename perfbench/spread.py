"""Run-to-run spread of the benchmark, and the baseline it records.

    python3 perfbench/spread.py --workloads calm,flow,wide --seeds 1-10 [--write-baseline]

Runs ``run.py --trace 0`` once per workload and seed, for BENCHMARK.json's
``run_seconds``, one run at a time. For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the metric's bound; a spread above a
third of the bound is flagged. ``--write-baseline`` also runs each
workload traced once, at the first seed, and writes the medians and the
per-layer numbers to perfbench/baseline.json, which ``run.py --workload
all`` compares against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed run\n{proc.stdout}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="calm,flow,wide")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = _seeds(args.seeds)

    baseline = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            metrics = _run(workload, seed, seconds, 0)["metrics"]
            for name in values:
                values[name].append(metrics[name]["value"])
            print(f"{workload} seed={seed} " + " ".join(
                f"{n}={metrics[n]['value']:.6g}" for n in values), flush=True)
        summary = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {workload} {m['name']}: median {q2:.6g} {m['unit']} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.3f} bound {m['bound']}{flag}")
            summary[m["name"]] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                                  "unit": m["unit"], "values": vals}
        baseline["workloads"][workload] = {"end_to_end": summary}
        if args.write_baseline:
            traced = _run(workload, seeds[0], seconds, 1)["metrics"]
            baseline["workloads"][workload]["per_layer_seed"] = seeds[0]
            baseline["workloads"][workload]["per_layer"] = {
                n: m["value"] for n, m in traced.items()
            }
    if args.write_baseline:
        ctx = json.loads(
            (ROOT / ".perfbench" / "results" / f"{workload}-seed{seeds[-1]}-trace0.json").read_text()
        )["context"]
        baseline["context"] = {k: ctx[k] for k in ("nproc", "python", "numpy", "platform")}
        out = BENCH / "baseline.json"
        out.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
