"""Run one ``dfmm run`` in this fresh interpreter and record its timings.

Usage::

    python3 child.py SRC_DIR SCENARIO.ini OUT_DIR PERF.json SPAWN_NS {plain,trace}

The run goes through ``dfmm.cli.main`` exactly as the command line would.
``plain`` puts one ``perf_counter`` pair around ``Engine.step_timestep``
and time stamps on config load, ``Engine.__init__`` and ``write_logs``;
``trace`` wraps every public ``dfmm`` function instead (see tracer.py).
PERF.json is written even when the run raises, so the parent can count
the timesteps that completed; the exception then propagates as usual.
SPAWN_NS is the parent's ``time.monotonic_ns()`` just before the spawn.
"""

from __future__ import annotations

import json
import resource
import sys
from time import monotonic_ns, perf_counter_ns


def _install_plain(cli, engine_cls, record: dict) -> None:
    steps = record["step_ns"]
    step = engine_cls.step_timestep
    init = engine_cls.__init__
    load_config = cli.load_config
    write_logs = cli.write_logs

    def step_timestep(self):
        if not steps:
            record["first_step_mono"] = monotonic_ns()
        t0 = perf_counter_ns()
        step(self)
        steps.append(perf_counter_ns() - t0)

    def timed_init(self, cfg):
        t0 = perf_counter_ns()
        init(self, cfg)
        record["init_ns"] = perf_counter_ns() - t0

    def timed_load_config(*args, **kwargs):
        record.setdefault("config_load_mono", monotonic_ns())
        return load_config(*args, **kwargs)

    def timed_write_logs(*args, **kwargs):
        manifest = write_logs(*args, **kwargs)
        record["logs_written_mono"] = monotonic_ns()
        return manifest

    engine_cls.step_timestep = step_timestep
    engine_cls.__init__ = timed_init
    cli.load_config = timed_load_config
    cli.write_logs = timed_write_logs


def main(argv) -> int:
    src, ini, outdir, perf_path, spawn_ns, mode = argv
    record: dict = {"spawn_mono": int(spawn_ns), "mode": mode, "step_ns": []}
    sys.path.insert(0, src)
    t0 = perf_counter_ns()
    import dfmm.cli as cli
    from dfmm.sim.engine import Engine

    record["import_ns"] = perf_counter_ns() - t0
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        _install_plain(cli, Engine, record)
    t0 = perf_counter_ns()
    try:
        return cli.main(["run", ini, "--out", outdir])
    finally:
        record["main_ns"] = perf_counter_ns() - t0
        record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            record["trace"] = tracer.report()
        with open(perf_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
