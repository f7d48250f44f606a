"""The benchmark's child processes; ``run.py`` starts one per step.

Each child runs in its own process so that a cold pass starts with
empty in-process caches, and every cache directory it uses is the fresh
one it is handed::

    child.py setup|round --workload W --seed N --dir D --t0 T --out F [--trace]
    child.py fill --dir D --out F
    child.py serve F|"" <leaps-bench serve arguments>

``setup`` stops once the workload is ready to measure and reports the
set-up time, counted from ``T`` (the parent's ``time.monotonic()``
when it started the child).  ``round`` then measures one cold pass of
the workload's fixed job list.  ``fill`` computes service-mixed's warm
grid into ``D``.  ``serve`` runs the daemon and probes host speed when
signalled; given ``F``, it traces every layer and writes the trace
totals to ``F`` when it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _use_dirs(base: Path) -> None:
    """Point the profile cache at ``base`` and put the sources on the path.

    The measurement cache directory is passed to each engine explicitly.
    """
    os.environ["REPRO_CACHE_DIR"] = str(base / "profiles")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def cold(args) -> dict:
    import benchlib
    import layers

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    cpu_started = time.process_time()

    from repro import api
    from repro.core import profiles
    from repro.core.engine import (
        MeasurementEngine,
        SweepFailure,
        measurement_to_json,
    )

    if args.workload == "scaling-cold":
        jobs = benchlib.scaling_jobs(args.seed)
        for name in benchlib.scaling_profile_workloads():
            profiles.profile_for(name, "small")
    else:
        jobs = benchlib.profile_jobs(args.seed)
    setup_s = time.monotonic() - args.t0
    # Set-up is too short to probe during; probe right after it.
    setup_speed = benchlib.SpeedProbe.burst()
    if args.mode == "setup":
        return {"setup_s": setup_s, "setup_speed": setup_speed}

    engine = MeasurementEngine(jobs=1, cache_dir=Path(args.dir) / "measurements")
    speed = benchlib.SpeedProbe()
    if tracer is not None:
        speed.run = tracer.wrap("probe", speed.run)
    done = []
    #: request label -> host-clock stretch its cell ran in, per spec.
    stretches = []
    with speed:
        started = last = time.perf_counter()
        for raw in jobs:
            spec = api.SweepSpec.from_json(raw)
            stretch = {}

            def boundary(label, stretch=stretch) -> None:
                # Each resolved cell is bracketed by probes, so its
                # producer time is scaled at the speed it ran at.
                nonlocal last
                stretch[label] = (last, time.perf_counter())
                speed.mark()
                last = time.perf_counter()

            try:
                results = api.measure(
                    spec, engine=engine, strict=True, progress=boundary
                ).results
            except SweepFailure as failure:
                results = failure.results
            done.append((spec, results))
            stretches.append(stretch)
        ended = time.perf_counter()
    host_s, ref_s = speed.interval(started, ended)
    cpu_s = time.process_time() - cpu_started

    cells = []
    for (spec, results), stretch in zip(done, stretches):
        for request, result in zip(spec.requests(), results):
            label = benchlib.cell_label(
                request.workload, request.runtime, request.strategy,
                request.isa, request.threads, request.size,
                request.iterations,
            )
            cells.append({
                "label": label,
                "cache_hit": result.cache_hit,
                "elapsed_s": result.elapsed,
                "ref_s": reference_cell(
                    speed, stretch[request.label()], result.elapsed
                ),
                "error": None if result.ok else result.error.label(),
                "digest": None if not result.ok else benchlib.digest(
                    measurement_to_json(result.measurement)
                ),
            })
    report = {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "host_s": host_s,
        "ref_s": ref_s,
        "speed": ref_s / host_s,
        "probes": len(speed.probes),
        "peak_rss_mib": benchlib.peak_rss_mib(),
        "cells": cells,
    }
    if tracer is not None:
        tracer.restore()
        report["trace"] = tracer.totals()
        report["trace"]["cpu_s"] = cpu_s
    return report


def reference_cell(speed, stretch, elapsed: float) -> float:
    """A cell's producer seconds at reference speed.

    ``stretch`` is the host-clock span from the previous cell boundary
    to this one; a timer probe inside it is taken to have interrupted
    the cell, and its time is taken out.
    """
    start, end = stretch
    host, ref = speed.interval(start, end)
    if host <= 0:
        return 0.0
    return max(0.0, elapsed - (end - start - host)) * ref / host


def fill(args) -> dict:
    import benchlib
    from repro import api
    from repro.core.engine import MeasurementEngine

    engine = MeasurementEngine(jobs=1, cache_dir=Path(args.dir) / "measurements")
    spec = api.SweepSpec.from_json(benchlib.warm_grid())
    with benchlib.SpeedProbe() as speed:
        started = time.perf_counter()
        rows = api.run(spec, engine=engine, strict=True)
        ended = time.perf_counter()
    host_s, ref_s = speed.interval(started, ended)
    return {"cells": len(rows), "speed": ref_s / host_s, "probe_s": speed.spent}


def serve(trace_out: str, serve_args) -> int:
    """Run ``leaps-bench serve``; probe host speed on ``SIGUSR1``.

    Each probe runs :func:`benchlib.probe_once` in the daemon's main
    thread and writes ``probe <seconds>`` to standard output.  The
    benchmark signals only while no job is in flight, so a probe never
    delays a job.  With a ``trace_out`` path every layer is traced and
    the totals are written there when the daemon exits.
    """
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import benchlib
    import layers
    from repro.service.cli import serve_main

    tracer = None
    probe = benchlib.probe_once
    if trace_out:
        tracer = layers.Tracer()
        layers.install(tracer)
        probe = tracer.wrap("probe", probe)

    def on_probe(*_signal) -> None:
        os.write(1, f"probe {probe()!r}\n".encode())

    signal.signal(signal.SIGUSR1, on_probe)
    try:
        code = serve_main(serve_args)
    finally:
        if tracer is not None:
            tracer.restore()
            Path(trace_out).write_text(json.dumps(tracer.totals()))
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["serve"]:
        return serve(argv[1], argv[2:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "round", "fill"))
    parser.add_argument("--workload", choices=("scaling-cold", "profile-cold"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir")
    parser.add_argument("--t0", type=float)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    _use_dirs(Path(args.dir))
    report = fill(args) if args.mode == "fill" else cold(args)
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
