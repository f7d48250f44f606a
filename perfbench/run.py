"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scaling-cold|profile-cold|service-mixed \\
        --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced and prints the per-layer metrics.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  The full report, with every cell's producer
seconds, is also written to ``.perfbench/reports/``.  See README.md in
this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
import layers  # noqa: E402

#: Set-ups per run; set-up time is their median.
SETUPS = 3
#: service-mixed: closed-loop client connections; jobs per probed
#: slice and per timed block; jobs per ``--seconds`` second.
CONNECTIONS = 2
SLICE_JOBS = 100
BLOCK_JOBS = 500
JOBS_PER_S = 400
#: service-mixed host time scales as the probed speed to this power: a
#: closed loop of two processes also waits on wake-ups and hand-offs,
#: which slow more than the probe's CPU work.  Regressing log host
#: throughput on log probed speed gave 1.2-1.7 over three batches of
#: runs; with 1.4, the quartile spread of rows_per_s fell from 0.17 to
#: 0.11, 0.09 to 0.04 and 0.10 to 0.05.
SERVICE_SPEED_EXPONENT = 1.4
#: Most expensive cells listed in the report.
TOP_CELLS = 5
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program failing)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_MEASUREMENT_CACHE_DIR", None)
    return env


class Scratch:
    """Fresh per-step directories under ``.perfbench/``, removed on close."""

    def __init__(self) -> None:
        self.base = STATE / f"run-{os.getpid()}"
        self.count = 0

    def fresh(self) -> Path:
        self.count += 1
        path = self.base / str(self.count)
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def run_child(args, cwd: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=cwd, env=child_env(), timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} failed:\n{proc.stdout[-4000:]}")


def cold_child(scratch, mode, workload, seed, trace=False) -> dict:
    base = scratch.fresh()
    out = base / "report.json"
    run_child(
        [mode, "--workload", workload, "--seed", str(seed), "--dir", str(base),
         "--t0", repr(time.monotonic()), "--out", str(out)]
        + (["--trace"] if trace else []),
        cwd=base,
    )
    return json.loads(out.read_text())


# -- cold workloads ----------------------------------------------------------

def reference_setup(report: dict) -> float:
    return report["setup_s"] * report["setup_speed"]


def run_cold(workload, seed, seconds, trace, scratch) -> dict:
    setups = [
        reference_setup(cold_child(scratch, "setup", workload, seed))
        for _ in range(SETUPS - 1)
    ]
    rounds = []
    started = time.monotonic()
    while True:
        rounds.append(cold_child(scratch, "round", workload, seed))
        setups.append(reference_setup(rounds[-1]))
        walls = [r["ref_s"] for r in rounds]
        if trace or time.monotonic() - started + statistics.median(walls) > seconds:
            break
    traced = cold_child(scratch, "round", workload, seed, trace=True) if trace else None

    expected = benchlib.load_expected(workload)
    problems, attempted, failed = [], 0, 0
    for report in rounds + ([traced] if traced else []):
        for cell in report["cells"]:
            attempted += 1
            problem = cell["error"] or benchlib.check_digest(
                expected, cell["label"], cell["digest"]
            )
            if problem:
                failed += 1
                problems.append(problem)
    if traced is not None:
        digests = [
            {c["label"]: c["digest"] for c in r["cells"]} for r in (rounds[0], traced)
        ]
        if digests[0] != digests[1]:
            problems.append("traced and untraced outputs differ")

    cells = rounds[0]["cells"]
    computed = [c for c in cells if not c["cache_hit"]]
    # Each computed cell's reference milliseconds, as a median over rounds.
    job_ms = [
        statistics.median(r["cells"][i]["ref_s"] for r in rounds) * 1e3
        for i, c in enumerate(cells) if not c["cache_hit"]
    ]
    wall_s = statistics.median(walls)
    result = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "rows_per_s": len(cells) / wall_s,
            "job_p50_ms": benchlib.hd_quantile(job_ms, 0.5),
            "job_p99_ms": benchlib.percentile(job_ms, 0.99),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in rounds),
        },
        "samples": {
            "setups": len(setups),
            "rounds": len(rounds),
            "jobs": len(job_ms),
            "job": "computed cell (producer seconds)",
            "host_wall_s": [r["host_s"] for r in rounds],
            "speed": [r["speed"] for r in rounds],
            "probes": [r["probes"] for r in rounds],
        },
        "cells": sorted(
            ({"label": c["label"], "producer_s": c["elapsed_s"],
              "ref_s": c["ref_s"]} for c in computed),
            key=lambda c: -c["producer_s"],
        ),
    }
    if traced is not None:
        hits = [c for c in traced["cells"] if c["cache_hit"]]
        misses = [c for c in traced["cells"] if not c["cache_hit"]]
        result["per_layer"] = per_layer(
            traced["trace"],
            engine_rows=(hits, misses),
            service={},
            traced_wall=traced["ref_s"],
            untraced_wall=walls[0],
        )
    return result


# -- service-mixed ------------------------------------------------------------

class Daemon:
    """A running ``leaps-bench serve`` process on a filled cache."""

    def __init__(self, base: Path, trace: bool) -> None:
        self.trace_out = base / "trace.json"
        serve_args = [
            "--host", "127.0.0.1", "--port", "0", "--jobs", "1",
            "--cache-dir", str(base / "cache"),
        ]
        log_path = base / "daemon.log"
        self.log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "serve",
             str(self.trace_out) if trace else "", *serve_args],
            cwd=base, env=child_env(),
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.proc.kill()
            self.close()
            raise BenchError(
                f"daemon did not start: {line!r} {log_path.read_text()[-2000:]}"
            )
        self.host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
        self.port = int(port)

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=60)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def probe(self) -> list:
        """Probe host speed in the daemon and, meanwhile, in this process."""
        self.proc.send_signal(signal.SIGUSR1)
        here = benchlib.probe_once()
        line = self.proc.stdout.readline()
        if not line.startswith("probe "):
            raise BenchError(f"daemon answered a probe with {line!r}")
        return [here, float(line.split()[1])]

    def stop(self) -> None:
        """Shut down through the API; kill if that fails."""
        try:
            with self.client() as client:
                client.shutdown()
            self.proc.wait(timeout=60)
        except Exception:
            self.proc.kill()
        self.close()

    def close(self) -> None:
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def start_service(scratch, trace: bool) -> tuple:
    """Fill a fresh cache and boot a daemon on it.

    Returns the daemon and the set-up's reference seconds: its host
    seconds, less the fill's probes, at the speed the fill's probes saw.
    """
    base = scratch.fresh()
    started = time.monotonic()
    out = base / "fill.json"
    run_child(["fill", "--dir", str(base / "cache"), "--out", str(out)], cwd=base)
    daemon = Daemon(base, trace)
    fill = json.loads(out.read_text())
    return daemon, (time.monotonic() - started - fill["probe_s"]) * fill["speed"]


def drive(daemon: Daemon, seed: int, total: int, expected: dict) -> dict:
    """Run ``total`` jobs closed-loop over CONNECTIONS connections.

    The jobs go in slices of SLICE_JOBS.  Between slices no job is in
    flight, and the daemon and this process each run a speed probe; a
    slice's jobs are scaled to reference time by the mean speed of the
    probes on either side of it, to the power SERVICE_SPEED_EXPONENT.
    """
    stream = benchlib.job_stream(seed)
    lock = threading.Lock()
    slices, problems = [], []

    def client_loop(client, batch, jobs) -> None:
        while True:
            with lock:
                if not batch:
                    return
                kind, spec = batch.pop()
            started = time.perf_counter()
            try:
                result = client.submit(spec, wait=True)
                error = None
            except Exception as exc:  # counted, the loop goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - started
            found = [error] if error else check_rows(spec, result, expected)
            job = {"kind": kind, "latency_s": latency, "rows": 0,
                   "sources": {}, "failed": bool(found)}
            if result is not None:
                job["rows"] = len(result["row_data"])
                job["sources"] = result["sources"]
                job["cells"] = [
                    (row_label(spec, row), row["source"], row["elapsed_s"])
                    for row in result["row_data"]
                ]
            with lock:
                jobs.append(job)
                problems.extend(found)

    clients = [daemon.client() for _ in range(CONNECTIONS)]
    try:
        with ThreadPoolExecutor(CONNECTIONS) as pool:
            before = daemon.probe()
            while total > 0:
                count = min(SLICE_JOBS, total)
                total -= count
                batch = [next(stream) for _ in range(count)][::-1]
                jobs = []
                started = time.perf_counter()
                loops = [pool.submit(client_loop, client, batch, jobs)
                         for client in clients]
                for loop in loops:
                    loop.result()
                host_s = time.perf_counter() - started
                after = daemon.probe()
                probed = benchlib.SpeedProbe.REF_S / statistics.mean(before + after)
                speed = probed ** SERVICE_SPEED_EXPONENT
                slices.append({"host_s": host_s, "speed": speed, "jobs": jobs,
                               "probes": before + after})
                before = after
    finally:
        for client in clients:
            client.close()
    return {"slices": slices, "problems": problems}


def row_label(spec: dict, row: dict) -> str:
    return benchlib.cell_label(
        row.get("workload"), row.get("runtime"), row.get("strategy"),
        row.get("isa"), row.get("threads"), spec["size"], spec["iterations"],
    )


def check_rows(spec: dict, result: dict, expected: dict) -> list:
    found = []
    if result.get("state") != "done" or result.get("errors"):
        found.append(f"job {result.get('job')} ended {result.get('state')}")
    want = len(spec["workloads"]) * len(spec["runtimes"]) * len(
        spec["strategies"]
    ) * len(spec["threads"])
    if len(result["row_data"]) != want:
        found.append(f"job {result.get('job')}: {len(result['row_data'])} rows, want {want}")
    for row in result["row_data"]:
        if "error" in row:
            found.append(f"{row.get('workload')}: {row['error']}")
            continue
        problem = benchlib.check_digest(
            expected, row_label(spec, row), benchlib.digest(row)
        )
        if problem:
            found.append(problem)
    return found


def service_window(daemon, seed, total, expected) -> dict:
    """Drive ``daemon`` for ``total`` jobs, then read its counters and stop it."""
    try:
        cpu_before = daemon.cpu_s()
        load = drive(daemon, seed, total, expected)
        load["daemon_cpu_s"] = daemon.cpu_s() - cpu_before
        with daemon.client() as client:
            load["metrics"] = client.metrics()["requests"]
        load["daemon_rss_mib"] = benchlib.peak_rss_mib(str(daemon.proc.pid))
    finally:
        daemon.stop()
    load["jobs"] = [
        dict(job, ref_ms=job["latency_s"] * part["speed"] * 1e3)
        for part in load["slices"] for job in part["jobs"]
    ]
    return load


def reference_s(load: dict) -> float:
    """The service window's reference seconds."""
    return sum(part["host_s"] * part["speed"] for part in load["slices"])


def block_seconds(load: dict) -> float:
    """Mean reference seconds per BLOCK_JOBS jobs."""
    return reference_s(load) * BLOCK_JOBS / len(load["jobs"])


def run_service(seed, seconds, trace, scratch) -> dict:
    expected = benchlib.load_expected("service-mixed")
    total = max(BLOCK_JOBS, round(seconds * JOBS_PER_S / BLOCK_JOBS) * BLOCK_JOBS)
    setups = []
    for _ in range(SETUPS):
        daemon, setup_s = start_service(scratch, trace=False)
        setups.append(setup_s)
        if len(setups) < SETUPS:
            daemon.stop()
    load = service_window(daemon, seed, total, expected)
    traced = None
    if trace:
        daemon, _ = start_service(scratch, trace=True)
        traced = service_window(daemon, seed, total, expected)
        traced["trace"] = json.loads(daemon.trace_out.read_text())

    jobs = load["jobs"]
    latencies = [job["ref_ms"] for job in jobs]
    ref_s = reference_s(load)
    problems = list(load["problems"])
    attempted = len(jobs)
    failed = sum(job["failed"] for job in jobs)
    if traced is not None:
        problems += traced["problems"]
        attempted += len(traced["jobs"])
        failed += sum(job["failed"] for job in traced["jobs"])
    result = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": block_seconds(load),
            "rows_per_s": sum(job["rows"] for job in jobs) / ref_s,
            "job_p50_ms": benchlib.hd_quantile(latencies, 0.5),
            "job_p99_ms": benchlib.percentile(latencies, 0.99),
            "peak_rss_mib": load["daemon_rss_mib"] + benchlib.peak_rss_mib(),
        },
        "samples": {
            "setups": len(setups),
            "jobs": len(jobs),
            "writes": sum(job["kind"] == "write" for job in jobs),
            "job": "submit-and-wait service job (client side)",
            "host_s": sum(part["host_s"] for part in load["slices"]),
            "ref_s": ref_s,
        },
        # Written to the report file only: host seconds, speed and the
        # probes around each slice (client, daemon; before, after).
        "slices": [
            {key: part[key] for key in ("host_s", "speed", "probes")}
            for part in load["slices"]
        ],
        "cells": sorted(
            (
                {"label": label, "producer_s": seconds}
                for job in jobs for label, source, seconds in job.get("cells", [])
                if source == "computed"
            ),
            key=lambda c: -c["producer_s"],
        ),
    }
    if traced is not None:
        cells = [c for job in traced["jobs"] for c in job.get("cells", [])]
        hits = [{"elapsed_s": s} for _, src, s in cells if src == "engine-cache"]
        misses = [{"elapsed_s": s} for _, src, s in cells if src == "computed"]
        result["per_layer"] = per_layer(
            dict(traced["trace"], cpu_s=traced["daemon_cpu_s"]),
            engine_rows=(hits, misses),
            service=service_metrics(traced),
            traced_wall=block_seconds(traced),
            untraced_wall=result["end_to_end"]["wall_s"],
        )
    return result


def service_metrics(load: dict) -> dict:
    counters = load["metrics"]

    def p50(jobs) -> float:
        ms = [job["ref_ms"] for job in jobs]
        return benchlib.hd_quantile(ms, 0.5) if ms else 0.0

    lru_only = [
        job for job in load["jobs"]
        if job["sources"] and set(job["sources"]) == {"lru"}
    ]
    computing = [job for job in load["jobs"] if job["sources"].get("computed")]
    return {
        "service.lru_hits": counters["lru_hits"],
        "service.engine_cache_hits": counters["engine_cache_hits"],
        "service.computed": counters["computed"],
        "service.coalesced": counters["coalesced"],
        "service.lru_job_p50_ms": p50(lru_only),
        "service.compute_job_p50_ms": p50(computing),
    }


# -- per-layer ----------------------------------------------------------------

SERVICE_ZERO = {
    "service.lru_hits": 0,
    "service.engine_cache_hits": 0,
    "service.computed": 0,
    "service.coalesced": 0,
    "service.lru_job_p50_ms": 0.0,
    "service.compute_job_p50_ms": 0.0,
}


def per_layer(totals, engine_rows, service, traced_wall, untraced_wall) -> dict:
    hits, misses = engine_rows
    metrics = layers.layer_metrics(totals)
    metrics.update({
        "engine.hit_s": sum((c["elapsed_s"] for c in hits), 0.0),
        "engine.miss_s": sum((c["elapsed_s"] for c in misses), 0.0),
        "engine.hits": len(hits),
        "engine.misses": len(misses),
        "engine.hit_ratio": len(hits) / max(1, len(hits) + len(misses)),
    })
    metrics.update(service or SERVICE_ZERO)
    metrics["trace.cpu_s"] = totals["cpu_s"]
    metrics["unattributed_s"] = totals["cpu_s"] - sum(totals["layers"].values())
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return {"metrics": metrics, "layers": totals["layers"]}


# -- reporting ------------------------------------------------------------------

def emit(workload, seed, trace, result) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = result["problems"]
    failed = result["failed"]
    attempted = result["attempted"]
    lines = [f"perfbench {workload} seed={seed} trace={trace}"]
    for metric in spec["end_to_end"]:
        value = result["end_to_end"][metric["name"]]
        lines.append(f"  {metric['name']:<14} {value:12.4f} {metric['unit']}")
    lines.append(
        f"  {'error_rate':<14} {failed / attempted:12.4f}  "
        f"({failed} of {attempted} operations failed)"
    )
    samples = result["samples"]
    n = samples["jobs"]
    tail = "" if benchlib.tail_supported(n, 0.99) else (
        f"; only {benchlib.samples_beyond(n, 0.99)} beyond p99"
    )
    lines.append(f"  samples: {json.dumps(samples)}{tail}")
    lines.append(f"  top {TOP_CELLS} cells by producer seconds:")
    for cell in result["cells"][:TOP_CELLS]:
        lines.append(f"    {cell['producer_s']:9.4f} s  {cell['label']}")
    for problem in problems[:10]:
        lines.append(f"  FAILED: {problem}")

    if trace:
        layer_self = result["per_layer"]["layers"]
        ranked = sorted(layer_self.items(), key=lambda kv: -kv[1])
        lines.append("  layer self seconds: " + ", ".join(
            f"{name} {seconds:.3f}" for name, seconds in ranked
        ))
        metrics = {
            m["name"]: {"value": result["per_layer"]["metrics"][m["name"]],
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result["end_to_end"][m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    reports = STATE / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=workload, seed=seed, trace=trace, summary=summary)
    (reports / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    print("\n".join(lines))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = Scratch()
    try:
        if args.workload == "service-mixed":
            result = run_service(args.seed, args.seconds, args.trace, scratch)
        else:
            result = run_cold(
                args.workload, args.seed, args.seconds, args.trace, scratch
            )
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        scratch.close()
    summary = emit(args.workload, args.seed, args.trace, result)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
