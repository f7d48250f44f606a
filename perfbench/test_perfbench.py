"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import benchlib  # noqa: E402
import layers  # noqa: E402


# -- the percentile rule -----------------------------------------------------

def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert benchlib.percentile(samples, 0.5) == 50
    assert benchlib.percentile(samples, 0.99) == 99
    assert benchlib.percentile(samples, 1.0) == 100
    assert benchlib.percentile([7.0], 0.99) == 7.0


@pytest.mark.parametrize(
    "n, supported", [(999, False), (1000, True), (100, False), (5000, True)]
)
def test_p99_needs_ten_samples_beyond(n, supported):
    assert benchlib.tail_supported(n, 0.99) is supported
    assert (benchlib.samples_beyond(n, 0.99) >= 10) is supported


def test_harrell_davis_median():
    assert benchlib.hd_quantile(list(range(1, 102)), 0.5) == pytest.approx(51)
    assert benchlib.hd_quantile([4.0] * 37, 0.5) == pytest.approx(4.0)
    assert benchlib.hd_quantile([7.0], 0.5) == pytest.approx(7.0)
    # A sample with a gap at its middle: the nearest rank jumps across
    # the gap when one sample moves, Harrell-Davis moves a little.
    low, high = [10.0] * 60, [20.0] * 60
    before = benchlib.hd_quantile(low + high, 0.5)
    after = benchlib.hd_quantile(low[1:] + high + [20.0], 0.5)
    assert before == pytest.approx(15.0)
    assert 15.0 < after < 16.0
    assert benchlib.percentile(low + high, 0.5) == 10.0
    assert benchlib.percentile(low[1:] + high + [20.0], 0.5) == 20.0


def test_p50_of_small_sample_is_supported():
    assert benchlib.tail_supported(21, 0.5)
    assert not benchlib.tail_supported(19, 0.5)


# -- output identity ---------------------------------------------------------

ROW = {
    "workload": "atax", "runtime": "wavm", "strategy": "mprotect",
    "isa": "x86_64", "threads": 4, "median_ms": 1.25,
    "mmap_write_wait_ms": 0.5, "cache_hit": 0, "elapsed_s": 0.0123,
    "source": "computed",
}


def test_digest_excludes_host_time_fields():
    served = dict(ROW, cache_hit=1, elapsed_s=0.000004, source="lru")
    assert benchlib.digest(served) == benchlib.digest(ROW)
    stripped = {k: v for k, v in ROW.items() if k not in benchlib.HOST_FIELDS}
    assert benchlib.digest(stripped) == benchlib.digest(ROW)


def test_digest_covers_every_simulated_field():
    for field, value in (("median_ms", 1.2500001), ("threads", 16),
                         ("mmap_write_wait_ms", 0.0)):
        assert benchlib.digest(dict(ROW, **{field: value})) != benchlib.digest(ROW)


def test_check_digest_reports_missing_and_mismatched_cells():
    expected = {"cell": "abc"}
    assert benchlib.check_digest(expected, "cell", "abc") is None
    assert "no expected" in benchlib.check_digest(expected, "other", "abc")
    assert "!=" in benchlib.check_digest(expected, "cell", "abd")


# -- speed probe -----------------------------------------------------------------

def test_speed_probe_samples_and_restores_the_timer_signal():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    probe = benchlib.SpeedProbe()
    probe.EVERY_S = 0.05
    with probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3  # entry, exit and timer ticks
    assert 0 < probe.spent < 0.3
    assert probe.factor() == probe.REF_S / (sum(probe.samples) / len(probe.samples))


def _probed(*probes):
    speed = benchlib.SpeedProbe()
    speed.probes = list(probes)
    return speed


def test_interval_scales_each_stretch_by_the_probes_around_it():
    ref = benchlib.SpeedProbe.REF_S
    # Probes at [0, 1] and [3, 4] taking REF_S and 2 * REF_S; then [6, 7]
    # taking REF_S.
    speed = _probed((0.0, 1.0, ref), (3.0, 4.0, 2 * ref), (6.0, 7.0, ref))
    host, scaled = speed.interval(0.0, 7.0)
    assert host == pytest.approx(4.0)  # probe time left out
    assert scaled == pytest.approx(4.0 / 1.5)
    # Before the first and after the last probe: that probe's speed.
    assert speed.interval(-2.0, 0.0) == pytest.approx((2.0, 2.0))
    assert speed.interval(7.0, 9.0) == pytest.approx((2.0, 2.0))
    assert speed.interval(1.5, 2.5) == pytest.approx((1.0, 1.0 / 1.5))


def test_mark_probes_only_after_a_gap_and_never_nests():
    calls = []
    speed = benchlib.SpeedProbe()
    speed.run = lambda: calls.append(1) or 0.01
    speed.mark()
    speed.mark()  # the previous probe has just ended
    assert len(calls) == 1
    speed.probes[-1] = (0.0, 0.0, 0.01)  # long ago
    speed.mark()
    assert len(calls) == 2

    def nested():
        speed._sample()  # a timer tick during a probe is dropped
        return 0.01

    speed.run = nested
    speed._sample()
    assert len(speed.probes) == 3


# -- seeded workloads ----------------------------------------------------------

def test_job_stream_is_deterministic_per_seed():
    first = list(itertools.islice(benchlib.job_stream(7), 2000))
    again = list(itertools.islice(benchlib.job_stream(7), 2000))
    other = list(itertools.islice(benchlib.job_stream(8), 2000))
    assert first == again
    assert first != other


def test_job_stream_mix_and_never_seen_writes():
    jobs = list(itertools.islice(benchlib.job_stream(3), 24000))
    writes = [spec for kind, spec in jobs if kind == "write"]
    assert 0.8 / benchlib.WRITE_EVERY < len(writes) / len(jobs) < 1.2 / benchlib.WRITE_EVERY
    cells = [
        (s["workloads"][0], s["runtimes"][0], s["strategies"][0], s["threads"][0])
        for s in writes
    ]
    assert len(set(cells)) == len(cells)  # no write repeats within the pool
    # Writes come in rounds of one cell per PolyBench kernel.
    kernels = len(benchlib.POLYBENCH)
    for start in range(0, len(cells) - kernels + 1, kernels):
        turn = cells[start:start + kernels]
        assert sorted(cell[0] for cell in turn) == sorted(benchlib.POLYBENCH)
    assert all(s["size"] == "mini" for s in writes)
    warm = benchlib.warm_grid()
    for kind, spec in jobs:
        if kind == "read":
            assert spec["size"] == "small"
            for axis in ("workloads", "runtimes", "strategies", "threads"):
                assert spec[axis] and set(spec[axis]) <= set(warm[axis])


def test_cold_job_lists_keep_their_cells_across_seeds():
    def cells(jobs):
        return sorted(
            (w, r, s, t)
            for spec in jobs for w in spec["workloads"]
            for r in spec["runtimes"] for s in spec["strategies"]
            for t in spec["threads"]
        )

    assert cells(benchlib.scaling_jobs(1)) == cells(benchlib.scaling_jobs(2))
    assert benchlib.scaling_jobs(1) != benchlib.scaling_jobs(2)
    assert len(set(cells(benchlib.scaling_jobs(1)))) == 120
    assert len(cells(benchlib.profile_jobs(5))) == 37


def test_committed_digests_cover_every_cell_a_run_can_request():
    scaling = benchlib.load_expected("scaling-cold")
    assert len(scaling) == 120
    assert len(benchlib.load_expected("profile-cold")) == 37
    service = benchlib.load_expected("service-mixed")
    for workload, runtime, strategy, threads in benchlib.mini_pool():
        label = benchlib.cell_label(
            workload, runtime, strategy, "x86_64", threads, "mini", 3
        )
        assert label in service


# -- trace wrappers ------------------------------------------------------------

def _targets():
    from repro.core import engine, harness, profiles
    from repro.oskernel.addressspace import Area
    from repro.runtimes.base import RuntimeModel
    from repro.service.daemon import SweepService
    from repro.service.jobs import JobManager
    from repro.sim.engine import Engine

    return [
        (profiles, "module_for"), (profiles, "profile_for"),
        (harness, "profile_for"), (RuntimeModel, "cycles"),
        (RuntimeModel, "check_stats"), (Engine, "run"), (Area, "populate"),
        (Area, "zap"), (engine, "run_benchmark"),
        (engine.MeasurementEngine, "key_for"), (engine.MeasurementEngine, "run"),
        (SweepService, "_handle_connection"), (JobManager, "_run_job"),
        (JobManager, "_prepare"), (JobManager, "_complete"),
    ]


def test_install_wraps_and_restore_puts_originals_back():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in _targets()]
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("sim", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("harness", body)()
    totals = tracer.totals()
    # harness: clock 0 -> 5 (5 ticks); each sim span takes 1 tick.
    assert totals["self_s"] == {"sim": 2.0, "harness": 3.0}
    assert totals["calls"] == {"sim": 2, "harness": 1}


def test_async_spans_count_only_running_steps():
    ticks = iter(range(100))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))

    async def job():
        await asyncio.sleep(0)
        return 42

    traced = tracer.wrap_async("service", job)
    assert asyncio.run(traced()) == 42
    totals = tracer.totals()
    assert totals["calls"]["service"] == 2  # two steps around one await
    assert totals["self_s"]["service"] == 2.0


def test_traced_cell_matches_untraced_cell(tmp_path, monkeypatch):
    from repro.core.engine import MeasurementEngine, MeasurementRequest

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "profiles"))
    request = MeasurementRequest("trisolv", "wavm", "mprotect", "x86_64",
                                 threads=2, size="mini")
    plain = MeasurementEngine(cache=False).measure_one(request).measurement
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        traced = MeasurementEngine(cache=False).measure_one(request).measurement
    finally:
        tracer.restore()
    assert traced == plain
    metrics = layers.layer_metrics(tracer.totals())
    assert metrics["sim.events"] > 0
    assert metrics["oskernel.pages_populated"] > 0
    assert metrics["runtimes.cost_calls"] >= 2
