"""Tests for the measurement engine: caching, invalidation, fan-out.

Mirrors the structure of ``test_profiles_cache.py`` for the disk-cache
behaviour, and adds the determinism guarantee the parallel path must
uphold: ``--jobs 4`` output is bit-identical to ``--jobs 1``.
"""

import dataclasses
import json
import multiprocessing
import os
import sys

import pytest

from repro.core import engine as engine_mod
from repro.core.engine import (
    MeasurementEngine,
    MeasurementRequest,
    SweepFailure,
    calibration_hash,
    measurement_from_json,
    measurement_to_json,
)
from repro.api import FIELDS, SweepSpec, run, to_csv
from repro.core.profiles import clear_profile_cache


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Point every cache at tmp_path; yields the measurements dir.

    Cache-writing tests ALSO pass this directory explicitly as
    ``cache_dir=`` so they cannot leak a stray ``.cache/measurements``
    into the working tree even if the env-var plumbing changes.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "profiles"))
    monkeypatch.setenv(
        "REPRO_MEASUREMENT_CACHE_DIR", str(tmp_path / "measurements")
    )
    clear_profile_cache()
    engine_mod.reset_default_engine()
    yield tmp_path / "measurements"
    clear_profile_cache()
    engine_mod.reset_default_engine()


REQUEST = MeasurementRequest(
    "trisolv", "wavm", "mprotect", "x86_64", threads=4, size="mini",
    iterations=2,
)


class TestMeasurementCache:
    def test_miss_then_hit(self, isolated_caches):
        eng = MeasurementEngine(cache_dir=isolated_caches)
        first = eng.measure_one(REQUEST)
        assert not first.cache_hit
        files = list(isolated_caches.glob("trisolv-mini-*.json"))
        assert len(files) == 1
        second = MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST)
        assert second.cache_hit
        assert second.measurement == first.measurement

    def test_memory_cache_skips_disk(self, isolated_caches):
        eng = MeasurementEngine(cache_dir=isolated_caches)
        first = eng.measure_one(REQUEST)
        for path in isolated_caches.glob("*.json"):
            path.unlink()
        again = eng.measure_one(REQUEST)
        assert again.cache_hit
        assert again.measurement == first.measurement

    def test_cache_disabled(self, isolated_caches):
        eng = MeasurementEngine(cache=False, cache_dir=isolated_caches)
        eng.measure_one(REQUEST)
        assert not list(isolated_caches.glob("*.json"))
        assert not eng.measure_one(REQUEST).cache_hit

    def test_distinct_configurations_distinct_entries(self, isolated_caches):
        eng = MeasurementEngine(cache_dir=isolated_caches)
        other = dataclasses.replace(REQUEST, strategy="none")
        assert eng.key_for(REQUEST) != eng.key_for(other)
        eng.run([REQUEST, other])
        assert len(list(isolated_caches.glob("*.json"))) == 2

    def test_module_digest_invalidates_key(self, monkeypatch):
        eng = MeasurementEngine()
        before = eng.key_for(REQUEST)
        monkeypatch.setattr(
            engine_mod, "module_digest", lambda workload, size: "0" * 64
        )
        assert eng.key_for(REQUEST) != before

    def test_calibration_hash_invalidates_key(self, monkeypatch):
        eng = MeasurementEngine()
        before = eng.key_for(REQUEST)
        monkeypatch.setattr(
            engine_mod, "calibration_hash", lambda *a: "f" * 64
        )
        assert eng.key_for(REQUEST) != before

    def test_simulator_build_invalidates_key(self, isolated_caches, monkeypatch):
        eng = MeasurementEngine(cache_dir=isolated_caches)
        before = eng.key_for(REQUEST)
        assert not eng.measure_one(REQUEST).cache_hit
        assert eng.measure_one(REQUEST).cache_hit
        monkeypatch.setattr(
            engine_mod, "simulator_build_digest", lambda: "e" * 64
        )
        assert eng.key_for(REQUEST) != before
        assert not eng.measure_one(REQUEST).cache_hit

    def test_simulator_build_digest_hashes_every_source(self, monkeypatch):
        build = engine_mod.simulator_build_digest
        full = build.__wrapped__()
        assert build() == full
        sources = engine_mod._SIMULATOR_SOURCES
        for name in sources:
            rest = tuple(other for other in sources if other != name)
            monkeypatch.setattr(engine_mod, "_SIMULATOR_SOURCES", rest)
            assert build.__wrapped__() != full, name

    def test_calibration_hash_tracks_constants(self, monkeypatch):
        from repro.runtimes import runtime_named

        before = calibration_hash("wavm", "mprotect", "x86_64", "trisolv")
        engine_mod._calibration_memo.clear()
        monkeypatch.setattr(
            runtime_named("wavm"), "schedule_overhead", 9.99
        )
        after = calibration_hash("wavm", "mprotect", "x86_64", "trisolv")
        engine_mod._calibration_memo.clear()
        assert after != before

    def test_corrupt_entry_recomputed(self, isolated_caches):
        MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST)
        path = next(isolated_caches.glob("*.json"))
        path.write_text("{not json")
        result = MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST)
        assert not result.cache_hit
        assert result.measurement.median_iteration > 0
        # The corrupt file was overwritten with a valid entry.
        assert MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST).cache_hit

    def test_wrong_key_in_entry_recomputed(self, isolated_caches):
        MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST)
        path = next(isolated_caches.glob("*.json"))
        raw = json.loads(path.read_text())
        raw["key"] = "0" * 64
        path.write_text(json.dumps(raw))
        assert not MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST).cache_hit

    def test_round_trip_is_exact(self):
        result = MeasurementEngine(cache=False).measure_one(REQUEST)
        encoded = json.dumps(measurement_to_json(result.measurement))
        decoded = measurement_from_json(json.loads(encoded))
        assert decoded == result.measurement


class TestParallelDeterminism:
    GRID = [
        MeasurementRequest(w, r, s, "x86_64", threads=t, size="mini",
                           iterations=2)
        for w in ("trisolv", "gemm")
        for r, s in (("wavm", "mprotect"), ("v8", "none"), ("wasm3", "trap"))
        for t in (1, 4)
    ]

    def test_jobs4_bit_identical_to_jobs1(self):
        serial = MeasurementEngine(jobs=1, cache=False).run(self.GRID)
        parallel = MeasurementEngine(jobs=4, cache=False).run(self.GRID)
        for s, p in zip(serial, parallel):
            assert p.measurement == s.measurement  # floats exact, not approx
        # The serialised artefacts match byte for byte.
        serial_blob = json.dumps(
            [measurement_to_json(r.measurement) for r in serial]
        )
        parallel_blob = json.dumps(
            [measurement_to_json(r.measurement) for r in parallel]
        )
        assert parallel_blob == serial_blob

    def test_parallel_populates_shared_cache(self, isolated_caches):
        MeasurementEngine(jobs=4, cache_dir=isolated_caches).run(self.GRID)
        results = MeasurementEngine(jobs=1, cache_dir=isolated_caches).run(self.GRID)
        assert all(r.cache_hit for r in results)

    def test_duplicate_requests_computed_once(self):
        eng = MeasurementEngine(cache=False)
        results = eng.run([REQUEST, REQUEST, REQUEST])
        assert len(results) == 3
        assert results[0].measurement == results[1].measurement


class TestAutoJobs:
    """--jobs auto: size the pool to the machine, serial when it loses.

    Motivated by BENCH_sweep.json: on a 1-cpu host ``--jobs 4`` cold
    was ~2x slower than serial (2.875s vs 1.416s) — fork + pickle
    overhead with no parallelism to pay for it.
    """

    def test_auto_is_serial_on_single_cpu(self, monkeypatch):
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 1)
        assert engine_mod.resolve_jobs("auto") == 1

    def test_auto_matches_cpus_with_a_cap(self, monkeypatch):
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 4)
        assert engine_mod.resolve_jobs("auto") == 4
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 32)
        assert engine_mod.resolve_jobs("auto") == 8
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: None)
        assert engine_mod.resolve_jobs("auto") == 1

    def test_explicit_jobs_unchanged(self):
        assert engine_mod.resolve_jobs(1) == 1
        assert engine_mod.resolve_jobs(4) == 4
        assert engine_mod.resolve_jobs(0) == 1

    def test_auto_small_grid_never_touches_the_pool(self, monkeypatch):
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 8)
        eng = MeasurementEngine(jobs="auto", cache=False)
        assert eng.jobs == 8

        def _no_pool():
            raise AssertionError("pool spawned for a below-floor grid")

        monkeypatch.setattr(eng, "_pool", _no_pool)
        grid = [
            dataclasses.replace(REQUEST, strategy=s)
            for s in ("none", "trap", "mprotect")
        ]
        assert len(grid) < engine_mod._MIN_PARALLEL_MISSES
        results = eng.run(grid)
        assert len(results) == 3

    def test_cli_default_is_auto(self):
        import argparse

        from repro.core import cliopts

        parser = argparse.ArgumentParser(parents=[cliopts.sweep_parent()])
        assert parser.parse_args([]).jobs == "auto"
        assert parser.parse_args(["--jobs", "4"]).jobs == 4

    def test_configure_accepts_auto(self, monkeypatch):
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 1)
        eng = engine_mod.configure(jobs="auto")
        assert eng.jobs_requested == "auto"
        assert eng.jobs == 1


def _synthetic_measurement(request: MeasurementRequest, wall: float):
    """A valid RunMeasurement without paying for a simulator run."""
    from repro.core.harness import RunMeasurement
    from repro.oskernel.procstat import UtilisationSample

    return RunMeasurement(
        workload=request.workload,
        runtime=request.runtime,
        strategy=request.strategy,
        isa=request.isa,
        threads=request.threads,
        size=request.size,
        iteration_seconds=[wall / request.iterations] * request.iterations,
        wall_seconds=wall,
        utilisation=UtilisationSample(wall, wall, 100.0, 90.0, 10.0, 0.0, 5.0),
        mem_avg_bytes=1 << 20,
        kernel_stats={},
        mmap_read_wait=0.0,
        mmap_write_wait=0.0,
        compute_seconds=wall,
        bounds_checks={},
    )


class TestFaultIsolation:
    """One poisoned config must not abort the sweep (serial or pooled)."""

    GOOD = [
        dataclasses.replace(REQUEST, strategy=s)
        for s in ("none", "mprotect", "clamp")
    ]
    POISON = dataclasses.replace(REQUEST, strategy="trap")

    def _poison_trap(self, monkeypatch):
        real = engine_mod.run_benchmark

        def fake(**payload):
            if payload["strategy"] == "trap":
                raise RuntimeError("simulated poisoned config")
            return real(**payload)

        monkeypatch.setattr(engine_mod, "run_benchmark", fake)

    def test_serial_failure_reported_after_the_rest_ran(
        self, isolated_caches, monkeypatch
    ):
        self._poison_trap(monkeypatch)
        eng = MeasurementEngine(jobs=1, cache_dir=isolated_caches)
        grid = self.GOOD + [self.POISON]
        with pytest.raises(SweepFailure) as excinfo:
            eng.run(grid)
        failure = excinfo.value
        assert len(failure.errors) == 1
        assert failure.errors[0].kind == "RuntimeError"
        assert "poisoned" in failure.errors[0].message
        assert failure.errors[0].request == self.POISON
        assert self.POISON.label() in str(failure)
        # Every other request completed and carries a measurement.
        assert len(failure.results) == 4
        assert sum(1 for r in failure.results if r.ok) == 3
        # ... and was cached: a clean retry of the good cells is free.
        retry = MeasurementEngine(cache_dir=isolated_caches).run(self.GOOD)
        assert all(r.cache_hit for r in retry)

    def test_return_errors_yields_per_row_results(
        self, isolated_caches, monkeypatch
    ):
        self._poison_trap(monkeypatch)
        eng = MeasurementEngine(jobs=1, cache_dir=isolated_caches)
        results = eng.run(
            self.GOOD + [self.POISON], return_errors=True
        )  # must not raise
        assert [r.ok for r in results] == [True, True, True, False]
        bad = results[-1]
        assert bad.measurement is None
        assert bad.error.kind == "RuntimeError"
        # Failed requests are never cached — the next run retries them.
        again = MeasurementEngine(cache_dir=isolated_caches).run(
            [self.POISON], return_errors=True
        )
        assert not again[0].ok and not again[0].cache_hit

    def test_pool_failure_keeps_and_caches_other_results(
        self, isolated_caches, monkeypatch
    ):
        self._poison_trap(monkeypatch)
        eng = MeasurementEngine(jobs=2, cache_dir=isolated_caches)
        try:
            with pytest.raises(SweepFailure) as excinfo:
                eng.run(self.GOOD + [self.POISON])
        finally:
            eng.close()
        assert [e.request for e in excinfo.value.errors] == [self.POISON]
        # The siblings' results survived the worker exception and were
        # written to the shared disk cache.
        retry = MeasurementEngine(cache_dir=isolated_caches).run(self.GOOD)
        assert all(r.cache_hit for r in retry)

    def test_on_result_streams_every_outcome(
        self, isolated_caches, monkeypatch
    ):
        self._poison_trap(monkeypatch)
        eng = MeasurementEngine(jobs=1, cache_dir=isolated_caches)
        seen = []
        eng.run(
            self.GOOD + [self.POISON],
            return_errors=True,
            on_result=lambda req, key, res: seen.append((req.strategy, res.ok)),
        )
        assert sorted(seen) == [
            ("clamp", True), ("mprotect", True), ("none", True),
            ("trap", False),
        ]


class TestConfigureEnvLifecycle:
    """configure(cache_dir=...) must not leak REPRO_CACHE_DIR overrides."""

    def test_reset_restores_prior_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "orig"))
        engine_mod.configure(cache_dir=tmp_path / "override")
        assert os.environ["REPRO_CACHE_DIR"] == str(
            tmp_path / "override" / "profiles"
        )
        engine_mod.reset_default_engine()
        assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path / "orig")

    def test_reset_unsets_when_previously_unset(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        engine_mod.configure(cache_dir=tmp_path / "override")
        assert "REPRO_CACHE_DIR" in os.environ
        engine_mod.reset_default_engine()
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_reconfigure_without_cache_dir_restores(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "orig"))
        engine_mod.configure(cache_dir=tmp_path / "a")
        # Re-pointing keeps tracking the ORIGINAL value, not "a".
        engine_mod.configure(cache_dir=tmp_path / "b")
        assert os.environ["REPRO_CACHE_DIR"] == str(
            tmp_path / "b" / "profiles"
        )
        engine_mod.configure(jobs=1)  # no cache_dir: override must end
        assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path / "orig")


class TestMemoryCacheBound:
    """The in-process result cache must never outgrow its cap."""

    def _fake_bench(self, monkeypatch):
        monkeypatch.setattr(
            engine_mod, "run_benchmark",
            lambda **payload: _synthetic_measurement(
                MeasurementRequest(**payload), wall=1.0
            ),
        )

    def test_memory_never_exceeds_cap(self, isolated_caches, monkeypatch):
        self._fake_bench(monkeypatch)
        eng = MeasurementEngine(
            jobs=1, cache_dir=isolated_caches, memory_cap=4
        )
        grid = [
            dataclasses.replace(REQUEST, iterations=n) for n in range(1, 11)
        ]
        eng.run(grid)
        stats = eng.memory_stats()
        assert len(eng._memory) <= 4
        assert stats["peak"] <= 4  # held throughout, not just at the end
        assert stats["evictions"] >= 6

    def test_evicted_entries_fall_back_to_disk(
        self, isolated_caches, monkeypatch
    ):
        self._fake_bench(monkeypatch)
        eng = MeasurementEngine(
            jobs=1, cache_dir=isolated_caches, memory_cap=2
        )
        grid = [
            dataclasses.replace(REQUEST, iterations=n) for n in range(1, 6)
        ]
        eng.run(grid)
        # The first request was evicted from memory long ago; the disk
        # layer still serves it as a hit.
        result = eng.run([grid[0]])[0]
        assert result.cache_hit

    def test_cap_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_CACHE_CAP", "7")
        assert MeasurementEngine()._memory.capacity == 7
        monkeypatch.delenv("REPRO_MEMORY_CACHE_CAP")
        assert MeasurementEngine()._memory.capacity == 4096
        assert MeasurementEngine(memory_cap=3)._memory.capacity == 3


def _hammer_cache(cache_dir: str, wall: float, rounds: int) -> None:
    """Child-process body for the concurrent-writer test.

    Writes its own variant of the same cache entry over and over while
    verifying that every read parses as ONE complete variant — a torn
    or interleaved write would fail json parsing or produce a value
    neither process wrote.  Exit code carries the verdict.
    """
    eng = MeasurementEngine(cache_dir=cache_dir)
    key = eng.key_for(REQUEST)
    path = eng._path_for(REQUEST, key)
    mine = _synthetic_measurement(REQUEST, wall=wall)
    for _ in range(rounds):
        eng._store(REQUEST, key, mine)
        try:
            raw = json.loads(path.read_text())
            loaded = measurement_from_json(raw["measurement"])
        except (ValueError, KeyError) as exc:
            print(f"torn read: {exc}", file=sys.stderr)
            sys.exit(1)
        if raw["key"] != key or loaded.wall_seconds not in (1.0, 2.0):
            print(f"foreign value: {loaded.wall_seconds}", file=sys.stderr)
            sys.exit(1)
        # Also exercise the engine's own (corruption-masking) loader
        # from a cold memory cache, as a second concurrent reader.
        eng._memory.clear()
        if eng._load(REQUEST, key) is None:
            print("entry vanished", file=sys.stderr)
            sys.exit(1)
    sys.exit(0)


class TestConcurrentCacheWriters:
    def test_two_processes_no_torn_reads(self, isolated_caches):
        """Two writers on one key: atomic replace keeps reads whole."""
        eng = MeasurementEngine(cache_dir=isolated_caches)
        key = eng.key_for(REQUEST)  # also warms the digest memos pre-fork
        eng._store(REQUEST, key, _synthetic_measurement(REQUEST, wall=1.0))
        children = [
            multiprocessing.Process(
                target=_hammer_cache,
                args=(str(isolated_caches), wall, 150),
            )
            for wall in (1.0, 2.0)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120)
        assert [child.exitcode for child in children] == [0, 0]
        # The surviving entry is a complete write from one of the two.
        final = MeasurementEngine(cache_dir=isolated_caches)._load(
            REQUEST, key
        )
        assert final is not None and final.wall_seconds in (1.0, 2.0)
        # No stray tmp files were left behind.
        assert not list(isolated_caches.glob("*.tmp.*"))


class TestSweepIntegration:
    SPEC = SweepSpec(
        workloads=["trisolv", "gemm"],
        runtimes=["wavm"],
        strategies=["none", "mprotect"],
        size="mini",
        iterations=2,
    )

    def test_rows_carry_cache_and_elapsed_columns(self, isolated_caches):
        rows = run(self.SPEC, engine=MeasurementEngine(cache_dir=isolated_caches))
        assert {"cache_hit", "elapsed_s"} <= set(FIELDS)
        for row in rows:
            assert row["cache_hit"] in (0, 1)
            assert row["elapsed_s"] >= 0
        again = run(self.SPEC, engine=MeasurementEngine(cache_dir=isolated_caches))
        assert all(row["cache_hit"] == 1 for row in again)

    def test_requests_are_workload_major(self):
        requests = self.SPEC.requests()
        workloads = [r.workload for r in requests]
        assert workloads == ["trisolv", "trisolv", "gemm", "gemm"]

    def test_csv_includes_extra_row_keys(self):
        rows = run(self.SPEC, engine=MeasurementEngine(cache=False))
        rows[0]["note"] = "ad-hoc"
        text = to_csv(rows)
        header = text.splitlines()[0]
        assert header.startswith("workload,runtime,strategy")
        assert "cache_hit" in header and "elapsed_s" in header
        assert header.endswith(",note")
