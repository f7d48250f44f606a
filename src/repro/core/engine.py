"""The measurement engine: parallel sweeps + content-addressed caching.

Regenerating the paper's figures walks a grid of
(37 workloads × 6 runtimes × 5 strategies × 3 ISAs × {1,4,16} threads);
the figure experiments also overlap heavily (fig3–fig6 all need the
same thread-scaling measurements).  This module is the execution layer
under :func:`repro.api.run`/:func:`repro.api.measure`:

* **fan-out** — grids run across a ``ProcessPoolExecutor`` with a
  ``--jobs N`` knob.  Every simulation RNG stream is seeded, so results
  are bit-identical to a serial run regardless of worker count or
  scheduling order.
* **measurement cache** — each finished :class:`RunMeasurement` is
  stored on disk under a content-addressed key:
  SHA-256 over (module digest, interpreter and simulator build
  digests, runtime, strategy, isa, threads, size, iterations, warmup,
  calibration-constants hash).  Any change to a workload's encoded
  Wasm, to the code that profiles or simulates it, or to the
  calibration tables changes the key and silently invalidates the
  entry; corrupt files fall back to recompute.  The cache lives beside
  the profile cache (``.cache/measurements/`` next to
  ``.cache/profiles/``).
* **warm workers** — workers recompute their own profile/compile/
  costing caches from the shared on-disk profile cache instead of
  shipping modules over pickle, so the pool never serialises on the
  parent.  Within one process the per-runtime compile and block-costing
  caches (:mod:`repro.runtimes.base`) make repeated configurations
  near-free.

Serial (``jobs=1``) execution never touches the pool, so library users
and tests pay nothing for the machinery.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.harness import RunMeasurement, run_benchmark
from repro.core.lru import LRUCache
from repro.core.profiles import module_digest
from repro.runtime.predecode import interpreter_build_digest
from repro.oskernel.procstat import UtilisationSample
from repro.trace.events import MEASURE_REQUEST
from repro.trace.tracer import TRACE

#: Bump when the cache entry format (not the measured values) changes.
_CACHE_VERSION = 3  # v3: syscall_seconds/syscall_stats on each measurement

#: Simulator sources every measurement runs through, relative to the
#: ``repro`` package: compiler passes and costing, the discrete-event
#: engine, CPU and kernel models, and the harness that drives them.
_SIMULATOR_SOURCES = (
    "sim", "cpu", "oskernel", "compiler",
    "core/harness.py", "core/lifecycle.py", "runtimes/base.py",
)


@lru_cache(maxsize=1)
def simulator_build_digest() -> str:
    """SHA-256 over the simulator build sources.

    The simulator-side counterpart of
    :func:`~repro.runtime.predecode.interpreter_build_digest`: a change
    to any file under :data:`_SIMULATOR_SOURCES` changes every
    measurement-cache key.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for name in _SIMULATOR_SOURCES:
        path = root / name
        for source in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            digest.update(source.relative_to(root).as_posix().encode() + b"\0")
            digest.update(source.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class MeasurementRequest:
    """One cell of a sweep grid."""

    workload: str
    runtime: str
    strategy: str
    isa: str
    threads: int = 1
    size: str = "small"
    iterations: int = 3
    warmup: int = 1

    def label(self) -> str:
        return (
            f"{self.workload} {self.runtime}/{self.strategy}/"
            f"{self.isa}/t{self.threads}"
        )


@dataclass(frozen=True)
class MeasurementError:
    """A structured per-request failure (the request did not measure)."""

    request: MeasurementRequest
    #: Exception class name of the underlying failure.
    kind: str
    message: str

    def label(self) -> str:
        return f"{self.request.label()}: {self.kind}: {self.message}"


@dataclass(frozen=True)
class MeasurementResult:
    """A measurement plus how the engine produced it.

    ``measurement`` is None exactly when ``error`` is set: the request
    failed and the engine was asked (``return_errors=True``) to report
    the failure per-row instead of raising.
    """

    measurement: Optional[RunMeasurement]
    cache_hit: bool
    #: Wall-clock seconds spent producing this result (≈0 for hits).
    elapsed: float
    error: Optional[MeasurementError] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepFailure(RuntimeError):
    """Raised by :meth:`MeasurementEngine.run` after the whole grid ran.

    One poisoned configuration no longer aborts the sweep: every other
    request still executes (and its result is cached) before this is
    raised, so a retry after fixing the bad config is all cache hits.
    ``errors`` lists each failed request; ``results`` is the full
    result list the caller would have received with
    ``return_errors=True``.
    """

    def __init__(
        self,
        errors: List[MeasurementError],
        results: List[MeasurementResult],
    ) -> None:
        self.errors = errors
        self.results = results
        lines = "; ".join(e.label() for e in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"{len(errors)} of {len(results)} sweep requests failed: "
            f"{lines}{more}"
        )


# --------------------------------------------------------------------------
# Calibration hash: every constant that feeds one measurement's values.

#: RuntimeModel fields that are presentation/availability metadata, not
#: cost calibration — excluded so registering an extra strategy (the
#: CHERI extension mutates ``model.strategies``) does not invalidate
#: unrelated cached measurements.
_NON_CALIBRATION_FIELDS = {"display", "strategies", "default_strategy"}


def _plain(value: object) -> object:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {}
        for f in dataclasses.fields(value):
            if f.name.startswith("_") or f.name in _NON_CALIBRATION_FIELDS:
                continue
            fields[f.name] = _plain(getattr(value, f.name))
        return fields
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (frozenset, set)):
        return sorted(str(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _calibration_payload(
    runtime: str, strategy: str, isa: str, workload: str
) -> object:
    """The model constants one measurement depends on, canonically.

    Every measurement is priced by: its runtime model (compiler config,
    scheduling overhead, helper/GC behaviour), its strategy, its ISA
    cost table and machine spec, the interpreter cost tables, and —
    through the paper-scale anchor in :func:`run_benchmark` — the
    native-Clang model on x86-64 plus the workload's paper target.
    """
    from repro.compiler import timing
    from repro.core.config import PAPER_TARGETS
    from repro.cpu.machine import MACHINE_SPECS
    from repro.isa import ISAS
    from repro.oskernel.syscalls import SyscallCosts
    from repro.runtime.strategies import STRATEGIES
    from repro.runtimes import runtime_named

    return {
        # The WASI service-latency table prices every syscall batch;
        # the ISA entry cost is covered by the "isa" entry below.
        "syscall_costs": _plain(SyscallCosts()),
        "runtime": _plain(runtime_named(runtime)),
        "strategy": _plain(STRATEGIES[strategy]),
        "isa": _plain(ISAS[isa]),
        "machine": _plain(MACHINE_SPECS[isa]),
        "anchor": {
            "runtime": _plain(runtime_named("native-clang")),
            "strategy": _plain(STRATEGIES["none"]),
            "isa": _plain(ISAS["x86_64"]),
            "machine": _plain(MACHINE_SPECS["x86_64"]),
            "target": _plain(PAPER_TARGETS[workload]),
        },
        "interp_op_work": _plain(timing._INTERP_OP_WORK),
        "interp_expensive": _plain(timing._INTERP_EXPENSIVE),
    }


_calibration_memo: Dict[tuple, str] = {}


def calibration_hash(
    runtime: str, strategy: str, isa: str, workload: str
) -> str:
    """SHA-256 over a measurement's calibration constants.

    Part of each cache key: editing a cost table, machine spec, runtime
    model or paper-scale target changes the hash and silently
    invalidates the affected cached measurements — the cache never
    needs manual flushing after model work.  Hashes are memoised per
    configuration at first use.
    """
    memo_key = (runtime, strategy, isa, workload)
    cached = _calibration_memo.get(memo_key)
    if cached is None:
        canonical = json.dumps(
            _calibration_payload(runtime, strategy, isa, workload),
            sort_keys=True,
            default=repr,
        )
        cached = hashlib.sha256(canonical.encode()).hexdigest()
        _calibration_memo[memo_key] = cached
    return cached


# --------------------------------------------------------------------------
# RunMeasurement (de)serialisation for the disk cache.

def measurement_to_json(m: RunMeasurement) -> dict:
    return {
        "workload": m.workload,
        "runtime": m.runtime,
        "strategy": m.strategy,
        "isa": m.isa,
        "threads": m.threads,
        "size": m.size,
        "iteration_seconds": m.iteration_seconds,
        "wall_seconds": m.wall_seconds,
        "utilisation": dataclasses.asdict(m.utilisation),
        "mem_avg_bytes": m.mem_avg_bytes,
        "kernel_stats": m.kernel_stats,
        "mmap_read_wait": m.mmap_read_wait,
        "mmap_write_wait": m.mmap_write_wait,
        "compute_seconds": m.compute_seconds,
        "bounds_checks": {str(k): int(v) for k, v in m.bounds_checks.items()},
        "syscall_seconds": m.syscall_seconds,
        "syscall_stats": {
            str(k): {"calls": int(v["calls"]), "seconds": float(v["seconds"])}
            for k, v in m.syscall_stats.items()
        },
    }


def measurement_from_json(raw: dict) -> RunMeasurement:
    return RunMeasurement(
        workload=raw["workload"],
        runtime=raw["runtime"],
        strategy=raw["strategy"],
        isa=raw["isa"],
        threads=raw["threads"],
        size=raw["size"],
        iteration_seconds=[float(v) for v in raw["iteration_seconds"]],
        wall_seconds=raw["wall_seconds"],
        utilisation=UtilisationSample(**raw["utilisation"]),
        mem_avg_bytes=raw["mem_avg_bytes"],
        kernel_stats={str(k): int(v) for k, v in raw["kernel_stats"].items()},
        mmap_read_wait=raw["mmap_read_wait"],
        mmap_write_wait=raw["mmap_write_wait"],
        compute_seconds=raw["compute_seconds"],
        bounds_checks={
            str(k): int(v) for k, v in raw.get("bounds_checks", {}).items()
        },
        syscall_seconds=raw.get("syscall_seconds", 0.0),
        syscall_stats={
            str(k): {"calls": int(v["calls"]), "seconds": float(v["seconds"])}
            for k, v in raw.get("syscall_stats", {}).items()
        },
    )


def _shutdown_pool(executor: ProcessPoolExecutor) -> None:
    executor.shutdown(wait=False, cancel_futures=True)


def _pool_context():
    """Prefer ``fork`` workers: they inherit the parent's in-memory
    profile/compile caches and any extension strategies registered at
    runtime (newer Pythons default to forkserver, which would not)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: workers rebuild state
        return multiprocessing.get_context()


# --------------------------------------------------------------------------
# Worker entry point (module-level so it pickles under 'spawn' too).

def _execute(payload: dict) -> dict:
    """Run one request in a (possibly worker) process."""
    started = time.perf_counter()
    measurement = run_benchmark(**payload)
    return {
        "measurement": measurement_to_json(measurement),
        "elapsed": time.perf_counter() - started,
    }


def _error_outcome(exc: BaseException, elapsed: float) -> dict:
    """The outcome shape :meth:`MeasurementEngine._finish` expects for a
    request whose execution raised instead of measuring."""
    return {
        "error": {"kind": type(exc).__name__, "message": str(exc)},
        "elapsed": elapsed,
    }


def resolve_jobs(jobs) -> int:
    """Worker count for a ``jobs`` request on *this* machine.

    ``"auto"`` sizes the pool to the host: serial on single-CPU
    machines (where BENCH_sweep.json showed ``--jobs 4`` cold running
    ~2x slower than serial — fork + pickle overhead with no parallelism
    to pay for it), otherwise one worker per CPU capped at 8 (the
    figure grids rarely have more independent misses than that).
    """
    if jobs == "auto":
        cpus = os.cpu_count() or 1
        return 1 if cpus < 2 else min(cpus, 8)
    return max(1, int(jobs))


#: With jobs="auto", grids with fewer misses than this run serially:
#: pool spin-up (fork + import) costs more than it saves.
_MIN_PARALLEL_MISSES = 4


def _memory_cap(explicit: Optional[int]) -> int:
    """In-process result cache bound: explicit arg, env, or default.

    A full figure grid is ~10k cells; the default keeps roughly half of
    one resident (a RunMeasurement is a few hundred bytes, so ~2 MiB)
    while guaranteeing a long-running daemon cannot grow without bound.
    """
    if explicit is not None:
        return explicit
    raw = os.environ.get("REPRO_MEMORY_CACHE_CAP")
    return int(raw) if raw else 4096


class MeasurementEngine:
    """Executes measurement requests with caching and optional fan-out."""

    def __init__(
        self,
        jobs=1,
        cache: bool = True,
        cache_dir: Optional[os.PathLike] = None,
        memory_cap: Optional[int] = None,
    ) -> None:
        #: As requested ("auto" or an int); ``jobs`` is the resolved count.
        self.jobs_requested = jobs
        self.jobs = resolve_jobs(jobs)
        self.cache_enabled = cache
        #: Bounded in-process result cache (disk entries are unbounded;
        #: this layer only avoids re-reading them).
        self._memory: LRUCache[RunMeasurement] = LRUCache(
            _memory_cap(memory_cap)
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None
        if cache_dir is not None:
            self.cache_dir = Path(cache_dir)
        else:
            root = os.environ.get("REPRO_MEASUREMENT_CACHE_DIR")
            self.cache_dir = (
                Path(root) if root else Path(".cache") / "measurements"
            )

    # -- keys ------------------------------------------------------------

    def key_for(self, request: MeasurementRequest) -> str:
        """Content-addressed cache key for one request."""
        payload = {
            "version": _CACHE_VERSION,
            "module": module_digest(request.workload, request.size),
            # Measurements derive from interpreter-produced profiles, so
            # the key pins the exact interpreter build that profiled.
            "interp": interpreter_build_digest()[:16],
            # ... and the compiler, kernel and simulator that cost it.
            "sim": simulator_build_digest()[:16],
            "runtime": request.runtime,
            "strategy": request.strategy,
            "isa": request.isa,
            "threads": request.threads,
            "size": request.size,
            "iterations": request.iterations,
            "warmup": request.warmup,
            "calibration": calibration_hash(
                request.runtime, request.strategy, request.isa, request.workload
            ),
        }
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path_for(self, request: MeasurementRequest, key: str) -> Path:
        stem = f"{request.workload.replace('/', '_')}-{request.size}-{key[:24]}"
        return self.cache_dir / f"{stem}.json"

    # -- cache I/O -------------------------------------------------------

    def memory_stats(self) -> Dict[str, int]:
        """Counter snapshot of the in-process LRU (``/metrics``)."""
        return self._memory.stats()

    def _load(self, request: MeasurementRequest, key: str) -> Optional[RunMeasurement]:
        if not self.cache_enabled:
            return None
        cached = self._memory.get(key)
        if cached is not None:
            return cached
        path = self._path_for(request, key)
        if not path.exists():
            return None
        try:
            raw = json.loads(path.read_text())
            if raw.get("key") != key:
                return None  # digest collision on the shortened filename
            measurement = measurement_from_json(raw["measurement"])
        except (ValueError, KeyError, TypeError):
            return None  # stale/corrupt/partial cache entry: recompute
        self._memory.put(key, measurement)
        return measurement

    def _store(
        self, request: MeasurementRequest, key: str, measurement: RunMeasurement
    ) -> None:
        if not self.cache_enabled:
            return
        self._memory.put(key, measurement)
        path = self._path_for(request, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(
                json.dumps(
                    {
                        "key": key,
                        "request": dataclasses.asdict(request),
                        "measurement": measurement_to_json(measurement),
                    }
                )
            )
            tmp.replace(path)
        except OSError:
            pass  # read-only filesystem: in-memory cache still works

    # -- execution -------------------------------------------------------

    def run(
        self,
        requests: Sequence[MeasurementRequest],
        progress=None,
        *,
        return_errors: bool = False,
        on_result: Optional[
            Callable[[MeasurementRequest, str, MeasurementResult], None]
        ] = None,
    ) -> List[MeasurementResult]:
        """Execute requests, returning results in request order.

        Duplicate requests are computed once.  Misses run serially
        in-process when ``jobs == 1`` and across the process pool
        otherwise; either way the values are identical.

        Fault isolation: a request whose execution raises does not
        abort the sweep — every other request still runs and every
        completed result is cached.  With ``return_errors=True``
        (the service's mode) failures come back as per-row
        :class:`MeasurementResult`\\ s carrying a
        :class:`MeasurementError`; otherwise (CLI paths) a
        :class:`SweepFailure` is raised once the whole grid has been
        attempted.

        ``on_result`` is invoked once per unique request as it
        resolves — hit, miss or failure, in completion order, from the
        calling thread — so a caller can stream rows while the grid is
        still running.
        """
        keys = [self.key_for(req) for req in requests]
        results: Dict[str, MeasurementResult] = {}
        misses: List[tuple] = []
        scheduled = set()
        for request, key in zip(requests, keys):
            if key in results or key in scheduled:
                continue
            started = time.perf_counter()
            cached = self._load(request, key)
            if cached is not None:
                result = MeasurementResult(
                    cached, True, time.perf_counter() - started
                )
                self._resolve(request, key, result, results, progress, on_result)
            else:
                scheduled.add(key)
                misses.append((request, key))

        # Workload-major order: consecutive requests for one workload
        # land in the same worker chunk (or run back-to-back serially),
        # so each process profiles/compiles a module once and re-prices
        # it from its in-memory caches for the rest of the group.
        misses.sort(key=lambda item: (item[0].workload, item[0].size))

        if misses:
            serial = self.jobs == 1 or len(misses) == 1
            if (
                not serial
                and self.jobs_requested == "auto"
                and len(misses) < _MIN_PARALLEL_MISSES
            ):
                serial = True  # auto: tiny grid, pool spin-up dominates
            if serial:
                for request, key in misses:
                    started = time.perf_counter()
                    try:
                        outcome = _execute(dataclasses.asdict(request))
                    except Exception as exc:
                        outcome = _error_outcome(
                            exc, time.perf_counter() - started
                        )
                    self._finish(request, key, outcome, results, progress,
                                 on_result)
            else:
                pool = self._pool()
                started = time.perf_counter()
                futures = {
                    pool.submit(_execute, dataclasses.asdict(request)):
                        (request, key)
                    for request, key in misses
                }
                for future in as_completed(futures):
                    request, key = futures[future]
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        # One worker exception no longer poisons the
                        # whole map(): the other futures keep running
                        # and their results are kept (and cached).
                        outcome = _error_outcome(
                            exc, time.perf_counter() - started
                        )
                    self._finish(request, key, outcome, results, progress,
                                 on_result)

        ordered = [results[key] for key in keys]
        if not return_errors:
            errors, seen = [], set()
            for key, result in zip(keys, ordered):
                if result.error is not None and key not in seen:
                    seen.add(key)
                    errors.append(result.error)
            if errors:
                raise SweepFailure(errors, ordered)
        return ordered

    def _pool(self) -> ProcessPoolExecutor:
        """The engine's worker pool, created once and reused.

        A figure pipeline issues dozens of small grids; keeping the
        workers alive across ``run()`` calls lets each accumulate warm
        profile/compile/costing caches instead of re-deriving them
        after every fork.
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=_pool_context()
            )
            self._finalizer = weakref.finalize(
                self, _shutdown_pool, self._executor
            )
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (also runs when the engine is GC'd).

        Abandons in-flight work (``cancel_futures``); a long-running
        service that wants running measurements to complete first calls
        :meth:`drain` instead.
        """
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            self._executor = None

    def drain(self) -> None:
        """Gracefully release the pool: wait for in-flight work first.

        The daemon's shutdown path — submitted measurements finish (and
        land in the cache) before the workers exit, so a restart does
        not re-pay for work that was already in progress.
        """
        executor = self._executor
        if executor is None:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._executor = None
        executor.shutdown(wait=True, cancel_futures=False)

    def _finish(
        self, request, key, outcome, results, progress, on_result=None
    ) -> None:
        if "error" in outcome:
            error = MeasurementError(
                request=request,
                kind=outcome["error"]["kind"],
                message=outcome["error"]["message"],
            )
            result = MeasurementResult(
                None, False, outcome["elapsed"], error=error
            )
        else:
            measurement = measurement_from_json(outcome["measurement"])
            self._store(request, key, measurement)
            result = MeasurementResult(measurement, False, outcome["elapsed"])
        self._resolve(request, key, result, results, progress, on_result)

    def _resolve(
        self, request, key, result, results, progress, on_result
    ) -> None:
        results[key] = result
        if TRACE.enabled:
            TRACE.emit(
                0.0, MEASURE_REQUEST, label=request.label(),
                cache_hit=result.cache_hit, error=result.error is not None,
            )
        if progress is not None:
            progress(request.label())
        if on_result is not None:
            on_result(request, key, result)

    def measure_one(self, request: MeasurementRequest) -> MeasurementResult:
        return self.run([request])[0]


# --------------------------------------------------------------------------
# Process-wide default engine + CLI plumbing shared by every experiment.

_default_engine: Optional[MeasurementEngine] = None

#: REPRO_CACHE_DIR value that preceded our first override (None = the
#: variable was unset), and whether an override is currently active.
#: ``configure(cache_dir=...)`` points the profile cache into the
#: requested base; reconfiguring *without* a cache_dir must restore the
#: pre-override value, or profile caches silently stay pinned to a
#: stale directory for the rest of the process.
_profile_env_prior: Optional[str] = None
_profile_env_overridden = False


def _apply_profile_cache_env(base: Optional[Path]) -> None:
    global _profile_env_prior, _profile_env_overridden
    if base is not None:
        if not _profile_env_overridden:
            _profile_env_prior = os.environ.get("REPRO_CACHE_DIR")
            _profile_env_overridden = True
        # One base directory for the whole cache family: profiles move
        # with the measurements so --cache-dir isolates everything.
        os.environ["REPRO_CACHE_DIR"] = str(base / "profiles")
    elif _profile_env_overridden:
        if _profile_env_prior is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = _profile_env_prior
        _profile_env_prior = None
        _profile_env_overridden = False


def default_engine() -> MeasurementEngine:
    global _default_engine
    if _default_engine is None:
        _default_engine = MeasurementEngine()
    return _default_engine


def configure(
    jobs=None,
    cache: Optional[bool] = None,
    cache_dir: Optional[os.PathLike] = None,
) -> MeasurementEngine:
    """(Re)configure the process-wide engine; returns it.

    ``jobs`` is an int or ``"auto"`` (size to the machine, serial
    fallback for small grids); None keeps the current setting.
    """
    global _default_engine
    current = default_engine()
    base = Path(cache_dir) if cache_dir is not None else None
    _apply_profile_cache_env(base)
    replacement = MeasurementEngine(
        jobs=current.jobs_requested if jobs is None else jobs,
        cache=current.cache_enabled if cache is None else cache,
        cache_dir=base / "measurements" if base is not None else None,
    )
    settings = (
        replacement.jobs_requested,
        replacement.cache_enabled,
        replacement.cache_dir,
    )
    if settings == (
        current.jobs_requested,
        current.cache_enabled,
        current.cache_dir,
    ):
        # Same settings: keep the warm pool and in-memory results
        # (``leaps-bench all`` reconfigures before every figure).
        return current
    current.close()
    _default_engine = replacement
    return _default_engine


def reset_default_engine() -> None:
    """Drop the process-wide engine (tests); undoes any env override."""
    global _default_engine
    if _default_engine is not None:
        _default_engine.close()
    _default_engine = None
    _apply_profile_cache_env(None)
