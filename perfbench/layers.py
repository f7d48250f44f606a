"""Per-layer tracing for the benchmark's traced runs.

The benchmark wraps each layer's entry points from outside the program
(nothing under ``src/`` records spans) and restores the originals when
done.  A span's *self time* is its duration minus the spans it
encloses on the same thread.  Spans read the calling thread's CPU
clock, so a span on one daemon thread does not absorb time that
another thread held the interpreter lock for.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from typing import Callable, Dict, List, Tuple

#: Span name -> layer reported for it.
LAYER_OF = {
    "wasm": "wasm",
    "runtime": "runtime",
    "runtimes": "runtimes",
    "sim": "sim",
    "oskernel.populate": "oskernel",
    "oskernel.zap": "oskernel",
    "harness": "harness",
    "engine.key": "core.engine",
    "engine.run": "core.engine",
    "service": "service",
    # The benchmark's own speed probe (see benchlib.SpeedProbe).
    "probe": "perfbench.probe",
}


class _ThreadState:
    def __init__(self) -> None:
        #: One child-time accumulator per open span.
        self.stack: List[float] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        #: (workload, size) -> instructions, for profiles and modules seen.
        self.profiles: Dict[tuple, int] = {}
        self.modules: set = set()
        #: sim Engine -> scheduled callbacks already counted.
        self.seen_events = weakref.WeakKeyDictionary()


class Tracer:
    """Collects span self times and counts, one state per thread."""

    def __init__(self, clock: Callable[[], float] = time.thread_time) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object]] = []

    def state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _open(self) -> Tuple[_ThreadState, float]:
        st = self.state()
        st.stack.append(0.0)
        return st, self.clock()

    def _close(self, st: _ThreadState, name: str, started: float) -> None:
        elapsed = self.clock() - started
        children = st.stack.pop()
        st.self_s[name] = st.self_s.get(name, 0.0) + elapsed - children
        st.calls[name] = st.calls.get(name, 0) + 1
        if st.stack:
            st.stack[-1] += elapsed

    def wrap(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(state, args, result)``
        runs inside the span to record counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, started = self._open()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(st, args, result)
                return result
            finally:
                self._close(st, name, started)

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """A coroutine function whose every step is timed as span ``name``.

        Only the steps count: time the coroutine spends suspended in an
        ``await`` is not its own.
        """
        tracer = self

        class _Stepped:
            def __init__(self, coro) -> None:
                self.coro = coro

            def __await__(self):
                steps = self.coro.__await__()
                value, error = None, None
                while True:
                    st, started = tracer._open()
                    try:
                        if error is not None:
                            yielded = steps.throw(error)
                        else:
                            yielded = steps.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._close(st, name, started)
                    try:
                        value, error = (yield yielded), None
                    except BaseException as exc:  # re-raised into the coroutine
                        value, error = None, exc

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            return await _Stepped(fn(*args, **kwargs))

        return traced

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- totals ------------------------------------------------------------

    def totals(self) -> dict:
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        counts: Dict[str, int] = {}
        profiles: Dict[tuple, int] = {}
        modules: set = set()
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, value in st.self_s.items():
                self_s[key] = self_s.get(key, 0.0) + value
            for key, value in st.calls.items():
                calls[key] = calls.get(key, 0) + value
            for key, value in st.counts.items():
                counts[key] = counts.get(key, 0) + value
            profiles.update(st.profiles)
            modules |= st.modules
        layers: Dict[str, float] = {}
        for span, seconds in self_s.items():
            layer = LAYER_OF[span]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return {
            "self_s": self_s,
            "calls": calls,
            "counts": counts,
            "layers": layers,
            "modules": len(modules),
            "profiles": len(profiles),
            "instrs": sum(profiles.values()),
        }


def _bump(st: _ThreadState, key: str, amount: int) -> None:
    st.counts[key] = st.counts.get(key, 0) + amount


def _count_module(st, args, _result) -> None:
    st.modules.add(tuple(args[:2]))


def _count_profile(st, args, result) -> None:
    _module, profile = result
    st.profiles[tuple(args[:2])] = profile.total_instrs


def _count_events(st, args, _result) -> None:
    engine = args[0]
    scheduled = engine._sequence  # callbacks scheduled over its lifetime
    _bump(st, "sim.events", scheduled - st.seen_events.get(engine, 0))
    st.seen_events[engine] = scheduled


def _count_pages(key: str) -> Callable:
    def after(st, _args, result) -> None:
        _bump(st, key, result)

    return after


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; undo with ``tracer.restore()``."""
    from repro.core import engine as core_engine
    from repro.core import harness, profiles
    from repro.oskernel.addressspace import Area
    from repro.runtimes.base import RuntimeModel
    from repro.service.daemon import SweepService
    from repro.service.jobs import JobManager
    from repro.sim.engine import Engine

    module_for = tracer.wrap("wasm", profiles.module_for, _count_module)
    tracer.patch(profiles, "module_for", module_for)
    profile_for = tracer.wrap("runtime", profiles.profile_for, _count_profile)
    tracer.patch(profiles, "profile_for", profile_for)
    tracer.patch(harness, "profile_for", profile_for)
    for method in ("cycles", "check_stats"):
        tracer.patch(
            RuntimeModel, method,
            tracer.wrap("runtimes", vars(RuntimeModel)[method]),
        )
    tracer.patch(Engine, "run", tracer.wrap("sim", Engine.run, _count_events))
    tracer.patch(
        Area, "populate",
        tracer.wrap(
            "oskernel.populate", Area.populate,
            _count_pages("oskernel.pages_populated"),
        ),
    )
    tracer.patch(
        Area, "zap",
        tracer.wrap("oskernel.zap", Area.zap, _count_pages("oskernel.pages_zapped")),
    )
    tracer.patch(
        core_engine, "run_benchmark",
        tracer.wrap("harness", core_engine.run_benchmark),
    )
    engine_cls = core_engine.MeasurementEngine
    tracer.patch(engine_cls, "key_for", tracer.wrap("engine.key", engine_cls.key_for))
    tracer.patch(engine_cls, "run", tracer.wrap("engine.run", engine_cls.run))
    # The service's HTTP surface is served by these: one coroutine per
    # connection, one per job, and the prep/completion callbacks.
    tracer.patch(
        SweepService, "_handle_connection",
        tracer.wrap_async("service", SweepService._handle_connection),
    )
    tracer.patch(
        JobManager, "_run_job",
        tracer.wrap_async("service", JobManager._run_job),
    )
    for method in ("_prepare", "_complete"):
        tracer.patch(
            JobManager, method, tracer.wrap("service", vars(JobManager)[method])
        )


def layer_metrics(totals: dict) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced pass."""
    self_s = totals["self_s"]
    counts = totals["counts"]
    calls = totals["calls"]

    def secs(name: str) -> float:
        return self_s.get(name, 0.0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    events = counts.get("sim.events", 0)
    populated = counts.get("oskernel.pages_populated", 0)
    zapped = counts.get("oskernel.pages_zapped", 0)
    page_s = secs("oskernel.populate") + secs("oskernel.zap")
    return {
        "wasm.build_s": secs("wasm"),
        "wasm.modules": totals["modules"],
        "runtime.profile_s": secs("runtime"),
        "runtime.profiles": totals["profiles"],
        "runtime.instrs": totals["instrs"],
        "runtime.minstr_per_s": ratio(totals["instrs"], secs("runtime"), 1e-6),
        "runtimes.cost_s": secs("runtimes"),
        "runtimes.cost_calls": calls.get("runtimes", 0),
        "sim.run_s": secs("sim"),
        "sim.events": events,
        "sim.ns_per_event": ratio(secs("sim"), events, 1e9),
        "oskernel.populate_s": secs("oskernel.populate"),
        "oskernel.zap_s": secs("oskernel.zap"),
        "oskernel.pages_populated": populated,
        "oskernel.pages_zapped": zapped,
        "oskernel.ns_per_page": ratio(page_s, populated + zapped, 1e9),
        "harness.cell_s": secs("harness"),
        "engine.key_s": secs("engine.key"),
        "engine.run_s": secs("engine.run"),
        "service.self_s": secs("service"),
    }
