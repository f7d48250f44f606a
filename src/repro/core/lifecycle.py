"""Per-instance memory lifecycle: strategy → kernel events.

This module is where the five bounds-checking strategies become
different *system* behaviour (§3.1, §4.1.1).  Each worker owns one
linear-memory arena (an 8 GiB reservation).  Per benchmark iteration:

=========  =============================  ===============================
strategy   grow (iteration start)         reset (iteration end)
=========  =============================  ===============================
none       nothing (mapped RW at setup)   madvise(DONTNEED)  [read lock]
clamp      nothing                        madvise(DONTNEED)  [read lock]
trap       nothing                        madvise(DONTNEED)  [read lock]
mprotect   mprotect(range, RW) [WRITE]    mprotect(range, NONE) [WRITE,
                                          zap + TLB shootdown]
uffd       atomic size store (no kernel)  madvise(DONTNEED)  [read lock]
mte        userspace retag (no kernel)    madvise(DONTNEED)  [read lock]
wasm64     nothing (no guard region to    madvise(DONTNEED)  [read lock]
           manage; checks are explicit)
=========  =============================  ===============================

During the run, first-touch faults populate the working set: anonymous
demand-zero faults (read lock) for everything except ``uffd``, which
takes the SIGBUS + UFFDIO_ZEROPAGE path.  Faults are replayed in
batches spread across the first part of the compute phase
(DESIGN.md §5 approximation note).

Native baselines run one *process* per instance: a fresh mmap/munmap
pair brackets every iteration (the paper's vfork+fexecve runner), and
each process has its own ``mmap_lock``, which is exactly why native
code never sees the contention collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.cpu.core import USER
from repro.cpu.thread import SimThread
from repro.oskernel.kernel import Kernel, KernelProcess
from repro.oskernel.layout import GUARD_REGION_BYTES, PAGE_SIZE, WASM_PAGE_SIZE
from repro.oskernel.vma import Prot
from repro.runtime.strategies import BoundsStrategy
from repro.trace.events import (
    GC_PAUSE,
    ITER_BEGIN,
    ITER_END,
    STRATEGY_GROW_BEGIN,
    STRATEGY_GROW_END,
    STRATEGY_RESET_BEGIN,
    STRATEGY_RESET_END,
)
from repro.trace.tracer import TRACE

#: Cost of the vfork+fexecve process spawn per native iteration; the
#: paper measures it "on the order of a hundred microseconds" (§3.5).
NATIVE_SPAWN_SECONDS = 150e-6

#: Minimum pages per replayed fault batch (one THP mapping).
FAULT_BATCH_PAGES = 512

#: Fraction of the compute phase over which first-touch faults spread.
FAULT_PHASE_FRACTION = 0.4

#: Cost of the uffd strategy's atomic arena-size update.
ATOMIC_GROW_SECONDS = 40e-9

#: MTE retag throughput: seconds per 16-byte tag granule.  STG/DC GVA
#: tag at roughly one granule per cycle on current Arm cores (~2.2
#: GHz), so ~0.45 ns/granule.  Pure userspace work: no syscall, no
#: VMA mutation, no mmap_lock — which is the whole point of the
#: strategy under thread scaling.
MTE_RETAG_SECONDS_PER_GRANULE = 0.45e-9

#: The MTE tag granule in bytes (Arm MTE architectural constant).
MTE_TAG_GRANULE_BYTES = 16


@dataclass(frozen=True)
class SyscallBatch:
    """One group of same-named, similar-sized WASI calls per iteration.

    Batches are built per (syscall name, log2 payload bucket) so a
    workload mixing 4-byte and 4 KiB reads is priced per regime, and
    the per-syscall latency histograms in the trace layer keep the
    payload-driven spread.  ``name`` is the *cost* name — reads and
    writes on direct-I/O files carry an ``@direct`` suffix.
    """

    name: str
    calls: int
    nbytes: int
    seconds: float   # total simulated kernel time for the batch
    per_call: float  # seconds per individual call (latency sample)


@dataclass(frozen=True)
class IterationPlan:
    """Everything a worker needs to replay one benchmark iteration."""

    compute_seconds: float
    touched_pages: int  # 4 KiB pages populated per iteration
    memory_bytes: int   # accessible linear-memory range
    strategy: BoundsStrategy
    native: bool = False
    #: V8's stop-the-world GC: pauses of ``gc_duration`` every
    #: ``gc_interval`` of execution (0 = no GC).
    gc_interval: float = 0.0
    gc_duration: float = 0.0
    #: Kernel crossings replayed inside the timed region (WASI family;
    #: empty for compute-family workloads).
    syscalls: Tuple[SyscallBatch, ...] = ()

    @property
    def syscall_seconds(self) -> float:
        """Modelled kernel time per iteration (sum over batches)."""
        return sum(batch.seconds for batch in self.syscalls)


def make_plan(
    cycles: float,
    frequency_hz: float,
    strategy: BoundsStrategy,
    time_scale: float,
    memory_bytes: int,
    native: bool = False,
    gc_interval: float = 0.0,
    gc_duration: float = 0.0,
    syscalls: Optional[Dict[str, dict]] = None,
    syscall_model=None,
) -> IterationPlan:
    """Scale a functional profile up to paper-sized iterations.

    ``time_scale`` stretches the modelled compute cycles to the
    paper-scale iteration duration; ``memory_bytes`` is the paper-scale
    data footprint, all of which is touched (and hence faulted) each
    iteration.

    ``syscalls`` is the profile's host-call census
    (:meth:`repro.runtime.hostiface.SyscallRecorder.snapshot`); call
    counts scale by the same ``time_scale`` as compute so syscall
    *density* (crossings per second of work) survives the stretch to
    paper scale.  ``syscall_model`` (a
    :class:`repro.oskernel.syscalls.SyscallCostModel`) prices them.
    """
    compute_seconds = cycles / frequency_hz * time_scale
    memory_bytes = max(WASM_PAGE_SIZE, min(memory_bytes, GUARD_REGION_BYTES))
    touched_pages = max(1, memory_bytes // PAGE_SIZE)
    return IterationPlan(
        compute_seconds=compute_seconds,
        touched_pages=touched_pages,
        memory_bytes=memory_bytes,
        strategy=strategy,
        native=native,
        gc_interval=gc_interval,
        gc_duration=gc_duration,
        syscalls=plan_syscalls(syscalls, time_scale, syscall_model),
    )


def plan_syscalls(
    census: Optional[Dict[str, dict]],
    time_scale: float,
    syscall_model,
) -> Tuple[SyscallBatch, ...]:
    """Turn a profile's syscall census into priced per-iteration batches.

    One batch per (name, log2 payload bucket), in sorted order so the
    replay sequence — and therefore every downstream float accumulation
    — is deterministic.  Per-bucket average payload size is preserved
    under scaling (calls stretch, the per-call payload does not).
    """
    if not census or syscall_model is None:
        return ()
    batches = []
    for name in sorted(census):
        entry = census[name]
        base, _, modifier = name.partition("@")
        direct = modifier == "direct"
        for bucket in sorted(entry["buckets"], key=int):
            calls, nbytes = entry["buckets"][bucket]
            if calls <= 0:
                continue
            scaled_calls = max(1, round(calls * time_scale))
            scaled_bytes = round(scaled_calls * (nbytes / calls))
            seconds, per_call = syscall_model.batch(
                base, scaled_calls, scaled_bytes, direct=direct
            )
            batches.append(SyscallBatch(
                name=name,
                calls=scaled_calls,
                nbytes=scaled_bytes,
                seconds=seconds,
                per_call=per_call,
            ))
    return tuple(batches)


class InstanceLifecycle:
    """One worker's arena and its per-iteration kernel interaction."""

    def __init__(
        self,
        kernel: Kernel,
        proc: KernelProcess,
        thread: SimThread,
        plan: IterationPlan,
    ) -> None:
        self.kernel = kernel
        self.proc = proc
        self.thread = thread
        self.plan = plan
        self.area = None
        #: Executed time since the last stop-the-world GC pause.
        self._since_gc = 0.0
        #: Iterations started (warm-up + timed + cool-down), for tracing.
        self._iteration = 0

    def _trace(self, name: str, **args) -> None:
        TRACE.emit(
            self.thread.engine.now, name,
            thread=self.thread.name, core=self.thread.core.index,
            tgid=self.proc.tgid, **args,
        )

    # ------------------------------------------------------------------
    def _run_compute(self, seconds: float) -> Generator:
        """Burn compute time, pausing for GC at the configured cadence.

        GC pauses land *inside* the timed region — a safepoint stops
        the mutator mid-execution — which is what degrades V8's
        long-running iterations at high thread counts (§4.1.1).
        """
        plan = self.plan
        if plan.gc_interval <= 0:
            if seconds > 0:
                yield from self.thread.run(seconds, USER)
            return
        while seconds > 0:
            step = min(seconds, plan.gc_interval - self._since_gc)
            yield from self.thread.run(step, USER)
            self._since_gc += step
            seconds -= step
            if self._since_gc >= plan.gc_interval:
                if TRACE.enabled:
                    self._trace(GC_PAUSE, duration=plan.gc_duration)
                yield from self.thread.sleep(plan.gc_duration)
                self._since_gc = 0.0

    # ------------------------------------------------------------------
    def setup(self) -> Generator:
        """One-time arena creation (reused across iterations)."""
        if self.plan.native:
            return  # native maps per iteration (fresh process image)
        self.area = yield from self.kernel.sys_mmap_reserve(
            self.thread, self.proc, GUARD_REGION_BYTES, name="wasm-arena"
        )
        strategy = self.plan.strategy
        if strategy.grow_mechanism == "mprotect":
            return  # stays PROT_NONE; grows make it accessible
        # none/clamp/trap/uffd: map the whole reservation RW up front.
        yield from self.kernel.sys_mprotect(
            self.thread, self.proc, self.area, 0, self.area.length, Prot.RW
        )
        if strategy.fault_mechanism == "uffd":
            yield from self.kernel.sys_uffd_register(
                self.thread, self.proc, self.area
            )

    # ------------------------------------------------------------------
    def run_iteration(self) -> Generator:
        """One benchmark iteration; returns the *timed* duration.

        The paper's harness times module execution only: instance
        setup (grow) and teardown (reset) stay outside the reported
        time, but still happen on the machine and therefore show up in
        utilisation, context switches and lock contention.
        """
        index = self._iteration
        self._iteration += 1
        if TRACE.enabled:
            self._trace(ITER_BEGIN, index=index)
        if self.plan.native:
            timed = yield from self._native_iteration()
        else:
            timed = yield from self._wasm_iteration()
        if TRACE.enabled:
            self._trace(ITER_END, index=index, timed=timed)
        return timed

    # ------------------------------------------------------------------
    def _wasm_iteration(self) -> Generator:
        plan = self.plan
        strategy = plan.strategy
        # The timed region starts here: the benchmark program's own
        # allocation (malloc -> memory.grow) happens inside ``main``,
        # so the grow syscall — and any mmap_lock wait it suffers —
        # is part of the measured execution time.
        timed_start = self.thread.engine.now
        if TRACE.enabled:
            self._trace(STRATEGY_GROW_BEGIN, mechanism=strategy.grow_mechanism)
        if strategy.grow_mechanism == "mprotect":
            yield from self.kernel.sys_mprotect(
                self.thread, self.proc, self.area, 0, plan.memory_bytes,
                Prot.RW, thp=True,
            )
        elif strategy.grow_mechanism == "atomic":
            yield from self.thread.run(ATOMIC_GROW_SECONDS, USER)
        elif strategy.grow_mechanism == "retag":
            # MTE: every new granule gets its allocation tag set in
            # userspace (STG loop / DC GVA).  Costs CPU time linear in
            # the grown range but never touches the VMA tree or
            # mmap_lock, so it cannot collapse under thread scaling.
            granule = strategy.tag_granule or MTE_TAG_GRANULE_BYTES
            granules = plan.memory_bytes // granule
            yield from self.thread.run(
                granules * MTE_RETAG_SECONDS_PER_GRANULE, USER
            )
        if TRACE.enabled:
            self._trace(STRATEGY_GROW_END, mechanism=strategy.grow_mechanism)
        yield from self._compute_with_faults(self.area)
        yield from self._replay_syscalls()
        timed = self.thread.engine.now - timed_start
        # Reset (untimed): each iteration runs a *fresh* instance, so
        # the arena returns to demand-zero.  mprotect revokes access
        # under the exclusive lock (the paper's contended path);
        # everything else uses madvise(DONTNEED) under the shared lock.
        if TRACE.enabled:
            self._trace(STRATEGY_RESET_BEGIN, mechanism=strategy.reset_mechanism)
        if strategy.reset_mechanism == "mprotect":
            yield from self.kernel.sys_mprotect(
                self.thread, self.proc, self.area, 0, plan.memory_bytes,
                Prot.NONE, thp=True,
            )
        else:
            yield from self.kernel.sys_madvise_dontneed(
                self.thread, self.proc, self.area, 0, plan.memory_bytes,
                thp=True,
            )
        if TRACE.enabled:
            self._trace(STRATEGY_RESET_END, mechanism=strategy.reset_mechanism)
        return timed

    def _native_iteration(self) -> Generator:
        # Native timing covers the whole process run, spawn included —
        # the paper measures it at ~100 µs and accepts the noise (§3.5).
        plan = self.plan
        timed_start = self.thread.engine.now
        yield from self.thread.run(NATIVE_SPAWN_SECONDS, "sys")
        area = yield from self.kernel.sys_mmap_reserve(
            self.thread, self.proc, plan.memory_bytes, name="native-heap"
        )
        yield from self.kernel.sys_mprotect(
            self.thread, self.proc, area, 0, plan.memory_bytes, Prot.RW, thp=True
        )
        yield from self._compute_with_faults(area)
        yield from self._replay_syscalls()
        yield from self.kernel.sys_munmap(self.thread, self.proc, area)
        return self.thread.engine.now - timed_start

    def _replay_syscalls(self) -> Generator:
        """Replay the iteration's kernel crossings (timed region).

        The functional run interleaves host calls with compute, but the
        replay charges them back-to-back after the compute phase: WASI
        crossings never touch the VMA tree, so their *placement* inside
        the iteration cannot change lock contention — only their total
        time matters, and batching keeps the event count bounded.
        """
        for batch in self.plan.syscalls:
            yield from self.kernel.sys_wasi_batch(
                self.thread, self.proc, batch.name, batch.calls,
                batch.nbytes, batch.seconds, batch.per_call,
            )

    # ------------------------------------------------------------------
    def _compute_with_faults(self, area) -> Generator:
        plan = self.plan
        pages = plan.touched_pages - area.populated_pages
        if pages <= 0:  # nothing to fault (defensive; resets zap)
            yield from self._run_compute(plan.compute_seconds)
            return
        # Batches align to THP granularity (512 pages: one huge-page
        # fault each) and are capped in number: faults take the *read*
        # side of mmap_lock, so coarser batching does not change the
        # contention structure, only the event count.
        batch_pages = max(512, math.ceil(pages / 256))
        batches = math.ceil(pages / batch_pages)
        fault_span = plan.compute_seconds * FAULT_PHASE_FRACTION
        chunk = fault_span / batches if batches else 0.0
        uffd = (not plan.native) and plan.strategy.fault_mechanism == "uffd"
        offset = area.populated_pages * PAGE_SIZE
        for index in range(batches):
            count = min(batch_pages, pages - index * batch_pages)
            length = count * PAGE_SIZE
            if uffd:
                # The SIGBUS handler populates 2 MiB per fault (§2.3.1:
                # "the faulted page, or a larger range of pages").
                yield from self.kernel.fault_uffd_batch(
                    self.thread, self.proc, area, offset, length,
                    range_pages=512,
                )
            else:
                yield from self.kernel.fault_anon_batch(
                    self.thread, self.proc, area, offset, length, thp=True
                )
            offset += length
            yield from self._run_compute(chunk)
        yield from self._run_compute(
            plan.compute_seconds * (1.0 - FAULT_PHASE_FRACTION)
        )
