"""Pure helpers of the repository benchmark: workloads, statistics, digests.

Nothing here imports ``repro``: the workload definitions are spelled
out so that a change to the program's own quick subsets or strategy
lists cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import signal
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

WORKLOADS = ("scaling-cold", "profile-cold", "service-mixed")

#: ``repro.core.experiments.common.PBC_QUICK`` as of the benchmark's
#: definition.
PBC_QUICK = (
    "gemm", "2mm", "atax", "trisolv", "jacobi-2d",
    "cholesky", "floyd-warshall", "deriche",
)
POLYBENCH = (
    "gemm", "2mm", "3mm", "atax", "bicg", "doitgen", "mvt", "gemver",
    "gesummv", "symm", "syrk", "syr2k", "trmm", "cholesky", "durbin",
    "gramschmidt", "lu", "ludcmp", "trisolv", "correlation", "covariance",
    "deriche", "floyd-warshall", "nussinov", "adi", "fdtd-2d", "heat-3d",
    "jacobi-1d", "jacobi-2d", "seidel-2d",
)
SPEC = (
    "505.mcf", "525.x264", "531.deepsjeng", "557.xz", "508.namd",
    "519.lbm", "544.nab",
)
PAPER_STRATEGIES = ("none", "clamp", "trap", "mprotect", "uffd")
SERVICE_RUNTIMES = ("wavm", "wasmtime", "v8")

#: scaling-cold: the fig3 thread-scaling grid shape.
SCALING_SUITES = (("polybench", PBC_QUICK), ("spec", ("505.mcf", "519.lbm")))
SCALING_CONFIGS = (
    ("wavm", "none"), ("wavm", "mprotect"), ("wavm", "uffd"), ("v8", "mprotect"),
)
SCALING_THREADS = (1, 4, 16)
#: The second pass re-reads these thread counts, as fig4 does after fig3.
REREAD_THREADS = (1, 16)

#: service-mixed: the grid set-up fills, and the never-seen mini pool.
WARM_THREADS = (1, 4)
MINI_THREADS = (1, 2, 3, 4)
#: One job in this many is a never-seen ``mini`` spec (a write).
WRITE_EVERY = 24

#: Row columns that describe how a row was produced, not what the model
#: computed; the output-identity digest leaves them out.
HOST_FIELDS = ("elapsed_s", "cache_hit", "source")

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


# -- workloads -------------------------------------------------------------

def spec_json(
    workloads: Sequence[str], runtimes: Sequence[str],
    strategies: Sequence[str], threads: Sequence[int], size: str = "small",
) -> dict:
    """A ``SweepSpec.to_json()``-shaped dict (x86_64, 3 iterations, 1 warmup)."""
    return {
        "workloads": list(workloads),
        "runtimes": list(runtimes),
        "strategies": list(strategies),
        "isas": ["x86_64"],
        "threads": list(threads),
        "size": size,
        "iterations": 3,
        "warmup": 1,
    }


def scaling_jobs(seed: int) -> List[dict]:
    """scaling-cold: fig3's per-configuration specs, then fig4's re-reads.

    The 120 cells are fixed.  The seed permutes the order of the
    (suite, runtime/strategy) groups and of the workloads within each
    spec.  Within a group the thread counts keep fig3's ascending order,
    so the same cells pay the first-touch compile and costing whatever
    the seed.
    """
    rng = random.Random(seed)
    passes = []
    for threads_axis in (SCALING_THREADS, REREAD_THREADS):
        groups = [
            (names, runtime, strategy)
            for _suite, names in SCALING_SUITES
            for runtime, strategy in SCALING_CONFIGS
        ]
        rng.shuffle(groups)
        for names, runtime, strategy in groups:
            for threads in threads_axis:
                order = list(names)
                rng.shuffle(order)
                passes.append(spec_json(order, [runtime], [strategy], [threads]))
    return passes


def profile_jobs(seed: int) -> List[dict]:
    """profile-cold: every compute workload once, wavm/mprotect, 1 thread.

    The seed permutes the PolyBench kernels, which come first, and the
    SPEC proxies, which follow.  The pass's peak memory comes from the
    big SPEC profiles; with them anywhere in the order it moved by a
    tenth with the seed.
    """
    rng = random.Random(seed)
    names = []
    for suite in (POLYBENCH, SPEC):
        order = list(suite)
        rng.shuffle(order)
        names += order
    return [spec_json([name], ["wavm"], ["mprotect"], [1]) for name in names]


def scaling_profile_workloads() -> List[str]:
    """Workloads scaling-cold profiles during set-up."""
    return [name for _suite, names in SCALING_SUITES for name in names]


def warm_grid() -> dict:
    """The grid service-mixed set-up computes into the measurement cache."""
    return spec_json(
        PBC_QUICK, SERVICE_RUNTIMES, PAPER_STRATEGIES, WARM_THREADS
    )


def mini_pool() -> List[Tuple[str, str, str, int]]:
    """Every never-seen cell a service-mixed write may request.

    PolyBench only: a ``mini`` SPEC proxy cell costs 0.05-2 s, which
    would turn the workload into a compute benchmark.
    """
    return [
        (workload, runtime, strategy, threads)
        for workload in POLYBENCH
        for runtime in SERVICE_RUNTIMES
        for strategy in PAPER_STRATEGIES
        for threads in MINI_THREADS
    ]


def job_stream(seed: int) -> Iterator[Tuple[str, dict]]:
    """The endless seeded service-mixed job stream of ``(kind, spec)``.

    ``kind`` is ``"read"`` for a sub-grid of :func:`warm_grid` (one
    workload and runtime, a random non-empty subset of strategies and
    thread counts) and ``"write"`` for one never-seen cell of
    :func:`mini_pool`; every ``WRITE_EVERY``-th job is a write.  Writes
    walk the pool without replacement, in rounds that take one cell of
    each workload in a seeded order, so that every run's writes cost
    about the same: a write's cost is mostly its workload's, and the
    first round pays each workload's first profile.  A run that
    outlasts the pool wraps round, and the repeats are reads.
    """
    rng = random.Random(seed)
    by_workload: Dict[str, list] = {}
    for cell in mini_pool():
        by_workload.setdefault(cell[0], []).append(cell)
    for cells in by_workload.values():
        rng.shuffle(cells)
    order = list(by_workload)
    pool = []
    for turn in range(len(by_workload[order[0]])):
        rng.shuffle(order)
        pool += [by_workload[name][turn] for name in order]
    for job in itertools.count(1):
        if job % WRITE_EVERY == 0:
            workload, runtime, strategy, threads = pool[
                (job // WRITE_EVERY - 1) % len(pool)
            ]
            yield "write", spec_json(
                [workload], [runtime], [strategy], [threads], size="mini"
            )
            continue
        strategies = [s for s in PAPER_STRATEGIES if rng.random() < 0.5]
        threads = [t for t in WARM_THREADS if rng.random() < 0.5]
        yield "read", spec_json(
            [rng.choice(PBC_QUICK)],
            [rng.choice(SERVICE_RUNTIMES)],
            strategies or [rng.choice(PAPER_STRATEGIES)],
            threads or [rng.choice(WARM_THREADS)],
        )


# -- measurement -----------------------------------------------------------

def peak_rss_mib(pid: str = "self") -> float:
    """High-water resident set of a process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def probe_once() -> float:
    """Host seconds of the fixed reference work :class:`SpeedProbe` runs.

    The work adds and discards scattered integers in a set, and so
    misses the CPU caches the way the program's page sets and
    interpreter tables do.
    """
    pages = set()
    started = time.perf_counter()
    for i in range(SpeedProbe.ITEMS):
        pages.add(i * 4099 % 1000003)
    for i in range(SpeedProbe.ITEMS):
        pages.discard(i * 4099 % 1000003)
    return time.perf_counter() - started


class SpeedProbe:
    """How fast this process runs fixed reference work during a pass.

    Host speed on a shared machine changes by up to a factor of two
    from one second to the next.  While started, a timer signal
    interrupts the main thread every ``EVERY_S`` host seconds to run
    :func:`probe_once`, and :meth:`mark` probes at chosen points (cell
    boundaries).  :meth:`interval` turns host seconds into *reference
    seconds*: host seconds at the speed at which a probe takes
    ``REF_S``, with the speed read off the probes on either side of
    each stretch.  ``run`` may be replaced, for example by a traced
    wrapper.
    """

    ITEMS = 40000
    REF_S = 0.012
    EVERY_S = 0.5
    #: :meth:`mark` skips its probe when the last one ended this recently.
    MARK_GAP_S = 0.005

    def __init__(self) -> None:
        #: ``(start, end, probe seconds)`` of every probe, in order.
        self.probes: List[Tuple[float, float, float]] = []
        #: Host seconds spent probing, to take out of the pass's time.
        self.spent = 0.0
        self.run = probe_once
        self._busy = False

    @property
    def samples(self) -> List[float]:
        return [took for _start, _end, took in self.probes]

    def _sample(self, *_signal) -> None:
        if self._busy:  # the timer fired during a mark's probe
            return
        self._busy = True
        try:
            started = time.perf_counter()
            took = self.run()
            ended = time.perf_counter()
            self.probes.append((started, ended, took))
            self.spent += ended - started
        finally:
            self._busy = False

    def mark(self) -> None:
        """Probe now, unless a probe ended within ``MARK_GAP_S``."""
        last_end = self.probes[-1][1] if self.probes else -math.inf
        if time.perf_counter() - last_end >= self.MARK_GAP_S:
            self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def interval(self, start: float, end: float) -> Tuple[float, float]:
        """``(host seconds, reference seconds)`` of ``[start, end]``.

        Probe time is left out of both.  Each stretch between two
        probes runs at the mean speed of those two probes; a stretch
        before the first or after the last probe at that probe's speed.
        """
        host = ref = 0.0
        probes = self.probes
        edges = [(-math.inf, probes[0][0], probes[0][2], probes[0][2])]
        edges += [
            (left[1], right[0], left[2], right[2])
            for left, right in zip(probes, probes[1:])
        ]
        edges.append((probes[-1][1], math.inf, probes[-1][2], probes[-1][2]))
        for gap_start, gap_end, took_left, took_right in edges:
            span = min(end, gap_end) - max(start, gap_start)
            if span > 0:
                host += span
                ref += span * self.REF_S / ((took_left + took_right) / 2)
        return host, ref

    @classmethod
    def burst(cls, count: int = 10) -> float:
        """:meth:`factor` of ``count`` probes run back to back now."""
        speed = cls()
        for _ in range(count):
            speed._sample()
        return speed.factor()

    def factor(self) -> float:
        """Reference seconds per host second at the mean probe time."""
        samples = self.samples
        return self.REF_S / (sum(samples) / len(samples))


# -- statistics ------------------------------------------------------------

def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def hd_quantile(samples: Sequence[float], q: float, steps: int = 20000) -> float:
    """Harrell-Davis ``q``-quantile (0 < q < 1) of a non-empty sample.

    A weighted mean of every order statistic, the i-th of n weighted by
    the Beta((n+1)q, (n+1)(1-q)) mass on ((i-1)/n, i/n].  Unlike the
    nearest rank, it does not jump when one noisy sample crosses the
    middle of a small sample with a gap in it.  The Beta masses are
    integrated with the midpoint rule over ``steps`` strips.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        density = math.exp(
            log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
        )
        weights[min(n - 1, int(t * n))] += density
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-quantile."""
    return n - max(1, math.ceil(q * n))


def tail_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-quantile."""
    return samples_beyond(n, q) >= TAIL_SAMPLES



# -- output identity -------------------------------------------------------

def cell_label(
    workload: str, runtime: str, strategy: str, isa: str, threads: int,
    size: str, iterations: int,
) -> str:
    return (
        f"{workload} {runtime}/{strategy}/{isa}/t{threads} "
        f"{size} i{iterations}"
    )


def digest(record: dict) -> str:
    """Digest of a cell's simulated fields; host-time columns excluded."""
    kept = {k: v for k, v in record.items() if k not in HOST_FIELDS}
    canonical = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def load_expected(workload: str) -> Dict[str, str]:
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text())["digests"]


def check_digest(
    expected: Dict[str, str], label: str, actual: str
) -> Optional[str]:
    """None when ``actual`` is the committed digest, else why not."""
    want = expected.get(label)
    if want is None:
        return f"{label}: no expected digest"
    if want != actual:
        return f"{label}: digest {actual} != expected {want}"
    return None
