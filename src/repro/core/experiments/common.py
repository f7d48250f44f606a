"""Shared plumbing for the figure experiments."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List

from repro.core.harness import RunMeasurement
from repro.runtime.strategies import PAPER_STRATEGY_ORDER
from repro.runtimes import RUNTIMES, runtime_named
from repro.workloads import suite_workloads

#: Representative subsets for the system-level (multi-thread) figures:
#: they span long/short iterations, float/integer kernels, and the
#: memory-intensity range — chosen so the contention effects the paper
#: reports on "short-running benchmarks" are represented.
PBC_QUICK = [
    "gemm", "2mm", "atax", "trisolv", "jacobi-2d",
    "cholesky", "floyd-warshall", "deriche",
]
SPEC_QUICK = ["505.mcf", "519.lbm", "557.xz"]

#: Runtime rows in the paper's presentation order (Fig. 2).
RUNTIME_ORDER = ["native-gcc", "wavm", "wasmtime", "v8", "wasm3"]
BASELINE = "native-clang"


def suite_names(suite: str, quick: bool) -> List[str]:
    if quick:
        return list(PBC_QUICK if suite == "polybench" else SPEC_QUICK)
    return [w.name for w in suite_workloads(suite)]


def configs_for_isa(isa: str) -> List[tuple]:
    """(runtime, strategy) combinations available on an ISA (§3.2/3.4)."""
    combos = []
    for runtime in RUNTIME_ORDER:
        model = runtime_named(runtime)
        if not model.supports(isa):
            continue
        # The paper's five strategies only: fig2–fig6 reproduce the
        # published grids, so the hardware-assisted extensions (mte,
        # wasm64) stay out of them — fig-cage covers those.
        for strategy in PAPER_STRATEGY_ORDER:
            if strategy in model.strategies:
                combos.append((runtime, strategy))
    return combos


def medians(measurements: Dict[str, RunMeasurement]) -> Dict[str, float]:
    return {name: m.median_iteration for name, m in measurements.items()}


def results_dir() -> Path:
    root = os.environ.get("REPRO_RESULTS_DIR", "results")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_results(name: str, payload: object) -> Path:
    path = results_dir() / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path
