"""Shared fixtures for the benchmark harness.

Each ``test_figN.py`` regenerates the corresponding paper figure's
rows/series (on reduced workload sets so a full ``pytest benchmarks/
--benchmark-only`` run finishes in minutes) and asserts the paper's
qualitative claims about them.  ``test_substrates.py`` measures the
throughput of the underlying systems themselves.

The figures the suite regenerates are written to a temporary results
directory, so a run leaves the committed ``results/`` untouched.  To
regenerate the committed files, point ``REPRO_RESULTS_DIR`` at them::

    REPRO_RESULTS_DIR=results PYTHONPATH=src python -m pytest benchmarks
"""

import os

import pytest

from repro.core.profiles import profile_for

#: Workload sets used by the figure benches: small but including the
#: short-running kernels that drive the contention results.
BENCH_PBC = ["gemm", "trisolv", "jacobi-2d"]
BENCH_SPEC = ["519.lbm"]


@pytest.fixture(scope="session", autouse=True)
def results_dir(tmp_path_factory):
    """Send ``save_results`` to a temporary directory unless the caller
    chose one with ``REPRO_RESULTS_DIR``."""
    if "REPRO_RESULTS_DIR" in os.environ:
        yield os.environ["REPRO_RESULTS_DIR"]
        return
    path = str(tmp_path_factory.mktemp("results"))
    os.environ["REPRO_RESULTS_DIR"] = path
    try:
        yield path
    finally:
        del os.environ["REPRO_RESULTS_DIR"]


@pytest.fixture(scope="session", autouse=True)
def warm_profiles():
    """Compute functional profiles once so benches time the harness,
    not the (cached) profiling interpreter."""
    for name in BENCH_PBC + BENCH_SPEC:
        profile_for(name, "mini")


@pytest.fixture()
def bench_sets(monkeypatch):
    """Patch the experiments onto the reduced workload sets."""
    from repro.core.experiments import fig1, fig2, fig3, fig4, fig5, fig6, replication

    def patched(suite, quick):
        return BENCH_PBC if suite == "polybench" else BENCH_SPEC

    for module in (fig1, fig2, fig3, fig4, fig5, fig6, replication):
        monkeypatch.setattr(module, "suite_names", patched)
