"""Shared pytest plumbing for the test suite."""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden trace files instead of comparing to them",
    )


@pytest.fixture
def regen_golden(request):
    """True when the run should regenerate golden files."""
    return request.config.getoption("--regen-golden")


@pytest.fixture
def unfusable(monkeypatch):
    """Force every superinstruction onto its per-op fall-back.

    Fused-tier interpreters built under this fixture dispatch one
    fast-memory closure per instruction: the path non-strict fusion
    takes when a region's codegen fails.
    """
    from repro.runtime import interpreter

    def fail(*args):
        raise RuntimeError("forced per-op fall-back")

    monkeypatch.delenv("REPRO_TIER_STRICT", raising=False)
    monkeypatch.setattr(interpreter, "_gen_region", fail)
