"""The ``repro.api`` facade: surface snapshot, spec values, BCE rows.

The surface snapshot pins the public names and the :class:`SweepSpec`
field list so an accidental rename or default change fails loudly; the
canonicalization tests pin the spec's value semantics and digest; the
remaining tests check the bounds-check counters in ``api.run`` rows and
that the facade raises no ``DeprecationWarning``.
"""

import dataclasses
import warnings

import pytest

from repro import api
from repro.core.engine import MeasurementEngine
from repro.runtimes.registry import bce_enabled, set_bce_enabled

SPEC = api.SweepSpec(
    workloads=["gemm"],
    runtimes=("wavm", "v8"),
    strategies=("mprotect", "trap"),
    size="mini",
    iterations=2,
)


def engine():
    return MeasurementEngine(cache=False)


class TestSurfaceSnapshot:
    def test_public_names(self):
        assert sorted(api.__all__) == [
            "FIELDS",
            "ROW_SCHEMA",
            "SweepMeasurements",
            "SweepSpec",
            "measure",
            "row_from",
            "run",
            "to_csv",
        ]
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_row_fields(self):
        assert api.FIELDS == [
            "workload", "runtime", "strategy", "isa", "threads",
            "median_ms", "utilisation_percent", "ctx_per_sec",
            "mem_avg_mib", "mmap_write_wait_ms", "checks_emitted",
            "checks_elided", "syscall_calls", "syscall_ms",
            "cache_hit", "elapsed_s",
        ]
        assert list(api.ROW_SCHEMA) == api.FIELDS

    def test_sweep_spec_fields_and_defaults(self):
        fields = {
            f.name: f.default for f in dataclasses.fields(api.SweepSpec)
        }
        assert fields == {
            "workloads": dataclasses.MISSING,
            "runtimes": ("wavm",),
            "strategies": ("mprotect",),
            "isas": ("x86_64",),
            "threads": (1,),
            "size": "small",
            "iterations": 3,
            "warmup": 1,
            "scenario": "compute",
        }
        # Frozen: specs are shareable cache keys, not mutable state.
        with pytest.raises(dataclasses.FrozenInstanceError):
            SPEC.size = "large"

    def test_sweep_measurements_shape(self):
        for name in ("rows", "by_workload", "per_workload", "medians"):
            assert callable(getattr(api.SweepMeasurements, name)), name

    def test_validate_raises_where_configurations_skips(self):
        bad = api.SweepSpec(workloads=["gemm"], runtimes=("wavm",),
                            isas=("riscv64",))
        assert list(bad.configurations()) == []
        with pytest.raises(ValueError, match="no riscv64 backend"):
            bad.validate()

    def test_mte_on_untagged_isa_rejected_at_spec_time(self):
        # The harness would raise deep inside a worker; the spec must
        # fail at submission with the same hardware-gating message.
        bad = api.SweepSpec(workloads=["gemm"], runtimes=("wavm",),
                            strategies=("mte",), isas=("x86_64",))
        assert list(bad.configurations()) == []
        with pytest.raises(ValueError, match="memory-tagging.*armv8"):
            bad.validate()

    def test_mte_on_armv8_is_valid(self):
        spec = api.SweepSpec(workloads=["gemm"], runtimes=("wavm",),
                             strategies=("mte", "wasm64"), isas=("armv8",))
        spec.validate()
        combos = list(spec.configurations())
        assert ("wavm", "mte", "armv8", 1) in combos
        assert ("wavm", "wasm64", "armv8", 1) in combos


class TestSpecCanonicalization:
    """SweepSpec as a value type: hashable, serialisable, digestable.

    The sweep service keys job dedup on :meth:`SweepSpec.digest`, so
    list-vs-tuple construction differences must vanish at ``__init__``.
    """

    def test_lists_and_tuples_construct_equal_hashable_specs(self):
        a = api.SweepSpec(workloads=["gemm"], runtimes=["wavm", "v8"],
                          threads=[1, 4])
        b = api.SweepSpec(workloads=("gemm",), runtimes=("wavm", "v8"),
                          threads=(1, 4))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1  # usable as a dict/set key
        assert a.workloads == ("gemm",)
        assert a.threads == (1, 4)

    def test_replace_renormalizes(self):
        spec = dataclasses.replace(SPEC, strategies=["none"])
        assert spec.strategies == ("none",)
        assert isinstance(hash(spec), int)

    def test_bare_string_sequence_rejected(self):
        with pytest.raises(TypeError, match="bare string"):
            api.SweepSpec(workloads="gemm")
        with pytest.raises(TypeError, match="bare string"):
            api.SweepSpec(workloads=["gemm"], runtimes="wavm")

    def test_json_round_trip(self):
        raw = SPEC.to_json()
        assert raw["workloads"] == ["gemm"]
        assert raw["runtimes"] == ["wavm", "v8"]
        again = api.SweepSpec.from_json(raw)
        assert again == SPEC
        assert again.digest() == SPEC.digest()
        # And survives an actual JSON encode/decode cycle.
        import json

        assert api.SweepSpec.from_json(json.loads(json.dumps(raw))) == SPEC

    def test_from_json_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ValueError, match="unknown SweepSpec field"):
            api.SweepSpec.from_json({"workloads": ["gemm"], "bogus": 1})
        with pytest.raises(ValueError, match="workloads"):
            api.SweepSpec.from_json({"runtimes": ["wavm"]})

    def test_scenario_axis_round_trips_and_validates(self):
        spec = api.SweepSpec(workloads=["wasi-grep"], scenario="wasi")
        assert spec.to_json()["scenario"] == "wasi"
        assert api.SweepSpec.from_json(spec.to_json()) == spec
        with pytest.raises(ValueError, match="unknown scenario"):
            api.SweepSpec(workloads=["gemm"], scenario="io")

    def test_scenario_default_keeps_digests_byte_identical(self):
        # The field must be invisible at its default, so every job key
        # issued before the axis existed still dedups against the same
        # digest.  The hex is the pre-axis digest of this exact spec.
        assert "scenario" not in SPEC.canonical_json()
        legacy = api.SweepSpec(
            workloads=("trisolv",), runtimes=("wavm",),
            strategies=("mprotect",), isas=("x86_64",), threads=(1,),
            size="small", iterations=3, warmup=1,
        )
        assert legacy.digest() == (
            "26e1c6ea9de920c8192619e51f4e50c8"
            "3650189a8d55988f9ef35f16a38cc9ca"
        )

    def test_scenario_filters_mismatched_workloads(self):
        mixed = api.SweepSpec(
            workloads=["gemm", "wasi-grep"], scenario="wasi"
        )
        assert {r.workload for r in mixed.requests()} == {"wasi-grep"}
        with pytest.raises(ValueError, match="outside the 'wasi' scenario"):
            mixed.validate()
        compute = api.SweepSpec(workloads=["gemm", "wasi-grep"])
        assert {r.workload for r in compute.requests()} == {"gemm"}

    def test_digest_is_stable_and_discriminating(self):
        assert SPEC.digest() == SPEC.digest()
        assert len(SPEC.digest()) == 64
        other = dataclasses.replace(SPEC, iterations=3)
        assert other.digest() != SPEC.digest()
        # Canonical JSON is byte-stable: sorted keys, no whitespace.
        text = SPEC.canonical_json()
        assert " " not in text
        import json

        assert list(json.loads(text)) == sorted(json.loads(text))


class TestEquivalence:
    """Bounds-check counters in ``api.run`` rows follow the BCE switch."""

    def test_run_with_bce_disabled_elides_nothing(self):
        assert bce_enabled()
        try:
            set_bce_enabled(False)
            rows = api.run(SPEC, engine=engine())
        finally:
            set_bce_enabled(True)
        assert all(row["checks_elided"] == 0 for row in rows)

    def test_bce_rows_report_counter_movement(self):
        rows = api.run(SPEC, engine=engine())
        trap = {r["runtime"]: r for r in rows if r["strategy"] == "trap"}
        mprot = {r["runtime"]: r for r in rows if r["strategy"] == "mprotect"}
        for runtime in ("wavm", "v8"):
            assert trap[runtime]["checks_elided"] > 0
            # Signal strategies emit no inline checks to elide.
            assert mprot[runtime]["checks_emitted"] == 0
            assert mprot[runtime]["checks_elided"] == 0


class TestDeprecatedShims:
    """The old sweep entry points are gone; the facade must not warn."""

    def test_facade_itself_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.run(SPEC, engine=engine())
