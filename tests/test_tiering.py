"""Tests for the optimizing tier (tiering.py + vectorize.py).

Covers the tier-up heuristic, tier resolution, bit-identical
observables between the ``opt`` tier and the fused reference (outputs,
memory counters, touched pages, reconstructed per-pc profiles), checked
accesses that leave memory mid-body under every out-of-bounds
behaviour, seeded random programs, the entry-guard deopt path, which
compute workloads tier 2 compiles, and ``REPRO_TIER_STRICT`` over both fast-path code generators
(tier-2 install and superinstruction fusion).

Run with ``-s`` to print the tier-2 eligibility table of every compute
workload (``TestCoverage``).
"""

import struct

import pytest

from repro.core.profiles import clear_profile_cache, module_for
from repro.runtime import predecode, tiering, vectorize
from repro.runtime.interpreter import Interpreter
from repro.wasm import validate_module
from repro.wasm.wat_parser import parse_wat
from repro.workloads.registry import POLYBENCH, SPEC

#: Bail reasons a compute workload's function may still give at
#: ``mini``: calls (every ``bench`` entry point, 531.deepsjeng's
#: kernel) and the ``return`` in 531.deepsjeng's recursive search.
#: Any other reason means a kernel fell back to tier 1.
TIER2_BAIL_ALLOWLIST = ("unsupported op call", "unsupported op return")

#: All 7 SPEC proxies plus the PolyBench kernels that compile only with
#: checked accesses or while-shaped loops.
SPEC_AND_UNBOUNDED = [
    "505.mcf",
    "525.x264",
    "531.deepsjeng",
    "557.xz",
    "508.namd",
    "519.lbm",
    "544.nab",
    "durbin",
    "ludcmp",
    "deriche",
    "nussinov",
]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_profile_cache()
    yield tmp_path
    clear_profile_cache()


def _bits(value):
    if isinstance(value, float):
        return ("f64", struct.pack("<d", value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _observables(module, tier):
    interp = Interpreter(
        module, collect_profile=True, track_pages=True, tier=tier
    )
    out = _bits(interp.invoke("bench"))
    profile = interp.take_profile("x", "y")
    return {
        "out": out,
        "instr_counts": dict(profile.instr_counts),
        "op_totals": dict(profile.op_totals),
        "total_instrs": profile.total_instrs,
        "mem_loads": profile.mem_loads,
        "mem_stores": profile.mem_stores,
        "pages_touched": profile.pages_touched,
        "grow_events": list(profile.grow_events),
        "peak_pages": profile.peak_pages,
    }, interp


class TestTierResolution:
    def test_default_is_opt_on_fused_dispatch(self):
        module, _ = module_for("trisolv", "mini")
        interp = Interpreter(module)
        assert interp.tier == "opt"
        assert interp._plans  # fused dispatch underneath
        assert interp._tiering is not None

    def test_tier_param_picks_dispatch(self):
        module, _ = module_for("trisolv", "mini")
        legacy = Interpreter(module, tier="legacy")
        assert legacy.tier == "legacy"
        assert not legacy._plans and legacy._tiering is None
        fused = Interpreter(module, tier="fused")
        assert fused.tier == "fused"
        assert fused._plans and fused._tiering is None
        assert Interpreter(module, tier="opt")._tiering is not None

    def test_tier_env_var(self, monkeypatch):
        module, _ = module_for("trisolv", "mini")
        monkeypatch.setenv("REPRO_TIER", "legacy")
        assert Interpreter(module).tier == "legacy"
        assert Interpreter(module, tier="fused").tier == "fused"
        monkeypatch.setenv("REPRO_TIER", "opt")
        assert Interpreter(module)._tiering is not None

    def test_unknown_tier_rejected(self):
        module, _ = module_for("trisolv", "mini")
        with pytest.raises(ValueError):
            Interpreter(module, tier="turbofan")


class TestTierUpHeuristic:
    def test_cold_functions_stay_on_tier1(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", str(10**9))
        module, _ = module_for("gemm", "mini")
        _, interp = _observables(module, "opt")
        assert not any(interp._tiering.handlers.values())

    def test_hot_functions_tier_up(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
        module, _ = module_for("gemm", "mini")
        _, interp = _observables(module, "opt")
        installed = [h for h in interp._tiering.handlers.values() if h]
        assert len(installed) >= 2  # init and kernel

    def test_score_accumulates_across_calls(self, monkeypatch):
        # Threshold just above one kernel-body score: the second call
        # must tier up even though the first did not.
        module, _ = module_for("gemm", "mini")
        body_len = len(module.funcs[0].body)
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", str(body_len + 1))
        interp = Interpreter(module, tier="opt")
        interp.invoke("bench")
        first = sum(1 for h in interp._tiering.handlers.values() if h)
        interp.invoke("bench")
        second = sum(1 for h in interp._tiering.handlers.values() if h)
        assert second >= first
        assert second >= 1


class TestBitIdentity:
    @pytest.mark.parametrize(
        "workload", ["gemm", "trisolv", "jacobi-2d"] + SPEC_AND_UNBOUNDED
    )
    def test_opt_matches_fused_mini(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        module, _ = module_for(workload, "mini")
        reference, _ = _observables(module, "fused")
        observed, interp = _observables(module, "opt")
        assert any(interp._tiering.handlers.values())
        for key, value in reference.items():
            assert observed[key] == value, f"{workload}: {key} differs"

    def test_opt_matches_fused_small_numpy_path(self, monkeypatch):
        # small trip counts exceed vectorize.VEC_MIN, so the NumPy
        # batched path (not just the scalar codegen) is exercised.
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        module, _ = module_for("gemm", "small")
        reference, _ = _observables(module, "fused")
        observed, _ = _observables(module, "opt")
        for key, value in reference.items():
            assert observed[key] == value, f"gemm-small: {key} differs"


DEOPT_WAT = """
(module
  (memory 1)
  (func (export "run") (result i32)
    (local i32) (local i32)
    block
      loop
        local.get 0
        i32.const 10000
        i32.ge_s
        br_if 1
        local.get 1
        local.get 0
        i32.const 8
        i32.mul
        i32.load
        i32.add
        local.set 1
        local.get 0
        i32.const 1
        i32.add
        local.set 0
        br 0
      end
    end
    local.get 1))
"""


class TestDeopt:
    def test_entry_guard_falls_back_to_tier1(self, monkeypatch):
        """NEED (80 KiB) exceeds the one-page memory: the guard must
        deopt before any side effect and tier 1 must produce the trap,
        identically to the fused reference."""
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        module = parse_wat(DEOPT_WAT)
        validate_module(module)

        def run(tier):
            interp = Interpreter(module, tier=tier)
            try:
                return ("value", interp.invoke("run")), interp
            except Exception as exc:
                return ("trap", type(exc).__name__, str(exc)), interp

        reference, _ = run("fused")
        observed, interp = run("opt")
        assert observed == reference
        assert reference[0] == "trap"
        # The handler *was* installed, and its entry guard failed before
        # any side effect: every access here is proven, so the body has
        # no checked access that could trap, and the trap is tier 1's.
        assert any(interp._tiering.handlers.values())


#: A while loop chasing a pointer chain 0 -> 16 -> 32 -> 65534: the
#: fourth load (checked: its address comes from memory) leaves the one
#: page of memory.  The store's address is checked too.
CHASE_WAT = """
(module
  (memory 1)
  (data (i32.const 0) "\\10\\00\\00\\00")
  (data (i32.const 16) "\\20\\00\\00\\00")
  (data (i32.const 32) "\\fe\\ff\\00\\00")
  (func (export "run") (result i32)
    (local i32) (local i32)
    block
      loop
        local.get 1
        i32.const 50
        i32.lt_s
        i32.eqz
        br_if 1
        local.get 0
        i32.load
        local.set 0
        local.get 0
        i32.const 65280
        i32.and
        local.get 1
        i32.store offset=4
        local.get 1
        i32.const 1
        i32.add
        local.set 1
        br 0
      end
    end
    local.get 1))
"""

#: A counted loop that sums a proven stream and also loads through a
#: table of addresses; entry 5 of the table points past the memory.
GATHER_WAT = """
(module
  (memory 1)
  (data (i32.const 0) "\\00\\01\\00\\00\\04\\01\\00\\00\\08\\01\\00\\00")
  (data (i32.const 12) "\\0c\\01\\00\\00\\10\\01\\00\\00\\fd\\ff\\00\\00")
  (func (export "run") (result i32)
    (local i32) (local i32)
    i32.const 0
    local.set 0
    block
      loop
        local.get 0
        i32.const 16
        i32.ge_s
        br_if 1
        local.get 1
        local.get 0
        i32.const 4
        i32.mul
        i32.load
        i32.load
        i32.add
        local.get 0
        i32.const 4
        i32.mul
        i32.load offset=64
        i32.add
        local.set 1
        local.get 0
        i32.const 1
        i32.add
        local.set 0
        br 0
      end
    end
    local.get 1))
"""


#: An if arm whose load (through an address read from memory) leaves
#: memory: the ``end`` after the arm must not count.
BRANCH_WAT = """
(module
  (memory 1)
  (data (i32.const 0) "\\fe\\ff\\00\\00")
  (func (export "run") (result i32)
    (local i32) (local i32)
    local.get 0
    i32.eqz
    if
      i32.const 0
      i32.load
      i32.load
      local.set 0
    end
    local.get 0))
"""


def _run_wat(module, tier, strategy):
    interp = Interpreter(
        module, strategy=strategy, collect_profile=True, track_pages=True,
        tier=tier,
    )
    try:
        outcome = ("value", interp.invoke("run"))
    except Exception as exc:
        outcome = ("trap", type(exc).__name__, str(exc))
    memory = interp.instance.memory
    return {
        "outcome": outcome,
        "instr_counts": dict(interp.take_profile("x", "y").instr_counts),
        "load_count": memory.load_count,
        "store_count": memory.store_count,
        "touched": sorted(memory.touched_pages),
        "data": bytes(memory.data),
    }, interp


class TestCheckedAccess:
    """Tier 2 with checked accesses: a body that leaves memory midway
    must end exactly where tier 1 ends, trap or no trap."""

    @pytest.mark.parametrize(
        "wat", [CHASE_WAT, GATHER_WAT, BRANCH_WAT], ids=["while", "for", "if"]
    )
    @pytest.mark.parametrize("strategy", ["trap", "clamp", "none"])
    def test_out_of_bounds_midway_matches_fused(self, wat, strategy, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        module = parse_wat(wat)
        validate_module(module)
        artifact = vectorize.compile_function(
            module.funcs[0].body,
            predecode.plan_function(module.funcs[0].body).matches,
            ["i32", "i32"], 0, 1,
        )
        assert artifact["eligible"], artifact
        reference, _ = _run_wat(module, "fused", strategy)
        observed, interp = _run_wat(module, "opt", strategy)
        assert any(interp._tiering.handlers.values())
        if strategy == "trap":
            assert reference["outcome"][0] == "trap"
            assert "out-of-bounds" in reference["outcome"][2]
        else:
            assert reference["outcome"][0] == "value"
        for key, value in reference.items():
            assert observed[key] == value, f"{strategy}: {key} differs"


class TestCoverage:
    """Which compute workloads tier 2 compiles."""

    def test_xz_kernel_is_eligible(self):
        module, _ = module_for("557.xz", "mini")
        plans = predecode.plans_for_module(module)
        kernel = next(
            e.index - len(module.imports)
            for e in module.exports
            if e.kind == "func" and e.name == "kernel"
        )
        artifact = tiering.artifacts_for_module(module, plans)[kernel]
        assert artifact["eligible"], artifact.get("reason")

    def test_xz_kernel_runs_on_tier2_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIER_THRESHOLD", raising=False)
        module, _ = module_for("557.xz", "mini")
        interp = Interpreter(module, tier="opt")
        interp.invoke("bench")
        kernel = next(
            e.index
            for e in module.exports
            if e.kind == "func" and e.name == "kernel"
        )
        assert interp._tiering.handlers.get(kernel) is not None

    def test_compute_workloads_bail_only_on_allowlist(self):
        rows = []
        for workload in POLYBENCH + SPEC:
            module, _ = module_for(workload.name, "mini")
            names = {e.index: e.name for e in module.exports if e.kind == "func"}
            artifacts = tiering.artifacts_for_module(
                module, predecode.plans_for_module(module)
            )
            for index, artifact in sorted(artifacts.items()):
                name = names.get(index + len(module.imports), f"func{index}")
                reason = None if artifact["eligible"] else artifact["reason"]
                rows.append((workload.name, name, reason))
        print()
        for workload, name, reason in rows:
            print(f"tier2 {workload:16s} {name:8s} {reason or 'eligible'}")
        unexpected = [
            row for row in rows
            if row[2] is not None and row[2] not in TIER2_BAIL_ALLOWLIST
        ]
        assert not unexpected, f"kernels fell back to tier 1: {unexpected}"


class TestStrictness:
    """Each fast tier's codegen failure: strict raises, non-strict
    falls back to a path that matches ``legacy``."""

    @pytest.fixture
    def broken_install(self, monkeypatch):
        def boom(artifact, memory):
            raise RuntimeError("injected tier-2 install failure")

        monkeypatch.setattr(vectorize, "install", boom)
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")

    def test_strict_surfaces_tier2_bugs(self, monkeypatch, broken_install):
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        module, _ = module_for("trisolv", "mini")
        interp = Interpreter(module, tier="opt")
        with pytest.raises(RuntimeError, match="injected"):
            interp.invoke("bench")

    def test_strict_surfaces_fusion_bugs(self, monkeypatch, unfusable):
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        module, _ = module_for("trisolv", "mini")
        interp = Interpreter(module, tier="fused")
        with pytest.raises(RuntimeError, match="fall-back"):
            interp.invoke("bench")

    def test_non_strict_falls_back_to_tier1(self, monkeypatch, broken_install):
        monkeypatch.delenv("REPRO_TIER_STRICT", raising=False)
        module, _ = module_for("trisolv", "mini")
        reference, _ = _observables(module, "legacy")
        observed, interp = _observables(module, "opt")
        assert not any(interp._tiering.handlers.values())
        assert observed == reference

    def test_non_strict_falls_back_to_per_op(self, unfusable):
        module, _ = module_for("trisolv", "mini")
        reference, _ = _observables(module, "legacy")
        observed, interp = _observables(module, "fused")
        assert not interp._fused_regions
        assert observed == reference


def _random_program(rng):
    """A random straight-line/while/for/if program over 4 data locals
    whose loads and stores go through masked, often unproven addresses,
    some of them past the one page of memory (plus offsets)."""
    n_locals = 8  # 0..3 data; 4..7 loop counters, one per nesting level

    def expr(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.3:
            if rng.random() < 0.5:
                return f"local.get {rng.randrange(4)}"
            value = rng.choice([0, 1, 3, 4, 8, 255, 4096, 65532, 65535, -1, -4])
            return f"i32.const {value}"
        if roll < 0.5:
            op = rng.choice(["i32.load", "i32.load8_u", "i32.load16_s"])
            offset = rng.choice([0, 0, 3, 65533])
            return f"{address(depth - 1)}\n{op} offset={offset}"
        if roll < 0.9:
            op = rng.choice([
                "i32.add", "i32.sub", "i32.mul", "i32.and", "i32.xor",
                "i32.shl", "i32.shr_u", "i32.lt_s", "i32.ge_s", "i32.lt_u",
                "i32.eq",
            ])
            return f"{expr(depth - 1)}\n{expr(depth - 1)}\n{op}"
        return f"{expr(depth - 1)}\ni32.eqz"

    def address(depth):
        mask = rng.choice([255, 65535, -1])
        return f"{expr(depth)}\ni32.const {mask}\ni32.and"

    def loop(level, depth, head, exit_test):
        counter = 4 + level
        return (
            f"i32.const {head}\nlocal.set {counter}\nblock\nloop\n"
            f"local.get {counter}\n{exit_test}\nbr_if 1\n"
            f"{stmts(depth - 1, level + 1)}\n"
            f"local.get {counter}\ni32.const 1\ni32.add\nlocal.set {counter}\n"
            "br 0\nend\nend"
        )

    def stmts(depth, level):
        out = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            nest = depth > 0 and level < 4
            if roll < 0.35 or not (roll < 0.6 or depth > 0):
                out.append(f"{expr(2)}\nlocal.set {rng.randrange(4)}")
            elif roll < 0.6:
                op = rng.choice(["i32.store", "i32.store8", "i32.store16"])
                offset = rng.choice([0, 0, 2, 65534])
                out.append(f"{address(2)}\n{expr(2)}\n{op} offset={offset}")
            elif roll < 0.75 and nest:  # while_ shape
                bound = rng.randint(1, 12)
                test = (
                    f"i32.const {bound}\ni32.lt_s\n{expr(2)}\ni32.const 0\n"
                    "i32.ne\ni32.and\ni32.eqz"
                )
                out.append(loop(level, depth, 0, test))
            elif roll < 0.88 and nest:  # for_ shape, start maybe unproven
                bound = rng.randint(0, 12)
                head = rng.choice([0, 0, 1, -2])
                out.append(loop(level, depth, head, f"i32.const {bound}\ni32.ge_s"))
            else:
                orelse = f"else\n{stmts(depth - 1, level)}\n" if rng.random() < 0.5 else ""
                out.append(f"{expr(2)}\nif\n{stmts(depth - 1, level)}\n{orelse}end")
        return "\n".join(out)

    data = "".join(f"\\{rng.randrange(256):02x}" for _ in range(64))
    local_decls = " ".join(["(local i32)"] * n_locals)
    return f"""(module (memory 1)
(data (i32.const 0) "{data}")
(data (i32.const 65472) "{data}")
(func (export "run") (result i32) {local_decls}
{stmts(3, 0)}
local.get 0
local.get 1
i32.add
local.get 2
i32.xor
local.get 3
i32.add))"""


class TestRandomPrograms:
    """Random programs of every shape tier 2 compiles (while and for
    loops, ifs, checked and proven accesses, out-of-bounds offsets)
    must behave on tier 2 exactly as on the fused tier."""

    @pytest.mark.parametrize("seed", range(40))
    def test_opt_matches_fused(self, seed, monkeypatch):
        import random

        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        module = parse_wat(_random_program(random.Random(seed)))
        validate_module(module)
        for strategy in ("trap", "clamp", "none"):
            reference, _ = _run_wat(module, "fused", strategy)
            observed, interp = _run_wat(module, "opt", strategy)
            assert any(interp._tiering.handlers.values())
            assert observed == reference, f"seed {seed} under {strategy}"
