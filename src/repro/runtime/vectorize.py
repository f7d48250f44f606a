"""Tier-2 compiler: whole-function Wasm -> Python codegen.

The fused interpreter (tier 1) is still a per-instruction machine; this
module compiles an *entire function body* into one Python function so a
hot PolyBench kernel costs a handful of Python statements per loop
iteration instead of one dynamic dispatch per Wasm instruction — and,
when NumPy is available, batches whole innermost loops through
``numpy.frombuffer`` slices.

Observable equivalence is the hard constraint: outputs (floats by bit
pattern), ``load_count``/``store_count``, touched-page sets and the
per-pc execution profile must be bit-identical to the per-instruction
tiers, also when a run traps.  Four mechanisms make that possible:

* **Interval + affine analysis.**  An expression gets a signed interval
  ``ival`` only when it provably stays in ``[0, 2**31)`` with no
  intermediate wrap-around, so plain (unmasked) Python arithmetic is
  exact; everything else reuses the interpreter's masked expression
  templates or its ``_BINOPS``/``_UNOPS`` table functions, so the
  semantics are the interpreter's semantics by construction.  Affine
  forms over loop induction variables (the same shape the register-IR
  BCE pass proves in ``repro.compiler.bce``) turn memory accesses into
  (base, stride, size) *streams* whose traffic and page footprint are
  accounted in bulk.

* **Entry guard plus checked accesses.**  An access whose address has
  an interval has a static upper bound, and one ``len(data) < NEED``
  guard at function entry covers all of them.  If it fails, the handler
  returns 0 having touched *nothing* (no locals, no memory, no
  counters) and the tier-1 dispatch loop runs the whole call instead.
  An access whose address has no interval is compiled inline as a
  *checked access*: ``eff + size <= len(data)`` takes the fast path
  (the same load/store counter and touched-page bookkeeping as the
  interpreter's loaders), anything else calls the interpreter's own
  ``_value_loader``/``_value_storer`` closure for that op, so
  out-of-bounds behaviour (trap, clamp, zero-read) is the
  interpreter's by construction.  A body with a checked access can
  therefore trap midway; it runs inside ``try``/``finally`` so its
  counters are flushed either way.

* **Flow counters.**  Per-pc profile counts are reconstructed exactly
  from a handful of counters, one per straight-line flow group, each
  incremented when its first pc is reached.  A group ends at every
  checked access (the access is its last pc, as a trapping op is the
  last pc of a tier-1 fused region) and after every loop or ``if``
  that contains one, so a trap leaves exactly the counts tier 1 leaves.
  Loop-body counters of counted loops that cannot trap are
  bulk-incremented by the trip count.  The two ``end`` pcs of a
  recognised block/loop pair never execute and map to no counter.

* **Two loop shapes**, both ``block { loop { <cond>; br_if 1; <body>;
  br 0 } }`` as ``DslFunc`` emits them.  A *counted* ``for_`` (an
  induction variable whose start and bound have intervals) becomes a
  Python ``for`` over a ``range``, with streams and NumPy batching; its
  condition pcs belong to both the entry and the iteration counter
  (they execute ``entries + iterations`` times).  Anything else of that
  shape — ``while_`` loops, and ``for_`` loops whose start or bound has
  no interval — becomes ``while True:`` with one counter per condition
  evaluation and one for the body; every local assigned in such a loop
  loses its interval and affine form inside and after it.  A counted
  loop whose body can trap counts per iteration and accounts its
  accesses one by one instead of as streams.

Compilation failures raise :class:`Bailout` internally and surface as
``{"eligible": False}`` artifacts; the function then simply stays on
tier 1.  NumPy ineligibility (:class:`VecBail`) is never an error —
the scalar compiled loop is kept instead.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.runtime.predecode import (
    BINOP_NAMES,
    CMP_NAMES,
    CONST_NAMES,
    LOAD_NAMES,
    STORE_NAMES,
    TRAPPING_BINOPS,
    TRAPPING_UNOPS,
    UNOP_NAMES,
)

try:  # NumPy is optional: scalar codegen carries the perf floor alone.
    import numpy as _np

    _np.seterr(all="ignore")  # Wasm float ops never raise
except Exception:  # pragma: no cover - environment without numpy
    _np = None

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
I31 = 1 << 31  # exclusive bound for "plain arithmetic is exact"
PAGE = 4096
#: NumPy engages for loops of at least this many iterations.
VEC_MIN = 16
#: Deepest block/loop/if nesting compiled.  Each loop pair becomes one
#: Python loop block, and Python allows 20 nested blocks (``try`` and
#: a NumPy fold loop take two).
MAX_NESTING = 32


class Bailout(Exception):
    """Function shape unsupported by tier 2 (stays on tier 1)."""


class VecBail(Exception):
    """One loop cannot use the NumPy path (scalar loop still emitted)."""


class _Restart(Exception):
    """A counted loop with streams can trap: recompile it without them."""

    def __init__(self, pc: int) -> None:
        super().__init__(pc)
        self.pc = pc


def _to_f32(x: float) -> float:
    return struct.unpack("<f", struct.pack("<f", x))[0]


_TABLES = None


def _tables():
    """Interpreter op tables, imported lazily to avoid a module cycle."""
    global _TABLES
    if _TABLES is None:
        from repro.runtime import interpreter as I

        _TABLES = (
            I._INLINE_BINOPS,
            I._INLINE_UNOPS,
            I._FAST_LOAD,
            I._FAST_STORE,
            I._BINOPS,
            I._UNOPS,
            I._INLINE_CMPS,
        )
    return _TABLES


#: Signed i32 compares become plain Python compares when both operands
#: carry intervals (signed value == canonical value in [0, 2**31)).
_SIGNED_CMP32 = {
    "i32.lt_s": "<",
    "i32.gt_s": ">",
    "i32.le_s": "<=",
    "i32.ge_s": ">=",
}

#: Wrapping i32 ops that commute with reduction mod 2**32.
_RING32 = {"i32.add": "+", "i32.sub": "-", "i32.mul": "*", "i32.shl": "<<"}

#: Unsigned sub-width loads with statically known result ranges.
_LOAD_IVAL = {
    "i32.load8_u": (0, 0xFF),
    "i32.load16_u": (0, 0xFFFF),
}


class Val:
    """One symbolic stack slot.

    ``py`` is a pure Python expression for the canonical runtime value;
    ``node`` is a structural tuple used for invariance/reduction
    matching and NumPy regeneration; ``ival`` (signed interval, only
    when provably inside ``[0, 2**31)`` with no wrap) licenses plain
    arithmetic; ``aff`` is an affine form ``{None: const, local: coeff}``
    over currently-stable locals; ``locs`` are the local slots the
    ``py`` text reads (for flush-on-assignment).  ``truth``, set only on
    0/1 values (compares and their boolean combinations), is a Python
    boolean expression that is true exactly when the value is 1.
    ``raw``, set only on wrapped i32 ring arithmetic, is ``py`` before
    its final ``& 0xFFFFFFFF``: congruent mod 2**32 but not reduced, so
    an enclosing add/sub/mul/shl can skip masking its operands.
    """

    __slots__ = ("py", "ty", "node", "ival", "aff", "locs", "truth", "raw")

    def __init__(
        self, py, ty, node, ival=None, aff=None, locs=frozenset(), truth=None,
        raw=None,
    ):
        self.py = py
        self.ty = ty
        self.node = node
        self.ival = ival
        self.aff = aff
        self.locs = locs
        self.truth = truth
        self.raw = raw


class _Compiler:
    def __init__(
        self, body, matches, local_types, n_params, n_results, no_streams
    ):
        self.body = body
        #: block pcs of counted loops that must not use streams.
        self.no_streams = no_streams
        self.matches = matches
        self.local_types = list(local_types)
        self.n_params = n_params
        self.n_results = n_results
        self.lines: List[str] = []
        self.indent = 1
        self.env: Dict[Tuple, str] = {}
        self.env_order: List[Tuple[str, str, Any]] = []
        self.counter_pcs: List[List[int]] = []
        self.ntmp = 0
        self.nm = 0
        self.nb = 0
        self.need = 0
        #: checked accesses emitted so far (each one can trap).
        self.nchecked = 0
        #: access sizes whose ``z<size> = len(data) - size`` limit is used.
        self.limits: set = set()
        self.uses_mem = False
        self.uses_np = False
        self.lver = [0] * len(self.local_types)
        self.lvals: List[Val] = []
        for i, ty in enumerate(self.local_types):
            if i >= n_params:
                # Declared locals start at zero: a known constant.
                zero: Any = 0 if ty in ("i32", "i64") else 0.0
                iv = (0, 0) if ty == "i32" else None
                self.lvals.append(
                    Val(
                        f"l{i}",
                        ty,
                        ("const", zero, ty),
                        ival=iv,
                        aff={None: 0} if iv else None,
                        locs=frozenset((i,)),
                    )
                )
            else:
                self.lvals.append(
                    Val(f"l{i}", ty, ("local", i, 0), locs=frozenset((i,)))
                )
        self.loop_stack: List[dict] = []
        self.sym: List[Val] = []
        self._vec: Optional[dict] = None

    # -- infrastructure ------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def _tmp(self) -> str:
        name = f"t{self.ntmp}"
        self.ntmp += 1
        return name

    def bind(self, kind: str, arg: Any = None, prefix: str = "_x") -> str:
        key = (kind, arg)
        name = self.env.get(key)
        if name is None:
            name = f"{prefix}{len(self.env)}"
            self.env[key] = name
            self.env_order.append((name, kind, arg))
        return name

    def bind_fixed(self, name: str, kind: str) -> str:
        key = (kind, None)
        if key not in self.env:
            self.env[key] = name
            self.env_order.append((name, kind, None))
        return name

    def new_counter(self, pcs: Sequence[int] = ()) -> int:
        self.counter_pcs.append(list(pcs))
        return len(self.counter_pcs) - 1

    def _count(self, ctr: Optional[int], *pcs: int) -> int:
        """Add ``pcs`` to flow counter ``ctr``; None opens a new one here."""
        if ctr is None:
            ctr = self.new_counter()
            self.emit(f"c{ctr} += 1")
        self.counter_pcs[ctr].extend(pcs)
        return ctr

    def _assigned(self, start: int, end: int) -> set:
        body = self.body
        return {
            body[pc].args[0]
            for pc in range(start, end)
            if body[pc].op in ("local.set", "local.tee")
        }

    @staticmethod
    def _truth(val: Val) -> str:
        """A Python expression that is truthy exactly when ``val`` != 0."""
        return val.truth or val.py

    def _unstable(self, index: int) -> bool:
        return any(
            index == ctx["var"] or index in ctx["assigned"]
            for ctx in self.loop_stack
        )

    def _invalidate(self, idxs) -> None:
        if not idxs:
            return
        for j in idxs:
            self.lver[j] += 1
            self.lvals[j] = Val(
                f"l{j}",
                self.local_types[j],
                ("local", j, self.lver[j]),
                locs=frozenset((j,)),
            )
        for k, lv in enumerate(self.lvals):
            if lv.aff is not None and any(
                key in idxs for key in lv.aff if key is not None
            ):
                self.lvals[k] = Val(
                    lv.py, lv.ty, lv.node, ival=lv.ival, aff=None, locs=lv.locs
                )

    def _touch_mem(self) -> None:
        self.uses_mem = True
        self.bind_fixed("data", "data")
        self.bind_fixed("mem", "mem")
        self.bind_fixed("T", "touched")
        self.bind_fixed("track", "track")

    def _const_val(self, value: Any, ty: str) -> Val:
        node = ("const", value, ty)
        if ty in ("i32", "i64"):
            iv = (value, value) if ty == "i32" and value < I31 else None
            return Val(
                repr(value), ty, node, ival=iv, aff={None: value} if iv else None
            )
        if value != value or value in (float("inf"), float("-inf")):
            return Val(self.bind("const", repr(value), "_k"), ty, node)
        return Val(repr(value), ty, node)

    def _node_ival(self, node) -> Optional[Tuple[int, int]]:
        kind = node[0]
        if kind == "const":
            v = node[1]
            if isinstance(v, int) and not isinstance(v, bool) and 0 <= v < I31:
                return (v, v)
            return None
        if kind == "local":
            _, j, ver = node
            return self.lvals[j].ival if ver == self.lver[j] else None
        if kind in ("bin", "un", "load", "select"):
            return node[-1]
        return None

    @staticmethod
    def _render_aff(aff: Dict[Optional[int], int]) -> str:
        terms = []
        for k, c in aff.items():
            if k is None or c == 0:
                continue
            terms.append(f"l{k}" if c == 1 else f"l{k}*{c}")
        terms.append(str(aff.get(None, 0)))
        return " + ".join(terms)

    # -- operators -----------------------------------------------------
    def _binop(self, op: str) -> None:
        inline_bin, _, _, _, binops, _, inline_cmp = _tables()
        b = self.sym.pop()
        a = self.sym.pop()
        ty = op.split(".", 1)[0]
        rty = "i32" if op in CMP_NAMES else ty
        locs = a.locs | b.locs
        if a.node[0] == "const" and b.node[0] == "const":
            try:
                value = binops[op](a.node[1], b.node[1])
            except Exception as exc:
                raise Bailout(f"{op} on constants traps: {exc}")
            self.sym.append(self._const_val(value, rty))
            return

        iv = None
        aff = None
        py = None
        truth = None
        if op in CMP_NAMES:
            iv = (0, 1)
            sym = _SIGNED_CMP32.get(op)
            if sym is not None and a.ival is not None and b.ival is not None:
                truth = f"({a.py} {sym} {b.py})"
            elif op in inline_cmp:
                truth = f"({inline_cmp[op].format(a.py, b.py)})"
            if truth is not None:
                py = f"(1 if {truth} else 0)"
        elif ty == "i32" and a.ival is not None and b.ival is not None:
            al, ah = a.ival
            bl, bh = b.ival
            lo = hi = None
            if op == "i32.add":
                lo, hi = al + bl, ah + bh
                py = f"({a.py} + {b.py})"
                aff = self._aff_sum(a.aff, b.aff, 1)
            elif op == "i32.sub":
                lo, hi = al - bh, ah - bl
                py = f"({a.py} - {b.py})"
                aff = self._aff_sum(a.aff, b.aff, -1)
            elif op == "i32.mul":
                products = (al * bl, al * bh, ah * bl, ah * bh)
                lo, hi = min(products), max(products)
                py = f"({a.py} * {b.py})"
                aff = self._aff_scale(a.aff, b.aff)
            elif op == "i32.shl" and b.node[0] == "const":
                s = b.node[1] & 31
                lo, hi = al << s, ah << s
                py = f"({a.py} << {s})"
                aff = self._aff_scale(a.aff, {None: 1 << s})
            elif op in ("i32.div_s", "i32.div_u") and b.node[0] == "const" and bl > 0:
                lo, hi = al // bh, ah // bl
                py = f"({a.py} // {b.py})"
            elif op in ("i32.rem_s", "i32.rem_u") and b.node[0] == "const" and bl > 0:
                lo, hi = 0, min(ah, bl - 1)
                py = f"({a.py} % {b.py})"
            if py is not None and lo is not None and 0 <= lo and hi < I31:
                iv = (lo, hi)
            else:
                py = aff = None

        raw = None
        if py is None and op in _RING32:
            # Arithmetic mod 2**32 commutes with reduction, so only the
            # outermost op of a chain masks.  Multiplying or shifting
            # by a constant only, to keep the unreduced values small.
            ra, rb = a.raw or a.py, b.raw or b.py
            if op in ("i32.add", "i32.sub") or (
                op == "i32.mul" and "const" in (a.node[0], b.node[0])
            ):
                raw = f"({ra} {_RING32[op]} {rb})"
            elif op == "i32.shl" and b.node[0] == "const":
                raw = f"({ra} << {b.node[1] & 31})"
            if raw is not None:
                py = f"({raw} & {M32})"
        if py is None:
            template = inline_bin.get(op)
            if template is not None:
                py = template.format(a.py, b.py)
            elif op in TRAPPING_BINOPS:
                # A constant non-trapping divisor makes the table
                # function safe; anything else could trap mid-function.
                if b.node[0] != "const":
                    raise Bailout(f"{op} with non-constant divisor")
                d = b.node[1]
                if d == 0:
                    raise Bailout(f"{op} by constant zero")
                bits = 32 if ty == "i32" else 64
                if op.endswith("div_s") and d == (1 << bits) - 1:
                    raise Bailout(f"{op} by constant -1 may overflow")
                py = f"{self.bind('bin', op, '_f')}({a.py}, {b.py})"
            else:
                py = f"{self.bind('bin', op, '_f')}({a.py}, {b.py})"
        if op in ("i32.and", "i32.or") and a.truth and b.truth:
            # Both sides are 0/1 and pure, so short-circuiting is exact.
            iv = (0, 1)
            truth = f"({a.truth} {'and' if op == 'i32.and' else 'or'} {b.truth})"
        node = ("bin", op, a.node, b.node, iv)
        self.sym.append(
            Val(py, rty, node, ival=iv, aff=aff, locs=locs, truth=truth, raw=raw)
        )

    @staticmethod
    def _aff_sum(x, y, sign):
        if x is None or y is None:
            return None
        out = dict(x)
        out.setdefault(None, 0)
        for k, c in y.items():
            out[k] = out.get(k, 0) + sign * c
        return {k: c for k, c in out.items() if c != 0 or k is None}

    @staticmethod
    def _aff_scale(x, y):
        """Affine product: valid only when one side is a pure constant."""
        for const, other in ((x, y), (y, x)):
            if (
                const is not None
                and other is not None
                and all(k is None for k in const)
            ):
                c = const.get(None, 0)
                return {k: v * c for k, v in other.items()}
        return None

    def _unop(self, op: str) -> None:
        _, inline_un, _, _, _, unops, _ = _tables()
        a = self.sym.pop()
        rty = op.split(".", 1)[0]
        if a.node[0] == "const":
            try:
                value = unops[op](a.node[1])
            except Exception as exc:
                raise Bailout(f"{op} on constant traps: {exc}")
            self.sym.append(self._const_val(value, rty))
            return
        if op in TRAPPING_UNOPS:
            raise Bailout(f"{op} may trap")
        iv = truth = None
        if op in ("i32.eqz", "i64.eqz"):
            iv = (0, 1)
            truth = f"(not {a.truth})" if a.truth else f"({a.py} == 0)"
        template = inline_un.get(op)
        if template is not None:
            py = template.format(a.py)
        elif op == "f64.convert_i32_s" and a.ival is not None:
            py = f"float({a.py})"
        else:
            py = f"{self.bind('un', op, '_g')}({a.py})"
        node = ("un", op, a.node, iv)
        self.sym.append(Val(py, rty, node, ival=iv, locs=a.locs, truth=truth))

    # -- memory --------------------------------------------------------
    def _align(self, node) -> int:
        """A power of two that divides the value of ``node`` (mod 2**32)."""
        kind = node[0]
        if kind == "const":
            v = node[1]
            if isinstance(v, int) and not isinstance(v, bool):
                return v & -v if v else 1 << 32
            return 1
        if kind == "bin":
            op, a, b = node[1], node[2], node[3]
            if op in ("i32.add", "i32.sub"):
                return min(self._align(a), self._align(b))
            if op == "i32.mul":
                return min(self._align(a) * self._align(b), 1 << 32)
            if op == "i32.shl" and b[0] == "const":
                return min(self._align(a) << (b[1] & 31), 1 << 32)
            if op == "i32.and":
                return max(self._align(a), self._align(b))
        return 1

    def _account(self, kind: str, t: str, size: int, align: int) -> None:
        """One access's counter and touched-page bookkeeping."""
        self.emit(f"n{'L' if kind == 'load' else 'S'} += 1")
        if align >= size:  # cannot straddle a page boundary
            self.emit(f"if track: T.add({t} >> 12)")
        else:
            self.emit(
                f"if track: T.update(range({t} >> 12, "
                f"(({t} + {size - 1}) >> 12) + 1))"
            )

    def _access(self, ins, stream_ctx, kind):
        """Common address handling.

        Returns ``(eff, fmt, mask, size, si, check)``.  ``check`` is None
        when the address is proven (bookkeeping already emitted, or
        deferred to stream ``si``); otherwise the caller must emit a
        checked access on ``eff`` (a name) and ``check`` is the
        address's known alignment.
        """
        _, _, fast_load, fast_store, _, _, _ = _tables()
        op = ins.op
        offset = ins.args[1]
        if kind == "load":
            fmt, mask = fast_load[op]
        else:
            fmt, mask = fast_store[op]
        size = struct.calcsize(fmt)
        addr = self.sym.pop()
        self._touch_mem()
        eff = addr.py if offset == 0 else f"({addr.py} + {offset})"
        if addr.ival is not None:
            self.need = max(self.need, addr.ival[1] + offset + size)
            if stream_ctx is not None and addr.aff is not None:
                aff = dict(addr.aff)
                aff[None] = aff.get(None, 0) + offset
                stream_ctx["streams"].append(
                    {
                        "kind": kind,
                        "op": op,
                        "stride": aff.get(stream_ctx["var"], 0),
                        "size": size,
                        "base": self._render_aff(aff),
                        "node": (addr.node, offset),
                        "name": None,
                    }
                )
                si = len(stream_ctx["streams"]) - 1
                return eff, fmt, mask, size, si, None
        if stream_ctx is not None:
            stream_ctx["vec_ok"] = False
        if not eff.isidentifier():
            t = self._tmp()
            self.emit(f"{t} = {eff}")
            eff = t
        align = self._align(addr.node)
        if offset:
            align = min(align, offset & -offset)
        if addr.ival is None:
            return eff, fmt, mask, size, None, align
        self._account(kind, eff, size, align)
        return eff, fmt, mask, size, None, None

    def _checked(self, kind, t, size, align, fast, slow) -> None:
        """Emit one bounds-checked access on address temp ``t``.

        In bounds, the bookkeeping and then ``fast`` run; otherwise
        ``slow``, a call of the interpreter's own loader/storer closure,
        which counts, touches pages, clamps or traps as tier 1 does.
        """
        self.nchecked += 1
        self.limits.add(size)
        self.emit(f"if {t} <= z{size}:")
        self.indent += 1
        self._account(kind, t, size, align)
        self.emit(fast)
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self.emit(slow)
        self.indent -= 1

    def _store(self, ins, stream_ctx) -> bool:
        """Compile one store; True when it is a checked access."""
        value = self.sym.pop()
        eff, fmt, mask, size, si, check = self._access(ins, stream_ctx, "store")
        vpy = value.py if mask is None else f"({value.py} & {mask})"
        pk = self.bind("p", fmt, "_p")
        write = f"{pk}(data, {eff}, {vpy})"
        if check is not None:
            storer = self.bind("st", ins.op, "_S")
            self._checked(
                "store", eff, size, check, write, f"{storer}({eff}, {value.py})"
            )
            return True
        self.emit(write)
        if stream_ctx is not None and si is not None:
            stream_ctx["stores"].append({"si": si, "value": value, "op": ins.op})
        # si None already cleared vec_ok in _access
        return False

    # -- control -------------------------------------------------------
    def _walk(self, start, end, ctr, stream_ctx):
        """Compile ``body[start:end]`` into the current lines.

        ``ctr`` is the open flow counter, or None when the next pc must
        open a new one; returns the flow counter open at ``end``.
        """
        body = self.body
        pc = start
        while pc < end:
            ins = body[pc]
            op = ins.op
            if op == "block":
                pc, ctr = self._loop(pc, ctr, stream_ctx)
                continue
            if op == "if":
                pc, ctr = self._if(pc, ctr, stream_ctx)
                continue
            ctr = self._count(ctr, pc)
            if op == "nop":
                pass
            elif op == "local.get":
                index = ins.args[0]
                lv = self.lvals[index]
                aff = lv.aff
                if (
                    aff is None
                    and lv.ival is not None
                    and not self._unstable(index)
                ):
                    aff = {index: 1, None: 0}
                self.sym.append(
                    Val(
                        f"l{index}",
                        lv.ty,
                        lv.node,
                        ival=lv.ival,
                        aff=aff,
                        locs=frozenset((index,)),
                    )
                )
            elif op == "local.set":
                if stream_ctx is not None:
                    stream_ctx["vec_ok"] = False
                self._local_set(ins.args[0])
            elif op in CONST_NAMES:
                raw = ins.args[0]
                if op == "i32.const":
                    self.sym.append(self._const_val(raw & M32, "i32"))
                elif op == "i64.const":
                    self.sym.append(self._const_val(raw & M64, "i64"))
                elif op == "f32.const":
                    self.sym.append(self._const_val(_to_f32(float(raw)), "f32"))
                else:
                    self.sym.append(self._const_val(float(raw), "f64"))
            elif op == "drop":
                self.sym.pop()
            elif op == "select":
                c = self.sym.pop()
                b = self.sym.pop()
                a = self.sym.pop()
                iv = None
                if a.ty == "i32" and a.ival is not None and b.ival is not None:
                    iv = (
                        min(a.ival[0], b.ival[0]),
                        max(a.ival[1], b.ival[1]),
                    )
                self.sym.append(
                    Val(
                        f"({a.py} if {self._truth(c)} else {b.py})",
                        a.ty,
                        ("select", c.node, a.node, b.node, iv),
                        ival=iv,
                        locs=a.locs | b.locs | c.locs,
                    )
                )
            elif op in LOAD_NAMES:
                if self._do_load(ins, stream_ctx):
                    ctr = None  # a checked access ends its flow group
            elif op in STORE_NAMES:
                if self._store(ins, stream_ctx):
                    ctr = None
            elif op in BINOP_NAMES:
                self._binop(op)
            elif op in UNOP_NAMES:
                self._unop(op)
            else:
                raise Bailout(f"unsupported op {op}")
            pc += 1
        return ctr

    def _do_load(self, ins, stream_ctx) -> bool:
        """Compile one load; True when it is a checked access."""
        op = ins.op
        offset = ins.args[1]
        addr_node = self.sym[-1].node  # captured before _access pops it
        eff, fmt, mask, size, _si, check = self._access(ins, stream_ctx, "load")
        un = self.bind("u", fmt, "_u")
        t = self._tmp()
        read = f"{t} = {un}(data, {eff})[0]"
        if mask is not None:
            read += f" & {mask}"
        if check is None:
            self.emit(read)
        else:
            loader = self.bind("ld", op, "_L")
            self._checked("load", eff, size, check, read, f"{t} = {loader}({eff})")
        iv = _LOAD_IVAL.get(op)
        self.sym.append(
            Val(t, op.split(".", 1)[0], ("load", op, addr_node, offset, iv), ival=iv)
        )
        return check is not None

    def _local_set(self, index: int) -> None:
        value = self.sym.pop()
        for i, sv in enumerate(self.sym):
            if index in sv.locs:
                t = self._tmp()
                self.emit(f"{t} = {sv.py}")
                aff = sv.aff
                if aff is not None and index in aff:
                    aff = None
                self.sym[i] = Val(
                    t, sv.ty, sv.node, ival=sv.ival, aff=aff, locs=frozenset()
                )
        self.emit(f"l{index} = {value.py}")
        self.lver[index] += 1
        aff = value.aff
        if aff is not None and index in aff:
            aff = None
        self.lvals[index] = Val(
            f"l{index}",
            value.ty,
            value.node,
            ival=value.ival,
            aff=aff,
            locs=frozenset((index,)),
        )
        for k, lv in enumerate(self.lvals):
            if k != index and lv.aff is not None and index in lv.aff:
                self.lvals[k] = Val(
                    lv.py, lv.ty, lv.node, ival=lv.ival, aff=None, locs=lv.locs
                )

    def _eval_pure(self, start, end) -> Val:
        body = self.body
        depth0 = len(self.sym)
        for pc in range(start, end):
            ins = body[pc]
            op = ins.op
            if op in CONST_NAMES:
                raw = ins.args[0]
                if op == "i32.const":
                    self.sym.append(self._const_val(raw & M32, "i32"))
                elif op == "i64.const":
                    self.sym.append(self._const_val(raw & M64, "i64"))
                elif op == "f32.const":
                    self.sym.append(self._const_val(_to_f32(float(raw)), "f32"))
                else:
                    self.sym.append(self._const_val(float(raw), "f64"))
            elif op == "local.get":
                index = ins.args[0]
                lv = self.lvals[index]
                self.sym.append(
                    Val(
                        f"l{index}",
                        lv.ty,
                        lv.node,
                        ival=lv.ival,
                        aff=lv.aff,
                        locs=frozenset((index,)),
                    )
                )
            elif op in BINOP_NAMES:
                self._binop(op)
            elif op in UNOP_NAMES and op not in TRAPPING_UNOPS:
                self._unop(op)
            else:
                raise Bailout(f"loop bound uses {op}")
        if len(self.sym) != depth0 + 1:
            raise Bailout("loop bound stack mismatch")
        return self.sym.pop()

    def _loop(self, block_pc, ctr, parent_ctx):
        """Compile one ``block { loop { ... } }`` pair at ``block_pc``.

        Returns ``(next_pc, ctr)`` like :meth:`_walk`.
        """
        body = self.body
        if parent_ctx is not None:
            parent_ctx["vec_ok"] = False
        if self.sym:
            raise Bailout("loop entered with non-empty symbolic stack")
        match = self.matches.get(block_pc)
        if match is None:
            raise Bailout("unmatched block")
        block_end, blk_else = match
        if blk_else is not None:
            raise Bailout("block with else")
        if body[block_pc].args[0] is not None:
            raise Bailout("block with result type")
        loop_pc = block_pc + 1
        if loop_pc >= len(body) or body[loop_pc].op != "loop":
            raise Bailout("bare block (not a loop)")
        if body[loop_pc].args[0] is not None:
            raise Bailout("loop with result type")
        loop_end, _ = self.matches[loop_pc]
        if loop_end != block_end - 1:
            raise Bailout("loop/block ends not adjacent")

        # The exit test: the first br_if, reached by straight-line code.
        brif = None
        for pc in range(loop_pc + 1, loop_end):
            op = body[pc].op
            if op == "br_if":
                brif = pc
                break
            if op in ("block", "loop", "if", "br", "br_table", "return"):
                break
        if brif is None:
            raise Bailout("loop without a straight-line br_if exit")
        if body[brif].args[0] != 1:
            raise Bailout("loop exit depth != 1")
        last = body[loop_end - 1]
        if last.op != "br" or last.args[0] != 0:
            raise Bailout("loop does not end with br 0")

        ctr = self._count(ctr, block_pc)
        n0 = self.nchecked
        counted = self._counted(loop_pc, brif, loop_end)
        if counted is None:
            exit_pcs = self._while(loop_pc, brif, loop_end)
        else:
            exit_pcs = self._for(block_pc, loop_pc, brif, loop_end, counted)
        if self.nchecked > n0:
            ctr = None  # the loop can trap: later pcs need a new group
        if exit_pcs:
            ctr = self._count(ctr, *exit_pcs)
        return block_end + 1, ctr

    def _counted(self, loop_pc, brif, loop_end) -> Optional[dict]:
        """The counted ``for_`` analysis, or None (compile as a while)."""
        body = self.body
        if body[loop_pc + 1].op != "local.get":
            return None
        v = body[loop_pc + 1].args[0]
        cmp_op = body[brif - 1].op
        if cmp_op not in ("i32.ge_s", "i32.le_s"):
            return None
        t0 = loop_end - 5
        if t0 <= brif:
            return None
        tail = body[t0:loop_end]
        if not (
            tail[0].op == "local.get"
            and tail[0].args[0] == v
            and tail[1].op == "i32.const"
            and tail[2].op == "i32.add"
            and tail[3].op == "local.set"
            and tail[3].args[0] == v
        ):
            return None
        sc = tail[1].args[0] & M32
        step = sc - (1 << 32) if sc >= I31 else sc
        if step == 0 or (step > 0) != (cmp_op == "i32.ge_s"):
            return None
        start = self.lvals[v]
        if start.ival is None:
            return None
        assigned = self._assigned(brif + 1, t0)
        if v in assigned:
            return None
        depth = len(self.sym)
        try:
            stop = self._eval_pure(loop_pc + 2, brif - 1)
        except Bailout:
            del self.sym[depth:]
            return None
        if stop.ival is None or v in stop.locs or (stop.locs & assigned):
            return None

        v0l, v0h = start.ival
        sl, sh = stop.ival
        if step > 0:
            if sh - 1 + step >= I31:
                return None  # the range may wrap
            var_iv = (v0l, max(v0l, sh - 1))
            post_iv = (v0l, max(v0h, sh - 1 + step))
        else:
            if sl + 1 + step < 0:
                return None
            var_iv = (min(v0h, sl + 1), v0h)
            post_iv = (min(v0l, sl + 1 + step), v0h)
        return {
            "var": v,
            "stop": stop,
            "step": step,
            "t0": t0,
            "assigned": assigned,
            "var_iv": var_iv,
            "post_iv": post_iv,
        }

    def _while(self, loop_pc, brif, loop_end) -> Tuple[int, ...]:
        """``while True:`` with one counter per condition evaluation."""
        br0 = loop_end - 1
        assigned = self._assigned(loop_pc + 1, br0)
        self._invalidate(assigned)
        self.loop_stack.append({"var": None, "assigned": assigned})
        self.emit("while True:")
        self.indent += 1
        ctr = self._walk(loop_pc + 1, brif, self._count(None, loop_pc), None)
        if len(self.sym) != 1:
            raise Bailout("loop condition leaves != 1 value")
        cond = self.sym.pop()
        self._count(ctr, brif)
        self.emit(f"if {self._truth(cond)}: break")
        self._count(self._walk(brif + 1, br0, None, None), br0)
        if self.sym:
            raise Bailout("loop body leaves values on stack")
        self.indent -= 1
        self.loop_stack.pop()
        self._invalidate(assigned)
        return ()

    def _for(self, block_pc, loop_pc, brif, loop_end, plan) -> List[int]:
        """A counted loop as a Python ``for``; returns its exit-test pcs."""
        v, stop, step, t0 = plan["var"], plan["stop"], plan["step"], plan["t0"]
        assigned = plan["assigned"]
        self._invalidate(assigned | {v})
        self.lvals[v] = Val(
            f"l{v}",
            "i32",
            ("local", v, self.lver[v]),
            ival=plan["var_iv"],
            aff={v: 1, None: 0},
            locs=frozenset((v,)),
        )

        # The condition pcs run once per iteration (here) and once more
        # for the exit test (the returned pcs, counted after the loop).
        cond_pcs = list(range(loop_pc, brif + 1))
        i_ctr = self.new_counter(cond_pcs)

        mv = f"m{self.nm}"
        self.nm += 1
        if step == 1:
            self.emit(f"{mv} = {stop.py} - l{v}")
        elif step > 0:
            self.emit(f"{mv} = ({stop.py} - l{v} + {step - 1}) // {step}")
        else:
            self.emit(f"{mv} = (l{v} - {stop.py} + {-step - 1}) // {-step}")
        self.emit(f"if {mv} > 0:")
        self.indent += 1

        ctx = {
            "var": v,
            "assigned": assigned,
            "streams": [],
            "stores": [],
            "vec_ok": True,
            "m": mv,
            "step": step,
        }
        self.loop_stack.append(ctx)
        outer_lines, outer_indent = self.lines, self.indent
        self.lines, self.indent = [], 0
        n0 = self.nchecked
        stream_ctx = None if block_pc in self.no_streams else ctx
        ctr = self._walk(brif + 1, t0, i_ctr, stream_ctx)
        self._count(ctr, *range(t0, loop_end))
        if self.sym:
            raise Bailout("loop body leaves values on stack")
        body_lines = self.lines
        self.lines, self.indent = outer_lines, outer_indent
        self.loop_stack.pop()
        if self.nchecked > n0:
            # The body can trap: count iterations as they start, and
            # account every access as it happens (streams are settled
            # only after the loop).
            if ctx["streams"]:
                raise _Restart(block_pc)
            body_lines.insert(0, f"c{i_ctr} += 1")
        else:
            self.emit(f"c{i_ctr} += {mv}")

        for st in ctx["streams"]:
            st["name"] = f"b{self.nb}"
            self.nb += 1
            self.emit(f"{st['name']} = {st['base']}")

        vec = None
        if ctx["vec_ok"] and ctx["stores"] and _np is not None and step > 0:
            try:
                vec = self._try_vec(ctx)
            except VecBail:
                vec = None
        if vec is not None:
            vec_lines, alias = vec
            self.uses_np = True
            self.bind_fixed("_np", "np")
            self.bind_fixed("_vm", "vecmin")
            cond = f"_np is not None and {mv} >= _vm"
            if alias:
                cond += f" and ({alias})"
            self.emit(f"if {cond}:")
            self.indent += 1
            for line in vec_lines:
                self.emit(line)
            self.emit(f"l{v} += {mv}" if step == 1 else f"l{v} += {mv} * {step}")
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self._emit_scalar_loop(v, mv, step, body_lines)
            self.indent -= 1
        else:
            self._emit_scalar_loop(v, mv, step, body_lines)

        nl = sum(1 for st in ctx["streams"] if st["kind"] == "load")
        ns = sum(1 for st in ctx["streams"] if st["kind"] == "store")
        if nl:
            self.emit(f"nL += {nl} * {mv}")
        if ns:
            self.emit(f"nS += {ns} * {mv}")
        for st in ctx["streams"]:
            name, stride, size = st["name"], st["stride"], st["size"]
            if stride == 0:
                self.emit(
                    f"if track: T.update(range({name} >> 12, "
                    f"(({name} + {size - 1}) >> 12) + 1))"
                )
            elif 0 < stride <= PAGE:
                # Consecutive accesses land on the same or adjacent
                # pages, so the union of per-access page ranges is the
                # full contiguous span first..last.
                self.emit(
                    f"if track: T.update(range({name} >> 12, "
                    f"(({name} + ({mv} - 1) * {stride} + {size - 1}) >> 12) + 1))"
                )
            else:
                self.emit("if track:")
                self.indent += 1
                a = self._tmp()
                self.emit(
                    f"for {a} in range({name}, {name} + {mv} * {stride}, {stride}):"
                )
                self.indent += 1
                self.emit(
                    f"T.update(range({a} >> 12, (({a} + {size - 1}) >> 12) + 1))"
                )
                self.indent -= 2
        self.indent -= 1

        self._invalidate(assigned | {v})
        self.lvals[v] = Val(
            f"l{v}",
            "i32",
            ("local", v, self.lver[v]),
            ival=plan["post_iv"],
            locs=frozenset((v,)),
        )
        return cond_pcs

    def _emit_scalar_loop(self, v, mv, step, body_lines) -> None:
        if step == 1:
            self.emit(f"for l{v} in range(l{v}, l{v} + {mv}):")
        else:
            self.emit(f"for l{v} in range(l{v}, l{v} + {mv} * {step}, {step}):")
        pad = "    " * (self.indent + 1)
        for line in body_lines:
            self.lines.append(pad + line)
        if not body_lines:
            self.lines.append(pad + "pass")
        self.emit(f"l{v} += {step}")

    def _if(self, if_pc, ctr, stream_ctx):
        """Compile one ``if`` at ``if_pc``; returns ``(next_pc, ctr)``."""
        body = self.body
        if stream_ctx is not None:
            stream_ctx["vec_ok"] = False
        if body[if_pc].args[0] is not None:
            raise Bailout("if with result type")
        cond = self.sym.pop()
        if self.sym:
            raise Bailout("if entered with non-empty symbolic stack")
        end_pc, else_pc = self.matches[if_pc]
        ctr = self._count(ctr, if_pc)
        assigned = self._assigned(if_pc + 1, end_pc)
        saved = list(self.lvals)
        n0 = self.nchecked
        self.emit(f"if {self._truth(cond)}:")
        if else_pc is None:
            self._arm(if_pc + 1, end_pc, ())
        else:
            # The then-arm ends by executing the ``else`` instruction.
            self._arm(if_pc + 1, else_pc, (else_pc,))
            self.lvals = list(saved)
            self.emit("else:")
            self._arm(else_pc + 1, end_pc, ())
        self.lvals = list(saved)
        self._invalidate(assigned)
        if self.nchecked > n0:
            ctr = None  # an arm can trap: ``end`` needs a new group
        return end_pc + 1, self._count(ctr, end_pc)

    def _arm(self, start, end, last_pcs) -> None:
        """One ``if`` arm; ``last_pcs`` run after its body."""
        self.indent += 1
        mark = len(self.lines)
        ctr = self._walk(start, end, None, None)
        if last_pcs:
            self._count(ctr, *last_pcs)
        if self.sym:
            raise Bailout("if arm leaves values on stack")
        if len(self.lines) == mark:
            self.emit("pass")
        self.indent -= 1

    # -- NumPy batching ------------------------------------------------
    def _try_vec(self, ctx):
        streams = ctx["streams"]
        stores = ctx["stores"]
        for st in streams:
            if st["stride"] < 0:
                raise VecBail
        for s in stores:
            stream = streams[s["si"]]
            if s["op"] != "f64.store" or stream["stride"] % 8 != 0:
                raise VecBail
        reductions = [s for s in stores if streams[s["si"]]["stride"] == 0]
        if reductions and len(stores) != 1:
            raise VecBail
        self._vec = {"ctx": ctx, "lines": [], "names": {}, "isvec": {}, "ar": None}
        lines = self._vec["lines"]
        mv = ctx["m"]
        try:
            if reductions:
                s = stores[0]
                stream = streams[s["si"]]
                vn = s["value"].node
                if not (vn[0] == "bin" and vn[1] in ("f64.add", "f64.sub")):
                    raise VecBail
                acc = vn[2]
                if acc[0] != "load" or acc[1] != "f64.load":
                    raise VecBail
                if (acc[2], acc[3]) != stream["node"]:
                    raise VecBail
                expr, isvec = self._vecgen(vn[3])
                if s["si"] in self._vec["names"]:
                    raise VecBail  # rest reads the accumulator cell
                un = self.bind("u", "<d", "_u")
                pk = self.bind("p", "<d", "_p")
                op = "+" if vn[1] == "f64.add" else "-"
                lines.append(f"_acc = {un}(data, {stream['name']})[0]")
                if isvec:
                    lines.append(f"_ts = {expr}")
                    lines.append(f"for _t in _ts.tolist(): _acc = _acc {op} _t")
                else:
                    lines.append(f"_t = {expr}")
                    lines.append(f"for _i in range({mv}): _acc = _acc {op} _t")
                lines.append(f"{pk}(data, {stream['name']}, _acc)")
            else:
                for s in stores:
                    stream = streams[s["si"]]
                    expr, _ = self._vecgen(s["value"].node)
                    se = stream["stride"] // 8
                    if se == 0:
                        raise VecBail
                    dst = f"_d{s['si']}"
                    view = (
                        f"_np.frombuffer(data, _np.float64, "
                        f"({mv} - 1) * {se} + 1, {stream['name']})"
                    )
                    if se != 1:
                        view += f"[::{se}]"
                    lines.append(f"{dst} = {view}")
                    lines.append(f"{dst}[:] = {expr}")
            alias = self._alias_conditions(ctx, reductions)
        finally:
            vec = self._vec
            self._vec = None
        return vec["lines"], alias

    def _alias_conditions(self, ctx, reductions):
        """Runtime disjointness checks between load and store streams.

        Sequential semantics allow a load stream to coincide with a
        store stream only element-wise (identical base/stride/size) and
        only when a single store exists; everything else must be
        disjoint.  Bases are only known at run time, so the checks are
        emitted into the tier-up condition.
        """
        streams = ctx["streams"]
        mv = ctx["m"]
        used_loads = [
            si for si in self._vec["names"] if streams[si]["kind"] == "load"
        ]
        store_idx = [s["si"] for s in ctx["stores"]]
        single_store = len(store_idx) == 1

        def extent(st):
            if st["stride"] == 0:
                return str(st["size"])
            return f"(({mv}) - 1) * {st['stride']} + {st['size']}"

        conds = []
        for li in used_loads:
            L = streams[li]
            for si in store_idx:
                S = streams[si]
                if li == si:
                    continue
                disjoint = (
                    f"({L['name']} + {extent(L)} <= {S['name']} or "
                    f"{S['name']} + {extent(S)} <= {L['name']})"
                )
                if (
                    single_store
                    and not reductions
                    and L["stride"] == S["stride"]
                    and L["size"] == S["size"]
                ):
                    conds.append(f"({L['name']} == {S['name']} or {disjoint})")
                else:
                    conds.append(disjoint)
        for i, si in enumerate(store_idx):
            for sj in store_idx[i + 1 :]:
                A, B = streams[si], streams[sj]
                conds.append(
                    f"({A['name']} + {extent(A)} <= {B['name']} or "
                    f"{B['name']} + {extent(B)} <= {A['name']})"
                )
        return " and ".join(conds)

    def _vec_arange(self):
        if self._vec["ar"] is None:
            ctx = self._vec["ctx"]
            v, mv, step = ctx["var"], ctx["m"], ctx["step"]
            self._vec["lines"].append(
                f"_ar = _np.arange(l{v}, l{v} + {mv} * {step}, {step}, "
                f"dtype=_np.int64)"
            )
            self._vec["ar"] = "_ar"
        return self._vec["ar"]

    def _vec_load(self, addr_node, off):
        ctx = self._vec["ctx"]
        mv = ctx["m"]
        for si, st in enumerate(ctx["streams"]):
            if st["kind"] == "load" and st["node"] == (addr_node, off):
                break
        else:
            raise VecBail
        name = self._vec["names"].get(si)
        if name is None:
            stride = st["stride"]
            if st["op"] != "f64.load":
                raise VecBail
            if stride == 0:
                # Loop-invariant cell: alias checks guarantee no store
                # writes it, so one scalar read is exact.
                name = f"_s{si}"
                un = self.bind("u", "<d", "_u")
                self._vec["lines"].append(f"{name} = {un}(data, {st['name']})[0]")
                isvec = False
            elif stride % 8 == 0:
                se = stride // 8
                name = f"_w{si}"
                view = (
                    f"_np.frombuffer(data, _np.float64, "
                    f"({mv} - 1) * {se} + 1, {st['name']})"
                )
                if se != 1:
                    view += f"[::{se}]"
                self._vec["lines"].append(f"{name} = {view}")
                isvec = True
            else:
                raise VecBail
            self._vec["names"][si] = name
            self._vec["isvec"][si] = isvec
        return name, self._vec["isvec"][si]

    def _vecgen(self, node):
        kind = node[0]
        if kind == "const":
            _, val, ty = node
            if ty not in ("f64", "i32"):
                raise VecBail
            if isinstance(val, float) and (
                val != val or val in (float("inf"), float("-inf"))
            ):
                return self.bind("const", repr(val), "_k"), False
            return repr(val), False
        if kind == "local":
            _, j, ver = node
            if ver != self.lver[j]:
                raise VecBail
            ctx = self._vec["ctx"]
            if j == ctx["var"]:
                return self._vec_arange(), True
            if j in ctx["assigned"]:
                raise VecBail
            return f"l{j}", False
        if kind == "load":
            _, op, addr_node, off, _iv = node
            if op != "f64.load":
                raise VecBail
            return self._vec_load(addr_node, off)
        if kind == "bin":
            _, op, an, bn, iv = node
            a, av = self._vecgen(an)
            b, bv = self._vecgen(bn)
            isvec = av or bv
            if op in ("f64.add", "f64.sub", "f64.mul"):
                sym = {"f64.add": "+", "f64.sub": "-", "f64.mul": "*"}[op]
                return f"({a} {sym} {b})", isvec
            if op == "f64.div":
                if not isvec:
                    return f"{self.bind('bin', op, '_f')}({a}, {b})", False
                return f"({a} / {b})", True
            if iv is None:
                raise VecBail
            if op in ("i32.add", "i32.sub", "i32.mul"):
                sym = {"i32.add": "+", "i32.sub": "-", "i32.mul": "*"}[op]
                return f"({a} {sym} {b})", isvec
            if op in ("i32.rem_s", "i32.rem_u") and bn[0] == "const":
                return f"({a} % {bn[1]})", isvec
            if op in ("i32.div_s", "i32.div_u") and bn[0] == "const":
                return f"({a} // {bn[1]})", isvec
            if op == "i32.shl" and bn[0] == "const":
                return f"({a} << {bn[1] & 31})", isvec
            raise VecBail
        if kind == "un":
            _, op, an, _iv = node
            if op == "f64.convert_i32_s":
                if self._node_ival(an) is None:
                    raise VecBail
                a, av = self._vecgen(an)
                if av:
                    return f"({a}).astype(_np.float64)", True
                return f"float({a})", False
            raise VecBail
        raise VecBail

    # -- assembly ------------------------------------------------------
    def compile(self) -> dict:
        depth = 0
        for ins in self.body:
            if ins.op in ("block", "loop", "if"):
                depth += 1
                if depth > MAX_NESTING:
                    raise Bailout("control nesting too deep")
            elif ins.op == "end":
                depth -= 1
        self._walk(0, len(self.body), None, None)
        if len(self.sym) != self.n_results:
            raise Bailout(
                f"body ends with {len(self.sym)} values, "
                f"expected {self.n_results}"
            )
        results = [v.py for v in self.sym]

        src = [""]  # header slot, filled once every env name is bound
        pad = "    "
        nlocals = len(self.local_types)
        if nlocals:
            src.append(pad + "L = f.locals")
            for i in range(0, nlocals, 8):
                src.append(
                    pad
                    + "; ".join(
                        f"l{j} = L[{j}]" for j in range(i, min(i + 8, nlocals))
                    )
                )
        if self.uses_mem and self.need:
            src.append(pad + f"if len(data) < {self.need}: return 0")
        for size in sorted(self.limits):
            src.append(pad + f"z{size} = len(data) - {size}")
        ncounters = len(self.counter_pcs)
        for i in range(0, ncounters, 8):
            src.append(
                pad
                + "; ".join(
                    f"c{j} = 0" for j in range(i, min(i + 8, ncounters))
                )
            )
        # Memory traffic is counted in locals and settled at the end;
        # no code the body can reach reads the memory's counters.
        flush = []
        if self.uses_mem:
            src.append(pad + "nL = nS = 0")
            flush += [
                "if nL: mem.load_count += nL",
                "if nS: mem.store_count += nS",
            ]
        groups = [(i, pcs) for i, pcs in enumerate(self.counter_pcs) if pcs]
        if groups:
            flush.append("if C is not None:")
            for i, pcs in groups:
                name = self.bind("pcs", tuple(pcs), "_P")
                flush.append(pad + f"if c{i}:")
                flush.append(pad * 2 + f"for _pc in {name}: C[_pc] += c{i}")
        if self.nchecked:
            # A checked access may trap: settle the counters either way.
            src.append(pad + "try:")
            src.extend(pad + line for line in self.lines)
            src.append(pad + "finally:")
            src.extend(pad * 2 + line for line in flush)
        else:
            src.extend(self.lines)
            src.extend(pad + line for line in flush)
        if results:
            src.append(pad + "S = f.stack")
            for py in results:
                src.append(pad + f"S.append({py})")
        src.append(pad + "return -1")
        args = ", ".join(f"{n}={n}" for n, _, _ in self.env_order)
        src[0] = f"def _t2(f, C{', ' + args if args else ''}):"

        env = [
            [name, kind, list(arg) if isinstance(arg, tuple) else arg]
            for name, kind, arg in self.env_order
        ]
        return {
            "eligible": True,
            "source": "\n".join(src),
            "env": env,
            "need": self.need,
        }


def compile_function(
    body, matches, local_types, n_params, n_results
) -> dict:
    """Compile one function body to a tier-2 artifact (pure data).

    Returns ``{"eligible": False, "reason": ...}`` when the body falls
    outside the supported shape; never raises :class:`Bailout`.
    """
    no_streams: set = set()
    while True:
        try:
            compiler = _Compiler(
                body, matches, local_types, n_params, n_results,
                frozenset(no_streams),
            )
            return compiler.compile()
        except _Restart as exc:
            no_streams.add(exc.pc)
        except Bailout as exc:
            return {
                "eligible": False,
                "reason": str(exc),
            }


def install(artifact: dict, memory):
    """Bind an eligible artifact against one instance's memory.

    Returns the handler ``fn(frame, counts) -> -1 (done) | 0 (deopt)``;
    a checked access that leaves memory raises the interpreter's trap
    out of it, with ``counts`` and the memory counters settled.
    """
    from repro.runtime import interpreter as I

    scope: Dict[str, Any] = {}
    binds: Dict[str, Any] = {}
    for name, kind, arg in artifact["env"]:
        if kind == "u":
            binds[name] = struct.Struct(arg).unpack_from
        elif kind == "p":
            binds[name] = struct.Struct(arg).pack_into
        elif kind == "bin":
            binds[name] = I._BINOPS[arg]
        elif kind == "un":
            binds[name] = I._UNOPS[arg]
        elif kind == "ld":
            binds[name] = I._value_loader(memory, arg)
        elif kind == "st":
            binds[name] = I._value_storer(memory, arg)
        elif kind == "np":
            binds[name] = _np
        elif kind == "vecmin":
            binds[name] = VEC_MIN
        elif kind == "const":
            binds[name] = float(arg)
        elif kind == "pcs":
            binds[name] = tuple(arg)
        elif kind == "data":
            binds[name] = memory.data
        elif kind == "mem":
            binds[name] = memory
        elif kind == "touched":
            binds[name] = memory.touched_pages
        elif kind == "track":
            binds[name] = memory.track_pages
        else:  # pragma: no cover - the compiler emits only the kinds above
            raise ValueError(f"unknown env kind {kind!r}")
    scope.update(binds)
    exec(compile(artifact["source"], "<tier2>", "exec"), scope)
    return scope["_t2"]
