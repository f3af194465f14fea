"""Vector backend: numpy whole-block iteration batching for branchy
``xloop.uc`` loops (the fourth rung of :mod:`repro.sim.backends`).

The turbo tier replays *recorded* steady-state schedule segments, so it
only pays off when consecutive iterations repeat the same schedule.  On
branchy/aperiodic loops the segment memo goes dead and those points
fall back to the fused stepper.  This module batches exactly those
loops instead: it never records a schedule, it *reconstructs* one.

Execution is split into two decoupled phases per specialized
invocation:

**Phase 1 — block functional execution.**  The loop body is compiled
once into per-slot numpy emitters.  A block of iterations executes at
once: every architectural register becomes a ``(block,)`` uint32
ndarray, the per-iteration program counters form an active-mask
wavefront (always stepping the minimum live slot, so divergent
iterations re-converge), and load/store subscripts become gather/
scatter index vectors against ``np.frombuffer`` views of the sparse
memory's backing pages.  Stores apply immediately under an undo log.
This is serial-equivalent because engagement is restricted to plain
``uc`` loops: the pattern contract (machine-checked repo-wide by the
PR 7 dependence prover) forbids cross-iteration memory conflicts, and
a static may-read-before-write analysis over the body CFG rejects any
loop whose lanes could observe stale per-lane register state.

**Phase 2 — exact schedule reconstruction.**  Phase 1 leaves behind,
per iteration, the branch outcomes and memory addresses in program
order.  A compressed event replay then reproduces the LPSU's per-cycle
loop bit-exactly from the static per-instruction meta table: runs of
single-cycle compute ops collapse into closed-form time advances
(their RAW hazards can only come from load/LLFU destinations, which a
tiny per-lane scoreboard tracks), while shared-resource events --
memory-port arbitration, live d-cache LRU lookups, LLFU occupancy,
taken-branch bubbles, iteration begin/retire -- are stepped
individually in the same ``(not active, k)`` issue order the
interpreted stepper uses.  Cycles, stall/energy totals, cache state
and final memory are bit-identical to ``interp``; ``repro verify
--ladder`` enforces it.

Any refusal -- statically ineligible body, excessive divergence (mean
active-mask fraction under ``REPRO_VECTOR_MIN_UTIL``), a conversion
the scalar semantics would fault on -- rolls the undo log back and
falls through to the turbo/fused path, marking the loop vector-dead so
later invocations skip the attempt.
"""

from __future__ import annotations

import os
import sys

try:
    import numpy as np
    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised via stubbed imports
    np = None
    HAS_NUMPY = False

from ..isa.instructions import FU, Fmt
from .memory import MASK32, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE

_QNAN = 0x7FC00000
_LOAD_SIZE = {"lw": (4, True), "lh": (2, True), "lhu": (2, False),
              "lb": (1, True), "lbu": (1, False)}
_STORE_SIZE = {"sw": 4, "sh": 2, "sb": 1}

#: iterations per phase-1 block
BLOCK = int(os.environ.get("REPRO_VECTOR_BLOCK", "256") or 256)
#: refuse a block whose mean active-mask fraction falls below this
MIN_UTIL = float(os.environ.get("REPRO_VECTOR_MIN_UTIL", "0.0625")
                 or 0.0625)
#: skip invocations with fewer iterations than this -- block setup and
#: schedule reconstruction cannot amortize on short trips, where the
#: fused/turbo stepper is already fast (per-invocation, not per-loop:
#: the same static loop batches again when called with a long trip)
MIN_TRIP = int(os.environ.get("REPRO_VECTOR_MIN_TRIP", "64") or 64)

# issue classes (phase 2)
_ALU, _MEM, _LLFU, _BR, _JMP = 0, 1, 2, 3, 4


class _Refuse(Exception):
    """Internal: this invocation cannot run batched; fall back."""


# ---------------------------------------------------------------------------
# phase-1 numpy emitters
# ---------------------------------------------------------------------------

def _np_alu_r(m):
    i32, u32 = np.int32, np.uint32
    if m in ("add", "addu.xi"):
        return lambda a, b: a + b
    if m == "sub":
        return lambda a, b: a - b
    if m == "and":
        return lambda a, b: a & b
    if m == "or":
        return lambda a, b: a | b
    if m == "xor":
        return lambda a, b: a ^ b
    if m == "sll":
        return lambda a, b: a << (b & u32(31))
    if m == "srl":
        return lambda a, b: a >> (b & u32(31))
    if m == "sra":
        return lambda a, b: (a.view(i32)
                             >> (b & u32(31)).astype(i32)).view(u32)
    if m == "slt":
        return lambda a, b: (a.view(i32) < b.view(i32)).astype(u32)
    if m == "sltu":
        return lambda a, b: (a < b).astype(u32)
    return None


def _np_muldiv(m):
    i32, i64, u32 = np.int32, np.int64, np.uint32

    def _signed_quot(sa, sb):
        q = np.abs(sa) // np.abs(sb)
        return np.where((sa < 0) != (sb < 0), -q, q)

    if m == "mul":
        return lambda a, b: a * b
    if m == "mulh":
        return lambda a, b: (((a.view(i32).astype(i64)
                               * b.view(i32).astype(i64)) >> 32)
                             & MASK32).astype(u32)
    if m == "div":
        def fn(a, b):
            sa = a.view(i32).astype(i64)
            sb = b.view(i32).astype(i64)
            zero = sb == 0
            den = np.where(zero, 1, sb)
            q = _signed_quot(sa, den)
            return np.where(zero, i64(MASK32), q & MASK32).astype(u32)
        return fn
    if m == "divu":
        def fn(a, b):
            zero = b == 0
            den = np.where(zero, u32(1), b)
            return np.where(zero, u32(MASK32), a // den)
        return fn
    if m == "rem":
        def fn(a, b):
            sa = a.view(i32).astype(i64)
            sb = b.view(i32).astype(i64)
            zero = sb == 0
            den = np.where(zero, 1, sb)
            r = sa - _signed_quot(sa, den) * den
            return (np.where(zero, sa, r) & i64(MASK32)).astype(u32)
        return fn
    if m == "remu":
        def fn(a, b):
            zero = b == 0
            den = np.where(zero, u32(1), b)
            return np.where(zero, a, a % den)
        return fn
    return None


def _np_fp_r(m):
    """Mirror the scalar path exactly: widen f32 bits to float64,
    compute in double precision (like the struct-based handlers), round
    once back to float32."""
    f32, f64, u32 = np.float32, np.float64, np.uint32

    def wide(x):
        return x.view(f32).astype(f64)

    def bits(v):
        return v.astype(f32).view(u32)

    if m == "fadd.s":
        return lambda a, b: bits(wide(a) + wide(b))
    if m == "fsub.s":
        return lambda a, b: bits(wide(a) - wide(b))
    if m == "fmul.s":
        return lambda a, b: bits(wide(a) * wide(b))
    if m == "fdiv.s":
        def fn(a, b):
            fb = wide(b)
            zero = fb == 0.0
            v = bits(wide(a) / np.where(zero, 1.0, fb))
            return np.where(zero, u32(_QNAN), v)
        return fn
    if m == "fmin.s":   # min(fa, fb) returns fa unless fb < fa
        return lambda a, b: np.where(wide(b) < wide(a), b, a)
    if m == "fmax.s":
        return lambda a, b: np.where(wide(b) > wide(a), b, a)
    if m == "flt.s":
        return lambda a, b: (wide(a) < wide(b)).astype(u32)
    if m == "fle.s":
        return lambda a, b: (wide(a) <= wide(b)).astype(u32)
    if m == "feq.s":
        return lambda a, b: (wide(a) == wide(b)).astype(u32)
    return None


_NP_BRANCH = None


def _np_branch(m):
    global _NP_BRANCH
    if _NP_BRANCH is None:
        i32 = np.int32
        _NP_BRANCH = {
            "beq": lambda a, b: a == b,
            "bne": lambda a, b: a != b,
            "blt": lambda a, b: a.view(i32) < b.view(i32),
            "bge": lambda a, b: a.view(i32) >= b.view(i32),
            "bltu": lambda a, b: a < b,
            "bgeu": lambda a, b: a >= b,
        }
    return _NP_BRANCH.get(m)


# ---------------------------------------------------------------------------
# phase-1 run state: block register file + paged gather/scatter
# ---------------------------------------------------------------------------

class _BlockState:
    """Mutable state for one block's functional wavefront."""

    __slots__ = ("regs", "mem", "views", "undo", "recs", "pcs")

    def __init__(self, mem, views, undo):
        self.mem = mem
        self.views = views   # page key -> writable np.uint8 view
        self.undo = undo     # shared across blocks for whole-run rollback
        self.regs = None
        self.recs = []       # (sel, slot, payload u32) per event occurrence
        self.pcs = None

    def view(self, key):
        v = self.views.get(key)
        if v is None:
            page = self.mem._pages.get(key)
            if page is None:
                page = self.mem._page(key << PAGE_SHIFT)
            v = self.views[key] = np.frombuffer(page, dtype=np.uint8)
        return v

    def gather(self, addrs, size, signed):
        out = np.zeros(len(addrs), np.uint32)
        keys = addrs >> np.uint32(PAGE_SHIFT)
        offs = (addrs & np.uint32(PAGE_MASK)).astype(np.int64)
        for key in np.unique(keys):
            m = keys == key
            page = self.view(int(key))
            o = offs[m]
            safe = o <= PAGE_SIZE - size
            if not safe.all():
                # page-crossing lanes: scalar fall-back (rare)
                v = np.zeros(len(o), np.uint32)
                load = self.mem.load
                base = int(key) << PAGE_SHIFT
                for j in np.nonzero(~safe)[0]:
                    v[j] = load(base + int(o[j]), size, False)
                os_ = o[safe]
                w = page[os_].astype(np.uint32)
                for b in range(1, size):
                    w |= page[os_ + b].astype(np.uint32) << (8 * b)
                v[safe] = w
            else:
                v = page[o].astype(np.uint32)
                for b in range(1, size):
                    v |= page[o + b].astype(np.uint32) << (8 * b)
            out[m] = v
        if signed and size < 4:
            sign = np.uint32(1 << (8 * size - 1))
            ext = np.uint32(MASK32 ^ ((1 << (8 * size)) - 1))
            out = np.where(out & sign, out | ext, out)
        return out

    def scatter(self, addrs, size, values):
        keys = addrs >> np.uint32(PAGE_SHIFT)
        offs = (addrs & np.uint32(PAGE_MASK)).astype(np.int64)
        undo = self.undo
        for key in np.unique(keys):
            m = keys == key
            page = self.view(int(key))
            o = offs[m]
            v = values[m]
            safe = o <= PAGE_SIZE - size
            if not safe.all():
                base = int(key) << PAGE_SHIFT
                for j in np.nonzero(~safe)[0]:
                    addr = base + int(o[j])
                    undo.append((None, addr, self.mem.read(addr, size)))
                    self.mem.store(addr, size, int(v[j]))
                o = o[safe]
                v = v[safe]
                if not len(o):
                    continue
            for b in range(size):
                col = o + b
                undo.append((page, col, page[col].copy()))
                page[col] = ((v >> np.uint32(8 * b))
                             & np.uint32(0xFF)).astype(np.uint8)


def _rollback(mem, undo):
    for page, where, old in reversed(undo):
        if page is None:
            mem.write(where, old)
        else:
            page[where] = old
    undo.clear()


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class VectorEngine:
    """Compiled whole-block executor for one static xloop body.

    Content-cached process-wide (like the turbo memos and the fused
    LPSU engines); holds only static tables plus engagement counters,
    so one engine serves every invocation of content-identical loops.
    """

    def __init__(self, descriptor, lpsu_cfg, gpp_cfg):
        self.d = descriptor
        self.cfg = lpsu_cfg
        self.lat = gpp_cfg.latencies
        self.dead = False
        self.invocations = 0
        self.batched_iterations = 0
        self.refusals = 0
        self.usable = False
        self.divergent = False
        self._analyze(descriptor, lpsu_cfg, gpp_cfg)

    # -- static analysis -------------------------------------------------

    def _analyze(self, d, cfg, gpp_cfg):
        if not HAS_NUMPY or sys.byteorder != "little":
            return
        kind = d.kind
        if (kind.data.needs_memory_disambiguation
                or kind.data.ordered_through_registers
                or kind.control.value in ("de", "db")
                or d.cirs or d.has_exit
                or cfg.threads_per_lane != 1
                or not d.body):
            return
        body_n = d.body_len
        cls = []
        emit = []
        # hazardable registers: only load/LLFU destinations can make a
        # RAW check stall (every other producer has latency 1)
        hazard = set()
        for ins in d.body:
            op = ins.op
            if op.is_llfu or (op.is_load and ins.rd):
                if ins.dst_reg() is not None:
                    hazard.add(ins.dst_reg())
        for i, ins in enumerate(d.body):
            op = ins.op
            if (op.is_amo or op.is_xloop or op.is_xbreak
                    or op.fmt == Fmt.JALR):
                return
            if op.is_mem and not op.is_fence:
                c = _MEM
            elif op.is_llfu:
                c = _LLFU
            elif op.is_branch:
                c = _BR
            elif op.is_jump:
                c = _JMP
            else:
                c = _ALU
            e = self._emit(ins, i, c)
            if e is None:
                return
            cls.append(c)
            emit.append(e)
            if op.is_branch or op.is_jump:
                tgt = (ins.pc + ins.imm - d.body_start_pc) >> 2
                if not 0 <= tgt <= body_n:
                    return
        if self._maybe_uninitialized_read(d, cls):
            return
        self._cls = cls
        self._emitters = emit
        self._body_n = body_n
        self._build_walk_tables(d, cls, hazard)
        self.divergent = any(c == _BR for c in cls)
        self.usable = True

    def _maybe_uninitialized_read(self, d, cls):
        """Reject bodies where some path reads a body-written register
        before writing it this iteration: the machine's lanes would see
        stale per-lane values there, which block execution (fresh
        live-in registers per iteration) cannot reproduce."""
        body_n = d.body_len
        defined_entry = {0, d.idx_reg} | {m.reg for m in d.mivt.values()}
        written = {ins.dst_reg() for ins in d.body
                   if ins.dst_reg() is not None}
        # regs never written in the body hold their live-in value on
        # every lane forever, so reading them is always safe
        tracked = written - defined_entry
        if not tracked:
            return False
        # forward dataflow: per slot, the set of tracked regs certainly
        # written on *every* path reaching it
        full = frozenset(tracked)
        avail = [None] * (body_n + 1)
        avail[0] = frozenset()
        work = [0]
        bad = False
        while work:
            s = work.pop()
            if s >= body_n:
                continue
            ins = d.body[s]
            cur = avail[s]
            for r in ins.src_regs():
                if r in tracked and r not in cur:
                    bad = True
            dst = ins.dst_reg()
            nxt = cur if dst not in tracked else cur | {dst}
            succs = [s + 1]
            if cls[s] == _JMP:
                succs = [(ins.pc + ins.imm - d.body_start_pc) >> 2]
            elif cls[s] == _BR:
                succs = [s + 1, (ins.pc + ins.imm - d.body_start_pc) >> 2]
            for t in succs:
                if t > body_n:
                    continue
                old = avail[t]
                new = nxt if old is None else (old & nxt)
                if old is None or new != old:
                    avail[t] = new
                    if t < body_n:
                        work.append(t)
            if bad:
                return True
        _ = full
        return bad

    def _build_walk_tables(self, d, cls, hazard):
        """Phase-2 statics: per slot, the closed-form ALU run reaching
        the next shared-resource/branch event, plus per-event operand
        facts."""
        body_n = d.body_len
        lat = self.lat
        runs = [None] * (body_n + 1)
        info = [None] * body_n
        for i, ins in enumerate(d.body):
            op = ins.op
            srcs = tuple(s for s in set(ins.src_regs()) if s in hazard)
            dst = ins.dst_reg()
            if cls[i] == _MEM:
                rd = ins.rd if op.is_load else 0
                info[i] = (srcs, rd, op.is_store)
            elif cls[i] == _LLFU:
                latency = lat.for_fu(op.fu)
                occupy = latency if op.fu in (FU.DIV, FU.FDIV) else 1
                info[i] = (srcs, dst, latency, occupy)
            elif cls[i] == _BR:
                tgt = (ins.pc + ins.imm - d.body_start_pc) >> 2
                info[i] = (srcs, tgt)
            elif cls[i] == _JMP:
                tgt = (ins.pc + ins.imm - d.body_start_pc) >> 2
                info[i] = (dst if dst in hazard else None, tgt)
        for s in range(body_n + 1):
            n = 0
            hz = []
            cur = s
            while cur < body_n and cls[cur] == _ALU:
                ins = d.body[cur]
                reads = tuple(r for r in set(ins.src_regs())
                              if r in hazard)
                if reads:
                    hz.append((n, reads, None))
                dst = ins.dst_reg()
                if dst in hazard:
                    hz.append((n, None, dst))
                n += 1
                cur += 1
            runs[s] = (n, tuple(hz), cur)
        self._runs = runs
        self._info = info

    # -- phase-1 emitters -------------------------------------------------

    def _emit(self, ins, slot, c):
        op = ins.op
        m = op.mnemonic
        fmt = op.fmt
        rd, rs1, rs2 = ins.rd, ins.rs1, ins.rs2
        imm = ins.imm
        u32 = np.uint32

        if fmt in (Fmt.R, Fmt.XI_R):
            fn = _np_alu_r(m) or _np_muldiv(m) or _np_fp_r(m)
            if fn is None:
                return None

            def h(st, sel):
                if rd:
                    st.regs[rd][sel] = fn(st.regs[rs1][sel],
                                          st.regs[rs2][sel])
                return None
            return h
        if fmt in (Fmt.I, Fmt.I_SHIFT, Fmt.XI_I):
            i32 = np.int32
            if m in ("addi", "addiu.xi"):
                k = u32(imm & MASK32)
                fn = lambda a: a + k
            elif m == "andi":
                k = u32(imm & MASK32)
                fn = lambda a: a & k
            elif m == "ori":
                k = u32(imm & MASK32)
                fn = lambda a: a | k
            elif m == "xori":
                k = u32(imm & MASK32)
                fn = lambda a: a ^ k
            elif m == "slti":
                k = np.int32(imm)
                fn = lambda a: (a.view(i32) < k).astype(u32)
            elif m == "sltiu":
                k = u32(imm & MASK32)
                fn = lambda a: (a < k).astype(u32)
            elif m == "slli":
                k = imm & 31
                fn = lambda a: a << u32(k)
            elif m == "srli":
                k = imm & 31
                fn = lambda a: a >> u32(k)
            elif m == "srai":
                k = imm & 31
                fn = lambda a: (a.view(i32) >> i32(k)).view(u32)
            else:
                return None

            def h(st, sel):
                if rd:
                    st.regs[rd][sel] = fn(st.regs[rs1][sel])
                return None
            return h
        if fmt == Fmt.R2:
            if m == "fcvt.s.w":
                def h(st, sel):
                    if rd:
                        st.regs[rd][sel] = (st.regs[rs1][sel]
                                            .view(np.int32)
                                            .astype(np.float64)
                                            .astype(np.float32)
                                            .view(u32))
                    return None
                return h
            if m == "fcvt.w.s":
                def h(st, sel):
                    fa = (st.regs[rs1][sel].view(np.float32)
                          .astype(np.float64))
                    if not np.isfinite(fa).all():
                        # int(nan/inf) raises on the scalar path: fall
                        # back so the reference semantics surface it
                        raise _Refuse("fcvt.w.s of non-finite value")
                    t = np.trunc(fa)
                    big = np.abs(t) >= 2.0 ** 62
                    v = (t.astype(np.int64) & np.int64(MASK32)) \
                        .astype(u32)
                    if big.any():
                        for j in np.nonzero(big)[0]:
                            v[j] = int(t[j]) & MASK32
                    if rd:
                        st.regs[rd][sel] = v
                    return None
                return h
            if m == "fsqrt.s":
                def h(st, sel):
                    fa = (st.regs[rs1][sel].view(np.float32)
                          .astype(np.float64))
                    ok = fa >= 0.0
                    v = (np.sqrt(np.where(ok, fa, 1.0))
                         .astype(np.float32).view(u32))
                    if rd:
                        st.regs[rd][sel] = np.where(ok, v, u32(_QNAN))
                    return None
                return h
            return None
        if fmt == Fmt.LUI:
            val = u32((imm << 12) & MASK32)

            def h(st, sel):
                if rd:
                    st.regs[rd][sel] = val
                return None
            return h
        if fmt == Fmt.NONE:     # fence: ALU-class no-op in the LPSU
            return lambda st, sel: None
        if fmt == Fmt.BRANCH:
            cond = _np_branch(m)
            if cond is None:
                return None
            tgt = np.int64((ins.pc + imm - self.d.body_start_pc) >> 2)
            nxt = np.int64(slot + 1)

            def h(st, sel):
                taken = cond(st.regs[rs1][sel], st.regs[rs2][sel])
                st.recs.append((sel, slot, taken.astype(u32)))
                return np.where(taken, tgt, nxt)
            return h
        if fmt == Fmt.JAL:
            tgt = np.int64((ins.pc + imm - self.d.body_start_pc) >> 2)
            link = u32((ins.pc + 4) & MASK32)

            def h(st, sel):
                if rd:
                    st.regs[rd][sel] = link
                return np.full(len(sel), tgt)
            return h
        if fmt == Fmt.LOAD:
            size, signed = _LOAD_SIZE[m]
            k = u32(imm & MASK32)

            def h(st, sel):
                addrs = st.regs[rs1][sel] + k
                st.recs.append((sel, slot, addrs))
                v = st.gather(addrs, size, signed)
                if rd:
                    st.regs[rd][sel] = v
                return None
            return h
        if fmt == Fmt.STORE:
            size = _STORE_SIZE[m]
            k = u32(imm & MASK32)

            def h(st, sel):
                addrs = st.regs[rs1][sel] + k
                st.recs.append((sel, slot, addrs))
                st.scatter(addrs, size, st.regs[rs2][sel])
                return None
            return h
        return None

    # -- public entry ------------------------------------------------------

    def execute(self, lpsu):
        """Run the whole specialized phase batched.  Returns the exact
        exec-phase cycle count, or None (state untouched) when this
        invocation cannot engage."""
        if self.dead or not self.usable:
            return None
        if (not lpsu.fast or not lpsu._fuse or lpsu.events is None
                or lpsu.monitor is not None or lpsu.trace is not None
                or lpsu._max_iters is not None):
            return None
        n_total = lpsu.bound - lpsu.start_idx
        if n_total < max(MIN_TRIP, 1):
            return None
        self.invocations += 1
        undo = []
        try:
            with np.errstate(all="ignore"):
                blocks, counts = self._run_functional(lpsu, n_total,
                                                      undo)
                # merge the per-slot execution counts only now that
                # phase 1 ran to completion: a refusal must leave the
                # energy accounting as untouched as the memory image
                ec = lpsu._exec_counts
                for s, c in enumerate(counts):
                    ec[s] += c
                cycles = self._replay(lpsu, n_total, blocks)
        except _Refuse:
            _rollback(lpsu.mem, undo)
            self.refusals += 1
            self.dead = True
            return None
        undo.clear()
        self.batched_iterations += n_total
        return cycles

    # -- phase 1 -----------------------------------------------------------

    def _run_functional(self, lpsu, n_total, undo):
        d = self.d
        body_n = self._body_n
        emit = self._emitters
        live_in = lpsu.live_in
        start = lpsu.start_idx
        mivs = list(d.mivt.values())
        # local accumulator: merged into lpsu._exec_counts by the
        # caller only if no refusal fires
        counts = [0] * body_n
        views = {}
        blocks = []
        step_cap = 10_000_000
        warmup = 8 * (body_n + 4)
        for base in range(0, n_total, BLOCK):
            nb = min(BLOCK, n_total - base)
            st = _BlockState(lpsu.mem, views, undo)
            ks = np.arange(base, base + nb, dtype=np.int64)
            regs = [None] * 32
            zero = np.zeros(nb, np.uint32)
            for r in range(32):
                v = live_in[r]
                regs[r] = zero.copy() if v == 0 else np.full(
                    nb, v, np.uint32)
            regs[0] = zero
            regs[d.idx_reg] = ((start + ks) & MASK32).astype(np.uint32)
            for miv in mivs:
                regs[miv.reg] = ((live_in[miv.reg] + miv.increment * ks)
                                 & MASK32).astype(np.uint32)
            st.regs = regs
            pcs = np.zeros(nb, np.int64)
            steps = 0
            executed = 0
            while True:
                live = pcs < body_n
                if not live.any():
                    break
                s = int(pcs.min(where=live, initial=body_n))
                selmask = pcs == s
                sel = np.nonzero(selmask)[0]
                nxt = emit[s](st, sel)
                counts[s] += len(sel)
                executed += len(sel)
                steps += 1
                pcs[sel] = s + 1 if nxt is None else nxt
                if steps > step_cap:
                    raise _Refuse("wavefront step cap")
                if (steps > warmup
                        and executed < MIN_UTIL * steps * nb):
                    raise _Refuse("divergence: mask fraction below "
                                  "threshold")
            blocks.append(self._transpose(st, base, nb))
        return blocks, counts

    @staticmethod
    def _transpose(st, base, nb):
        """Per-occurrence event records -> per-iteration program-order
        streams (slot + payload arrays, indexed by block offsets)."""
        recs = st.recs
        if not recs:
            return (base, nb, [], [], [0] * (nb + 1))
        lanes = np.concatenate([r[0] for r in recs])
        seqs = np.concatenate([np.full(len(r[0]), i, np.int64)
                               for i, r in enumerate(recs)])
        slots = np.concatenate([np.full(len(r[0]), r[1], np.int32)
                                for r in recs])
        pays = np.concatenate([r[2] for r in recs])
        order = np.lexsort((seqs, lanes))
        counts = np.bincount(lanes, minlength=nb)
        starts = np.zeros(nb + 1, np.int64)
        np.cumsum(counts, out=starts[1:])
        # plain lists: the replay loop indexes these per event, and
        # python-int indexing is several times cheaper than ndarray
        # scalar access there
        return (base, nb, slots[order].tolist(), pays[order].tolist(),
                starts.tolist())

    # -- phase 2 -----------------------------------------------------------

    def _replay(self, lpsu, n_total, blocks):
        cfg = lpsu.cfg
        cache = lpsu.cache
        hit_lat = cache.config.hit_latency
        # inline the L1 LRU model (same trick as the turbo walker):
        # per-access method-call overhead dominates otherwise, and the
        # streaming common case is an MRU hit that needs no reordering
        miss_lat = hit_lat + cache.config.miss_latency
        line_shift = cache._line_shift
        set_mask = cache.num_sets - 1
        tag_shift = cache.num_sets.bit_length() - 1
        nways = cache.config.ways
        csets = cache._sets
        c_hits = c_miss = 0
        pen = cfg.branch_penalty
        ports = cfg.mem_ports
        runs = self._runs
        info = self._info
        cls = self._cls
        body_n = self._body_n
        n_mivs = len(self.d.mivt)
        FARC = 1 << 60

        n_lanes = cfg.lanes
        # lane state: [k, active, ready_at, pending_slot, ev_slots,
        # ev_pays, ptr, end, sb]; pending_slot -1 = retire pending
        lanes = [[-1, False, 0, 0, None, None, 0, 0, {}]
                 for _ in range(n_lanes)]
        next_k = 0
        active_count = 0
        iterations = 0
        stall_raw = stall_memport = stall_llfu = stall_branch = 0
        dc_access = dc_miss = 0
        llfu_free = [0] * cfg.llfus
        grants = 0

        def walk(ln, slot, t):
            """Advance through compute runs to the next shared event;
            leaves the lane parked with ``pending_slot`` + ready_at."""
            nonlocal stall_raw, stall_branch
            sb = ln[8]
            while True:
                n, hz, stop = runs[slot]
                if n:
                    if hz and sb:
                        shift = 0
                        for off, reads, wr in hz:
                            at = t + off + shift
                            if reads is None:
                                sb.pop(wr, None)
                                continue
                            m = at
                            for r in reads:
                                v = sb.get(r, 0)
                                if v > m:
                                    m = v
                            if m > at:
                                stall_raw += m - at
                                shift += m - at
                        t += n + shift
                    else:
                        t += n
                    slot = stop
                    continue
                if slot >= body_n:
                    ln[3] = -1
                    ln[2] = t
                    return
                c = cls[slot]
                if c == _BR:
                    srcs, tgt = info[slot]
                    if srcs and sb:
                        m = t
                        for r in srcs:
                            v = sb.get(r, 0)
                            if v > m:
                                m = v
                        if m > t:
                            stall_raw += m - t
                            t = m
                    p = ln[6]
                    if ln[4][p] != slot:
                        raise RuntimeError(
                            "vector replay desync at slot %d" % slot)
                    taken = ln[5][p]
                    ln[6] = p + 1
                    t += 1
                    if taken:
                        stall_branch += pen
                        t += pen
                        slot = tgt
                    else:
                        slot += 1
                    continue
                if c == _JMP:
                    wr, tgt = info[slot]
                    if wr is not None:
                        sb.pop(wr, None)
                    t += 1
                    stall_branch += pen
                    t += pen
                    slot = tgt
                    continue
                # shared-resource event (mem or LLFU): RAW settles
                # first, then the issue attempt happens at a visit
                srcs = info[slot][0]
                if srcs and sb:
                    m = t
                    for r in srcs:
                        v = sb.get(r, 0)
                        if v > m:
                            m = v
                    if m > t:
                        stall_raw += m - t
                        t = m
                ln[3] = slot
                ln[2] = t
                return

        def visit(ln, cycle):
            nonlocal grants, stall_memport, stall_llfu
            nonlocal dc_access, dc_miss, next_k, active_count
            nonlocal iterations, order_dirty, idq_ops, c_hits, c_miss
            if not ln[1]:
                # begin: pull the next iteration off the IDQ; the first
                # op executes this same cycle, after older lanes
                k = next_k
                next_k += 1
                ln[0] = k
                ln[1] = True
                active_count += 1
                for i, x in enumerate(inact):
                    if x is ln:
                        del inact[i]
                        break
                act.append(ln)
                order_dirty = True
                blk = blocks[k // BLOCK]
                i = k - blk[0]
                ln[4] = blk[2]
                ln[5] = blk[3]
                ln[6] = blk[4][i]
                ln[7] = blk[4][i + 1]
                idq_ops += 1
                walk(ln, 0, cycle)
                if ln[2] > cycle or ln[3] == -1:
                    return
            slot = ln[3]
            if slot == -1:
                # retire visit
                if ln[6] != ln[7]:
                    raise RuntimeError("vector replay: %d unconsumed "
                                       "events" % (ln[7] - ln[6]))
                iterations += 1
                ln[1] = False
                active_count -= 1
                for i, x in enumerate(act):
                    if x is ln:
                        del act[i]
                        break
                # idle lanes stay k-ascending (retires may complete
                # out of order when a younger iteration runs shorter)
                j = len(inact)
                k = ln[0]
                while j and inact[j - 1][0] > k:
                    j -= 1
                inact.insert(j, ln)
                order_dirty = True
                ln[2] = cycle + 1
                return
            if cls[slot] == _MEM:
                if grants >= ports:
                    stall_memport += 1
                    ln[2] = cycle + 1
                    return
                grants += 1
                p = ln[6]
                if ln[4][p] != slot:
                    raise RuntimeError(
                        "vector replay desync at slot %d" % slot)
                addr = ln[5][p]
                ln[6] = p + 1
                _s, rd, is_store = info[slot]
                line = addr >> line_shift
                tag = line >> tag_shift
                ways = csets[line & set_mask]
                if ways and ways[0] == tag:
                    c_hits += 1
                    a = hit_lat
                elif tag in ways:
                    ways.remove(tag)
                    ways.insert(0, tag)
                    c_hits += 1
                    a = hit_lat
                else:
                    c_miss += 1
                    ways.insert(0, tag)
                    if len(ways) > nways:
                        ways.pop()
                    a = miss_lat
                dc_access += 1
                if a > hit_lat:
                    dc_miss += 1
                if rd:
                    ln[8][rd] = cycle + a
                walk(ln, slot + 1, cycle + 1)
                return
            # LLFU
            _s, dst, latency, occupy = info[slot]
            unit = -1
            for u in range(len(llfu_free)):
                if llfu_free[u] <= cycle:
                    unit = u
                    break
            if unit < 0:
                stall_llfu += 1
                ln[2] = cycle + 1
                return
            llfu_free[unit] = cycle + occupy
            if dst is not None:
                ln[8][dst] = cycle + latency
            walk(ln, slot + 1, cycle + 1)

        events = lpsu.events
        cycle = 0
        guard = 0
        idq_ops = 0
        # issue order is (active, k) ascending -- like the LPSU's
        # _order it changes solely at begin/retire, and since k
        # assignment follows visit order both halves stay sorted under
        # append-only maintenance: no comparison sort needed
        act = []
        inact = list(lanes)
        order = list(lanes)
        order_dirty = False
        while active_count or next_k < n_total:
            grants = 0
            if order_dirty:
                order = act + inact
                order_dirty = False
            for ln in order:
                if ln[1]:
                    if ln[2] > cycle:
                        continue
                elif next_k >= n_total:
                    continue
                visit(ln, cycle)
            cycle += 1
            if active_count == n_lanes or next_k >= n_total:
                nxt = FARC
                for ln in act:
                    if ln[2] < nxt:
                        nxt = ln[2]
                if cycle < nxt < FARC:
                    cycle = nxt
            guard += 1
            if guard > 200_000_000:  # pragma: no cover
                raise RuntimeError("vector replay livelock")

        stats = lpsu.stats
        total_ops = sum(lpsu._exec_counts)
        stats.iterations += iterations
        stats.instrs += total_ops
        stats.busy += total_ops
        stats.stall_raw += stall_raw
        stats.stall_memport += stall_memport
        stats.stall_llfu += stall_llfu
        stats.stall_branch += stall_branch
        events.idq_op += idq_ops
        events.miv_mul += idq_ops * n_mivs
        events.dc_access += dc_access
        events.dc_miss += dc_miss
        cache.hits += c_hits
        cache.misses += c_miss
        lpsu._next_k = n_total
        return cycle


# ---------------------------------------------------------------------------
# process-wide content-keyed engine cache
# ---------------------------------------------------------------------------

_ENGINES = {}
_MAX_ENGINES = 64


def vector_content_key(descriptor, lpsu_cfg, gpp_cfg):
    """Everything the compiled engine's static tables depend on (MIV
    increments resolve per invocation, so they stay out of the key)."""
    from .fusion import _lpsu_content_key
    return (_lpsu_content_key(descriptor), repr(lpsu_cfg),
            repr(gpp_cfg.latencies), gpp_cfg.cache.hit_latency,
            descriptor.idx_reg,
            tuple(sorted(m.reg for m in descriptor.mivt.values())))


def vector_engine(descriptor, lpsu_cfg, gpp_cfg):
    """Shared :class:`VectorEngine` for this loop, or None when the
    body is statically ineligible (the LPSU then runs exactly as on
    the turbo tier)."""
    if not HAS_NUMPY:
        return None
    key = vector_content_key(descriptor, lpsu_cfg, gpp_cfg)
    eng = _ENGINES.get(key)
    if eng is None:
        if len(_ENGINES) >= _MAX_ENGINES:
            _ENGINES.clear()
        eng = _ENGINES[key] = VectorEngine(descriptor, lpsu_cfg,
                                           gpp_cfg)
    return eng if eng.usable else None


def clear():
    """Drop every cached engine (test isolation / ``clear_cache``)."""
    _ENGINES.clear()
