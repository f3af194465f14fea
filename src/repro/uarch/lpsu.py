"""Cycle-level model of the Loop-Pattern Specialization Unit (Fig 4).

The LPSU is modelled as a cycle-stepped collection of decoupled
in-order lanes coordinated by a lane-management unit (LMU):

* **scan phase** — body instructions stream into the per-lane
  instruction buffers (one per cycle) while the LMU renames registers,
  detects CIRs and builds the MIVT (see
  :mod:`repro.uarch.descriptor`);
* **specialized execution phase** — idle lanes pull iteration indices
  (the IDQ); each lane executes its iteration in order, one
  instruction per cycle, stalling on RAW hazards, shared-memory-port
  and shared-LLFU structural hazards, cross-iteration-buffer (CIB)
  waits for ``xloop.or``, and LSQ hazards for
  ``xloop.{om,orm,ua}``;
* **memory disambiguation** — speculative lanes buffer stores in a
  per-lane LSQ and record load addresses; committed stores broadcast
  their addresses and squash any younger iteration that already read
  the same word; iterations commit strictly in index order;
* **dynamic bounds** — writes to the bound register are forwarded to
  the LMU, which grows the iteration space (``xloop.*.db``);
* **vertical multithreading** (Fig 9 ``+t``) — two iteration contexts
  per lane, round-robin issue, for unordered patterns only.

Functional execution is *real*: lanes run the same semantics as the
golden model against the shared memory, so specialized execution
produces (and tests verify) architecturally correct results, including
squash-and-replay.

The reference (``fast=False``, the ``interp`` backend) visits every
context every cycle and re-polls every stall.  The fast path keeps that
schedule bit for bit with less host work: the cycle loop jumps over
cycles in which no context can act and stops visiting idle contexts
once the iteration space is exhausted; a stalled context *parks* until
the event that ends its stall -- the publish of the CIB channel it
waits on, the commit token reaching its iteration (commit order, a full
LSQ or an overlap with its own buffered stores), the earliest LLFU
freeing -- and the polls it skips are charged to the stall's counter
when it wakes, is squashed or is discarded; and the compiled engine
(:mod:`repro.sim.fusion`) lets a context that cannot be squashed run
ahead through its lane-private ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..isa.instructions import FU, Fmt
from ..sim.functional import LivelockError, decode_instr, execute
from ..sim.memory import MASK32, to_s32
from .descriptor import LoopDescriptor
from .params import LPSUConfig

#: "asleep" sentinel for ready_at -- far beyond any reachable cycle
_FAR = 1 << 60

_LOAD_SIZE = {"lw": 4, "lh": 2, "lhu": 2, "lb": 1, "lbu": 1}
_STORE_SIZE = {"sw": 4, "sh": 2, "sb": 1}
_SIGNED_LOAD = {"lw": True, "lh": True, "lb": True, "lhu": False,
                "lbu": False}


@dataclass
class LPSUStats:
    """Specialized-execution statistics (feeds Fig 6 and Table II)."""

    scan_cycles: int = 0
    exec_cycles: int = 0
    finish_cycles: int = 0
    iterations: int = 0
    instrs: int = 0
    squashes: int = 0
    squashed_instrs: int = 0
    squash_cycles: int = 0     # lane-cycles of work thrown away
    # lane-cycle breakdown (Fig 6 categories)
    busy: int = 0
    stall_raw: int = 0
    stall_memport: int = 0
    stall_llfu: int = 0
    stall_cib: int = 0
    stall_lsq: int = 0
    stall_commit: int = 0
    stall_branch: int = 0
    idle: int = 0

    @property
    def cycles(self):
        return self.scan_cycles + self.exec_cycles + self.finish_cycles

    def breakdown(self):
        return {
            "busy": self.busy, "raw": self.stall_raw,
            "memport": self.stall_memport, "llfu": self.stall_llfu,
            "cib": self.stall_cib, "lsq": self.stall_lsq,
            "commit": self.stall_commit, "branch": self.stall_branch,
            "squash": self.squash_cycles, "idle": self.idle,
        }


@dataclass
class LPSUResult:
    """Outcome of one specialized xloop execution."""

    cycles: int
    iterations: int
    final_idx: int
    final_bound: int
    cir_values: Dict[int, int]
    exited: bool                # a .de iteration terminated the loop
    miv_values: Dict[int, int]  # MIV registers advanced past the last
    #                             executed iteration (needed when the
    #                             GPP resumes the loop traditionally)
    stats: LPSUStats
    completed: bool            # False when stopped early (profiling)
    exit_regs: Dict[int, int] = field(default_factory=dict)
    #                           # exiting lane's register copy-back


def _ctx_order(ctx):
    """Per-cycle issue order: active contexts first, oldest iteration
    (smallest k) first; ``sorted`` is stable so ties keep lane order."""
    return (not ctx.active, ctx.k)


class _StoreEntry:
    __slots__ = ("addr", "size", "value")

    def __init__(self, addr, size, value):
        self.addr = addr
        self.size = size
        self.value = value


class _Context:
    """One iteration context (a lane has 1, or 2 with multithreading)."""

    __slots__ = ("lane_id", "regs", "ready", "k", "pc_index", "ready_at",
                 "stall_kind", "iter_start", "attempt_instrs",
                 "received_cirs", "cir_written", "store_buf",
                 "load_words", "bypass", "committing", "active",
                 "exit_flag", "sleep_from")

    def __init__(self, lane_id, live_in_regs):
        self.lane_id = lane_id
        self.regs = list(live_in_regs)
        self.ready = [0] * 32      # per-lane register scoreboard
        self.k = -1
        self.pc_index = 0
        self.ready_at = 0
        # the LPSUStats counter a parked wait is charged to, or None
        # when the context is not parked (see LPSU._sleep)
        self.stall_kind = None
        self.iter_start = 0
        self.attempt_instrs = 0
        self.received_cirs = {}
        self.cir_written = set()
        self.store_buf: List[_StoreEntry] = []
        # word address -> iteration index whose value the load
        # consumed (-1 when it came from memory); drives precise
        # violation detection under inter-lane forwarding
        self.load_words = {}
        self.bypass = False
        self.committing = False
        self.active = False
        self.exit_flag = False
        self.sleep_from = 0   # first poll a parked context skipped

    @property
    def lsq_store_count(self):
        return len(self.store_buf)


class LPSU:
    """One specialized execution of one xloop.

    Parameters
    ----------
    descriptor
        Scan-phase analysis of the loop (:func:`scan_loop`).
    live_in_regs
        GPP register file when the xloop was reached.
    mem
        The shared architectural memory (updated in place).
    cache
        Shared L1 data cache timing model.
    config
        :class:`LPSUConfig`.
    events
        Optional :class:`~repro.energy.events.EnergyEvents` to count into.
    """

    def __init__(self, descriptor, live_in_regs, mem, cache, config=None,
                 events=None, trace=None, decoded_body=None,
                 monitor=None, fast=True, engine=None):
        self.d = descriptor
        self.cfg = config or LPSUConfig()
        self.mem = mem
        self.cache = cache
        self.events = events
        self.trace = trace   # optional LaneTrace (repro.uarch.tracelog)
        # optional InvariantMonitor (repro.verify): a pure observer fed
        # through the same style of hook points as the tracer, so a
        # monitored run is cycle/energy-identical to an unmonitored one
        self.monitor = monitor
        # fast path: same schedule, less per-cycle bookkeeping.  Any
        # observer that must see every individual step disables it.
        self.fast = bool(fast) and trace is None and monitor is None
        # optional compiled fused-lane step factory
        # (repro.sim.fusion.lpsu_engine); bound by run()
        self._engine = engine
        self.lat = None  # set by run() from the GPP latency table

        self.live_in = list(live_in_regs)
        self.start_idx = to_s32(live_in_regs[descriptor.idx_reg])
        self.bound = to_s32(live_in_regs[descriptor.bound_reg])
        # conflict squashing is a *data*-pattern property; control
        # speculation (.de) additionally buffers every iteration's
        # stores so an older iteration's exit can discard younger work
        self.squash_on_conflict = \
            descriptor.kind.data.needs_memory_disambiguation
        self.control_speculative = descriptor.kind.control.value == "de"
        self.needs_lsq = (self.squash_on_conflict
                          or self.control_speculative)
        self.ordered_regs = descriptor.kind.data.ordered_through_registers
        self.dynamic_bound = descriptor.kind.control.value == "db"
        self._exited_at = None
        self._exit_regs = {}

        threads = self.cfg.threads_per_lane
        if self.needs_lsq or self.ordered_regs:
            # paper IV-F: multithreading disabled for or/om/orm (and ua,
            # which shares the om mechanisms)
            threads = 1
        self.contexts = [
            _Context(lane, self.live_in)
            for lane in range(self.cfg.lanes) for _ in range(threads)]

        # CIB channels: (cir_reg, iteration k) -> (cycle, value)
        self._cib: Dict[tuple, tuple] = {}
        # pre-decoded body handlers (lane "instruction buffer"): one
        # specialized closure per slot, indexed by pc_index
        if decoded_body is None:
            decoded_body = [
                decode_instr(ins, descriptor.body_start_pc + 4 * i)
                for i, ins in enumerate(descriptor.body)]
        self._body_exec = decoded_body
        self._body_n = descriptor.body_len
        self._body_base = descriptor.body_start_pc
        self._meta = None          # built by run() (needs latencies)
        self._exec_counts = [0] * self._body_n
        self.stats = LPSUStats()
        self._next_k = 0
        self._commit_next = 0
        self._llfu_free = [0] * self.cfg.llfus
        self._mem_grants = 0
        self._cycle = 0
        self._max_iters = None
        self._active_count = 0
        self._order = list(self.contexts)
        self._order_dirty = True
        # issue-slot superblock fusion needs a single context per lane
        # (another thread on the lane could claim the slot mid-run)
        self._fuse = self.fast and len(self.contexts) == self.cfg.lanes
        self._fusable = None       # built by run() alongside _meta
        # parked contexts, by the event that ends their wait: the
        # commit token reaching iteration k (commit and LSQ waits), and
        # the publish of CIB channel (cir, k)
        self._commit_waiters = {}
        self._cib_waiters = {}
        # which stalls park instead of re-polling; set by run()
        self._park_lsq = self._park_llfu = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def _build_meta(self, latencies):
        """Static per-slot facts, resolved once so the per-cycle step
        does table lookups instead of property chains: the handler,
        operand registers, issue class (0=ALU 1=mem 2=LLFU), latency /
        LLFU occupancy, and the CIR/bound bookkeeping flags."""
        d = self.d
        cirs = d.cirs
        ordered = self.ordered_regs
        meta = []
        for i, ins in enumerate(d.body):
            op = ins.op
            srcs = ins.src_regs()
            dst = ins.dst_reg()
            if op.is_mem and not op.is_fence:
                kind, latency, occupy = 1, 0, 0
            elif op.is_llfu:
                kind = 2
                latency = latencies.for_fu(op.fu)
                occupy = latency if op.fu in (FU.DIV, FU.FDIV) else 1
            else:
                kind, latency, occupy = 0, 1, 0
            has_cir_srcs = ordered and any(s in cirs for s in srcs)
            meta.append((
                self._body_exec[i], srcs, dst, kind, latency, occupy,
                op.is_xbreak,
                op.is_branch or op.is_jump or op.is_xloop,
                has_cir_srcs,
                ordered and dst is not None and dst in cirs,
                ins.last_cir_write,
                self.dynamic_bound and dst == d.bound_reg,
                ins))
        return meta

    def _apply_exec_counts(self, ev):
        """Fold the deferred per-slot execution counts into the energy
        event totals (order-independent integer sums, so this matches
        per-instruction counting exactly)."""
        d = self.d
        for i, n in enumerate(self._exec_counts):
            if not n:
                continue
            ins = d.body[i]
            op = ins.op
            ev.ib_read += n
            reads = 0
            for s in ins.src_regs():
                if s:
                    reads += 1
            ev.rf_read += reads * n
            if ins.dst_reg() is not None:
                ev.rf_write += n
            fu = op.fu
            if fu == FU.MUL:
                ev.mul_op += n
            elif fu == FU.DIV:
                ev.div_op += n
            elif fu == FU.FPU:
                ev.fpu_op += n
            elif fu == FU.FDIV:
                ev.fdiv_op += n
            elif not op.is_mem:
                ev.alu_op += n

    def run(self, latencies, max_iters=None, max_cycles=None):
        """Execute the loop; returns an :class:`LPSUResult`.

        *max_cycles* bounds the specialized execution phase: exceeding
        it raises :class:`~repro.sim.functional.LivelockError` (a
        malformed or fault-injected loop can otherwise stall forever
        on a CIB/commit wait that never resolves).
        """
        self.lat = latencies
        self._max_iters = max_iters
        self._meta = self._build_meta(latencies)
        # slots a superblock may *continue* through: single-cycle
        # compute with no CIR/bound side effects (srcs/dst are then
        # context-private, so batched execution is schedule-identical)
        self._fusable = [m[3] == 0 and not m[8] and not m[9]
                         and not m[11] for m in self._meta]
        d, cfg, ev = self.d, self.cfg, self.events

        # -- scan phase --------------------------------------------------
        self.stats.scan_cycles = cfg.scan_overhead + d.body_len
        if ev is not None:
            ev.ib_write += d.body_len * cfg.lanes
            ev.rename += d.body_len
            ev.rf_read += d.live_in_reads
            ev.rf_write += d.live_in_reads * cfg.lanes

        # seed CIB channels for the first specialized iteration
        for cir in d.cirs:
            self._cib[(cir, 0)] = (0, self.live_in[cir])

        # -- specialized execution phase -----------------------------------
        cycle = 0
        fast = self.fast
        # parking: on the fast path a stalled context sleeps until the
        # event that ends its stall instead of re-polling every cycle,
        # its skipped polls charged when it wakes (or is squashed or
        # discarded).  CIB and commit-order waits always park; an LSQ
        # wait ends at the commit token unless another lane's store
        # buffer can forward into it
        self._park_lsq = fast and not cfg.inter_lane_forwarding
        # an LLFU wait ends when the earliest unit frees, unless another
        # context of the lane wants the issue slot or a squash cuts the
        # wait short
        self._park_llfu = self._fuse and not self.needs_lsq
        guard = 0
        contexts = self.contexts
        # compiled fused-lane engine: a generated drop-in for _step
        # with this loop's statics folded in and this design point
        # bound at make time.  Every non-fast / observed configuration
        # keeps the interpreted stepper.
        s = self._step
        if self._engine is not None and fast and ev is not None:
            s = self._engine(self)
        # with one context per lane every lane_id is unique, so the
        # issue-slot dedupe can never fire; skip its bookkeeping
        multithreaded = len(contexts) > cfg.lanes
        n_ctx = len(contexts)
        # the iteration space is exhausted for good (a dynamic bound can
        # still grow): idle contexts are no longer visited
        exhausted = False
        while True:
            if not self._active_count and not self._more_iterations():
                break
            self._mem_grants = 0
            # issue order depends only on (active, k), which change
            # solely at iteration begin/retire/discard — re-sort only
            # after one of those happened
            if self._order_dirty:
                order = sorted(contexts, key=_ctx_order)
                if exhausted:
                    order = [ctx for ctx in order if ctx.active]
                self._order = order
                self._order_dirty = False
            order = self._order
            # the earliest wake-up among active contexts after this
            # cycle.  A context's step only ever wakes, squashes or
            # discards younger iterations, which issue after it, so a
            # context's wake-up is final once its turn has passed.
            nxt = _FAR
            if multithreaded:
                issued_lanes = set()
                for ctx in order:
                    if ctx.lane_id in issued_lanes:
                        continue
                    if s(ctx, cycle):
                        issued_lanes.add(ctx.lane_id)
                for ctx in contexts:
                    if ctx.active and ctx.ready_at < nxt:
                        nxt = ctx.ready_at
            else:
                for ctx in order:
                    if ctx.active:
                        at = ctx.ready_at
                        if at > cycle:
                            if at < nxt:
                                nxt = at
                            continue
                    s(ctx, cycle)
                    if ctx.active and ctx.ready_at < nxt:
                        nxt = ctx.ready_at
            cycle += 1
            guard += 1
            if not fast:
                jump = False
            elif exhausted or self._active_count == n_ctx:
                jump = True
            elif self._more_iterations():
                jump = False   # an idle context begins one next cycle
            else:
                jump = True
                if not self.dynamic_bound:
                    exhausted = True
                    self._order_dirty = True
            if jump and cycle < nxt < _FAR:
                # event-driven scheduling: no context can change state
                # before the earliest wake-up, so jump straight to it
                # (the skipped cycles touch no stat -- idle time
                # derives from totals below).  Every context that was
                # denied this cycle still has ready_at <= cycle, which
                # keeps the jump a no-op whenever anything could issue.
                cycle = nxt
            if max_cycles is not None and cycle > max_cycles:
                raise LivelockError(
                    "LPSU exceeded %d cycles (livelock?)" % max_cycles)
            if guard > 200_000_000:  # pragma: no cover
                raise LivelockError("LPSU livelock (step guard)")
        self.stats.exec_cycles = cycle
        self.stats.finish_cycles = cfg.finish_overhead
        if ev is not None:
            self._apply_exec_counts(ev)

        # idle lane-cycles = lane-cycles not otherwise attributed
        total_lane_cycles = cycle * len(self.contexts)
        attributed = (self.stats.busy + self.stats.stall_raw
                      + self.stats.stall_memport + self.stats.stall_llfu
                      + self.stats.stall_cib + self.stats.stall_lsq
                      + self.stats.stall_commit + self.stats.stall_branch)
        self.stats.idle = max(0, total_lane_cycles - attributed)

        iterations = self.stats.iterations
        if self._exited_at is not None:
            final_idx = self.start_idx + self._exited_at
            completed = True
        else:
            final_idx = self.start_idx + self._next_k
            completed = final_idx >= self.bound
        last_k = (self._exited_at + 1 if self._exited_at is not None
                  else self._next_k)
        cir_values = {cir: self._cib[(cir, last_k)][1]
                      for cir in d.cirs
                      if (cir, last_k) in self._cib}
        miv_values = {
            miv.reg: (self.live_in[miv.reg]
                      + miv.increment * last_k) & MASK32
            for miv in d.mivt.values()}
        return LPSUResult(
            cycles=self.stats.cycles, iterations=iterations,
            final_idx=final_idx, final_bound=self.bound,
            cir_values=cir_values, miv_values=miv_values,
            exited=self._exited_at is not None,
            exit_regs=dict(self._exit_regs),
            stats=self.stats, completed=completed)

    # ------------------------------------------------------------------
    # per-cycle machinery
    # ------------------------------------------------------------------

    def _more_iterations(self):
        if self._exited_at is not None:
            return False
        if (self._max_iters is not None
                and self._next_k >= self._max_iters):
            return False
        return self.start_idx + self._next_k < self.bound

    def _discard_younger(self, k, cycle):
        for other in self.contexts:
            if not other.active or other.k <= k:
                continue
            if other.stall_kind is not None:
                self._unpark(other, cycle)
            if self.monitor is not None:
                self.monitor.on_discard(other.lane_id, other.k, cycle)
            self.stats.squashes += 1
            self.stats.squashed_instrs += other.attempt_instrs
            self.stats.squash_cycles += max(0, cycle - other.iter_start)
            if self.events is not None:
                self.events.squashed_instr += other.attempt_instrs
            other.active = False
            self._active_count -= 1
            self._order_dirty = True
            other.committing = False
            other.attempt_instrs = 0
            other.store_buf.clear()
            other.load_words.clear()
            other.received_cirs.clear()
            other.cir_written.clear()
            other.exit_flag = False
            other.bypass = False

    def _step(self, ctx, cycle):
        """Advance one context by at most one issue slot.  Returns True
        when the context consumed its lane's issue slot this cycle."""
        if not ctx.active:
            if self._more_iterations():
                self._begin_iteration(ctx, cycle)
            else:
                return False
        if ctx.ready_at > cycle:
            return False

        if ctx.committing:
            return self._advance_commit(ctx, cycle)

        # mid-iteration promotion: drain buffered stores once oldest
        if (self.needs_lsq and ctx.store_buf and not ctx.bypass
                and ctx.k == self._commit_next):
            return self._drain_one(ctx, cycle, promote=True)

        pc_index = ctx.pc_index
        if pc_index >= self._body_n:
            return self._end_iteration(ctx, cycle)

        (handler, srcs, dst, kind, latency, _occupy, is_xbreak, branchy,
         has_cir_srcs, publishes_cir, last_cir, bound_dst,
         instr) = self._meta[pc_index]

        # CIR delivery: the first read of a CIR waits on the CIB
        if has_cir_srcs and not self._deliver_cirs(ctx, instr, cycle):
            return False

        # RAW hazards (per-lane scoreboard)
        ready = ctx.ready
        avail = cycle
        for s in srcs:
            t = ready[s]
            if t > avail:
                avail = t
        if avail > cycle:
            self._stall(ctx, cycle, avail, "raw")
            return False

        if kind == 1:
            return self._step_mem(ctx, instr, cycle)

        # LLFU structural hazard (shared with the GPP, Fig 4)
        if kind == 2:
            unit = self._llfu_acquire(cycle, _occupy)
            if unit is None:
                self._stall_one(ctx, cycle, "llfu")
                return True  # occupied the issue slot attempting

        next_pc, _addr, taken = handler(ctx.regs, self.mem)
        self._exec_counts[pc_index] += 1
        ctx.attempt_instrs += 1

        if is_xbreak:
            ctx.exit_flag = True
        if dst is not None:
            ready[dst] = cycle + latency
        i = (next_pc - self._body_base) >> 2
        c = cycle + 1
        br_stall = 0
        if branchy and taken:
            br_stall = self.cfg.branch_penalty
            c += br_stall
        self.stats.busy += 1
        if self.trace is not None:
            self.trace.mark(ctx, cycle, "E")

        # CIB publish: last CIR write (or dynamic-bound notification)
        if publishes_cir:
            ctx.cir_written.add(dst)
            if last_cir:
                self._publish_cir(ctx, dst, cycle + latency)
        if bound_dst:
            new_bound = to_s32(ctx.regs[dst])
            if new_bound > self.bound:
                self.bound = new_bound

        if (self._fuse and kind == 0 and 0 <= i < self._body_n
                and self._fusable[i]
                and (not self.needs_lsq or ctx.k == self._commit_next)):
            # superblock fusion: keep executing single-cycle compute
            # ops within this issue slot for as long as the per-cycle
            # loop could not have scheduled anything between them.
            # Fusable ops touch only context-private state (regs and
            # scoreboard) plus order-independent totals, and this
            # context cannot be squashed mid-batch: it is either in an
            # unordered pattern or it is the oldest iteration.
            meta = self._meta
            mt = meta[i]
            avail = c
            for s in mt[1]:
                t = ready[s]
                if t > avail:
                    avail = t
            if avail <= c:
                fusable = self._fusable
                counts = self._exec_counts
                regs = ctx.regs
                mem = self.mem
                body_n = self._body_n
                base = self._body_base
                pen = self.cfg.branch_penalty
                n = 1
                while True:
                    next_pc, _addr, taken = mt[0](regs, mem)
                    counts[i] += 1
                    if mt[6]:
                        ctx.exit_flag = True
                    d2 = mt[2]
                    if d2 is not None:
                        ready[d2] = c + 1
                    c += 1
                    if mt[7] and taken:
                        br_stall += pen
                        c += pen
                    i = (next_pc - base) >> 2
                    n += 1
                    if not (0 <= i < body_n and fusable[i] and n < 65536):
                        break
                    mt = meta[i]
                    avail = c
                    for s in mt[1]:
                        t = ready[s]
                        if t > avail:
                            avail = t
                    if avail > c:
                        break   # RAW: the per-cycle loop takes over
                ctx.attempt_instrs += n - 1
                self.stats.busy += n - 1
                self.stats.stall_branch += br_stall
                ctx.pc_index = i
                ctx.ready_at = c
                return True
        self.stats.stall_branch += br_stall
        ctx.pc_index = i
        ctx.ready_at = c
        return True

    # -- memory operations -------------------------------------------------

    def _deliver_cirs(self, ctx, instr, cycle):
        """First read of each CIR waits for the previous iteration's
        value in the CIB.  Returns False when the context must stall."""
        d = self.d
        for s in instr.src_regs():
            if s in d.cirs and s not in ctx.received_cirs:
                chan = self._cib.get((s, ctx.k))
                if chan is None and self.fast:
                    self._park_cib(ctx, cycle, s)
                    return False
                if chan is None or chan[0] > cycle:
                    self._stall(ctx, cycle,
                                chan[0] if chan else cycle + 1, "cib")
                    return False
                ctx.regs[s] = chan[1]
                ctx.received_cirs[s] = chan[1]
                ctx.ready[s] = cycle
                if self.events is not None:
                    self.events.cib_read += 1
                    self.events.rf_write += 1
                if self.monitor is not None:
                    self.monitor.on_cib_consume(ctx.lane_id, ctx.k, s,
                                                chan[1], cycle)
        return True

    def _publish_cir(self, ctx, cir, avail_cycle):
        self._cib[(cir, ctx.k + 1)] = (avail_cycle, ctx.regs[cir])
        if self.events is not None:
            self.events.cib_write += 1
        if self.monitor is not None:
            self.monitor.on_cib_publish(ctx.lane_id, ctx.k, cir,
                                        ctx.regs[cir], avail_cycle,
                                        avail_cycle)
        if self._cib_waiters:
            self._wake_cib(cir, ctx.k + 1, avail_cycle)

    def _step_mem(self, ctx, instr, cycle):
        op = instr.op
        regs = ctx.regs
        d = self.d

        if self.ordered_regs and not self._deliver_cirs(ctx, instr,
                                                        cycle):
            return False
        speculative = (self.needs_lsq and not ctx.bypass
                       and ctx.k != self._commit_next)
        if self.needs_lsq and not speculative:
            ctx.bypass = True  # oldest iteration: direct memory access

        addr = (regs[instr.rs1] + instr.imm) & MASK32 \
            if op.fmt != Fmt.AMO else regs[instr.rs1]

        if op.is_amo and speculative:
            # AMOs cannot be buffered; wait until non-speculative
            self._stall_one(ctx, cycle, "commit")
            return True

        if speculative and op.is_store:
            if ctx.lsq_store_count >= self.cfg.lsq_stores:
                self._stall_one(ctx, cycle, "lsq")
                return True
        if speculative and op.is_load and self.squash_on_conflict:
            if len(ctx.load_words) >= self.cfg.lsq_loads:
                self._stall_one(ctx, cycle, "lsq")
                return True

        forwarded = None
        forward_source = -1
        if speculative and op.is_load:
            size = _LOAD_SIZE[op.mnemonic]
            forwarded = self._forward(ctx, addr, size)
            if forwarded == "overlap":
                self._stall_one(ctx, cycle, "lsq")
                return True
            if forwarded is None and self.cfg.inter_lane_forwarding:
                forwarded, forward_source = self._forward_across(
                    ctx, addr, size)
                if forwarded == "overlap":
                    self._stall_one(ctx, cycle, "lsq")
                    return True

        if forwarded is None:
            # needs the shared memory port
            if self._mem_grants >= self.cfg.mem_ports:
                self._stall_one(ctx, cycle, "memport")
                return True
            self._mem_grants += 1
            access = self.cache.access(addr, is_store=op.is_store)
            if self.events is not None:
                self.events.dc_access += 1
                if access > self.cache.config.hit_latency:
                    self.events.dc_miss += 1
        else:
            access = 1  # store->load forwarding inside the LSQ

        ready = ctx.ready
        result_time = cycle + 1
        if op.is_load:
            size = _LOAD_SIZE[op.mnemonic]
            if forwarded is not None and forwarded != "overlap":
                value = forwarded
                if forward_source >= 0 and self.squash_on_conflict:
                    # keep the *oldest* source seen for this word: an
                    # earlier read served by memory (-1) or an older
                    # lane must stay squashable by that source's later
                    # commits -- overwriting with a younger source
                    # would hide the earlier read from the broadcast
                    word = addr & ~3
                    prev = ctx.load_words.get(word)
                    ctx.load_words[word] = (forward_source
                                            if prev is None
                                            else min(prev, forward_source))
            else:
                value = self.mem.load(addr, size, _SIGNED_LOAD[op.mnemonic])
                if speculative and self.squash_on_conflict:
                    ctx.load_words[addr & ~3] = -1
                    if self.events is not None:
                        self.events.lsq_write += 1
            if speculative and self.events is not None:
                self.events.lsq_search += 1
            if instr.rd:
                regs[instr.rd] = value
                ready[instr.rd] = cycle + access
                result_time = cycle + access
        elif op.is_store:
            size = _STORE_SIZE[op.mnemonic]
            value = regs[instr.rs2]
            if speculative:
                ctx.store_buf.append(_StoreEntry(addr, size, value))
                if self.events is not None:
                    self.events.lsq_write += 1
                if self.cfg.inter_lane_forwarding:
                    self._invalidate_stale_forwards(ctx, addr, cycle)
            else:
                self.mem.store(addr, size, value)
                if self.monitor is not None:
                    self.monitor.on_commit_store(
                        ctx.lane_id, ctx.k, "st", addr, size, value,
                        cycle)
                if self.cfg.inter_lane_forwarding:
                    self._invalidate_stale_forwards(ctx, addr, cycle)
                if self.squash_on_conflict:
                    self._broadcast(addr, ctx, cycle)
        else:  # AMO, non-speculative by construction here
            if self.monitor is not None:
                self.monitor.on_commit_store(
                    ctx.lane_id, ctx.k, "amo", addr, 4,
                    regs[instr.rs2], cycle)
            old = self.mem.amo(op.mnemonic, addr, regs[instr.rs2])
            if instr.rd:
                regs[instr.rd] = old
                ready[instr.rd] = cycle + self.lat.amo
                result_time = cycle + self.lat.amo
            if self.cfg.inter_lane_forwarding:
                self._invalidate_stale_forwards(ctx, addr, cycle)
            if self.squash_on_conflict:
                self._broadcast(addr, ctx, cycle)
            if self.dynamic_bound and instr.rd == d.bound_reg:
                new_bound = to_s32(regs[instr.rd])
                if new_bound > self.bound:
                    self.bound = new_bound

        dst = instr.dst_reg()
        if self.ordered_regs and dst is not None and dst in d.cirs:
            ctx.cir_written.add(dst)
            if instr.last_cir_write:
                self._publish_cir(ctx, dst, result_time)

        self._exec_counts[ctx.pc_index] += 1
        ctx.attempt_instrs += 1
        ctx.pc_index += 1
        ctx.ready_at = cycle + 1
        self.stats.busy += 1
        if self.trace is not None:
            self.trace.mark(ctx, cycle, "M")

        # a plain load of the bound register also grows a dynamic bound
        if (self.dynamic_bound and op.is_load
                and instr.rd == d.bound_reg):
            new_bound = to_s32(regs[instr.rd])
            if new_bound > self.bound:
                self.bound = new_bound
        return True

    def _forward(self, ctx, addr, size):
        """Search the context's store buffer newest-first."""
        end = addr + size
        for entry in reversed(ctx.store_buf):
            if entry.addr == addr and entry.size == size:
                return entry.value & ((1 << (8 * size)) - 1) \
                    if size < 4 else entry.value
            if entry.addr < end and addr < entry.addr + entry.size:
                return "overlap"
        return None

    def _forward_across(self, ctx, addr, size):
        """Inter-lane forwarding: search *older* in-flight iterations'
        store buffers, youngest-first (paper II-D's aggressive
        variant).  Returns (value, source_k) or (None, -1)."""
        older = sorted((o for o in self.contexts
                        if o is not ctx and o.active and o.k < ctx.k),
                       key=lambda o: -o.k)
        for other in older:
            if self.events is not None:
                self.events.lsq_search += 1
            hit = self._forward(other, addr, size)
            if hit == "overlap":
                return "overlap", -1
            if hit is not None:
                return hit, other.k
        return None, -1

    def _invalidate_stale_forwards(self, ctx, addr, cycle):
        """A new store by *ctx* to a word some younger iteration already
        forwarded out of ctx's store buffer leaves that iteration holding
        an intermediate value -- serial execution would see ctx's final
        store.  The commit-time broadcast deliberately ignores readers
        whose recorded source is the committing iteration itself (that is
        what makes forwarding pay off), so the repeated-store case must
        squash here, at execute time."""
        word = addr & ~3
        for other in self.contexts:
            if (other is not ctx and other.active and other.k > ctx.k
                    and other.load_words.get(word) == ctx.k):
                self._squash(other, cycle)

    # -- commit / squash machinery --------------------------------------------

    def _end_iteration(self, ctx, cycle):
        d = self.d
        # pass through CIRs whose last-CIR-write was dynamically skipped
        # (paper II-D: "the lane will copy the corresponding CIR value
        # to the CIB" at the end of the iteration)
        if self.ordered_regs:
            for cir in d.cirs:
                if (cir, ctx.k + 1) in self._cib:
                    continue
                if cir in ctx.received_cirs or cir in ctx.cir_written:
                    self._publish_cir(ctx, cir, cycle)
                    continue
                # never touched this iteration: forward the incoming
                # value (which must itself have arrived)
                chan = self._cib.get((cir, ctx.k))
                if chan is None and self.fast:
                    self._park_cib(ctx, cycle, cir)
                    return False
                if chan is None or chan[0] > cycle:
                    self._stall(ctx, cycle,
                                chan[0] if chan else cycle + 1, "cib")
                    return False
                self._cib[(cir, ctx.k + 1)] = (cycle, chan[1])
                if self.events is not None:
                    self.events.cib_write += 1
                if self.monitor is not None:
                    self.monitor.on_cib_publish(ctx.lane_id, ctx.k, cir,
                                                chan[1], cycle, cycle)
                if self._cib_waiters:
                    self._wake_cib(cir, ctx.k + 1, cycle)
        if self.needs_lsq:
            ctx.committing = True
            return self._advance_commit(ctx, cycle)
        self._retire_iteration(ctx, cycle)
        return False

    def _advance_commit(self, ctx, cycle):
        if ctx.k != self._commit_next:
            self._stall_one(ctx, cycle, "commit")
            return False
        if ctx.store_buf:
            return self._drain_one(ctx, cycle, promote=False)
        self._retire_iteration(ctx, cycle)
        return False

    def _drain_one(self, ctx, cycle, promote):
        """Write one buffered store to memory (needs the memory port)."""
        if self._mem_grants >= self.cfg.mem_ports:
            self._stall_one(ctx, cycle, "memport")
            return True
        self._mem_grants += 1
        entry = ctx.store_buf.pop(0)
        self.cache.access(entry.addr, is_store=True)
        self.mem.store(entry.addr, entry.size, entry.value)
        if self.events is not None:
            self.events.dc_access += 1
        if self.monitor is not None:
            self.monitor.on_commit_store(
                ctx.lane_id, ctx.k, "st", entry.addr, entry.size,
                entry.value, cycle)
        if self.squash_on_conflict:
            self._broadcast(entry.addr, ctx, cycle)
        ctx.ready_at = cycle + 1
        self.stats.busy += 1
        if self.trace is not None:
            self.trace.mark(ctx, cycle, "D")
        if promote and not ctx.store_buf:
            ctx.bypass = True
            ctx.load_words.clear()
        return True

    def _retire_iteration(self, ctx, cycle):
        if self.monitor is not None:
            self.monitor.on_retire(ctx.lane_id, ctx.k, cycle, ctx.regs)
        self.stats.iterations += 1
        self.stats.instrs += ctx.attempt_instrs
        if self.needs_lsq:
            self._commit_next += 1
            if self._commit_waiters:
                w = self._commit_waiters.pop(self._commit_next, None)
                if w is not None:
                    # the younger waiter is visited later this cycle
                    self._wake(w, cycle)
        if ctx.exit_flag:
            # data-dependent exit: this (now architectural) iteration
            # terminates the loop; discard younger speculative work and
            # snapshot its registers for the LMU copy-back
            self._exited_at = ctx.k
            self._exit_regs = {r: ctx.regs[r]
                               for r in self.d.exit_copy_regs}
            self._discard_younger(ctx.k, cycle)
            ctx.exit_flag = False
        ctx.active = False
        self._active_count -= 1
        self._order_dirty = True
        ctx.committing = False
        ctx.attempt_instrs = 0
        ctx.store_buf.clear()
        ctx.load_words.clear()
        ctx.received_cirs.clear()
        ctx.cir_written.clear()
        ctx.bypass = False
        ctx.ready_at = cycle + 1

    def _broadcast(self, addr, src_ctx, cycle):
        """Committed-store address broadcast: squash younger readers."""
        word = addr & ~3
        if self.monitor is not None:
            self.monitor.on_broadcast(src_ctx.lane_id, src_ctx.k, word,
                                      cycle)
        for other in self.contexts:
            if other is src_ctx or not other.active:
                continue
            if (other.k > src_ctx.k
                    and other.load_words.get(word, src_ctx.k)
                    < src_ctx.k):
                self._squash(other, cycle)
            if self.events is not None and other.k > src_ctx.k:
                self.events.lsq_search += 1

    def _squash(self, ctx, cycle):
        if ctx.stall_kind is not None:
            self._unpark(ctx, cycle)
        if self.monitor is not None:
            self.monitor.on_squash(ctx.lane_id, ctx.k, cycle,
                                   len(ctx.store_buf))
        self.stats.squashes += 1
        self.stats.squashed_instrs += ctx.attempt_instrs
        self.stats.squash_cycles += max(0, cycle - ctx.iter_start)
        if self.events is not None:
            self.events.squashed_instr += ctx.attempt_instrs
        # cascade: younger iterations that forwarded values out of this
        # iteration's (now discarded) store buffer consumed wrong data
        if self.cfg.inter_lane_forwarding:
            for other in self.contexts:
                if (other is not ctx and other.active
                        and other.k > ctx.k
                        and ctx.k in other.load_words.values()):
                    self._squash(other, cycle)
        if self.trace is not None:
            self.trace.mark(ctx, cycle, "X")
        ctx.attempt_instrs = 0
        ctx.exit_flag = False
        ctx.store_buf.clear()
        ctx.load_words.clear()
        ctx.cir_written.clear()
        ctx.pc_index = 0
        ctx.committing = False
        ctx.bypass = False
        ctx.ready_at = cycle + 1
        # restart state: index + MIVs reset; received CIRs reapplied
        self._init_iter_regs(ctx)
        ctx.iter_start = cycle + 1

    # -- iteration setup -------------------------------------------------------

    def _begin_iteration(self, ctx, cycle):
        k = self._next_k
        self._next_k += 1
        ctx.k = k
        ctx.active = True
        self._active_count += 1
        self._order_dirty = True
        ctx.committing = False
        ctx.bypass = False
        ctx.pc_index = 0
        ctx.iter_start = cycle
        ctx.attempt_instrs = 0
        ctx.received_cirs.clear()
        ctx.cir_written.clear()
        self._init_iter_regs(ctx)
        if self.monitor is not None:
            self.monitor.on_begin(ctx.lane_id, k, cycle, ctx.regs)
        ctx.ready_at = cycle
        if self.trace is not None and k:
            self.trace.mark(ctx, max(0, cycle - 1), "|")
        if self.events is not None:
            self.events.idq_op += 1

    def _init_iter_regs(self, ctx):
        d = self.d
        k = ctx.k
        ctx.regs[d.idx_reg] = (self.start_idx + k) & MASK32
        for miv in d.mivt.values():
            ctx.regs[miv.reg] = (self.live_in[miv.reg]
                                 + miv.increment * k) & MASK32
            if self.events is not None:
                self.events.miv_mul += 1
        for cir, value in ctx.received_cirs.items():
            ctx.regs[cir] = value

    # -- small helpers ------------------------------------------------------------

    def _stall(self, ctx, cycle, until, kind):
        ctx.ready_at = max(until, cycle + 1)
        span = ctx.ready_at - cycle
        if kind == "raw":
            self.stats.stall_raw += span
        elif kind == "cib":
            self.stats.stall_cib += span
        if self.trace is not None:
            self.trace.mark(ctx, cycle, "r" if kind == "raw" else "c",
                            span)

    _TRACE_CODES = {"memport": "m", "llfu": "l", "lsq": "q",
                    "commit": "w"}

    def _stall_one(self, ctx, cycle, kind):
        ctx.ready_at = cycle + 1
        if kind == "memport":
            self.stats.stall_memport += 1
        elif kind == "llfu":
            if self._park_llfu:
                # every unit stays busy until the earliest one frees,
                # so each poll before then would stall too
                free = min(self._llfu_free)
                self.stats.stall_llfu += free - cycle
                ctx.ready_at = free
            else:
                self.stats.stall_llfu += 1
        elif kind == "lsq":
            # a full LSQ or a partial overlap with the context's own
            # buffered stores clears only once it commits
            self.stats.stall_lsq += 1
            if self._park_lsq:
                self._sleep(ctx, cycle, "stall_lsq", self._commit_waiters,
                            ctx.k)
        elif kind == "commit":
            self.stats.stall_commit += 1
            if self.fast:
                self._sleep(ctx, cycle, "stall_commit",
                            self._commit_waiters, ctx.k)
        if self.trace is not None:
            self.trace.mark(ctx, cycle, self._TRACE_CODES[kind])

    # -- parking -------------------------------------------------------------

    def _sleep(self, ctx, cycle, counter, table, key):
        """Park *ctx* after the failed poll at *cycle* (already charged
        to *counter*) until the event *key* of *table* wakes it.  The
        polls it skips are charged to *counter* at :meth:`_wake`, which
        reproduces the reference's once-per-cycle re-polling exactly."""
        ctx.stall_kind = counter
        ctx.sleep_from = cycle + 1
        ctx.ready_at = _FAR
        table[key] = ctx

    def _wake(self, ctx, at):
        """End *ctx*'s parked wait at cycle *at* (already out of its
        table), charging the polls it skipped."""
        st = self.stats
        kind = ctx.stall_kind
        setattr(st, kind, getattr(st, kind) + at - ctx.sleep_from)
        ctx.stall_kind = None
        ctx.ready_at = at

    def _unpark(self, ctx, cycle):
        """A parked *ctx* is squashed or discarded at *cycle*."""
        if ctx.stall_kind == "stall_cib":
            for cir in self.d.cirs:
                if self._cib_waiters.get((cir, ctx.k)) is ctx:
                    del self._cib_waiters[(cir, ctx.k)]
        else:
            del self._commit_waiters[ctx.k]
        self._wake(ctx, cycle)

    def _park_cib(self, ctx, cycle, cir):
        """CIB channel ``(cir, ctx.k)`` is not published yet: sleep
        until it is.  Its publisher, iteration ``k - 1``, issues before
        this context in every cycle, so it has not published at *cycle*
        and it wakes this context within the cycle it publishes."""
        self.stats.stall_cib += 1
        self._sleep(ctx, cycle, "stall_cib", self._cib_waiters,
                    (cir, ctx.k))

    def _wake_cib(self, cir, k, avail):
        """Channel ``(cir, k)`` was published with value available at
        *avail*, never before the publishing cycle."""
        w = self._cib_waiters.pop((cir, k), None)
        if w is not None:
            self._wake(w, avail)

    def _llfu_acquire(self, cycle, occupy):
        for i, free in enumerate(self._llfu_free):
            if free <= cycle:
                self._llfu_free[i] = cycle + occupy
                return i
        return None
