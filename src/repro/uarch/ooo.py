"""Out-of-order superscalar GPP timing model (``ooo/2``, ``ooo/4``).

A window-based dataflow model processed in program order, in the spirit
of gem5's O3 at the fidelity the paper's results depend on:

* fetch/dispatch/retire bounded by ``width``; ROB occupancy bounds the
  in-flight window;
* dataflow scheduling against register-ready times (ideal renaming: no
  false dependences);
* structural contention for integer ALUs, memory ports, and the
  long-latency FU pool (int mul/div + FP);
* store->load memory dependences honoured at word granularity with
  ideal forwarding (an optimistic LSQ);
* bimodal predictor; mispredicts redirect fetch after resolution;
* **conservative AMOs/fences**: an AMO waits for all earlier
  instructions to complete and stalls fetch until it completes — the
  paper calls its out-of-order AMO implementation "rather conservative"
  and attributes the <1x traditional-execution speedups to it.

Like the in-order model it takes the instruction stream one step at a
time (:meth:`OOOTiming.consume`) or a batch of fused blocks at a time
(:meth:`OOOTiming.run_blocks`).
"""

from __future__ import annotations

from collections import deque
from heapq import heapreplace
from operator import itemgetter

from ..isa.instructions import FU
from ..sim.fusion import (K_ALU, K_AMO, K_BRANCH, K_FDIV, K_JALR, K_LOAD,
                          K_STORE)
from .branch import make_predictor
from .cache import L1Cache

#: FU classes served by the shared long-latency unit pool
_LLFU = (FU.MUL, FU.DIV, FU.FPU, FU.FDIV)
#: LLFU ops that occupy their unit for the full latency (unpipelined)
_UNPIPELINED = (FU.DIV, FU.FDIV)


class _UnitPool:
    """A small pool of identical units, each free at some cycle.

    ``free_at`` is a min-heap: timing depends only on the multiset of
    free times, so which of several equally-free units an op takes is
    immaterial, and the earliest-free unit is always ``free_at[0]``."""

    __slots__ = ("free_at",)

    def __init__(self, count):
        self.free_at = [0] * count

    def acquire(self, ready, occupy):
        """Earliest issue >= *ready* on any unit; occupy it."""
        best_t = self.free_at[0]
        start = ready if ready >= best_t else best_t
        heapreplace(self.free_at, start + occupy)
        return start


class OOOTiming:
    """Width/window-parameterized out-of-order timing."""

    def __init__(self, config, cache=None, events=None):
        self.config = config
        self.lat = config.latencies
        self.cache = cache if cache is not None else L1Cache(config.cache)
        self.events = events
        self.predictor = make_predictor(config.bpred_kind,
                                        config.bpred_entries)

        self.width = config.width
        self._rob = deque()                      # retire times in flight
        self._rob_size = config.rob_entries
        self._alus = _UnitPool(config.width)
        self._mem = _UnitPool(config.mem_ports)
        self._llfu = _UnitPool(config.llfus)

        self.reg_ready = [0] * 32
        self._store_ready = {}                   # word addr -> store done
        self._fetch_cycle = 0
        self._fetch_count = 0
        self._retire_cycle = 0
        self._retire_count = 0
        self._redirect = 0                       # fetch gate (mispredict/AMO)
        self._max_complete = 0                   # for serializing ops
        self.retired = 0
        self.mispredicts = 0
        self.serializations = 0
        # LLFU record kinds (MUL, DIV, FPU, FDIV) -> latency / occupancy
        lat = self.lat
        self._kind_lat = (1, lat.mul, lat.div, lat.fpu, lat.fdiv)
        self._kind_occ = (1, 1, lat.div, 1, lat.fdiv)
        self._hit = self.cache.config.hit_latency

    # -- helpers ---------------------------------------------------------

    def _fetch(self):
        """Next fetch slot honouring width and redirects."""
        if self._fetch_cycle < self._redirect:
            self._fetch_cycle = self._redirect
            self._fetch_count = 0
        if self._fetch_count >= self.width:
            self._fetch_cycle += 1
            self._fetch_count = 0
        self._fetch_count += 1
        return self._fetch_cycle

    def _retire(self, complete):
        """In-order retirement bounded by width; returns retire cycle."""
        t = complete if complete >= self._retire_cycle else self._retire_cycle
        if t > self._retire_cycle:
            self._retire_cycle = t
            self._retire_count = 0
        if self._retire_count >= self.width:
            self._retire_cycle += 1
            self._retire_count = 0
        self._retire_count += 1
        return self._retire_cycle

    # -- main entry -------------------------------------------------------

    def consume(self, step):
        """Account one dynamic instruction (a
        :class:`~repro.sim.functional.StepInfo`); returns its issue
        cycle.  The step-at-a-time reference that :meth:`run_blocks`
        must match bit for bit."""
        instr = step.instr
        pc = step.pc
        addr = step.addr
        taken = step.taken
        op = instr.op
        ev = self.events
        srcs = instr.src_regs()
        if ev is not None:
            ev.ic_access += 1
            ev.ooo_rename += 1
            ev.iq_op += 1
            ev.rob_op += 1
            for s in srcs:
                if s:
                    ev.rf_read += 1

        rob = self._rob
        fetch = self._fetch()
        dispatch = fetch + 1
        # ROB occupancy: wait for a slot
        if len(rob) >= self._rob_size:
            oldest = rob.popleft()
            if oldest > dispatch:
                dispatch = oldest

        reg_ready = self.reg_ready
        ready = dispatch
        for s in srcs:
            t = reg_ready[s]
            if t > ready:
                ready = t

        fu = op.fu
        serialize = op.is_amo or op.is_fence
        if serialize:
            # conservative AMO: wait for every earlier instruction
            if self._max_complete > ready:
                ready = self._max_complete
            self.serializations += 1

        if op.is_mem and not op.is_fence:
            word = addr & ~3 if addr is not None else 0
            dep = self._store_ready.get(word)
            if op.is_load and dep is not None and dep > ready:
                ready = dep
            access = self.cache.access(addr, is_store=op.is_store)
            if ev is not None:
                ev.dc_access += 1
                ev.lsq_search += 1
                if access > self.cache.config.hit_latency:
                    ev.dc_miss += 1
            if op.is_amo:
                latency = self.lat.amo + (access
                                          - self.cache.config.hit_latency)
            elif op.is_load:
                latency = access
            else:
                latency = self.lat.store
            issue = self._mem.acquire(ready, 1)
        elif fu in _LLFU:
            latency = self.lat.for_fu(fu)
            occupy = latency if fu in _UNPIPELINED else 1
            issue = self._llfu.acquire(ready, occupy)
        else:
            latency = 1
            issue = self._alus.acquire(ready, 1)

        if ev is not None:
            self._count_fu(ev, op)

        complete = issue + latency
        if complete > self._max_complete:
            self._max_complete = complete

        dst = instr.dst_reg()
        if dst is not None:
            reg_ready[dst] = complete
            if ev is not None:
                ev.rf_write += 1
        if op.is_store or op.is_amo:
            if addr is not None:
                self._store_ready[addr & ~3] = complete

        if op.is_branch or op.is_xloop:
            if ev is not None:
                ev.bpred += 1
            wrong = self.predictor.predict_and_update(pc, taken)
            if wrong:
                self.mispredicts += 1
                gate = complete + self.config.mispredict_penalty
                if gate > self._redirect:
                    self._redirect = gate
        elif op.mnemonic == "jalr":
            # ideal return-address stack: one-bubble redirect
            gate = fetch + 2
            if gate > self._redirect:
                self._redirect = gate
        if serialize:
            if complete > self._redirect:
                self._redirect = complete

        retire = self._retire(complete)
        rob.append(retire)
        self.retired += 1
        return issue

    def run_blocks(self, batch):
        """Account a non-empty batch of fused blocks (the ``gpp``
        flavour of :mod:`repro.sim.fusion`), each a ``(recs, addrs,
        ctrl_pc, taken, counts)`` tuple: :meth:`consume` over every
        block's static ``(src1, src2, dst, kind)`` records in order,
        with the window state held in locals for the whole batch.

        Only a block's last record can be a branch or jump, so its
        predictor access and fetch redirect run after the block's
        record loop, and mid-block redirects come only from
        serializing ops (AMO, fence): the redirect check runs at block
        entry and after each of those.  A full ROB stays full (every
        record pops one entry and pushes one).  The static event
        counts, mispredicts and serializations are added once."""
        rr = self.reg_ready
        rob = self._rob
        pop = rob.popleft
        push = rob.append
        nrob = len(rob)
        rob_size = self._rob_size
        width = self.width
        alus = self._alus.free_at
        mems = self._mem.free_at
        llfus = self._llfu.free_at
        kind_lat = self._kind_lat
        kind_occ = self._kind_occ
        sready = self._store_ready
        access = self.cache.access
        predict = self.predictor.predict_and_update
        penalty = self.config.mispredict_penalty
        store_lat = self.lat.store
        amo_lat = self.lat.amo
        hit = self._hit
        fc = self._fetch_cycle
        fn = self._fetch_count
        rc = self._retire_cycle
        rn = self._retire_count
        redirect = self._redirect
        mc = self._max_complete
        dcm = wrong = ser = 0
        for recs, addrs, ctrl_pc, taken, _counts in batch:
            if fc < redirect:
                fc = redirect
                fn = 0
            ai = 0
            for s1, s2, dst, kind in recs:
                if fn < width:
                    fn += 1
                else:
                    fc += 1
                    fn = 1
                ready = fc + 1
                if nrob < rob_size:
                    nrob += 1
                else:
                    x = pop()
                    if x > ready:
                        ready = x
                x = rr[s1]
                if x > ready:
                    ready = x
                x = rr[s2]
                if x > ready:
                    ready = x
                if kind == K_ALU or kind >= K_BRANCH:
                    x = alus[0]
                    complete = (ready if ready >= x else x) + 1
                    heapreplace(alus, complete)
                elif kind <= K_FDIV:
                    x = llfus[0]
                    issue = ready if ready >= x else x
                    heapreplace(llfus, issue + kind_occ[kind])
                    complete = issue + kind_lat[kind]
                elif kind <= K_STORE:
                    a = addrs[ai]
                    ai += 1
                    if kind == K_LOAD:
                        x = sready.get(a & -4)
                        if x is not None and x > ready:
                            ready = x
                        latency = access(a, False)
                        if latency > hit:
                            dcm += 1
                    else:
                        if access(a, True) > hit:
                            dcm += 1
                        latency = store_lat
                    x = mems[0]
                    issue = ready if ready >= x else x
                    heapreplace(mems, issue + 1)
                    complete = issue + latency
                    if kind == K_STORE:
                        sready[a & -4] = complete
                else:
                    # conservative AMO / fence: wait for every earlier
                    # instruction, and hold fetch until this one
                    # completes
                    if mc > ready:
                        ready = mc
                    ser += 1
                    if kind == K_AMO:
                        a = addrs[ai]
                        ai += 1
                        x = access(a, False)
                        if x > hit:
                            dcm += 1
                        latency = amo_lat + x - hit
                        x = mems[0]
                        issue = ready if ready >= x else x
                        heapreplace(mems, issue + 1)
                        complete = issue + latency
                        sready[a & -4] = complete
                    else:
                        x = alus[0]
                        complete = (ready if ready >= x else x) + 1
                        heapreplace(alus, complete)
                    if complete > redirect:
                        redirect = complete
                    if fc < redirect:
                        fc = redirect
                        fn = 0
                if complete > mc:
                    mc = complete
                if dst:
                    rr[dst] = complete
                # in-order retirement bounded by width
                if complete > rc:
                    rc = complete
                    rn = 1
                elif rn < width:
                    rn += 1
                else:
                    rc += 1
                    rn = 1
                push(rc)
            if kind == K_BRANCH:
                if predict(ctrl_pc, taken):
                    wrong += 1
                    x = complete + penalty
                    if x > redirect:
                        redirect = x
            elif kind == K_JALR:
                # ideal return-address stack: one-bubble redirect
                if fc + 2 > redirect:
                    redirect = fc + 2
        self._fetch_cycle = fc
        self._fetch_count = fn
        self._retire_cycle = rc
        self._retire_count = rn
        self._redirect = redirect
        self._max_complete = mc
        self.mispredicts += wrong
        self.serializations += ser
        n, rfr, rfw, alu, mem, mul, div, fpu, fdiv, dc, bp = map(
            sum, zip(*map(itemgetter(4), batch)))
        self.retired += n
        ev = self.events
        if ev is not None:
            ev.ic_access += n
            ev.ooo_rename += n
            ev.iq_op += n
            ev.rob_op += n
            ev.rf_read += rfr
            ev.rf_write += rfw
            ev.alu_op += alu + mem
            if mul:
                ev.mul_op += mul
            if div:
                ev.div_op += div
            if fpu:
                ev.fpu_op += fpu
            if fdiv:
                ev.fdiv_op += fdiv
            if dc:
                ev.dc_access += dc
                ev.lsq_search += dc
                ev.dc_miss += dcm
            if bp:
                ev.bpred += bp

    def _count_fu(self, ev, op):
        fu = op.fu
        if fu == FU.MUL:
            ev.mul_op += 1
        elif fu == FU.DIV:
            ev.div_op += 1
        elif fu == FU.FPU:
            ev.fpu_op += 1
        elif fu == FU.FDIV:
            ev.fdiv_op += 1
        else:
            ev.alu_op += 1

    @property
    def cycles(self):
        return self._retire_cycle + 1 if self.retired else 0

    def advance(self, cycles):
        """Account externally-spent stall time (specialized phase)."""
        base = self.cycles + cycles
        self._fetch_cycle = max(self._fetch_cycle, base)
        self._fetch_count = 0
        self._retire_cycle = max(self._retire_cycle, base)
        self._retire_count = 0
        self._redirect = max(self._redirect, base)
        self._max_complete = max(self._max_complete, base)
        self._rob.clear()
        self._store_ready.clear()
