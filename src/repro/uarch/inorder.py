"""Single-issue in-order GPP timing model (the paper's ``io``).

An online model: the system simulator feeds it the dynamic instruction
stream in execution order -- one :class:`~repro.sim.functional.StepInfo`
at a time through :meth:`InOrderTiming.consume`, or one fused block at
a time through :meth:`InOrderTiming.run_block` -- and it advances a
cycle count using a register scoreboard, the shared L1 model, a
bimodal predictor, and the common latency table.
"""

from __future__ import annotations

from ..isa.instructions import FU
from ..sim.fusion import K_AMO, K_BRANCH, K_JAL, K_LOAD, K_STORE
from .branch import BimodalPredictor, make_predictor
from .cache import L1Cache
from .params import GPPConfig


class InOrderTiming:
    """Scoreboarded single-issue pipeline timing."""

    def __init__(self, config, cache=None, events=None, predictor=None):
        self.config = config
        self.lat = config.latencies
        self.cache = cache if cache is not None else L1Cache(config.cache)
        self.events = events
        self.predictor = predictor or make_predictor(
            config.bpred_kind, config.bpred_entries)
        self.cycle = 0                  # next issue opportunity
        self.reg_ready = [0] * 32
        self.retired = 0
        self.stall_raw = 0
        self.stall_mem = 0
        self.stall_branch = 0
        # result latency per record kind (memory kinds are resolved
        # against the cache); jumps write their link at issue + 1
        lat = self.lat
        self._kind_lat = (1, lat.mul, lat.div, lat.fpu, lat.fdiv,
                          None, None, None, 1, 1, 1, 1)
        self._hit = self.cache.config.hit_latency

    def consume(self, step):
        """Account one dynamic instruction; returns its issue cycle.
        The step-at-a-time reference that :meth:`run_block` must match
        bit for bit."""
        instr = step.instr
        op = instr.op
        ev = self.events
        srcs = instr.src_regs()
        if ev is not None:
            ev.ic_access += 1
            for s in srcs:
                if s:
                    ev.rf_read += 1

        cycle = self.cycle
        reg_ready = self.reg_ready
        issue = cycle
        for s in srcs:
            t = reg_ready[s]
            if t > issue:
                issue = t
        self.stall_raw += issue - cycle

        latency = 1
        if op.is_mem:
            if op.is_fence:
                latency = 1
            else:
                hit_extra = self.cache.access(step.addr,
                                              is_store=op.is_store)
                if op.is_amo:
                    latency = self.lat.amo + (hit_extra
                                              - self.cache.config.hit_latency)
                elif op.is_load:
                    latency = hit_extra
                else:
                    latency = self.lat.store
                if ev is not None:
                    ev.dc_access += 1
                    if hit_extra > self.cache.config.hit_latency:
                        ev.dc_miss += 1
                        self.stall_mem += (hit_extra
                                           - self.cache.config.hit_latency)
        elif op.fu != FU.ALU and op.fu != FU.BR and op.fu != FU.XLOOP:
            latency = self.lat.for_fu(op.fu)

        if ev is not None:
            self._count_fu(ev, op)

        done = issue + latency
        dst = instr.dst_reg()
        if dst is not None:
            reg_ready[dst] = done
            if ev is not None:
                ev.rf_write += 1

        next_issue = issue + 1
        if op.is_branch or op.is_xloop:
            if ev is not None:
                ev.bpred += 1
            wrong = self.predictor.predict_and_update(step.pc, step.taken)
            if wrong:
                next_issue += self.config.mispredict_penalty
                self.stall_branch += self.config.mispredict_penalty
        elif op.is_jump:
            # jal targets are known in decode; jalr uses a return-address
            # stack we model as ideal -> one redirect bubble either way
            next_issue += 1
            self.stall_branch += 1

        self.cycle = next_issue
        self.retired += 1
        return issue

    def run_block(self, recs, addrs, ctrl_pc, taken, counts):
        """Account one fused block (the ``gpp`` flavour of
        :mod:`repro.sim.fusion`): :meth:`consume` over the block's
        static ``(src1, src2, dst, kind)`` records, with its memory
        addresses in program order, the outcome of its terminating
        control op, and its static event counts folded into one
        update.  Only the last record can be a branch or jump, so its
        redirect bubble is charged after the loop."""
        rr = self.reg_ready
        lat = self._kind_lat
        hit = self._hit
        cyc = self.cycle
        sraw = smem = dcm = ai = 0
        for s1, s2, dst, kind in recs:
            i = rr[s1]
            x = rr[s2]
            if x > i:
                i = x
            if i > cyc:
                sraw += i - cyc
            else:
                i = cyc
            if kind < K_LOAD or kind > K_AMO:
                if dst:
                    rr[dst] = i + lat[kind]
            else:
                x = self.cache.access(addrs[ai], kind == K_STORE)
                ai += 1
                if x > hit:
                    dcm += 1
                    smem += x - hit
                if dst:
                    rr[dst] = (i + x if kind == K_LOAD
                               else i + self.lat.amo + x - hit)
            cyc = i + 1
        if kind == K_BRANCH:
            if self.predictor.predict_and_update(ctrl_pc, taken):
                cyc += self.config.mispredict_penalty
                self.stall_branch += self.config.mispredict_penalty
        elif kind >= K_JAL:
            # jal / jalr: one redirect bubble (ideal return stack)
            cyc += 1
            self.stall_branch += 1
        self.cycle = cyc
        self.retired += len(recs)
        self.stall_raw += sraw
        ev = self.events
        if ev is not None:
            self.stall_mem += smem
            n, rfr, rfw, alu, _mem, mul, div, fpu, fdiv, dc, bp = counts
            ev.ic_access += n
            ev.rf_read += rfr
            ev.rf_write += rfw
            ev.alu_op += alu
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
                ev.dc_miss += dcm
            if bp:
                ev.bpred += bp

    def _count_fu(self, ev, op):
        fu = op.fu
        if fu == FU.ALU:
            ev.alu_op += 1
        elif fu == FU.MUL:
            ev.mul_op += 1
        elif fu == FU.DIV:
            ev.div_op += 1
        elif fu == FU.FPU:
            ev.fpu_op += 1
        elif fu == FU.FDIV:
            ev.fdiv_op += 1
        elif fu == FU.BR or fu == FU.XLOOP:
            ev.alu_op += 1

    @property
    def cycles(self):
        """Cycles elapsed so far (time the last instruction issued +1)."""
        return self.cycle

    def advance(self, cycles):
        """Account externally-spent time (e.g. stalling while the LPSU
        runs a specialized phase)."""
        self.cycle += cycles
        floor = self.cycle
        for i, t in enumerate(self.reg_ready):
            if t < floor:
                self.reg_ready[i] = floor
