"""Runtime invariant monitor for specialized (LPSU) execution.

An :class:`InvariantMonitor` attaches to an
:class:`~repro.uarch.lpsu.LPSU` through the same observer-style hook
points as the lane tracer (``lpsu.monitor``): the LPSU notifies it on
iteration begin/retire, CIB publish/consume, committed stores and their
squash broadcasts, and iteration squash/discard.  The monitor is a pure
observer — it never mutates LPSU, cache, memory or energy state — so a
verified run is cycle- and energy-bit-identical to an unverified one
(regression-tested in ``tests/verify``).

Checked invariants (paper Sections II-D, IV-B/C):

* **CIB ordering** (``xloop.or/orm``): every cross-iteration-register
  value is consumed only after its producer published it (produce
  cycle <= consume cycle), channel ``(cir, k)`` is written exactly once
  by iteration ``k-1`` (re-publish allowed only after that iteration
  was squashed), and a retiring iteration never holds a value that a
  replay later changed.
* **LSQ squash-set correctness** (``xloop.om/orm/ua`` and ``.de``):
  stores reach memory only from the commit-head iteration, every
  committed store is broadcast exactly once (conflict-squashing
  patterns), and a squashed or discarded iteration has zero stores
  visible in memory.
* **MIVT consistency** (``xi``): at each iteration boundary the serial
  golden execution's MIV registers equal the MIVT claim
  ``live_in + increment * k``, and the index register advances by one.
* **Golden-oracle equivalence**: per-iteration committed store/AMO
  streams (LSQ patterns), per-iteration CIR values, the architectural
  hand-back (index, bound, CIRs, MIVs, exit registers, and every
  register an iteration reads before writing), and the final memory
  image all match a serial execution of the same loop.
* **Iteration-boundary hand-back**: specialized execution — including
  an adaptive-profiling early stop — returns to the GPP only at an
  iteration boundary: the retired-iteration count, hand-back registers
  and memory correspond to a whole number of serial iterations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..sim.memory import MASK32
from .oracle import SerialOracle


class InvariantViolation(Exception):
    """A runtime invariant of specialized execution was violated.

    Carries a cycle-stamped, lane-stamped report: *check* is the
    invariant family (``cib-order``, ``lsq-stream``, ``mivt``, ...),
    *cycle*/*lane*/*iteration* locate the violation.
    """

    def __init__(self, check, message, cycle=None, lane=None,
                 iteration=None):
        self.check = check
        self.message = message
        self.cycle = cycle
        self.lane = lane
        self.iteration = iteration
        stamp = []
        if cycle is not None:
            stamp.append("cycle %d" % cycle)
        if lane is not None:
            stamp.append("lane %d" % lane)
        if iteration is not None:
            stamp.append("iter %d" % iteration)
        super().__init__("[%s] %s: %s"
                         % (check, " ".join(stamp) or "finalize",
                            message))


class InvariantMonitor:
    """Observer checking LPSU execution against its invariants.

    Construct one per specialized invocation with the loop descriptor,
    the live-in register file, and the shared architectural memory
    (cloned into the serial oracle's shadow), then pass it to
    ``LPSU(..., monitor=...)`` and call :meth:`finalize` on the
    :class:`~repro.uarch.lpsu.LPSUResult`.
    """

    def __init__(self, descriptor, live_in_regs, mem):
        d = descriptor
        self.d = d
        self.live_in = list(live_in_regs)
        self.mem = mem
        self.oracle = SerialOracle(d, live_in_regs, mem)
        self.start_idx = self.oracle.start_idx
        # mirror the LPSU's pattern decomposition
        self.squash_on_conflict = d.kind.data.needs_memory_disambiguation
        self.control_speculative = d.kind.control.value == "de"
        self.needs_lsq = self.squash_on_conflict or self.control_speculative
        self.ordered_regs = d.kind.data.ordered_through_registers
        self.dynamic_bound = d.kind.control.value == "db"
        # an unordered loop claiming slots through AMOs (worklist
        # kernels) is order-dependent by design: any lane interleaving
        # is architecturally valid, so the final memory image is not
        # required to equal the serial one
        self.racy = (not self.needs_lsq
                     and any(ins.op.is_amo for ins in d.body))
        #: the shadow serial execution lost lockstep with the real run
        #: (only possible for racy dynamic-bound worklists, where claim
        #: order can outpace the serial push order); once set, oracle-
        #: derived comparisons are abandoned for this invocation
        self._desynced = False

        # CIB channel records: (cir, k) -> (value, avail_cycle, producer_k)
        self._channels: Dict[Tuple[int, int], Tuple[int, int, int]] = {
            (cir, 0): (self.live_in[cir] & MASK32, 0, -1) for cir in d.cirs}
        #: channels whose producer iteration was squashed (re-publish ok)
        self._republishable: Set[Tuple[int, int]] = set()
        # per-iteration CIR values consumed by the current attempt
        self._consumed: Dict[int, Dict[int, int]] = {}
        # per-iteration committed store/AMO stream (LSQ patterns only)
        self._commits: Dict[int, List[Tuple[str, int, int, int]]] = {}
        # one committed store awaiting its squash broadcast
        self._pending_broadcast = None
        # retires seen but not yet oracle-advanced (non-LSQ patterns
        # may retire out of index order; the oracle runs in order)
        self._pending_retires: Dict[int, Tuple[int, int]] = {}
        self.retires = 0
        self.squashes = 0

    # ------------------------------------------------------------------
    # LPSU hook points (all pure observers)
    # ------------------------------------------------------------------

    def on_begin(self, lane, k, cycle, regs):
        """Iteration *k* starts on *lane*: index/MIV initialization
        must match the MIVT claims."""
        d = self.d
        want_idx = (self.start_idx + k) & MASK32
        if regs[d.idx_reg] & MASK32 != want_idx:
            raise InvariantViolation(
                "mivt", "iteration starts with index x%d=0x%x, expected "
                "0x%x" % (d.idx_reg, regs[d.idx_reg], want_idx),
                cycle=cycle, lane=lane, iteration=k)
        for miv in d.mivt.values():
            want = (self.live_in[miv.reg] + miv.increment * k) & MASK32
            if regs[miv.reg] & MASK32 != want:
                raise InvariantViolation(
                    "mivt", "MIV x%d initialized to 0x%x, MIVT claims "
                    "0x%x (live-in 0x%x + %d*%d)"
                    % (miv.reg, regs[miv.reg], want,
                       self.live_in[miv.reg], miv.increment, k),
                    cycle=cycle, lane=lane, iteration=k)

    def on_cib_publish(self, lane, producer_k, cir, value, avail_cycle,
                       cycle):
        """Iteration *producer_k* publishes *cir* for iteration
        ``producer_k + 1`` (ready at *avail_cycle*)."""
        if cir not in self.d.cirs:
            raise InvariantViolation(
                "cib-order", "publish of non-CIR register x%d" % cir,
                cycle=cycle, lane=lane, iteration=producer_k)
        key = (cir, producer_k + 1)
        if key in self._channels and key not in self._republishable:
            raise InvariantViolation(
                "cib-order", "channel (x%d, iter %d) published twice "
                "without an intervening squash" % (cir, key[1]),
                cycle=cycle, lane=lane, iteration=producer_k)
        self._republishable.discard(key)
        self._channels[key] = (value & MASK32, avail_cycle, producer_k)

    def on_cib_consume(self, lane, k, cir, value, cycle):
        """Iteration *k* receives *cir* from the CIB at *cycle*."""
        chan = self._channels.get((cir, k))
        if chan is None:
            raise InvariantViolation(
                "cib-order", "iteration consumed x%d before iteration "
                "%d produced it" % (cir, k - 1),
                cycle=cycle, lane=lane, iteration=k)
        cvalue, avail, _producer = chan
        if cycle < avail:
            raise InvariantViolation(
                "cib-order", "x%d consumed at cycle %d but the producer "
                "publishes at cycle %d" % (cir, cycle, avail),
                cycle=cycle, lane=lane, iteration=k)
        if value & MASK32 != cvalue:
            raise InvariantViolation(
                "cib-value", "x%d consumed as 0x%x but the channel "
                "holds 0x%x" % (cir, value & MASK32, cvalue),
                cycle=cycle, lane=lane, iteration=k)
        self._consumed.setdefault(k, {})[cir] = value & MASK32

    def on_commit_store(self, lane, k, kind, addr, size, value, cycle):
        """A store/AMO from iteration *k* reached architectural memory."""
        if not self.needs_lsq:
            return  # direct stores may legally complete in any order
        head = self.oracle.iterations
        if k != head:
            raise InvariantViolation(
                "lsq-commit-order", "iteration %d wrote memory while "
                "iteration %d is the commit head" % (k, head),
                cycle=cycle, lane=lane, iteration=k)
        if self.squash_on_conflict:
            if self._pending_broadcast is not None:
                pk, pword, pcycle = self._pending_broadcast
                raise InvariantViolation(
                    "lsq-broadcast", "store to 0x%x (iter %d, cycle %d) "
                    "was never broadcast" % (pword, pk, pcycle),
                    cycle=cycle, lane=lane, iteration=k)
            self._pending_broadcast = (k, addr & ~3, cycle)
        self._commits.setdefault(k, []).append(
            (kind, addr & MASK32, size,
             value & ((1 << (8 * size)) - 1)))

    def on_broadcast(self, lane, k, word, cycle):
        """Iteration *k* broadcast committed-store address *word*."""
        if not self.squash_on_conflict:
            raise InvariantViolation(
                "lsq-broadcast", "address broadcast on a pattern "
                "without memory disambiguation",
                cycle=cycle, lane=lane, iteration=k)
        if self._pending_broadcast is None:
            raise InvariantViolation(
                "lsq-broadcast", "broadcast of 0x%x without a matching "
                "committed store" % word,
                cycle=cycle, lane=lane, iteration=k)
        pk, pword, pcycle = self._pending_broadcast
        if pk != k or pword != word & ~3 or pcycle != cycle:
            raise InvariantViolation(
                "lsq-broadcast", "broadcast (iter %d, 0x%x, cycle %d) "
                "does not match the committed store (iter %d, 0x%x, "
                "cycle %d)" % (k, word, cycle, pk, pword, pcycle),
                cycle=cycle, lane=lane, iteration=k)
        self._pending_broadcast = None

    def on_squash(self, lane, k, cycle, buffered_stores):
        """Iteration *k*'s speculative attempt is squashed for replay."""
        self.squashes += 1
        if self._commits.get(k):
            raise InvariantViolation(
                "lsq-squash", "iteration squashed after %d of its "
                "stores reached memory" % len(self._commits[k]),
                cycle=cycle, lane=lane, iteration=k)
        # NOTE: the replay keeps its received CIRs (``_init_iter_regs``
        # re-applies them), so the consumed record survives the squash
        # and the retire-time staleness check still sees it.
        # its published channels may be legitimately re-published
        for cir in self.d.cirs:
            chan = self._channels.get((cir, k + 1))
            if chan is not None and chan[2] == k:
                self._republishable.add((cir, k + 1))

    def on_discard(self, lane, k, cycle):
        """Iteration *k* is discarded (an older iteration exited)."""
        if self._commits.get(k):
            raise InvariantViolation(
                "lsq-squash", "discarded iteration had %d stores "
                "visible in memory" % len(self._commits[k]),
                cycle=cycle, lane=lane, iteration=k)
        self._consumed.pop(k, None)
        self._commits.pop(k, None)
        self._pending_retires.pop(k, None)

    def on_retire(self, lane, k, cycle, regs):
        """Iteration *k* retired: advance the serial oracle and compare."""
        self.retires += 1
        if self.needs_lsq and k != self.oracle.iterations:
            raise InvariantViolation(
                "lsq-commit-order", "iteration retired while iteration "
                "%d is the commit head" % self.oracle.iterations,
                cycle=cycle, lane=lane, iteration=k)
        self._pending_retires[k] = (lane, cycle)
        while self.oracle.iterations in self._pending_retires:
            j = self.oracle.iterations
            jlane, jcycle = self._pending_retires.pop(j)
            self._advance_oracle(j, jlane, jcycle)

    # ------------------------------------------------------------------

    def _advance_oracle(self, k, lane, cycle):
        d, oracle = self.d, self.oracle
        if self._desynced:
            return
        if not oracle.would_iterate():
            if self.racy and self.dynamic_bound:
                # the real interleaving claimed worklist item k before
                # the serial push order produced it; the shadow
                # execution cannot follow from here (its slot k is
                # still unwritten), so stop comparing rather than
                # judge a legal racy schedule against the wrong oracle
                self._desynced = True
                return
            raise InvariantViolation(
                "trip-count", "iteration retired but the serial "
                "execution ends after %d iterations" % oracle.iterations,
                cycle=cycle, lane=lane, iteration=k)

        # boundary register values, before the serial iteration runs
        pre_idx = oracle.reg(d.idx_reg)
        pre_miv = {miv.reg: oracle.reg(miv.reg)
                   for miv in d.mivt.values()}
        serial_log = list(oracle.run_iteration())

        # MIVT/index consistency against genuine serial execution --
        # but only for registers the iteration read before writing:
        # a register recomputed at body entry is dead at the boundary,
        # so its MIVT claim is architecturally unobservable (e.g. an
        # inner loop's xi pointer scanned into an outer loop's MIVT)
        if d.idx_reg in oracle.read_first:
            want_idx = (self.start_idx + k) & MASK32
            if pre_idx != want_idx:
                raise InvariantViolation(
                    "mivt", "serial index at iteration %d is 0x%x, the "
                    "LPSU iteration numbering claims 0x%x"
                    % (k, pre_idx, want_idx),
                    cycle=cycle, lane=lane, iteration=k)
        for miv in d.mivt.values():
            if miv.reg not in oracle.read_first:
                continue
            want = (self.live_in[miv.reg] + miv.increment * k) & MASK32
            if pre_miv[miv.reg] != want:
                raise InvariantViolation(
                    "mivt", "serial MIV x%d at iteration %d is 0x%x, "
                    "MIVT claims 0x%x"
                    % (miv.reg, k, pre_miv[miv.reg], want),
                    cycle=cycle, lane=lane, iteration=k)

        if self.needs_lsq:
            mine = self._commits.pop(k, [])
            if mine != serial_log:
                raise InvariantViolation(
                    "lsq-stream", "committed store stream %r differs "
                    "from the serial stream %r"
                    % (mine[:6], serial_log[:6]),
                    cycle=cycle, lane=lane, iteration=k)
        if self.ordered_regs:
            for cir in d.cirs:
                chan = self._channels.get((cir, k + 1))
                if chan is None:
                    raise InvariantViolation(
                        "cib-order", "iteration retired without "
                        "publishing x%d" % cir,
                        cycle=cycle, lane=lane, iteration=k)
                if chan[0] != oracle.reg(cir):
                    raise InvariantViolation(
                        "cib-value", "published x%d=0x%x, serial value "
                        "is 0x%x" % (cir, chan[0], oracle.reg(cir)),
                        cycle=cycle, lane=lane, iteration=k)
        # a retiring iteration must not hold CIR values a replay changed
        for cir, value in self._consumed.pop(k, {}).items():
            current = self._channels[(cir, k)][0]
            if current != value:
                raise InvariantViolation(
                    "cib-stale", "iteration retired holding x%d=0x%x "
                    "but the channel was republished as 0x%x"
                    % (cir, value, current),
                    cycle=cycle, lane=lane, iteration=k)

    # ------------------------------------------------------------------

    def finalize(self, result):
        """End-of-invocation checks against the serial oracle.

        Call with the :class:`~repro.uarch.lpsu.LPSUResult` immediately
        after ``LPSU.run`` returns (before the GPP resumes).
        """
        d, oracle = self.d, self.oracle
        cyc = result.cycles
        if self._pending_retires:
            raise InvariantViolation(
                "boundary", "iterations %r retired but older ones never "
                "did" % sorted(self._pending_retires), cycle=cyc)
        if self._pending_broadcast is not None:
            pk, pword, pcycle = self._pending_broadcast
            raise InvariantViolation(
                "lsq-broadcast", "store to 0x%x (iter %d) was never "
                "broadcast" % (pword, pk), cycle=cyc, iteration=pk)
        if result.iterations != self.retires:
            raise InvariantViolation(
                "boundary", "LPSU reports %d iterations but %d retired"
                % (result.iterations, self.retires), cycle=cyc)
        if self._desynced:
            # the serial oracle lost lockstep (racy dynamic-bound
            # worklist); hook-level invariants above still held, but
            # boundary-state comparisons have no reference to check
            return
        if self.retires != oracle.iterations:
            raise InvariantViolation(
                "boundary", "%d iterations retired but the serial "
                "oracle ran %d" % (self.retires, oracle.iterations),
                cycle=cyc)
        if result.exited != oracle.exited:
            raise InvariantViolation(
                "exit", "LPSU exited=%r but serial execution exited=%r"
                % (result.exited, oracle.exited), cycle=cyc)
        if result.exited:
            # only registers the exiting serial iteration wrote carry a
            # defined value: exit_copy_regs over-approximates with every
            # body-written register, and a lane's copy of a
            # conditionally-written one holds whatever iteration that
            # lane ran last (dead downstream, or results would diverge)
            for r in sorted(d.exit_copy_regs & oracle.last_written):
                got = result.exit_regs.get(r)
                if got is None or got & MASK32 != oracle.reg(r):
                    raise InvariantViolation(
                        "exit", "exit copy-back x%d=%r, serial value "
                        "0x%x" % (r, got, oracle.reg(r)), cycle=cyc)
        elif self.racy and self.dynamic_bound:
            # a racy worklist's dynamic bound counts pushes, and the
            # *prefix* push count after N iterations is interleaving-
            # dependent (only the completed total is deterministic), so
            # mid-loop trip decisions can't be judged against the oracle
            pass
        elif result.completed and oracle.would_iterate():
            raise InvariantViolation(
                "trip-count", "LPSU completed after %d iterations but "
                "the serial loop would continue" % oracle.iterations,
                cycle=cyc)
        elif not result.completed and not oracle.would_iterate():
            raise InvariantViolation(
                "boundary", "early hand-back after %d iterations but "
                "the serial loop is already done" % oracle.iterations,
                cycle=cyc)

        # architectural hand-back = serial state at the same boundary
        if result.final_idx & MASK32 != oracle.reg(d.idx_reg):
            raise InvariantViolation(
                "boundary", "hand-back index 0x%x, serial 0x%x"
                % (result.final_idx & MASK32, oracle.reg(d.idx_reg)),
                cycle=cyc)
        if (not (self.racy and self.dynamic_bound)
                and result.final_bound & MASK32 != oracle.reg(d.bound_reg)):
            raise InvariantViolation(
                "boundary", "hand-back bound 0x%x, serial 0x%x"
                % (result.final_bound & MASK32, oracle.reg(d.bound_reg)),
                cycle=cyc)
        for cir in sorted(d.cirs):
            got = result.cir_values.get(cir)
            if got is None or got & MASK32 != oracle.reg(cir):
                raise InvariantViolation(
                    "boundary", "hand-back CIR x%d=%r, serial 0x%x"
                    % (cir, got, oracle.reg(cir)), cycle=cyc)
        if result.exited:
            # an xloop.break leaves the serial body mid-iteration; the
            # hand-back convention still advances MIVs to the next
            # iteration boundary (they are excluded from the exiting
            # lane's register copy-back)
            for miv in d.mivt.values():
                got = result.miv_values.get(miv.reg)
                want = (self.live_in[miv.reg]
                        + miv.increment * oracle.iterations) & MASK32
                if got is None or got & MASK32 != want:
                    raise InvariantViolation(
                        "boundary", "hand-back MIV x%d=%r, expected 0x%x"
                        % (miv.reg, got, want), cycle=cyc)
        else:
            # the register file the GPP resumes with, built as
            # SystemSimulator._run_specialized builds it, must hold the
            # serial value of every register an iteration reads before
            # writing (a register recomputed at body entry is dead
            # there): one carried across iterations but not handed
            # back, such as a CIR the scan missed, keeps its live-in
            # value
            regs = list(self.live_in)
            regs[d.idx_reg] = result.final_idx
            regs[d.bound_reg] = result.final_bound
            for reg, value in result.cir_values.items():
                regs[reg] = value
            for reg, value in result.miv_values.items():
                regs[reg] = value
            for r in sorted(oracle.ever_read_first):
                if r == d.bound_reg and self.racy and self.dynamic_bound:
                    continue   # interleaving-dependent (see above)
                if regs[r] & MASK32 != oracle.reg(r):
                    raise InvariantViolation(
                        "boundary", "hand-back x%d=0x%x, serial 0x%x"
                        % (r, regs[r] & MASK32, oracle.reg(r)),
                        cycle=cyc)
        if not self.racy and not self.mem.pages_equal(oracle.mem):
            addr = self.mem.first_difference(oracle.mem)
            raise InvariantViolation(
                "memory", "architectural memory differs from serial "
                "execution at 0x%x" % addr, cycle=cyc)
        return self
