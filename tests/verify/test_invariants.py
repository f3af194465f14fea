"""Runtime invariant monitor: injected-bug detection and transparency.

Two obligations, tested from both sides:

* **sensitivity** -- deliberately broken LPSU machinery (mutated via
  monkeypatch) must raise a cycle- and lane-stamped
  :class:`InvariantViolation`, and
* **transparency** -- attaching the monitor must leave cycles, energy
  events, LPSU statistics, and architectural results bit-identical to
  an unverified run.
"""

import dataclasses

import pytest

from repro.kernels import get_kernel
from repro.lang import compile_source
from repro.sim import Memory
from repro.sim.memory import MASK32
from repro.uarch import IO, SystemConfig, simulate, system
from repro.uarch.lpsu import LPSU
from repro.uarch.params import LPSUConfig
from repro.verify import InvariantViolation
from repro.verify.genloops import (A, B, LPSU_SWEEP, N, om_source,
                                   or_source)


def _run(src, entry, args, init_words=(), lpsu=None, verify=True,
         mode="specialized"):
    cp = compile_source(src)
    mem = Memory()
    for base, words in init_words:
        mem.write_words(base, [v & MASK32 for v in words])
    r = simulate(cp.program, SystemConfig("x", IO, lpsu or LPSUConfig()),
                 entry=entry, args=args, mem=mem, mode=mode,
                 verify=verify)
    return r, mem


#: an ordered loop whose CIR is produced by a long-latency multiply, so
#: the consumer lane genuinely has to wait on the CIB avail cycle
_MUL_OR_SRC = or_source("acc = (acc * 3) + a[i];")

#: stride-1 memory recurrence: younger lanes speculatively load a[i-1]
#: before the older store commits, so broadcasts/squashes must happen
_OM_SRC = om_source(2)

#: an ordered loop with two CIRs, ``b`` written first; the loop body
#: stores nothing, so ``b`` reaches memory only through the hand-back
_TWO_CIR_SRC = """
int k(int* v, int* out, int n) {
    int a = 1;
    int b = 0;
    #pragma xloops ordered
    for (int j = 0; j < n; j++) {
        b = b + a;
        a = a + v[j];
    }
    out[0] = a;
    out[1] = b;
    return a;
}"""


class TestInjectedBugs:
    def test_cib_ordering_bug_is_caught(self, monkeypatch):
        """A CIB that delivers values before their avail cycle breaks
        the or-pattern's produce-before-consume ordering."""

        def eager_deliver(self, ctx, instr, cycle):
            d = self.d
            for s in instr.src_regs():
                if s in d.cirs and s not in ctx.received_cirs:
                    chan = self._cib.get((s, ctx.k))
                    if chan is None:
                        self._stall(ctx, cycle, cycle + 1, "cib")
                        return False
                    # BUG: ignores chan[0] (the avail cycle)
                    ctx.regs[s] = chan[1]
                    ctx.received_cirs[s] = chan[1]
                    ctx.ready[s] = cycle
                    if self.monitor is not None:
                        self.monitor.on_cib_consume(
                            ctx.lane_id, ctx.k, s, chan[1], cycle)
            return True

        monkeypatch.setattr(LPSU, "_deliver_cirs", eager_deliver)
        with pytest.raises(InvariantViolation) as exc:
            _run(_MUL_OR_SRC, "k", [A, B, N, 1],
                 init_words=[(A, list(range(1, N + 1)))])
        v = exc.value
        assert v.check == "cib-order"
        assert v.cycle is not None and v.lane is not None
        # the stamped report is human-readable
        assert "cycle %d" % v.cycle in str(v)
        assert "lane %d" % v.lane in str(v)

    def test_cib_value_corruption_is_caught(self, monkeypatch):
        """A CIB that flips bits of a published value diverges from the
        serial accumulator at an iteration boundary."""
        real_publish = LPSU._publish_cir

        def corrupting_publish(self, ctx, cir, avail_cycle):
            if ctx.k == 2:
                ctx.regs[cir] = (ctx.regs[cir] ^ 0x10) & MASK32
            return real_publish(self, ctx, cir, avail_cycle)

        monkeypatch.setattr(LPSU, "_publish_cir", corrupting_publish)
        with pytest.raises(InvariantViolation) as exc:
            _run(_MUL_OR_SRC, "k", [A, B, N, 1],
                 init_words=[(A, list(range(1, N + 1)))])
        assert exc.value.check in ("cib-value", "cib-stale", "boundary")

    def test_mivt_increment_bug_is_caught(self, monkeypatch):
        """Wrong induction-variable reconstruction at lane startup."""
        real_init = LPSU._init_iter_regs

        def skewed_init(self, ctx):
            real_init(self, ctx)
            d = self.d
            if ctx.k >= 2:
                for miv in d.mivt.values():
                    ctx.regs[miv.reg] = (ctx.regs[miv.reg] + 4) & MASK32

        monkeypatch.setattr(LPSU, "_init_iter_regs", skewed_init)
        with pytest.raises(InvariantViolation) as exc:
            _run(_MUL_OR_SRC, "k", [A, B, N, 1],
                 init_words=[(A, list(range(1, N + 1)))])
        assert exc.value.check in ("mivt", "boundary")

    def test_missing_broadcast_is_caught(self, monkeypatch):
        """An LSQ that commits stores without broadcasting the address
        can never squash mis-speculated younger loads."""
        monkeypatch.setattr(LPSU, "_broadcast",
                            lambda self, addr, ctx, cycle: None)
        with pytest.raises(InvariantViolation) as exc:
            _run(_OM_SRC, "k", [A, N, 1],
                 init_words=[(A, list(range(N + 8)))])
        assert exc.value.check in ("lsq-broadcast", "lsq-stream",
                                   "memory")

    def test_commit_order_bug_is_caught(self, monkeypatch):
        """om/orm/ua iterations must drain their stores in strict index
        order; a commit gate that lets any lane through violates it."""

        def any_order(self, ctx, cycle):
            if ctx.store_buf:
                return self._drain_one(ctx, cycle, promote=False)
            self._retire_iteration(ctx, cycle)
            return False

        monkeypatch.setattr(LPSU, "_advance_commit", any_order)
        with pytest.raises(InvariantViolation) as exc:
            _run(_OM_SRC, "k", [A, N, 1],
                 init_words=[(A, list(range(N + 8)))])
        assert exc.value.check in ("lsq-commit-order", "lsq-stream",
                                   "boundary")

    def test_dropped_cir_hand_back_is_caught(self, monkeypatch):
        """A CIR the scan misses runs lane-private, and the GPP
        resumes with its live-in value.  No store or handed-back
        register shows it; the hand-back register file does."""
        real_scan = system.scan_loop
        dropped = []

        def scan_dropping_b(program, instr, regs):
            desc = real_scan(program, instr, regs)
            assert len(desc.cirs) == 2
            b = min(desc.cirs, key=desc.last_cir_write_pc.__getitem__)
            dropped.append(b)
            return dataclasses.replace(desc, cirs=desc.cirs - {b})

        data = [(A, list(range(1, N + 1)))]
        _, serial = _run(_TWO_CIR_SRC, "k", [A, B, N], data,
                         verify=False, mode="traditional")
        monkeypatch.setattr(system, "scan_loop", scan_dropping_b)
        _, wrong = _run(_TWO_CIR_SRC, "k", [A, B, N], data, verify=False)
        (a, b), (wrong_a, wrong_b) = (serial.read_words(B, 2),
                                      wrong.read_words(B, 2))
        assert wrong_a == a and wrong_b != b
        with pytest.raises(InvariantViolation) as exc:
            _run(_TWO_CIR_SRC, "k", [A, B, N], data)
        assert exc.value.check == "boundary"
        assert "hand-back x%d=" % dropped[-1] in str(exc.value)


class TestTransparency:
    """verify=True must not perturb the simulation it watches."""

    KERNELS = ("sha-or", "mm-orm", "btree-ua", "ssearch-de",
               "rgb2cmyk-uc")

    @pytest.mark.parametrize("name", KERNELS)
    def test_bit_identical_to_unverified(self, name):
        spec = get_kernel(name)
        cp = compile_source(spec.source)
        snaps = []
        for verify in (False, True):
            wl = spec.workload("tiny", 0)
            mem = Memory()
            args = wl.apply(mem)
            r = simulate(cp.program,
                         SystemConfig("x", IO, LPSUConfig()),
                         entry=spec.entry, args=args, mem=mem,
                         mode="specialized", verify=verify)
            snaps.append((r.cycles, r.gpp_instrs, r.lpsu_instrs,
                          r.return_value,
                          dataclasses.asdict(r.events),
                          dataclasses.asdict(r.lpsu_stats), mem))
        assert snaps[0][:6] == snaps[1][:6]
        assert snaps[0][6].pages_equal(snaps[1][6])

    def test_adaptive_mode_bit_identical(self):
        spec = get_kernel("qsort-uc-db")
        cp = compile_source(spec.source)
        snaps = []
        for verify in (False, True):
            wl = spec.workload("tiny", 0)
            mem = Memory()
            args = wl.apply(mem)
            r = simulate(cp.program,
                         SystemConfig("x", IO, LPSUConfig()),
                         entry=spec.entry, args=args, mem=mem,
                         mode="adaptive", verify=verify)
            snaps.append((r.cycles, dataclasses.asdict(r.events),
                          dataclasses.asdict(r.lpsu_stats),
                          r.adaptive_decisions))
        assert snaps[0] == snaps[1]


class TestExitInteraction:
    """xloop.break (data-dependent exit) under the monitor: the exit
    decision, copy-back registers, and hand-back state all check out
    across LPSU shapes."""

    @pytest.mark.parametrize("lpsu", LPSU_SWEEP,
                             ids=lambda c: "lanes%d%s" % (
                                 c.lanes,
                                 "+f" if c.inter_lane_forwarding else ""))
    def test_ssearch_de_verifies(self, lpsu):
        spec = get_kernel("ssearch-de")
        cp = compile_source(spec.source)
        wl = spec.workload("tiny", 0)
        mem = Memory()
        args = wl.apply(mem)
        simulate(cp.program, SystemConfig("x", IO, lpsu),
                 entry=spec.entry, args=args, mem=mem,
                 mode="specialized", verify=True)
        wl.check(mem)

    @pytest.mark.parametrize("limit", (3, 40, 10_000))
    def test_generated_de_loop_verifies(self, limit):
        # early exit, mid-loop exit, and no exit at all
        from repro.verify.genloops import DE_SOURCE
        r, mem = _run(DE_SOURCE, "k", [A, B, N, limit],
                      init_words=[(A, [5] * N)])
        acc, expect = 0, 0
        for i in range(N):
            acc += 5
            if acc > limit:
                break
        assert r.return_value == acc & MASK32


class TestViolationReport:
    def test_str_includes_stamps(self):
        v = InvariantViolation("cib-order", "consumed early", cycle=12,
                              lane=3, iteration=7)
        s = str(v)
        assert "[cib-order]" in s and "cycle 12" in s
        assert "lane 3" in s and "iter 7" in s

    def test_str_without_stamps(self):
        v = InvariantViolation("boundary", "final state diverged")
        assert "boundary" in str(v)
