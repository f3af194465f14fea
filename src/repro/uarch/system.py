"""Full-system simulation: a GPP (in-order or out-of-order) optionally
augmented with an LPSU, running an assembled program end to end in one
of the paper's three execution modes:

``traditional``
    xloops execute as conditional branches on the GPP (Section II-C).
``specialized``
    every supported xloop the GPP reaches is scanned into the LPSU and
    executed there while the GPP stalls (Section II-D).
``adaptive``
    per-xloop profiling via the APT decides between the two
    (Section II-E).

The GPP timing models consume the functional instruction stream
online; when an xloop is handed to the LPSU, the LPSU advances the
shared architectural memory itself and the GPP timing is advanced by
the specialized-phase cycle count (the GPP stalls during specialized
execution, so sequential composition is timing-exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..energy.events import EnergyEvents
from ..sim.functional import (HALT_PC, FunctionalCore, LivelockError,
                              SimError, decode_program)
from ..sim.backends import resolve_backend
from ..sim.fusion import fused_blocks, lpsu_engine
from ..sim.memory import Memory, to_s32
from .adaptive import (AdaptiveProfilingTable, DECIDED_SPECIALIZED,
                       DECIDED_TRADITIONAL, GPP_PROFILING, LPSU_PROFILING)
from .cache import L1Cache
from .descriptor import ScanError, scan_loop
from .inorder import InOrderTiming
from .lpsu import LPSU, LPSUStats
from .ooo import OOOTiming
from .params import SystemConfig

MODES = ("traditional", "specialized", "adaptive")


@dataclass
class RunResult:
    """Everything the eval harness needs from one simulation."""

    config_name: str
    mode: str
    cycles: int
    gpp_instrs: int
    lpsu_instrs: int
    events: EnergyEvents
    lpsu_stats: LPSUStats
    xloop_invocations: int = 0
    specialized_invocations: int = 0
    adaptive_decisions: Dict[int, str] = field(default_factory=dict)
    return_value: int = 0
    cache_misses: int = 0
    cache_accesses: int = 0

    @property
    def total_instrs(self):
        return self.gpp_instrs + self.lpsu_instrs


class SystemSimulator:
    """Simulate *program* on *config* in a given execution mode."""

    def __init__(self, program, config, mem=None, verify=False,
                 max_cycles=None, injector=None, backend=None):
        self.program = program
        self.config = config
        # when set, every specialized invocation runs under a
        # repro.verify InvariantMonitor (pure observer: cycles, energy
        # and stats stay bit-identical; raises InvariantViolation)
        self.verify = verify
        # cycle-budget watchdog: a specialized phase that would push the
        # system cycle count past this raises LivelockError instead of
        # spinning (None = unbounded, the default)
        self.max_cycles = max_cycles
        # optional repro.resilience fault injector: wraps the invariant
        # monitor's observer hooks and corrupts LPSU state at a chosen
        # point.  Injection needs per-step observation, so it forces
        # the slow path like verify does.
        self.injector = injector
        # backend ladder (repro.sim.backends): interp / fused.  verify
        # and injection need exact per-step observation, so they force
        # the interp tier regardless of the requested backend.
        resolved = resolve_backend(
            "interp" if verify or injector is not None else backend)
        self.backend = resolved.name
        # bit-identical fast path: fused GPP superblocks, the compiled
        # LPSU engine, and the LPSU's cycle jumps and parking
        self.fast = resolved.fast
        self.mem = mem if mem is not None else Memory()
        self.events = EnergyEvents()
        self.cache = L1Cache(config.gpp.cache)
        if config.gpp.is_ooo:
            self.timing = OOOTiming(config.gpp, self.cache, self.events)
        else:
            self.timing = InOrderTiming(config.gpp, self.cache, self.events)
        self.core = FunctionalCore(program, self.mem)
        self.apt = AdaptiveProfilingTable(config.adaptive)
        self.lpsu_stats = LPSUStats()
        self.lpsu_instrs = 0
        self.xloop_invocations = 0
        self.specialized_invocations = 0
        self._ineligible = set()
        # per-xloop-pc cycle stamp of the previous taken encounter
        # (measures traditional per-iteration cost for profiling)
        self._last_seen_cycle = {}
        # compiled fused-lane LPSU engine (repro.sim.fusion, `lpsu`
        # flavour).  The ladder harness's `fused-noengine` tier clears
        # it to pin the interpreted stepper on the fast path, the path
        # production takes whenever lpsu_engine() returns None.
        self._use_engine = self.fast

    # ------------------------------------------------------------------

    def run(self, entry="main", args=(), mode="traditional",
            max_steps=200_000_000):
        if mode not in MODES:
            raise ValueError("unknown mode %r" % mode)
        if mode != "traditional" and self.config.lpsu is None:
            raise ValueError("config %r has no LPSU" % self.config.name)
        core = self.core
        core.setup_call(entry, args)
        steps = 0
        core_step = core.step
        consume = self.timing.consume
        if self.fast:
            self._run_fused(mode, max_steps)
        elif mode == "traditional":
            # no xloop can be intercepted: run the fetch/step/consume
            # loop without the dispatch check
            while not core.halted:
                consume(core_step())
                steps += 1
                if steps > max_steps:
                    raise SimError("GPP exceeded %d steps" % max_steps)
        else:
            instrs = self.program.instrs
            base = self.program.text_base
            xloop_idx = frozenset(
                i for i, ins in enumerate(instrs) if ins.op.is_xloop)
            while not core.halted:
                pc = core.pc
                idx = (pc - base) >> 2
                if idx in xloop_idx and not pc & 3:
                    if self._maybe_specialize(instrs[idx], mode):
                        continue
                consume(core_step())
                steps += 1
                if steps > max_steps:
                    raise SimError("GPP exceeded %d steps" % max_steps)
        return RunResult(
            config_name=self.config.name, mode=mode,
            cycles=self.timing.cycles, gpp_instrs=core.icount,
            lpsu_instrs=self.lpsu_instrs, events=self.events,
            lpsu_stats=self.lpsu_stats,
            xloop_invocations=self.xloop_invocations,
            specialized_invocations=self.specialized_invocations,
            adaptive_decisions=dict(self.apt.decisions),
            return_value=core.return_value,
            cache_misses=self.cache.misses,
            cache_accesses=self.cache.accesses)

    def _run_fused(self, mode, max_steps):
        """Fast GPP driver: dispatch fused superblocks, falling back to
        single-stepping for pcs outside any block.  Blocks break at
        every xloop pc, so the specialize/adaptive dispatch check (and
        the APT's ``timing.cycles`` reads) happen at exactly the same
        points, with exactly the same timing state, as the slow loop.
        """
        core = self.core
        timing = self.timing
        program = self.program
        consume = timing.consume
        core_step = core.step
        if mode == "traditional":
            xloop_pcs = None
            break_pcs = ()
        else:
            xloop_pcs = frozenset(ins.pc for ins in program.instrs
                                  if ins.op.is_xloop)
            break_pcs = xloop_pcs
        # one block table per (program, break set), whichever GPP:
        # blocks hand their static records to timing.run_block
        get = fused_blocks(program, "gpp", break_pcs).get
        instrs = program.instrs
        base = program.text_base
        steps0 = core.icount
        while not core.halted:
            pc = core.pc
            if xloop_pcs is not None and pc in xloop_pcs:
                if self._maybe_specialize(instrs[(pc - base) >> 2], mode):
                    continue
            blk = get(pc)
            if blk is None:
                consume(core_step())
            elif blk(core, timing) == HALT_PC:
                core.halted = True
            if core.icount - steps0 > max_steps:
                raise SimError("GPP exceeded %d steps" % max_steps)

    # ------------------------------------------------------------------
    # xloop dispatch
    # ------------------------------------------------------------------

    def _taken(self, instr):
        regs = self.core.regs
        return to_s32(regs[instr.rs1]) < to_s32(regs[instr.rs2])

    def _eligible(self, instr):
        """Can this xloop run specialized on the configured LPSU?

        Ineligibility (unsupported pattern, oversized body, malformed
        scan) is static per xloop PC, so it is cached; the descriptor
        itself is rebuilt per invocation because ``addu.xi`` increments
        resolve against live-in register values.
        """
        if instr.pc in self._ineligible:
            return None
        lpsu_cfg = self.config.lpsu
        if not lpsu_cfg.supports(instr.op.xloop_kind.data):
            self._ineligible.add(instr.pc)
            return None
        try:
            desc = scan_loop(self.program, instr, self.core.regs)
        except (ScanError, IndexError):
            self._ineligible.add(instr.pc)
            return None
        if desc.body_len > lpsu_cfg.ib_entries:
            self._ineligible.add(instr.pc)
            return None  # too large: fall back to traditional (II-A)
        return desc

    def _maybe_specialize(self, instr, mode):
        """Possibly execute the xloop at core.pc on the LPSU.  Returns
        True when the xloop (or part of it) was handled here."""
        if not self._taken(instr):
            return False
        self.xloop_invocations += 1

        if mode == "specialized":
            desc = self._eligible(instr)
            if desc is None:
                return False
            self._run_specialized(desc)
            return True

        # -- adaptive ------------------------------------------------------
        pc = instr.pc
        entry = self.apt.lookup(pc)
        if entry.state == DECIDED_TRADITIONAL:
            return False
        if entry.state == DECIDED_SPECIALIZED:
            desc = self._eligible(instr)
            if desc is None:
                return False
            self._run_specialized(desc)
            return True
        if entry.state == GPP_PROFILING:
            now = self.timing.cycles
            last = self._last_seen_cycle.get(pc, now)
            self._last_seen_cycle[pc] = now
            finished = self.apt.record_gpp_iteration(pc, now - last)
            if not finished:
                return False          # keep executing traditionally
            # fall through into LPSU profiling
            entry.state = LPSU_PROFILING
        if entry.state == LPSU_PROFILING:
            desc = self._eligible(instr)
            if desc is None:
                self.apt.record_lpsu_profile(pc, 1, 10 ** 9)
                return False
            # profile at least a couple of iterations per lane --
            # fewer could never exhibit cross-iteration parallelism
            floor = 2 * self.config.lpsu.lanes
            result = self._run_specialized(
                desc, max_iters=max(entry.gpp_iters, floor))
            decision = self.apt.record_lpsu_profile(
                pc, result.iterations, result.cycles)
            if decision == DECIDED_TRADITIONAL:
                # migrate back: the remaining iterations run on the GPP
                self.timing.advance(self.config.adaptive.migrate_overhead)
            return True
        return False

    # ------------------------------------------------------------------

    def _run_specialized(self, desc, max_iters=None):
        """Scan + specialized execution phase; updates arch state."""
        core = self.core
        # reuse the program's pre-decoded handler table for the body
        # (the body is a contiguous slice of the text section)
        decoded = decode_program(self.program)
        lo = (desc.body_start_pc - self.program.text_base) >> 2
        monitor = None
        if self.verify:
            # imported lazily: repro.verify depends on uarch.params
            from ..verify import InvariantMonitor
            monitor = InvariantMonitor(desc, core.regs, self.mem)
        hook = monitor
        if self.injector is not None:
            # the injector wraps the monitor's observer interface so
            # corruption happens at a deterministic hook event, and the
            # (optional) monitor still sees every event afterwards
            hook = self.injector.bind(desc, core.regs, self.mem, monitor)
        engine = None
        if self._use_engine:
            engine = lpsu_engine(self.program, desc)
        lpsu = LPSU(desc, core.regs, self.mem, self.cache,
                    self.config.lpsu, self.events,
                    decoded_body=decoded[lo:lo + desc.body_len],
                    monitor=hook, fast=self.fast, engine=engine)
        if self.injector is not None:
            self.injector.attach(lpsu)
        budget = None
        if self.max_cycles is not None:
            budget = self.max_cycles - self.timing.cycles
            if budget <= 0:
                raise LivelockError(
                    "system exceeded %d cycles before specialization"
                    % self.max_cycles)
        result = lpsu.run(self.config.gpp.latencies, max_iters=max_iters,
                          max_cycles=budget)
        if hook is not None:
            hook.finalize(result)

        self.specialized_invocations += 1
        self.lpsu_stats.__dict__.update({
            k: getattr(self.lpsu_stats, k) + getattr(result.stats, k)
            for k in vars(result.stats)})
        self.lpsu_instrs += result.stats.instrs

        # architectural hand-back: index, dynamic bound, CIR live-outs,
        # and MIV registers (a traditionally-resumed loop continues to
        # advance them with plain adds)
        regs = core.regs
        regs[desc.idx_reg] = result.final_idx & 0xFFFFFFFF
        regs[desc.bound_reg] = result.final_bound & 0xFFFFFFFF
        for cir, value in result.cir_values.items():
            regs[cir] = value
        for miv, value in result.miv_values.items():
            regs[miv] = value
        for reg, value in (result.exit_regs or {}).items():
            regs[reg] = value   # .de: exiting lane's register state
        # the GPP stalls for the whole specialized phase
        self.timing.advance(result.cycles)
        if result.exited:
            # a data-dependent exit: resume at the xloop fall-through
            # (the xloop's test would otherwise re-enter the loop)
            core.pc = desc.xloop_pc + 4
            return result
        # core.pc stays at the xloop: the next functional step executes
        # it as a (now not-taken, unless stopped early) branch, which
        # also resumes traditional execution seamlessly after profiling
        return result


def simulate(program, config, entry="main", args=(), mode="traditional",
             mem=None, verify=False, max_cycles=None, injector=None,
             backend=None):
    """One-shot convenience wrapper returning a :class:`RunResult`.

    With ``verify=True`` every specialized xloop invocation is checked
    against the :mod:`repro.verify` runtime invariants (raising
    :class:`~repro.verify.InvariantViolation` on the first breach)
    without perturbing cycles, energy, or statistics.

    ``backend`` selects a rung of the simulation ladder
    (:mod:`repro.sim.backends`): ``interp``/``fused``/``auto``, where
    None means ``auto`` (results are bit-identical across tiers;
    ``repro verify --ladder`` enforces it).

    ``max_cycles`` bounds the specialized-phase cycle budget (raising
    :class:`~repro.sim.LivelockError` when exhausted); ``injector``
    threads a :mod:`repro.resilience` fault injector into every
    specialized invocation (forcing the interp tier, like verify).
    """
    sim = SystemSimulator(program, config, mem=mem, verify=verify,
                          max_cycles=max_cycles, injector=injector,
                          backend=backend)
    return sim.run(entry=entry, args=args, mode=mode)
