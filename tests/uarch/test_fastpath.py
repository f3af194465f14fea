"""Fast-path equivalence tests: superblock fusion, the compiled LPSU
engine and the event-driven cycle loop must be bit-identical to the
step-at-a-time simulators -- cycles, instruction counts, energy events,
LPSU stats, adaptive decisions, and the final memory image.

``repro verify --ladder`` runs the same differential harness over
every registered kernel and generated loops; these tests keep a
representative cross-section in the tier-1 suite.
"""

import pytest

from repro.kernels import get_kernel
from repro.lang import compile_source
from repro.sim import Memory, fusion
from repro.sim.functional import FunctionalCore, run_program
from repro.sim.fusion import block_runs, fused_blocks
from repro.uarch import IO, OOO2, OOO4, LPSUConfig, SystemConfig, simulate
from repro.uarch.lpsu import LPSU
from repro.uarch.system import SystemSimulator
from repro.verify import check_ladder
from repro.verify.conformance import LADDER_SWEEP

#: one kernel per dependence pattern, kept cheap via tiny workloads
_KERNELS = ("sgemm-uc", "adpcm-or", "dynprog-om", "btree-ua",
            "qsort-uc-db")

#: a small LPSU sweep that still exercises multi-lane, LSQ, and
#: forwarding variants of the lane scheduler
_SWEEP = (LPSUConfig(),
          LPSUConfig(lanes=2, lsq_loads=4, lsq_stores=4),
          LPSUConfig(inter_lane_forwarding=True))


def _program(name):
    spec = get_kernel(name)
    return spec, compile_source(spec.source).program


# ---------------------------------------------------------------------------
# fusion block layout
# ---------------------------------------------------------------------------

class TestBlockLayout:
    def test_runs_are_disjoint_and_straight_line(self):
        _spec, program = _program("sgemm-uc")
        runs = block_runs(program)
        seen = set()
        for idxs in runs:
            # contiguous, no instruction in two runs
            assert idxs == list(range(idxs[0], idxs[-1] + 1))
            assert not seen & set(idxs)
            seen |= set(idxs)
            # control flow only at the end of a run
            for i in idxs[:-1]:
                op = program.instrs[i].op
                assert not (op.is_branch or op.is_jump or op.is_xloop)
        assert seen  # a real kernel must produce at least one block

    def test_break_pcs_split_blocks(self):
        _spec, program = _program("sgemm-uc")
        whole = block_runs(program)
        # breaking at the second instruction of the first multi-instr
        # run must start a new block there
        first = next(r for r in whole if len(r) > 1)
        pc = program.instrs[first[1]].pc
        split = block_runs(program, frozenset((pc,)))
        starts = {program.instrs[r[0]].pc for r in split}
        assert pc in starts
        assert pc not in {program.instrs[r[0]].pc for r in whole}

    def test_fused_blocks_cached_per_key(self):
        _spec, program = _program("sgemm-uc")
        a = fused_blocks(program, "func")
        assert fused_blocks(program, "func") is a
        b = fused_blocks(program, "func",
                         break_pcs=(program.text_base + 4,))
        assert b is not a

    def test_gpp_blocks_compiled_once_for_every_gpp(self, monkeypatch):
        # one `gpp` block table per (program content, break set),
        # shared by io, ooo/2 and ooo/4: no configuration in the key
        compiled = []

        def counting_compile(src, filename, *args, **kwargs):
            compiled.append(filename)
            return compile(src, filename, *args, **kwargs)

        monkeypatch.setattr(fusion, "_BLOCK_TABLE_CACHE", {})
        monkeypatch.setattr(fusion, "compile", counting_compile,
                            raising=False)
        spec = get_kernel("sgemm-uc")
        for gpp in (IO, OOO2, OOO4):
            # a fresh program object per GPP: sharing is by content
            program = compile_source(spec.source).program
            for mode, lpsu in (("traditional", None),
                               ("specialized", LPSUConfig())):
                mem = Memory()
                args = spec.workload("tiny", 0).apply(mem)
                simulate(program, SystemConfig("t", gpp, lpsu),
                         entry=spec.entry, args=args, mem=mem, mode=mode,
                         backend="fused")
        # traditional runs break nowhere, specialized ones at the xloops
        assert compiled.count("<fused:gpp>") == 2


# ---------------------------------------------------------------------------
# functional flavour
# ---------------------------------------------------------------------------

class TestFunctionalFusion:
    @pytest.mark.parametrize("name", _KERNELS)
    def test_fused_run_matches_single_step(self, name):
        spec, program = _program(name)
        wl = spec.workload("tiny", 0)
        mem_f, mem_s = Memory(), Memory()
        args_f, args_s = wl.apply(mem_f), wl.apply(mem_s)
        fast = run_program(program, spec.entry, args_f, mem_f,
                           fast=True)
        slow = run_program(program, spec.entry, args_s, mem_s,
                           fast=False)
        assert fast.icount == slow.icount
        assert fast.regs == slow.regs
        assert fast.return_value == slow.return_value
        assert mem_f.pages_equal(mem_s)

    def test_unknown_pc_falls_back_to_step(self):
        spec, program = _program("sgemm-uc")
        core = FunctionalCore(program)
        wl = spec.workload("tiny", 0)
        core.setup_call(spec.entry, wl.apply(core.mem))
        blocks = fused_blocks(program, "func")
        # drop the entry block: run() must single-step through it and
        # still finish with the right answer
        blocks.pop(core.pc, None)
        core.run(fast=True)
        wl.check(core.mem)


# ---------------------------------------------------------------------------
# whole-system fast-vs-slow bit identity
# ---------------------------------------------------------------------------

class TestSystemFastSlow:
    @pytest.mark.parametrize("name", _KERNELS)
    def test_bit_identical_across_modes_and_design_points(self, name):
        spec, program = _program(name)

        def make_args(mem):
            return spec.workload("tiny", 0).apply(mem)

        res = check_ladder(name, program, spec.entry, make_args,
                           sweep=_SWEEP)
        assert res.ok, res.detail
        # traditional + sweep points + one adaptive run were compared,
        # on each of io, ooo/2 and ooo/4
        assert res.configs == 3 * (len(_SWEEP) + 2)

    @pytest.mark.parametrize("name", _KERNELS)
    def test_noengine_fast_path_stays_bit_identical(self, name):
        # the interpreted stepper on the fast path (cycle jumps,
        # parking, in-slot fusion) must honour the same contract with
        # the compiled fused-lane engine switched off, as for a body
        # lpsu_engine() cannot compile
        spec, program = _program(name)
        results = []
        for use_engine in (False, True):
            mem = Memory()
            args = spec.workload("tiny", 0).apply(mem)
            sim = SystemSimulator(program,
                                  SystemConfig("t", IO, LPSUConfig()),
                                  mem=mem)
            sim._use_engine = use_engine
            r = sim.run(entry=spec.entry, args=args, mode="specialized")
            results.append((r, mem))
        (ne_r, ne_mem), (en_r, en_mem) = results
        assert ne_r.cycles == en_r.cycles
        assert repr(ne_r.lpsu_stats) == repr(en_r.lpsu_stats)
        assert dict(vars(ne_r.events)) == dict(vars(en_r.events))
        assert ne_mem.pages_equal(en_mem)

    def test_verified_run_bypasses_fused_lanes(self):
        # verify=True attaches the invariant monitor, which must see
        # every interpreted step: the engine (and the fast path as a
        # whole) transparently disengages, while timing stays
        # bit-identical to an unmonitored run
        spec, program = _program("sgemm-uc")

        def run(**kw):
            mem = Memory()
            args = spec.workload("tiny", 0).apply(mem)
            r = simulate(program, SystemConfig("t", IO, LPSUConfig()),
                         entry=spec.entry, args=args, mem=mem,
                         mode="specialized", **kw)
            return r, mem
        ver_r, ver_mem = run(verify=True)
        fast_r, fast_mem = run()
        assert ver_r.cycles == fast_r.cycles
        assert repr(ver_r.lpsu_stats) == repr(fast_r.lpsu_stats)
        assert ver_mem.pages_equal(fast_mem)

    def test_engine_compiles_for_every_pattern(self):
        # the fused-lane engine must actually engage on all five
        # dependence patterns (a silent fallback to the interpreted
        # stepper would still be bit-identical, but not fast)
        for name in _KERNELS:
            spec, program = _program(name)
            mem = Memory()
            args = spec.workload("tiny", 0).apply(mem)
            sim = SystemSimulator(program,
                                  SystemConfig("t", IO, LPSUConfig()),
                                  mem=mem)
            sim.run(entry=spec.entry, args=args, mode="specialized")
            engines = [v for k, v in
                       getattr(program, "_fused", {}).items()
                       if k[0] == "lpsu"]
            assert engines and all(e is not None for e in engines), \
                "no compiled engine for %s" % name

    def test_one_engine_per_loop_body(self, monkeypatch):
        # the engine binds the design point at make time, so every
        # LPSU configuration -- two contexts per lane included -- and
        # every program object of the same kernel share one factory
        compiled = []

        def counting_compile(src, filename, *args, **kwargs):
            compiled.append(filename)
            return compile(src, filename, *args, **kwargs)

        monkeypatch.setattr(fusion, "_LPSU_MAKE_CACHE", {})
        monkeypatch.setattr(fusion, "compile", counting_compile,
                            raising=False)
        spec = get_kernel("sgemm-uc")
        makes = set()
        for lpsu in LADDER_SWEEP:
            program = compile_source(spec.source).program
            mem = Memory()
            args = spec.workload("tiny", 0).apply(mem)
            simulate(program, SystemConfig("t", IO, lpsu),
                     entry=spec.entry, args=args, mem=mem,
                     mode="specialized", backend="fused")
            makes |= {v for k, v in program._fused.items()
                      if k[0] == "lpsu"}
        assert len(makes) == 1 and None not in makes
        assert compiled.count("<fused:lpsu>") == 1

    def test_two_contexts_per_lane_run_on_the_engine(self, monkeypatch):
        # Fig 9 +t: the fused engine steps both contexts of a lane,
        # bit-identical to the interpreted reference, and the
        # interpreted stepper is never called
        spec, program = _program("sgemm-uc")
        config = SystemConfig("t", IO, LPSUConfig(threads_per_lane=2))

        def run(backend):
            mem = Memory()
            args = spec.workload("tiny", 0).apply(mem)
            r = simulate(program, config, entry=spec.entry, args=args,
                         mem=mem, mode="specialized", backend=backend)
            return r, mem

        ref_r, ref_mem = run("interp")
        contexts = []
        real_run = LPSU.run

        def spy_run(self, *args, **kwargs):
            contexts.append(len(self.contexts) // self.cfg.lanes)
            return real_run(self, *args, **kwargs)

        def no_step(self, ctx, cycle):
            raise AssertionError("interpreted _step on the fused rung")

        monkeypatch.setattr(LPSU, "run", spy_run)
        monkeypatch.setattr(LPSU, "_step", no_step)
        r, mem = run("fused")
        assert contexts and set(contexts) == {2}
        assert r.cycles == ref_r.cycles
        assert repr(r.lpsu_stats) == repr(ref_r.lpsu_stats)
        assert dict(vars(r.events)) == dict(vars(ref_r.events))
        assert mem.pages_equal(ref_mem)

    def test_adaptive_decisions_identical(self):
        spec, program = _program("war-om")
        results = []
        for backend in ("auto", "interp"):
            mem = Memory()
            args = spec.workload("tiny", 0).apply(mem)
            r = simulate(program, SystemConfig("t", IO, LPSUConfig()),
                         entry=spec.entry, args=args, mem=mem,
                         mode="adaptive", backend=backend)
            results.append(r)
        fast_r, slow_r = results
        assert dict(fast_r.adaptive_decisions)
        assert dict(fast_r.adaptive_decisions) \
            == dict(slow_r.adaptive_decisions)
        assert fast_r.cycles == slow_r.cycles
        assert repr(fast_r.lpsu_stats) == repr(slow_r.lpsu_stats)
