"""Traditional-vs-specialized differential conformance harness.

This is the core of the ``repro verify`` CLI subcommand.  For each
checked loop — a registered application kernel or a random
:class:`~repro.verify.genloops.GenCase` — it executes:

1. the GP binary traditionally (architectural reference semantics),
2. the XLOOPS binary traditionally (xloops as plain branches), and
3. the XLOOPS binary specialized on every LPSU design point in the
   sweep (plus one adaptive-mode run, which exercises the
   profiling/early-stop migration path), each under the runtime
   :class:`~repro.verify.invariants.InvariantMonitor`,

and demands that every run agrees: the workload's own result check
passes, return values match, and — for runs of the *same* binary —
the full final memory image is identical (different binaries may
legitimately differ in stack layout, so the GP reference is compared
through the workload check and return value only).

Failures are collected per loop, not raised, so one bad kernel does
not hide the rest of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Tuple

from ..kernels import ALL_KERNELS, get_kernel
from ..lang import compile_source
from ..sim import Memory
from ..uarch import (IO, OOO2, OOO4, LPSUConfig, SystemConfig,
                     SystemSimulator, simulate)
from .genloops import LPSU_SWEEP, random_cases

#: GPP design point of the verified traditional-vs-specialized runs:
#: the in-order core (fastest to simulate; the LPSU-side invariants
#: are GPP-agnostic, and verification forces the interp tier anyway)
_GPP = IO

#: GPPs the ladder harness runs every point on: each Table II GPP,
#: since each drives the fused GPP blocks through its own timing model
_LADDER_GPPS = (IO, OOO2, OOO4)

#: LPSU design points the ladder runs specialized on: the
#: differential sweep plus two contexts per lane (Fig 9 ``+t``), whose
#: issue-slot arbitration the fused-lane engine must also reproduce
LADDER_SWEEP = LPSU_SWEEP + (LPSUConfig(threads_per_lane=2),)


@dataclass
class ConformanceResult:
    """Outcome of the conformance sweep for one loop."""

    name: str
    kinds: Tuple[str, ...] = ()
    configs: int = 0        # LPSU design points x modes checked
    invocations: int = 0    # verified specialized invocations
    iterations: int = 0     # LPSU iterations retired under the monitor
    squashes: int = 0
    ok: bool = True
    detail: str = ""

    def fail(self, detail):
        self.ok = False
        if not self.detail:
            self.detail = detail
        return self


def _specialized_points(sweep, adaptive):
    points = [("specialized", lpsu) for lpsu in sweep]
    if adaptive and sweep:
        points.append(("adaptive", sweep[0]))
    return points


def _run_verified(res, program, entry, args, mem, lpsu, mode):
    r = simulate(program, SystemConfig("conf-x", _GPP, lpsu),
                 entry=entry, args=args, mem=mem, mode=mode,
                 verify=True)
    res.configs += 1
    res.invocations += r.specialized_invocations
    res.iterations += r.lpsu_stats.iterations
    res.squashes += r.lpsu_stats.squashes
    return r


def check_kernel(name, scale="tiny", seed=0, sweep=LPSU_SWEEP,
                 adaptive=True):
    """Conformance-check one registered kernel; never raises."""
    res = ConformanceResult(name=name)
    try:
        spec = get_kernel(name)
        xl = compile_source(spec.source)
        gp = compile_source(spec.source, xloops=False)
        res.kinds = xl.loop_kinds()
        # worklist kernels claim output slots through AMOs inside
        # unordered loops: any lane interleaving is architecturally
        # valid, so only the workload's own check applies -- the exact
        # memory image is order-dependent by design.  LSQ-backed
        # patterns (om/orm/ua, .de) commit in index order and stay
        # bit-deterministic even with AMOs.
        deterministic = (
            not any(ins.op.is_amo for ins in xl.program.instrs)
            or not any(k.startswith("xloop.uc") and not k.endswith(".de")
                       for k in res.kinds))

        def fresh():
            workload = spec.workload(scale, seed)
            mem = Memory()
            return workload, mem, workload.apply(mem)

        # reference: the XLOOPS binary executed traditionally
        wl, mem_ref, args = fresh()
        ref = simulate(xl.program, SystemConfig("conf-io", _GPP),
                       entry=spec.entry, args=args, mem=mem_ref,
                       mode="traditional")
        wl.check(mem_ref)

        # the GP binary agrees at the workload level (return values and
        # full memory may legitimately differ between binaries: stack
        # layout, scratch registers of void kernels)
        wl, mem_gp, args = fresh()
        simulate(gp.program, SystemConfig("conf-io", _GPP),
                 entry=spec.entry, args=args, mem=mem_gp,
                 mode="traditional")
        wl.check(mem_gp)

        for mode, lpsu in _specialized_points(sweep, adaptive):
            wl, mem, args = fresh()
            _run_verified(res, xl.program, spec.entry, args, mem,
                          lpsu, mode)
            wl.check(mem)
            if deterministic and not mem.pages_equal(mem_ref):
                return res.fail(
                    "%s/%r memory differs from traditional at 0x%x"
                    % (mode, lpsu, mem.first_difference(mem_ref)))
    except Exception as exc:
        return res.fail("%s: %s" % (type(exc).__name__, exc))
    return res


def check_case(case, sweep=LPSU_SWEEP, adaptive=False):
    """Conformance-check one generated loop case; never raises."""
    res = ConformanceResult(name=case.name)
    try:
        xl = compile_source(case.source)
        gp = compile_source(case.source, xloops=False)
        res.kinds = xl.loop_kinds()

        mem = Memory()
        r = simulate(gp.program, SystemConfig("conf-io", _GPP),
                     entry=case.entry, args=case.apply(mem), mem=mem,
                     mode="traditional")
        ref_out = case.outputs(mem, r.return_value)

        mem_ref = Memory()
        r = simulate(xl.program, SystemConfig("conf-io", _GPP),
                     entry=case.entry, args=case.apply(mem_ref),
                     mem=mem_ref, mode="traditional")
        if case.outputs(mem_ref, r.return_value) != ref_out:
            return res.fail("XLOOPS binary disagrees with the GP "
                            "binary under traditional execution")

        for mode, lpsu in _specialized_points(sweep, adaptive):
            mem = Memory()
            r = _run_verified(res, xl.program, case.entry,
                              case.apply(mem), mem, lpsu, mode)
            if case.outputs(mem, r.return_value) != ref_out:
                return res.fail("%s/%r outputs differ from traditional"
                                % (mode, lpsu))
            if not mem.pages_equal(mem_ref):
                return res.fail(
                    "%s/%r memory differs from traditional at 0x%x"
                    % (mode, lpsu, mem.first_difference(mem_ref)))
    except Exception as exc:
        return res.fail("%s: %s" % (type(exc).__name__, exc))
    return res


def check_counterexample(source, entry, params, proof, sweep=LPSU_SWEEP):
    """Replay a prover refutation as a differential conformance case.

    *proof* is a refuted ``repro.lang.passes.prover.LoopProof`` for a
    loop of *source*; its concrete counterexample becomes a directed
    :class:`~repro.verify.genloops.GenCase` (trip count and symbol
    values taken from the witness) and is swept through
    :func:`check_case`.  The returned result should FAIL — a passing
    result means the unsound pragma produced no observable divergence
    on this sweep, which is itself reportable.
    """
    if proof.counterexample is None:
        raise ValueError("proof for %s line %d has no counterexample"
                         % (proof.function, proof.line))
    from .genloops import case_from_counterexample
    case = case_from_counterexample(
        "cex-%s-L%d" % (proof.function, proof.line), source, entry,
        params, proof.counterexample)
    return check_case(case, sweep=sweep)


# ----------------------------------------------------------------------
# backend-ladder differential mode
# ----------------------------------------------------------------------

#: the ladder's harness-only tier: ``fused`` with the compiled
#: fused-lane LPSU engine switched off, i.e. the interpreted stepper on
#: the fast path (cycle jumps, parking, in-slot fusion) that production
#: runs whenever ``lpsu_engine`` returns None.  Not a backend anyone
#: can select.
_NOENGINE = "fused-noengine"


def _run_snapshot(program, entry, args, mem, gpp, lpsu, mode, tier):
    backend = "fused" if tier == _NOENGINE else tier
    sim = SystemSimulator(program, SystemConfig("conf", gpp, lpsu),
                          mem=mem, backend=backend)
    if tier == _NOENGINE:
        sim._use_engine = False
    r = sim.run(entry=entry, args=args, mode=mode)
    ev = r.events
    return {
        "cycles": r.cycles,
        "gpp_instrs": r.gpp_instrs,
        "lpsu_instrs": r.lpsu_instrs,
        "xloop_invocations": r.xloop_invocations,
        "specialized_invocations": r.specialized_invocations,
        "adaptive_decisions": dict(r.adaptive_decisions),
        "return_value": r.return_value,
        "cache": (r.cache_misses, r.cache_accesses),
        "events": None if ev is None else dict(vars(ev)),
        "lpsu_stats": repr(r.lpsu_stats),
    }


def _diff_detail(a, b, blabel):
    for k in a:
        if a[k] != b[k]:
            return "%s: interp=%r %s=%r" % (k, a[k], blabel, b[k])
    return "snapshots differ"


def check_ladder(name, program, entry, make_args, sweep=LADDER_SWEEP,
                 adaptive=True):
    """Demand the backend ladder (interp -> fused) is *bit-identical*
    for one loop: every snapshot field — cycles, instr counts,
    energy-event counts, LPSU stats, adaptive decisions, return value,
    cache totals — and the final memory image must agree across the
    tiers, for traditional execution and every specialized/adaptive
    LPSU design point, on every Table II GPP.  The failure detail
    names the GPP and the diverging tier.  LPSU points add the
    ``fused-noengine`` tier, pinning the interpreted stepper on the
    fast path to the same contract.  Never raises."""
    res = ConformanceResult(name=name)
    tiers = ("interp", "fused")
    try:
        points = [("traditional", None)]
        points += _specialized_points(sweep, adaptive)
        for gpp, (mode, lpsu) in product(_LADDER_GPPS, points):
            point_tiers = tiers if lpsu is None else tiers + (_NOENGINE,)
            snaps = []
            mems = []
            for tier in point_tiers:
                mem = Memory()
                args = make_args(mem)
                snaps.append(_run_snapshot(program, entry, args, mem,
                                           gpp, lpsu, mode, tier))
                mems.append(mem)
            res.configs += 1
            # pairwise against the interp reference: the named tier is
            # the diverging one (equality is transitive, so the other
            # pairs follow)
            for v in range(1, len(point_tiers)):
                label = point_tiers[v]
                if snaps[0] != snaps[v]:
                    return res.fail("%s/%s/%r interp!=%s: %s"
                                    % (gpp.name, mode, lpsu, label,
                                       _diff_detail(snaps[0], snaps[v],
                                                    label)))
                if not mems[0].pages_equal(mems[v]):
                    return res.fail(
                        "%s/%s/%r %s memory differs from interp at 0x%x"
                        % (gpp.name, mode, lpsu, label,
                           mems[0].first_difference(mems[v])))
    except Exception as exc:
        return res.fail("%s: %s" % (type(exc).__name__, exc))
    return res


def run_ladder(kernels=None, gen=0, seed=0, scale="tiny",
               sweep=LADDER_SWEEP, progress=None):
    """Backend-ladder differential sweep over kernels (all registered
    when *kernels* is None) plus *gen* generated loops; returns a list
    of :class:`ConformanceResult`."""
    names = ([s.name for s in ALL_KERNELS] if kernels is None
             else list(kernels))
    results = []
    for name in names:
        spec = get_kernel(name)
        xl = compile_source(spec.source)

        def make_args(mem, _spec=spec):
            return _spec.workload(scale, seed).apply(mem)

        res = check_ladder(name, xl.program, spec.entry, make_args,
                           sweep=sweep)
        res.kinds = xl.loop_kinds()
        results.append(res)
        if progress is not None:
            progress(res)
    for case in random_cases(seed, gen):
        xl = compile_source(case.source)
        res = check_ladder(case.name, xl.program, case.entry,
                           case.apply, sweep=sweep, adaptive=False)
        res.kinds = xl.loop_kinds()
        results.append(res)
        if progress is not None:
            progress(res)
    return results


def run_conformance(kernels=None, gen=0, seed=0, scale="tiny",
                    sweep=LPSU_SWEEP, progress=None):
    """Sweep kernels (all registered when *kernels* is None) plus *gen*
    generated loops; returns a list of :class:`ConformanceResult`."""
    names = ([s.name for s in ALL_KERNELS] if kernels is None
             else list(kernels))
    results = []
    for name in names:
        res = check_kernel(name, scale=scale, seed=seed, sweep=sweep)
        results.append(res)
        if progress is not None:
            progress(res)
    for case in random_cases(seed, gen):
        res = check_case(case, sweep=sweep)
        results.append(res)
        if progress is not None:
            progress(res)
    return results
