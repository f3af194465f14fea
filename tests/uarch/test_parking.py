"""Parking and run-ahead on the fused rung.

A stalled LPSU context parks -- sleeps until the event that ends its
stall -- instead of re-polling every cycle, and a context that cannot
be squashed runs ahead through lane-private ops.  Both only move *when*
the simulator charges a cycle, never which cycle or to which counter,
so every run here must equal the ``interp`` reference (which still
polls every cycle) in cycles, LPSU statistics, energy events, return
value and the memory image.  A spy on the LPSU's parking helpers checks
that each directed loop really takes the path it is named for.
"""

import collections

import pytest

from repro.eval import configs
from repro.kernels import TABLE2_KERNELS
from repro.lang import compile_source
from repro.sim import Memory, fusion
from repro.sim.memory import MASK32
from repro.uarch import IO, SystemConfig, simulate
from repro.uarch.lpsu import LPSU
from repro.uarch.params import LPSUConfig
from repro.uarch.system import SystemSimulator
from repro.verify import check_ladder
from repro.verify.conformance import LADDER_SWEEP
from repro.verify.genloops import (OR_MULTI_UPDATES, A, B, N,
                                   or_multi_source, or_source)

_DATA = list(range(1, N + 1))
#: alternating signs: every other iteration skips the conditional CIR
#: update
_ALT = [(-1) ** i * (i + 1) for i in range(N)]

#: the CIR comes out of a multiply, so younger lanes park on the CIB
_MUL_OR = or_source("acc = (acc * 3) + a[i];")

#: iterations with a[i] <= 0 never touch ``acc``: the lane forwards the
#: incoming value at the end of the iteration (paper II-D), which wakes
#: the next iteration parked on it
_PASS_THROUGH_OR = """
int k(int* a, int* b, int n, int init) {
    int acc = init;
    #pragma xloops ordered
    for (int i = 0; i < n; i++) {
        if (a[i] > 0) { acc = acc + a[i]; }
        b[i] = a[i] * 2;
    }
    return acc;
}"""

#: registers and memory (xloop.orm): an iteration loads a[i-2], then
#: parks on the CIB; the commit of a[i-2] two iterations back squashes
#: it while it sleeps
_ORM = """
int k(int* a, int* b, int n, int init) {
    int acc = init;
    #pragma xloops ordered
    for (int i = 2; i < n; i++) {
        int t = a[i-2];
        acc = (acc * 3) + t;
        a[i] = acc & 255;
    }
    return acc;
}"""

#: an ordered CIR loop with an exit (xloop.or.de): younger iterations
#: parked on the CIB are discarded when an older one exits
_OR_DE = """
int k(int* a, int* b, int n, int limit) {
    int acc = 0;
    #pragma xloops ordered
    for (int i = 0; i < n; i++) {
        acc = (acc * 3) + a[i];
        b[i] = acc;
        if (acc > limit) { break; }
    }
    return acc;
}"""

#: four stores per iteration into a two-entry store LSQ: speculative
#: iterations park until the commit token reaches them (xloop.om)
_LSQ_OM = """
void k(int* a, int* b, int n) {
    #pragma xloops ordered
    for (int i = 1; i < n; i++) {
        int t = a[i-1];
        b[4*i] = t; b[4*i+1] = t + 1; b[4*i+2] = t + 2; b[4*i+3] = t + 3;
        a[i] = a[i] + 1;
    }
}"""

#: the same LSQ pressure under control speculation (xloop.uc.de): the
#: parked iterations are discarded by an older iteration's exit
_LSQ_DE = """
int k(int* a, int* b, int n, int limit) {
    int r = -1;
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        int t = a[i];
        b[4*i] = t; b[4*i+1] = t + 1; b[4*i+2] = t + 2; b[4*i+3] = t + 3;
        if (t > limit) { r = i; break; }
    }
    return r;
}"""

#: two divides per iteration on one shared LLFU: lanes sleep until it
#: frees
_LLFU_UC = """
void k(int* a, int* b, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        b[i] = (a[i] / 3) + (a[i] / 7);
    }
}"""


class _PathSpy:
    """Counts the parking paths an LPSU run takes, by wrapping the
    helpers every path goes through (the engine binds them at make
    time, so it is seen too)."""

    def __init__(self, monkeypatch):
        self.paths = collections.Counter()
        self._where = []
        for name, tag in (("_end_iteration", "pass-through"),
                          ("_publish_cir", "interp-publish"),
                          ("_squash", "squash"),
                          ("_discard_younger", "discard"),
                          ("_retire_iteration", "commit-token")):
            self._mark(monkeypatch, name, tag)
        spy = self
        wake_cib = LPSU._wake_cib
        unpark = LPSU._unpark
        wake = LPSU._wake
        stall_one = LPSU._stall_one

        def _wake_cib(self, cir, k, avail):
            if (cir, k) in self._cib_waiters:
                tags = [t for t in spy._where
                        if t in ("pass-through", "interp-publish")]
                spy.paths["cib woken by %s" % (tags[0] if tags
                                               else "engine")] += 1
            return wake_cib(self, cir, k, avail)

        def _unpark(self, ctx, cycle):
            spy.paths["%s waiter %s" % (ctx.stall_kind,
                                        spy._where[-1])] += 1
            return unpark(self, ctx, cycle)

        def _wake(self, ctx, at):
            if spy._where and spy._where[-1] == "commit-token":
                spy.paths["%s woken by commit token"
                          % ctx.stall_kind] += 1
            return wake(self, ctx, at)

        def _stall_one(self, ctx, cycle, kind):
            if kind == "llfu" and self._park_llfu:
                spy.paths["llfu sleeper"] += 1
            return stall_one(self, ctx, cycle, kind)

        monkeypatch.setattr(LPSU, "_wake_cib", _wake_cib)
        monkeypatch.setattr(LPSU, "_unpark", _unpark)
        monkeypatch.setattr(LPSU, "_wake", _wake)
        monkeypatch.setattr(LPSU, "_stall_one", _stall_one)

    def _mark(self, monkeypatch, name, tag):
        real = getattr(LPSU, name)
        where = self._where

        def marked(self, *args):
            where.append(tag)
            try:
                return real(self, *args)
            finally:
                where.pop()
        monkeypatch.setattr(LPSU, name, marked)


def _run(source, args, init, lpsu, backend, engine=True):
    mem = Memory()
    for base, words in init:
        mem.write_words(base, [v & MASK32 for v in words])
    sim = SystemSimulator(compile_source(source).program,
                          SystemConfig("t", IO, lpsu), mem=mem,
                          backend=backend)
    sim._use_engine = engine
    r = sim.run(entry="k", args=args, mode="specialized")
    assert r.specialized_invocations
    return (r.cycles, repr(r.lpsu_stats), dict(vars(r.events)),
            r.return_value), mem


def _paths(monkeypatch, source, args, init, lpsu=LPSUConfig(),
           engine=True):
    """Run *source* on the fused rung under the path spy; assert it
    equals interp; return the paths it took."""
    ref, ref_mem = _run(source, args, init, lpsu, "interp")
    spy = _PathSpy(monkeypatch)
    got, mem = _run(source, args, init, lpsu, "fused", engine)
    monkeypatch.undo()
    assert got == ref
    assert mem.pages_equal(ref_mem)
    return spy.paths


class TestCIBWaiters:
    def test_woken_by_an_engine_publish(self, monkeypatch):
        paths = _paths(monkeypatch, _MUL_OR, [A, B, N, 1], [(A, _DATA)])
        assert paths["cib woken by engine"]

    def test_woken_by_an_interpreted_step_publish(self, monkeypatch):
        # no compiled engine: the interpreted stepper publishes, with
        # parking on as on every fast-path run
        paths = _paths(monkeypatch, _MUL_OR, [A, B, N, 1], [(A, _DATA)],
                       engine=False)
        assert paths["cib woken by interp-publish"]
        assert not paths["cib woken by engine"]

    @pytest.mark.parametrize("engine", (True, False))
    def test_woken_by_the_end_of_iteration_pass_through(
            self, monkeypatch, engine):
        paths = _paths(monkeypatch, _PASS_THROUGH_OR, [A, B, N, 1],
                       [(A, _ALT)], engine=engine)
        assert paths["cib woken by pass-through"]

    def test_squashed_while_parked(self, monkeypatch):
        paths = _paths(monkeypatch, _ORM, [A, B, N, 1], [(A, _DATA)])
        assert paths["stall_cib waiter squash"]

    def test_discarded_by_an_older_exit(self, monkeypatch):
        paths = _paths(monkeypatch, _OR_DE, [A, B, N, 200], [(A, _DATA)])
        assert paths["stall_cib waiter discard"]


class TestLSQWaiters:
    def test_woken_by_the_commit_token_or_squashed(self, monkeypatch):
        paths = _paths(monkeypatch, _LSQ_OM, [A, B, N], [(A, _DATA)],
                       LPSUConfig(lsq_stores=2))
        assert paths["stall_lsq woken by commit token"]
        assert paths["stall_lsq waiter squash"]

    def test_discarded_by_an_older_exit(self, monkeypatch):
        paths = _paths(monkeypatch, _LSQ_DE, [A, B, N, 9], [(A, _DATA)],
                       LPSUConfig(lsq_stores=2))
        assert paths["stall_lsq waiter discard"]

    def test_inter_lane_forwarding_keeps_polling(self, monkeypatch):
        # another lane's store buffer can end the wait: no parking
        paths = _paths(monkeypatch, _LSQ_OM, [A, B, N], [(A, _DATA)],
                       LPSUConfig(lsq_stores=2,
                                  inter_lane_forwarding=True))
        assert not any(k.startswith("stall_lsq") for k in paths)


class TestLLFUSleepers:
    def test_sleep_until_the_earliest_unit_frees(self, monkeypatch):
        paths = _paths(monkeypatch, _LLFU_UC, [A, B, N], [(A, _DATA)],
                       LPSUConfig(llfus=1))
        assert paths["llfu sleeper"]

    def test_two_contexts_per_lane_keep_polling(self, monkeypatch):
        # the other context of the lane may take the issue slot
        paths = _paths(monkeypatch, _LLFU_UC, [A, B, N], [(A, _DATA)],
                       LPSUConfig(llfus=1, threads_per_lane=2))
        assert not paths["llfu sleeper"]


class TestLaneCycleIdentity:
    """Busy plus every stall bucket fits in ``exec_cycles`` x contexts
    on every LPSU invocation, so ``LPSU.run`` never clamps ``idle``.
    Parking and run-ahead charge stall cycles ahead of time; this pins
    that the charges still land inside the run."""

    _BUCKETS = ("busy", "stall_raw", "stall_memport", "stall_llfu",
                "stall_cib", "stall_lsq", "stall_commit", "stall_branch")

    @pytest.mark.parametrize("backend", ("interp", "fused"))
    def test_table2_points_at_tiny_scale(self, monkeypatch, backend):
        seen = []
        real_run = LPSU.run
        buckets = self._BUCKETS

        def run(self, *args, **kwargs):
            res = real_run(self, *args, **kwargs)
            st = res.stats
            seen.append((sum(getattr(st, b) for b in buckets),
                         st.exec_cycles * len(self.contexts)))
            return res

        monkeypatch.setattr(LPSU, "run", run)
        for spec in TABLE2_KERNELS:
            program = compile_source(spec.source).program
            for name in configs.XLOOPS_NAMES:
                for mode in ("specialized", "adaptive"):
                    mem = Memory()
                    args = spec.workload("tiny", 0).apply(mem)
                    simulate(program, configs.config(name),
                             entry=spec.entry, args=args, mem=mem,
                             mode=mode, backend=backend)
                    over = [s for s in seen if s[0] > s[1]]
                    assert not over, (spec.name, name, mode, over)
        assert len(seen) > 150


class TestMultiCIRLoops:
    @pytest.mark.parametrize("update", OR_MULTI_UPDATES)
    def test_ladder_bit_identical(self, update):
        # several CIB channels per iteration, conditional writes and
        # pass-through wakes, on every tier of the ladder
        source = or_multi_source(update)

        def make_args(mem):
            mem.write_words(A, [v & MASK32 for v in _ALT])
            return [A, B, N, 5]

        res = check_ladder("or-multi", compile_source(source).program,
                           "k", make_args, sweep=(LPSUConfig(),),
                           adaptive=False)
        assert res.ok, res.detail


#: lane-private runs: an inner compute loop (a compiled ``while``), RAW
#: waits on a load and on a divide between private ops, and branches
_RUN_AHEAD_UC = """
void k(int* a, int* b, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        int x = a[i];
        int y = x + 7;
        for (int j = 0; j < (x & 7); j++) { y = (y << 1) ^ (y >> 3); }
        int q = y / 5;
        if (q > 40) { q = q - y; } else { q = q + 3; }
        b[i] = q + (y & 255);
    }
}"""


class TestRunAhead:
    @pytest.mark.parametrize("lpsu", LADDER_SWEEP)
    def test_matches_interp(self, lpsu):
        ref, ref_mem = _run(_RUN_AHEAD_UC, [A, B, N], [(A, _DATA)], lpsu,
                            "interp")
        got, mem = _run(_RUN_AHEAD_UC, [A, B, N], [(A, _DATA)], lpsu,
                        "fused")
        assert got == ref
        assert mem.pages_equal(ref_mem)

    def test_budget_stops_are_schedule_identical(self, monkeypatch):
        # a run-ahead cut short at a leader resumes there next step
        monkeypatch.setattr(fusion, "_LPSU_RUN_CAP", 2)
        monkeypatch.setattr(fusion, "_LPSU_MAKE_CACHE", {})
        for source in (_RUN_AHEAD_UC, _MUL_OR):
            ref, ref_mem = _run(source, [A, B, N, 1], [(A, _DATA)],
                                LPSUConfig(), "interp")
            got, mem = _run(source, [A, B, N, 1], [(A, _DATA)],
                            LPSUConfig(), "fused")
            assert got == ref
            assert mem.pages_equal(ref_mem)
