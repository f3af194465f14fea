"""Turbo-backend edge cases.

The turbo tier batches steady-state iterations through compiled
segment replay, so its riskiest inputs are the ones where the steady
state is short, broken, or never reached: trip counts below the
detection window, a data-dependent ``xloop.break`` firing after the
schedule settled, adaptive-mode migrations, and branchy kernels whose
schedule never repeats.  In every one of those turbo must degrade
gracefully and stay bit-identical to the reference interpreter.

The cache-key tests pin the other half of the contract: one cached
record serves every rung, while ``verify=True`` always runs on the
interp tier and is never served from (or stored to) the result caches.
"""

import pytest

from repro.eval import diskcache, runner
from repro.kernels import get_kernel
from repro.lang import compile_source
from repro.sim import Memory
from repro.sim.backends import resolve_backend
from repro.uarch import IO, LPSUConfig, SystemConfig, simulate
from repro.uarch.system import SystemSimulator

_STREAM_SRC = """
void vvadd(int* x, int* y, int* z, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        z[i] = x[i] + y[i];
    }
}
"""

_FIND_SRC = """
int find(int* x, int n) {
    int hit = 0 - 1;
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        if (x[i] == 12345) {
            hit = i;
            break;
        }
    }
    return hit;
}
"""


def _config():
    return SystemConfig("t", IO, LPSUConfig())


def _identical(a, b):
    (ra, ma), (rb, mb) = a, b
    assert ra.cycles == rb.cycles
    assert ra.return_value == rb.return_value
    assert repr(ra.lpsu_stats) == repr(rb.lpsu_stats)
    assert dict(vars(ra.events)) == dict(vars(rb.events))
    assert ma.pages_equal(mb)


def _stream_run(backend, n):
    program = compile_source(_STREAM_SRC).program
    mem = Memory()
    xa, ya, za = 0x100000, 0x140000, 0x180000
    mem.write_words(xa, [(3 * i + 1) & 0xFFFFFFFF for i in range(n)])
    mem.write_words(ya, [(7 * i) & 0xFFFFFFFF for i in range(n)])
    r = simulate(program, _config(), entry="vvadd",
                 args=(xa, ya, za, n), mem=mem, mode="specialized",
                 backend=backend)
    return r, mem


def _kernel_run(name, backend, mode="specialized", **kw):
    spec = get_kernel(name)
    program = compile_source(spec.source).program
    mem = Memory()
    args = spec.workload("tiny", 0).apply(mem)
    r = simulate(program, _config(), entry=spec.entry, args=args,
                 mem=mem, mode=mode, backend=backend, **kw)
    return r, mem


class TestShortAndBrokenSteadyState:
    @pytest.mark.parametrize("n", (1, 2, 5, 8, 16, 48))
    def test_trip_count_below_detection_window(self, n):
        # too few iterations for the memo to anchor (or to anchor more
        # than once): turbo must not replay garbage, just match interp
        _identical(_stream_run("turbo", n), _stream_run("interp", n))

    def test_xbreak_after_steady_state(self):
        # the needle sits at 3/4 of a long stream: the schedule
        # reaches steady state, gets batch-replayed, and then the
        # data-dependent exit fires mid-window
        program = compile_source(_FIND_SRC).program
        n, needle_at = 2048, 1536
        results = []
        for backend in ("turbo", "interp"):
            mem = Memory()
            xa = 0x100000
            data = [(5 * i + 2) & 0x3FFFFFFF for i in range(n)]
            data[needle_at] = 12345
            mem.write_words(xa, data)
            r = simulate(program, _config(), entry="find",
                         args=(xa, n), mem=mem, mode="specialized",
                         backend=backend)
            results.append((r, mem))
        _identical(results[0], results[1])
        assert results[0][0].return_value == needle_at

    def test_adaptive_mode_identical_across_backends(self):
        # adaptive dispatch migrates a loop between the GPP and the
        # LPSU mid-run (changing the active lane count under the
        # memo's feet); decisions and timing must not depend on the
        # backend tier
        turbo = _kernel_run("war-om", "turbo", mode="adaptive")
        interp = _kernel_run("war-om", "interp", mode="adaptive")
        assert dict(turbo[0].adaptive_decisions)
        assert dict(turbo[0].adaptive_decisions) \
            == dict(interp[0].adaptive_decisions)
        _identical(turbo, interp)

    def test_branchy_kernel_degrades_to_fused(self):
        # rgb2cmyk's per-pixel max() branches make the iteration
        # schedule aperiodic: the turbo memo goes dead and the run
        # must still be bit-identical (effectively the fused tier)
        _identical(_kernel_run("rgb2cmyk-uc", "turbo"),
                   _kernel_run("rgb2cmyk-uc", "interp"))


class TestBackendSelection:
    def test_verify_forces_interp(self):
        spec = get_kernel("sgemm-uc")
        program = compile_source(spec.source).program
        sim = SystemSimulator(program, _config(), verify=True,
                              backend="turbo")
        assert sim.backend == "interp"
        assert not sim.fast

    def test_auto_is_fused(self):
        # turbo stays selectable by name only: the default is fused,
        # whichever rungs this host could run
        assert resolve_backend("auto").name == "fused"
        assert resolve_backend(None).name == "fused"
        assert resolve_backend("turbo").name == "turbo"


@pytest.fixture
def own_disk_cache(tmp_path, monkeypatch):
    """An empty disk cache of this test's own, forced on even under
    the hermetic-CI ``REPRO_NO_CACHE=1`` environment."""
    monkeypatch.delenv(diskcache.ENV_NO_CACHE, raising=False)
    monkeypatch.setattr(diskcache, "_force_disabled", False)
    monkeypatch.setattr(diskcache, "_dir_override", str(tmp_path))
    monkeypatch.setenv(diskcache.ENV_CACHE_DIR, str(tmp_path))
    runner.clear_cache()   # also drops the decoded-record hot tier
    yield
    runner.clear_cache(keep_disk=True)


class TestCacheKeys:
    def test_one_record_serves_every_rung(self, own_disk_cache):
        # the rungs are bit-identical (verify --ladder), so neither key
        # names the rung: one simulation and one record serve them all
        point = dict(mode="specialized", scale="tiny")
        before = runner.simulations
        first = runner.run("vvadd-uc", "io+x", backend="fused", **point)
        assert runner.simulations == before + 1
        runner.clear_cache(keep_disk=True)
        for backend in ("interp", "turbo", "auto"):
            r = runner.run("vvadd-uc", "io+x", backend=backend, **point)
            assert r.cycles == first.cycles
        assert runner.simulations == before + 1
        assert diskcache.disk_stats()["records"] == 1

    def test_memo_serves_every_rung(self):
        # the in-process memo key omits the rung too: with the disk
        # cache bypassed, the memo alone serves the other rungs
        runner.clear_cache(keep_disk=True)
        point = dict(mode="specialized", scale="tiny",
                     use_disk_cache=False)
        before = runner.simulations
        first = runner.run("vvadd-uc", "io+x", backend="fused", **point)
        assert runner.simulations == before + 1
        for backend in ("interp", "turbo", "auto"):
            r = runner.run("vvadd-uc", "io+x", backend=backend, **point)
            assert r is first
        assert runner.simulations == before + 1
        runner.clear_cache(keep_disk=True)

    def test_verified_run_never_served_from_cache(self):
        runner.clear_cache(keep_disk=True)
        before = runner.simulations
        common = dict(mode="specialized", scale="tiny",
                      use_disk_cache=False)
        runner.run("vvadd-uc", "io+x", **common)
        assert runner.simulations == before + 1
        # a verified run must re-simulate (on interp) even though an
        # unverified result for the same point is already memoized...
        r = runner.run("vvadd-uc", "io+x", verify=True, **common)
        assert runner.simulations == before + 2
        assert r.cycles > 0
        # ...and must not have poisoned the cache for later requests
        runner.run("vvadd-uc", "io+x", verify=True, **common)
        assert runner.simulations == before + 3
        runner.clear_cache(keep_disk=True)
