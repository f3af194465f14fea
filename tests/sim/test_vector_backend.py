"""Vector-backend edge cases.

The vector tier batches whole blocks of iterations through numpy
array programs, so its riskiest inputs are the ones that break the
batch: branch divergence collapsing the active mask mid-block, a
data-dependent ``xloop.break`` (statically ineligible -- the body
must fall back), trip counts below the block size or below the
engagement floor, and hosts without numpy (where ``auto`` must
quietly top out at turbo).  In every case the run must stay
bit-identical to the reference interpreter -- phase 1 is rolled back
on refusal, so not even final memory may differ.
"""

import pytest

from repro.kernels import get_kernel
from repro.lang import compile_source
from repro.sim import Memory
from repro.sim import backends as backends_mod
from repro.sim import vector as vector_mod
from repro.sim.backends import resolve_backend
from repro.uarch import IO, LPSUConfig, SystemConfig, simulate

pytestmark = pytest.mark.skipif(not vector_mod.HAS_NUMPY,
                                reason="vector tier needs numpy")

_BRANCHY_SRC = """
void bmixy(int* x, int* z, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        int a = x[i] ^ 9871;
        if ((a & 1) == 1) { a = a * 3 + 1; } else { a = a >> 1; }
        if (a < 0) { a = 0 - a; }
        z[i] = a + i;
    }
}
"""

_SPIN_SRC = """
void spin(int* x, int* z, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        int t = x[i];
        int a = 0;
        while (t > 0) { a = a + t; t = t - 1; }
        z[i] = a;
    }
}
"""

_FIND_SRC = """
int find(int* x, int n) {
    int hit = 0 - 1;
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        if (x[i] == 777) {
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


def _run_src(src, entry, backend, n, data=None):
    program = compile_source(src).program
    mem = Memory()
    xa, za = 0x100000, 0x180000
    words = data if data is not None \
        else [(1103515245 * i + 12345) & 0xFFFFFFFF for i in range(n)]
    mem.write_words(xa, words)
    vector_mod.clear()
    args = (xa, n) if entry == "find" else (xa, za, n)
    r = simulate(program, _config(), entry=entry, args=args, mem=mem,
                 mode="specialized", backend=backend)
    return r, mem


def _kernel_run(name, backend, scale="tiny"):
    spec = get_kernel(name)
    program = compile_source(spec.source).program
    mem = Memory()
    args = spec.workload(scale, 0).apply(mem)
    vector_mod.clear()
    r = simulate(program, _config(), entry=spec.entry, args=args,
                 mem=mem, mode="specialized", backend=backend)
    return r, mem


class TestBatchBoundaries:
    # the rotated loop peels its first iteration onto the GPP (the
    # xloop sits at the loop bottom), so the batched trip is n - 1
    @pytest.mark.parametrize("n", (65, 100, 256, 257, 500, 513))
    def test_trip_below_and_across_block_size(self, n):
        # partial blocks, exact blocks, and block+1 tails must all
        # replay bit-identically (every n here clears the trip floor)
        vec = _run_src(_BRANCHY_SRC, "bmixy", "vector", n)
        assert vec[0].backend_stats.get("vector_iterations") == n - 1
        _identical(vec, _run_src(_BRANCHY_SRC, "bmixy", "interp", n))

    def test_trip_below_engagement_floor(self):
        # below MIN_TRIP the per-iteration replay overhead beats the
        # batch win: the engine must decline (without dying) and the
        # invocation runs on the turbo path underneath
        n = vector_mod.MIN_TRIP
        vec = _run_src(_BRANCHY_SRC, "bmixy", "vector", n)
        assert vec[0].backend_stats.get("vector_iterations", 0) == 0
        assert vec[0].backend_stats.get("vector_dead", 0) == 0
        _identical(vec, _run_src(_BRANCHY_SRC, "bmixy", "interp", n))

    def test_min_trip_override(self, monkeypatch):
        monkeypatch.setattr(vector_mod, "MIN_TRIP", 1)
        n = 8
        vec = _run_src(_BRANCHY_SRC, "bmixy", "vector", n)
        assert vec[0].backend_stats.get("vector_iterations") == n - 1
        _identical(vec, _run_src(_BRANCHY_SRC, "bmixy", "interp", n))


class TestDivergenceAndFallback:
    def test_mask_collapse_mid_block(self):
        # one lane spins 200k inner iterations while the rest of the
        # block retires immediately: utilization falls through the
        # floor, phase 1 refuses, and the rollback must leave no trace
        # -- cycles, events, and memory all match interp
        n = 65
        data = [1] * n
        data[3] = 200_000
        vec = _run_src(_SPIN_SRC, "spin", "vector", n, data)
        assert vec[0].backend_stats.get("vector_refusals") == 1
        assert vec[0].backend_stats.get("vector_dead") == 1
        _identical(vec, _run_src(_SPIN_SRC, "spin", "interp", n, data))

    def test_xbreak_in_batch_falls_back(self):
        # a data-dependent exit can cut a batch short at any lane: the
        # body is statically ineligible for batching, and the vector
        # rung must run it exactly as turbo/interp would
        n = 512
        data = [(4 * i + 2) & 0x3FFFFFFF for i in range(n)]  # all even
        data[300] = 777
        vec = _run_src(_FIND_SRC, "find", "vector", n, data)
        assert vec[0].return_value == 300
        assert "vector_iterations" not in vec[0].backend_stats
        _identical(vec, _run_src(_FIND_SRC, "find", "interp", n, data))

    @pytest.mark.parametrize("kernel", (
        "bmix-uc",          # uc: unordered concurrent
        "adpcm-or",         # or: ordered through registers
        "dynprog-om",       # om: ordered through memory
        "btree-ua",         # ua: unordered atomic
        "qsort-uc-db",      # db: dynamic-bound worklist
    ))
    def test_bit_identity_across_dependence_patterns(self, kernel,
                                                     monkeypatch):
        # every Table I dependence pattern through the vector rung:
        # uc engages the batcher, the rest must take the honest
        # fallback -- all bit-identical to the reference interpreter
        monkeypatch.setattr(vector_mod, "MIN_TRIP", 1)
        _identical(_kernel_run(kernel, "vector"),
                   _kernel_run(kernel, "interp"))


class TestBackendSelection:
    def test_numpy_absent_demotes_auto_to_turbo(self, monkeypatch):
        monkeypatch.setattr(backends_mod, "_have_numpy", lambda: False)
        assert resolve_backend("auto").name == "turbo"
        # an explicit request must fail loudly, not degrade silently
        with pytest.raises(ValueError):
            resolve_backend("vector")

    def test_engagement_counters_in_backend_stats(self):
        n = 300
        r, _ = _run_src(_BRANCHY_SRC, "bmixy", "vector", n)
        bs = r.backend_stats
        assert bs["vector_invocations"] == 1
        assert bs["vector_iterations"] == n - 1
        assert bs["vector_refusals"] == 0
        assert bs["vector_dead"] == 0
