"""Long branchy/aperiodic kernels.

The :mod:`sources_turbo` kernels are deliberately branch-free so their
iteration schedules repeat.  These are the opposite shape: long
``xloop.uc`` loops whose bodies take data-dependent branches on
effectively random inputs, so no two consecutive iterations share a
schedule.  They are ordinary registered kernels: the prover certifies
their pragmas and the backend-ladder conformance sweep covers them,
alongside the Table II irregulars (hsort-ua, bfs-uc, ssearch-de).

Both bodies are integer-only and register-private between their load
and store, so the dependence prover certifies the ``unordered`` pragma
exactly like any other elementwise loop.
"""

from __future__ import annotations

from .base import KernelSpec, Workload, region, rng_for, scale_select

MASK32 = 0xFFFFFFFF


def _s32(v):
    v &= MASK32
    return v - (1 << 32) if v & 0x80000000 else v

# ---------------------------------------------------------------------------
# bmix-uc: branchy integer mixing (hash-like avalanche with data-
# dependent arms; the Collatz-style odd/even split keeps the branch
# history aperiodic for any non-degenerate input)
# ---------------------------------------------------------------------------

BMIX_SRC = """
void bmix(int* x, int* z, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        int a = x[i] ^ 23456;
        a = a + (a << 3);
        a = a ^ (a >> 5);
        if ((a & 1) == 1) { a = a * 3 + 1; } else { a = a >> 1; }
        if (a < 0) { a = 0 - a; }
        a = a + (a << 2);
        a = a ^ (a >> 7);
        if ((a & 15) == 7) { a = a + x[i]; }
        z[i] = a;
    }
}
"""


def _bmix_ref(xv):
    a = _s32(xv ^ 23456)
    a = _s32(a + _s32(a << 3))
    a = _s32(a ^ (a >> 5))
    if a & 1:
        a = _s32(a * 3 + 1)
    else:
        a = a >> 1
    if a < 0:
        a = _s32(-a)
    a = _s32(a + _s32(a << 2))
    a = _s32(a ^ (a >> 7))
    if (a & 15) == 7:
        a = _s32(a + _s32(xv))
    return a & MASK32


def _bmix_make(scale, seed):
    n = scale_select(scale, 48, 4096, 131072)
    rng = rng_for(seed, "bmix")
    x = [rng.randrange(1 << 32) for _ in range(n)]
    # 131072 words fill two region slots each at large scale
    xa, za = region(0), region(2)

    def init(mem):
        mem.write_words(xa, x)

    def verify(mem):
        got = mem.read_words(za, n)
        for i in range(n):
            assert got[i] == _bmix_ref(_s32(x[i])), i

    return Workload(args=[xa, za, n], init=init, verify=verify)


BMIX = KernelSpec(
    name="bmix-uc", suite="C", loop_types=("uc",),
    source=BMIX_SRC, entry="bmix", make=_bmix_make,
    description="branchy integer mixing (aperiodic branch history)")

# ---------------------------------------------------------------------------
# qclip-uc: piecewise-linear companding clip (sign split + two
# data-dependent knees, like a soft audio limiter)
# ---------------------------------------------------------------------------

QCLIP_SRC = """
void qclip(int* x, int* z, int n, int lo, int hi) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        int v = x[i];
        int m = 0;
        if (v < 0) { v = 0 - v; m = 1; }
        if (v > hi) { v = hi + ((v - hi) >> 4); }
        if (v > lo) { v = lo + ((v - lo) >> 1); }
        v = v + (v << 1) + 9;
        v = v ^ (v >> 3);
        if (m == 1) { v = 0 - v; }
        z[i] = v;
    }
}
"""

_QCLIP_LO = 6000
_QCLIP_HI = 24000


def _qclip_ref(xv, lo, hi):
    v = xv
    m = 0
    if v < 0:
        v = _s32(-v)
        m = 1
    if v > hi:
        v = _s32(hi + ((v - hi) >> 4))
    if v > lo:
        v = _s32(lo + ((v - lo) >> 1))
    v = _s32(v + _s32(v << 1) + 9)
    v = _s32(v ^ (v >> 3))
    if m == 1:
        v = _s32(-v)
    return v & MASK32


def _qclip_make(scale, seed):
    n = scale_select(scale, 48, 4096, 131072)
    rng = rng_for(seed, "qclip")
    x = [rng.randrange(-(1 << 16), 1 << 16) for _ in range(n)]
    # 131072 words fill two region slots each at large scale
    xa, za = region(0), region(2)

    def init(mem):
        mem.write_words(xa, [v & MASK32 for v in x])

    def verify(mem):
        got = mem.read_words(za, n)
        for i in range(n):
            assert got[i] == _qclip_ref(x[i], _QCLIP_LO, _QCLIP_HI), i

    return Workload(args=[xa, za, n, _QCLIP_LO, _QCLIP_HI],
                    init=init, verify=verify)


QCLIP = KernelSpec(
    name="qclip-uc", suite="C", loop_types=("uc",),
    source=QCLIP_SRC, entry="qclip", make=_qclip_make,
    description="piecewise-linear companding clip (branchy stream)")

#: the vector-backend benchmark kernels
VECTOR_KERNELS = (BMIX, QCLIP)
