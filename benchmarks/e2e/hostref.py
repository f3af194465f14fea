"""Host-speed reference: scales measured times to a nominal host speed.

A shared host's speed drifts by a third or more over seconds to
minutes, and every rep of a run drifts with it, so medians over a run
do not remove it.  A short fixed pure-Python loop, timed right before
and right after each measured segment, samples the host's speed at
that moment; a segment of ``s`` seconds between references ``a`` and
``b`` counts as ``s * NOMINAL_S / ((a + b) / 2)`` nominal seconds.

Like the simulator, the loop mixes interpreted integer, list and dict
work with scattered memory traffic: it writes a fresh 4 MiB buffer at
pseudo-random offsets, so it also pays the page faults and cache
misses a busy neighbour makes dearer.  The buffer is freed before the
measurement returns.  The loop is the benchmark's own code, so a
change to the program under test cannot move it.
"""

from __future__ import annotations

import time

#: loop iterations of one reference measurement (about 10 ms)
STEPS = 15000
#: the buffer the loop scatters its writes over
BUFFER_BYTES = 4 << 20
#: the measurement's median seconds, between chunks, on the
#: calibration host (README)
NOMINAL_S = 0.012


def measure():
    """Seconds the reference loop takes now."""
    mask = BUFFER_BYTES - 1
    t0 = time.perf_counter()
    buf = bytearray(BUFFER_BYTES)
    regs = [0] * 32
    seen = {}
    i = 0
    for k in range(STEPS):
        i = (i * 1103515245 + 12345) & mask
        v = (buf[i ^ 64] + k) & 255
        buf[i] = v
        r = k & 31
        regs[r] = (regs[r - 1] * 31 + v) & 0xFFFF
        seen[regs[r] & 255] = k
    del buf
    return time.perf_counter() - t0


class Clock:
    """Sums measured segments, raw and scaled to the nominal host
    speed, taking a reference before the first and after each one."""

    def __init__(self):
        self.ref = measure()
        self.refs = [self.ref]
        self.raw_s = 0.0
        self.nominal_s = 0.0

    def add(self, seconds):
        """Count a segment of *seconds* that ended just now."""
        ref = measure()
        self.raw_s += seconds
        self.nominal_s += seconds * NOMINAL_S / ((self.ref + ref) / 2)
        self.ref = ref
        self.refs.append(ref)
        return self
