"""Iteration-schedule memoization for the LPSU (the fast path's
second level, above basic-block fusion).

XLOOPS loops are highly regular: once an ``xloop.uc`` reaches steady
state, each group of ``lanes`` iterations (an *epoch*) repeats the same
schedule — same per-lane instruction interleaving, same RAW/structural
stalls, same retire pattern — shifted in time.  The LPSU records one
epoch's worth of scheduling *actions* (executed slots, taken-branch
path, memory accesses with their hit/miss outcomes, structural stalls,
iteration begin/retire events) keyed by a **relative signature** of the
machine state at the epoch boundary, and on a later signature match
replays the recorded actions instead of re-running the per-cycle
scan/sort/step machinery.

Correctness model — replay is *apply-with-live-outcomes*, not blind
fast-forward:

* Register values are deliberately absent from the signature: replay
  executes every recorded slot's real handler against live registers
  and memory, so architectural state is exact by construction.
* Data-dependent outcomes (branch direction, cache hit/miss) are
  produced live and *validated* against the recording.  On the first
  mismatch the diverging action has already been applied exactly as
  the slow path would have applied it, so the LPSU finishes that cycle
  with the ordinary per-context stepper and resumes slow execution —
  no state is ever rolled back, and no recorded state is ever trusted
  over live state.
* Eligibility is restricted to patterns whose scheduling cannot be
  affected by other lanes mid-flight: single-threaded ``xloop.uc``
  (optionally ``.db``-less), no CIB traffic, no LSQ/commit machinery,
  no inter-lane forwarding, no AMOs, no indirect jumps, and no
  tracing/monitoring/``max_iters`` (profiling needs exact per-cycle
  observation).  Everything else takes the slow path unchanged.

The cycle/energy/stat deltas therefore come out bit-identical to the
slow path; ``repro verify --ladder`` enforces this empirically over the
kernel suite and generated loops, through its ``turbo`` tier and its
``fused-noengine`` tier (the ``fused`` rung uses this memo only when
the compiled LPSU engine is unavailable).
"""

from __future__ import annotations

#: "asleep" sentinel for ready_at — far beyond any reachable cycle
FAR_FUTURE = 1 << 60

#: give up recording for a loop whose signatures never repeat
_DEAD_MISSES = 16
#: give up when replays keep diverging instead of completing
_DEAD_ABORTS = 64
#: keep at most this many segments per static xloop
_MAX_SEGMENTS = 64
#: refuse to memoize long epochs — a short-body loop's epoch is a few
#: hundred actions; anything bigger never repays the recording tax
_MAX_ENTRIES = 4096


class Segment:
    """One recorded anchor-to-anchor schedule.

    ``cycles`` is a tuple of ``(cycle_delta, actions)`` groups;
    ``end_sig`` keys the state at the segment's end so consecutive
    steady-state segments chain without recomputing signatures.
    """

    __slots__ = ("cycles", "n_cycles", "n_begins", "end_sig")

    def __init__(self, cycles, n_cycles, n_begins, end_sig):
        self.cycles = cycles
        self.n_cycles = n_cycles
        self.n_begins = n_begins
        self.end_sig = end_sig


class ScheduleMemo:
    """Per-static-xloop memo table, shared across specialized
    invocations of the same loop by the owning SystemSimulator."""

    __slots__ = ("table", "hits", "misses", "aborts", "body_ok", "dead")

    # tuning knobs, read through the instance so subclasses (the turbo
    # backend's TurboMemo) can raise them without touching this module
    max_entries = _MAX_ENTRIES
    max_segments = _MAX_SEGMENTS
    dead_misses = _DEAD_MISSES
    dead_aborts = _DEAD_ABORTS

    def __init__(self):
        self.table = {}
        self.hits = 0        # segments replayed to completion
        self.misses = 0      # segments recorded (no hit at that anchor)
        self.aborts = 0      # replays abandoned on live divergence
        self.body_ok = None  # lazily-computed body eligibility
        # set when recording keeps paying and replay never fires (many
        # stored-but-never-matched segments, or one over-long epoch):
        # all future anchors of this static loop then skip memoization
        self.dead = False

    # -- signatures -----------------------------------------------------

    @staticmethod
    def signature(lpsu, cycle):
        """Schedule-relevant machine state, relative to *cycle* and to
        the next iteration index.

        Per context (in lane order): iteration offset ``k - next_k``
        (``None`` when inactive), body pc, wake-up offset, and the
        scoreboard's still-pending entries as ``(reg, offset)`` pairs
        (pending long-latency writebacks survive retirement and gate
        future RAW checks, so inactive contexts keep theirs too; the
        sparse form hashes cheaply because it is usually empty).
        Register *values* are intentionally excluded — see the module
        docstring.
        """
        parts = []
        nk = lpsu._next_k
        for ctx in lpsu.contexts:
            rdy = tuple((j, t - cycle)
                        for j, t in enumerate(ctx.ready) if t > cycle)
            if ctx.active:
                ra = ctx.ready_at - cycle
                parts.append((ctx.k - nk, ctx.pc_index,
                              ra if ra > 0 else 0, rdy))
            else:
                parts.append((None, 0, 0, rdy))
        parts.append(tuple((t - cycle) if t > cycle else 0
                           for t in lpsu._llfu_free))
        return tuple(parts)

    # -- recording ------------------------------------------------------

    def finalize(self, lpsu, cycle):
        """Close the LPSU's active recording; returns the end-state
        signature (which doubles as the next anchor's lookup key).

        A segment is only stored when at least one iteration remains
        at its end: remaining-work only decreases within a run, so
        this guarantees no iteration-begin was ever *denied* during
        the recorded span — replay (pre-checked against remaining
        work) can then trust every recorded begin.
        """
        entries = lpsu._rec
        lpsu._rec = None
        end_sig = self.signature(lpsu, cycle)
        start_sig = lpsu._rec_sig
        n_cycles = cycle - lpsu._rec_cycle0
        n_begins = lpsu._next_k - lpsu._rec_k0
        remaining = lpsu.bound - lpsu.start_idx - lpsu._next_k
        if (n_cycles > 0 and remaining >= 1
                and len(entries) <= self.max_entries
                and start_sig not in self.table):
            groups = []
            cur_c = None
            cur = None
            for e in entries:
                c = e[1]
                if c != cur_c:
                    cur = []
                    groups.append((c - lpsu._rec_cycle0, cur))
                    cur_c = c
                cur.append(e)
            if len(self.table) >= self.max_segments:
                self.table.clear()
            self.table[start_sig] = Segment(
                tuple((dc, tuple(ops)) for dc, ops in groups),
                n_cycles, n_begins, end_sig)
            self.misses += 1
            if self.misses >= self.dead_misses and self.hits == 0:
                self.dead = True
        return end_sig

    # -- replay hooks ---------------------------------------------------

    def compiled(self, lpsu, sig, seg):
        """Compiled batch replay for *seg*: returns ``(fn, segment)``
        — where *segment* may be a substitute covering several chained
        recordings (a phase-cycle composite) — or None to use the
        interpreted :meth:`~repro.uarch.lpsu.LPSU._replay_segment` on
        *seg* itself.  The base memo never compiles; the turbo
        backend's TurboMemo overrides this."""
        return None
