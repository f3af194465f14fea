"""Turbo backend: compiled steady-state schedule replay.

The fast path's third tier (see :mod:`repro.sim.backends`).  The base
:class:`~repro.uarch.schedmemo.ScheduleMemo` replays recorded epoch
segments through an interpreted action loop; profiling shows that loop
is only ~2x faster than plain stepping because every action still pays
Python dispatch.  This module exec-compiles each recorded segment into
one straight-line batch function and — when a segment's end state
re-keys its own start state — replays *every remaining whole epoch of
the loop in a single call*.

Correctness model (extends the schedmemo contract):

* The generated code executes every recorded slot's real semantics
  against live registers and memory (the same inlined expressions the
  fusion engine uses), so architectural state is exact by construction.
* Data-dependent outcomes are validated live: every recorded branch
  direction becomes an ``if`` on the live condition, and every recorded
  cache hit/miss becomes an ``if`` on the live LRU set.  A divergence
  site first applies the diverging op exactly as the slow path would
  (actual direction, actual latency, actual LRU update), then flushes
  the partially-completed epoch's statistics and hands the diverged
  cycle to :meth:`~repro.uarch.lpsu.LPSU._replay_abort` — identical
  observable behaviour to the interpreted replayer's abort.
* Everything else about a matched schedule is compile-time
  deterministic: given the signature, the validated branches, and the
  validated miss outcomes, all stall spans, issue offsets, LLFU
  acquisition order and retire timing are fixed.  The generator
  re-derives them by statically walking the recording and refuses to
  compile (falling back to interpreted replay) on any inconsistency or
  on constructs outside the eligible pattern (e.g. ``xbreak``).

Signatures gain an address-phase term: the base signature omits cache
state, so a loop whose schedule self-loops but whose miss pattern has a
longer period (e.g. a byte-stream kernel missing every 32nd iteration)
would abort every replay.  Any constant-stride access stream's hit/miss
outcome is periodic in ``iteration mod line_bytes``, so TurboMemo keys
segments by ``(base signature, (start_idx + next_k) & (line_bytes-1))``
and the steady state closes into a proper segment cycle whose recorded
miss outcomes match.

TurboMemo instances persist process-wide keyed by loop content (body,
MIV table, configs, cache geometry), like the fusion engine's factory
cache: segments hold no values, only validated schedule structure, so
sharing them across invocations and simulators with equal content keys
is sound and lets later runs start in steady state immediately.
"""

from __future__ import annotations

import sys

from ..uarch.schedmemo import ScheduleMemo, Segment
from .fusion import _ctrl_of, _emit_sem
from .functional import _LOAD_SIZE, _STORE_SIZE, _fp_div, _muldiv
from .fusion import _fsqrt, _lpsu_content_key
from .memory import bits_to_f32, f32_to_bits, to_s32


#: word-aligned accesses go through a 32-bit memoryview cast of the
#: page; the cast uses native byte order, so the single-index fast
#: path is only emitted on little-endian hosts (the simulated machine
#: is little-endian)
_NATIVE_WORDS = sys.byteorder == "little"


def _word_view(pg):
    return memoryview(pg).cast("I")


class _Div(Exception):
    """Raised by generated code at a validation divergence site."""


class _Refuse(Exception):
    """Internal: segment cannot be compiled; use interpreted replay."""


# ---------------------------------------------------------------------------
# per-segment code generation
# ---------------------------------------------------------------------------

class _SegGen:
    """Compile one recorded segment into a batch replay function.

    The generated ``make(L)`` binds one LPSU's live state and returns
    ``seg(cyc0, reps) -> (completed, cycle)`` replaying *reps*
    back-to-back repetitions of the segment starting at *cyc0*.
    """

    def __init__(self, lpsu, sig, seg):
        self.L = lpsu
        self.sig = sig
        self.seg = seg

    # -- small helpers --------------------------------------------------

    @staticmethod
    def _rn(line, x):
        """Rename register-file references to context *x*'s array."""
        return line.replace("R[", "R%d[" % x)

    def _sem_lines(self, ins, x):
        tmp = []
        _emit_sem(tmp, ins)
        return [self._rn(ln, x) for ln in tmp]

    def _site(self, over_x, over):
        """Record a divergence site; returns its index.

        *over* holds the diverging context's post-divergence tracker
        values plus the stat partials its op contributed."""
        t = self.tot
        cnts = tuple((i, n) for i, n in enumerate(self.cnt) if n)
        rows = []
        for i in range(self.n_ctx):
            if not self.touched[i]:
                continue
            if i == over_x:
                rows.append((i, over["act"], over["ko"], over["pc"],
                             over["ra"], self.its[i], over["attd"]))
            else:
                rows.append((i, self.act[i], self.ko[i], self.pc[i],
                             self.ra[i], self.its[i], self.attd[i]))
        site = (t["busy"] + over.get("busy", 0),
                t["brs"] + over.get("brs", 0), t["raw"],
                t["mps"], t["lls"], t["iters"], t["idq"], t["mmul"],
                t["dca"] + over.get("dca", 0),
                t["dcm"] + over.get("dcm", 0),
                t["ch"] + over.get("ch", 0),
                t["cm"] + over.get("cm", 0),
                cnts, tuple(rows), self.grants + over.get("grant", 0),
                self.begins, t["ad"], self.dc,
                frozenset(self.retired) if self.retired else None)
        self.sites.append(site)
        return len(self.sites) - 1

    def _fixups(self, body, ind):
        """Emit scoreboard writes for the statically-tracked pending
        entries still live at the current cycle, so the abort path
        sees the exact ready times the slow path would have."""
        dc = self.dc
        for (x, reg), v in sorted(self.dmap.items()):
            if v > dc:
                body.append(ind + "D%d[%d] = _b + %d" % (x, reg, v))

    # -- the walk -------------------------------------------------------

    def _walk(self):
        """Statically walk the recording, emitting the hot-path body."""
        L = self.L
        sig = self.sig
        meta = L._meta
        pen = L.cfg.branch_penalty
        ports = L.cfg.mem_ports
        ccfg = L.cache.config
        hit_lat = ccfg.hit_latency
        miss_lat = ccfg.hit_latency + ccfg.miss_latency
        nsets = L.cache.num_sets
        lshift = L.cache._line_shift
        setbits = nsets.bit_length() - 1
        nways = ccfg.ways
        body_n = L._body_n
        base = L._body_base
        d = L.d
        self.mivs = mivs = sorted(
            (m.reg, m.increment) for m in d.mivt.values())
        n_ctx = self.n_ctx = len(L.contexts)
        if len(sig) < n_ctx + 1:
            raise _Refuse

        # trackers (all offsets relative to the repetition base _b,
        # iteration indices relative to the repetition's _k0)
        self.act = act = [False] * n_ctx
        self.ko = ko = [0] * n_ctx
        self.pc = pc = [0] * n_ctx
        self.ra = ra = [0] * n_ctx
        self.its = its = [None] * n_ctx
        self.attd = attd = [0] * n_ctx
        self.touched = touched = [False] * n_ctx
        # static scoreboard: (ctx, reg) -> pending writeback expiry
        # offset.  The signature pins every pending entry's offset, and
        # every in-segment write has a static latency, so ready times —
        # and therefore every raw-stall span — are fully determined at
        # compile time.  The hot path emits no scoreboard writes at
        # all: divergence sites re-materialize the entries still
        # pending at their cycle, and the epilogue writes the entries
        # pending past the segment end (validated against the end
        # signature below).
        self.dmap = dmap = {}
        for i in range(n_ctx):
            p = sig[i]
            if p[0] is not None:
                act[i] = True
                ko[i] = p[0]
                pc[i] = p[1]
                ra[i] = p[2]
            for reg, off in p[3]:
                dmap[(i, reg)] = off
        llfu = list(sig[n_ctx])
        self.tot = tot = {k: 0 for k in (
            "busy", "brs", "raw", "mps", "lls", "iters", "idq", "mmul",
            "dca", "dcm", "ch", "cm", "ad")}
        self.cnt = cnt = [0] * body_n
        self.sites = []
        self.pgregs = set()
        self.begins = 0
        self.any_br = False
        self.any_ret = False
        body = []
        I4 = "    "
        I5 = "     "
        E = body.append

        for dc, ops in self.seg.cycles:
            self.dc = dc
            self.grants = 0
            self.retired = set()
            for e in ops:
                tag = e[0]
                x = e[2]
                if not 0 <= x < n_ctx:
                    raise _Refuse
                if tag == "A":
                    slots, takens = e[3], e[4]
                    if not act[x] or pc[x] != slots[0] or ra[x] > dc:
                        raise _Refuse
                    touched[x] = True
                    off = 0
                    br = 0
                    for j, si in enumerate(slots):
                        if not 0 <= si < body_n:
                            raise _Refuse
                        mt = meta[si]
                        if mt[6] or mt[3] != 0 or mt[8] or mt[9] or mt[11]:
                            raise _Refuse  # xbreak/mem/llfu/CIR/bound
                        ins = mt[12]
                        tk = takens[j]
                        cnt[si] += 1
                        if mt[7]:             # branch / jump / xloop
                            ctrl = _ctrl_of(ins)
                            if ctrl is None:
                                raise _Refuse
                            if ctrl[0] == "jump":
                                if tk is not True or "_t" in ctrl[1]:
                                    raise _Refuse  # JALR excluded
                                for ln in ctrl[2]:
                                    E(I4 + self._rn(ln, x))
                                dst = mt[2]
                                if dst is not None:
                                    dmap[(x, dst)] = dc + off + 1
                                off += 1 + pen
                                br += pen
                                continue
                            if tk is None or mt[2] is not None:
                                raise _Refuse
                            cond = self._rn(ctrl[1], x)
                            # single possible divergence direction:
                            # recorded taken => actual not-taken
                            if tk:
                                a_pc = (ins.pc + 4 - base) >> 2
                                a_ra = dc + off + 1
                                a_br = br
                                E(I4 + "if not (%s):" % cond)
                            else:
                                a_pc = (ins.pc + ins.imm - base) >> 2
                                a_ra = dc + off + 1 + pen
                                a_br = br + pen
                                E(I4 + "if %s:" % cond)
                            self._fixups(body, I5)
                            s = self._site(x, {
                                "act": True, "ko": ko[x], "pc": a_pc,
                                "ra": a_ra, "attd": attd[x] + j + 1,
                                "busy": j + 1, "brs": a_br})
                            E(I5 + "_site = %d" % s)
                            E(I5 + "raise _X")
                            off += 1
                            if tk:
                                off += pen
                                br += pen
                        else:
                            for ln in self._sem_lines(ins, x):
                                E(I4 + ln)
                            dst = mt[2]
                            if dst is not None:
                                dmap[(x, dst)] = dc + off + 1
                            off += 1
                    if off != e[6] or br != e[7]:
                        raise _Refuse
                    n = len(slots)
                    tot["busy"] += n
                    tot["brs"] += br
                    attd[x] += n
                    pc[x] = e[5]
                    ra[x] = dc + e[6]
                elif tag == "M":
                    si = e[3]
                    if (not act[x] or pc[x] != si or ra[x] > dc
                            or self.grants >= ports
                            or not 0 <= si < body_n):
                        raise _Refuse
                    mt = meta[si]
                    if mt[3] != 1 or mt[6] or mt[8] or mt[9] or mt[11]:
                        raise _Refuse
                    ins = mt[12]
                    op = ins.op
                    if not (op.is_load or op.is_store):
                        raise _Refuse  # AMO/fence never recorded as M
                    touched[x] = True
                    miss = bool(e[4])
                    # counted before validation, like interpreted replay
                    cnt[si] += 1
                    if ins.imm:
                        E(I4 + "_a = (R%d[%d] + %d) & 4294967295"
                          % (x, ins.rs1, ins.imm))
                    else:
                        # register values are stored masked
                        E(I4 + "_a = R%d[%d]" % (x, ins.rs1))
                    is_load = op.is_load
                    rd = ins.rd if is_load else 0
                    if is_load:
                        self._emit_load(body, I4, op.mnemonic, ins.rs1)
                        if rd:
                            E(I4 + "R%d[%d] = _v" % (x, rd))
                    else:
                        E(I4 + "_v = R%d[%d]" % (x, ins.rs2))
                        self._emit_store(body, I4, op.mnemonic, ins.rs1)
                    rec_lat = miss_lat if miss else hit_lat
                    act_lat = hit_lat if miss else miss_lat
                    size = (_LOAD_SIZE[op.mnemonic][0] if is_load
                            else _STORE_SIZE[op.mnemonic])
                    # when the tag shift equals the page shift the
                    # tag IS the page number already held in the
                    # page-cache local (sizes 1/4 went through
                    # _emit_page just above)
                    if lshift + setbits == 12 and size in (1, 4):
                        tag = "_pn%d" % ins.rs1
                    else:
                        tag = "_t"
                        E(I4 + "_t = _a >> %d" % (lshift + setbits))
                    E(I4 + "_y = csets[(_a >> %d) & %d]"
                      % (lshift, nsets - 1))
                    over = {"act": True, "ko": ko[x], "pc": si + 1,
                            "ra": dc + 1, "attd": attd[x] + 1,
                            "busy": 1, "dca": 1, "grant": 1,
                            "dcm": 0 if miss else 1,
                            "ch": 1 if miss else 0,
                            "cm": 0 if miss else 1}
                    if not miss:   # recorded hit; divergence = miss
                        E(I4 + "try:")
                        E(I5 + "_y.remove(%s)" % tag)
                        E(I5 + "_y.insert(0, %s)" % tag)
                        E(I4 + "except _VE:")
                        E(I5 + "_y.insert(0, %s)" % tag)
                        E(I5 + "if len(_y) > %d:" % nways)
                        E(I5 + " _y.pop()")
                        self._fixups(body, I5)
                        if rd:
                            E(I5 + "D%d[%d] = _b + %d"
                              % (x, rd, dc + act_lat))
                        s = self._site(x, over)
                        E(I5 + "_site = %d" % s)
                        E(I5 + "raise _X")
                    else:          # recorded miss; divergence = hit
                        E(I4 + "if %s in _y:" % tag)
                        E(I5 + "_y.remove(%s)" % tag)
                        E(I5 + "_y.insert(0, %s)" % tag)
                        self._fixups(body, I5)
                        if rd:
                            E(I5 + "D%d[%d] = _b + %d"
                              % (x, rd, dc + act_lat))
                        s = self._site(x, over)
                        E(I5 + "_site = %d" % s)
                        E(I5 + "raise _X")
                        E(I4 + "_y.insert(0, %s)" % tag)
                        E(I4 + "if len(_y) > %d:" % nways)
                        E(I5 + "_y.pop()")
                    if rd:
                        dmap[(x, rd)] = dc + rec_lat
                    self.grants += 1
                    tot["busy"] += 1
                    tot["dca"] += 1
                    if miss:
                        tot["dcm"] += 1
                        tot["cm"] += 1
                    else:
                        tot["ch"] += 1
                    attd[x] += 1
                    pc[x] = si + 1
                    ra[x] = dc + 1
                elif tag == "B":
                    if act[x]:
                        raise _Refuse
                    touched[x] = True
                    k_off = self.begins
                    E(I4 + "_ai%d = 0" % x)
                    # _sk / _m<reg> are hoisted per-repetition bases
                    # (see build): idx = si0 + _k0 and each MIV's value
                    # at _k0, leaving one add per begin-time write
                    E(I4 + "R%d[%d] = (_sk + %d) & 4294967295"
                      % (x, d.idx_reg, k_off))
                    for reg, inc in mivs:
                        E(I4 + "R%d[%d] = (_m%d + %d) & 4294967295"
                          % (x, reg, reg, inc * k_off))
                    act[x] = True
                    ko[x] = k_off
                    pc[x] = 0
                    ra[x] = dc
                    its[x] = dc
                    attd[x] = 0
                    self.begins += 1
                    tot["idq"] += 1
                    tot["mmul"] += len(mivs)
                    tot["ad"] += 1
                    self.any_br = True
                elif tag == "R":
                    if not act[x] or pc[x] < body_n or ra[x] > dc:
                        raise _Refuse
                    touched[x] = True
                    if attd[x]:
                        E(I4 + "_si += _ai%d + %d" % (x, attd[x]))
                    else:
                        E(I4 + "_si += _ai%d" % x)
                    E(I4 + "_ai%d = 0" % x)
                    act[x] = False
                    ra[x] = dc + 1
                    attd[x] = 0
                    tot["iters"] += 1
                    tot["ad"] -= 1
                    self.retired.add(x)
                    self.any_br = True
                    self.any_ret = True
                elif tag == "r":
                    # raw stall: with every pending writeback offset
                    # pinned by the signature and every in-segment
                    # write latency static, the wake-up time is a
                    # compile-time constant — zero hot-path code
                    if not act[x] or not 0 <= pc[x] < body_n or ra[x] > dc:
                        raise _Refuse
                    w = dc
                    for s in meta[pc[x]][1]:
                        v = dmap.get((x, s))
                        if v is not None and v > w:
                            w = v
                    if w <= dc:
                        # the slow path only records a raw stall when a
                        # source is still pending; an expired static
                        # scoreboard here means the walk lost sync
                        raise _Refuse
                    touched[x] = True
                    tot["raw"] += w - dc
                    ra[x] = w
                elif tag == "F":
                    si = e[3]
                    if (not act[x] or pc[x] != si or ra[x] > dc
                            or not 0 <= si < body_n):
                        raise _Refuse
                    mt = meta[si]
                    if mt[3] != 2 or mt[6] or mt[8] or mt[9] or mt[11]:
                        raise _Refuse
                    unit = None
                    for u, free in enumerate(llfu):
                        if free <= dc:
                            unit = u
                            break
                    if unit is None:
                        raise _Refuse
                    llfu[unit] = dc + mt[5]
                    touched[x] = True
                    for ln in self._sem_lines(mt[12], x):
                        E(I4 + ln)
                    E(I4 + "lf[%d] = _b + %d" % (unit, dc + mt[5]))
                    dst = mt[2]
                    if dst is not None:
                        dmap[(x, dst)] = dc + mt[4]
                    cnt[si] += 1
                    tot["busy"] += 1
                    attd[x] += 1
                    pc[x] = si + 1
                    ra[x] = dc + 1
                elif tag == "p":
                    if not act[x] or self.grants < ports:
                        raise _Refuse
                    touched[x] = True
                    tot["mps"] += 1
                    ra[x] = dc + 1
                elif tag == "l":
                    if not act[x]:
                        raise _Refuse
                    for free in llfu:
                        if free <= dc:
                            raise _Refuse
                    touched[x] = True
                    tot["lls"] += 1
                    ra[x] = dc + 1
                else:
                    raise _Refuse

        # end-state sanity vs the stored end signature
        end = self.seg.end_sig
        if len(end) < n_ctx + 1:
            raise _Refuse
        nb = self.seg.n_begins
        nc = self.seg.n_cycles
        for i in range(n_ctx):
            p = end[i]
            if act[i] != (p[0] is not None):
                raise _Refuse
            if act[i]:
                if ko[i] - nb != p[0] or pc[i] != p[1]:
                    raise _Refuse
                if max(ra[i] - nc, 0) != p[2]:
                    raise _Refuse
            # the static scoreboard's still-pending entries must match
            # the recorded end signature exactly: this both proves the
            # epilogue writes below restore the precise post-segment
            # scoreboard and guarantees repetition 2+ starts from the
            # same relative pending set as repetition 1
            pend = tuple((reg, v - nc) for (xx, reg), v
                         in sorted(dmap.items()) if xx == i and v > nc)
            if pend != tuple(sorted(p[3])):
                raise _Refuse
        for u, free in enumerate(llfu):
            if max(free - nc, 0) != end[n_ctx][u]:
                raise _Refuse
        if self.begins != nb:
            raise _Refuse
        return body

    def _emit_page(self, out, ind, reg):
        """Guarded per-stream page lookup: accesses through one address
        register walk sequentially, so the resolved page is kept in a
        local (``_pn<reg>``/``_pg<reg>``) and only re-fetched on a page
        crossing — one compare per access instead of a dict lookup."""
        self.pgregs.add(reg)
        E = out.append
        E(ind + "if _a >> 12 != _pn%d:" % reg)
        E(ind + " _pn%d = _a >> 12" % reg)
        E(ind + " _pg%d = pages.get(_pn%d)" % (reg, reg))
        E(ind + " if _pg%d is None:" % reg)
        E(ind + "  _pg%d = getpage(_a)" % reg)
        if _NATIVE_WORDS:
            E(ind + " _mv%d = wv(_pg%d)" % (reg, reg))

    def _emit_load(self, out, ind, mnemonic, reg):
        """Inline ``Memory.load`` into ``_v`` (page-cached fast path)."""
        size, signed = _LOAD_SIZE[mnemonic]
        E = out.append
        if size == 4:
            self._emit_page(out, ind, reg)
            E(ind + "_o = _a & 4095")
            if _NATIVE_WORDS:
                E(ind + "if not _o & 3:")
                E(ind + " _v = _mv%d[_o >> 2]" % reg)
                E(ind + "elif _o <= 4092:")
            else:
                E(ind + "if _o <= 4092:")
            E(ind + " _v = (_pg%d[_o] | (_pg%d[_o + 1] << 8)"
                    " | (_pg%d[_o + 2] << 16) | (_pg%d[_o + 3] << 24))"
                    % (reg, reg, reg, reg))
            E(ind + "else:")
            E(ind + " _v = mload(_a, 4, %r)" % signed)
        elif size == 1:
            self._emit_page(out, ind, reg)
            E(ind + "_v = _pg%d[_a & 4095]" % reg)
            if signed:
                E(ind + "if _v >= 128:")
                E(ind + " _v += 4294967040")
        else:
            E(ind + "_v = mload(_a, %d, %r)" % (size, signed))

    def _emit_store(self, out, ind, mnemonic, reg):
        """Inline ``Memory.store`` of ``_v`` (page-cached fast path)."""
        size = _STORE_SIZE[mnemonic]
        E = out.append
        if size == 4:
            self._emit_page(out, ind, reg)
            E(ind + "_o = _a & 4095")
            if _NATIVE_WORDS:
                E(ind + "if not _o & 3:")
                E(ind + " _mv%d[_o >> 2] = _v" % reg)
                E(ind + "elif _o <= 4092:")
            else:
                E(ind + "if _o <= 4092:")
            E(ind + " _pg%d[_o] = _v & 255" % reg)
            E(ind + " _pg%d[_o + 1] = (_v >> 8) & 255" % reg)
            E(ind + " _pg%d[_o + 2] = (_v >> 16) & 255" % reg)
            E(ind + " _pg%d[_o + 3] = (_v >> 24) & 255" % reg)
            E(ind + "else:")
            E(ind + " mstore(_a, 4, _v)")
        elif size == 1:
            self._emit_page(out, ind, reg)
            E(ind + "_pg%d[_a & 4095] = _v & 255" % reg)
        else:
            E(ind + "mstore(_a, %d, _v)" % size)

    # -- assembly -------------------------------------------------------

    def build(self):
        """Return the compiled ``make`` factory, or None on refusal."""
        try:
            body = self._walk()
        except (_Refuse, TypeError, IndexError, KeyError):
            return None
        nc = self.seg.n_cycles
        nb = self.seg.n_begins
        tot = self.tot
        touched = self.touched
        used = [i for i in range(self.n_ctx) if touched[i]]
        dctxs = sorted({x for x, _ in self.dmap} - set(used))
        out = []
        E = out.append
        E("def make(L):")
        E(" cx = L.contexts")
        for i in used:
            E(" C%d = cx[%d]" % (i, i))
            E(" R%d = C%d.regs" % (i, i))
            E(" D%d = C%d.ready" % (i, i))
        for i in dctxs:
            E(" D%d = cx[%d].ready" % (i, i))
        E(" mem = L.mem")
        E(" pages = mem._pages")
        E(" getpage = mem._page")
        E(" mload = mem.load")
        E(" mstore = mem.store")
        E(" cache = L.cache")
        E(" csets = cache._sets")
        E(" st = L.stats")
        E(" counts = L._exec_counts")
        E(" lf = L._llfu_free")
        E(" li = L.live_in")
        E(" ev = L.events")
        E(" abort = L._replay_abort")
        E(" def seg(cyc0, reps):")
        E("  nk0 = L._next_k")
        E("  si0 = L.start_idx")
        for i in used:
            E("  _ai%d = C%d.attempt_instrs" % (i, i))
        for r in sorted(self.pgregs):
            E("  _pn%d = -1" % r)
            E("  _pg%d = None" % r)
            if _NATIVE_WORDS:
                E("  _mv%d = None" % r)
        E("  _si = 0")
        E("  _rp = 0")
        E("  _site = -1")
        E("  try:")
        E("   while _rp < reps:")
        E("    _b = cyc0 + _rp * %d" % nc)
        E("    _k0 = nk0 + _rp * %d" % nb)
        if self.begins:
            E("    _sk = si0 + _k0")
            for reg, inc in self.mivs:
                E("    _m%d = li[%d] + %d * _k0" % (reg, reg, inc))
        out.extend(body)
        for i in used:
            if self.attd[i]:
                E("    _ai%d += %d" % (i, self.attd[i]))
        E("    _rp += 1")
        E("  except _X:")
        E("   pass")
        # epilogue: flush per-repetition constants scaled by the number
        # of completed repetitions (shared by both outcomes), ...
        if self.any_ret:
            E("  st.instrs += _si")
        for attr, key in (("busy", "busy"), ("stall_branch", "brs"),
                          ("stall_raw", "raw"),
                          ("stall_memport", "mps"), ("stall_llfu", "lls"),
                          ("iterations", "iters")):
            if tot[key]:
                E("  st.%s += %d * _rp" % (attr, tot[key]))
        if tot["ch"]:
            E("  cache.hits += %d * _rp" % tot["ch"])
        if tot["cm"]:
            E("  cache.misses += %d * _rp" % tot["cm"])
        ev_lines = [(a, tot[k]) for a, k in
                    (("idq_op", "idq"), ("miv_mul", "mmul"),
                     ("dc_access", "dca"), ("dc_miss", "dcm")) if tot[k]]
        if ev_lines:
            E("  if ev is not None:")
            for attr, v in ev_lines:
                E("   ev.%s += %d * _rp" % (attr, v))
        for i, n in enumerate(self.cnt):
            if n:
                E("  counts[%d] += %d * _rp" % (i, n))
        if nb:
            E("  L._next_k = nk0 + %d * _rp" % nb)
        if tot["ad"]:
            E("  L._active_count += %d * _rp" % tot["ad"])
        if self.any_br:
            E("  L._order_dirty = True")
        # ... then either write the statically-known end state, or apply
        # the divergence site's partial-repetition bookkeeping
        E("  if _site < 0:")
        for i in used:
            E("   C%d.pc_index = %d" % (i, self.pc[i]))
            E("   C%d.k = _k0 + %d" % (i, self.ko[i]))
            E("   C%d.active = %r" % (i, self.act[i]))
            E("   C%d.ready_at = _b + %d" % (i, self.ra[i]))
            if self.its[i] is not None:
                E("   C%d.iter_start = _b + %d" % (i, self.its[i]))
            E("   C%d.attempt_instrs = _ai%d" % (i, i))
        # restore the scoreboard entries still pending past the
        # segment end (statically validated against the end signature)
        for (x, reg), v in sorted(self.dmap.items()):
            if v > nc:
                E("   D%d[%d] = _b + %d" % (x, reg, v))
        E("   return (True, cyc0 + %d * _rp)" % nc)
        E("  (_bp, _brp, _rwp, _mpp, _llp, _itp, _iqp, _mmp, _dap,"
          " _dmp, _chp, _cmp, _cnp, _rows, _g, _bg, _adp, _dcv, _ret)"
          " = _S[_site]")
        E("  st.busy += _bp")
        E("  st.stall_branch += _brp")
        E("  st.stall_raw += _rwp")
        E("  st.stall_memport += _mpp")
        E("  st.stall_llfu += _llp")
        E("  st.iterations += _itp")
        E("  cache.hits += _chp")
        E("  cache.misses += _cmp")
        E("  if ev is not None:")
        E("   ev.idq_op += _iqp")
        E("   ev.miv_mul += _mmp")
        E("   ev.dc_access += _dap")
        E("   ev.dc_miss += _dmp")
        E("  for _s2, _n2 in _cnp:")
        E("   counts[_s2] += _n2")
        for i in used:
            E("  C%d.attempt_instrs = _ai%d" % (i, i))
        E("  for _x2, _ac, _ko2, _pc2, _ra2, _it2, _at2 in _rows:")
        E("   _c = cx[_x2]")
        E("   _c.active = _ac")
        E("   _c.k = _k0 + _ko2")
        E("   _c.pc_index = _pc2")
        E("   _c.ready_at = _b + _ra2")
        E("   if _it2 is not None:")
        E("    _c.iter_start = _b + _it2")
        E("   _c.attempt_instrs += _at2")
        E("  L._mem_grants = _g")
        E("  L._next_k = _k0 + _bg")
        E("  L._active_count += _adp")
        E("  return (False, abort(_b + _dcv, _ret))")
        E(" return seg")

        ns = {
            "s32": to_s32,
            "f2b": f32_to_bits,
            "b2f": bits_to_f32,
            "md": _muldiv,
            "fdivb": _fp_div,
            "fsqrtb": _fsqrt,
            "_X": _Div,
            "_VE": ValueError,
            "_S": tuple(self.sites),
            "wv": _word_view,
        }
        src = "\n".join(out)
        _SegGen.last_src = src   # debugging aid (repro profile --turbo-dump)
        code = compile(src, "<turbo:segment>", "exec")
        exec(code, ns)
        return ns["make"]


# ---------------------------------------------------------------------------
# the memo
# ---------------------------------------------------------------------------

class TurboMemo(ScheduleMemo):
    """Schedule memo with phase-extended signatures and compiled
    segment replay (the turbo backend's engine above the fused tier).

    Raised dead/size thresholds: the compiled replayer amortizes far
    more recording than the interpreted one, and the phase-extended
    signature space is up to ``line_bytes`` times larger.
    """

    __slots__ = ("phase_mask", "_make", "_comp")

    dead_misses = 192
    max_segments = 512
    dead_aborts = 512

    #: longest end-sig chain followed when closing a phase cycle; a
    #: real cycle is at most ``line_bytes`` segments (phase period)
    _MAX_CHAIN = 64

    def __init__(self, line_bytes):
        ScheduleMemo.__init__(self)
        self.phase_mask = line_bytes - 1
        # (start_sig, composite?) -> (make factory or None, segment
        # identity); factories are retained per signature so
        # recompilation only happens if the table was re-recorded
        self._make = {}
        # start_sig -> (composite segment or None, table size when the
        # chain walk last failed); a failed walk is retried once new
        # segments have been recorded
        self._comp = {}

    def signature(self, lpsu, cycle):
        """Base signature extended with the iteration address phase:
        any constant-stride access stream's hit/miss outcome is
        periodic in ``iteration mod line_bytes``, so keying on the
        phase makes recorded miss outcomes reproducible at match."""
        return ScheduleMemo.signature(lpsu, cycle) + (
            (lpsu.start_idx + lpsu._next_k) & self.phase_mask,)

    def _cycle_of(self, sig, seg):
        """Composite segment for the full phase cycle starting (and
        ending) at *sig*, or None while the chain is still open.

        The phase term makes a single epoch's end signature differ
        from its start (the phase advances every epoch), so no single
        recorded segment can self-loop.  Following the end-sig chain
        until it returns to *sig* and concatenating the segments
        yields one self-keying composite whose whole-period schedule
        the batch replayer can then repeat for every remaining epoch
        in a single call.  Composites are plain Segments: replay still
        validates every branch and miss live, so a stale composite
        (table cleared and re-recorded) degrades to an abort, never to
        a wrong schedule."""
        ent = self._comp.get(sig)
        if ent is not None and (ent[0] is not None
                                or ent[1] == len(self.table)):
            return ent[0]
        chain = [seg]
        s = seg.end_sig
        while s != sig and len(chain) < self._MAX_CHAIN:
            nxt = self.table.get(s)
            if nxt is None:
                break
            chain.append(nxt)
            s = nxt.end_sig
        comp = None
        if s == sig:
            cycles = []
            off = 0
            n_begins = 0
            for sg in chain:
                for dc, ops in sg.cycles:
                    cycles.append((dc + off, ops))
                off += sg.n_cycles
                n_begins += sg.n_begins
            comp = Segment(tuple(cycles), off, n_begins, sig)
        self._comp[sig] = (comp, len(self.table))
        return comp

    def _fn_for(self, lpsu, sig, seg, composite):
        bound = getattr(lpsu, "_turbo_fns", None)
        if bound is None:
            bound = lpsu._turbo_fns = {}
        key = (sig, composite)
        ent = bound.get(key)
        if ent is not None and ent[1] is seg:
            return ent[0]
        made = self._make.get(key)
        if made is None or made[1] is not seg:
            made = (_SegGen(lpsu, sig, seg).build(), seg)
            self._make[key] = made
        mk = made[0]
        fn = mk(lpsu) if mk is not None else None
        bound[key] = (fn, seg)
        return fn

    def compiled(self, lpsu, sig, seg):
        use = seg
        if seg.end_sig != sig:
            remaining = lpsu.bound - lpsu.start_idx - lpsu._next_k
            comp = self._cycle_of(sig, seg)
            if comp is not None and comp.n_begins <= remaining:
                use = comp
        if use.end_sig != sig:
            # only self-keying segments repay compilation: anything
            # else replays at most once per anchor, which interpreted
            # replay handles at a fraction of the compile cost (this
            # covers cycle tails shorter than one whole phase period)
            return None
        fn = self._fn_for(lpsu, sig, use, use is not seg)
        if fn is None:
            return None
        return fn, use


# ---------------------------------------------------------------------------
# process-wide content-keyed memo cache
# ---------------------------------------------------------------------------

_TURBO_MEMOS = {}
_MAX_MEMOS = 64


def memo_content_key(descriptor, lpsu_cfg, gpp_cfg):
    """Everything the compiled segments' source depends on.  Extends
    the fusion engine's loop-body key with the design point (folded
    into the segments), the MIV table and index register
    (iteration-setup constants are baked into compiled begin actions)
    and the full cache geometry (LRU maintenance is inlined)."""
    d = descriptor
    mivt = tuple(sorted((m.reg, m.increment) for m in d.mivt.values()))
    return (_lpsu_content_key(d), repr(lpsu_cfg),
            repr(gpp_cfg.latencies), mivt, d.idx_reg,
            repr(gpp_cfg.cache))


def turbo_memo(descriptor, lpsu_cfg, gpp_cfg):
    """Shared :class:`TurboMemo` for a loop's content key.

    Memos persist process-wide (like the fusion factory caches):
    segments hold validated schedule structure, never values, so a
    later invocation or simulator with an equal content key starts in
    steady state immediately instead of re-recording.
    """
    key = memo_content_key(descriptor, lpsu_cfg, gpp_cfg)
    memo = _TURBO_MEMOS.get(key)
    if memo is None:
        if len(_TURBO_MEMOS) >= _MAX_MEMOS:
            _TURBO_MEMOS.clear()
        memo = _TURBO_MEMOS[key] = TurboMemo(gpp_cfg.cache.line_bytes)
    return memo


def clear():
    """Drop all cached turbo memos (tests / cache invalidation)."""
    _TURBO_MEMOS.clear()
