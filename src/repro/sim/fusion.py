"""Basic-block fusion: superblock closures over the decoded program.

:func:`~repro.sim.functional.decode_program` removed per-instruction
*decode* work; this module removes per-instruction *dispatch* work.  At
first use it partitions the text section into basic blocks (straight
-line runs ending at a control instruction or a join point) and
``exec``-compiles one Python function per block that inlines the
functional semantics of every instruction in the block — one call per
block instead of one table lookup + closure call per instruction.

Two block flavours are generated, sharing the block layout:

``func``
    ``blk(core) -> next_pc``: architectural state only.  Used by
    :meth:`FunctionalCore.run`.
``gpp``
    ``blk(core, timing) -> next_pc``: the same semantics, then one
    ``timing.run_block(recs, addrs, ctrl_pc, taken, counts)`` call
    that hands the GPP timing model (in-order or out-of-order) the
    block's static ``(src1, src2, dst, kind)`` records, its memory
    addresses in program order, the outcome of its terminating
    control op, and its folded static event counts.  The records
    carry no configuration (each model maps ``kind`` to its own
    latencies), so one table serves every GPP.

The ``lpsu`` flavour (:class:`_LPSUGen`, :func:`lpsu_engine`) compiles
xloop bodies into the fused-lane LPSU engine.

Every generated function is an exact behavioural replica of the
step-at-a-time path: same architectural updates in the same order, same
cache/predictor access sequence, same stall and energy accounting.
``repro verify --ladder`` and the tier-1 suite enforce this
bit-for-bit.  Instructions the generator does not recognize are simply
left out of any block; the drivers fall back to single-stepping them
through the decoded-handler path, so unknown ops degrade gracefully
instead of diverging.
"""

from __future__ import annotations

from ..isa.instructions import FU, Fmt
from .functional import (_ALU_I, _BRANCH, _LOAD_SIZE, _STORE_SIZE, _fp_div,
                         _muldiv)
from .memory import bits_to_f32, f32_to_bits, to_s32, to_u32

#: 0xFFFFFFFF as a decimal literal for emitted source
_M = "4294967295"


def _fsqrt(a):
    fa = bits_to_f32(a)
    return f32_to_bits(fa ** 0.5) if fa >= 0.0 else 0x7FC00000


# ---------------------------------------------------------------------------
# per-mnemonic expression templates ({A}/{B} are register value exprs);
# each mirrors the corresponding decode_instr handler exactly
# ---------------------------------------------------------------------------

_ALU_R_EXPR = {
    "add": "({A} + {B})",
    "addu.xi": "({A} + {B})",
    "sub": "({A} - {B})",
    "and": "({A} & {B})",
    "or": "({A} | {B})",
    "xor": "({A} ^ {B})",
    "sll": "({A} << ({B} & 31))",
    "srl": "({A} >> ({B} & 31))",
    "sra": "(s32({A}) >> ({B} & 31))",
    "slt": "(1 if s32({A}) < s32({B}) else 0)",
    "sltu": "(1 if {A} < {B} else 0)",
}

_FP_R_EXPR = {
    "fadd.s": "f2b(b2f({A}) + b2f({B}))",
    "fsub.s": "f2b(b2f({A}) - b2f({B}))",
    "fmul.s": "f2b(b2f({A}) * b2f({B}))",
    "fdiv.s": "fdivb({A}, {B})",
    "fmin.s": "f2b(min(b2f({A}), b2f({B})))",
    "fmax.s": "f2b(max(b2f({A}), b2f({B})))",
    "flt.s": "(1 if b2f({A}) < b2f({B}) else 0)",
    "fle.s": "(1 if b2f({A}) <= b2f({B}) else 0)",
    "feq.s": "(1 if b2f({A}) == b2f({B}) else 0)",
}

_MULDIV_MNEMONICS = ("mul", "mulh", "div", "divu", "rem", "remu")

_R2_EXPR = {
    "fcvt.s.w": "f2b(float(s32({A})))",
    "fcvt.w.s": "int(b2f({A}))",
    "fsqrt.s": "fsqrtb({A})",
}

_BR_EXPR = {
    "beq": "{A} == {B}",
    "bne": "{A} != {B}",
    "blt": "s32({A}) < s32({B})",
    "bge": "s32({A}) >= s32({B})",
    "bltu": "{A} < {B}",
    "bgeu": "{A} >= {B}",
}


def _alu_i_expr(m, a, imm):
    if m == "addi" or m == "addiu.xi":
        return "(%s + %d)" % (a, imm)
    if m == "andi":
        return "(%s & %d)" % (a, to_u32(imm))
    if m == "ori":
        return "(%s | %d)" % (a, to_u32(imm))
    if m == "xori":
        return "(%s ^ %d)" % (a, to_u32(imm))
    if m == "slti":
        return "(1 if s32(%s) < %d else 0)" % (a, imm)
    if m == "sltiu":
        return "(1 if %s < %d else 0)" % (a, to_u32(imm))
    if m == "slli":
        return "(%s << %d)" % (a, imm & 31)
    if m == "srli":
        return "(%s >> %d)" % (a, imm & 31)
    if m == "srai":
        return "(s32(%s) >> %d)" % (a, imm & 31)
    return None


def emittable(instr):
    """Can this instruction be inlined into a fused block?"""
    op = instr.op
    fmt = op.fmt
    m = op.mnemonic
    if fmt == Fmt.R or fmt == Fmt.XI_R:
        return (m in _ALU_R_EXPR or m in _FP_R_EXPR
                or m in _MULDIV_MNEMONICS)
    if fmt == Fmt.I or fmt == Fmt.I_SHIFT or fmt == Fmt.XI_I:
        return m in _ALU_I
    if fmt == Fmt.R2:
        return m in _R2_EXPR
    if fmt == Fmt.LOAD:
        return m in _LOAD_SIZE
    if fmt == Fmt.STORE:
        return m in _STORE_SIZE
    if fmt == Fmt.BRANCH:
        return m in _BRANCH
    return fmt in (Fmt.AMO, Fmt.XLOOP, Fmt.JAL, Fmt.JALR, Fmt.LUI,
                   Fmt.NONE)


# ---------------------------------------------------------------------------
# block layout
# ---------------------------------------------------------------------------

def block_runs(program, break_pcs=frozenset()):
    """Partition the text section into fusable straight-line runs.

    Returns a list of index lists.  A run starts at every join point
    (program entry, control-flow target, post-control fall-through,
    symbol, and every pc in *break_pcs* — the system simulator passes
    xloop pcs so the dispatch check happens between blocks) and ends at
    the first control instruction.  Unrecognized instructions belong to
    no run; the drivers single-step them.
    """
    instrs = program.instrs
    n = len(instrs)
    base = program.text_base
    leaders = set()
    if n:
        leaders.add(0)
    for i, ins in enumerate(instrs):
        op = ins.op
        if op.is_branch or op.is_xloop or op.is_jump:
            if i + 1 < n:
                leaders.add(i + 1)
            if op.fmt != Fmt.JALR:
                t = ins.pc + ins.imm
                if not t & 3:
                    ti = (t - base) >> 2
                    if 0 <= ti < n:
                        leaders.add(ti)
    for a in program.symbols.values():
        if not a & 3:
            ti = (a - base) >> 2
            if 0 <= ti < n:
                leaders.add(ti)
    for pc in break_pcs:
        ti = (pc - base) >> 2
        if 0 <= ti < n:
            leaders.add(ti)

    runs = []
    cur = []
    for i in range(n):
        if i in leaders and cur:
            runs.append(cur)
            cur = []
        ins = instrs[i]
        if not emittable(ins):
            if cur:
                runs.append(cur)
                cur = []
            continue
        cur.append(i)
        op = ins.op
        if op.is_branch or op.is_xloop or op.is_jump:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    return runs


# ---------------------------------------------------------------------------
# timing records (`gpp` flavour)
# ---------------------------------------------------------------------------

#: record kinds.  Compute first (ALU, then the four LLFU classes in
#: :class:`~repro.uarch.params.LatencyTable` order), then the memory
#: kinds, the fence, and the control kinds that can only end a block,
#: so the GPP models classify a record with range tests.
(K_ALU, K_MUL, K_DIV, K_FPU, K_FDIV, K_LOAD, K_STORE, K_AMO, K_FENCE,
 K_BRANCH, K_JAL, K_JALR) = range(12)

_FU_KIND = {FU.ALU: K_ALU, FU.MUL: K_MUL, FU.DIV: K_DIV, FU.FPU: K_FPU,
            FU.FDIV: K_FDIV}

#: layout of a block's static event-count tuple
COUNT_FIELDS = ("n", "rf_read", "rf_write", "alu_io", "mem_fu", "mul_op",
                "div_op", "fpu_op", "fdiv_op", "dc_access", "bpred")


def _timing_record(ins):
    """``(src1, src2, dst, kind)`` for one static instruction.

    Sources are the deduplicated nonzero source registers, padded with
    0; ``dst`` is 0 when the instruction writes no register.  Register
    0 is a safe "no source": neither GPP model ever raises its ready
    time above the current issue floor."""
    op = ins.op
    srcs = []
    for s in ins.src_regs():
        if s and s not in srcs:
            srcs.append(s)
    srcs += [0] * (2 - len(srcs))
    if op.is_load:
        kind = K_LOAD
    elif op.is_store:
        kind = K_STORE
    elif op.is_amo:
        kind = K_AMO
    elif op.is_fence:
        kind = K_FENCE
    elif op.is_branch or op.is_xloop:
        kind = K_BRANCH
    elif op.fmt == Fmt.JALR:
        kind = K_JALR
    elif op.is_jump:
        kind = K_JAL
    else:
        kind = _FU_KIND[op.fu]
    return (srcs[0], srcs[1], ins.dst_reg() or 0, kind)


def _block_counts(instrs, idxs):
    """The block's static energy-event counts, laid out as
    :data:`COUNT_FIELDS`.  ``alu_io`` counts the ALU, branch and jump
    ops; ``mem_fu`` the loads, stores, AMOs and fences, which the
    out-of-order model also counts as ALU ops and the in-order model
    does not."""
    c = dict.fromkeys(COUNT_FIELDS, 0)
    for i in idxs:
        ins = instrs[i]
        op = ins.op
        c["n"] += 1
        c["rf_read"] += sum(1 for s in ins.src_regs() if s)
        if ins.dst_reg() is not None:
            c["rf_write"] += 1
        if op.fu in FU.LLFU_CLASSES:
            c[op.fu + "_op"] += 1
        elif op.fu == FU.MEM:
            c["mem_fu"] += 1
        else:
            c["alu_io"] += 1
        if op.is_mem:
            c["dc_access"] += 1
        if op.is_branch or op.is_xloop:
            c["bpred"] += 1
    return tuple(c[f] for f in COUNT_FIELDS)


# ---------------------------------------------------------------------------
# code emission
# ---------------------------------------------------------------------------

def _sem_value_expr(ins):
    """Value expression for register-writing compute ops, or None."""
    op = ins.op
    m = op.mnemonic
    fmt = op.fmt
    A = "R[%d]" % ins.rs1
    B = "R[%d]" % ins.rs2
    if fmt == Fmt.R or fmt == Fmt.XI_R:
        t = _ALU_R_EXPR.get(m) or _FP_R_EXPR.get(m)
        if t is not None:
            return t.format(A=A, B=B)
        return "md(%r, %s, %s)" % (m, A, B)
    if fmt == Fmt.I or fmt == Fmt.I_SHIFT or fmt == Fmt.XI_I:
        return _alu_i_expr(m, A, ins.imm)
    if fmt == Fmt.R2:
        return _R2_EXPR[m].format(A=A)
    if fmt == Fmt.LUI:
        return "%d" % to_u32(ins.imm << 12)
    return None


def _emit_sem(out, ins, a="_a"):
    """Append the pure functional statements for a non-control *ins*.

    Mem ops leave the access address in the variable named *a*.
    Mirrors the ``decode_instr`` handlers: compute ops with rd == x0
    are no-ops except R2 (evaluated for exceptions, like the slow
    path)."""
    op = ins.op
    fmt = op.fmt
    m = op.mnemonic
    rd = ins.rd
    if fmt == Fmt.LOAD:
        size, signed = _LOAD_SIZE[m]
        out.append("%s = (R[%d] + %d) & %s" % (a, ins.rs1, ins.imm, _M))
        if rd:
            out.append("R[%d] = mem.load(%s, %d, %r)" % (rd, a, size,
                                                        signed))
        else:
            out.append("mem.load(%s, %d, %r)" % (a, size, signed))
        return
    if fmt == Fmt.STORE:
        out.append("%s = (R[%d] + %d) & %s" % (a, ins.rs1, ins.imm, _M))
        out.append("mem.store(%s, %d, R[%d])"
                   % (a, _STORE_SIZE[m], ins.rs2))
        return
    if fmt == Fmt.AMO:
        out.append("%s = R[%d]" % (a, ins.rs1))
        if rd:
            out.append("R[%d] = mem.amo(%r, %s, R[%d])" % (rd, m, a,
                                                          ins.rs2))
        else:
            out.append("mem.amo(%r, %s, R[%d])" % (m, a, ins.rs2))
        return
    if fmt == Fmt.NONE:
        return
    expr = _sem_value_expr(ins)
    if rd:
        if fmt == Fmt.LUI:
            out.append("R[%d] = %s" % (rd, expr))
        else:
            out.append("R[%d] = %s & %s" % (rd, expr, _M))
    elif fmt == Fmt.R2:
        out.append(expr)  # may raise (fcvt.w.s on NaN), like slow path


def _ctrl_of(ins):
    """Terminator description for a control *ins*.

    ``("cond", cond_expr, target, fallthrough)`` for branches/xloops,
    ``("jump", target_expr, link_lines)`` for jal/jalr, None otherwise.
    """
    op = ins.op
    fmt = op.fmt
    pc = ins.pc
    A = "R[%d]" % ins.rs1
    B = "R[%d]" % ins.rs2
    if fmt == Fmt.BRANCH:
        cond = _BR_EXPR[op.mnemonic].format(A=A, B=B)
        return ("cond", cond, pc + ins.imm, pc + 4)
    if fmt == Fmt.XLOOP:
        return ("cond", "s32(%s) < s32(%s)" % (A, B), pc + ins.imm, pc + 4)
    if fmt == Fmt.JAL:
        link = []
        if ins.rd:
            link.append("R[%d] = %d" % (ins.rd, to_u32(pc + 4)))
        return ("jump", "%d" % (pc + ins.imm), link)
    if fmt == Fmt.JALR:
        # target is computed before the link write, like decode_instr
        link = ["_t = (R[%d] + %d) & 4294967294" % (ins.rs1, ins.imm)]
        if ins.rd:
            link.append("R[%d] = %d" % (ins.rd, to_u32(pc + 4)))
        return ("jump", "_t", link)
    return None


def _gen_block(name, instrs, idxs, lines, timing):
    """One block function: inlined semantics, then (``gpp`` flavour)
    one ``t.run_block`` call.  All of the block's semantics run before
    its timing call; that is safe because timing reads only the memory
    addresses and the branch outcome, and it still sees every cache and
    predictor access in program order."""
    lines.append("def %s(c, t):" % name if timing else "def %s(c):" % name)
    lines.append(" R = c.regs")
    lines.append(" mem = c.mem")
    addrs = []
    ctrl = None
    for i in idxs:
        ins = instrs[i]
        ctrl = _ctrl_of(ins)
        if ctrl is None:
            a = "_a%d" % len(addrs)
            if ins.op.is_mem:
                addrs.append(a)
            body = []
            _emit_sem(body, ins, a)
            lines.extend(" " + ln for ln in body)
        elif ctrl[0] == "jump":
            lines.extend(" " + ln for ln in ctrl[2])
    last = instrs[idxs[-1]]
    if ctrl is None:
        lines.append(" _n = %d" % (last.pc + 4))
        taken = "False"
    elif ctrl[0] == "cond":
        lines.append(" _k = %s" % ctrl[1])
        lines.append(" _n = %d if _k else %d" % (ctrl[2], ctrl[3]))
        taken = "_k"
    else:
        lines.append(" _n = %s" % ctrl[1])
        taken = "True"
    if timing:
        recs = tuple(_timing_record(instrs[i]) for i in idxs)
        lines.append(" t.run_block(%r, (%s), %d, %s, %r)"
                     % (recs, "".join(a + ", " for a in addrs), last.pc,
                        taken, _block_counts(instrs, idxs)))
    lines.append(" c.icount += %d" % len(idxs))
    lines.append(" c.pc = _n")
    lines.append(" return _n")
    lines.append("")


# ---------------------------------------------------------------------------
# build + cache
# ---------------------------------------------------------------------------

def _build(program, flavor, break_pcs):
    instrs = program.instrs
    runs = block_runs(program, break_pcs)
    ns = {
        "s32": to_s32,
        "f2b": f32_to_bits,
        "b2f": bits_to_f32,
        "md": _muldiv,
        "fdivb": _fp_div,
        "fsqrtb": _fsqrt,
    }
    lines = []
    names = []
    for idxs in runs:
        name = "_b%d" % idxs[0]
        names.append(name)
        _gen_block(name, instrs, idxs, lines, flavor == "gpp")
    src = "\n".join(lines)
    code = compile(src, "<fused:%s>" % flavor, "exec")
    exec(code, ns)
    return {instrs[idxs[0]].pc: ns[name]
            for idxs, name in zip(runs, names)}


#: compiled block tables shared across program *objects* by content.
#: Block functions bind nothing program-specific (PCs are literals,
#: state arrives via the core/timing arguments), so two recompiles of
#: the same kernel — e.g. repeated cold runs after ``clear_cache`` —
#: reuse one compiled table, and a ``gpp`` table serves the in-order
#: and every out-of-order GPP alike.
_BLOCK_TABLE_CACHE = {}


def _program_content(program):
    return tuple((ins.op.mnemonic, ins.rd, ins.rs1, ins.rs2, ins.imm,
                  ins.pc) for ins in program.instrs)


def fused_blocks(program, flavor="func", break_pcs=()):
    """PC-indexed dict of fused block functions, cached on *program*
    per (flavour, break set) and across programs by content."""
    if flavor not in ("func", "gpp"):
        raise ValueError("unknown fusion flavor %r" % flavor)
    bk = frozenset(break_pcs)
    key = (flavor, bk)
    cache = getattr(program, "_fused", None)
    if cache is None:
        cache = program._fused = {}
    tbl = cache.get(key)
    if tbl is None:
        mk = (flavor, bk, _program_content(program))
        shared = _BLOCK_TABLE_CACHE.get(mk)
        if shared is None:
            shared = _BLOCK_TABLE_CACHE[mk] = _build(program, flavor, bk)
        # per-program copy: callers may prune entries to force the
        # single-step fallback
        tbl = cache[key] = dict(shared)
    return tbl


# ---------------------------------------------------------------------------
# LPSU fused-lane engine (`lpsu` flavour)
# ---------------------------------------------------------------------------

#: chained-op budget per generated issue-slot call.  Stopping a chain
#: at any point is schedule-identical (the per-cycle loop takes over
#: at the same virtual cycle), so this only bounds the latency of one
#: step call, like the interpreted batch loop's 65536 cap.
_LPSU_CHAIN_CAP = 50000

#: straight-line ops emitted per chain entry before handing back to
#: the dispatcher.  Every slot is a potential chain entry (a RAW break
#: can stop a chain anywhere), so uncapped emission is quadratic in
#: body size; capping only costs one dispatcher round-trip per CAP
#: chained ops and keeps codegen linear-ish.  Steady-state inner loops
#: are unaffected: they run in one shared compiled while per
#: back-branch, emitted once.
_LPSU_PREFIX_CAP = 16

#: compiled `make` factories keyed by loop/config *content*, so
#: recompiling the same kernel (cold sweeps, repeated cold runs)
#: reuses the generated engine instead of re-emitting + re-compiling
#: it.  Safe because generated code depends only on the key below and
#: binds all live state per-LPSU inside make().
_LPSU_MAKE_CACHE = {}


class _LPSUGen:
    """Emit a ``make(lpsu) -> step`` factory for one xloop body.

    ``step(ctx, cycle)`` is a drop-in replacement for
    :meth:`repro.uarch.lpsu.LPSU._step` on non-recording cycles: every
    per-instruction fact the interpreted path resolves per cycle
    (operand registers, issue class, latency, CIR/LSQ/bound flags, LSQ
    capacities, memory-port count, cache hit latency, byte-level
    memory access) is folded into generated code — one function per
    instruction-buffer slot, with the in-lane superblock chain
    unrolled across the slot's static successors, including a compiled
    ``while`` loop over straight-line inner-loop bodies.  Iteration
    turnover, CIB waits, LSQ drains, commit and squash stay on the
    interpreted helpers: the generated code calls straight back into
    the LPSU for them, which is what keeps fast and slow bit-identical.
    """

    def __init__(self, descriptor, lpsu_cfg, gpp_cfg):
        d = descriptor
        self.body = d.body
        self.n = len(d.body)
        self.base = d.body_start_pc
        self.cirs = d.cirs
        self.bound_reg = d.bound_reg
        self.ordered = d.kind.data.ordered_through_registers
        self.squash = d.kind.data.needs_memory_disambiguation
        self.needs_lsq = self.squash or d.kind.control.value == "de"
        self.dyn_bound = d.kind.control.value == "db"
        self.cfg = lpsu_cfg
        self.lat = gpp_cfg.latencies
        self.hit = gpp_cfg.cache.hit_latency
        self.pen = lpsu_cfg.branch_penalty
        self.ilf = lpsu_cfg.inter_lane_forwarding
        # per-slot statics (mirrors LPSU._build_meta / _fusable)
        self.kind = []
        self.latency = []
        self.occupy = []
        self.nz_srcs = []
        self.dst = []
        self.has_cir = []
        self.pub = []
        self.bound_dst = []
        self.branchy = []
        self.fusable = []
        self.cir_srcs = []
        for ins in d.body:
            op = ins.op
            srcs = ins.src_regs()
            dst = ins.dst_reg()
            if op.is_mem and not op.is_fence:
                kind, latency, occupy = 1, 0, 0
            elif op.is_llfu:
                kind = 2
                latency = self.lat.for_fu(op.fu)
                occupy = latency if op.fu in (FU.DIV, FU.FDIV) else 1
            else:
                kind, latency, occupy = 0, 1, 0
            csrcs = []
            if self.ordered:
                for s in srcs:
                    if s in self.cirs and s not in csrcs:
                        csrcs.append(s)
            pub = (self.ordered and dst is not None
                   and dst in self.cirs)
            bound_dst = self.dyn_bound and dst == d.bound_reg
            nz = []
            for s in srcs:
                if s and s not in nz:
                    nz.append(s)
            self.kind.append(kind)
            self.latency.append(latency)
            self.occupy.append(occupy)
            self.nz_srcs.append(nz)
            self.dst.append(dst)
            self.has_cir.append(bool(csrcs))
            self.cir_srcs.append(csrcs)
            self.pub.append(pub)
            self.bound_dst.append(bound_dst)
            self.branchy.append(op.is_branch or op.is_jump
                                or op.is_xloop)
            self.fusable.append(kind == 0 and not csrcs and not pub
                                and not bound_dst)
        # compiled-while inner loops: a fusable back-branch whose whole
        # taken-path body is straight-line fusable compute gets one
        # shared loop function, emitted once and called from chains
        self.loop_terms = {}
        for term in range(self.n):
            if not (self.fusable[term] and self.branchy[term]):
                continue
            if self.body[term].op.fmt not in (Fmt.BRANCH, Fmt.XLOOP):
                continue
            ti = self._target(term)
            if (0 <= ti <= term
                    and all(self.fusable[x] and not self.branchy[x]
                            for x in range(ti, term))):
                self.loop_terms[term] = ti

    # -- small emission helpers -------------------------------------------

    def _target(self, i):
        """Instruction-buffer slot index of slot *i*'s branch target."""
        ins = self.body[i]
        return (ins.pc + ins.imm - self.base) >> 2

    def _raw_stall(self, out, ind, i):
        """First-op RAW hazard check: stall + give up the issue slot."""
        srcs = self.nz_srcs[i]
        if not srcs:
            return
        out.append(ind + "_w = ready[%d]" % srcs[0])
        for s in srcs[1:]:
            out.append(ind + "_t = ready[%d]" % s)
            out.append(ind + "if _t > _w:")
            out.append(ind + " _w = _t")
        # inline ``_stall``: _w > cycle already implies the
        # max(until, cycle + 1) clamp is a no-op, and recording/trace
        # are inactive under engine gating
        out.append(ind + "if _w > cycle:")
        out.append(ind + " ctx.ready_at = _w")
        out.append(ind + " st.stall_raw += _w - cycle")
        out.append(ind + " return False")

    def _raw_break(self, out, ind, i):
        """Chained-op RAW check: end the chain at slot *i*."""
        for s in self.nz_srcs[i]:
            out.append(ind + "if ready[%d] > c:" % s)
            out.append(ind + " _i = %d" % i)
            out.append(ind + " break")

    def _sem(self, out, ind, i):
        tmp = []
        _emit_sem(tmp, self.body[i])
        for ln in tmp:
            out.append(ind + ln)

    def _emit_cirs(self, out, ind, i):
        """Inline ``LPSU._deliver_cirs`` for slot *i*'s static CIR
        sources: the first read of each CIR this iteration waits for
        the previous iteration's value in the CIB."""
        for s in self.cir_srcs[i]:
            out.append(ind + "if %d not in ctx.received_cirs:" % s)
            out.append(ind + " _ch = cib.get((%d, ctx.k))" % s)
            out.append(ind + " if _ch is None or _ch[0] > cycle:")
            out.append(ind + "  _r = cycle + 1 if _ch is None"
                             " else _ch[0]")
            out.append(ind + "  ctx.ready_at = _r")
            out.append(ind + "  st.stall_cib += _r - cycle")
            out.append(ind + "  return False")
            out.append(ind + " R[%d] = _ch[1]" % s)
            out.append(ind + " ctx.received_cirs[%d] = _ch[1]" % s)
            out.append(ind + " ready[%d] = cycle" % s)
            out.append(ind + " ev.cib_read += 1")
            out.append(ind + " ev.rf_write += 1")

    def _emit_publish(self, out, ind, dst, time_expr):
        """Inline ``LPSU._publish_cir`` (monitor is None by engine
        gating)."""
        out.append(ind + "cib[(%d, ctx.k + 1)] = (%s, R[%d])"
                   % (dst, time_expr, dst))
        out.append(ind + "ev.cib_write += 1")

    def _chain_op(self, out, ind, i):
        """One chained single-cycle compute op at virtual cycle ``c``."""
        self._raw_break(out, ind, i)
        self._sem(out, ind, i)
        out.append(ind + "counts[%d] += 1" % i)
        out.append(ind + "_n += 1")
        if self.dst[i] is not None:
            out.append(ind + "ready[%d] = c + 1" % self.dst[i])
        out.append(ind + "c += 1")

    def _cond_expr(self, i):
        ins = self.body[i]
        A = "R[%d]" % ins.rs1
        B = "R[%d]" % ins.rs2
        if ins.op.fmt == Fmt.XLOOP:
            return "s32(%s) < s32(%s)" % (A, B)
        return _BR_EXPR[ins.op.mnemonic].format(A=A, B=B)

    # -- chain planning / emission ----------------------------------------

    def _chain_plan(self, j):
        """Chainable successors of a compute op: ``(run, term)`` where
        *run* is the straight-line fusable prefix starting at slot *j*
        and *term* is a trailing fusable control op (or None when the
        chain just runs out).  Returns None when no chain is possible."""
        n = self.n
        if not (0 <= j < n) or not self.fusable[j]:
            return None
        run = []
        k = j
        while 0 <= k < n and self.fusable[k] and not self.branchy[k]:
            run.append(k)
            k += 1
        term = k if (0 <= k < n and self.fusable[k]
                     and self.branchy[k]) else None
        if not run and term is None:
            return None
        return run, term, k

    def _emit_term_branch(self, out, ind, term):
        """A conditional that ends a (non-loop) chain segment."""
        self._raw_break(out, ind, term)
        out.append(ind + "counts[%d] += 1" % term)
        out.append(ind + "_n += 1")
        out.append(ind + "c += 1")
        out.append(ind + "if %s:" % self._cond_expr(term))
        out.append(ind + " _br += %d" % self.pen)
        out.append(ind + " c += %d" % self.pen)
        out.append(ind + " _i = %d" % self._target(term))
        out.append(ind + "else:")
        out.append(ind + " _i = %d" % (term + 1))
        out.append(ind + "break")

    def _emit_term_jump(self, out, ind, term):
        """An unconditional control op ends the chain."""
        ins = self.body[term]
        self._raw_break(out, ind, term)
        if ins.op.is_xbreak:
            out.append(ind + "ctx.exit_flag = True")
        if ins.op.fmt == Fmt.JALR:
            out.append(ind + "_j = (R[%d] + %d) & 4294967294"
                       % (ins.rs1, ins.imm))
        if ins.rd:
            out.append(ind + "R[%d] = %d" % (ins.rd,
                                             to_u32(ins.pc + 4)))
            out.append(ind + "ready[%d] = c + 1" % ins.rd)
        out.append(ind + "counts[%d] += 1" % term)
        out.append(ind + "_n += 1")
        out.append(ind + "c += 1")
        out.append(ind + "_br += %d" % self.pen)
        out.append(ind + "c += %d" % self.pen)
        if ins.op.fmt == Fmt.JALR:
            out.append(ind + "_i = (_j - %d) >> 2" % self.base)
        else:
            out.append(ind + "_i = %d" % self._target(term))
        out.append(ind + "break")

    def _emit_loop_fn(self, out, term, ti):
        """One shared compiled ``while`` per inner back-branch,
        emitted once and called from every chain that reaches the loop
        head.  Returns ``(c, next_i, _n, branch_stall)``; any RAW
        break hands the stalling slot back to the dispatcher."""
        out.append(" def _w%d(ctx, c, _n):" % term)
        ind = "  "
        out.append(ind + "R = ctx.regs")
        out.append(ind + "ready = ctx.ready")
        out.append(ind + "_br = 0")
        out.append(ind + "while 1:")
        i1 = ind + " "
        out.append(i1 + "if _n > %d:" % _LPSU_CHAIN_CAP)
        out.append(i1 + " return (c, %d, _n, _br)" % ti)
        for s in range(ti, term):
            for src in self.nz_srcs[s]:
                out.append(i1 + "if ready[%d] > c:" % src)
                out.append(i1 + " return (c, %d, _n, _br)" % s)
            self._sem(out, i1, s)
            out.append(i1 + "counts[%d] += 1" % s)
            out.append(i1 + "_n += 1")
            if self.dst[s] is not None:
                out.append(i1 + "ready[%d] = c + 1" % self.dst[s])
            out.append(i1 + "c += 1")
        for src in self.nz_srcs[term]:
            out.append(i1 + "if ready[%d] > c:" % src)
            out.append(i1 + " return (c, %d, _n, _br)" % term)
        out.append(i1 + "counts[%d] += 1" % term)
        out.append(i1 + "_n += 1")
        out.append(i1 + "c += 1")
        out.append(i1 + "if %s:" % self._cond_expr(term))
        out.append(i1 + " _br += %d" % self.pen)
        out.append(i1 + " c += %d" % self.pen)
        out.append(i1 + " continue")
        out.append(i1 + "return (c, %d, _n, _br)" % (term + 1))

    def _emit_chain(self, out, ind, plan):
        """Superblock chain over *plan*.  All exits assign ``_i`` (the
        next pc index) and leave ``c`` at the context's next ready
        cycle — exactly the interpreted batch loop's contract.
        Straight-line emission is capped at ``_LPSU_PREFIX_CAP`` ops;
        a truncated chain simply re-enters through the next slot's own
        chain, which is schedule-identical."""
        run, term, k = plan
        out.append(ind + "while 1:")
        i1 = ind + " "
        cap = _LPSU_PREFIX_CAP
        loop_ti = self.loop_terms.get(term) if term is not None else None
        j = run[0] if run else term
        if loop_ti is not None and loop_ti > j:
            # entering above the loop head: straight-line down to it
            prefix = run[:loop_ti - j]
            if len(prefix) > cap:
                prefix, term = prefix[:cap], None
                k = prefix[-1] + 1
                loop_ti = None
            else:
                for s in prefix:
                    self._chain_op(out, i1, s)
                out.append(i1 + "c, _i, _n, _b = _w%d(ctx, c, _n)"
                           % term)
                out.append(i1 + "_br += _b")
                out.append(i1 + "break")
                return
            for s in prefix:
                self._chain_op(out, i1, s)
            out.append(i1 + "_i = %d" % k)
            out.append(i1 + "break")
            return
        if len(run) > cap:
            for s in run[:cap]:
                self._chain_op(out, i1, s)
            out.append(i1 + "_i = %d" % (run[cap - 1] + 1))
            out.append(i1 + "break")
            return
        for s in run:
            self._chain_op(out, i1, s)
        if term is None:
            out.append(i1 + "_i = %d" % k)
            out.append(i1 + "break")
            return
        if loop_ti is not None:
            # entering mid-loop (or at the back-branch): finish this
            # pass once, then fall into the shared steady loop
            self._raw_break(out, i1, term)
            out.append(i1 + "counts[%d] += 1" % term)
            out.append(i1 + "_n += 1")
            out.append(i1 + "c += 1")
            out.append(i1 + "if not (%s):" % self._cond_expr(term))
            out.append(i1 + " _i = %d" % (term + 1))
            out.append(i1 + " break")
            out.append(i1 + "_br += %d" % self.pen)
            out.append(i1 + "c += %d" % self.pen)
            out.append(i1 + "c, _i, _n, _b = _w%d(ctx, c, _n)" % term)
            out.append(i1 + "_br += _b")
            out.append(i1 + "break")
            return
        ins = self.body[term]
        if ins.op.fmt not in (Fmt.BRANCH, Fmt.XLOOP):
            self._emit_term_jump(out, i1, term)
            return
        self._emit_term_branch(out, i1, term)

    # -- per-slot issue functions -----------------------------------------

    def _emit_compute(self, out, i):
        """kind 0/2: ALU, LLFU, and control ops."""
        ins = self.body[i]
        op = ins.op
        fmt = op.fmt
        ind = "  "
        self._emit_cirs(out, ind, i)
        self._raw_stall(out, ind, i)
        if self.kind[i] == 2:
            occ = self.occupy[i]
            if self.cfg.llfus == 1:
                out.append(ind + "if lf[0] > cycle:")
                self._emit_stall_one(out, ind + " ", "llfu")
                out.append(ind + "lf[0] = cycle + %d" % occ)
            else:
                out.append(ind + "_u = 0")
                out.append(ind + "while _u < %d:" % self.cfg.llfus)
                out.append(ind + " if lf[_u] <= cycle:")
                out.append(ind + "  break")
                out.append(ind + " _u += 1")
                out.append(ind + "else:")
                self._emit_stall_one(out, ind + " ", "llfu")
                out.append(ind + "lf[_u] = cycle + %d" % occ)

        if fmt in (Fmt.BRANCH, Fmt.XLOOP):
            out.append(ind + "counts[%d] += 1" % i)
            out.append(ind + "ctx.attempt_instrs += 1")
            out.append(ind + "st.busy += 1")
            out.append(ind + "if %s:" % self._cond_expr(i))
            out.append(ind + " st.stall_branch += %d" % self.pen)
            out.append(ind + " ctx.pc_index = %d" % self._target(i))
            out.append(ind + " ctx.ready_at = cycle + %d"
                       % (1 + self.pen))
            out.append(ind + "else:")
            out.append(ind + " ctx.pc_index = %d" % (i + 1))
            out.append(ind + " ctx.ready_at = cycle + 1")
            out.append(ind + "return True")
            return
        if fmt == Fmt.JAL or fmt == Fmt.JALR:
            if op.is_xbreak:
                out.append(ind + "ctx.exit_flag = True")
            if fmt == Fmt.JALR:
                out.append(ind + "_j = (R[%d] + %d) & 4294967294"
                           % (ins.rs1, ins.imm))
            if ins.rd:
                out.append(ind + "R[%d] = %d"
                           % (ins.rd, to_u32(ins.pc + 4)))
                out.append(ind + "ready[%d] = cycle + 1" % ins.rd)
            out.append(ind + "counts[%d] += 1" % i)
            out.append(ind + "ctx.attempt_instrs += 1")
            out.append(ind + "st.busy += 1")
            out.append(ind + "st.stall_branch += %d" % self.pen)
            if fmt == Fmt.JALR:
                out.append(ind + "ctx.pc_index = (_j - %d) >> 2"
                           % self.base)
            else:
                out.append(ind + "ctx.pc_index = %d" % self._target(i))
            out.append(ind + "ctx.ready_at = cycle + %d"
                       % (1 + self.pen))
            out.append(ind + "return True")
            return

        # plain compute: semantics + scoreboard + CIR/bound bookkeeping
        self._sem(out, ind, i)
        out.append(ind + "counts[%d] += 1" % i)
        dst = self.dst[i]
        if dst is not None:
            out.append(ind + "ready[%d] = cycle + %d"
                       % (dst, self.latency[i]))
        if self.pub[i]:
            out.append(ind + "ctx.cir_written.add(%d)" % dst)
            if ins.last_cir_write:
                self._emit_publish(out, ind, dst,
                                   "cycle + %d" % self.latency[i])
        if self.bound_dst[i]:
            out.append(ind + "_b = s32(R[%d])" % dst)
            out.append(ind + "if _b > L.bound:")
            out.append(ind + " L.bound = _b")

        plan = self._chain_plan(i + 1) if self.kind[i] == 0 else None
        if plan is None:
            out.append(ind + "ctx.attempt_instrs += 1")
            out.append(ind + "st.busy += 1")
            out.append(ind + "ctx.pc_index = %d" % (i + 1))
            out.append(ind + "ctx.ready_at = cycle + 1")
            out.append(ind + "return True")
            return
        out.append(ind + "c = cycle + 1")
        out.append(ind + "_n = 1")
        out.append(ind + "_br = 0")
        out.append(ind + "_i = %d" % (i + 1))
        if self.needs_lsq:
            # only the unsquashable oldest iteration may batch ahead
            out.append(ind + "if ctx.k == L._commit_next:")
            self._emit_chain(out, ind + " ", plan)
        else:
            self._emit_chain(out, ind, plan)
        out.append(ind + "ctx.attempt_instrs += _n")
        out.append(ind + "st.busy += _n")
        out.append(ind + "st.stall_branch += _br")
        out.append(ind + "ctx.pc_index = _i")
        out.append(ind + "ctx.ready_at = c")
        out.append(ind + "return True")

    def _emit_load_value(self, out, ind, mnemonic):
        """Inline ``Memory.load`` with a cached page lookup."""
        size, signed = _LOAD_SIZE[mnemonic]
        if size == 4:
            out.append(ind + "_o = _a & 4095")
            out.append(ind + "if _o <= 4092:")
            out.append(ind + " _pg = pages.get(_a >> 12)")
            out.append(ind + " if _pg is None:")
            out.append(ind + "  _pg = getpage(_a)")
            out.append(ind + " _v = (_pg[_o] | (_pg[_o + 1] << 8)"
                             " | (_pg[_o + 2] << 16)"
                             " | (_pg[_o + 3] << 24))")
            out.append(ind + "else:")
            out.append(ind + " _v = mload(_a, 4, %r)" % signed)
        elif size == 1:
            out.append(ind + "_pg = pages.get(_a >> 12)")
            out.append(ind + "if _pg is None:")
            out.append(ind + " _pg = getpage(_a)")
            out.append(ind + "_v = _pg[_a & 4095]")
            if signed:
                out.append(ind + "if _v >= 128:")
                out.append(ind + " _v += 4294967040")
        else:
            out.append(ind + "_v = mload(_a, %d, %r)" % (size, signed))

    def _emit_store_value(self, out, ind, mnemonic):
        """Inline ``Memory.store`` of ``_v`` with a cached page."""
        size = _STORE_SIZE[mnemonic]
        if size == 4:
            out.append(ind + "_o = _a & 4095")
            out.append(ind + "if _o <= 4092:")
            out.append(ind + " _pg = pages.get(_a >> 12)")
            out.append(ind + " if _pg is None:")
            out.append(ind + "  _pg = getpage(_a)")
            out.append(ind + " _pg[_o] = _v & 255")
            out.append(ind + " _pg[_o + 1] = (_v >> 8) & 255")
            out.append(ind + " _pg[_o + 2] = (_v >> 16) & 255")
            out.append(ind + " _pg[_o + 3] = (_v >> 24) & 255")
            out.append(ind + "else:")
            out.append(ind + " mstore(_a, 4, _v)")
        elif size == 1:
            out.append(ind + "_pg = pages.get(_a >> 12)")
            out.append(ind + "if _pg is None:")
            out.append(ind + " _pg = getpage(_a)")
            out.append(ind + "_pg[_a & 4095] = _v & 255")
        else:
            out.append(ind + "mstore(_a, %d, _v)" % size)

    def _emit_stall_one(self, out, ind, counter):
        # inline ``_stall_one`` for the arbitration stalls: under
        # engine gating trace/monitor/recording are all inactive, so
        # only the retry wake-up and the stat counter remain
        out.append(ind + "ctx.ready_at = cycle + 1")
        out.append(ind + "st.stall_%s += 1" % counter)
        out.append(ind + "return True")

    def _emit_memport(self, out, ind):
        out.append(ind + "if L._mem_grants >= %d:" % self.cfg.mem_ports)
        self._emit_stall_one(out, ind + " ", "memport")
        out.append(ind + "L._mem_grants += 1")

    def _emit_mem(self, out, i):
        """kind 1: loads, stores, and AMOs with the pattern's LSQ /
        forwarding / broadcast behaviour folded in (mirrors
        ``LPSU._step_mem`` line for line)."""
        ins = self.body[i]
        op = ins.op
        m = op.mnemonic
        ind = "  "
        nl = self.needs_lsq
        self._emit_cirs(out, ind, i)
        self._raw_stall(out, ind, i)
        if nl:
            out.append(ind + "_sp = (not ctx.bypass"
                             " and ctx.k != L._commit_next)")
            out.append(ind + "if not _sp:")
            out.append(ind + " ctx.bypass = True")
        if op.fmt == Fmt.AMO:
            out.append(ind + "_a = R[%d]" % ins.rs1)
            if nl:
                out.append(ind + "if _sp:")
                out.append(ind + " stall_one(ctx, cycle, 'commit')")
                out.append(ind + " return True")
        else:
            out.append(ind + "_a = (R[%d] + %d) & %s"
                       % (ins.rs1, ins.imm, _M))

        result_time = "cycle + 1"
        if op.is_load:
            size, _signed = _LOAD_SIZE[m]
            if nl and self.squash:
                out.append(ind + "if _sp and len(ctx.load_words)"
                                 " >= %d:" % self.cfg.lsq_loads)
                self._emit_stall_one(out, ind + " ", "lsq")
            if nl:
                out.append(ind + "_f = None")
                if self.ilf:
                    out.append(ind + "_fs = -1")
                out.append(ind + "if _sp:")
                out.append(ind + " _f = fwd(ctx, _a, %d)" % size)
                out.append(ind + " if _f == 'overlap':")
                self._emit_stall_one(out, ind + "  ", "lsq")
                if self.ilf:
                    out.append(ind + " if _f is None:")
                    out.append(ind + "  _f, _fs = fwd_across("
                                     "ctx, _a, %d)" % size)
                    out.append(ind + "  if _f == 'overlap':")
                    self._emit_stall_one(out, ind + "   ", "lsq")
                out.append(ind + "if _f is None:")
                i1 = ind + " "
            else:
                i1 = ind
            self._emit_memport(out, i1)
            out.append(i1 + "_x = cacc(_a, False)")
            out.append(i1 + "ev.dc_access += 1")
            out.append(i1 + "if _x > %d:" % self.hit)
            out.append(i1 + " ev.dc_miss += 1")
            self._emit_load_value(out, i1, m)
            if nl:
                if self.squash:
                    out.append(i1 + "if _sp:")
                    out.append(i1 + " ctx.load_words[_a & -4] = -1")
                    out.append(i1 + " ev.lsq_write += 1")
                out.append(ind + "else:")
                out.append(ind + " _x = 1")
                out.append(ind + " _v = _f")
                if self.ilf and self.squash:
                    out.append(ind + " if _fs >= 0:")
                    out.append(ind + "  _w = _a & -4")
                    out.append(ind + "  _p = ctx.load_words.get(_w)")
                    out.append(ind + "  ctx.load_words[_w] = (_fs"
                                     " if _p is None else"
                                     " (_p if _p < _fs else _fs))")
                out.append(ind + "if _sp:")
                out.append(ind + " ev.lsq_search += 1")
            if ins.rd:
                out.append(ind + "R[%d] = _v" % ins.rd)
                out.append(ind + "ready[%d] = cycle + _x" % ins.rd)
                result_time = "cycle + _x"
        elif op.is_store:
            size = _STORE_SIZE[m]
            if nl:
                out.append(ind + "if _sp and len(ctx.store_buf)"
                                 " >= %d:" % self.cfg.lsq_stores)
                self._emit_stall_one(out, ind + " ", "lsq")
            self._emit_memport(out, ind)
            out.append(ind + "_x = cacc(_a, True)")
            out.append(ind + "ev.dc_access += 1")
            out.append(ind + "if _x > %d:" % self.hit)
            out.append(ind + " ev.dc_miss += 1")
            out.append(ind + "_v = R[%d]" % ins.rs2)
            if nl:
                out.append(ind + "if _sp:")
                out.append(ind + " ctx.store_buf.append("
                                 "SE(_a, %d, _v))" % size)
                out.append(ind + " ev.lsq_write += 1")
                if self.ilf:
                    out.append(ind + " inval(ctx, _a, cycle)")
                out.append(ind + "else:")
                i1 = ind + " "
            else:
                i1 = ind
            self._emit_store_value(out, i1, m)
            if self.ilf:
                out.append(i1 + "inval(ctx, _a, cycle)")
            if self.squash:
                out.append(i1 + "bcast(_a, ctx, cycle)")
        else:  # AMO, non-speculative by construction here
            self._emit_memport(out, ind)
            out.append(ind + "_x = cacc(_a, False)")
            out.append(ind + "ev.dc_access += 1")
            out.append(ind + "if _x > %d:" % self.hit)
            out.append(ind + " ev.dc_miss += 1")
            if ins.rd:
                out.append(ind + "R[%d] = mamo(%r, _a, R[%d])"
                           % (ins.rd, m, ins.rs2))
                out.append(ind + "ready[%d] = cycle + %d"
                           % (ins.rd, self.lat.amo))
                result_time = "cycle + %d" % self.lat.amo
            else:
                out.append(ind + "mamo(%r, _a, R[%d])" % (m, ins.rs2))
            if self.ilf:
                out.append(ind + "inval(ctx, _a, cycle)")
            if self.squash:
                out.append(ind + "bcast(_a, ctx, cycle)")
            if self.dyn_bound and ins.rd == self.bound_reg:
                out.append(ind + "_b = s32(R[%d])" % ins.rd)
                out.append(ind + "if _b > L.bound:")
                out.append(ind + " L.bound = _b")

        if self.pub[i]:
            out.append(ind + "ctx.cir_written.add(%d)" % self.dst[i])
            if ins.last_cir_write:
                self._emit_publish(out, ind, self.dst[i], result_time)
        out.append(ind + "counts[%d] += 1" % i)
        out.append(ind + "ctx.attempt_instrs += 1")
        out.append(ind + "ctx.pc_index = %d" % (i + 1))
        out.append(ind + "ctx.ready_at = cycle + 1")
        out.append(ind + "st.busy += 1")
        if self.dyn_bound and op.is_load and ins.rd == self.bound_reg:
            out.append(ind + "_b = s32(R[%d])" % ins.rd)
            out.append(ind + "if _b > L.bound:")
            out.append(ind + " L.bound = _b")
        out.append(ind + "return True")

    # -- assembly ----------------------------------------------------------

    def build(self):
        out = []
        out.append("def make(L):")
        for ln in ("mem = L.mem",
                   "pages = mem._pages",
                   "getpage = mem._page",
                   "mload = mem.load",
                   "mstore = mem.store",
                   "mamo = mem.amo",
                   "cacc = L.cache.access",
                   "st = L.stats",
                   "counts = L._exec_counts",
                   "ev = L.events",
                   "cib = L._cib",
                   "stall_one = L._stall_one",
                   "end_iter = L._end_iteration",
                   "begin_iter = L._begin_iteration",
                   "more_iters = L._more_iterations",
                   "adv_commit = L._advance_commit",
                   "drain = L._drain_one",
                   "fwd = L._forward",
                   "fwd_across = L._forward_across",
                   "inval = L._invalidate_stale_forwards",
                   "bcast = L._broadcast",
                   "lf = L._llfu_free"):
            out.append(" " + ln)
        for term, ti in sorted(self.loop_terms.items()):
            self._emit_loop_fn(out, term, ti)
        for i in range(self.n):
            out.append(" def _s%d(ctx, cycle):" % i)
            out.append("  R = ctx.regs")
            out.append("  ready = ctx.ready")
            if self.kind[i] == 1:
                self._emit_mem(out, i)
            else:
                self._emit_compute(out, i)
        out.append(" SLOTS = [%s]"
                   % ", ".join("_s%d" % i for i in range(self.n)))
        out.append(" def step(ctx, cycle):")
        out.append("  if not ctx.active:")
        out.append("   if not more_iters():")
        out.append("    return False")
        out.append("   begin_iter(ctx, cycle)")
        out.append("  if ctx.ready_at > cycle:")
        out.append("   return False")
        out.append("  if ctx.committing:")
        out.append("   return adv_commit(ctx, cycle)")
        if self.needs_lsq:
            out.append("  if (ctx.store_buf and not ctx.bypass"
                       " and ctx.k == L._commit_next):")
            out.append("   return drain(ctx, cycle, True)")
        out.append("  _pi = ctx.pc_index")
        out.append("  if _pi >= %d:" % self.n)
        out.append("   return end_iter(ctx, cycle)")
        out.append("  return SLOTS[_pi](ctx, cycle)")
        out.append(" return step")

        # deferred import: repro.uarch depends on repro.sim, not the
        # other way around, so _StoreEntry is resolved at build time
        from ..uarch.lpsu import _StoreEntry
        ns = {
            "s32": to_s32,
            "f2b": f32_to_bits,
            "b2f": bits_to_f32,
            "md": _muldiv,
            "fdivb": _fp_div,
            "fsqrtb": _fsqrt,
            "SE": _StoreEntry,
        }
        src = "\n".join(out)
        code = compile(src, "<fused:lpsu>", "exec")
        exec(code, ns)
        return ns["make"]


def _lpsu_content_key(descriptor, lpsu_cfg, gpp_cfg):
    """Everything the generated engine source depends on.  Two loops
    with equal keys produce byte-identical source, and the generated
    code binds all live state inside ``make(L)``, so compiled engines
    are shared across programs/processes-lifetime by content."""
    d = descriptor
    body = tuple((ins.op.mnemonic, ins.rd, ins.rs1, ins.rs2, ins.imm,
                  ins.pc, ins.last_cir_write) for ins in d.body)
    return (body, d.body_start_pc, frozenset(d.cirs), d.bound_reg,
            d.kind.data.ordered_through_registers,
            d.kind.data.needs_memory_disambiguation,
            d.kind.control.value, repr(lpsu_cfg),
            repr(gpp_cfg.latencies), gpp_cfg.cache.hit_latency)


def lpsu_engine(program, descriptor, lpsu_cfg, gpp_cfg):
    """Compiled fused-lane step engine for one xloop, or None.

    Returns a ``make(lpsu) -> step`` factory cached on *program* (the
    body, CIR set, and last-CIR-write bits of a static xloop never
    change between invocations; only MIV increments do, and those live
    in interpreted iteration setup).  None when the body contains an
    instruction the generator cannot inline — the LPSU then runs fully
    interpreted, exactly as before.
    """
    key = ("lpsu", descriptor.xloop_pc, repr(lpsu_cfg),
           repr(gpp_cfg.latencies), gpp_cfg.cache.hit_latency)
    cache = getattr(program, "_fused", None)
    if cache is None:
        cache = program._fused = {}
    if key in cache:
        return cache[key]
    make = None
    if descriptor.body and all(emittable(ins)
                               for ins in descriptor.body):
        ck = _lpsu_content_key(descriptor, lpsu_cfg, gpp_cfg)
        make = _LPSU_MAKE_CACHE.get(ck)
        if make is None:
            make = _LPSU_MAKE_CACHE[ck] = \
                _LPSUGen(descriptor, lpsu_cfg, gpp_cfg).build()
    cache[key] = make
    return make
