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
    ``blk(core, push) -> next_pc``: the same semantics, then one
    ``push((recs, addrs, ctrl_pc, taken, counts))`` that appends the
    block's timing work to the driver's pending list: its static
    ``(src1, src2, dst, kind)`` records, its memory addresses in
    program order, the outcome of its terminating control op, and its
    folded static event counts.  The driver hands the list to the GPP
    timing model's ``run_blocks`` (in-order or out-of-order) in
    batches.  The records carry no configuration (each model maps
    ``kind`` to its own latencies), so one table serves every GPP.

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
    one ``push`` of the block's timing tuple onto the driver's pending
    list.  All of the block's semantics run before it is timed; that
    is safe because timing reads only the memory addresses and the
    branch outcome, and it still sees every cache and predictor access
    in program order."""
    lines.append("def %s(c, p):" % name if timing else "def %s(c):" % name)
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
        lines.append(" p((%r, (%s), %d, %s, %r))"
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
#: state arrives via the core and pending-list arguments), so two
#: recompiles of the same kernel — e.g. repeated cold runs after
#: ``clear_cache`` — reuse one compiled table, and a ``gpp`` table
#: serves the in-order and every out-of-order GPP alike.
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

#: run-ahead budget of one step call: run functions entered, and
#: passes of one compiled ``while``, before the context hands back to
#: the cycle loop.  Stopping a run-ahead at a leader is
#: schedule-identical (the next step resumes there at the same virtual
#: cycle), so this only bounds the host latency of one step call.
_LPSU_RUN_CAP = 4096

#: compiled `make` factories keyed by loop-body *content*, so
#: recompiling the same kernel (cold sweeps, repeated cold runs) and
#: every LPSU design point reuse the generated engine instead of
#: re-emitting + re-compiling it.  Safe because generated code
#: depends only on the key below and binds all live state and every
#: configuration value per-LPSU inside make().  It lives for the
#: process, as the GPP block tables do, and the kernel registry
#: bounds it (Table II's 25 kernels have 27 distinct bodies, 1.6 MB
#: of heap; all 41 kernels with xi on and off have 88, 5.2 MB).
_LPSU_MAKE_CACHE = {}


class _LPSUGen:
    """Emit a ``make(lpsu) -> step`` factory for one xloop body.

    ``step(ctx, cycle)`` is a drop-in replacement for
    :meth:`repro.uarch.lpsu.LPSU._step` on non-recording cycles: every
    static per-instruction fact the interpreted path resolves per
    cycle (operand registers, issue class, CIR/LSQ/bound flags,
    byte-level memory access) is folded into generated code, one slot
    function ``_s<i>`` per instruction-buffer slot.

    **Run-ahead.**  A *lane-private* op -- single-cycle compute, a
    branch or a direct jump that reads no CIR and writes no CIR or
    bound register -- touches only its context's registers and
    scoreboard, so no other lane can see it or change what it does.
    After any op, a context that may run ahead therefore keeps
    executing lane-private ops at their virtual cycles, charging the
    RAW waits between them to ``stall_raw`` and taken branches to
    ``stall_branch``, until its next memory, LLFU, CIR, bound or
    iteration-end op; it takes that op's RAW wait too when the op reads
    no CIR (a CIB wait would come first).  Only a context that cannot
    be squashed or discarded mid-run may run ahead: one context per
    lane (another context could claim the issue slot) and, where the
    pattern can squash or discard, the oldest iteration.  The
    lane-private code is emitted once, as one run function ``_r<j>``
    per basic-block leader, chained by ``ahead``; a block whose
    back-branch targets its own leader is a compiled ``while``.  Within
    one run pass a register is checked for a pending write only until
    the pass writes it or waits for it, and only its last write there
    reaches the scoreboard.

    Nothing of the design point is generated: ``make(L)`` binds the LSQ
    capacities, memory ports, LLFU count and latencies, branch penalty,
    inter-lane forwarding, AMO latency and cache hit latency from the
    LPSU it serves, and whether it may run ahead
    (:meth:`repro.uarch.lpsu.LPSU.run`), so one engine serves every
    configuration of a loop body.  Iteration turnover, LSQ drains,
    commit, squash and parking stay on the interpreted helpers: the
    generated code calls straight back into the LPSU for them, which is
    what keeps the engine and ``interp`` bit-identical.
    """

    def __init__(self, descriptor):
        d = descriptor
        self.body = d.body
        self.n = n = len(d.body)
        self.base = d.body_start_pc
        self.cirs = d.cirs
        self.bound_reg = d.bound_reg
        self.ordered = d.kind.data.ordered_through_registers
        self.squash = d.kind.data.needs_memory_disambiguation
        self.needs_lsq = self.squash or d.kind.control.value == "de"
        self.dyn_bound = d.kind.control.value == "db"
        # who may run ahead (``fuse``: one context per lane)
        self.ahead_ok = ("fuse and ctx.k == L._commit_next"
                         if self.needs_lsq else "fuse")
        # per-slot statics (mirrors LPSU._build_meta / _fusable); an
        # LLFU slot's latency and occupancy are make() locals
        # ``_l<i>``/``_o<i>`` read from the LPSU's own meta table
        self.kind = []
        self.latency = []
        self.nz_srcs = []
        self.dst = []
        self.cir_srcs = []
        self.pub = []
        self.bound_dst = []
        self.branchy = []
        self.private = []
        for i, ins in enumerate(d.body):
            op = ins.op
            srcs = ins.src_regs()
            dst = ins.dst_reg()
            if op.is_mem and not op.is_fence:
                kind, latency = 1, "0"
            elif op.is_llfu:
                kind, latency = 2, "_l%d" % i
            else:
                kind, latency = 0, "1"
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
            branchy = op.is_branch or op.is_jump or op.is_xloop
            private = (kind == 0 and not csrcs and not pub
                       and not bound_dst)
            if private and branchy:
                # a jump through a register has no static successor
                private = op.fmt != Fmt.JALR and self._target(i) >= 0
            self.kind.append(kind)
            self.latency.append(latency)
            self.nz_srcs.append(nz)
            self.dst.append(dst)
            self.cir_srcs.append(csrcs)
            self.pub.append(pub)
            self.bound_dst.append(bound_dst)
            self.branchy.append(branchy)
            self.private.append(private)
        # basic-block leaders where a run starts: the body's first
        # slot, both successors of a control op, and the slot after
        # every other op a run stops at
        leaders = {0}
        for i, ins in enumerate(d.body):
            if self.branchy[i]:
                leaders.add(i + 1)
                if ins.op.fmt != Fmt.JALR:
                    leaders.add(self._target(i))
            elif not self.private[i]:
                leaders.add(i + 1)
        self.leaders = frozenset(j for j in leaders
                                 if 0 <= j < n and self.private[j])

    # -- small emission helpers -------------------------------------------

    def _target(self, i):
        """Instruction-buffer slot index of slot *i*'s branch target."""
        ins = self.body[i]
        return (ins.pc + ins.imm - self.base) >> 2

    @staticmethod
    def _latest_ready(out, ind, srcs):
        """``_w``: the cycle the last of *srcs* becomes ready."""
        out.append(ind + "_w = ready[%d]" % srcs[0])
        for s in srcs[1:]:
            out.append(ind + "_t = ready[%d]" % s)
            out.append(ind + "if _t > _w:")
            out.append(ind + " _w = _t")

    def _raw_stall(self, out, ind, i):
        """First-op RAW hazard check: stall + give up the issue slot."""
        srcs = self.nz_srcs[i]
        if not srcs:
            return
        self._latest_ready(out, ind, srcs)
        # inline ``_stall``: _w > cycle already implies the
        # max(until, cycle + 1) clamp is a no-op, and recording/trace
        # are inactive under engine gating
        out.append(ind + "if _w > cycle:")
        out.append(ind + " ctx.ready_at = _w")
        out.append(ind + " st.stall_raw += _w - cycle")
        out.append(ind + " return False")

    def _raw_wait(self, out, ind, srcs, off):
        """Run-ahead RAW wait on *srcs* for an op issuing at virtual
        cycle ``c + off``: move ``c`` past it, charging ``stall_raw``."""
        if not srcs:
            return
        self._latest_ready(out, ind, srcs)
        if off:
            out.append(ind + "if _w > c + %d:" % off)
            out.append(ind + " st.stall_raw += _w - c - %d" % off)
            out.append(ind + " c = _w - %d" % off)
        else:
            out.append(ind + "if _w > c:")
            out.append(ind + " st.stall_raw += _w - c")
            out.append(ind + " c = _w")

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
            out.append(ind + " if _ch is None:")
            out.append(ind + "  park_cib(ctx, cycle, %d)" % s)
            out.append(ind + "  return False")
            out.append(ind + " if _ch[0] > cycle:")
            out.append(ind + "  ctx.ready_at = _ch[0]")
            out.append(ind + "  st.stall_cib += _ch[0] - cycle")
            out.append(ind + "  return False")
            out.append(ind + " R[%d] = _ch[1]" % s)
            out.append(ind + " ctx.received_cirs[%d] = _ch[1]" % s)
            out.append(ind + " ready[%d] = cycle" % s)
            out.append(ind + " ev.cib_read += 1")
            out.append(ind + " ev.rf_write += 1")

    def _emit_publish(self, out, ind, dst, time_expr):
        """Inline ``LPSU._publish_cir`` (monitor is None by engine
        gating), waking a context parked on the channel."""
        out.append(ind + "_p = %s" % time_expr)
        out.append(ind + "cib[(%d, ctx.k + 1)] = (_p, R[%d])" % (dst, dst))
        out.append(ind + "ev.cib_write += 1")
        out.append(ind + "if cibw:")
        out.append(ind + " wake_cib(%d, ctx.k + 1, _p)" % dst)

    def _cond_expr(self, i):
        """Slot *i*'s branch condition.  Register values are canonical
        unsigned, so a signed compare flips their sign bits instead of
        calling ``s32``."""
        ins = self.body[i]
        m = "blt" if ins.op.fmt == Fmt.XLOOP else ins.op.mnemonic
        if m in ("blt", "bge"):
            a, b = ("2147483648" if r == 0 else "(R[%d] ^ 2147483648)" % r
                    for r in (ins.rs1, ins.rs2))
            return "%s %s %s" % (a, "<" if m == "blt" else ">=", b)
        return _BR_EXPR[m].format(A="R[%d]" % ins.rs1,
                                  B="R[%d]" % ins.rs2)

    # -- run-ahead: one run function per basic-block leader ----------------

    def _block(self, j):
        """Slots of leader *j*'s run: lane-private ops up to a control
        op (included), a stop op or the next leader (excluded)."""
        ops = [j]
        k = j
        while not self.branchy[k]:
            k += 1
            if k >= self.n or not self.private[k] or k in self.leaders:
                break
            ops.append(k)
        return ops

    def _emit_ops(self, out, ind, ops):
        """One pass over *ops* at virtual cycles ``c``, ``c + 1``, ...
        A register this pass wrote or already waited for is ready from
        then on, so only the others are checked.  Returns the offset
        of the cycle after the last op and the registers known ready
        there."""
        last = {}
        for pos, s in enumerate(ops):
            if self.dst[s] is not None:
                last[self.dst[s]] = pos
        known = set()
        for off, s in enumerate(ops):
            ins = self.body[s]
            srcs = [r for r in self.nz_srcs[s] if r not in known]
            self._raw_wait(out, ind, srcs, off)
            known.update(srcs)
            if not self.branchy[s]:
                self._sem(out, ind, s)
            else:
                if ins.op.is_xbreak:
                    out.append(ind + "ctx.exit_flag = True")
                if ins.rd and ins.op.fmt == Fmt.JAL:
                    out.append(ind + "R[%d] = %d"
                               % (ins.rd, to_u32(ins.pc + 4)))
            dst = self.dst[s]
            if dst is not None:
                known.add(dst)
                if last[dst] == off:
                    out.append(ind + "ready[%d] = c + %d" % (dst, off + 1))
        return len(ops), known

    def _emit_charge(self, out, ind, ops, passes, taken):
        """Charge *passes* passes over *ops* (expressions), *taken* of
        them ending in a taken back-branch."""
        for s in ops:
            out.append(ind + "counts[%d] += %s" % (s, passes))
        if passes == "1":
            n = "%d" % len(ops)
        else:
            out.append(ind + "_n = %d * %s" % (len(ops), passes))
            n = "_n"
        out.append(ind + "st.busy += %s" % n)
        out.append(ind + "ctx.attempt_instrs += %s" % n)
        if taken:
            out.append(ind + "st.stall_branch += pen * (%s)" % taken)

    def _emit_exit(self, out, ind, s, known):
        """Leave a run for slot *s*: chain on to its run when it is a
        leader, else stop there (``~s``), first taking its RAW wait
        when it reads no CIR."""
        if 0 <= s < self.n and self.private[s]:
            out.append(ind + "return c, %d" % s)
            return
        if 0 <= s < self.n and not self.cir_srcs[s]:
            self._raw_wait(out, ind, [r for r in self.nz_srcs[s]
                                      if r not in known], 0)
        out.append(ind + "return c, %d" % ~s)

    def _emit_run(self, out, j):
        ops = self._block(j)
        t = ops[-1]
        fmt = self.body[t].op.fmt
        cond = self.branchy[t] and fmt in (Fmt.BRANCH, Fmt.XLOOP)
        out.append(" def _r%d(ctx, c):" % j)
        ind = "  "
        out.append(ind + "R = ctx.regs")
        out.append(ind + "ready = ctx.ready")
        if cond and self._target(t) == j:
            # an inner loop: a compiled while over the whole block
            out.append(ind + "_k = 0")
            out.append(ind + "while 1:")
            i1 = ind + " "
            off, known = self._emit_ops(out, i1, ops)
            out.append(i1 + "_k += 1")
            out.append(i1 + "if not (%s):" % self._cond_expr(t))
            out.append(i1 + " break")
            out.append(i1 + "c += %d + pen" % off)
            out.append(i1 + "if _k >= %d:" % _LPSU_RUN_CAP)
            self._emit_charge(out, i1 + " ", ops, "_k", "_k")
            out.append(i1 + " return c, %d" % j)
            out.append(ind + "c += %d" % off)
            self._emit_charge(out, ind, ops, "_k", "_k - 1")
            self._emit_exit(out, ind, t + 1, known)
            return
        off, known = self._emit_ops(out, ind, ops)
        self._emit_charge(out, ind, ops, "1", None)
        if cond:
            out.append(ind + "if %s:" % self._cond_expr(t))
            out.append(ind + " st.stall_branch += pen")
            out.append(ind + " c += %d + pen" % off)
            self._emit_exit(out, ind + " ", self._target(t), known)
            out.append(ind + "c += %d" % off)
            self._emit_exit(out, ind, t + 1, known)
        elif self.branchy[t]:
            out.append(ind + "st.stall_branch += pen")
            out.append(ind + "c += %d + pen" % off)
            self._emit_exit(out, ind, self._target(t), known)
        else:
            out.append(ind + "c += %d" % off)
            self._emit_exit(out, ind, t + 1, known)

    def _emit_tail(self, out, ind, s, when, ahead=True):
        """Hand the context slot *s* at cycle *when* after the op it
        issued at ``cycle``, running ahead from there if it may."""
        if ahead and 0 <= s < self.n:
            if s in self.leaders:
                out.append(ind + "if %s:" % self.ahead_ok)
                out.append(ind + " c, ctx.pc_index = ahead(ctx, %s, %d)"
                           % (when, s))
                out.append(ind + " ctx.ready_at = c")
                out.append(ind + " return True")
            elif (not self.private[s] and not self.cir_srcs[s]
                    and self.nz_srcs[s]):
                out.append(ind + "if %s:" % self.ahead_ok)
                out.append(ind + " c = %s" % when)
                self._raw_wait(out, ind + " ", self.nz_srcs[s], 0)
                out.append(ind + " ctx.pc_index = %d" % s)
                out.append(ind + " ctx.ready_at = c")
                out.append(ind + " return True")
        out.append(ind + "ctx.pc_index = %d" % s)
        out.append(ind + "ctx.ready_at = %s" % when)
        out.append(ind + "return True")

    # -- per-slot issue functions -----------------------------------------

    def _emit_compute(self, out, i):
        """kind 0/2: ALU, LLFU, and control ops."""
        ins = self.body[i]
        op = ins.op
        fmt = op.fmt
        ind = "  "
        ahead = True
        if i in self.leaders:
            # a run starts here: one that may run ahead takes it whole
            out.append(ind + "if %s:" % self.ahead_ok)
            out.append(ind + " c, ctx.pc_index = ahead(ctx, cycle, %d)"
                       % i)
            out.append(ind + " ctx.ready_at = c")
            out.append(ind + " return True")
            ahead = False
        self._emit_cirs(out, ind, i)
        self._raw_stall(out, ind, i)
        if self.kind[i] == 2:
            # inline ``_llfu_acquire``: the first free unit, in order
            out.append(ind + "for _u in lfu:")
            out.append(ind + " if lf[_u] <= cycle:")
            out.append(ind + "  break")
            out.append(ind + "else:")
            # every unit busy: LPSU._stall_one re-polls or sleeps
            out.append(ind + " stall_one(ctx, cycle, 'llfu')")
            out.append(ind + " return True")
            out.append(ind + "lf[_u] = cycle + _o%d" % i)

        if fmt in (Fmt.BRANCH, Fmt.XLOOP):
            out.append(ind + "counts[%d] += 1" % i)
            out.append(ind + "ctx.attempt_instrs += 1")
            out.append(ind + "st.busy += 1")
            out.append(ind + "if %s:" % self._cond_expr(i))
            out.append(ind + " st.stall_branch += pen")
            self._emit_tail(out, ind + " ", self._target(i),
                            "cycle + pen1", ahead)
            self._emit_tail(out, ind, i + 1, "cycle + 1", ahead)
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
            out.append(ind + "st.stall_branch += pen")
            if fmt == Fmt.JALR:
                out.append(ind + "ctx.pc_index = (_j - %d) >> 2"
                           % self.base)
                out.append(ind + "ctx.ready_at = cycle + pen1")
                out.append(ind + "return True")
            else:
                self._emit_tail(out, ind, self._target(i),
                                "cycle + pen1", ahead)
            return

        # plain compute: semantics + scoreboard + CIR/bound bookkeeping
        self._sem(out, ind, i)
        out.append(ind + "counts[%d] += 1" % i)
        dst = self.dst[i]
        if dst is not None:
            out.append(ind + "ready[%d] = cycle + %s"
                       % (dst, self.latency[i]))
        if self.pub[i]:
            out.append(ind + "ctx.cir_written.add(%d)" % dst)
            if ins.last_cir_write:
                self._emit_publish(out, ind, dst,
                                   "cycle + %s" % self.latency[i])
        if self.bound_dst[i]:
            out.append(ind + "_b = s32(R[%d])" % dst)
            out.append(ind + "if _b > L.bound:")
            out.append(ind + " L.bound = _b")
        out.append(ind + "ctx.attempt_instrs += 1")
        out.append(ind + "st.busy += 1")
        self._emit_tail(out, ind, i + 1, "cycle + 1", ahead)

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

    def _emit_lsq_stall(self, out, ind):
        # LSQ waits may park (LPSU._stall_one decides)
        out.append(ind + "stall_one(ctx, cycle, 'lsq')")
        out.append(ind + "return True")

    def _emit_memport(self, out, ind):
        # inline ``_stall_one`` for the memory-port stall: under
        # engine gating trace/monitor/recording are all inactive, so
        # only the retry wake-up and the stat counter remain
        out.append(ind + "if L._mem_grants >= mports:")
        out.append(ind + " ctx.ready_at = cycle + 1")
        out.append(ind + " st.stall_memport += 1")
        out.append(ind + " return True")
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
                                 " >= lsql:")
                self._emit_lsq_stall(out, ind + " ")
            if nl:
                out.append(ind + "_f = None")
                out.append(ind + "_fs = -1")
                out.append(ind + "if _sp:")
                out.append(ind + " _f = fwd(ctx, _a, %d)" % size)
                out.append(ind + " if _f == 'overlap':")
                self._emit_lsq_stall(out, ind + "  ")
                out.append(ind + " if _f is None and ilf:")
                out.append(ind + "  _f, _fs = fwd_across("
                                 "ctx, _a, %d)" % size)
                out.append(ind + "  if _f == 'overlap':")
                self._emit_lsq_stall(out, ind + "   ")
                out.append(ind + "if _f is None:")
                i1 = ind + " "
            else:
                i1 = ind
            self._emit_memport(out, i1)
            out.append(i1 + "_x = cacc(_a, False)")
            out.append(i1 + "ev.dc_access += 1")
            out.append(i1 + "if _x > hit:")
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
                if self.squash:
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
                                 " >= lsqs:")
                self._emit_lsq_stall(out, ind + " ")
            self._emit_memport(out, ind)
            out.append(ind + "_x = cacc(_a, True)")
            out.append(ind + "ev.dc_access += 1")
            out.append(ind + "if _x > hit:")
            out.append(ind + " ev.dc_miss += 1")
            out.append(ind + "_v = R[%d]" % ins.rs2)
            if nl:
                out.append(ind + "if _sp:")
                out.append(ind + " ctx.store_buf.append("
                                 "SE(_a, %d, _v))" % size)
                out.append(ind + " ev.lsq_write += 1")
                out.append(ind + " if ilf:")
                out.append(ind + "  inval(ctx, _a, cycle)")
                out.append(ind + "else:")
                i1 = ind + " "
            else:
                i1 = ind
            self._emit_store_value(out, i1, m)
            out.append(i1 + "if ilf:")
            out.append(i1 + " inval(ctx, _a, cycle)")
            if self.squash:
                out.append(i1 + "bcast(_a, ctx, cycle)")
        else:  # AMO, non-speculative by construction here
            self._emit_memport(out, ind)
            out.append(ind + "_x = cacc(_a, False)")
            out.append(ind + "ev.dc_access += 1")
            out.append(ind + "if _x > hit:")
            out.append(ind + " ev.dc_miss += 1")
            if ins.rd:
                out.append(ind + "R[%d] = mamo(%r, _a, R[%d])"
                           % (ins.rd, m, ins.rs2))
                out.append(ind + "ready[%d] = cycle + amo_lat" % ins.rd)
                result_time = "cycle + amo_lat"
            else:
                out.append(ind + "mamo(%r, _a, R[%d])" % (m, ins.rs2))
            out.append(ind + "if ilf:")
            out.append(ind + " inval(ctx, _a, cycle)")
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
        out.append(ind + "st.busy += 1")
        if self.dyn_bound and op.is_load and ins.rd == self.bound_reg:
            out.append(ind + "_b = s32(R[%d])" % ins.rd)
            out.append(ind + "if _b > L.bound:")
            out.append(ind + " L.bound = _b")
        self._emit_tail(out, ind, i + 1, "cycle + 1")

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
                   "cibw = L._cib_waiters",
                   "wake_cib = L._wake_cib",
                   "park_cib = L._park_cib",
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
                   "lf = L._llfu_free",
                   "lfu = range(len(lf))",
                   # the design point: configuration, GPP latencies
                   # and L1 hit latency, as the interpreted path reads
                   # them (LPSU.run builds L._meta before make runs),
                   # and the run's run-ahead switch
                   "cfg = L.cfg",
                   "pen = cfg.branch_penalty",
                   "pen1 = pen + 1",
                   "mports = cfg.mem_ports",
                   "lsql = cfg.lsq_loads",
                   "lsqs = cfg.lsq_stores",
                   "ilf = cfg.inter_lane_forwarding",
                   "hit = L.cache.config.hit_latency",
                   "amo_lat = L.lat.amo",
                   "fuse = L._fuse",
                   "meta = L._meta"):
            out.append(" " + ln)
        for i in range(self.n):
            if self.kind[i] == 2:
                out.append(" _l%d, _o%d = meta[%d][4], meta[%d][5]"
                           % (i, i, i, i))
        if self.leaders:
            for j in sorted(self.leaders):
                self._emit_run(out, j)
            out.append(" RUNS = [%s]" % ", ".join(
                "_r%d" % i if i in self.leaders else "None"
                for i in range(self.n)))
            out.append(" caps = range(%d)" % _LPSU_RUN_CAP)
            out.append(" def ahead(ctx, c, i):")
            out.append("  for _ in caps:")
            out.append("   c, i = RUNS[i](ctx, c)")
            out.append("   if i < 0:")
            out.append("    return c, ~i")
            out.append("  return c, i")
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


def _lpsu_content_key(descriptor):
    """Everything the generated engine source depends on: the loop
    body and its pattern, never the design point.  Two loops with
    equal keys produce byte-identical source, and the generated code
    binds all live state and configuration inside ``make(L)``, so
    compiled engines are shared across programs, design points and
    the process lifetime by content."""
    d = descriptor
    body = tuple((ins.op.mnemonic, ins.rd, ins.rs1, ins.rs2, ins.imm,
                  ins.pc, ins.last_cir_write) for ins in d.body)
    return (body, d.body_start_pc, frozenset(d.cirs), d.bound_reg,
            d.kind.data.ordered_through_registers,
            d.kind.data.needs_memory_disambiguation,
            d.kind.control.value)


def lpsu_engine(program, descriptor):
    """Compiled fused-lane step engine for one xloop, or None.

    Returns a ``make(lpsu) -> step`` factory cached on *program* (the
    body, CIR set, and last-CIR-write bits of a static xloop never
    change between invocations; only MIV increments do, and those live
    in interpreted iteration setup).  One factory serves every LPSU
    configuration, one or two contexts per lane.  None when the body
    contains an instruction the generator cannot inline — the LPSU
    then runs fully interpreted, exactly as before.
    """
    key = ("lpsu", descriptor.xloop_pc)
    cache = getattr(program, "_fused", None)
    if cache is None:
        cache = program._fused = {}
    if key in cache:
        return cache[key]
    make = None
    if descriptor.body and all(emittable(ins)
                               for ins in descriptor.body):
        ck = _lpsu_content_key(descriptor)
        make = _LPSU_MAKE_CACHE.get(ck)
        if make is None:
            make = _LPSU_MAKE_CACHE[ck] = _LPSUGen(descriptor).build()
    cache[key] = make
    return make

