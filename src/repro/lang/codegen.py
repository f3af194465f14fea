"""MiniC -> XLOOPS assembly code generation.

One :class:`FuncCodegen` per function emits virtual-register assembly
(:mod:`repro.lang.vasm`), runs linear-scan allocation
(:mod:`repro.lang.regalloc`), and renders final assembly text.

XLOOPS specifics (paper Sections II-A/II-B):

* annotated loops are rotated into the guard + do-while shape the
  ``xloop`` instruction expects (body label precedes the xloop, which
  acts as the backward conditional branch on traditional execution);
* loop strength reduction turns affine array addressing into induction
  pointers, bumped with ``addiu.xi``/``addu.xi`` inside xloop bodies
  (the MIV encoding) and plain adds elsewhere; disabling ``xi``
  (``CodegenOptions.xi_enabled=False``, as in the paper's RTL
  evaluation) recomputes addresses from the index instead, at the cost
  of extra dynamic instructions;
* when ``CodegenOptions.xloops=False`` the same source compiles to a
  pure general-purpose binary (pragmas ignored, backward ``blt``
  instead of ``xloop``), which is the paper's GP-ISA baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sim.memory import f32_to_bits
from .ast_nodes import (AddrOf, Assign, Binary, Break, Call, Cast, CHAR,
                        Continue, Decl, Expr, ExprStmt, FLOAT, FloatLit,
                        For, Function, If, Index, INT, IntLit, Return,
                        Stmt, Unary, Unit, Var, VOID, While, walk_exprs)
from .lexer import CompileError
from .passes.depend import LinForm, decompose, _BodyScan, _canonical_loop
from .regalloc import allocate
from .sema import AMO_BUILTINS, FLOAT_BUILTINS, Symbol
from .vasm import RA, SP, VInstr, ZERO, preg, vreg

IMM12_MIN, IMM12_MAX = -2048, 2047

_INT_CMP = {"<", ">", "<=", ">=", "==", "!="}
_SWAPPED = {">": "<", "<=": ">="}


@dataclass
class CodegenOptions:
    """Knobs for the experiments."""

    xloops: bool = True        # False -> GP-ISA baseline binary
    xi_enabled: bool = True    # False -> no MIV encoding (Section V)
    sr_enabled: bool = True    # loop strength reduction on/off
    max_mivs: int = 6          # MIVT budget per loop
    # automatic CIR-critical-path scheduling (Section IV-G automated;
    # off by default to keep the paper's compiler baseline)
    schedule_cirs: bool = False


@dataclass
class _SRGroup:
    """One strength-reduced induction pointer."""

    ptr: Tuple                 # pointer vreg
    bump_imm: Optional[int]    # constant byte stride, or None
    bump_reg: Optional[Tuple]  # register byte stride (addu.xi), or None


class FuncCodegen:
    def __init__(self, func, unit, options):
        self.func = func
        self.unit = unit
        self.opts = options
        self.instrs: List[VInstr] = []
        self._nv = 0
        self._nlabel = 0
        self.sym_reg: Dict[Symbol, Tuple] = {}
        self.array_offset: Dict[Symbol, int] = {}
        self.array_bytes = 0
        self.call_positions: List[int] = []
        self.loop_regions: List[Tuple[int, int]] = []
        self.xloop_regions: List[Tuple[int, int]] = []
        #: per emitted xloop: (For stmt, body label, {CIR vreg: name})
        self.xloops: List[Tuple] = []
        #: filled by run(): (For stmt, body label, {phys reg: CIR name})
        self.xloop_cirs: List[Tuple] = []
        self.loop_stack: List[Tuple[Optional[str], str]] = []
        self.sr_map: Dict[int, _SRGroup] = {}
        self.float_reg: Dict[int, Tuple] = {}
        self.float_labels: Dict[int, str] = {}
        self.has_calls = False

    # -- low-level helpers --------------------------------------------------

    def v(self):
        self._nv += 1
        return vreg(self._nv - 1)

    def label(self, hint):
        self._nlabel += 1
        return "%s__%s%d" % (self.func.name, hint, self._nlabel - 1)

    def emit(self, mn, **kw):
        ins = VInstr(mn, **kw)
        self.instrs.append(ins)
        return ins

    def emit_label(self, name):
        self.instrs.append(VInstr(name, is_label=True))

    def li(self, value, dst=None):
        dst = dst or self.v()
        self.emit("li", rd=dst, imm=value)
        return dst

    # -- entry ------------------------------------------------------------------

    def run(self):
        func = self.func
        # parameters: move out of the ABI registers immediately
        for k, p in enumerate(func.params):
            sym = self._param_symbol(p.name)
            reg = self.v()
            self.sym_reg[sym] = reg
            self.emit("mv", rd=reg, rs1=preg(10 + k),
                      comment="param %s" % p.name)
        # local arrays: frame offsets (assigned as declarations appear)
        self._assign_array_offsets(func.body)
        # float constants: materialized once at entry (must dominate uses)
        self._materialize_floats()
        self._epilogue_label = self.label("epilogue")
        self.return_positions = []
        self.gen_stmts(func.body)
        if self.opts.schedule_cirs and any(c for _s, _l, c in self.xloops):
            self._apply_cir_scheduling()
        result = allocate(
            self.instrs, call_positions=self.call_positions,
            loop_regions=self.loop_regions,
            xloop_regions=self.xloop_regions,
            spill_base=self.array_bytes,
            num_params=len(func.params),
            return_positions=self.return_positions)
        self.xloop_cirs = [
            (stmt, label, {result.mapping[v[1]] if v[0] == "v" else v[1]:
                           name for v, name in cirs.items()})
            for stmt, label, cirs in self.xloops]
        return self._render(result)

    def _param_symbol(self, name):
        for sym in self._sema_symbols():
            if sym.name == name and sym.is_param:
                return sym
        raise CompileError("internal: unresolved parameter %r" % name)

    def _sema_symbols(self):
        from .sema import Sema  # annotated by the driver
        return self.func._symbols

    def _assign_array_offsets(self, stmts):
        from .ast_nodes import walk_stmts
        for stmt in walk_stmts(stmts):
            if isinstance(stmt, Decl) and stmt.array_size is not None:
                size = stmt.array_size * (1 if stmt.type.base == "char"
                                          else 4)
                size = (size + 3) & ~3
                self.array_offset[stmt.symbol] = self.array_bytes
                self.array_bytes += size

    #: materializable-by-li range (lui+addi pair)
    LI_MIN, LI_MAX = -(1 << 28), (1 << 28) - 1

    def _materialize_floats(self):
        """Materialize float literals and out-of-li-range integer
        literals once at function entry via a per-function constant
        pool (defs must dominate every use)."""
        consts = []
        from .ast_nodes import walk_stmts, stmt_exprs
        for stmt in walk_stmts(self.func.body):
            for top in stmt_exprs(stmt):
                for node in walk_exprs(top):
                    if isinstance(node, FloatLit):
                        bits = f32_to_bits(node.value)
                        if bits not in self.float_reg and bits != 0:
                            consts.append((bits, node.value))
                            self.float_reg[bits] = None
                    elif isinstance(node, IntLit) and not (
                            self.LI_MIN <= node.value <= self.LI_MAX):
                        bits = node.value & 0xFFFFFFFF
                        if bits not in self.float_reg:
                            consts.append((bits, node.value))
                            self.float_reg[bits] = None
        for bits, value in consts:
            label = "%s__fc%d" % (self.func.name, len(self.float_labels))
            self.float_labels[bits] = label
            addr = self.v()
            reg = self.v()
            self.emit("la", rd=addr, label=label,
                      comment="const %r" % value)
            self.emit("lw", rd=reg, rs1=addr, imm=0)
            self.float_reg[bits] = reg

    # -- statements ------------------------------------------------------------

    def gen_stmts(self, stmts):
        for stmt in stmts:
            self.gen_stmt(stmt)

    def gen_stmt(self, stmt):
        if isinstance(stmt, Decl):
            self.gen_decl(stmt)
        elif isinstance(stmt, Assign):
            self.gen_assign(stmt)
        elif isinstance(stmt, ExprStmt):
            self.gen_expr(stmt.expr)
        elif isinstance(stmt, If):
            self.gen_if(stmt)
        elif isinstance(stmt, While):
            self.gen_while(stmt)
        elif isinstance(stmt, For):
            self.gen_for(stmt)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                val = self.gen_expr(stmt.value)
                self.return_positions.append(len(self.instrs))
                self.emit("mv", rd=preg(10), rs1=val)
            self.emit("jal", rd=ZERO, label=self._epilogue_label)
        elif isinstance(stmt, Break):
            if not self.loop_stack:
                raise CompileError("break outside a loop", stmt.line)
            brk, _cont, is_xloop = self.loop_stack[-1]
            if is_xloop and self.opts.xloops:
                # data-dependent exit: xloop.break targets the xloop
                # fall-through (validated by the LMU scan)
                self.emit("xloop.break", rd=ZERO, label=brk)
            else:
                self.emit("jal", rd=ZERO, label=brk)
        elif isinstance(stmt, Continue):
            if not self.loop_stack:
                raise CompileError("continue outside a loop", stmt.line)
            self.emit("jal", rd=ZERO, label=self.loop_stack[-1][1])
        else:  # pragma: no cover
            raise CompileError("cannot generate %r" % stmt, stmt.line)

    def gen_decl(self, stmt):
        sym = stmt.symbol
        if sym.is_array:
            return  # frame space already reserved
        reg = self.v()
        self.sym_reg[sym] = reg
        if stmt.init is not None:
            self.gen_expr(stmt.init, dst=reg)
        else:
            self.emit("mv", rd=reg, rs1=ZERO)

    def gen_assign(self, stmt):
        target = stmt.target
        if isinstance(target, Var):
            self.gen_expr(stmt.value, dst=self.sym_reg[target.symbol])
            return
        # store to memory
        value = self.gen_expr(stmt.value)
        base, offset = self.gen_address(target)
        elem = target.base.type.deref()
        self.emit("sb" if elem == CHAR else "sw",
                  rs1=base, rs2=value, imm=offset)

    def gen_if(self, stmt):
        if stmt.orelse:
            Lelse, Lend = self.label("else"), self.label("endif")
            self.gen_branch(stmt.cond, Lelse, invert=True)
            self.gen_stmts(stmt.then)
            self.emit("jal", rd=ZERO, label=Lend)
            self.emit_label(Lelse)
            self.gen_stmts(stmt.orelse)
            self.emit_label(Lend)
        else:
            Lend = self.label("endif")
            self.gen_branch(stmt.cond, Lend, invert=True)
            self.gen_stmts(stmt.then)
            self.emit_label(Lend)

    def gen_while(self, stmt):
        Lhead, Lend = self.label("while"), self.label("endwhile")
        start = len(self.instrs)
        self.emit_label(Lhead)
        self.gen_branch(stmt.cond, Lend, invert=True)
        self.loop_stack.append((Lend, Lhead, False))
        self.gen_stmts(stmt.body)
        self.loop_stack.pop()
        self.emit("jal", rd=ZERO, label=Lhead)
        self.emit_label(Lend)
        self.loop_regions.append((start, len(self.instrs) - 1))

    # -- loops --------------------------------------------------------------------

    def gen_for(self, stmt):
        if stmt.annotation and stmt.xloop is not None:
            self._gen_xloop_for(stmt)
        else:
            self._gen_plain_for(stmt)

    def _gen_plain_for(self, stmt):
        Lbody = self.label("for")
        Lcont = self.label("forcont")
        Lend = self.label("endfor")
        if stmt.init is not None:
            self.gen_stmt(stmt.init)
        if stmt.cond is not None:
            self.gen_branch(stmt.cond, Lend, invert=True)
        groups = self._plan_strength_reduction(stmt, enabled=True)
        # the loop region starts at the body label: guard and
        # strength-reduction preheader definitions stay *outside* so
        # the loop-carried liveness extension covers them
        start = len(self.instrs)
        self.emit_label(Lbody)
        self.loop_stack.append((Lend, Lcont, False))
        self.gen_stmts(stmt.body)
        self.loop_stack.pop()
        self.emit_label(Lcont)
        self._emit_sr_bumps(groups, xi=False)
        if stmt.step is not None:
            self.gen_stmt(stmt.step)
        if stmt.cond is not None:
            self.gen_branch(stmt.cond, Lbody)
        else:
            self.emit("jal", rd=ZERO, label=Lbody)
        self.emit_label(Lend)
        self.loop_regions.append((start, len(self.instrs) - 1))
        self._release_sr(groups)

    def _gen_xloop_for(self, stmt):
        opts = self.opts
        kind = stmt.xloop
        ivar = stmt.induction
        if stmt.init is not None:
            self.gen_stmt(stmt.init)
        ireg = self.sym_reg[ivar]
        bound = stmt.cond.right
        if isinstance(bound, Var) and bound.symbol.in_register:
            breg = self.sym_reg[bound.symbol]
        else:
            breg = self.gen_expr(bound)
        Lbody = self.label("xbody")
        Lcont = self.label("xcont")
        Lend = self.label("xend")
        # zero-trip guard (the xloop tests at the bottom)
        self.emit("bge", rs1=ireg, rs2=breg, label=Lend)
        # SR in an xloop body needs the xi encoding (a plain-add
        # induction pointer would be a cross-iteration register); the
        # GP-ISA baseline strength-reduces with plain adds as usual.
        use_xi = opts.xloops and opts.xi_enabled
        groups = self._plan_strength_reduction(
            stmt, enabled=(use_xi or not opts.xloops))
        body_start = len(self.instrs)
        start = body_start
        self.emit_label(Lbody)
        self.loop_stack.append((Lend, Lcont, True))
        body_stmts = stmt.body
        if (opts.schedule_cirs and opts.xloops
                and getattr(stmt, "cir_symbols", ())):
            from .passes.schedule import reorder_loop_statements
            body_stmts = reorder_loop_statements(
                stmt.body, stmt.cir_symbols)
        self.gen_stmts(body_stmts)
        self.loop_stack.pop()
        self.emit_label(Lcont)
        self._emit_sr_bumps(groups, xi=use_xi)
        self.emit("addi", rd=ireg, rs1=ireg, imm=1)
        if opts.xloops:
            self.emit(kind.mnemonic, rs1=ireg, rs2=breg, label=Lbody,
                      comment="cirs=%s" % (",".join(stmt.cir_names) or "-"))
            self.xloop_regions.append((body_start, len(self.instrs) - 1))
            cirs = {self.sym_reg[sym]: sym.name
                    for sym in getattr(stmt, "cir_symbols", ())
                    if sym in self.sym_reg}
            self.xloops.append((stmt, Lbody, cirs))
        else:
            self.emit("blt", rs1=ireg, rs2=breg, label=Lbody)
        self.emit_label(Lend)
        self.loop_regions.append((start, len(self.instrs) - 1))
        self._release_sr(groups)

    def _apply_cir_scheduling(self):
        """Run the Section IV-G list scheduler over every xloop body
        that carries CIRs, then refresh positional metadata."""
        from .passes.schedule import schedule_xloop_bodies
        self.instrs = schedule_xloop_bodies(
            self.instrs, self.xloop_regions,
            [cirs for _s, _l, cirs in self.xloops])
        self.call_positions = [
            i for i, ins in enumerate(self.instrs)
            if ins.mn == "jal" and ins.rd == RA]
        self.return_positions = [
            i for i, ins in enumerate(self.instrs)
            if ins.mn == "mv" and ins.rd == preg(10)]

    # -- strength reduction (MIVs) ----------------------------------------------

    def _plan_strength_reduction(self, stmt, enabled):
        self._sr_claims = getattr(self, "_sr_claims", [])
        if not enabled or not self.opts.sr_enabled:
            self._sr_claims.append([])
            return []
        try:
            ivar, _bound = _canonical_loop(stmt)
        except CompileError:
            self._sr_claims.append([])
            return []
        scan = _BodyScan(ivar)
        scan.scan(stmt.body)
        groups: Dict[Tuple, _SRGroup] = {}
        claimed: List[Tuple[int, Tuple]] = []
        for node in self._body_index_nodes(stmt.body):
            if id(node) in self.sr_map:
                continue   # claimed by an enclosing loop
            base = node.base
            if not isinstance(base, Var) or base.symbol in scan.written:
                continue
            form = decompose(node.subscript, ivar, scan.written)
            if (not form.affine or form.variant or form.coef == 0):
                continue
            elem = base.type.deref() if base.type.is_pointer else None
            if elem is None:
                continue
            elem_size = 1 if elem == CHAR else 4
            if isinstance(form.coef, int):
                stride = form.coef * elem_size
                if not IMM12_MIN <= stride <= IMM12_MAX:
                    continue
                key = (base.symbol.sid, form.coef, form.syms, form.const)
            else:
                key = (base.symbol.sid, form.coef, form.syms, form.const)
            if key not in groups:
                if len(groups) >= self.opts.max_mivs:
                    continue
                groups[key] = self._make_sr_group(node, form, elem_size)
            claimed.append((id(node), key))
        for node_id, key in claimed:
            self.sr_map[node_id] = groups[key]
        self._sr_claims.append([nid for nid, _ in claimed])
        return list(groups.values())

    def _make_sr_group(self, node, form, elem_size):
        # preheader: ptr = base + subscript(i0)*elem
        base_reg = self.gen_expr(node.base)
        sub = self.gen_expr(node.subscript)
        ptr = self.v()
        if elem_size == 4:
            scaled = self.v()
            self.emit("slli", rd=scaled, rs1=sub, imm=2)
            sub = scaled
        self.emit("add", rd=ptr, rs1=base_reg, rs2=sub)
        if isinstance(form.coef, int):
            return _SRGroup(ptr=ptr, bump_imm=form.coef * elem_size,
                            bump_reg=None)
        stride = self.gen_expr(form.coef_expr)
        if elem_size == 4:
            scaled = self.v()
            self.emit("slli", rd=scaled, rs1=stride, imm=2)
            stride = scaled
        return _SRGroup(ptr=ptr, bump_imm=None, bump_reg=stride)

    def _emit_sr_bumps(self, groups, xi):
        for g in groups:
            if g.bump_imm is not None:
                self.emit("addiu.xi" if xi else "addi",
                          rd=g.ptr, rs1=g.ptr, imm=g.bump_imm)
            else:
                self.emit("addu.xi" if xi else "add",
                          rd=g.ptr, rs1=g.ptr, rs2=g.bump_reg)

    def _release_sr(self, groups):
        for nid in self._sr_claims.pop():
            self.sr_map.pop(nid, None)

    def _body_index_nodes(self, stmts):
        from .ast_nodes import walk_stmts, stmt_exprs
        for stmt in walk_stmts(stmts):
            for top in stmt_exprs(stmt):
                for node in walk_exprs(top):
                    if isinstance(node, Index):
                        yield node

    # -- addressing -----------------------------------------------------------------

    def gen_address(self, node):
        """Address of Index *node* as (base_reg, immediate_offset)."""
        group = self.sr_map.get(id(node))
        if group is not None:
            return group.ptr, 0
        base = node.base
        elem = base.type.deref()
        elem_size = 1 if elem == CHAR else 4
        base_reg = self.gen_expr(base)
        sub = node.subscript
        if isinstance(sub, IntLit):
            offset = sub.value * elem_size
            if IMM12_MIN <= offset <= IMM12_MAX:
                return base_reg, offset
        sreg = self.gen_expr(sub)
        addr = self.v()
        if elem_size == 4:
            scaled = self.v()
            self.emit("slli", rd=scaled, rs1=sreg, imm=2)
            sreg = scaled
        self.emit("add", rd=addr, rs1=base_reg, rs2=sreg)
        return addr, 0

    # -- expressions ------------------------------------------------------------------

    def gen_expr(self, expr, dst=None):
        """Generate *expr*; returns the result register.  When *dst*
        is given the result is produced into it."""
        if isinstance(expr, IntLit):
            if expr.value == 0 and dst is None:
                return ZERO
            if not self.LI_MIN <= expr.value <= self.LI_MAX:
                src = self.float_reg[expr.value & 0xFFFFFFFF]
                if dst is None:
                    return src
                self.emit("mv", rd=dst, rs1=src)
                return dst
            return self.li(expr.value, dst)
        if isinstance(expr, FloatLit):
            bits = f32_to_bits(expr.value)
            if bits == 0:
                src = ZERO
            else:
                src = self.float_reg[bits]
            if dst is None:
                return src
            self.emit("mv", rd=dst, rs1=src)
            return dst
        if isinstance(expr, Var):
            sym = expr.symbol
            if sym.is_array:
                dst = dst or self.v()
                self.emit("addi", rd=dst, rs1=SP,
                          imm=self.array_offset[sym],
                          comment="&%s" % sym.name)
                return dst
            src = self.sym_reg[sym]
            if dst is None or dst == src:
                return src
            self.emit("mv", rd=dst, rs1=src)
            return dst
        if isinstance(expr, Index):
            base, offset = self.gen_address(expr)
            dst = dst or self.v()
            elem = expr.base.type.deref()
            self.emit("lbu" if elem == CHAR else "lw",
                      rd=dst, rs1=base, imm=offset)
            return dst
        if isinstance(expr, Unary):
            return self.gen_unary(expr, dst)
        if isinstance(expr, Cast):
            return self.gen_cast(expr, dst)
        if isinstance(expr, Binary):
            return self.gen_binary(expr, dst)
        if isinstance(expr, Call):
            return self.gen_call(expr, dst)
        raise CompileError("cannot generate expression %r" % expr,
                           expr.line)  # pragma: no cover

    def gen_unary(self, expr, dst):
        operand = self.gen_expr(expr.operand)
        dst = dst or self.v()
        if expr.op == "-":
            if expr.type == FLOAT:
                self.emit("fsub.s", rd=dst, rs1=ZERO, rs2=operand)
            else:
                self.emit("sub", rd=dst, rs1=ZERO, rs2=operand)
        elif expr.op == "!":
            self.emit("sltiu", rd=dst, rs1=operand, imm=1)
        else:  # '~'
            self.emit("xori", rd=dst, rs1=operand, imm=-1)
        return dst

    def gen_cast(self, expr, dst):
        src_ty = expr.operand.type
        operand = self.gen_expr(expr.operand)
        target = expr.target
        if target == FLOAT and src_ty != FLOAT:
            dst = dst or self.v()
            self.emit("fcvt.s.w", rd=dst, rs1=operand)
            return dst
        if target != FLOAT and src_ty == FLOAT:
            dst = dst or self.v()
            self.emit("fcvt.w.s", rd=dst, rs1=operand)
            if target == CHAR:
                self.emit("andi", rd=dst, rs1=dst, imm=0xFF)
            return dst
        if target == CHAR:
            dst = dst or self.v()
            self.emit("andi", rd=dst, rs1=operand, imm=0xFF)
            return dst
        if dst is not None and dst != operand:
            self.emit("mv", rd=dst, rs1=operand)
            return dst
        return operand

    # -- binary operators ------------------------------------------------------

    _INT_OPS = {"+": "add", "-": "sub", "&": "and", "|": "or", "^": "xor",
                "<<": "sll", ">>": "sra", "*": "mul", "/": "div",
                "%": "rem"}
    _INT_IMM_OPS = {"+": "addi", "&": "andi", "|": "ori", "^": "xori",
                    "<<": "slli", ">>": "srai"}
    _FLOAT_OPS = {"+": "fadd.s", "-": "fsub.s", "*": "fmul.s",
                  "/": "fdiv.s"}

    def gen_binary(self, expr, dst):
        op = expr.op
        if op in ("&&", "||"):
            return self._gen_logical_value(expr, dst)
        left_ty = expr.left.type
        if op in _INT_CMP:
            return self._gen_compare_value(expr, dst)
        if left_ty == FLOAT:
            left = self.gen_expr(expr.left)
            right = self.gen_expr(expr.right)
            dst = dst or self.v()
            self.emit(self._FLOAT_OPS[op], rd=dst, rs1=left, rs2=right)
            return dst
        # integer arithmetic with immediate folding
        left = self.gen_expr(expr.left)
        rhs = expr.right
        if isinstance(rhs, IntLit):
            value = rhs.value
            if op == "-" and IMM12_MIN <= -value <= IMM12_MAX:
                dst = dst or self.v()
                self.emit("addi", rd=dst, rs1=left, imm=-value)
                return dst
            if op in self._INT_IMM_OPS and (
                    op in ("<<", ">>") or IMM12_MIN <= value <= IMM12_MAX):
                dst = dst or self.v()
                self.emit(self._INT_IMM_OPS[op], rd=dst, rs1=left,
                          imm=value & 31 if op in ("<<", ">>") else value)
                return dst
            if op == "*" and value > 0 and (value & (value - 1)) == 0:
                dst = dst or self.v()
                self.emit("slli", rd=dst, rs1=left,
                          imm=value.bit_length() - 1)
                return dst
        right = self.gen_expr(rhs)
        dst = dst or self.v()
        self.emit(self._INT_OPS[op], rd=dst, rs1=left, rs2=right)
        return dst

    def _gen_compare_value(self, expr, dst):
        op = expr.op
        if expr.left.type == FLOAT:
            left = self.gen_expr(expr.left)
            right = self.gen_expr(expr.right)
            dst = dst or self.v()
            if op == "<":
                self.emit("flt.s", rd=dst, rs1=left, rs2=right)
            elif op == ">":
                self.emit("flt.s", rd=dst, rs1=right, rs2=left)
            elif op == "<=":
                self.emit("fle.s", rd=dst, rs1=left, rs2=right)
            elif op == ">=":
                self.emit("fle.s", rd=dst, rs1=right, rs2=left)
            elif op == "==":
                self.emit("feq.s", rd=dst, rs1=left, rs2=right)
            else:  # '!='
                self.emit("feq.s", rd=dst, rs1=left, rs2=right)
                self.emit("xori", rd=dst, rs1=dst, imm=1)
            return dst
        left = self.gen_expr(expr.left)
        right = self.gen_expr(expr.right)
        dst = dst or self.v()
        if op == "<":
            self.emit("slt", rd=dst, rs1=left, rs2=right)
        elif op == ">":
            self.emit("slt", rd=dst, rs1=right, rs2=left)
        elif op == "<=":
            self.emit("slt", rd=dst, rs1=right, rs2=left)
            self.emit("xori", rd=dst, rs1=dst, imm=1)
        elif op == ">=":
            self.emit("slt", rd=dst, rs1=left, rs2=right)
            self.emit("xori", rd=dst, rs1=dst, imm=1)
        elif op == "==":
            tmp = self.v()
            self.emit("sub", rd=tmp, rs1=left, rs2=right)
            self.emit("sltiu", rd=dst, rs1=tmp, imm=1)
        else:  # '!='
            tmp = self.v()
            self.emit("sub", rd=tmp, rs1=left, rs2=right)
            self.emit("sltu", rd=dst, rs1=ZERO, rs2=tmp)
        return dst

    def _gen_logical_value(self, expr, dst):
        dst = dst or self.v()
        Lfalse = self.label("lfalse")
        Ltrue = self.label("ltrue")
        Lend = self.label("lend")
        self.gen_branch(expr, Ltrue)
        self.emit_label(Lfalse)
        self.emit("mv", rd=dst, rs1=ZERO)
        self.emit("jal", rd=ZERO, label=Lend)
        self.emit_label(Ltrue)
        self.emit("li", rd=dst, imm=1)
        self.emit_label(Lend)
        return dst

    # -- conditional branches ----------------------------------------------------

    _BRANCH_INT = {"<": ("blt", False), ">": ("blt", True),
                   "<=": ("bge", True), ">=": ("bge", False),
                   "==": ("beq", False), "!=": ("bne", False)}
    _BRANCH_INT_INV = {"<": ("bge", False), ">": ("bge", True),
                       "<=": ("blt", True), ">=": ("blt", False),
                       "==": ("bne", False), "!=": ("beq", False)}

    def gen_branch(self, expr, target, invert=False):
        """Branch to *target* when expr is true (false if *invert*)."""
        if isinstance(expr, Unary) and expr.op == "!":
            self.gen_branch(expr.operand, target, invert=not invert)
            return
        if isinstance(expr, Binary) and expr.op in ("&&", "||"):
            isand = (expr.op == "&&") != invert
            # De Morgan: inverted && becomes ||-of-inverted legs
            if isand:
                Lskip = self.label("sc")
                self.gen_branch(expr.left, Lskip,
                                invert=not invert)
                self.gen_branch(expr.right, target, invert=invert)
                self.emit_label(Lskip)
            else:
                self.gen_branch(expr.left, target, invert=invert)
                self.gen_branch(expr.right, target, invert=invert)
            return
        if (isinstance(expr, Binary) and expr.op in _INT_CMP
                and expr.left.type != FLOAT):
            table = self._BRANCH_INT_INV if invert else self._BRANCH_INT
            mn, swap = table[expr.op]
            left = self.gen_expr(expr.left)
            right = self.gen_expr(expr.right)
            if swap:
                left, right = right, left
            self.emit(mn, rs1=left, rs2=right, label=target)
            return
        value = self.gen_expr(expr)
        self.emit("beq" if invert else "bne",
                  rs1=value, rs2=ZERO, label=target)

    # -- calls ---------------------------------------------------------------------

    def gen_call(self, expr, dst):
        name = expr.name
        if name in AMO_BUILTINS:
            return self._gen_amo(expr, dst)
        if name == "sqrtf":
            operand = self.gen_expr(expr.args[0])
            dst = dst or self.v()
            self.emit("fsqrt.s", rd=dst, rs1=operand)
            return dst
        self.has_calls = True
        arg_regs = [self.gen_expr(a) for a in expr.args]
        for k, r in enumerate(arg_regs):
            self.emit("mv", rd=preg(10 + k), rs1=r)
        self.call_positions.append(len(self.instrs))
        self.emit("jal", rd=RA, label=name)
        dst = dst or self.v()
        self.emit("mv", rd=dst, rs1=preg(10))
        return dst

    def _gen_amo(self, expr, dst):
        target = expr.args[0]
        if isinstance(target, AddrOf):
            base, offset = self.gen_address(target.operand)
            if offset:
                addr = self.v()
                self.emit("addi", rd=addr, rs1=base, imm=offset)
            else:
                addr = base
        else:
            addr = self.gen_expr(target)
        value = self.gen_expr(expr.args[1])
        dst = dst or self.v()
        self.emit(AMO_BUILTINS[expr.name], rd=dst, rs1=addr, rs2=value)
        return dst

    # -- rendering --------------------------------------------------------------------

    def _render(self, result):
        saves = list(result.used_callee_saved)
        save_ra = self.has_calls
        frame = self.array_bytes + result.spill_bytes \
            + 4 * len(saves) + (4 if save_ra else 0)
        frame = (frame + 15) & ~15
        if frame > 2047:
            raise CompileError(
                "frame of %r too large (%d bytes); pass big arrays as "
                "parameters" % (self.func.name, frame))
        save_base = self.array_bytes + result.spill_bytes

        lines = ["%s:" % self.func.name]
        if frame:
            lines.append("    addi sp, sp, %d" % (-frame))
        off = save_base
        from ..isa.registers import reg_name
        if save_ra:
            lines.append("    sw ra, %d(sp)" % off)
            off += 4
        for r in saves:
            lines.append("    sw %s, %d(sp)" % (reg_name(r), off))
            off += 4
        for ins in result.instrs:
            lines.append(ins.render(result.mapping))
        lines.append("%s:" % self._epilogue_label)
        off = save_base
        if save_ra:
            lines.append("    lw ra, %d(sp)" % off)
            off += 4
        for r in saves:
            lines.append("    lw %s, %d(sp)" % (reg_name(r), off))
            off += 4
        if frame:
            lines.append("    addi sp, sp, %d" % frame)
        lines.append("    jalr zero, ra, 0")

        data_lines = []
        for bits, label in self.float_labels.items():
            data_lines.append("%s: .word %d" % (label, bits))
        return lines, data_lines
