"""Scan-phase loop analysis — the static work the LMU performs while
instructions stream into the LPSU instruction buffers (paper II-D).

Given the xloop instruction and the program text, this module extracts
a :class:`LoopDescriptor`:

* the loop body (static instructions between label L and the xloop);
* the index and bound registers;
* cross-iteration registers (CIRs): registers *read before written* in
  static body order, excluding the index and MIV registers — exactly
  the LMU's two-bit-vector scheme;
* the "last CIR write": the largest PC writing each CIR, which gets
  the special bit in the instruction buffer;
* the mutual-induction-variable table (MIVT): one entry per ``xi``
  instruction, with the loop-invariant increment resolved against the
  live-in register values captured at scan time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from ..isa.instructions import Instr
from ..isa.xloops import XLoopKind


class ScanError(Exception):
    """The xloop body violates an ISA/implementation constraint."""


@dataclass
class MIVEntry:
    """One MIVT row: a register advanced by a loop-invariant stride."""

    reg: int
    increment: int            # resolved at scan time (u32 arithmetic)


@dataclass
class LoopDescriptor:
    """Everything the LPSU needs to execute one xloop specialized."""

    kind: XLoopKind
    xloop_pc: int
    body_start_pc: int
    body: List[Instr]
    idx_reg: int
    bound_reg: int
    cirs: FrozenSet[int] = frozenset()
    last_cir_write_pc: Dict[int, int] = field(default_factory=dict)
    mivt: Dict[int, MIVEntry] = field(default_factory=dict)
    live_in_reads: int = 0    # distinct registers read before written
    has_exit: bool = False    # body contains xloop.break (.de loops)
    #: registers the LMU copies back from the exiting lane (.de):
    #: every body-written register except the index and MIVs
    exit_copy_regs: FrozenSet[int] = frozenset()

    @property
    def body_len(self):
        return len(self.body)

    def body_index(self, pc):
        """Instruction-buffer slot of byte address *pc*."""
        return (pc - self.body_start_pc) >> 2

    def in_body(self, pc):
        return self.body_start_pc <= pc < self.xloop_pc and pc % 4 == 0


def first_accesses(body):
    """The LMU's two bit vectors over *body* in linear (static) order:
    ``(read_first, written)``, the registers read before any write and
    the registers written at all."""
    read_first = set()
    written = set()
    for instr in body:
        for s in instr.src_regs():
            if s and s not in written:
                read_first.add(s)
        d = instr.dst_reg()
        if d is not None:
            written.add(d)
    return read_first, written


def scan_loop(program, xloop_instr, live_in_regs):
    """Build a :class:`LoopDescriptor` (the LMU scan-phase analysis).

    *live_in_regs* is the GPP register file at the moment the xloop is
    reached; it resolves ``addu.xi`` loop-invariant increments.
    """
    if not xloop_instr.op.is_xloop:
        raise ScanError("not an xloop instruction: %r"
                        % xloop_instr.mnemonic)
    xloop_pc = xloop_instr.pc
    body_start = xloop_instr.branch_target()
    if body_start >= xloop_pc:
        raise ScanError("xloop body label must precede the xloop")

    body = []
    pc = body_start
    while pc < xloop_pc:
        body.append(program.instr_at(pc))
        pc += 4

    kind = xloop_instr.op.xloop_kind
    idx_reg = xloop_instr.rs1
    bound_reg = xloop_instr.rs2

    # data-dependent exits: xloop.break must jump exactly past the
    # xloop, and only .de loops may contain one
    has_exit = False
    from ..isa.xloops import ControlPattern
    for instr in body:
        if instr.op.is_xbreak:
            if kind.control is not ControlPattern.DATA_DEPENDENT_EXIT:
                raise ScanError(
                    "xloop.break inside a %s loop (only .de loops may "
                    "exit early)" % kind.mnemonic)
            if instr.branch_target() != xloop_pc + 4:
                raise ScanError(
                    "xloop.break must target the xloop fall-through")
            has_exit = True

    # MIVT: one entry per xi instruction (scan order).
    mivt = {}
    for instr in body:
        if instr.op.is_xi:
            if instr.rd != instr.rs1:
                raise ScanError("xi destination must equal its source "
                                "(MIV register), got %s" % instr)
            if instr.mnemonic == "addiu.xi":
                inc = instr.imm
            else:
                inc = live_in_regs[instr.rs2]
            if instr.rd in mivt:
                raise ScanError("register x%d has two MIVT entries"
                                % instr.rd)
            mivt[instr.rd] = MIVEntry(instr.rd, inc & 0xFFFFFFFF)

    # Two-bit-vector CIR detection: first-read-then-written registers.
    read_first, written = first_accesses(body)
    cirs = (read_first & written) - {idx_reg} - set(mivt)

    # Last-CIR-write bits (largest PC updating each CIR).
    last_write = {}
    for instr in body:
        d = instr.dst_reg()
        if d in cirs:
            last_write[d] = instr.pc
    for instr in body:
        instr.last_cir_write = (instr.dst_reg() in last_write
                                and last_write.get(instr.dst_reg())
                                == instr.pc)

    if cirs and not kind.data.ordered_through_registers:
        # The compiler guarantees this never happens for well-formed
        # binaries; hand-written code that trips it would race.
        raise ScanError(
            "xloop.%s body carries register dependences through %s but "
            "the pattern does not order registers"
            % (kind.data.value, sorted("x%d" % c for c in cirs)))

    exit_copy = frozenset()
    if has_exit:
        exit_copy = frozenset(written) - {idx_reg} - set(mivt)

    return LoopDescriptor(
        kind=kind, xloop_pc=xloop_pc, body_start_pc=body_start, body=body,
        idx_reg=idx_reg, bound_reg=bound_reg, cirs=frozenset(cirs),
        last_cir_write_pc=last_write, mivt=mivt,
        live_in_reads=len(read_first), has_exit=has_exit,
        exit_copy_regs=exit_copy)
