"""Compiler driver: annotated MiniC source -> assembled Program.

Pipeline: lex/parse -> sema -> xloop dependence analysis -> per-function
codegen (with linear-scan allocation) -> assembly -> Program.

``compile_source(..., xloops=False)`` produces the paper's GP-ISA
baseline binary from the *same* source (annotations ignored).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..asm import assemble
from ..asm.program import DATA_BASE, TEXT_BASE, Program
from .ast_nodes import For, Function, Unit, walk_stmts
from .codegen import CodegenOptions, FuncCodegen
from .lexer import CompileError
from .parser import parse
from .passes.depend import analyze_unit_loops
from .sema import Sema


@dataclass
class LoopInfo:
    """Per-annotated-loop compilation record (for tests / reports)."""

    function: str
    line: int
    annotation: str
    mnemonic: str              # e.g. "xloop.om"
    cirs: Tuple[str, ...]
    dynamic_bound: bool
    body_insns: int = 0        # static body size (Table II "Num Insns")


@dataclass
class CompiledProgram:
    """A compiled kernel: the assembled program plus compiler metadata."""

    program: Program
    asm_text: str
    loops: List[LoopInfo] = field(default_factory=list)
    unit: Optional[Unit] = None

    def entry(self, name="main"):
        return self.program.entry(name)

    def loop_kinds(self):
        return tuple(l.mnemonic for l in self.loops)


class CIROrderError(CompileError):
    """A CIR the loop analysis declared is written before it is read in
    the linear order of the emitted body, where the LMU's scan would
    not see it (paper II-D); *auto* says whether the loop's annotation
    came from ``annotate="auto"`` rather than a pragma."""

    def __init__(self, message, line, auto):
        super().__init__(message, line)
        self.auto = auto


def _check_cirs(program, function, records, auto_loops):
    """Hold every emitted xloop of *function* to the LMU's scan: each
    declared CIR must be read before it is written in linear order
    (else :class:`CIROrderError`), and the declared CIR set must equal
    :func:`~repro.uarch.descriptor.scan_loop`'s wherever the scan
    accepts the loop.  *auto_loops* holds the ids of the
    auto-annotated ``For`` nodes."""
    # deferred: repro.uarch is the simulator, not a compiler dependency
    from ..uarch.descriptor import ScanError, first_accesses, scan_loop
    for stmt, label, declared in records:
        body_pc = program.symbols[label]
        xloop = next(ins for ins in program.instrs
                     if ins.op.is_xloop and ins.branch_target() == body_pc)
        try:
            scanned = scan_loop(program, xloop, [0] * 32).cirs
        except ScanError:
            scanned = None  # the LPSU rejects the loop: it runs traditionally
        if scanned == set(declared):
            continue        # the scan's CIRs are all read first
        body = [program.instr_at(pc) for pc in range(body_pc, xloop.pc, 4)]
        read_first, _written = first_accesses(body)
        for reg, name in sorted(declared.items()):
            if reg not in read_first:
                raise CIROrderError(
                    "%s loop in %r: cross-iteration register %r (x%d) "
                    "is written before it is read in linear program "
                    "order, so the LPSU would not carry it from one "
                    "iteration to the next; read it on every path "
                    "before writing it, or leave the loop unannotated"
                    % (stmt.annotation, function, name, reg),
                    stmt.line, id(stmt) in auto_loops)
        if scanned is not None:
            raise AssertionError(
                "line %d: the compiler declared CIRs %s but the LMU scan "
                "finds %s" % (stmt.line, sorted(declared), sorted(scanned)))


def compile_source(source, xloops=True, xi_enabled=True, sr_enabled=True,
                   schedule_cirs=False, text_base=TEXT_BASE,
                   data_base=DATA_BASE, annotate="pragma"):
    """Compile MiniC *source*; returns a :class:`CompiledProgram`.

    ``annotate="pragma"`` (default) trusts ``#pragma xloops``
    annotations; ``annotate="auto"`` additionally runs the symbolic
    dependence prover over unannotated canonical loops and specializes
    them with proved patterns (``unordered`` only when every memory
    pair is certified independent, else ``ordered``).  An annotated
    loop whose CIRs the LPSU's scan cannot see raises
    :class:`CIROrderError`; under ``"auto"`` such a loop is left
    unannotated instead (its body is still searched)."""
    if annotate not in ("pragma", "auto"):
        raise ValueError("annotate must be 'pragma' or 'auto', got %r"
                         % (annotate,))
    rejected = set()
    while True:
        try:
            return _compile(source, xloops, xi_enabled, sr_enabled,
                            schedule_cirs, text_base, data_base,
                            annotate, rejected)
        except CIROrderError as exc:
            # loops are told apart by line: give up rather than loop
            # on a second auto-annotated loop of a rejected line
            if not exc.auto or exc.line in rejected:
                raise
            rejected.add(exc.line)


def _compile(source, xloops, xi_enabled, sr_enabled, schedule_cirs,
             text_base, data_base, annotate, rejected):
    unit = parse(source)
    sema = Sema(unit)
    sema.run()
    auto_loops = set()
    if annotate == "auto":
        from .passes.prover import auto_annotate_unit
        auto_loops = {id(loop) for loop, _ann, _proof
                      in auto_annotate_unit(unit, skip_lines=rejected)}
    analyze_unit_loops(unit)

    options = CodegenOptions(xloops=xloops, xi_enabled=xi_enabled,
                             sr_enabled=sr_enabled,
                             schedule_cirs=schedule_cirs)
    text_lines: List[str] = ["    .text"]
    data_lines: List[str] = []
    loops: List[LoopInfo] = []
    xloop_cirs = []
    for func in unit.functions:
        func._symbols = sema.symbols_of[func.name]
        cg = FuncCodegen(func, unit, options)
        lines, data = cg.run()
        text_lines.extend(lines)
        data_lines.extend(data)
        xloop_cirs.append((func.name, cg.xloop_cirs))
        for stmt in walk_stmts(func.body):
            if isinstance(stmt, For) and stmt.annotation:
                loops.append(LoopInfo(
                    function=func.name, line=stmt.line,
                    annotation=stmt.annotation,
                    mnemonic=stmt.xloop.mnemonic,
                    cirs=stmt.cir_names,
                    dynamic_bound=stmt.bound_is_dynamic))

    asm_text = "\n".join(text_lines)
    if data_lines:
        asm_text += "\n    .data\n" + "\n".join(
            "    " + line if not line.rstrip().endswith(":") else line
            for line in data_lines)
    asm_text += "\n"
    program = assemble(asm_text, text_base=text_base, data_base=data_base)
    for function, records in xloop_cirs:
        _check_cirs(program, function, records, auto_loops)
    # static body sizes: pair each LoopInfo with an emitted xloop of the
    # same mnemonic (nesting flips emission order vs. source order)
    sizes_by_mnemonic = {}
    for ins in program.instrs:
        if ins.op.is_xloop:
            sizes_by_mnemonic.setdefault(ins.mnemonic, []).append(
                (ins.pc - ins.branch_target()) // 4)
    for info in loops:
        bucket = sizes_by_mnemonic.get(info.mnemonic)
        if bucket:
            info.body_insns = bucket.pop(0)
    return CompiledProgram(program=program, asm_text=asm_text,
                           loops=loops, unit=unit)
