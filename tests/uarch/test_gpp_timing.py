"""Unit tests for the in-order and out-of-order GPP timing models,
driven by the functional golden model.

Every program runs twice: one instruction at a time through
``consume`` (the reference), and one fused block at a time through
``run_block`` (the ``gpp`` flavour of :mod:`repro.sim.fusion`).  Both
runs must leave identical timing state."""

import pytest

from repro.asm import assemble
from repro.energy import EnergyEvents
from repro.sim import HALT_PC, FunctionalCore
from repro.sim.fusion import fused_blocks
from repro.uarch import IO, OOO2, OOO4, InOrderTiming, OOOTiming
from repro.uarch.params import GPPConfig

#: counters and window state compared between the two paths (each
#: model has a subset of them)
_STATE = ("cycles", "retired", "mispredicts", "serializations",
          "stall_raw", "stall_mem", "stall_branch", "cycle",
          "_fetch_cycle", "_fetch_count", "_retire_cycle",
          "_retire_count", "_redirect", "_max_complete")


def _timing_state(timing):
    st = {k: getattr(timing, k) for k in _STATE if hasattr(timing, k)}
    st["reg_ready"] = list(timing.reg_ready)
    st["events"] = timing.events.as_dict()
    if isinstance(timing, OOOTiming):
        st["rob"] = list(timing._rob)
        st["store_ready"] = dict(timing._store_ready)
    return st


def _drive(prog, config, args, events, fused):
    core = FunctionalCore(prog)
    core.setup_call("main", args)
    timing = (OOOTiming if config.is_ooo else InOrderTiming)(
        config, events=events)
    blocks = fused_blocks(prog, "gpp") if fused else {}
    n_fused = 0
    while not core.halted:
        blk = blocks.get(core.pc)
        if blk is None:
            timing.consume(core.step())
            continue
        n_fused += 1
        if blk(core, timing) == HALT_PC:
            core.halted = True
    assert n_fused or not fused, "no fused block ran"
    return timing, core


def run_timing(src, config, args=(), events=None):
    """Run *src* from ``main`` on *config* through both paths; assert
    they agree and return the step path's ``(timing, core)``."""
    prog = assemble(src)
    timing, core = _drive(prog, config, args,
                          events if events is not None else EnergyEvents(),
                          fused=False)
    f_timing, f_core = _drive(prog, config, args, EnergyEvents(),
                              fused=True)
    assert f_core.icount == core.icount
    assert f_core.regs == core.regs
    assert _timing_state(f_timing) == _timing_state(timing)
    return timing, core


INDEP = """
main:
    li t0, 1
    li t1, 2
    li t2, 3
    li t3, 4
    li t4, 5
    li t5, 6
    li t6, 7
    li s2, 8
    ret
"""

CHAIN = """
main:
    li  t0, 1
    add t0, t0, t0
    add t0, t0, t0
    add t0, t0, t0
    add t0, t0, t0
    add t0, t0, t0
    add t0, t0, t0
    add t0, t0, t0
    ret
"""

TWO_CHAINS = """
main:
    li  t0, 1
    li  t1, 1
    add t0, t0, t0
    add t1, t1, t1
    add t0, t0, t0
    add t1, t1, t1
    add t0, t0, t0
    add t1, t1, t1
    ret
"""

LOAD_USE = """
main:
    la  t0, v
    lw  t1, 0(t0)
    add a0, t1, t1      # immediate use of load
    ret
    .data
v:  .word 5
"""

MUL_CHAIN = """
main:
    li  t0, 3
    mul t0, t0, t0
    mul t0, t0, t0
    mul t0, t0, t0
    ret
"""

DIVS = """
main:
    li  t0, 100
    li  t1, 3
    div t2, t0, t1
    div t3, t0, t1
    div t4, t0, t1
    ret
"""

#: data-dependent alternating branch: untrainable
ALTERNATING = """
main:
    li  t0, 0
    li  t1, 64
    li  t2, 0
loop:
    andi t3, t0, 1
    beqz t3, skip
    addi t2, t2, 1
skip:
    addi t0, t0, 1
    blt  t0, t1, loop
    mv   a0, t2
    ret
"""

_CELL_BODY = """
main:
    la  t0, cell
    li  t1, 1
    %s
    li a0, 0
    ret
    .data
cell: .word 0
"""
AMOS = _CELL_BODY % "\n    ".join(["amo.add t2, t1, (t0)"] * 8)
PLAINS = _CELL_BODY % "\n    ".join(["add t2, t1, t1"] * 8)

STORE_LOAD = """
main:
    la  t0, cell
    li  t1, 7
    sw  t1, 0(t0)
    lw  t2, 0(t0)      # must see the store
    add a0, t2, t2
    ret
    .data
cell: .word 0
"""

#: many independent loads (base address in a0)
LOADS = "main:\n    %s\n    ret\n" % "\n    ".join(
    "lw t%d, %d(a0)" % (i % 3, 4 * i) for i in range(32))

XLOOP = """
main:
    li t0, 0
    li t1, 16
body:
    addi t0, t0, 1
    xloop.uc t0, t1, body
    mv a0, t0
    ret
"""

#: one straight-line block: the AMOs and both fences serialize and
#: move the fetch redirect mid-block; x0 sources read as ready; the
#: second AMO misses and its result is read straight away
FENCE_X0 = """
main:
    la   t0, cell
    li   t1, 5
    sw   t1, 0(t0)
    amo.add t2, t1, (t0)
    add  t3, t2, x0
    fence
    lw   t4, 0(t0)
    sub  t5, zero, t4
    div  t6, t4, t1
    fdiv.s t3, t4, t1
    fence
    la   t0, far
    amo.add t2, t1, (t0)
    add  t6, t6, t2
    add  a0, t5, t6
    ret
    .data
cell: .word 0
    .space 60
far: .word 1
"""

JUMPS = """
main:
    mv   s0, ra
    li   a0, 3
    call twice
    j    skip
    addi a0, a0, 100
skip:
    call twice
    mv   ra, s0
    ret
twice:
    add  a0, a0, a0
    ret
"""


def test_inorder_is_roughly_one_ipc_on_independent_ops():
    t, core = run_timing(INDEP, IO)
    assert core.icount <= t.cycles <= core.icount + 4


def test_ooo_width_speeds_up_independent_ops():
    t2, _ = run_timing(INDEP, OOO2)
    t4, _ = run_timing(INDEP, OOO4)
    t1, _ = run_timing(INDEP, IO)
    assert t4.cycles <= t2.cycles <= t1.cycles


def test_dependence_chain_defeats_ooo_width():
    t2, core = run_timing(CHAIN, OOO2)
    t4, _ = run_timing(CHAIN, OOO4)
    # serialized chain: wider machine gains (almost) nothing
    assert abs(t4.cycles - t2.cycles) <= 2
    assert t2.cycles >= core.icount - 2


def test_ooo_extracts_ilp_from_interleaved_chains():
    tio, _ = run_timing(TWO_CHAINS, IO)
    t2, _ = run_timing(TWO_CHAINS, OOO2)
    assert t2.cycles < tio.cycles


def test_load_use_stall_inorder():
    t, core = run_timing(LOAD_USE, IO)
    assert t.stall_raw >= 1
    assert core.regs[10] == 10


def test_llfu_latency_visible():
    t, _ = run_timing(MUL_CHAIN, IO)
    # 3 dependent multiplies at 4 cycles each dominate
    assert t.cycles >= 12


def test_div_unpipelined_on_ooo():
    t2, _ = run_timing(DIVS, OOO2)   # one LLFU: divs serialize
    t4, _ = run_timing(DIVS, OOO4)   # two LLFUs
    assert t4.cycles < t2.cycles


def test_branch_mispredict_costs_more_on_ooo():
    tio, cio = run_timing(ALTERNATING, IO)
    tooo, _ = run_timing(ALTERNATING, OOO2)
    assert cio.return_value == 32
    assert tio.stall_branch > 0
    assert tooo.mispredicts > 10


def test_amo_serializes_ooo():
    t_amo, _ = run_timing(AMOS, OOO4)
    t_plain, _ = run_timing(PLAINS, OOO4)
    assert t_amo.serializations == 8
    assert t_amo.cycles > t_plain.cycles + 8


def test_store_load_forwarding_dependence():
    t, core = run_timing(STORE_LOAD, OOO4)
    assert core.return_value == 14


#: a window-bound out-of-order core: a 4-entry ROB
ROB4 = GPPConfig(name="small", kind="ooo", width=4, rob_entries=4,
                 mem_ports=2, llfus=1)


def test_rob_bounds_window():
    # many independent loads: small ROB limits overlap
    t_small, _ = run_timing(LOADS, ROB4, args=[0x100000])
    t_big, _ = run_timing(LOADS, OOO4, args=[0x100000])
    assert t_big.cycles <= t_small.cycles


def test_events_counted():
    ev = EnergyEvents()
    run_timing(INDEP, IO, events=ev)
    assert ev.ic_access == 9
    assert ev.alu_op >= 8
    assert ev.rf_write >= 8

    ev2 = EnergyEvents()
    run_timing(INDEP, OOO2, events=ev2)
    assert ev2.rob_op == 9
    assert ev2.ooo_rename == 9


def test_xloop_counts_as_branch_on_gpp():
    ev = EnergyEvents()
    t, core = run_timing(XLOOP, IO, events=ev)
    assert core.return_value == 16
    assert ev.bpred == 16   # one lookup per xloop execution


def test_advance_moves_clock():
    t, _ = run_timing(INDEP, IO)
    before = t.cycles
    t.advance(100)
    assert t.cycles == before + 100

    t2, _ = run_timing(INDEP, OOO2)
    before2 = t2.cycles
    t2.advance(100)
    assert t2.cycles >= before2 + 100


def test_mid_block_fence_and_x0_reads():
    for config in (IO, OOO2, OOO4):
        t, core = run_timing(FENCE_X0, config)
        assert core.return_value == -10 + 10 // 5 + 1
        if config.is_ooo:
            assert t.serializations == 4


def test_jal_and_jalr_blocks():
    for config in (IO, OOO2, OOO4):
        _t, core = run_timing(JUMPS, config)
        assert core.return_value == 12


@pytest.mark.parametrize("config", (IO, OOO2, OOO4, ROB4),
                         ids=lambda c: c.name)
@pytest.mark.parametrize("src, args", (
    (AMOS, ()), (DIVS, ()), (ALTERNATING, ()), (STORE_LOAD, ()),
    (LOADS, (0x100000,)), (XLOOP, ()), (FENCE_X0, ()), (JUMPS, ())),
    ids=("amos", "divs", "alternating", "store_load", "loads", "xloop",
         "fence_x0", "jumps"))
def test_fused_blocks_match_step_path(src, args, config):
    # every window edge-case program on every GPP shape, not just the
    # one its behavioural test above needs
    run_timing(src, config, args=args)
