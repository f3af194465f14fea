"""Shared random annotated-loop generators.

One generator core drives both consumers of randomized differential
testing:

* the hypothesis fuzz suite (``tests/lang/test_fuzz_differential.py``)
  wraps the core in ``@st.composite`` strategies so examples shrink,
  and
* the ``repro verify`` CLI draws from the same core through a plain
  :class:`random.Random` so conformance sweeps are reproducible from a
  seed without a hypothesis dependency.

The core is written against a tiny *chooser* protocol (``integers``,
``sampled_from``, ``booleans``); :class:`RandomChooser` adapts a
``random.Random`` and the strategies adapt a hypothesis ``draw``.
hypothesis itself is an optional import: everything except the
``*_strategy`` helpers works without it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from ..uarch.params import LPSUConfig

#: workload array bases / element count shared by every generated loop
A, B, C = 0x100000, 0x180000, 0x200000
N = 24

#: the LPSU design points every differential sweep runs specialized on:
#: the primary 4-lane design, a narrow machine with tiny LSQs, a wide
#: one with doubled shared resources, and the aggressive inter-lane
#: store->load forwarding variant
LPSU_SWEEP = (
    LPSUConfig(),
    LPSUConfig(lanes=2, lsq_loads=4, lsq_stores=4),
    LPSUConfig(lanes=8, mem_ports=2, llfus=2),
    LPSUConfig(inter_lane_forwarding=True),
)

BINOPS = ("+", "-", "*", "&", "|", "^")

OR_UPDATES = (
    "acc = acc + a[i];",
    "acc = (acc ^ a[i]) + 1;",
    "if (a[i] > 0) { acc = acc + a[i]; }",
    "if ((a[i] & 1) == 0) { acc = acc * 3; } "
    "else { acc = acc - a[i]; }",
    "acc = acc + a[i]; acc = acc & 65535;",
)

#: ordered-body updates carrying two or three CIRs (``acc``, ``aux``,
#: ``lo``).  Each reads every CIR it writes before writing it in linear
#: program order, as the LMU's scan requires (else the compiler raises
#: ``CIROrderError``), so the loop drives one CIB channel per CIR.
OR_MULTI_UPDATES = (
    # two independent accumulators
    "acc = acc + a[i]; aux = aux ^ (a[i] * 5);",
    # a conditional CIR write (a running maximum) feeding another CIR
    "if (a[i] > aux) { aux = a[i]; } acc = acc + aux;",
    # each CIR written on one side of a branch only: the other passes
    # through at the end of the iteration
    "if ((a[i] & 1) == 0) { acc = acc + a[i]; } "
    "else { aux = aux - a[i]; }",
    # one CIR copied from another: a lagged pair
    "int t = aux; aux = acc; acc = acc + a[i] - t;",
    # three CIRs, each copied from or fed by the next
    "lo = lo + aux; aux = acc; acc = (acc * 3) + a[i];",
)


class RandomChooser:
    """Chooser over a ``random.Random`` (seed-reproducible draws)."""

    def __init__(self, rng):
        if not isinstance(rng, random.Random):
            rng = random.Random(rng)
        self.rng = rng

    def integers(self, lo, hi):
        return self.rng.randint(lo, hi)

    def sampled_from(self, seq):
        return seq[self.rng.randrange(len(seq))]

    def booleans(self):
        return self.rng.random() < 0.5


# -- generator core ---------------------------------------------------------

def gen_expr(ch, depth=0, vars_=("x", "y")):
    """A random MiniC integer expression over *vars_* and ``a[i]``."""
    choice = ch.integers(0, 5 if depth < 2 else 2)
    if choice == 0:
        return str(ch.integers(-40, 40))
    if choice == 1:
        return ch.sampled_from(vars_)
    if choice == 2:
        return "a[i]"
    op = ch.sampled_from(BINOPS)
    left = gen_expr(ch, depth + 1, vars_)
    right = gen_expr(ch, depth + 1, vars_)
    return "(%s %s %s)" % (left, op, right)


def gen_uc_body(ch):
    """Statements for an unordered body writing only b[i]/c[i]."""
    stmts = ["int x = a[i];", "int y = i * 3;"]
    n = ch.integers(1, 4)
    for _ in range(n):
        e = gen_expr(ch)
        if ch.booleans():
            stmts.append("x = %s;" % e)
        else:
            stmts.append("y = %s;" % e)
    if ch.booleans():
        cond = gen_expr(ch)
        stmts.append("if (%s) { x = x + 1; } else { y = y - 2; }"
                     % cond)
    stmts.append("b[i] = x;")
    stmts.append("c[i] = y;")
    return "\n        ".join(stmts)


def gen_or_update(ch):
    """Ordered-body CIR accumulator update, possibly conditional."""
    return ch.sampled_from(OR_UPDATES)


# -- source templates -------------------------------------------------------

def uc_source(body):
    return """
void k(int* a, int* b, int* c, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        %s
    }
}""" % body


def or_source(update):
    return """
int k(int* a, int* b, int n, int init) {
    int acc = init;
    #pragma xloops ordered
    for (int i = 0; i < n; i++) {
        %s
        b[i] = acc;
    }
    return acc;
}""" % update


def or_multi_source(update):
    """An ordered loop over :data:`OR_MULTI_UPDATES`: every CIR reaches
    memory and the return value."""
    return """
int k(int* a, int* b, int n, int init) {
    int acc = init;
    int aux = init + 3;
    int lo = 0;
    #pragma xloops ordered
    for (int i = 0; i < n; i++) {
        %s
        b[i] = acc + aux - lo;
    }
    return (acc ^ aux) + lo;
}""" % update


def om_source(scale):
    """``a[i] = a[i-stride] * scale + a[i]`` — the dependence distance
    is the runtime *stride* argument, so squash behaviour varies per
    example."""
    return """
void k(int* a, int n, int stride) {
    #pragma xloops ordered
    for (int i = stride; i < n; i++) {
        a[i] = a[i-stride] * %d + a[i];
    }
}""" % scale


DE_SOURCE = """
int k(int* a, int* b, int n, int limit) {
    int acc = 0;
    #pragma xloops ordered
    for (int i = 0; i < n; i++) {
        acc = acc + a[i];
        b[i] = acc;
        if (acc > limit) { break; }
    }
    return acc;
}"""


def ua_source(incr):
    """Histogram-style atomic loop: two buckets updated per element."""
    return """
void k(int* d, int* h, int n) {
    #pragma xloops atomic
    for (int i = 0; i < n; i++) {
        int s = d[i];
        h[s] = h[s] + %d;
        h[s + 8] = h[s + 8] + 1;
    }
}""" % incr


# -- fully-assembled random cases (the `repro verify --gen N` sweep) --------

@dataclass
class GenCase:
    """One generated differential-conformance case: a source, a memory
    image, a call, and which words to compare across execution modes."""

    name: str
    source: str
    entry: str
    args: List[int]
    init_words: List[Tuple[int, List[int]]]     # (base, words)
    out_regions: List[Tuple[int, int]]          # (base, count) to compare
    compare_return: bool = False

    def apply(self, mem):
        for base, words in self.init_words:
            mem.write_words(base, [v & 0xFFFFFFFF for v in words])
        return self.args

    def outputs(self, mem, return_value=None):
        out = [tuple(mem.read_words(base, count))
               for base, count in self.out_regions]
        if self.compare_return:
            out.append(return_value)
        return tuple(out)


def _data(ch, lo, hi, count=N):
    return [ch.integers(lo, hi) for _ in range(count)]


def gen_uc_case(ch, tag=""):
    return GenCase(
        name="uc%s" % tag, source=uc_source(gen_uc_body(ch)), entry="k",
        args=[A, B, C, N], init_words=[(A, _data(ch, -100, 100))],
        out_regions=[(B, N), (C, N)])


def gen_or_case(ch, tag=""):
    init = ch.integers(-10, 10)
    return GenCase(
        name="or%s" % tag, source=or_source(gen_or_update(ch)),
        entry="k", args=[A, B, N, init & 0xFFFFFFFF],
        init_words=[(A, _data(ch, -50, 50))],
        out_regions=[(B, N)], compare_return=True)


def gen_or_multi_case(ch, tag=""):
    init = ch.integers(-10, 10)
    return GenCase(
        name="or%s" % tag,
        source=or_multi_source(ch.sampled_from(OR_MULTI_UPDATES)),
        entry="k", args=[A, B, N, init & 0xFFFFFFFF],
        init_words=[(A, _data(ch, -50, 50))],
        out_regions=[(B, N)], compare_return=True)


def gen_om_case(ch, tag=""):
    stride = ch.integers(1, 5)
    scale = ch.integers(1, 3)
    return GenCase(
        name="om%s" % tag, source=om_source(scale), entry="k",
        args=[A, N, stride],
        init_words=[(A, _data(ch, 0, 60, N + 8))],
        out_regions=[(A, N)])


def gen_de_case(ch, tag=""):
    threshold = ch.integers(5, 120)
    return GenCase(
        name="de%s" % tag, source=DE_SOURCE, entry="k",
        args=[A, B, N, threshold],
        init_words=[(A, _data(ch, 0, 30))],
        out_regions=[(B, N)], compare_return=True)


def gen_ua_case(ch, tag=""):
    incr = ch.integers(1, 5)
    return GenCase(
        name="ua%s" % tag, source=ua_source(incr), entry="k",
        args=[A, B, N], init_words=[(A, _data(ch, 0, 7))],
        out_regions=[(B, 16)])


#: draw order: every round of five draws each pattern family once, and
#: the ordered family alternates between the multi-CIR updates (first,
#: so ``--gen 5`` always draws one) and the single-CIR ones
_CASE_GENS = (gen_uc_case, gen_or_multi_case, gen_om_case, gen_de_case,
              gen_ua_case,
              gen_uc_case, gen_or_case, gen_om_case, gen_de_case,
              gen_ua_case)


def random_cases(seed, count):
    """*count* deterministic :class:`GenCase` objects cycling through
    every pattern family (uc, or, om, de, ua)."""
    ch = RandomChooser(random.Random(seed))
    return [_CASE_GENS[i % len(_CASE_GENS)](ch, tag="-%d" % i)
            for i in range(count)]


# -- prover-directed cases --------------------------------------------------

def case_from_counterexample(name, source, entry, params, witness,
                             words=64, min_trip=16):
    """Build a directed :class:`GenCase` from a prover counterexample.

    *witness* is a ``repro.lang.passes.prover.Witness``: a concrete
    iteration pair of *source*'s loop that touches the same array
    element.  The case binds every pointer parameter of *params* (the
    entry function's parameter list) to its own region, sizes the trip
    count so the colliding iterations actually execute, and compares
    every region across execution modes — so an unsound pragma
    becomes an observable traditional-vs-specialized divergence.

    The witness trip count is a *minimum*: it is raised to *min_trip*
    (the colliding pair still executes; a longer run lengthens the
    dependence chain, making lane-interleaving divergence far more
    likely to materialize on at least one sweep point).
    """
    args: List[int] = []
    init_words: List[Tuple[int, List[int]]] = []
    out_regions: List[Tuple[int, int]] = []
    ridx = 0
    for p in params:
        if p.type.is_pointer:
            base = A + ridx * 0x80000
            # distinct, deterministic non-zero fill per region so
            # reorderings of colliding accesses change the image
            vals = [(1000003 * (k + 7 * ridx + 1)) % 65521
                    for k in range(words)]
            args.append(base)
            init_words.append((base, vals))
            out_regions.append((base, words))
            ridx += 1
        elif p.name == witness.bound_name:
            args.append(max(witness.trip, min_trip))
        elif p.name in witness.symbols:
            args.append(witness.symbols[p.name] & 0xFFFFFFFF)
        else:
            args.append(max(witness.trip, 2))
    return GenCase(name=name, source=source, entry=entry, args=args,
                   init_words=init_words, out_regions=out_regions)


# -- hypothesis strategies (optional dependency) ----------------------------

try:  # pragma: no cover - exercised via the fuzz suite
    from hypothesis import strategies as _st
except ImportError:  # pragma: no cover
    _st = None

if _st is not None:
    class _DrawChooser:
        """Chooser over a hypothesis ``draw`` (examples still shrink)."""

        def __init__(self, draw):
            self._draw = draw

        def integers(self, lo, hi):
            return self._draw(_st.integers(lo, hi))

        def sampled_from(self, seq):
            return self._draw(_st.sampled_from(seq))

        def booleans(self):
            return self._draw(_st.booleans())

    @_st.composite
    def uc_loop_body(draw):
        return gen_uc_body(_DrawChooser(draw))

    @_st.composite
    def or_loop_body(draw):
        return gen_or_update(_DrawChooser(draw))
