"""Symbolic dependence prover: certificate soundness on the five
pattern exemplars, counterexample minimality, symbolic-vs-concrete
bound agreement, the depend-pass diophantine hook, the
``annotate="auto"`` compiler mode, and a hypothesis property pinning
the prover to brute-force dependence enumeration at small trips."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import CompileError, compile_source
from repro.lang.passes.prover import PRAGMA_WHITELIST, prove_source
from repro.lang.passes.prover_core import (HAS_Z3, Poly, linear_bounds,
                                           pair_dependent_over_z,
                                           solve_eqs)

UC_SRC = """
void f(int* a, int* b, int* c, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) { c[i] = a[i] + b[i]; }
}"""

OR_SRC = """
int f(int* a, int* b, int n) {
    int acc = 0;
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { acc = acc + a[i]; b[i] = acc; }
    return acc;
}"""

OM_SRC = """
void f(int* a, int n) {
    #pragma xloops ordered
    for (int i = 1; i < n; i++) { a[i] = a[i-1] + a[i]; }
}"""

ORM_SRC = """
void f(int* a, int* out, int n) {
    int k = 0;
    #pragma xloops ordered
    for (int i = 1; i < n; i++) {
        a[i] = a[i-1] + 1;
        out[k] = i;
        k = k + 1;
    }
}"""

UA_SRC = """
void f(int* d, int* h, int n) {
    #pragma xloops atomic
    for (int i = 0; i < n; i++) { h[d[i]] = h[d[i]] + 1; }
}"""

BAD_UC_SRC = """
void f(int* a, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) { a[i + 1] = a[i] + 1; }
}"""


def one_proof(src):
    proofs = prove_source(src)
    assert len(proofs) == 1
    return proofs[0]


class TestFivePatternCertificates:
    """Certificate soundness on one exemplar per data pattern."""

    def test_uc_proved_independent(self):
        p = one_proof(UC_SRC)
        assert p.emitted == "xloop.uc"
        assert p.verdict == "proved"
        assert p.mem_status == "independent"
        assert p.minimal == "uc"
        # every pair carries a positive certificate, not an assumption
        assert all(c.status == "independent" for c in p.pairs)

    def test_or_proved_register_carried(self):
        p = one_proof(OR_SRC)
        assert p.emitted == "xloop.or"
        assert p.verdict == "proved"
        assert p.cirs == ("acc",)
        assert p.mem_status == "independent"
        assert p.minimal == "or"

    def test_om_proved_with_dependence_witness(self):
        p = one_proof(OM_SRC)
        assert p.emitted == "xloop.om"
        assert p.verdict == "proved"        # LSQ orders memory
        assert p.mem_status == "dependent"  # ...and the ordering is real
        assert p.minimal == "om"
        wit = next(c.witness for c in p.pairs
                   if c.status == "dependent")
        # adjacent iterations touching a[i-1]/a[i]: distance exactly 1
        assert abs(wit.i - wit.j) == 1

    def test_orm_proved(self):
        p = one_proof(ORM_SRC)
        assert p.emitted == "xloop.orm"
        assert p.verdict == "proved"
        assert p.cirs == ("k",)
        assert p.minimal == "orm"

    def test_ua_assumed_atomic_commute(self):
        p = one_proof(UA_SRC)
        assert p.emitted == "xloop.ua"
        assert p.verdict == "assumed"
        assert "atomic-commute" in p.reasons

    def test_over_serialized_om_is_noted(self):
        # an ordered pragma on an independent loop: sound but lossy
        p = one_proof("""
void f(int* a, int* b, int n) {
    int acc = 0;
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { acc = acc + a[i]; b[i] = acc; }
    int x = acc;
    a[0] = x;
}""")
        assert p.verdict == "proved"
        assert p.minimal == "or"


class TestCounterexampleMinimality:
    def test_wrong_uc_refuted_with_minimal_witness(self):
        p = one_proof(BAD_UC_SRC)
        assert p.verdict == "refuted"
        wit = p.counterexample
        assert wit is not None
        # smallest trip count exhibiting the collision, then the
        # lexicographically-least iteration pair and address
        assert wit.trip == 2
        assert (wit.i, wit.j) == (1, 0)
        assert wit.array == "a"
        assert wit.subscript == 1
        assert wit.bound_name == "n"

    def test_stride_two_witness_skips_vacuous_trips(self):
        p = one_proof("""
void f(int* a, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) { a[2 * i] = a[i] + 1; }
}""")
        assert p.verdict == "refuted"
        wit = p.counterexample
        # the read a[i] at iteration 2 meets the write a[2j] at
        # iteration 1 on element a[2]: no smaller trip collides
        assert wit.trip == 3
        assert (wit.i, wit.j) == (2, 1)
        assert wit.subscript == 2

    def test_witness_validates_by_execution_semantics(self):
        # witness (i, j) indexes the pair's (first, second) access:
        # here the read a[$i] and the write a[1 + $i]
        p = one_proof(BAD_UC_SRC)
        wit = p.counterexample
        addrs_read = list(range(wit.trip))          # a[i]
        addrs_write = [i + 1 for i in range(wit.trip)]  # a[i + 1]
        assert addrs_read[wit.i] == addrs_write[wit.j] == wit.subscript


class TestSymbolicConcreteBoundAgreement:
    """linear_bounds' symbolic (min, max) must agree with concrete
    enumeration of the same box at every sampled symbol value."""

    @pytest.mark.parametrize("coef,off", [(1, 0), (3, -2), (-2, 5)])
    def test_affine_ranges(self, coef, off):
        # p = coef*x + off over x in [0, n) with n >= 2
        p = Poly.var("x") * Poly.const(coef) + Poly.const(off)
        ranges = {"x": (Poly.const(0), Poly.var("n"))}
        mn, mx = linear_bounds(p, ranges, {"n": 2})
        for n in range(2, 8):
            concrete = [coef * x + off for x in range(n)]
            assert mn.evaluate({"n": n}) == min(concrete)
            assert mx.evaluate({"n": n}) == max(concrete)

    def test_symbolic_coefficient_needs_sign(self):
        # w*x over x in [0, n): only bounded once w's sign is known
        p = Poly.var("x") * Poly.var("w")
        ranges = {"x": (Poly.const(0), Poly.var("n"))}
        assert linear_bounds(p, ranges, {"n": 2}) is None
        mn, mx = linear_bounds(p, ranges, {"n": 2, "w": 1})
        for n, w in itertools.product(range(2, 6), range(1, 4)):
            concrete = [w * x for x in range(n)]
            assert mn.evaluate({"n": n, "w": w}) == min(concrete)
            assert mx.evaluate({"n": n, "w": w}) == max(concrete)

    def test_solver_finds_lexicographic_least(self):
        # x - 2y = 0, x != y over [0,8): least solution is (2,1)
        eq = Poly.var("x") - Poly.const(2) * Poly.var("y")
        sol = solve_eqs([eq], {"x": (0, 8), "y": (0, 8)},
                        neq=("x", "y"), order=("x", "y"))
        assert sol == {"x": 2, "y": 1}


class TestDependDiophantine:
    """The weak-SIV/MIV fallthrough now runs an exact two-variable
    linear diophantine test (regression: the old pass over-serialized
    gcd-separated strides to om)."""

    def test_gcd_separated_strides_relax_to_uc(self):
        # writes a[2i], reads a[4i+1]: gcd(2,4)=2 does not divide 1
        cp = compile_source("""
void f(int* a, int n) {
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { a[2 * i] = a[4 * i + 1]; }
}""")
        assert cp.loop_kinds() == ("xloop.uc",)

    def test_gcd_dividing_delta_stays_om(self):
        # writes a[2i], reads a[4i+2]: 2i = 4j+2 has solutions
        cp = compile_source("""
void f(int* a, int n) {
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { a[2 * i] = a[4 * i + 2]; }
}""")
        assert cp.loop_kinds() == ("xloop.om",)

    def test_data_dependent_subscript_stays_conservative(self):
        cp = compile_source("""
void f(int* a, int* idx, int n) {
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { a[idx[i]] = a[i] + 1; }
}""")
        assert cp.loop_kinds() == ("xloop.om",)

    @pytest.mark.parametrize("ca,cb,delta", [
        (2, 4, 1), (2, 4, 2), (3, 6, 2), (0, 0, 0), (0, 0, 3),
        (5, 0, 10), (-2, 4, 3), (6, 10, 4),
    ])
    def test_pair_dependent_over_z_matches_enumeration(self, ca, cb,
                                                       delta):
        brute = any(ca * x - cb * y == delta
                    for x in range(-40, 41) for y in range(-40, 41))
        exact = pair_dependent_over_z(ca, cb, delta)
        # exact is over all of Z: it may find solutions outside the
        # enumeration window but never miss one inside it
        assert not (brute and not exact)
        if ca or cb:
            assert brute == exact


class TestAutoAnnotate:
    def test_unannotated_loops_get_proved_patterns(self):
        src = UC_SRC.replace("#pragma xloops unordered", "")
        cp = compile_source(src, annotate="auto")
        assert cp.loop_kinds() == ("xloop.uc",)

    def test_reduction_becomes_or(self):
        src = OR_SRC.replace("#pragma xloops ordered", "")
        cp = compile_source(src, annotate="auto")
        assert cp.loop_kinds() == ("xloop.or",)

    def test_memory_dependence_never_goes_unordered(self):
        src = OM_SRC.replace("#pragma xloops ordered", "")
        cp = compile_source(src, annotate="auto")
        assert cp.loop_kinds() == ("xloop.om",)

    def test_hand_annotations_win(self):
        cp = compile_source(OM_SRC, annotate="auto")
        assert cp.loop_kinds() == ("xloop.om",)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            compile_source(UC_SRC, annotate="smart")

    def test_auto_specialized_bit_identical_to_traditional(self):
        from repro.sim import Memory
        from repro.uarch import IO, SystemConfig, simulate
        from repro.uarch.params import LPSUConfig
        src = UC_SRC.replace("#pragma xloops unordered", "")
        cp = compile_source(src, annotate="auto")
        A, B, C, N = 0x100000, 0x180000, 0x200000, 24

        def run(mode, cfg):
            mem = Memory()
            mem.write_words(A, [(i * 7 + 3) % 101 for i in range(N)])
            mem.write_words(B, [(i * 13 + 5) % 97 for i in range(N)])
            simulate(cp.program, cfg, entry="f", args=[A, B, C, N],
                     mem=mem, mode=mode, verify=mode == "specialized")
            return mem

        ref = run("traditional", SystemConfig("t", IO))
        spec = run("specialized", SystemConfig("s", IO, LPSUConfig()))
        assert spec.pages_equal(ref)

    @pytest.mark.parametrize("name", ("dither-or", "dither-or-opt"))
    def test_pragma_free_kernel_passes_its_check(self, name):
        # the outer row loop writes nxt[w-1] every iteration: the
        # bounded model check's witness must bind w, which cancels
        # out of the address difference
        import re
        from repro.kernels import get_kernel
        from repro.sim import Memory
        from repro.uarch import IO, SystemConfig, simulate
        from repro.uarch.params import LPSUConfig
        spec = get_kernel(name)
        src = re.sub(r"#pragma xloops \w+", "", spec.source)
        cp = compile_source(src, annotate="auto")
        assert cp.loop_kinds()
        for mode in ("traditional", "specialized", "adaptive"):
            workload = spec.workload("tiny", 0)
            mem = Memory()
            args = workload.apply(mem)
            simulate(cp.program, SystemConfig("s", IO, LPSUConfig()),
                     entry=spec.entry, args=args, mem=mem, mode=mode,
                     verify=mode != "traditional")
            workload.check(mem)


class TestFuzzProperty:
    """The prover never disagrees with brute-force dependence
    enumeration at small trip counts (hypothesis-driven)."""

    @given(ca=st.integers(-4, 4), da=st.integers(-6, 6),
           cb=st.integers(-4, 4), db=st.integers(-6, 6))
    @settings(max_examples=60, deadline=None)
    def test_affine_pair_agrees_with_brute_force(self, ca, da, cb, db):
        src = """
void f(int* a, int n) {
    #pragma xloops ordered
    for (int i = 0; i < n; i++) {
        a[(%d)*i + (%d)] = a[(%d)*i + (%d)] + 1;
    }
}""" % (ca, da, cb, db)
        proof = prove_source(src)[0]

        def brute(trip):
            found = False
            for i, j in itertools.product(range(trip), repeat=2):
                if i == j:
                    continue
                wa, ra = ca * i + da, cb * j + db
                wb = ca * j + da
                if wa == ra or wa == wb:
                    found = True
            return found

        brute_any = any(brute(n) for n in range(2, 9))
        if proof.mem_status == "independent":
            assert not brute_any, (
                "prover certified independent, brute force disagrees")
        elif proof.mem_status == "dependent":
            wit = proof.counterexample
            assert wit is not None
            assert wit.i != wit.j
            assert 0 <= wit.i < wit.trip and 0 <= wit.j < wit.trip
            assert brute(wit.trip), "witness does not validate"


class TestWhitelistPolicy:
    def test_whitelist_is_empty(self):
        # the acceptance gate: zero whitelist entries, ever — a new
        # entry needs a tracked reason AND a failing review here
        assert PRAGMA_WHITELIST == {}


@pytest.mark.skipif(not HAS_Z3, reason="z3-solver not installed "
                    "(optional extra: pip install repro[z3])")
class TestZ3Backend:
    def test_z3_refutes_what_intervals_cannot(self, monkeypatch):
        from repro.lang.passes.prover_core import z3_refute
        monkeypatch.setenv("REPRO_PROVER_Z3", "1")
        # x - y - 1 = 0 with x,y in [0,4): satisfiable -> not refuted
        diff = (Poly.var("$x") - Poly.var("$y") - Poly.const(1))
        ranges = {"$x": (Poly.const(0), Poly.const(4)),
                  "$y": (Poly.const(0), Poly.const(4))}
        assert z3_refute(diff, ranges, {}, ("$x", "$y")) is False
        # 2x - 2y - 1 = 0: parity -> refuted
        diff2 = (Poly.const(2) * Poly.var("$x")
                 - Poly.const(2) * Poly.var("$y") - Poly.const(1))
        assert z3_refute(diff2, ranges, {}, ("$x", "$y")) is True
