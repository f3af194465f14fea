"""Dependence-analysis / pattern-selection tests — including the
paper's Fig 2 (war: nested om/uc) and Fig 3 (mm: orm) examples."""

import pytest

from repro.lang import CompileError, compile_source


def kinds(src):
    return compile_source(src).loop_kinds()


class TestAnnotationMapping:
    def test_unordered_maps_to_uc(self):
        assert kinds("""
void f(int* a, int* b, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) { b[i] = a[i]; }
}""") == ("xloop.uc",)

    def test_atomic_maps_to_ua(self):
        assert kinds("""
void f(int* d, int* h, int n) {
    #pragma xloops atomic
    for (int i = 0; i < n; i++) { h[d[i]] = h[d[i]] + 1; }
}""") == ("xloop.ua",)

    def test_ordered_register_dep_maps_to_or(self):
        cp = compile_source("""
void f(int* a, int* b, int n) {
    int acc = 0;
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { acc = acc + a[i]; b[i] = acc; }
}""")
        assert cp.loop_kinds() == ("xloop.or",)
        assert cp.loops[0].cirs == ("acc",)

    def test_ordered_memory_dep_maps_to_om(self):
        assert kinds("""
void f(int* a, int n) {
    #pragma xloops ordered
    for (int i = 1; i < n; i++) { a[i] = a[i-1] + a[i]; }
}""") == ("xloop.om",)

    def test_ordered_both_maps_to_orm(self):
        assert kinds("""
void f(int* a, int* out, int n) {
    int k = 0;
    #pragma xloops ordered
    for (int i = 1; i < n; i++) {
        a[i] = a[i-1] + 1;
        out[k] = i;
        k = k + 1;
    }
}""") == ("xloop.orm",)

    def test_ordered_without_deps_relaxes_to_uc(self):
        # least-restrictive legal encoding (Section II-A)
        assert kinds("""
void f(int* a, int* b, int n) {
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { b[i] = a[i] * 3; }
}""") == ("xloop.uc",)

    def test_dynamic_bound_suffix(self):
        cp = compile_source("""
void f(int* wl, int* tail, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        int v = wl[i];
        if (v < 10) {
            int slot = amo_add(tail, 1);
            wl[slot] = v * 2 + 1;
            n = n + 1;
        }
    }
}""")
        assert cp.loop_kinds() == ("xloop.uc.db",)
        assert cp.loops[0].dynamic_bound


class TestPaperFigures:
    def test_fig2_war_nested_om_uc(self):
        """Floyd-Warshall: outer ordered loop -> om, inner -> uc."""
        cp = compile_source("""
void war(int* path, int n) {
    for (int k = 0; k < n; k++) {
        #pragma xloops ordered
        for (int i = 0; i < n; i++) {
            #pragma xloops unordered
            for (int j = 0; j < n; j++) {
                int through = path[i*n+k] + path[k*n+j];
                if (through < path[i*n+j]) { path[i*n+j] = through; }
            }
        }
    }
}""")
        assert cp.loop_kinds() == ("xloop.om", "xloop.uc")

    def test_fig3_mm_orm(self):
        """Maximal matching: data-dependent subscripts + a scalar
        output counter -> orm (register AND memory ordering)."""
        cp = compile_source("""
void mm(int* ev, int* eu, int* vertices, int* out, int m) {
    int k = 0;
    #pragma xloops ordered
    for (int i = 0; i < m; i++) {
        int v = ev[i];
        int u = eu[i];
        if (vertices[v] < 0) {
            if (vertices[u] < 0) {
                vertices[v] = u;
                vertices[u] = v;
                out[k] = i;
                k = k + 1;
            }
        }
    }
}""")
        assert cp.loop_kinds() == ("xloop.orm",)
        assert cp.loops[0].cirs == ("k",)


class TestSubscriptTests:
    def test_strong_siv_distinct_offsets_is_dep(self):
        assert kinds("""
void f(int* a, int n) {
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { a[i+1] = a[i]; }
}""") == ("xloop.om",)

    def test_siv_nonunit_stride_no_integer_solution(self):
        # a[2i] vs a[2i+1]: distance 1 not divisible by 2 -> no dep
        assert kinds("""
void f(int* a, int n) {
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { a[2*i] = a[2*i+1]; }
}""") == ("xloop.uc",)

    def test_ziv_invariant_location_is_dep(self):
        assert kinds("""
void f(int* a, int n) {
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { a[0] = a[0] + i; }
}""") == ("xloop.om",)

    def test_distinct_arrays_do_not_alias(self):
        assert kinds("""
void f(int* a, int* b, int n) {
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { b[i] = a[i+1]; }
}""") == ("xloop.uc",)

    def test_data_dependent_subscript_conservative(self):
        assert kinds("""
void f(int* a, int* idx, int n) {
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { a[idx[i]] = i; }
}""") == ("xloop.om",)

    def test_amo_does_not_force_om(self):
        # AMOs are atomic: they do not impose memory ordering
        assert kinds("""
void f(int* a, int* c, int n) {
    #pragma xloops ordered
    for (int i = 0; i < n; i++) { int old = amo_add(&c[0], a[i]); }
}""") == ("xloop.uc",)


class TestDiagnostics:
    def test_cir_in_unordered_rejected(self):
        with pytest.raises(CompileError, match="carry values across"):
            compile_source("""
void f(int* a, int n) {
    int acc = 0;
    #pragma xloops unordered
    for (int i = 0; i < n; i++) { acc = acc + a[i]; }
}""")

    def test_live_out_temp_rejected(self):
        with pytest.raises(CompileError, match="undefined after"):
            compile_source("""
int f(int* a, int n) {
    int last = 0;
    #pragma xloops unordered
    for (int i = 0; i < n; i++) { last = a[i]; }
    return last;
}""")

    def test_break_selects_data_dependent_exit(self):
        # the .de extension (the paper's future-work control pattern):
        # break inside an annotated loop selects the .de suffix
        cp = compile_source("""
void f(int* a, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) { if (a[i]) break; }
}""")
        assert cp.loop_kinds() == ("xloop.uc.de",)
        assert "xloop.break" in cp.asm_text

    def test_break_plus_dynamic_bound_rejected(self):
        with pytest.raises(CompileError, match="dynamic bound"):
            compile_source("""
void f(int* a, int* t, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        if (a[i] < 0) { break; }
        int s = amo_add(t, 1);
        a[s] = i;
        n = n + 1;
    }
}""")

    def test_break_in_nested_plain_loop_ok(self):
        compile_source("""
void f(int* a, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        int j = 0;
        while (j < 10) { if (a[j]) break; j++; }
        a[i] = j;
    }
}""")

    def test_return_rejected(self):
        with pytest.raises(CompileError, match="return"):
            compile_source("""
int f(int* a, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) { if (a[i]) return i; }
    return 0;
}""")

    def test_call_in_body_rejected(self):
        with pytest.raises(CompileError, match="self-contained"):
            compile_source("""
int g(int x) { return x; }
void f(int* a, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) { a[i] = g(i); }
}""")

    def test_noncanonical_step_rejected(self):
        with pytest.raises(CompileError, match="unit stride"):
            compile_source("""
void f(int* a, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i += 2) { a[i] = 0; }
}""")

    def test_noncanonical_condition_rejected(self):
        with pytest.raises(CompileError, match="i < bound"):
            compile_source("""
void f(int* a, int n) {
    #pragma xloops unordered
    for (int i = n; i > 0; i++) { a[i] = 0; }
}""")


# two CIRs, one written on the then-path at a lower pc than its first
# read on the else-path: the LMU's linear scan would not see ``b``
TWO_CIR_SRC = """
int k(int* v, int* out, int n) {
    int a = -1;
    int b = -1;
    #pragma xloops ordered
    for (int j = 0; j < n; j++) {
        if (a < 0 || v[j] < v[a]) { b = a; a = j; }
        else { if (b < 0 || v[j] < v[b]) { b = j; } }
    }
    out[0] = a;
    out[1] = b;
    return a;
}"""


class TestCIRsAgreeWithTheScan:
    """Every CIR the compiler declares is one the LPSU's scan finds:
    read before written in the linear order of the emitted body."""

    V, OUT = 0x100000, 0x180000
    VALUES = (5, 3, 9, 1, 7, 2)

    def _run(self, program, mode):
        from repro.sim import Memory
        from repro.uarch import IO, LPSUConfig, SystemConfig, simulate
        mem = Memory()
        mem.write_words(self.V, list(self.VALUES))
        simulate(program, SystemConfig("t", IO, LPSUConfig()), entry="k",
                 args=[self.V, self.OUT, len(self.VALUES)], mem=mem,
                 mode=mode, verify=mode == "specialized")
        return [mem.load(self.OUT + 4 * i, 4, True) for i in range(2)]

    def test_cir_written_before_read_is_a_compile_error(self):
        with pytest.raises(CompileError) as exc:
            compile_source(TWO_CIR_SRC)
        msg = str(exc.value)
        assert "line 6" in msg and "'b'" in msg
        assert "written before it is read" in msg

    def test_auto_annotation_leaves_the_loop_unannotated(self):
        src = TWO_CIR_SRC.replace("#pragma xloops ordered", "")
        cp = compile_source(src, annotate="auto")
        assert cp.loop_kinds() == ()
        # the index of the smallest value and of the second smallest
        assert self._run(cp.program, "traditional") == [3, 5]
        assert self._run(cp.program, "specialized") == [3, 5]
