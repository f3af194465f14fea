"""Shared loop generators: determinism, compilability, coverage."""

import random

import pytest

from repro.lang import compile_source
from repro.sim import Memory
from repro.uarch.descriptor import scan_loop
from repro.verify import check_case
from repro.verify.genloops import (OR_MULTI_UPDATES, A, B, GenCase, N,
                                   RandomChooser, gen_expr, gen_uc_body,
                                   or_multi_source, random_cases)


def _scanned_cirs(source):
    program = compile_source(source).program
    xloop = next(ins for ins in program.instrs if ins.op.is_xloop)
    return scan_loop(program, xloop, [0] * 32).cirs


class TestRandomChooser:
    def test_accepts_seed_or_rng(self):
        a = RandomChooser(42)
        b = RandomChooser(random.Random(42))
        assert [a.integers(0, 100) for _ in range(5)] \
            == [b.integers(0, 100) for _ in range(5)]

    def test_sampled_from(self):
        ch = RandomChooser(0)
        seq = ("p", "q", "r")
        assert all(ch.sampled_from(seq) in seq for _ in range(10))


class TestGeneratorCore:
    def test_expr_is_deterministic_per_seed(self):
        assert gen_expr(RandomChooser(9)) == gen_expr(RandomChooser(9))
        bodies = {gen_uc_body(RandomChooser(s)) for s in range(8)}
        assert len(bodies) > 1  # actually varies across seeds

    def test_every_generated_case_compiles_both_ways(self):
        for case in random_cases(seed=11, count=10):
            xl = compile_source(case.source)
            compile_source(case.source, xloops=False)
            assert xl.loop_kinds(), case.name

    def test_random_cases_cycle_families(self):
        names = [c.name for c in random_cases(seed=0, count=5)]
        assert names == ["uc-0", "or-1", "om-2", "de-3", "ua-4"]

    def test_random_cases_deterministic(self):
        a = random_cases(seed=5, count=6)
        b = random_cases(seed=5, count=6)
        assert [c.source for c in a] == [c.source for c in b]
        assert [c.init_words for c in a] == [c.init_words for c in b]


class TestMultiCIRTemplates:
    @pytest.mark.parametrize("update", OR_MULTI_UPDATES)
    def test_compiles_with_every_cir_scanned(self, update):
        # compile_source raises CIROrderError on a CIR the LMU's scan
        # cannot see, and asserts the declared and scanned sets agree
        source = or_multi_source(update)
        assert compile_source(source).loop_kinds() == ("xloop.or",)
        assert len(_scanned_cirs(source)) >= 2

    @pytest.mark.parametrize("update", OR_MULTI_UPDATES)
    def test_conforms(self, update):
        data = [(-1) ** j * (3 * j % 17) for j in range(N)]
        case = GenCase(name="or-multi", source=or_multi_source(update),
                       entry="k", args=[A, B, N, 5],
                       init_words=[(A, data)], out_regions=[(B, N)],
                       compare_return=True)
        res = check_case(case)
        assert res.ok, res.detail

    @pytest.mark.parametrize("seed", range(4))
    def test_five_cases_draw_a_multi_cir_loop(self, seed):
        # `verify --gen 5`, the blocking ladder step, covers them
        assert any(len(_scanned_cirs(c.source)) >= 2
                   for c in random_cases(seed=seed, count=5)
                   if c.name.startswith("or"))


class TestGenCase:
    def test_apply_and_outputs_round_trip(self):
        case = GenCase(name="t", source="", entry="k", args=[1, 2],
                       init_words=[(0x1000, [7, 8, 9])],
                       out_regions=[(0x1000, 3)], compare_return=True)
        mem = Memory()
        assert case.apply(mem) == [1, 2]
        out = case.outputs(mem, return_value=99)
        assert out == ((7, 8, 9), 99)

    def test_masks_negative_init_words(self):
        case = GenCase(name="t", source="", entry="k", args=[],
                       init_words=[(0x1000, [-1])],
                       out_regions=[(0x1000, 1)])
        mem = Memory()
        case.apply(mem)
        assert case.outputs(mem) == ((0xFFFFFFFF,),)


class TestHypothesisAdapters:
    def test_strategies_present_when_hypothesis_installed(self):
        hypothesis = pytest.importorskip("hypothesis")  # noqa: F841
        from repro.verify.genloops import or_loop_body, uc_loop_body
        from hypothesis import given, settings

        seen = []

        @given(body=uc_loop_body(), update=or_loop_body())
        @settings(max_examples=5, deadline=None)
        def probe(body, update):
            seen.append((body, update))
            assert "b[i] = x;" in body
            assert "acc" in update

        probe()
        assert seen
