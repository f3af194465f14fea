"""Differential conformance harness (the ``repro verify`` engine)."""

import pytest

from repro.kernels import get_kernel
from repro.lang import compile_source
from repro.uarch.cache import L1Cache
from repro.verify import (ConformanceResult, check_case, check_kernel,
                          check_ladder, run_conformance)
from repro.verify.genloops import LPSU_SWEEP, random_cases

#: one representative per dependence pattern + both control extensions
REPRESENTATIVES = ("rgb2cmyk-uc", "sha-or", "ksack-sm-om", "mm-orm",
                   "btree-ua", "qsort-uc-db", "ssearch-de")


class TestCheckKernel:
    @pytest.mark.parametrize("name", REPRESENTATIVES)
    def test_representative_kernels_conform(self, name):
        res = check_kernel(name, scale="tiny")
        assert res.ok, res.detail
        # every sweep config plus the adaptive point actually ran
        assert res.configs == len(LPSU_SWEEP) + 1
        assert res.invocations > 0
        assert res.iterations > 0

    def test_unknown_kernel_is_a_failure_not_a_crash(self):
        res = check_kernel("no-such-kernel")
        assert not res.ok
        assert "no-such-kernel" in res.detail or res.detail

    def test_failure_detail_is_kept(self):
        res = ConformanceResult(name="x")
        res.fail("first")
        res.fail("second")
        assert not res.ok and res.detail == "first"


class TestCheckCase:
    def test_generated_cases_conform(self):
        for case in random_cases(seed=7, count=5):
            res = check_case(case)
            assert res.ok, "%s: %s" % (res.name, res.detail)

    def test_case_sweep_covers_all_families(self):
        kinds = set()
        for case in random_cases(seed=0, count=5):
            res = check_case(case, sweep=LPSU_SWEEP[:1])
            assert res.ok, res.detail
            kinds.update(res.kinds)
        assert any(k.startswith("xloop.uc") for k in kinds)
        assert any(k.startswith("xloop.or") for k in kinds)
        assert "xloop.om" in kinds
        assert "xloop.ua" in kinds
        assert any(k.endswith(".de") for k in kinds)


class TestRunConformance:
    def test_subset_sweep_with_progress(self):
        seen = []
        results = run_conformance(kernels=["sha-or", "btree-ua"],
                                  gen=2, seed=3,
                                  progress=seen.append)
        assert len(results) == 4 == len(seen)
        assert all(r.ok for r in results), \
            [(r.name, r.detail) for r in results if not r.ok]


class TestLadderHostsTier:
    def test_a_host_missing_the_lpsu_phase_fails_the_gate(self,
                                                          monkeypatch):
        # the hosts run times io, ooo/2 and ooo/4 in one pass; a host
        # whose L1 misses the shared LPSU phase's lines must show up
        # against that GPP's own run
        monkeypatch.setattr(L1Cache, "copy_from",
                            lambda self, other: None)
        spec = get_kernel("vvadd-uc")
        res = check_ladder(
            spec.name, compile_source(spec.source).program, spec.entry,
            lambda mem: spec.workload("tiny", 0).apply(mem),
            sweep=LPSU_SWEEP[:1], adaptive=False)
        assert not res.ok
        assert "!=hosts: cache" in res.detail, res.detail
