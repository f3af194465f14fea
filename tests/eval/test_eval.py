"""Evaluation-harness tests: runner caching, normalization, and the
qualitative result shapes the paper reports (on tiny workloads with a
representative kernel subset, so the suite stays fast)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.eval import (BASELINE_OF, CONFIGS, baseline_run, build_row,
                        build_table4, build_table5, config,
                        energy_efficiency, fig6_data, fig9_data, fig10_data,
                        geomean, opt_improvements, render_fig5,
                        render_table2, render_table4, render_table5, run,
                        speedup)
from repro.eval.figures import fig5_data, fig7_data, fig8_data

SCALE = "tiny"


class TestConfigs:
    def test_all_named_configs_resolve(self):
        for name in CONFIGS:
            assert config(name).name == name

    def test_unknown_config(self):
        with pytest.raises(KeyError):
            config("ooo/16")

    def test_baselines_have_no_lpsu(self):
        for name in ("io", "ooo/2", "ooo/4"):
            assert config(name).lpsu is None

    def test_xloops_configs_have_lpsu(self):
        for name in ("io+x", "ooo/2+x", "ooo/4+x"):
            assert config(name).lpsu is not None

    def test_design_space_variants(self):
        assert config("ooo/4+x4+t").lpsu.threads_per_lane == 2
        assert config("ooo/4+x8").lpsu.lanes == 8
        assert config("ooo/4+x8+r").lpsu.mem_ports == 2
        assert config("ooo/4+x8+r+m").lpsu.lsq_loads == 16

    def test_baseline_of_total(self):
        assert set(BASELINE_OF) == set(CONFIGS)


class TestRunner:
    def test_run_is_memoized(self):
        a = run("sha-or", "io", scale=SCALE)
        b = run("sha-or", "io", scale=SCALE)
        assert a is b

    def test_results_verified_against_golden(self):
        # run() verifies internally; reaching here means goldens pass
        r = run("rgb2cmyk-uc", "io+x", mode="specialized", scale=SCALE)
        assert r.cycles > 0
        assert r.specialized_invocations >= 1

    def test_baseline_uses_serial_source_when_present(self):
        r = baseline_run("bfs-uc-db", "io", scale=SCALE)
        assert r.binary == "serial"
        r2 = baseline_run("sha-or", "io", scale=SCALE)
        assert r2.binary == "gp"

    def test_speedup_of_baseline_is_one(self):
        assert speedup("sha-or", "io", "traditional",
                       scale=SCALE, binary="gp") == pytest.approx(1.0)

    def test_energy_efficiency_positive(self):
        assert energy_efficiency("rgb2cmyk-uc", "io+x", "specialized",
                                 scale=SCALE) > 0

    def test_default_path_imports_no_rung_above_fused(self):
        # a fresh process on the default backend: neither the turbo
        # and vector rungs nor numpy get imported, by the simulation
        # or by clearing the caches after it
        script = (
            "import sys\n"
            "from repro.eval import runner\n"
            "r = runner.run('vvadd-uc', 'io+x', mode='specialized',\n"
            "               scale='tiny')\n"
            "assert r.specialized_invocations\n"
            "runner.clear_cache(keep_disk=True)\n"
            "print(sorted(m for m in ('numpy', 'repro.sim.turbo',\n"
            "                         'repro.sim.vector')\n"
            "             if m in sys.modules))\n")
        env = dict(os.environ, REPRO_NO_CACHE="1", PYTHONPATH=
                   os.path.dirname(os.path.dirname(repro.__file__)))
        env.pop("REPRO_BACKEND", None)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestTable2:
    def test_row_fields(self):
        row = build_row("rgb2cmyk-uc", scale=SCALE)
        assert row.suite == "C"
        assert row.xloops == ("xloop.uc",)
        assert 0.8 < row.xg_ratio < 1.3
        assert set(row.speedups) == {(g, m) for g in ("io", "ooo/2",
                                                      "ooo/4")
                                     for m in "TSA"}

    def test_render(self):
        row = build_row("sha-or", scale=SCALE)
        text = render_table2([row])
        assert "sha-or" in text and "io:S" in text

    def test_uc_specialized_beats_io(self):
        row = build_row("rgb2cmyk-uc", scale=SCALE)
        assert row.speedups[("io", "S")] > 2.0
        assert abs(row.speedups[("io", "T")] - 1.0) < 0.1

    def test_long_cir_kernels_lose_on_ooo4(self):
        # paper: out-of-order GPPs beat specialized execution for
        # xloop.or kernels with long inter-iteration critical paths
        row = build_row("sha-or", scale=SCALE)
        assert row.speedups[("ooo/4", "S")] < 1.0


class TestTable4:
    def test_hand_optimized_improvements(self):
        gains = opt_improvements(scale=SCALE)
        assert set(gains) == {"adpcm-or-opt", "dither-or-opt",
                              "sha-or-opt"}
        for name, gain in gains.items():
            assert gain > 1.0, name

    def test_build_and_render(self):
        rows = build_table4(kernels=["sha-or-opt", "dither-uc"],
                            scale=SCALE)
        text = render_table4(rows)
        assert "sha-or-opt" in text


class TestTable5:
    def test_rows_and_render(self):
        rows = build_table5()
        text = render_table5(rows)
        assert "lpsu+i128+ln4" in text
        assert "scalar" in text


_FIG_KERNELS = ("rgb2cmyk-uc", "sha-or", "ksack-sm-om")


class TestFigures:
    def test_fig5_normalization(self):
        series = fig5_data(kernels=_FIG_KERNELS, scale=SCALE)
        # by construction the ooo/2 series is exactly 1.0
        for k in _FIG_KERNELS:
            assert series["ooo/2"][k] == pytest.approx(1.0)
        text = render_fig5(series)
        assert "ooo/2+x:S" in text

    def test_fig6_fractions_sum_to_one(self):
        data = fig6_data(kernels=_FIG_KERNELS, scale=SCALE)
        for k, b in data.items():
            total = sum(v for key, v in b.items()
                        if key not in ("squash", "squashes"))
            assert total == pytest.approx(1.0, abs=1e-6), k

    def test_fig7_adaptive_tracks_better_engine(self):
        series = fig7_data(kernels=("sha-or",), scale="small")
        s, a = series["S"]["sha-or"], series["A"]["sha-or"]
        # sha-or loses under specialized execution on ooo/4; adaptive
        # must recover most of the loss
        assert a >= s

    def test_fig8_points(self):
        pts = fig8_data(kernels=("rgb2cmyk-uc",), configs=("io+x",),
                        modes=("specialized",), scale=SCALE)
        assert len(pts) == 1
        p = pts[0]
        assert p.performance > 1.0
        assert p.efficiency > 0.5

    def test_fig9_lanes_help_uc(self):
        series = fig9_data(kernels=("rgb2cmyk-uc",),
                           configs=("ooo/4+x", "ooo/4+x8+r"),
                           scale="small")
        assert (series["ooo/4+x8+r"]["rgb2cmyk-uc"]
                >= series["ooo/4+x"]["rgb2cmyk-uc"])

    def test_fig10_shapes(self):
        pts = fig10_data(kernels=("rgb2cmyk-uc", "ssearch-uc"),
                         scale=SCALE)
        for p in pts:
            assert p.performance > 1.0     # paper: 2.4-4x
            assert p.efficiency > 1.0      # paper: 1.6-2.1x


class TestReportHelpers:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
