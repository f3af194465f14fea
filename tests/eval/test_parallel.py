"""Parallel sweep executor and persistent-cache tests.

The determinism regression: a parallel sweep must produce
bit-identical :class:`KernelRun` records to a serial one, and a second
sweep over the same points must be served from the disk cache instead
of re-simulating.
"""

import os
from dataclasses import asdict

import pytest

from repro.eval import diskcache, runner
from repro.eval.parallel import (SweepPoint, baseline_point, sweep,
                                 table2_points)

KERNELS = ["sgemm-uc", "dither-or"]
SCALE = "tiny"


def _points():
    return table2_points(KERNELS, SCALE, 0)


@pytest.fixture(autouse=True)
def _scoped_cache_config():
    """Restore the module-level cache configuration these tests poke."""
    saved = (diskcache._dir_override, diskcache._force_disabled,
             os.environ.get(diskcache.ENV_CACHE_DIR),
             os.environ.get(diskcache.ENV_NO_CACHE))
    # these tests exercise the disk cache: force it on even under the
    # hermetic-CI REPRO_NO_CACHE=1 environment (restored below)
    os.environ.pop(diskcache.ENV_NO_CACHE, None)
    diskcache._force_disabled = False
    yield
    diskcache._dir_override, diskcache._force_disabled = saved[:2]
    for var, value in ((diskcache.ENV_CACHE_DIR, saved[2]),
                       (diskcache.ENV_NO_CACHE, saved[3])):
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value
    diskcache.reset_stats()
    runner.clear_cache(keep_disk=True)


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        diskcache.configure(cache_dir=str(tmp_path))
        key = diskcache.cache_key("some", "content", 1)
        assert diskcache.load(key) is None
        assert diskcache.store(key, {"cycles": 42})
        assert diskcache.load(key) == {"cycles": 42}

    def test_corrupt_record_is_a_miss(self, tmp_path):
        diskcache.configure(cache_dir=str(tmp_path))
        key = diskcache.cache_key("corrupt")
        diskcache.store(key, [1, 2, 3])
        path = diskcache._record_path(key)
        with open(path, "wb") as f:
            f.write(b"not a pickle")
        assert diskcache.load(key) is None

    def test_no_cache_env_disables(self, tmp_path, monkeypatch):
        diskcache.configure(cache_dir=str(tmp_path))
        monkeypatch.setenv(diskcache.ENV_NO_CACHE, "1")
        key = diskcache.cache_key("gated")
        assert not diskcache.store(key, 1)
        monkeypatch.delenv(diskcache.ENV_NO_CACHE)
        assert diskcache.load(key) is None

    def test_clear_cache_keep_disk(self, tmp_path):
        diskcache.configure(cache_dir=str(tmp_path))
        runner.clear_cache()
        runner.run(KERNELS[0], "io", mode="traditional", scale=SCALE)
        n_sim = runner.simulations
        runner.clear_cache(keep_disk=True)
        runner.run(KERNELS[0], "io", mode="traditional", scale=SCALE)
        assert runner.simulations == n_sim  # served from disk
        runner.clear_cache()               # wipes the disk records too
        runner.run(KERNELS[0], "io", mode="traditional", scale=SCALE)
        assert runner.simulations == n_sim + 1


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self, tmp_path):
        # serial reference, computed fresh
        diskcache.configure(cache_dir=str(tmp_path / "serial"))
        runner.clear_cache()
        reference = {}
        for pt in _points():
            r = runner.run(pt.kernel, pt.config, **pt.run_kwargs())
            reference[pt.memo_key()] = asdict(r)
        assert reference

        # same points, 4 worker processes, fresh memo + fresh disk
        diskcache.configure(cache_dir=str(tmp_path / "parallel"))
        runner.clear_cache()
        summary = sweep(_points(), jobs=4)
        assert summary.jobs == 4
        assert summary.misses == summary.points  # nothing was cached

        for pt in _points():
            r = runner.run(pt.kernel, pt.config, **pt.run_kwargs())
            assert asdict(r) == reference[pt.memo_key()], pt.label()

    def test_second_sweep_served_from_cache(self, tmp_path):
        diskcache.configure(cache_dir=str(tmp_path))
        runner.clear_cache()
        first = sweep(_points(), jobs=4)
        assert first.misses == first.points

        runner.clear_cache(keep_disk=True)
        second = sweep(_points(), jobs=4)
        assert second.points == first.points
        assert second.hits >= 0.95 * second.points
        assert second.misses == 0

    def test_memo_prefill_skips_workers(self, tmp_path):
        diskcache.configure(cache_dir=str(tmp_path))
        runner.clear_cache()
        sweep(_points(), jobs=1)
        n_sim = runner.simulations
        again = sweep(_points(), jobs=1)
        assert runner.simulations == n_sim
        assert again.hits == again.points


class TestExecutorSurface:
    def test_points_deduplicate(self):
        pts = [SweepPoint("sgemm-uc", "io", scale=SCALE)] * 3
        summary = sweep(pts, jobs=1)
        assert summary.points == 1

    def test_summary_render(self, tmp_path):
        diskcache.configure(cache_dir=str(tmp_path))
        runner.clear_cache()
        summary = sweep([SweepPoint("sgemm-uc", "io", scale=SCALE)])
        text = summary.render(per_point=True)
        assert "1 points" in text and "sgemm-uc/io" in text

    def test_baseline_point_picks_serial_binary(self):
        pt = baseline_point("qsort-uc", "io+x", SCALE, 0)
        assert pt.config == "io"
        assert pt.binary in ("serial", "gp")

    def test_ad_hoc_config_points(self, tmp_path):
        from repro.eval.configs import ADAPTIVE, PRIMARY_LPSU
        from repro.uarch import IO, SystemConfig
        cfg = SystemConfig("adhoc", IO, lpsu=PRIMARY_LPSU,
                           adaptive=ADAPTIVE)
        diskcache.configure(cache_dir=str(tmp_path))
        runner.clear_cache()
        summary = sweep([SweepPoint("sgemm-uc", cfg,
                                    mode="specialized", scale=SCALE)])
        assert summary.points == 1
        r = runner.run("sgemm-uc", cfg, mode="specialized", scale=SCALE)
        assert r.config == "adhoc" and r.cycles > 0


class TestRunnerForwarding:
    def test_energy_efficiency_forwards_run_kwargs(self):
        # xi changes the executed binary, so the efficiency must move
        with_xi = runner.energy_efficiency(
            "rgb2cmyk-uc", "io+x", "specialized", scale=SCALE,
            xi_enabled=True)
        without = runner.energy_efficiency(
            "rgb2cmyk-uc", "io+x", "specialized", scale=SCALE,
            xi_enabled=False)
        assert with_xi > 0 and without > 0
        assert with_xi != without


class TestVerifiedRunsBypassCache:
    """runner.run(verify=True) must always simulate: a verified run is
    never served from the memo or the disk cache, and never writes
    either -- otherwise a cached unverified result would mask an
    InvariantViolation, or a verified result would shadow the normal
    key space."""

    POINT = dict(kernel_name="sgemm-uc", config_name="io+x",
                 mode="specialized", scale=SCALE)

    def test_never_served_and_never_stored(self, tmp_path):
        diskcache.configure(cache_dir=str(tmp_path))
        runner.clear_cache()
        n0 = runner.simulations

        r1 = runner.run(verify=True, **self.POINT)
        assert runner.simulations == n0 + 1

        # the verified run left no memo/disk record: a normal run must
        # simulate from scratch ...
        r2 = runner.run(**self.POINT)
        assert runner.simulations == n0 + 2

        # ... and is now cached (memo hit),
        r3 = runner.run(**self.POINT)
        assert runner.simulations == n0 + 2

        # while verify=True keeps re-simulating despite the warm cache
        r4 = runner.run(verify=True, **self.POINT)
        assert runner.simulations == n0 + 3

        # every path reports the same bit-identical record
        assert asdict(r1) == asdict(r2) == asdict(r3) \
            == asdict(r4)

    def test_verified_run_skips_disk_cache_reads(self, tmp_path):
        diskcache.configure(cache_dir=str(tmp_path))
        runner.clear_cache()
        runner.run(**self.POINT)          # populates the disk cache
        runner.clear_cache(keep_disk=True)
        n = runner.simulations
        runner.run(verify=True, **self.POINT)
        assert runner.simulations == n + 1  # disk record not served
