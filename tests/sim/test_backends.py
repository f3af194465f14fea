"""Backend selection and the rung-free cache keys.

The ladder is ``interp`` -> ``fused``: ``auto`` means ``fused``, the
retired rung names are unknown backends, and ``verify=True`` always
runs on ``interp``.  The cache-key tests pin the other half of the
contract: one cached record serves every rung, while a verified run is
never served from (or stored to) the result caches.
"""

import pytest

from repro.eval import diskcache, runner
from repro.kernels import get_kernel
from repro.lang import compile_source
from repro.sim.backends import resolve_backend
from repro.uarch import IO, LPSUConfig, SystemConfig
from repro.uarch.system import SystemSimulator


def _config():
    return SystemConfig("t", IO, LPSUConfig())


class TestBackendSelection:
    def test_verify_forces_interp(self):
        spec = get_kernel("sgemm-uc")
        program = compile_source(spec.source).program
        sim = SystemSimulator(program, _config(), verify=True,
                              backend="fused")
        assert sim.backend == "interp"
        assert not sim.fast

    def test_auto_is_fused(self):
        assert resolve_backend("auto").name == "fused"
        assert resolve_backend(None).name == "fused"
        assert resolve_backend("fused").fast
        assert not resolve_backend("interp").fast

    @pytest.mark.parametrize("name", ("turbo", "vector"))
    def test_retired_rung_is_an_unknown_backend(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(name)


@pytest.fixture
def own_disk_cache(tmp_path, monkeypatch):
    """An empty disk cache of this test's own, forced on even under
    the hermetic-CI ``REPRO_NO_CACHE=1`` environment."""
    monkeypatch.delenv(diskcache.ENV_NO_CACHE, raising=False)
    monkeypatch.setattr(diskcache, "_force_disabled", False)
    monkeypatch.setattr(diskcache, "_dir_override", str(tmp_path))
    monkeypatch.setenv(diskcache.ENV_CACHE_DIR, str(tmp_path))
    runner.clear_cache()   # also drops the decoded-record hot tier
    yield
    runner.clear_cache(keep_disk=True)


class TestCacheKeys:
    def test_one_record_serves_every_rung(self, own_disk_cache):
        # the rungs are bit-identical (verify --ladder), so neither key
        # names the rung: one simulation and one record serve them all
        point = dict(mode="specialized", scale="tiny")
        before = runner.simulations
        first = runner.run("vvadd-uc", "io+x", backend="fused", **point)
        assert runner.simulations == before + 1
        runner.clear_cache(keep_disk=True)
        for backend in ("interp", "auto"):
            r = runner.run("vvadd-uc", "io+x", backend=backend, **point)
            assert r.cycles == first.cycles
        assert runner.simulations == before + 1
        assert diskcache.disk_stats()["records"] == 1

    def test_memo_serves_every_rung(self):
        # the in-process memo key omits the rung too: with the disk
        # cache bypassed, the memo alone serves the other rungs
        runner.clear_cache(keep_disk=True)
        point = dict(mode="specialized", scale="tiny",
                     use_disk_cache=False)
        before = runner.simulations
        first = runner.run("vvadd-uc", "io+x", backend="fused", **point)
        assert runner.simulations == before + 1
        for backend in ("interp", "auto"):
            r = runner.run("vvadd-uc", "io+x", backend=backend, **point)
            assert r is first
        assert runner.simulations == before + 1
        runner.clear_cache(keep_disk=True)

    def test_verified_run_never_served_from_cache(self):
        runner.clear_cache(keep_disk=True)
        before = runner.simulations
        common = dict(mode="specialized", scale="tiny",
                      use_disk_cache=False)
        runner.run("vvadd-uc", "io+x", **common)
        assert runner.simulations == before + 1
        # a verified run must re-simulate (on interp) even though an
        # unverified result for the same point is already memoized...
        r = runner.run("vvadd-uc", "io+x", verify=True, **common)
        assert runner.simulations == before + 2
        assert r.cycles > 0
        # ...and must not have poisoned the cache for later requests
        runner.run("vvadd-uc", "io+x", verify=True, **common)
        assert runner.simulations == before + 3
        runner.clear_cache(keep_disk=True)
