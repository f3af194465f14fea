"""One point set, two paths, the same answer.

The tiny Table II points of four kernels run two ways, each into a
fresh cache: a direct parallel sweep, and a sweep server whose misses
simulate under chaos (one point's first attempt crashes its
worker).  Both paths must return records equal to the direct path's,
simulate each unique point exactly once, and leave exactly one
disk-cache record per unique point.

``ksack-lg-om`` is left out: the result key covers a kernel's source
but not its name or dataset, so it shares ``ksack-sm-om``'s disk
record and "one record per unique point" fails on every path.  It
joins this set once the key names the kernel.
"""

import contextlib
import dataclasses
import json

import pytest

from repro.eval import diskcache, hardening, runner
from repro.eval.parallel import SweepPoint, sweep, table2_points
from repro.serve import ServeClient, ServerThread

KERNELS = ["vvadd-uc", "saxpy-uc", "dither-or", "ksack-sm-om"]
POINTS = table2_points(KERNELS, scale="tiny")
UNIQUE = list(dict.fromkeys(POINTS))

#: the first attempt crashes its worker before it simulates; the retry
#: in a fresh worker is the point's only simulation
CHAOS = {SweepPoint("vvadd-uc", "io", scale="tiny").label():
         {"crash": [0]}}


@contextlib.contextmanager
def _fresh_cache(path):
    """An empty memo, an enabled disk cache at *path* and no chaos;
    the process's settings are restored after."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(hardening.CHAOS_ENV, raising=False)
        mp.delenv(diskcache.ENV_NO_CACHE, raising=False)
        mp.setenv(diskcache.ENV_CACHE_DIR, str(path))
        mp.setattr(diskcache, "_dir_override", str(path))
        mp.setattr(diskcache, "_force_disabled", False)
        runner.clear_cache()
        try:
            yield mp
        finally:
            runner.clear_cache()


def _outcome(summary, path):
    """What a path produced: its records as plain data, its
    simulations and its disk records."""
    assert summary.ok, (path, summary.render())
    records = {pt.label(): dataclasses.asdict(runner._RESULTS[pt.memo_key()])
               for pt in UNIQUE}
    return {"records": records, "simulated": summary.misses,
            "disk_records": diskcache.disk_stats()["records"]}


def _run(path, mp):
    if path == "direct":
        return sweep(POINTS, jobs=2)
    mp.setenv(hardening.CHAOS_ENV, json.dumps(CHAOS))
    with ServerThread(jobs=2) as st:
        with ServeClient(st.address) as client:
            summary = client.submit(POINTS)
            assert summary.points == len(POINTS)  # every copy answered
            counters = client.stats()["counters"]
    assert counters["simulated"] == len(UNIQUE)
    assert counters["retried"] >= 1               # the crash fired
    return summary


@pytest.fixture(scope="module")
def direct(tmp_path_factory):
    """The direct path's outcome: the reference for the server's."""
    with _fresh_cache(tmp_path_factory.mktemp("direct")) as mp:
        return _outcome(_run("direct", mp), "direct")


@pytest.mark.parametrize("path", ["direct", "server"])
def test_two_paths_agree(path, direct, tmp_path):
    if path == "direct":
        got = direct
    else:
        with _fresh_cache(tmp_path / "cache") as mp:
            got = _outcome(_run(path, mp), path)
    assert got["records"] == direct["records"]
    assert got["simulated"] == len(UNIQUE)
    assert got["disk_records"] == len(UNIQUE)
