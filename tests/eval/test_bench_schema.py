"""The committed BENCH_speed.json baseline must keep its schema: the
nightly CI smoke job and downstream dashboards parse it by key."""

import json
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_BASELINE = os.path.join(_ROOT, "BENCH_speed.json")

_POINT_KEYS = {"cold_fast_seconds", "cold_slow_seconds", "speedup"}


@pytest.fixture(scope="module")
def baseline():
    if not os.path.exists(_BASELINE):
        pytest.skip("no committed BENCH_speed.json (source tree only)")
    with open(_BASELINE) as f:
        return json.load(f)


def test_toplevel_schema(baseline):
    assert baseline["schema"] == 7
    for section in ("patterns", "long_kernels", "table2", "service",
                    "distributed"):
        assert section in baseline


def test_pattern_points(baseline):
    patterns = baseline["patterns"]
    assert set(patterns) == {"uc", "or", "om", "ua", "db"}
    for entry in patterns.values():
        assert _POINT_KEYS | {"kernel", "warm_seconds"} <= set(entry)
        assert entry["cold_fast_seconds"] > 0
        assert entry["cold_slow_seconds"] > 0


def test_long_kernel_points(baseline):
    longs = baseline["long_kernels"]
    assert len(longs) >= 2
    for entry in longs.values():
        assert _POINT_KEYS <= set(entry)
    # the fast-path acceptance bar: >=3x cold on >=2 long kernels
    assert sum(1 for e in longs.values() if e["speedup"] >= 3.0) >= 2


def test_table2_warm_is_cache_served(baseline):
    t2 = baseline["table2"]
    assert t2["warm_simulator_invocations"] == 0
    assert t2["warm_seconds"] < t2["cold_seconds"]


def test_service_section(baseline):
    svc = baseline["service"]
    keys = {"kernels", "points", "jobs", "cold_seconds",
            "cold_simulated", "warm_seconds", "warm_points_per_sec",
            "warm_served_fraction", "warm_simulator_invocations"}
    assert keys <= set(svc)
    # the serving contract: a warm resubmission through the server is
    # entirely cache-served and never touches the simulator
    assert svc["warm_served_fraction"] >= 0.95
    assert svc["warm_simulator_invocations"] == 0
    assert svc["cold_simulated"] > 0          # the cold pass did work
    assert svc["warm_points_per_sec"] > 0


def test_distributed_section(baseline):
    dist = baseline["distributed"]
    keys = {"kernels", "points", "host_cpus", "workers_1", "workers_4",
            "scaling_4_over_1", "warm_seconds", "warm_points_per_sec",
            "warm_served_fraction", "warm_simulator_invocations",
            "warm_enqueued"}
    assert keys <= set(dist)
    for pool in (dist["workers_1"], dist["workers_4"]):
        assert pool["cold_seconds"] > 0
        assert pool["cold_simulated"] > 0     # workers did the sims
    # the distributed warm contract: served at the front door, never
    # enqueued, never simulated
    assert dist["warm_served_fraction"] >= 0.95
    assert dist["warm_simulator_invocations"] == 0
    assert dist["warm_enqueued"] == 0
    # the scaling bar only binds where the host can run all four
    # workers at once (simulations are CPU-bound); elsewhere the ratio
    # is recorded as unmeasured, with the reason
    if dist["host_cpus"] >= 4:
        assert dist["scaling_4_over_1"] >= 1.3
    else:
        assert dist["scaling_4_over_1"] is None
        assert dist["scaling_unmeasured"]


def test_check_mode_flags_regressions():
    sys.path.insert(0, os.path.join(_ROOT, "benchmarks"))
    try:
        import bench_speed
    finally:
        sys.path.pop(0)
    base = {"patterns": {"uc": {"cold_fast_seconds": 1.0}},
            "long_kernels": {}, "table2": {"cold_seconds": 10.0}}
    ok = {"patterns": {"uc": {"kernel": "sgemm-uc",
                              "cold_fast_seconds": 1.2}},
          "long_kernels": {}, "table2": {"cold_seconds": 11.0}}
    bad = {"patterns": {"uc": {"kernel": "sgemm-uc",
                               "cold_fast_seconds": 1.3}},
           "long_kernels": {}, "table2": {"cold_seconds": 14.0}}
    assert bench_speed._check(ok, base) == []
    problems = bench_speed._check(bad, base)
    assert len(problems) == 2
    # points absent from the baseline never fail the gate
    extra = {"patterns": {"new": {"kernel": "x",
                                  "cold_fast_seconds": 99.0}},
             "long_kernels": {}, "table2": {"cold_seconds": 10.0}}
    assert bench_speed._check(extra, base) == []
    # the service gates: served-fraction floor and zero-simulation
    # contract hold with no baseline entry; the rate gate needs one
    svc_ok = {"patterns": {}, "long_kernels": {},
              "service": {"points": 28, "warm_served_fraction": 1.0,
                          "warm_simulator_invocations": 0,
                          "warm_points_per_sec": 900.0}}
    svc_base = {"service": {"points": 28,
                            "warm_points_per_sec": 1000.0}}
    assert bench_speed._check(svc_ok, svc_base) == []
    svc_bad = {"patterns": {}, "long_kernels": {},
               "service": {"points": 28, "warm_served_fraction": 0.5,
                           "warm_simulator_invocations": 3,
                           "warm_points_per_sec": 100.0}}
    problems = bench_speed._check(svc_bad, svc_base)
    assert len(problems) == 3
    assert any("cache-served" in p for p in problems)
    assert any("invoked the simulator" in p for p in problems)
    assert any("serving rate" in p for p in problems)
    # the distributed gates: warm contract always binds, the scaling
    # floor wherever the ratio was measured
    dist_ok = {"patterns": {}, "long_kernels": {},
               "distributed": {"points": 28, "host_cpus": 1,
                               "scaling_4_over_1": None,
                               "scaling_unmeasured": "1 CPU",
                               "warm_served_fraction": 1.0,
                               "warm_simulator_invocations": 0,
                               "warm_enqueued": 0,
                               "warm_points_per_sec": 900.0}}
    assert bench_speed._check(dist_ok, {}) == []
    dist_bad = {"patterns": {}, "long_kernels": {},
                "distributed": {"points": 28, "host_cpus": 8,
                                "scaling_4_over_1": 0.9,
                                "warm_served_fraction": 0.5,
                                "warm_simulator_invocations": 2,
                                "warm_enqueued": 3,
                                "warm_points_per_sec": 900.0}}
    problems = bench_speed._check(dist_bad, {})
    assert len(problems) == 4
    assert any("4-worker pool" in p for p in problems)
    assert any("enqueued" in p for p in problems)
