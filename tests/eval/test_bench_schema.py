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
    assert baseline["schema"] == 9
    for section in ("patterns", "long_kernels", "table2", "service",
                    "hostref"):
        assert section in baseline
    assert "distributed" not in baseline


def test_host_reference(baseline):
    """The sections the nightly smoke re-measures carry the host-speed
    reference they were measured at, so ``--check`` can compare them
    in nominal seconds."""
    refs = baseline["hostref"]
    assert {"long_kernels", "service"} <= set(refs)
    assert set(refs) <= {"patterns", "long_kernels", "table2", "service"}
    assert all(0 < ref < 1 for ref in refs.values())


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


def _bench_speed():
    sys.path.insert(0, os.path.join(_ROOT, "benchmarks"))
    try:
        import bench_speed
    finally:
        sys.path.pop(0)
    return bench_speed


def test_check_mode_flags_regressions():
    bench_speed = _bench_speed()
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


def test_check_compares_nominal_seconds_when_both_sides_have_a_reference():
    """A host half as fast doubles every time and halves the serving
    rate: with the reference on both sides the check sees the same
    code and passes; with it on one side only it compares raw seconds
    and flags both, naming the basis."""
    bench_speed = _bench_speed()
    nominal = bench_speed.hostref.NOMINAL_S
    base = {"long_kernels": {"k": {"cold_fast_seconds": 1.0}},
            "service": {"points": 28, "warm_points_per_sec": 1000.0},
            "hostref": {"long_kernels": nominal,
                        "service": nominal}}
    slow_host = {"patterns": {},
                 "long_kernels": {"k": {"mode": "traditional",
                                        "speedup": 3.0,
                                        "cold_fast_seconds": 2.0}},
                 "service": {"points": 28, "warm_served_fraction": 1.0,
                             "warm_simulator_invocations": 0,
                             "warm_points_per_sec": 400.0},
                 "hostref": {"long_kernels": 2 * nominal,
                             "service": 2 * nominal}}
    assert bench_speed._check(slow_host, base) == []

    unreferenced = dict(slow_host, hostref={})
    problems = bench_speed._check(unreferenced, base)
    assert len(problems) == 2
    assert all("raw seconds" in p for p in problems)

    slower_code = dict(slow_host, long_kernels={"k": dict(
        slow_host["long_kernels"]["k"], cold_fast_seconds=2.6)})
    [problem] = bench_speed._check(slower_code, base)
    assert problem.startswith("long_kernels/k: cold 1.300s vs baseline "
                              "1.000s (+30%, nominal seconds)")
