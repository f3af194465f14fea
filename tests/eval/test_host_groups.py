"""Host groups: one pass times a Table II column's GPPs.

Points that differ only in their GPP host (``io``, ``ooo/2``, ``ooo/4``,
with or without the shared LPSU) see one functional instruction stream
and one LPSU phase per xloop, so both executors time them in one
:func:`runner.run_group` pass: the serial one in-process, the worker
path as one task per group.  These tests pin that a grouped record
is the single-host record, that every path records and counts each
point once, and that adaptive, verified and failing runs take one host.
"""

import contextlib
import dataclasses
import os

import pytest

from repro.eval import diskcache, hardening, runner
from repro.eval.configs import config
from repro.eval.parallel import SweepPoint, sweep, table2_points
from repro.kernels import TABLE2_KERNELS, get_kernel
from repro.lang import compile_source
from repro.resilience.watchdog import DeadlineExceeded
from repro.uarch import SystemSimulator

SCALE = "tiny"
GPPS = ("io", "ooo/2", "ooo/4")
KERNELS = ["vvadd-uc", "saxpy-uc"]


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    saved = (diskcache._dir_override, diskcache._force_disabled)
    # these tests count disk records: force the cache on even under
    # the hermetic-CI REPRO_NO_CACHE=1 environment
    monkeypatch.delenv(diskcache.ENV_NO_CACHE, raising=False)
    monkeypatch.delenv(diskcache.ENV_CACHE_DIR, raising=False)
    diskcache._force_disabled = False
    diskcache.configure(cache_dir=str(tmp_path / "cache"))
    runner.clear_cache()
    runner.drain_incidents()
    yield
    diskcache._dir_override, diskcache._force_disabled = saved
    diskcache.reset_stats()
    runner.clear_cache(keep_disk=True)
    runner.drain_incidents()


def _column(kernel):
    """A kernel's grouped Table II columns: ``(mode, binary, configs)``
    for its baseline, traditional and specialized points."""
    spec = get_kernel(kernel)
    baseline = "serial" if spec.serial_source else "gp"
    return [("traditional", baseline, GPPS),
            ("traditional", "xloops", GPPS),
            ("specialized", "xloops", tuple(g + "+x" for g in GPPS))]


def _records(points):
    return {pt: dataclasses.asdict(runner.cached_result(
        pt.kernel, pt.config, **pt.run_kwargs())) for pt in points}


def _group_calls(monkeypatch, path):
    """From now on, log ``mode``, the configs and the pid of every
    :func:`runner.run_group` pass to *path*, made here or in a worker
    forked from here (workers inherit the spy); returns a reader of
    ``[(mode, configs, pid)]`` in completion order."""
    real = runner.run_group

    def spy(kernel, configs, *args, **kwargs):
        mode = args[0] if args else kwargs.get("mode", "traditional")
        results = real(kernel, configs, *args, **kwargs)
        with open(path, "a") as fh:
            fh.write("%s %s %d\n" % (mode, ",".join(configs), os.getpid()))
        return results

    monkeypatch.setattr(runner, "run_group", spy)

    def read():
        if not path.exists():
            return []
        return [(mode, tuple(configs.split(",")), int(pid))
                for mode, configs, pid in
                (line.split() for line in path.read_text().splitlines())]
    return read


def test_grouped_records_equal_single_host_records():
    """Every Table II kernel's GP, traditional and specialized
    records are the same timed in one pass or one host at a time."""
    for kernel in (k.name for k in TABLE2_KERNELS):
        for mode, binary, configs in _column(kernel):
            grouped = runner.run_group(kernel, configs, mode=mode,
                                       binary=binary, scale=SCALE,
                                       use_disk_cache=False)
            runner.clear_cache(keep_disk=True)
            for cfg, rec in zip(configs, grouped):
                single = runner.run(kernel, cfg, mode=mode, binary=binary,
                                    scale=SCALE, use_disk_cache=False)
                assert dataclasses.asdict(rec) == \
                    dataclasses.asdict(single), (kernel, cfg, mode, binary)
            runner.clear_cache(keep_disk=True)


def test_serial_and_parallel_sweeps_record_and_count_alike(tmp_path,
                                                          monkeypatch):
    """The serial path and the worker path both time each host group
    in one pass, give equal records, and simulate, count and store
    each point once; on the worker path every pass runs in a worker,
    host groups included."""
    points = table2_points(KERNELS, SCALE, 0)
    unique = len(set(points))
    sides = {}
    for jobs in (1, 2):
        diskcache.configure(cache_dir=str(tmp_path / ("jobs%d" % jobs)))
        runner.clear_cache(keep_disk=True)
        before = runner.simulations
        calls = _group_calls(monkeypatch, tmp_path / ("calls%d" % jobs))
        summary = sweep(points, jobs=jobs)
        assert summary.ok and summary.points == unique
        assert summary.misses == unique
        assert diskcache.disk_stats()["records"] == unique
        passes = calls()
        # every point was timed in exactly one pass
        assert sum(len(cfgs) for _mode, cfgs, _pid in passes) == unique
        # two kernels x (baseline, traditional, specialized) columns
        assert sum(len(cfgs) == 3 for _mode, cfgs, _pid in passes) == 6
        sides[jobs] = _records(points), summary.misses, passes
        if jobs == 1:
            # the parent simulated every point itself, once
            assert runner.simulations - before == unique
        else:
            # the parent simulated nothing; its workers ran every pass
            assert runner.simulations == before
            pids = {pid for _mode, _cfgs, pid in passes}
            assert os.getpid() not in pids and 1 <= len(pids) <= 2
    assert sides[1][0] == sides[2][0]
    assert sides[1][1] == sides[2][1]


def test_a_disk_hit_is_served_not_regrouped(tmp_path, monkeypatch):
    """A point already on disk is served from it; only the other
    hosts of its group simulate, in one pass."""
    _sweep_a_partly_cached_group(tmp_path, monkeypatch, jobs=1)


def test_a_partly_cached_group_task_simulates_only_its_misses(
        tmp_path, monkeypatch):
    """A worker's group task serves its disk hit as the serial path
    does and times only the other hosts, in one pass, in the
    worker."""
    _sweep_a_partly_cached_group(tmp_path, monkeypatch, jobs=2)


def _sweep_a_partly_cached_group(tmp_path, monkeypatch, jobs):
    on_disk = SweepPoint("vvadd-uc", "ooo/2", scale=SCALE)
    runner.run(on_disk.kernel, on_disk.config, **on_disk.run_kwargs())
    runner.clear_cache(keep_disk=True)
    points = [SweepPoint("vvadd-uc", g, scale=SCALE) for g in GPPS]
    before = runner.simulations
    calls = _group_calls(monkeypatch, tmp_path / "calls")
    summary = sweep(points, jobs=jobs)
    assert runner.simulations - before == (2 if jobs == 1 else 0)
    [(mode, cfgs, pid)] = calls()
    assert (mode, cfgs) == ("traditional", ("io", "ooo/4"))
    assert (pid == os.getpid()) == (jobs == 1)
    simulated = {o.point: o.simulated for o in summary.outcomes}
    assert simulated == {points[0]: True, on_disk: False, points[2]: True}
    assert diskcache.disk_stats()["records"] == 3


def test_a_grouped_sweep_equals_its_points_run_in_order(tmp_path):
    """A group's hits are served when the group is reached, as its
    points would be one by one.  ``ksack-lg-om`` shares
    ``ksack-sm-om``'s source, and the disk key covers the source, so
    what an earlier point stores can serve a later one."""
    points = list(dict.fromkeys(
        table2_points(["ksack-sm-om", "ksack-lg-om"], SCALE, 0)))
    for pt in points:
        runner.run(pt.kernel, pt.config, **pt.run_kwargs())
    reference = _records(points)

    diskcache.configure(cache_dir=str(tmp_path / "grouped"))
    runner.clear_cache(keep_disk=True)
    summary = sweep(points, jobs=1)
    assert summary.ok
    assert _records(points) == reference


def test_a_failed_group_falls_back_to_its_points(monkeypatch):
    """A group whose pass raises runs again point by point, with
    an incident recorded, and yields the same records."""
    points = table2_points(KERNELS, SCALE, 0)
    sweep(points, jobs=1)
    reference = _records(points)
    runner.clear_cache()

    real = runner.run_group

    def broken(kernel, configs, *args, **kwargs):
        if len(configs) > 1:
            raise RuntimeError("group pass exploded")
        return real(kernel, configs, *args, **kwargs)

    monkeypatch.setattr(runner, "run_group", broken)
    before = runner.simulations
    summary = sweep(points, jobs=1)
    assert summary.ok and summary.misses == len(reference)
    assert runner.simulations - before == len(reference)
    fallbacks = [i for i in summary.incidents if i.kind == "group-to-points"]
    # two kernels x (baseline, traditional, specialized) columns
    assert len(fallbacks) == 6
    assert all("group pass exploded" in i.detail for i in fallbacks)
    assert _records(points) == reference


def test_adaptive_and_verified_runs_take_one_host(tmp_path, monkeypatch):
    """The executor never groups adaptive points, and a verified,
    adaptive or cycle-bounded run refuses more than one host."""
    points = table2_points(KERNELS, SCALE, 0)
    calls = _group_calls(monkeypatch, tmp_path / "calls")
    sweep(points, jobs=1)
    adaptive = [cfgs for mode, cfgs, _pid in calls() if mode == "adaptive"]
    assert len(adaptive) == 6 and all(len(c) == 1 for c in adaptive)
    assert any(len(cfgs) == 3 for _mode, cfgs, _pid in calls())

    hosts = ["io+x", "ooo/4+x"]
    for kwargs in (dict(verify=True), dict(mode="adaptive"),
                   dict(max_cycles=10 ** 9)):
        kwargs.setdefault("mode", "specialized")
        with pytest.raises(ValueError, match="one host"):
            runner.run_group("vvadd-uc", hosts, scale=SCALE, **kwargs)
    program = compile_source(get_kernel("vvadd-uc").source).program
    with pytest.raises(ValueError, match="GPP core"):
        SystemSimulator(program, [config("ooo/4+x"), config("ooo/4+x8")])


def test_an_interrupted_serial_sweep_resumes_from_the_disk_cache(
        tmp_path, monkeypatch):
    """A serial sweep interrupted after some of its host groups and
    points resumes from the disk cache alone: run again with a cold
    memo, it simulates exactly the points that had not finished and
    records what an uninterrupted sweep records."""
    points = table2_points(KERNELS, SCALE, 0)
    unique = list(dict.fromkeys(points))
    assert sweep(points, jobs=1).ok
    reference = _records(unique)

    diskcache.configure(cache_dir=str(tmp_path / "resumed"))
    runner.clear_cache(keep_disk=True)
    real = runner.run_group
    before = runner.simulations

    def interrupted(*args, **kwargs):
        # every simulation, grouped or not, starts here: stop the
        # sweep at the first one after the first kernel's three host
        # groups and one adaptive point
        if runner.simulations - before >= 10:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "run_group", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sweep(points, jobs=1)
    finished = [pt for pt in unique
                if runner._RESULTS.get(pt.memo_key()) is not None]
    assert len(finished) == 10
    assert diskcache.disk_stats()["records"] == 10

    monkeypatch.setattr(runner, "run_group", real)
    runner.clear_cache(keep_disk=True)   # as a fresh process would
    before = runner.simulations
    calls = _group_calls(monkeypatch, tmp_path / "calls")
    resumed = sweep(points, jobs=1)
    assert resumed.ok and resumed.points == len(unique)
    assert {o.point for o in resumed.outcomes if o.simulated} == \
        set(unique) - set(finished)
    assert runner.simulations - before == len(unique) - 10
    assert any(len(cfgs) == 3 for _mode, cfgs, _pid in calls())
    assert _records(unique) == reference


def test_a_group_runs_under_its_points_summed_deadline(monkeypatch):
    """Under ``--timeout`` a group gets its points' summed budget;
    one that overruns is re-run point by point, each under its own."""
    budgets = []

    @contextlib.contextmanager
    def fake_deadline(seconds):
        budgets.append(seconds)
        if seconds > 5:
            raise DeadlineExceeded("group overran")
        yield

    monkeypatch.setattr(hardening, "deadline", fake_deadline)
    points = [SweepPoint("vvadd-uc", g, scale=SCALE) for g in GPPS]
    before = runner.simulations
    summary = sweep(points, jobs=1, timeout=5)
    assert budgets == [15, 5, 5, 5]
    assert summary.ok and summary.misses == 3
    assert runner.simulations - before == 3
    assert [i.kind for i in summary.incidents] == ["group-to-points"]
    assert "DeadlineExceeded" in summary.incidents[0].detail


def test_an_unknown_kernel_or_platform_is_quarantined_not_raised():
    """A point the grouping cannot key fails in its own run, through
    the retry ladder, beside points that group as usual."""
    good = [SweepPoint("vvadd-uc", g, scale=SCALE) for g in GPPS]
    bad = [SweepPoint("no-such-kernel", g, scale=SCALE) for g in GPPS[:2]]
    bad.append(SweepPoint("vvadd-uc", "no-such-gpp", scale=SCALE))
    summary = sweep(bad + good, jobs=1, retries=1)
    assert sorted(f.label for f in summary.failures) == \
        sorted(pt.label() for pt in bad)
    assert summary.points == summary.misses == len(good)
