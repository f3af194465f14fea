"""Hardened sweep execution: crash/hang isolation, retry with
backoff, quarantine, serial degradation, checkpoint/resume, and the
runner's fallback to the interp reference rung.

Chaos (deterministic worker sabotage via ``$REPRO_CHAOS``) only acts
inside forked worker children, so every recovery path here exercises
the real machinery: real dead processes, real kills, real retries.
"""

import collections
import dataclasses
import json
import multiprocessing
import os
import pickle
import signal
import socket
import threading
import time

import pytest

from repro.eval import diskcache, hardening, runner
from repro.eval.parallel import SweepPoint, sweep
from repro.resilience.journal import Journal, qkey_of
from repro.sim import fusion

SCALE = "tiny"

POINTS = [
    SweepPoint("sgemm-uc", "io", scale=SCALE),
    SweepPoint("sgemm-uc", "io+x", mode="specialized", scale=SCALE),
    SweepPoint("dither-or", "io", scale=SCALE),
    SweepPoint("dither-or", "io+x", mode="specialized", scale=SCALE),
]


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    saved = (diskcache._dir_override, diskcache._force_disabled,
             os.environ.get(diskcache.ENV_CACHE_DIR),
             os.environ.get(diskcache.ENV_NO_CACHE))
    # these tests exercise the disk cache and chaos machinery: force
    # the cache on even under the hermetic-CI REPRO_NO_CACHE=1 env
    monkeypatch.delenv(diskcache.ENV_NO_CACHE, raising=False)
    diskcache._force_disabled = False
    diskcache.configure(cache_dir=str(tmp_path / "cache"))
    runner.clear_cache()
    runner.drain_incidents()
    monkeypatch.delenv(hardening.CHAOS_ENV, raising=False)
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
    runner.drain_incidents()


def _reference():
    """Clean serial results for POINTS, as plain data."""
    ref = {}
    for pt in POINTS:
        r = runner.run(pt.kernel, pt.config, use_disk_cache=False,
                       **pt.run_kwargs())
        ref[pt.memo_key()] = dataclasses.asdict(r)
    runner.clear_cache(keep_disk=True)
    return ref


def _assert_matches(ref):
    for pt in POINTS:
        r = runner.run(pt.kernel, pt.config, **pt.run_kwargs())
        assert dataclasses.asdict(r) == ref[pt.memo_key()], pt.label()


def _log_runs(monkeypatch, path):
    """From now on, log the label and pid of every ``runner.run`` call
    to *path*, made here or in a worker forked from here (workers
    inherit the wrapper); returns a reader of ``[(label, pid)]`` in
    completion order."""
    real_run = runner.run

    def logged(kernel, config, **kwargs):
        result = real_run(kernel, config, **kwargs)
        with open(path, "a") as fh:
            fh.write("%s/%s/%s/%s/%s %d\n" % (
                kernel, config, kwargs["mode"], kwargs["binary"],
                kwargs["scale"], os.getpid()))
        return result

    monkeypatch.setattr(runner, "run", logged)

    def read():
        if not path.exists():
            return []
        return [(label, int(pid)) for label, pid in
                (line.split() for line in path.read_text().splitlines())]
    return read


class _SpawnCounter:
    """The real multiprocessing context, counting worker spawns and
    raising ``OSError`` for every spawn from *fail_from* on."""

    def __init__(self):
        self.real = hardening._mp_context()
        self.fail_from = None
        self.spawned = 0

    def Pipe(self, duplex=True):
        return self.real.Pipe(duplex)

    def Process(self, *args, **kwargs):
        if self.fail_from is not None and self.spawned >= self.fail_from:
            raise OSError("process table full")
        self.spawned += 1
        return self.real.Process(*args, **kwargs)


def _exited(pid):
    """True once *pid* has exited (gone, or a zombie nobody reaped)."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.fixture
def spawns(monkeypatch):
    counter = _SpawnCounter()
    monkeypatch.setattr(hardening, "_mp_context", lambda: counter)
    return counter


class TestChaosRecovery:
    def test_worker_crash_is_retried(self, monkeypatch):
        ref = _reference()
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {"sgemm-uc/io/traditional": {"crash": [0]}}))
        summary = sweep(POINTS, jobs=2, retries=3, backoff=0.01)
        assert summary.ok
        assert any(ev.kind == "crash" for ev in summary.retries)
        _assert_matches(ref)

    def test_worker_hang_is_killed_and_retried(self, monkeypatch):
        ref = _reference()
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {"dither-or/io+x/specialized": {"hang": [0]}}))
        summary = sweep(POINTS, jobs=2, timeout=3.0, retries=3,
                        backoff=0.01)
        assert summary.ok
        assert any(ev.kind == "hang" for ev in summary.retries)
        _assert_matches(ref)

    def test_crash_and_hang_together_bit_identical(self, monkeypatch):
        """The acceptance scenario: one crashing worker, one hanging
        worker, and the sweep still completes with every healthy point
        bit-identical to the clean reference."""
        ref = _reference()
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps({
            "sgemm-uc/io/traditional": {"crash": [0]},
            "dither-or/io+x/specialized": {"hang": [0]}}))
        summary = sweep(POINTS, jobs=4, timeout=3.0, retries=3,
                        backoff=0.01)
        assert summary.ok
        assert summary.points == len(POINTS)
        kinds = sorted(ev.kind for ev in summary.retries)
        assert kinds == ["crash", "hang"]
        _assert_matches(ref)

    def test_interp_final_retry_serves_the_warm_resweep(self,
                                                        monkeypatch):
        """A point that only the final attempt (on the interp rung)
        saved is stored under the key every rung shares, so the next
        warm sweep serves it instead of simulating it again."""
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {"sgemm-uc/io/traditional": {"crash": [0, 1]}}))
        summary = sweep(POINTS, jobs=2, retries=3, backoff=0.01)
        assert summary.ok and len(summary.retries) == 2
        monkeypatch.delenv(hardening.CHAOS_ENV)
        runner.clear_cache(keep_disk=True)   # as a fresh process would
        warm = sweep(POINTS, jobs=2)
        assert warm.ok
        assert (warm.misses, warm.hits) == (0, len(POINTS))

    def test_unrecoverable_point_is_quarantined(self, monkeypatch):
        """A point that fails every attempt is quarantined with a
        structured record; the rest of the sweep still completes."""
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {"sgemm-uc/io/traditional": {"crash": [0, 1, 2]}}))
        summary = sweep(POINTS, jobs=2, retries=3, backoff=0.01)
        assert not summary.ok
        assert len(summary.failures) == 1
        failure = summary.failures[0]
        assert "sgemm-uc/io/traditional" in failure.label
        assert failure.attempts == 3
        assert failure.kind == "crash"
        assert summary.points == len(POINTS) - 1
        assert "QUARANTINED" in summary.render()
        assert not multiprocessing.active_children()


class TestPersistentWorkers:
    """A parallel sweep runs on at most ``jobs`` persistent workers; a
    failed attempt retires its worker and costs exactly one fresh
    fork."""

    def test_clean_sweep_reuses_workers(self, tmp_path, monkeypatch,
                                        spawns):
        ref = _reference()
        run_log = _log_runs(monkeypatch, tmp_path / "runs.log")
        summary = sweep(POINTS, jobs=2)
        assert summary.ok and not summary.retries
        runs = run_log()
        assert sorted(label for label, _ in runs) == \
            sorted(pt.label() for pt in POINTS)
        pids = {pid for _, pid in runs}
        assert len(pids) <= 2 and os.getpid() not in pids
        assert spawns.spawned <= 2
        assert not multiprocessing.active_children()
        _assert_matches(ref)

    @pytest.mark.parametrize("mode", ["crash", "hang"])
    def test_retry_runs_in_a_fresh_worker(self, tmp_path, monkeypatch,
                                          spawns, mode):
        """The last point dispatched fails once: its retry is the next
        dispatch, which forks the one extra worker."""
        ref = _reference()
        run_log = _log_runs(monkeypatch, tmp_path / "runs.log")
        last = POINTS[-1]
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {last.label(): {mode: [0]}}))
        summary = sweep(POINTS, jobs=2, timeout=3.0, retries=3,
                        backoff=0.01)
        assert summary.ok
        assert [ev.kind for ev in summary.retries] == [mode]
        assert spawns.spawned == 3
        pid_of = dict(run_log())
        assert len(pid_of) == len(POINTS)
        earlier = {pid for label, pid in pid_of.items()
                   if label != last.label()}
        assert pid_of[last.label()] not in earlier
        assert not multiprocessing.active_children()
        _assert_matches(ref)

    def test_hang_on_a_used_worker_is_killed(self, tmp_path, monkeypatch,
                                             spawns):
        """The third point of a two-worker sweep always lands on a
        worker that already served one; hung there, it is killed at
        the timeout and retried in a fresh worker."""
        ref = _reference()
        run_log = _log_runs(monkeypatch, tmp_path / "runs.log")
        third = POINTS[2]
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {third.label(): {"hang": [0]}}))
        summary = sweep(POINTS, jobs=2, timeout=2.0, retries=3,
                        backoff=0.01)
        assert summary.ok and summary.points == len(POINTS)
        [event] = summary.retries
        assert event.kind == "hang" and "after 2s" in event.error
        assert summary.wall_time >= 2.0
        assert spawns.spawned == 3
        pid_of = dict(run_log())
        assert pid_of[third.label()] not in {
            pid_of[pt.label()] for pt in POINTS[:2]}
        assert not multiprocessing.active_children()
        _assert_matches(ref)

    def test_second_spawn_failure_degrades_to_serial(self, tmp_path,
                                                     monkeypatch, spawns):
        """The first worker forks, the second cannot: the point in
        flight finishes in its worker, the rest run in-process, and
        every point runs exactly once."""
        ref = _reference()
        run_log = _log_runs(monkeypatch, tmp_path / "runs.log")
        spawns.fail_from = 1
        summary = sweep(POINTS, jobs=2)
        assert summary.ok and summary.degraded
        assert summary.points == len(POINTS)
        assert [inc.kind for inc in summary.incidents] == \
            ["parallel-to-serial"]
        runs = run_log()
        counts = collections.Counter(label for label, _ in runs)
        assert counts == collections.Counter(pt.label() for pt in POINTS)
        in_worker = [label for label, pid in runs if pid != os.getpid()]
        assert in_worker == [POINTS[0].label()]
        assert not multiprocessing.active_children()
        _assert_matches(ref)


    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="needs /proc to tell exited workers")
    def test_workers_exit_when_the_sweep_dies(self, tmp_path,
                                              monkeypatch):
        """Both workers get a point before the sweeping process dies
        at its first result.  Each closed the parent's pipe ends it
        inherited at fork, so both see EOF (or a broken pipe) and
        exit instead of waiting forever for their next point."""
        run_log = _log_runs(monkeypatch, tmp_path / "runs.log")
        pid = os.fork()
        if pid == 0:
            try:
                runner.seed_result = lambda key, result: os._exit(0)
                sweep(POINTS, jobs=2)
            finally:
                os._exit(1)
        os.waitpid(pid, 0)
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                workers = {worker for _, worker in run_log()}
                if len(workers) == 2 and all(map(_exited, workers)):
                    break
                time.sleep(0.05)
            assert len(workers) == 2 and all(map(_exited, workers))
        finally:
            for worker in {worker for _, worker in run_log()}:
                try:
                    os.kill(worker, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class TestSharedPool:
    """:func:`hardening.execute_one` on a caller's long-lived pool, as
    the sweep server and ``repro worker`` run it."""

    POLICY = hardening.HardeningPolicy(retries=3, backoff=0.01)

    def test_points_reuse_one_worker(self, spawns):
        with hardening.WorkerPool() as pool:
            for pt in POINTS:
                out = hardening.execute_one(pt, self.POLICY, pool)
                assert out.failure is None and out.simulated
            assert pool.spawned == spawns.spawned == 1
            assert pool.live == 1
        assert pool.live == 0
        assert not multiprocessing.active_children()

    def test_crash_retires_the_worker(self, tmp_path, monkeypatch,
                                      spawns):
        run_log = _log_runs(monkeypatch, tmp_path / "runs.log")
        first, crashing = POINTS[0], POINTS[1]
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {crashing.label(): {"crash": [0]}}))
        with hardening.WorkerPool() as pool:
            assert hardening.execute_one(first, self.POLICY,
                                         pool).failure is None
            out = hardening.execute_one(crashing, self.POLICY, pool)
            assert out.failure is None and out.retries == 1
            assert pool.spawned == 2 and pool.live == 1
        pid_of = dict(run_log())
        assert pid_of[crashing.label()] != pid_of[first.label()]
        assert not multiprocessing.active_children()

    def test_closing_the_pool_fails_the_point_in_flight(
            self, tmp_path, monkeypatch):
        """A pool closed under a busy worker kills it and fails its
        point at once: no retry, and no fallback to simulating in the
        pool owner's process."""
        hang = POINTS[0]
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {hang.label(): {"hang": [0]}}))
        started = tmp_path / "started"
        real = hardening._apply_chaos

        def announce(label, attempt):
            started.touch()
            real(label, attempt)

        monkeypatch.setattr(hardening, "_apply_chaos", announce)
        pool = hardening.WorkerPool()
        out = {}
        thread = threading.Thread(target=lambda: out.update(
            outcome=hardening.execute_one(hang, self.POLICY, pool)))
        thread.start()
        try:
            deadline = time.monotonic() + 10
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert started.exists()
        finally:
            before = runner.simulations
            pool.close()
            assert pool.live == 0
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not multiprocessing.active_children()
        failure = out["outcome"].failure
        assert failure.error == "worker pool closed"
        assert failure.attempts == 1 and out["outcome"].retries == 0
        assert runner.simulations == before
        with pytest.raises(hardening.PoolClosed):
            pool.acquire()

    def test_worker_gives_up_inherited_sockets(self):
        """A worker forked while the parent holds a connection keeps
        no copy of it: the peer sees EOF as soon as the parent closes
        its end."""
        ours, peer = socket.socketpair()
        try:
            with hardening.WorkerPool() as pool:
                worker = pool.acquire()
                worker.conn.send((POINTS[0], 0, None))
                assert worker.conn.recv()[0] == "ok"   # it has started
                ours.close()
                peer.settimeout(5)
                assert peer.recv(1) == b""
                pool.release(worker)
        finally:
            ours.close()
            peer.close()


class TestOneWarmKernel:
    """A worker keeps one kernel warm: its reset step drops the
    previous kernel's compiled binaries and generated code before a
    point of another kernel."""

    A = SweepPoint("sgemm-uc", "io+x", mode="specialized", scale=SCALE)
    B = SweepPoint("dither-or", "io+x", mode="specialized", scale=SCALE)

    def _simulate(self, pt):
        runner.run(pt.kernel, pt.config, use_disk_cache=False,
                   **pt.run_kwargs())

    def test_a_new_kernel_drops_the_last_ones_state(self):
        # arriving from another kernel: start from nothing warm
        warm = hardening._keep_warm(self.A.kernel, "another-kernel")
        assert not fusion._BLOCK_TABLE_CACHE
        self._simulate(self.A)
        program = runner._compiled(self.A.kernel, self.A.binary,
                                   self.A.xi_enabled).program
        content = fusion._program_content(program)
        a_blocks = {k for k in fusion._BLOCK_TABLE_CACHE
                    if k[2] == content}
        a_engines = set(fusion._LPSU_MAKE_CACHE)
        assert a_blocks and a_engines

        warm = hardening._keep_warm(self.B.kernel, warm)
        assert warm == self.B.kernel
        assert runner._compiled.cache_info().currsize == 0
        assert not runner._RESULTS
        self._simulate(self.B)
        assert runner._compiled.cache_info().currsize == 1   # B's own
        assert not a_blocks & set(fusion._BLOCK_TABLE_CACHE)
        assert not a_engines & set(fusion._LPSU_MAKE_CACHE)

    def test_the_same_kernel_stays_warm(self):
        warm = hardening._keep_warm(self.A.kernel, None)
        self._simulate(self.A)
        tables = dict(fusion._BLOCK_TABLE_CACHE)
        assert hardening._keep_warm(self.A.kernel, warm) == self.A.kernel
        assert runner._compiled.cache_info().currsize == 1
        assert fusion._BLOCK_TABLE_CACHE == tables


class TestSerialFallback:
    def test_jobs_one_runs_in_process(self):
        ref = _reference()
        summary = sweep(POINTS, jobs=1)
        assert summary.ok and summary.jobs == 1
        assert summary.misses == summary.points
        _assert_matches(ref)

    def test_broken_mp_context_degrades_to_serial(self, monkeypatch):
        """If worker processes cannot be spawned at all, the sweep
        degrades to serial in-process execution (recorded as an
        incident) and still produces bit-identical results."""
        ref = _reference()

        class _BrokenCtx:
            @staticmethod
            def Pipe(duplex=False):
                import multiprocessing
                return multiprocessing.Pipe(duplex)

            @staticmethod
            def Process(*args, **kwargs):
                raise OSError("process table full")

        monkeypatch.setattr(hardening, "_mp_context",
                            lambda: _BrokenCtx())
        summary = sweep(POINTS, jobs=4)
        assert summary.ok
        assert summary.degraded
        assert any(inc.kind == "parallel-to-serial"
                   for inc in summary.incidents)
        assert summary.points == len(POINTS)
        _assert_matches(ref)

    def test_serial_retry_ladder(self, monkeypatch):
        """The in-process path shares the retry/quarantine ladder."""
        calls = {"n": 0}
        real_run = runner.run

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(runner, "run", flaky)
        summary = sweep(POINTS[:1], jobs=1, retries=2, backoff=0.01)
        assert summary.ok
        assert len(summary.retries) == 1
        assert summary.retries[0].kind == "error"


class TestCheckpoint:
    def test_resume_skips_completed_points(self, tmp_path):
        ckpt = str(tmp_path / "sweep.ckpt")
        first = sweep(POINTS, jobs=2, checkpoint=ckpt)
        assert first.ok and first.misses == len(POINTS)

        # wipe all caches; only the checkpoint remembers
        runner.clear_cache()
        second = sweep(POINTS, jobs=2, checkpoint=ckpt)
        assert second.ok
        assert second.points == len(POINTS)
        assert second.misses == 0   # everything resumed, nothing rerun

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        ckpt.write_bytes(b"definitely not a pickle")
        summary = sweep(POINTS[:1], jobs=1, checkpoint=str(ckpt))
        assert summary.ok and summary.points == 1

    def test_torn_tail_is_dropped_and_cut(self, tmp_path):
        """A crash mid-append leaves a torn last line: resuming keeps
        every whole line, re-runs only the torn point, and appends
        after the cut so the next load sees every point."""
        ckpt = tmp_path / "sweep.ckpt"
        sweep(POINTS[:2], jobs=1, checkpoint=str(ckpt))
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:-7])
        assert len(hardening.SweepCheckpoint(ckpt).completed) == 1

        runner.clear_cache()
        resumed = sweep(POINTS[:2], jobs=1, checkpoint=str(ckpt))
        assert resumed.ok and resumed.points == 2
        assert resumed.misses == 1
        reloaded = hardening.SweepCheckpoint(ckpt)
        assert set(reloaded.completed) == {
            qkey_of(pt.to_wire()) for pt in POINTS[:2]}
        _, completed, _ = Journal(ckpt).replay()
        assert completed == set(reloaded.completed)

    def test_ad_hoc_config_is_refused_before_anything_runs(self,
                                                          tmp_path):
        from repro.eval.configs import config
        ad_hoc = SweepPoint("sgemm-uc", config("io"), scale=SCALE)
        with pytest.raises(ValueError, match="only named configurations"):
            sweep([POINTS[0], ad_hoc], jobs=1,
                  checkpoint=str(tmp_path / "sweep.ckpt"))
        assert runner._RESULTS.get(POINTS[0].memo_key()) is None


class TestRunnerDegradation:
    def test_fast_path_exception_falls_back_to_slow(self, monkeypatch):
        """An unexpected fast-path crash retries on the interpreted
        slow path and records an incident instead of failing."""
        import repro.uarch.system as system

        def boom(*args, **kwargs):
            raise RuntimeError("fast path exploded")

        ref = dataclasses.asdict(
            runner.run("sgemm-uc", "io+x", mode="specialized",
                       scale=SCALE, use_disk_cache=False,
                       backend="interp"))
        runner.clear_cache(keep_disk=True)
        runner.drain_incidents()

        monkeypatch.setattr(system, "fused_blocks", boom)
        r = runner.run("sgemm-uc", "io+x", mode="specialized",
                       scale=SCALE, use_disk_cache=False,
                       backend="auto")
        incidents = runner.drain_incidents()
        assert len(incidents) == 1
        assert incidents[0].kind == "fast-path-fallback"
        assert "fast path exploded" in incidents[0].detail
        assert dataclasses.asdict(r) == ref

    def test_violations_are_never_masked(self, monkeypatch):
        """The ladder must not swallow an InvariantViolation."""
        from repro.verify import InvariantViolation
        import repro.uarch.system as system

        def raising_run(self, *args, **kwargs):
            raise InvariantViolation("mivt", "synthetic violation")

        monkeypatch.setattr(system.SystemSimulator, "run", raising_run)
        with pytest.raises(InvariantViolation):
            runner.run("sgemm-uc", "io+x", mode="specialized",
                       scale=SCALE, use_disk_cache=False,
                       backend="auto")


class TestDiskCacheIntegrity:
    def test_truncated_record_quarantined_and_resimulated(self):
        point = dict(kernel_name="sgemm-uc", config_name="io",
                     mode="traditional", scale=SCALE)
        runner.run(**point)
        key = runner._fingerprint(runner.memo_key(
            "sgemm-uc", "io", "traditional", scale=SCALE))
        path = diskcache._record_path(key)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:len(blob) // 2])   # torn write

        runner.clear_cache(keep_disk=True)
        diskcache.reset_stats()
        n = runner.simulations
        r = runner.run(**point)
        assert runner.simulations == n + 1   # re-simulated, not served
        assert diskcache.stats["corrupt"] == 1
        assert diskcache.stats["quarantined"] == 1
        assert r.cycles > 0
        qdir = os.path.join(diskcache.cache_dir(), "quarantine")
        assert os.listdir(qdir)

    def test_bitflip_fails_checksum(self):
        key = diskcache.cache_key("bitflip-target")
        assert diskcache.store(key, {"cycles": 99})
        path = diskcache._record_path(key)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0x40                     # flip one payload bit
        with open(path, "wb") as f:
            f.write(bytes(blob))
        assert diskcache.load(key) is None
        assert diskcache.stats["corrupt"] >= 1

    def test_legacy_bare_pickle_still_served(self):
        import pickle
        key = diskcache.cache_key("legacy-record")
        path = diskcache._record_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            pickle.dump({"cycles": 7}, f)
        assert diskcache.load(key) == {"cycles": 7}

    def test_fsck_quarantines_and_sweeps(self, tmp_path):
        diskcache.configure(cache_dir=str(tmp_path))
        good = diskcache.cache_key("good")
        bad = diskcache.cache_key("bad")
        diskcache.store(good, [1])
        diskcache.store(bad, [2])
        bad_path = diskcache._record_path(bad)
        with open(bad_path, "wb") as f:
            f.write(b"RPR1garbage-that-fails-the-checksum")
        stale = os.path.join(str(tmp_path), good[:2], "old.tmp")
        with open(stale, "w") as f:
            f.write("leftover")
        os.utime(stale, (0, 0))              # ancient

        report = diskcache.fsck()
        assert report["checked"] == 2
        assert report["ok"] == 1
        assert report["corrupt"] == 1
        assert len(report["quarantined"]) == 1
        assert report["stale_tmp"] == 1
        assert not os.path.exists(bad_path)
        assert diskcache.load(good) == [1]
