"""Hardened sweep execution: crash/hang isolation, retry with
backoff, quarantine, serial degradation, resume from the disk cache,
and the runner's fallback to the interp reference rung.

Chaos (deterministic worker sabotage via ``$REPRO_CHAOS``) only acts
inside forked worker children, so every recovery path here exercises
the real machinery: real dead processes, real kills, real retries.
"""

import collections
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.eval import diskcache, hardening, runner
from repro.eval.parallel import SweepPoint, sweep
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


def _log_attempts(monkeypatch, path):
    """From now on, log the label, attempt and pid of every point a
    worker task starts (forked workers inherit the wrapper, and chaos
    strikes inside it); returns a reader of ``[(label, attempt, pid)]``
    in start order."""
    real = hardening._apply_chaos

    def logged(label, attempt):
        with open(path, "a") as fh:
            fh.write("%s %d %d\n" % (label, attempt, os.getpid()))
        real(label, attempt)

    monkeypatch.setattr(hardening, "_apply_chaos", logged)

    def read():
        if not path.exists():
            return []
        return [(label, int(attempt), int(pid)) for label, attempt, pid
                in (line.split() for line in
                    path.read_text().splitlines())]
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


class TestGroupTasks:
    """A host group is one worker task.  When it fails -- an error
    reply, a crash, or a kill at its points' summed deadline -- its
    worker retires, one ``group-to-points`` incident is recorded and
    each point goes back on the queue alone at the same attempt, so
    the per-point ladder finds the point at fault."""

    GROUP = [SweepPoint("vvadd-uc", gpp, scale=SCALE)
             for gpp in ("io", "ooo/2", "ooo/4")]
    FAULTY = GROUP[1]

    def _reference(self):
        ref = {}
        for pt in self.GROUP:
            r = runner.run(pt.kernel, pt.config, use_disk_cache=False,
                           **pt.run_kwargs())
            ref[pt] = dataclasses.asdict(r)
        runner.clear_cache(keep_disk=True)
        return ref

    def _assert_matches(self, ref, points):
        for pt in points:
            r = runner.cached_result(pt.kernel, pt.config,
                                     **pt.run_kwargs())
            assert dataclasses.asdict(r) == ref[pt], pt.label()

    def _group_incident(self, summary):
        [incident] = summary.incidents
        assert incident.kind == "group-to-points"
        assert incident.context.split() == [pt.label() for pt in self.GROUP]
        return incident

    def test_a_crash_reruns_each_point_alone(self, tmp_path, monkeypatch,
                                             spawns):
        """One point crashes its group's worker: one incident, each
        point reruns alone in a fresh worker at attempt 0, and only
        the crashing point retries."""
        ref = self._reference()
        attempts = _log_attempts(monkeypatch, tmp_path / "attempts.log")
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {self.FAULTY.label(): {"crash": [0]}}))
        summary = sweep(self.GROUP, jobs=2, retries=3, backoff=0.01)
        assert summary.ok and summary.misses == len(self.GROUP)
        assert "code %d" % hardening.CHAOS_EXIT \
            in self._group_incident(summary).detail
        [event] = summary.retries
        assert (event.label, event.attempt, event.kind) == \
            (self.FAULTY.label(), 0, "crash")
        log = attempts()
        # the group task met the crash at its second point ...
        group_pid = log[0][2]
        assert log[:2] == [(pt.label(), 0, group_pid)
                           for pt in self.GROUP[:2]]
        # ... then each point ran alone, in another worker, at attempt 0,
        # and the crashing one once more at attempt 1
        alone = collections.Counter((label, attempt)
                                    for label, attempt, _pid in log[2:])
        assert alone == collections.Counter(
            [(pt.label(), 0) for pt in self.GROUP]
            + [(self.FAULTY.label(), 1)])
        assert group_pid not in {pid for _l, _a, pid in log[2:]}
        assert diskcache.disk_stats()["records"] == len(self.GROUP)
        assert not multiprocessing.active_children()
        self._assert_matches(ref, self.GROUP)

    def test_a_hang_is_killed_at_the_summed_deadline(self, monkeypatch):
        """A hung group is killed at ``timeout x len(group)``; alone,
        its hung point is killed at the per-point timeout and
        retried."""
        ref = self._reference()
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {self.FAULTY.label(): {"hang": [0]}}))
        summary = sweep(self.GROUP, jobs=2, timeout=1.0, retries=3,
                        backoff=0.01)
        assert summary.ok and summary.misses == len(self.GROUP)
        assert self._group_incident(summary).detail == \
            "killed after 3s wall-clock"
        [event] = summary.retries
        assert (event.label, event.kind) == (self.FAULTY.label(), "hang")
        assert "after 1s" in event.error
        assert summary.wall_time >= 3.0 + 1.0
        assert not multiprocessing.active_children()
        self._assert_matches(ref, self.GROUP)

    def test_retries_one_still_runs_each_point_alone(self, monkeypatch):
        """With one attempt per point a failed group still splits: the
        healthy points run alone and finish, and only the crashing one
        is quarantined, after its single attempt of its own."""
        ref = self._reference()
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {self.FAULTY.label(): {"crash": [0]}}))
        summary = sweep(self.GROUP, jobs=2, retries=1)
        self._group_incident(summary)
        assert not summary.retries
        [failure] = summary.failures
        assert (failure.label, failure.attempts, failure.kind) == \
            (self.FAULTY.label(), 1, "crash")
        healthy = [pt for pt in self.GROUP if pt != self.FAULTY]
        assert sorted(o.point.label() for o in summary.outcomes) == \
            sorted(pt.label() for pt in healthy)
        assert not multiprocessing.active_children()
        self._assert_matches(ref, healthy)


class TestSharedPool:
    """:func:`hardening.execute_one` on a caller's long-lived pool, as
    the sweep server runs each miss."""

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
                worker.conn.send(([POINTS[0]], 0, None))
                assert worker.conn.recv()[0] == "ok"   # it has started
                ours.close()
                peer.settimeout(5)
                assert peer.recv(1) == b""
                pool.release(worker)
        finally:
            ours.close()
            peer.close()


class TestOneWarmKernel:
    """A kernel a pool worker has run stays warm for the worker's life:
    its compiled binaries, GPP block tables and LPSU engines stay, so
    a later point of that kernel -- straight after or after other
    kernels -- builds none of them again.  Only the point's memo entry
    goes, once the worker has replied."""

    A = SweepPoint("sgemm-uc", "io+x", mode="specialized", scale=SCALE)
    B = SweepPoint("dither-or", "io+x", mode="specialized", scale=SCALE)

    def _simulate(self, pt):
        runner.run(pt.kernel, pt.config, use_disk_cache=False,
                   **pt.run_kwargs())

    def test_the_same_kernel_stays_warm(self, monkeypatch):
        """A second point of a kernel, once the first one's memo entry
        is dropped as a worker drops it, simulates again on the same
        compiled binary and the same GPP block tables."""
        monkeypatch.setattr(fusion, "_BLOCK_TABLE_CACHE", {})
        self._simulate(self.A)
        tables = dict(fusion._BLOCK_TABLE_CACHE)
        assert tables
        runner._RESULTS.pop(self.A.memo_key())
        before = runner.simulations
        self._simulate(self.A)
        assert runner.simulations == before + 1
        assert runner._compiled.cache_info().currsize == 1
        assert fusion._BLOCK_TABLE_CACHE.keys() == tables.keys()
        assert all(fusion._BLOCK_TABLE_CACHE[k] is table
                   for k, table in tables.items())

    def test_a_return_to_a_kernel_builds_no_engine(self, monkeypatch,
                                                   tmp_path):
        """One pool worker runs A, B, A, B: it compiles each binary,
        and builds each GPP table and each LPSU engine, the first time
        only; every point starts with an empty memo; and the record of
        its second A equals a fresh process's bit for bit."""
        log = tmp_path / "worker.log"
        log.write_text("")

        def note(kind, what):
            digest = hashlib.sha1(repr(what).encode()).hexdigest()
            with open(log, "a") as fh:
                fh.write("%s %s\n" % (kind, digest))

        real_compile = runner.compile_source
        real_table = fusion._build
        real_engine = fusion._LPSUGen.build
        real_run = runner.run

        def compile_source(source, **kwargs):
            note("compile", (source, sorted(kwargs.items())))
            return real_compile(source, **kwargs)

        def build_table(program, flavor, break_pcs):
            note("table", (flavor, sorted(break_pcs),
                           fusion._program_content(program)))
            return real_table(program, flavor, break_pcs)

        def build_engine(gen):
            note("engine", (gen.base, sorted(gen.cirs), [
                (ins.op.mnemonic, ins.rd, ins.rs1, ins.rs2, ins.imm,
                 ins.pc) for ins in gen.body]))
            return real_engine(gen)

        def run(kernel, config, **kwargs):
            with open(log, "a") as fh:
                fh.write("memo %d\n" % len(runner._RESULTS))
            return real_run(kernel, config, **kwargs)

        # the forked worker inherits the wrappers, no compiled binary
        # and empty code caches; with the disk cache off, every point
        # simulates
        monkeypatch.setattr(runner, "compile_source", compile_source)
        monkeypatch.setattr(fusion, "_build", build_table)
        monkeypatch.setattr(fusion._LPSUGen, "build", build_engine)
        monkeypatch.setattr(runner, "run", run)
        monkeypatch.setattr(fusion, "_BLOCK_TABLE_CACHE", {})
        monkeypatch.setattr(fusion, "_LPSU_MAKE_CACHE", {})
        diskcache.configure(enabled=False)
        records = []
        with hardening.WorkerPool() as pool:
            worker = pool.acquire()
            for pt in (self.A, self.B, self.A, self.B):
                if len(records) == 2:
                    first_visits = len(log.read_text().splitlines())
                worker.conn.send(([pt], 0, None))
                reply = worker.conn.recv()
                assert reply[0] == "ok", reply
                [(record, _wall, simulated)] = reply[1]
                assert simulated
                records.append(record)
            pool.release(worker)
        lines = log.read_text().splitlines()
        built = [line for line in lines if not line.startswith("memo ")]
        kinds = collections.Counter(line.split()[0] for line in built)
        assert kinds["compile"] and kinds["table"] and kinds["engine"]
        assert len(set(built)) == len(built)         # each one once
        assert lines[first_visits:] == ["memo 0"] * 2  # A, B again
        assert [line for line in lines if line.startswith("memo ")] \
            == ["memo 0"] * 4

        script = (
            "import dataclasses, pickle, sys\n"
            "from repro.eval import runner\n"
            "r = runner.run(%r, %r, use_disk_cache=False, **%r)\n"
            "sys.stdout.buffer.write(pickle.dumps(dataclasses.asdict(r)))\n"
            % (self.A.kernel, self.A.config, self.A.run_kwargs()))
        env = dict(os.environ, REPRO_NO_CACHE="1", PYTHONPATH=
                   os.path.dirname(os.path.dirname(repro.__file__)))
        env.pop("REPRO_BACKEND", None)
        fresh = pickle.loads(subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            check=True).stdout)
        again = dataclasses.asdict(records[2])
        assert again == fresh
        assert repr(again) == repr(fresh)     # -0.0 and NaN included
        assert dataclasses.asdict(records[0]) == fresh

    def test_one_cache_entry_per_body_content(self, monkeypatch):
        """Across kernel switches and recompiles, every request for a
        loop body the process has met is a hit: the cache holds one
        entry per body content and builds each once."""
        monkeypatch.setattr(fusion, "_LPSU_MAKE_CACHE", {})
        requested, built = [], []
        real_key = fusion._lpsu_content_key
        real_build = fusion._LPSUGen.build

        def key(descriptor):
            requested.append(real_key(descriptor))
            return requested[-1]

        def build(gen):
            built.append(gen)
            return real_build(gen)

        monkeypatch.setattr(fusion, "_lpsu_content_key", key)
        monkeypatch.setattr(fusion._LPSUGen, "build", build)
        for pt in (self.A, self.B, self.A):
            runner.clear_cache(keep_disk=True)   # a cold run recompiles
            self._simulate(pt)
        cache = fusion._LPSU_MAKE_CACHE
        # A's recompiled program asked for its bodies again ...
        assert len(requested) > len(set(requested))
        # ... and got the entries its first run built
        assert set(cache) == set(requested)
        assert len(built) == len(cache)
        bodies = [k[0] for k in cache]
        assert len(set(bodies)) == len(bodies)


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


class TestResume:
    def test_a_parallel_sweep_resumes_its_quarantined_point(
            self, monkeypatch):
        """The disk cache is the one durable store: run again on it
        with a cold memo, a ``jobs=2`` sweep that quarantined a point
        serves every finished point, retries the quarantined one and
        simulates nothing else, ending with the records of a clean
        sweep."""
        ref = _reference()
        doomed = POINTS[3]
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {doomed.label(): {"crash": [0, 1]}}))
        first = sweep(POINTS, jobs=2, retries=2, backoff=0.01)
        assert [f.label for f in first.failures] == [doomed.label()]
        assert first.points == first.misses == len(POINTS) - 1

        monkeypatch.delenv(hardening.CHAOS_ENV)
        runner.clear_cache(keep_disk=True)   # as a fresh process would
        second = sweep(POINTS, jobs=2, retries=2, backoff=0.01)
        assert second.ok and second.points == len(POINTS)
        assert [o.point for o in second.outcomes if o.simulated] == \
            [doomed]
        _assert_matches(ref)


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


#: calls of :func:`_tripwire`; a planted record must never add one
_TRIPPED = []


def _tripwire():
    _TRIPPED.append(True)
    return "tripped"


class _Planted:
    def __reduce__(self):
        return (_tripwire, ())


def _plant(key, blob):
    """Write *blob* as the disk record of *key*; its path."""
    path = diskcache._record_path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as f:
        f.write(blob)
    return path


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

    def test_record_without_magic_is_corrupt(self):
        """A bare pickle (the format before ``RPR1``) is a miss,
        quarantined and counted corrupt, like any damaged record."""
        key = diskcache.cache_key("bare-pickle")
        path = _plant(key, pickle.dumps({"cycles": 7}))
        diskcache.reset_stats()
        assert diskcache.load(key) is None
        assert not os.path.exists(path)
        assert os.listdir(os.path.join(diskcache.cache_dir(),
                                       "quarantine")) \
            == [os.path.basename(path)]
        assert diskcache.stats["corrupt"] == 1
        assert diskcache.stats["misses"] == 1
        _plant(key, pickle.dumps({"cycles": 7}))
        report = diskcache.fsck()
        assert (report["checked"], report["corrupt"]) == (1, 1)

    def test_planted_record_runs_no_code(self, capsys):
        """A checksummed record whose pickle names any global but a
        result-record class never runs it: loading it is a miss that
        quarantines it, and ``repro cache fsck`` counts it corrupt."""
        from repro.cli import main
        payload = pickle.dumps(_Planted())
        assert pickle.loads(payload) == "tripped" and _TRIPPED
        del _TRIPPED[:]
        key = diskcache.cache_key("planted")
        path = _plant(key, diskcache.MAGIC
                      + hashlib.sha256(payload).digest() + payload)
        assert diskcache.load(key) is None
        assert not os.path.exists(path)
        assert os.listdir(os.path.join(diskcache.cache_dir(),
                                       "quarantine")) \
            == [os.path.basename(path)]
        _plant(diskcache.cache_key("planted", 2), diskcache.MAGIC
               + hashlib.sha256(payload).digest() + payload)
        assert main(["cache", "fsck"]) == 1
        assert "corrupt:   1 " in capsys.readouterr().out
        assert _TRIPPED == []

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
