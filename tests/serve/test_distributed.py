"""The distributed worker pool end to end: real server, real workers
(background threads over a real unix socket), the real hardened
engine forking real simulation children.  Each server runs with
``jobs=0`` -- no simulation slots of its own -- so every miss is
served by the workers.

The headline acceptance test runs an 8-worker sweep under a chaos plan
that kills workers, wedges them mid-lease (heartbeats stop), and cuts
sockets mid-frame -- and asserts the robustness contract: the sweep
completes, results are field-by-field bit-identical to a direct
``runner.run``, and every point is simulated *exactly once* (credited
``simulated`` == cache misses; any extra work shows up in the
duplicate counter instead).  A second test crashes the *server*
mid-campaign and proves the journal resumes it without re-simulating
completed points.
"""

import json
import multiprocessing
import os
import threading
import time
from dataclasses import asdict

import pytest

from repro.eval import diskcache, hardening, runner
from repro.eval.parallel import SweepPoint
from repro.serve import ServeClient, ServerThread, WorkerThread
from repro.serve.queue import qkey_of

SCALE = "tiny"

POINTS = [
    SweepPoint("sgemm-uc", "io", scale=SCALE),
    SweepPoint("sgemm-uc", "io+x", mode="specialized", scale=SCALE),
    SweepPoint("dither-or", "io+x", mode="specialized", scale=SCALE),
    SweepPoint("dynprog-om", "io+x", mode="specialized", scale=SCALE),
]


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    """Fresh cache dir + enabled cache per test (same discipline as
    test_server.py: warm serving IS disk-cache behaviour)."""
    saved = (diskcache._dir_override, diskcache._force_disabled,
             os.environ.get(diskcache.ENV_CACHE_DIR),
             os.environ.get(diskcache.ENV_NO_CACHE))
    diskcache.configure(cache_dir=str(tmp_path / "cache"), enabled=True)
    runner.clear_cache()
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


def _reference_snapshots(points):
    """Direct runner.run results, computed memo-only so they leave no
    disk-cache trace for the server to serve from."""
    reference = {}
    for pt in points:
        r = runner.run(pt.kernel, pt.config, use_disk_cache=False,
                       **pt.run_kwargs())
        reference[pt.memo_key()] = asdict(r)
    runner.clear_cache()
    return reference


def _workers(address, n, **kwargs):
    return [WorkerThread(address, **kwargs).start() for _ in range(n)]


def _stop_workers(workers, timeout=5):
    for w in workers:
        w.stop(timeout=timeout)


class TestDistributedServing:
    def test_two_workers_cold_then_warm(self, tmp_path):
        with ServerThread(jobs=0, socket_dir=str(tmp_path / "sock")) as st:
            workers = _workers(st.address, 2, poll=0.05)
            try:
                with ServeClient(st.address) as client:
                    cold = client.submit(POINTS)
                    assert cold.ok, cold.render()
                    assert cold.points == len(POINTS)
                    assert cold.misses == len(POINTS)
                    runner.clear_cache(keep_disk=True)
                    warm = client.submit(POINTS)
                    assert warm.ok and warm.misses == 0
                    assert warm.hits == len(POINTS)
                    qc = client.stats()["queue"]["counters"]
                    assert qc["enqueued"] == len(POINTS)
                    assert qc["completed"] == len(POINTS)
                    assert qc["duplicates"] == 0
            finally:
                _stop_workers(workers)

    def test_results_bit_identical_to_direct_run(self, tmp_path):
        reference = _reference_snapshots(POINTS)
        with ServerThread(jobs=0, socket_dir=str(tmp_path / "sock")) as st:
            workers = _workers(st.address, 2, poll=0.05)
            try:
                with ServeClient(st.address) as client:
                    summary = client.submit(POINTS)
                assert summary.ok, summary.render()
                for pt in POINTS:
                    r = runner.run(pt.kernel, pt.config,
                                   **pt.run_kwargs())
                    assert asdict(r) == reference[pt.memo_key()], \
                        pt.label()
            finally:
                _stop_workers(workers)

    def test_one_worker_pool_serves_every_lease(self, tmp_path):
        """A worker with two simulation slots drains points of three
        kernels over several leases on at most two forked processes,
        and joins every one of them when it stops."""
        with ServerThread(jobs=0, socket_dir=str(tmp_path / "sock")) as st:
            [worker] = _workers(st.address, 1, jobs=2, batch=2,
                                poll=0.05)
            try:
                with ServeClient(st.address) as client:
                    summary = client.submit(POINTS)
                assert summary.ok, summary.render()
                assert summary.misses == len(POINTS)
            finally:
                worker.stop(timeout=30)
            assert not worker.alive
        counters = worker.worker.counters
        assert counters["completed"] == len(POINTS)
        assert counters["leases"] >= 2
        assert 1 <= counters["spawned"] <= 2
        assert not multiprocessing.active_children()

    def test_no_workers_then_late_worker(self, tmp_path):
        """A submission against a server with neither slots nor
        workers just waits; the first worker to arrive drains it."""
        with ServerThread(jobs=0, socket_dir=str(tmp_path / "sock")) as st:
            out = {}

            def submit():
                with ServeClient(st.address) as client:
                    out["summary"] = client.submit(POINTS[:2])

            t = threading.Thread(target=submit)
            t.start()
            time.sleep(0.3)                 # queued, nobody to lease
            assert "summary" not in out
            workers = _workers(st.address, 1, poll=0.05)
            try:
                t.join(timeout=60)
                assert out["summary"].ok
                assert out["summary"].points == 2
            finally:
                _stop_workers(workers)

    def test_worker_failure_quarantines(self, tmp_path, monkeypatch):
        """A point that crashes on every worker-side attempt comes
        back as a structured failure, not a requeue loop."""
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {"dynprog-om": {"crash": [0, 1]}}))
        with ServerThread(jobs=0, retries=2, backoff=0.01,
                          socket_dir=str(tmp_path / "sock")) as st:
            workers = _workers(st.address, 2, poll=0.05, retries=2,
                               backoff=0.01)
            try:
                with ServeClient(st.address) as client:
                    summary = client.submit(POINTS)
                    assert len(summary.failures) == 1
                    assert summary.failures[0].kind == "crash"
                    assert len(summary.outcomes) == len(POINTS) - 1
                    qc = client.stats()["queue"]["counters"]
                    assert qc["worker_failures"] == 1
            finally:
                _stop_workers(workers)


class TestChaosAcceptance:
    def test_eight_worker_sweep_under_chaos(self, tmp_path,
                                            monkeypatch):
        """THE acceptance gate: worker kills + wedges + severed
        sockets, yet the sweep completes bit-identical with every
        point simulated exactly once."""
        reference = _reference_snapshots(POINTS)
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps({
            # keyed by server-assigned requeue attempt: attempt 0 is
            # sabotaged, the requeued attempt runs clean
            "sgemm-uc/io/": {"kill_worker": [0]},
            "sgemm-uc/io+x": {"sever": [0]},
            "dither-or": {"hang_worker": [0]},
            "dynprog-om": {"kill_worker": [0], "sever": [1]},
        }))
        with ServerThread(jobs=0, socket_dir=str(tmp_path / "sock"),
                          lease_ttl=0.6,
                          journal=str(tmp_path / "queue.journal")) \
                as st:
            workers = _workers(st.address, 8, poll=0.05)
            try:
                with ServeClient(st.address) as client:
                    summary = client.submit(POINTS)
                    assert summary.ok, summary.render()
                    assert summary.points == len(POINTS)  # none lost
                    # exact accounting: chaos strikes before a point
                    # simulates, so every miss simulated exactly once
                    assert summary.misses == len(POINTS)
                    stats = client.stats()
                    assert stats["counters"]["simulated"] \
                        == len(POINTS)
                    qc = stats["queue"]["counters"]
                    assert qc["completed"] == len(POINTS)
                    # chaos actually happened: every sabotaged point
                    # lost at least one lease (its own fault, or as
                    # collateral riding in a killed worker's batch --
                    # which sabotage fires where is timing-dependent,
                    # the recovery invariants above are not)
                    assert qc["requeued"] >= 4
                    assert qc["worker_losses"] >= 1    # a kill fired
                    assert qc["expired_leases"] \
                        + qc["worker_losses"] >= 2
                # bit-identity with the direct run, field by field
                for pt in POINTS:
                    r = runner.run(pt.kernel, pt.config,
                                   **pt.run_kwargs())
                    assert asdict(r) == reference[pt.memo_key()], \
                        pt.label()
            finally:
                _stop_workers(workers)

    def test_slow_writer_is_deduped_not_double_credited(
            self, tmp_path, monkeypatch):
        """A lease expires under a *live* worker (TTL shorter than the
        simulation); the requeued copy completes elsewhere; the slow
        writer's late result is discarded into the duplicate counter.
        Chaos wedges only the heartbeat, so the worker keeps
        computing."""
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {"sgemm-uc/io/": {"hang_worker": [0]}}))
        with ServerThread(jobs=0, socket_dir=str(tmp_path / "sock"),
                          lease_ttl=0.4) as st:
            workers = _workers(st.address, 2, poll=0.05)
            try:
                with ServeClient(st.address) as client:
                    summary = client.submit(POINTS[:2])
                    assert summary.ok
                    assert summary.points == 2
                    qc = client.stats()["queue"]["counters"]
                    assert qc["completed"] == 2
                    assert qc["expired_leases"] >= 1
            finally:
                _stop_workers(workers)


class TestJournalResume:
    def test_server_restart_resumes_without_resimulating(
            self, tmp_path):
        """Crash the server mid-campaign: a successor with the same
        journal + cache serves completed points from the cache and
        finishes only the remainder."""
        journal = str(tmp_path / "queue.journal")
        sock1 = str(tmp_path / "sock1")
        # campaign part 1: complete half the points, then "crash"
        with ServerThread(jobs=0, socket_dir=sock1, journal=journal) as st:
            workers = _workers(st.address, 2, poll=0.05)
            try:
                with ServeClient(st.address) as client:
                    first = client.submit(POINTS[:2])
                    assert first.ok and first.misses == 2
            finally:
                _stop_workers(workers)
        # ServerThread.stop() is a hard stop: no drain, no farewell --
        # the journal and disk cache are all that survives

        runner.clear_cache(keep_disk=True)   # new process, cold memo
        with ServerThread(jobs=0, socket_dir=str(tmp_path / "sock2"),
                          journal=journal) as st:
            workers = _workers(st.address, 2, poll=0.05)
            try:
                with ServeClient(st.address) as client:
                    resumed = client.submit(POINTS)
                    assert resumed.ok
                    assert resumed.points == len(POINTS)
                    # the completed half is cache-served, never re-run
                    assert resumed.misses == 2
                    qc = client.stats()["queue"]["counters"]
                    assert qc["enqueued"] == 2   # only the remainder
            finally:
                _stop_workers(workers)

    def test_journal_replays_pending_work_to_workers(self, tmp_path):
        """Pending (enqueued-but-unresolved) journal entries are
        executed after a restart even with no client attached -- the
        campaign finishes itself."""
        from repro.serve.queue import WorkQueue
        journal = str(tmp_path / "queue.journal")
        q = WorkQueue(journal_path=journal)
        for pt in POINTS[:2]:
            from repro.serve import protocol
            q.enqueue(protocol.point_to_wire(pt))
        q.close()    # crashed before anything completed

        with ServerThread(jobs=0, socket_dir=str(tmp_path / "sock"),
                          journal=journal) as st:
            assert st.server.queue.counters["replayed"] == 2
            workers = _workers(st.address, 2, poll=0.05)
            try:
                deadline = time.time() + 60
                with ServeClient(st.address) as client:
                    while time.time() < deadline:
                        qc = client.stats()["queue"]["counters"]
                        if qc["completed"] == 2:
                            break
                        time.sleep(0.1)
                assert qc["completed"] == 2
                # and the results are durably cached for any client
                for pt in POINTS[:2]:
                    assert runner.cached_result(
                        pt.kernel, pt.config,
                        **pt.run_kwargs()) is not None
            finally:
                _stop_workers(workers)


class TestClientReconnect:
    def test_resubmit_between_batches_after_server_restart(
            self, tmp_path):
        """A persistent client survives its server being replaced
        between submissions: the dead socket is detected, reconnected
        with backoff, and the batch resubmitted."""
        sockdir = str(tmp_path / "sock")
        st1 = ServerThread(jobs=0, socket_dir=sockdir).start()
        workers = _workers(st1.address, 1, poll=0.05)
        client = ServeClient(st1.address)
        try:
            first = client.submit(POINTS[:2])
            assert first.ok and first.points == 2
        finally:
            _stop_workers(workers)
            st1.stop()
        # a new server on the SAME socket path; the client's socket
        # is a stale fd to the old one
        st2 = ServerThread(jobs=0, socket_dir=sockdir).start()
        workers = _workers(st2.address, 1, poll=0.05)
        try:
            assert st2.address == st1.address
            second = client.submit(POINTS)
            assert second.ok and second.points == len(POINTS)
            # completed work came from the shared cache, not re-sim
            assert second.misses == 2
        finally:
            client.close()
            _stop_workers(workers)
            st2.stop()

    def test_resubmit_mid_submit_when_server_dies(self, tmp_path):
        """The server dies while a submit is blocked on a workerless
        queue; a successor appears on the same path; the client
        reconnects mid-submit and resubmits the unacknowledged
        remainder."""
        sockdir = str(tmp_path / "sock")
        st1 = ServerThread(jobs=0, socket_dir=sockdir).start()
        out, errors = {}, []

        def submit():
            try:
                with ServeClient(sockdir + "/serve.sock",
                                 reconnects=12) as client:
                    out["summary"] = client.submit(POINTS[:2])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        t = threading.Thread(target=submit)
        t.start()
        time.sleep(0.4)          # the submit is queued and waiting
        st1.stop()               # server dies mid-submit
        st2 = ServerThread(jobs=0, socket_dir=sockdir).start()
        workers = _workers(st2.address, 2, poll=0.05)
        try:
            t.join(timeout=60)
            assert not errors, errors
            assert out["summary"].ok
            assert out["summary"].points == 2
        finally:
            _stop_workers(workers)
            st2.stop()


class TestIdleExit:
    def test_idle_exit_waits_for_queue_and_workers(self, tmp_path):
        """An --idle-exit server must not vanish while journal-
        replayed work is pending or a worker is attached; once both
        are gone it exits on schedule."""
        from repro.serve import protocol
        from repro.serve.queue import WorkQueue
        journal = str(tmp_path / "queue.journal")
        q = WorkQueue(journal_path=journal)
        q.enqueue(protocol.point_to_wire(POINTS[0]))
        q.close()

        st = ServerThread(jobs=0, socket_dir=str(tmp_path / "sock"),
                          journal=journal, idle_exit=0.4).start()
        try:
            # pending replayed work, no clients: the old (buggy)
            # condition would exit here
            time.sleep(1.2)
            assert st._thread.is_alive()
            workers = _workers(st.address, 1, poll=0.05)
            try:
                deadline = time.time() + 60
                while time.time() < deadline \
                        and st.server.queue.entries:
                    time.sleep(0.05)
                assert not st.server.queue.entries
                # queue drained but the worker is still connected:
                # still not idle
                time.sleep(1.2)
                assert st._thread.is_alive()
            finally:
                _stop_workers(workers)
            # nothing pending, no leases, no workers: now it may exit
            st._thread.join(timeout=15)
            assert not st._thread.is_alive()
        finally:
            st.stop()


class TestGracefulDrain:
    def test_stop_drains_leases_and_workers_exit_clean(self,
                                                       tmp_path):
        with ServerThread(jobs=0, socket_dir=str(tmp_path / "sock"),
                          drain_timeout=30.0) as st:
            workers = _workers(st.address, 2, poll=0.05)
            try:
                out = {}

                def submit():
                    with ServeClient(st.address) as client:
                        out["summary"] = client.submit(POINTS)

                t = threading.Thread(target=submit)
                t.start()
                time.sleep(0.2)          # points queued/leased
                with ServeClient(st.address) as stopper:
                    reply = stopper.shutdown()
                assert reply.get("drained", False)
                t.join(timeout=60)
                # the drain waited: every point completed
                assert out["summary"].ok
                assert out["summary"].points == len(POINTS)
                # workers got the drain frame and exited clean
                deadline = time.time() + 10
                while time.time() < deadline \
                        and any(w.alive for w in workers):
                    time.sleep(0.05)
                assert all(w.worker.drained or not w.alive
                           for w in workers)
            finally:
                _stop_workers(workers)


def test_queue_identity_matches_wire_points():
    """qkey round-trips through the journal stay joined to the same
    SweepPoint (the completion path depends on it)."""
    from repro.serve import protocol
    pt = POINTS[0]
    wire = protocol.point_to_wire(pt)
    rejson = json.loads(json.dumps(wire))
    assert qkey_of(wire) == qkey_of(rejson)
    assert protocol.point_from_wire(rejson).memo_key() == pt.memo_key()
