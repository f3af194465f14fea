"""The sweep server end to end: global in-flight dedup across
concurrent clients, crash -> retry -> quarantine without stalling
anyone, warm resubmissions served entirely from the cache, and
bit-identity with a direct in-process run.

The server runs on a background thread (:class:`ServerThread`) over a
real unix socket, its simulations in real forked workers -- the same
machinery ``repro serve`` deploys, minus only the second OS process.
Its misses share one long-lived worker pool: workers are reused across
kernels and submissions, give up the sockets they inherit, and are all
joined when the server stops or dies.
"""

import json
import multiprocessing
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import asdict

import pytest

import repro
from repro.eval import diskcache, hardening, runner
from repro.eval.parallel import SweepPoint
from repro.serve import ServeClient, ServerThread, WorkerThread
from repro.serve import protocol
from repro.serve.client import connect
from tests.eval.test_hardening import _exited

SCALE = "tiny"

POINTS = [
    SweepPoint("sgemm-uc", "io", scale=SCALE),
    SweepPoint("sgemm-uc", "io+x", mode="specialized", scale=SCALE),
    SweepPoint("dither-or", "io+x", mode="specialized", scale=SCALE),
]


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    """Fresh cache dir + enabled cache per test, restored after (CI
    runs the suite with REPRO_NO_CACHE=1; serving warm resubmissions
    is exactly the disk-cache behaviour these tests are about)."""
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


@pytest.fixture()
def server(tmp_path):
    with ServerThread(jobs=2, retries=2, backoff=0.01,
                      socket_dir=str(tmp_path)) as st:
        yield st


def _log_attempts(monkeypatch, path):
    """From now on, log the label, attempt and pid of every attempt a
    pool worker starts (forked workers inherit the wrapper, and chaos
    strikes inside it); returns a reader of ``[(label, attempt,
    pid)]``."""
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


def _pool_counters(address):
    with ServeClient(address) as client:
        counters = client.stats()["counters"]
    return counters["spawned"], counters["workers"]


def _children(pid):
    """Pids whose parent is *pid*, from ``/proc``."""
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(name))
    return found


class TestServing:
    def test_cold_then_warm(self, server):
        with ServeClient(server.address) as client:
            first = client.submit(POINTS)
            assert first.ok, first.render()
            assert first.points == len(POINTS)
            assert first.misses == len(POINTS)   # all simulated

            # drop the in-process memo: the warm pass must come from
            # the hot tier / disk store, not this process's dict
            runner.clear_cache(keep_disk=True)
            second = client.submit(POINTS)
            assert second.ok, second.render()
            assert second.misses == 0            # zero simulator runs
            assert second.hits == len(POINTS)    # 100% cache-served

    def test_results_bit_identical_to_direct_run(self, server):
        reference = {}
        for pt in POINTS:
            r = runner.run(pt.kernel, pt.config, use_disk_cache=False,
                           **pt.run_kwargs())
            reference[pt.memo_key()] = asdict(r)
        runner.clear_cache()    # fresh memo + disk: the server recomputes

        with ServeClient(server.address) as client:
            summary = client.submit(POINTS)
        assert summary.ok, summary.render()
        # submit() seeded the memo with the server's records
        for pt in POINTS:
            r = runner.run(pt.kernel, pt.config, **pt.run_kwargs())
            assert asdict(r) == reference[pt.memo_key()], pt.label()

    def test_ping_and_stats(self, server):
        with ServeClient(server.address) as client:
            pong = client.ping()
            assert pong["ok"] and "version" in pong
            client.submit(POINTS[:1])
            stats = client.stats()
            assert stats["counters"]["points"] == 1
            assert stats["counters"]["spawned"] == 1
            assert stats["counters"]["workers"] == 1
            assert "hot" in stats["cache"]

    def test_unknown_kernel_is_structured_failure(self, server):
        with ServeClient(server.address) as client:
            bad = [SweepPoint("no-such-kernel", "io", scale=SCALE)]
            summary = client.submit(bad + POINTS[:1])
            assert len(summary.failures) == 1
            assert "no-such-kernel" in summary.failures[0].error
            # the good point still came back
            assert len(summary.outcomes) == 1

    def test_slots_drain_the_queue_but_are_not_workers(self, tmp_path):
        """Every local miss goes through the work queue, yet the slots
        never register as workers: a shutdown with no worker
        connected skips the grace a drain gives workers."""
        st = ServerThread(jobs=2, socket_dir=str(tmp_path)).start()
        try:
            with ServeClient(st.address) as client:
                assert client.submit(POINTS).ok
                stats = client.stats()
            queue = stats["queue"]
            assert queue["counters"]["enqueued"] == len(POINTS)
            assert queue["counters"]["completed"] == len(POINTS)
            assert stats["counters"]["simulated"] == len(POINTS)
            assert queue["workers"] == 0 and queue["queued"] == 0
            assert stats["inflight"] == 0
            t0 = time.monotonic()
            with ServeClient(st.address) as client:
                assert client.shutdown()["drained"]
            assert time.monotonic() - t0 < 2.0    # grace would be 5 s
        finally:
            st.stop()


class TestConcurrentDedup:
    def test_exactly_one_simulation_per_unique_point(self, server):
        """N clients race the same cold point: the server runs ONE
        simulation and fans the record out to every waiter."""
        point = [SweepPoint("dynprog-om", "io+x", mode="specialized",
                            scale=SCALE)]
        summaries = []
        errors = []

        def one_client():
            try:
                with ServeClient(server.address) as client:
                    summaries.append(client.submit(point))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=one_client)
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(summaries) == 8
        assert all(s.ok for s in summaries)
        # the accounting: the simulated flag is granted to exactly one
        # waiter; everyone else was served the same in-flight record
        total_sims = sum(s.misses for s in summaries)
        assert total_sims == 1
        with ServeClient(server.address) as client:
            counters = client.stats()["counters"]
        assert counters["simulated"] == 1
        assert counters["served_inflight"] + \
            counters["served_cache"] == 7

    def test_duplicate_points_in_one_submission(self, server):
        dup = [SweepPoint("sgemm-uc", "io", scale=SCALE)] * 5
        with ServeClient(server.address) as client:
            summary = client.submit(dup)
            assert summary.ok
            assert summary.points == 5
            assert summary.misses == 1   # one simulation, five answers


class TestProtocolEdges:
    """Hostile or broken bytes on the wire: the server must drop that
    one connection (or answer an error frame) and keep serving every
    other client untouched."""

    def _assert_healthy(self, server):
        with ServeClient(server.address, reconnects=0) as client:
            assert client.ping()["ok"]

    def test_garbage_bytes_on_connect(self, server):
        sock = connect(server.address)
        try:
            # not even a plausible header: 4 bytes promising ~3.2 GB
            sock.sendall(b"\xbe\xef\xca\xfe garbage that is not json")
            assert protocol.recv_frame(sock) is None   # dropped
        finally:
            sock.close()
        self._assert_healthy(server)

    def test_oversized_frame_is_refused(self, server):
        sock = connect(server.address)
        try:
            # header alone announces > MAX_FRAME; the server must bail
            # before trying to buffer the body
            sock.sendall(protocol._HEADER.pack(protocol.MAX_FRAME + 1))
            assert protocol.recv_frame(sock) is None
        finally:
            sock.close()
        self._assert_healthy(server)

    def test_truncated_frame_mid_read(self, server):
        sock = connect(server.address)
        try:
            # promise 64 bytes, deliver 10, hang up mid-frame
            sock.sendall(protocol._HEADER.pack(64) + b'{"op": "pi')
        finally:
            sock.close()
        self._assert_healthy(server)

    def test_valid_frame_invalid_op_gets_error_frame(self, server):
        sock = connect(server.address)
        try:
            protocol.send_frame(sock, {"op": "make-me-a-sandwich"})
            reply = protocol.recv_frame(sock)
            assert "error" in reply
            # the connection itself survives a polite error
            protocol.send_frame(sock, {"op": "ping"})
            assert protocol.recv_frame(sock)["ok"]
        finally:
            sock.close()
        self._assert_healthy(server)

    def test_bad_frames_do_not_disturb_a_concurrent_client(self, server):
        """A vandal floods junk while a healthy client submits a real
        sweep on another connection."""
        stop = threading.Event()

        def vandal():
            while not stop.is_set():
                sock = connect(server.address)
                try:
                    sock.sendall(b"\x00\x00\x00\x08notjson!")
                    protocol.recv_frame(sock)
                except protocol.ProtocolError:
                    pass
                finally:
                    sock.close()

        thread = threading.Thread(target=vandal, daemon=True)
        thread.start()
        try:
            with ServeClient(server.address) as client:
                summary = client.submit(POINTS)
            assert summary.ok, summary.render()
            assert summary.points == len(POINTS)
        finally:
            stop.set()
            thread.join(timeout=10)


#: set when a record's unpickling called _trip: it never may
_TRIPPED = []


def _trip():
    _TRIPPED.append(True)


class _Hostile:
    """Unpickles by calling :func:`_trip` -- a stand-in for a pickle
    that runs a command."""

    def __reduce__(self):
        return (_trip, ())


class TestWorkerOpTrust:
    """Every server accepts workers, so a ``complete`` can come from
    any process that reaches the socket.  Its record is decoded only
    when it comes from a worker registered over that connection, for a
    point that worker was leased -- and even then only result-record
    classes unpickle, so no peer can make the server run code."""

    def _spy(self, monkeypatch):
        calls = []
        real = protocol.unpack_record

        def spy(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(protocol, "unpack_record", spy)
        return calls

    def test_complete_refused_unread_unless_leased(self, server,
                                                   monkeypatch):
        calls = self._spy(monkeypatch)
        hostile = protocol.pack_record(_Hostile())
        other = connect(server.address)
        sock = connect(server.address)
        try:
            def complete(wid):
                protocol.send_frame(sock, {
                    "op": "complete", "worker_id": wid, "qkey": "k",
                    "wall": 0.0, "simulated": True, "retries": 0,
                    "record": hostile})
                return protocol.recv_frame(sock)

            # never registered
            assert "error" in complete(1)
            # registered, but over another connection
            protocol.send_frame(other, {"op": "register",
                                        "name": "elsewhere"})
            elsewhere = protocol.recv_frame(other)["worker_id"]
            assert "error" in complete(elsewhere)
            # registered here, but never leased that point
            protocol.send_frame(sock, {"op": "register", "name": "w"})
            wid = protocol.recv_frame(sock)["worker_id"]
            assert complete(wid) == {"ok": True, "credited": False}
            protocol.send_frame(sock, {"op": "fail", "worker_id": wid,
                                       "qkey": "k", "kind": "crash"})
            assert protocol.recv_frame(sock) == {"ok": True,
                                                 "credited": False}
        finally:
            sock.close()
            other.close()
        assert calls == [] and _TRIPPED == []
        with ServeClient(server.address) as client:
            stats = client.stats()
        assert stats["counters"]["simulated"] == 0
        assert stats["queue"]["counters"]["duplicates"] == 2

    def test_hostile_record_from_a_leased_worker_runs_nothing(
            self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        with ServerThread(jobs=0, socket_dir=str(tmp_path / "sock")) \
                as st:
            out = {}

            def submit():
                with ServeClient(st.address) as client:
                    out["summary"] = client.submit(POINTS[:1])

            t = threading.Thread(target=submit)
            t.start()
            sock = connect(st.address)
            try:
                protocol.send_frame(sock, {"op": "register",
                                           "name": "hostile"})
                wid = protocol.recv_frame(sock)["worker_id"]
                deadline = time.monotonic() + 30
                while True:
                    protocol.send_frame(sock, {"op": "lease",
                                               "worker_id": wid})
                    lease = protocol.recv_frame(sock)
                    if lease["type"] == "lease" \
                            or time.monotonic() > deadline:
                        break
                    time.sleep(0.02)
                (item,) = lease["points"]
                protocol.send_frame(sock, {
                    "op": "complete", "worker_id": wid,
                    "qkey": item["qkey"], "wall": 0.0,
                    "simulated": True, "retries": 0,
                    "record": protocol.pack_record(_Hostile())})
                reply = protocol.recv_frame(sock)
                assert "UnpicklingError" in reply["error"]
            finally:
                sock.close()    # the point is requeued
            assert len(calls) == 1 and _TRIPPED == []
            worker = WorkerThread(st.address, poll=0.05).start()
            try:
                t.join(timeout=60)
            finally:
                worker.stop(timeout=5)
        assert out["summary"].ok and out["summary"].misses == 1


class TestChaosThroughServer:
    """A crashed attempt retires its worker: the retry runs in another
    process, and the pool forks exactly one worker per crashed
    attempt beyond those still alive."""

    def test_crash_is_retried_transparently(self, server, monkeypatch,
                                            tmp_path):
        attempts = _log_attempts(monkeypatch, tmp_path / "attempts.log")
        crashing = POINTS[0].label()
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {crashing: {"crash": [0]}}))
        with ServeClient(server.address) as client:
            summary = client.submit(POINTS)
        assert summary.ok, summary.render()
        assert summary.points == len(POINTS)
        assert summary.misses == len(POINTS)
        with ServeClient(server.address) as client:
            counters = client.stats()["counters"]
        assert counters["retried"] == 1
        assert counters["spawned"] - counters["workers"] == 1
        assert counters["spawned"] <= server.server.jobs + 1
        pid_of = {(label, attempt): pid
                  for label, attempt, pid in attempts()}
        assert pid_of[crashing, 1] != pid_of[crashing, 0]

    def test_quarantine_does_not_stall_other_clients(self, server,
                                                     monkeypatch,
                                                     tmp_path):
        """One client's point crashes on every attempt and is
        quarantined; a concurrent client's healthy points all come
        back fine."""
        attempts = _log_attempts(monkeypatch, tmp_path / "attempts.log")
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {"dynprog-om": {"crash": [0, 1, 2]}}))
        doomed = [SweepPoint("dynprog-om", "io+x", mode="specialized",
                             scale=SCALE)]
        results = {}

        def doomed_client():
            with ServeClient(server.address) as client:
                results["doomed"] = client.submit(doomed)

        def healthy_client():
            with ServeClient(server.address) as client:
                results["healthy"] = client.submit(POINTS)

        threads = [threading.Thread(target=doomed_client),
                   threading.Thread(target=healthy_client)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        assert not any(t.is_alive() for t in threads)
        assert results["healthy"].ok, results["healthy"].render()
        assert results["healthy"].points == len(POINTS)
        assert results["healthy"].misses == len(POINTS)
        assert not results["doomed"].ok
        failure = results["doomed"].failures[0]
        assert failure.kind == "crash"
        assert failure.attempts == 2     # retries=2 on this server
        # the server survives for the next customer
        with ServeClient(server.address) as client:
            assert client.ping()["ok"]
            counters = client.stats()["counters"]
        # one fork per crashed attempt beyond the live workers
        assert counters["spawned"] - counters["workers"] == 2
        assert counters["spawned"] <= server.server.jobs + 2
        doomed = [pid for label, _attempt, pid in attempts()
                  if label.startswith("dynprog-om/")]
        assert len(doomed) == 2 and doomed[0] != doomed[1]
        # no healthy point was retried
        assert sorted(attempt for label, attempt, _pid in attempts()
                      if not label.startswith("dynprog-om/")) == \
            [0] * len(POINTS)


class TestWorkerPool:
    """Misses run on one long-lived pool per server: at most ``jobs``
    workers serve every kernel and submission, each worker gives up
    the sockets it inherits, and none outlives the server."""

    def test_workers_are_reused_across_kernels_and_submissions(
            self, server):
        batches = [
            [SweepPoint("sgemm-uc", "io", scale=SCALE),
             SweepPoint("sgemm-uc", "io+x", mode="specialized",
                        scale=SCALE)],
            [SweepPoint("dither-or", "io", scale=SCALE),
             SweepPoint("dither-or", "io+x", mode="specialized",
                        scale=SCALE)],
            [SweepPoint("vvadd-uc", "io", scale=SCALE),
             SweepPoint("sgemm-uc", "ooo/2", scale=SCALE)],
        ]
        with ServeClient(server.address) as client:
            for batch in batches:
                summary = client.submit(batch)
                assert summary.ok, summary.render()
                assert summary.misses == len(batch)
            counters = client.stats()["counters"]
        assert counters["simulated"] == sum(map(len, batches))
        assert 1 <= counters["spawned"] <= 2
        assert counters["workers"] == counters["spawned"]

    def test_eight_clients_share_two_workers(self, server):
        """Stress: eight clients race shuffled copies of one point set
        through two simulation slots under a short switch interval.
        Every unique point simulates exactly once, and the two slots
        never hold more than two workers."""
        unique = [SweepPoint(k, cfg, mode=mode, scale=SCALE)
                  for k in ("sgemm-uc", "dither-or", "vvadd-uc")
                  for cfg, mode in (("io", "traditional"),
                                    ("io+x", "specialized"))]
        summaries, errors = [], []

        def one_client(seed):
            points = list(unique)
            random.Random(seed).shuffle(points)
            try:
                with ServeClient(server.address) as client:
                    summaries.append(client.submit(points))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=one_client, args=(seed,))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(summaries) == 8 and all(s.ok for s in summaries)
        assert sum(s.misses for s in summaries) == len(unique)
        with ServeClient(server.address) as client:
            counters = client.stats()["counters"]
        assert counters["simulated"] == len(unique)
        assert counters["points"] == 8 * len(unique)
        assert 1 <= counters["spawned"] <= 2

    def test_a_hung_up_client_sees_eof_while_a_worker_runs(
            self, tmp_path, monkeypatch):
        """Client A is connected when client B's point forks a worker,
        which then hangs.  When the server hangs up on A, A must see
        EOF at once -- not when B's worker is killed."""
        attempts = _log_attempts(monkeypatch, tmp_path / "attempts.log")
        hang = SweepPoint("sgemm-uc", "io", scale=SCALE)
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {hang.label(): {"hang": [0]}}))
        with ServerThread(jobs=2, timeout=4, retries=1,
                          socket_dir=str(tmp_path)) as st:
            a = connect(st.address)
            out = {}

            def client_b():
                with ServeClient(st.address) as client:
                    out["b"] = client.submit([hang])

            b = threading.Thread(target=client_b)
            try:
                protocol.send_frame(a, {"op": "ping"})
                assert protocol.recv_frame(a)["ok"]   # A is accepted
                b.start()
                deadline = time.monotonic() + 10
                while not attempts() and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert attempts()      # B's point hangs in its worker
                a.sendall(b"\xbe\xef\xca\xfe garbage that is not json")
                a.settimeout(5)
                t0 = time.monotonic()
                assert a.recv(1) == b""
                assert time.monotonic() - t0 < 1.0
            finally:
                a.close()
                if b.ident is not None:
                    b.join(timeout=30)
            assert not b.is_alive()
            assert out["b"].failures[0].kind == "hang"

    def test_stop_joins_every_worker(self, tmp_path, monkeypatch):
        """Stopping the server joins its workers, idle and busy: a
        point still in flight fails rather than outliving the pool."""
        attempts = _log_attempts(monkeypatch, tmp_path / "attempts.log")
        hang = SweepPoint("dither-or", "io", scale=SCALE)
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {hang.label(): {"hang": [0]}}))
        st = ServerThread(jobs=2, socket_dir=str(tmp_path)).start()
        errors = []

        def doomed():
            try:
                with ServeClient(st.address, reconnects=0) as client:
                    client.submit([hang])
            except (OSError, protocol.ProtocolError) as exc:
                errors.append(exc)

        t = threading.Thread(target=doomed)
        try:
            with ServeClient(st.address) as client:
                assert client.submit(POINTS).ok
            t.start()
            deadline = time.monotonic() + 10
            while hang.label() not in {label for label, _a, _p
                                       in attempts()} \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert st.server.workers.live >= 1
        finally:
            st.stop()
            if t.ident is not None:
                t.join(timeout=30)
        assert not st._thread.is_alive() and not t.is_alive()
        assert st.server.workers.live == 0
        assert not multiprocessing.active_children()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="needs /proc to find and tell workers")
    @pytest.mark.skipif(not hasattr(socket, "AF_UNIX"),
                        reason="needs unix sockets")
    def test_workers_exit_when_the_server_is_killed(self, tmp_path):
        """A ``repro serve`` process killed with SIGKILL cannot join
        its workers; each sees EOF on its pipe and exits."""
        sock = str(tmp_path / "serve.sock")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        env.pop(hardening.CHAOS_ENV, None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--jobs", "2", "--cache-dir", str(tmp_path / "cache")],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 30
            while not os.path.exists(sock):
                assert proc.poll() is None and \
                    time.monotonic() < deadline
                time.sleep(0.05)
            with ServeClient(sock) as client:
                assert client.submit(POINTS).ok
                assert client.stats()["counters"]["workers"] >= 1
            workers = _children(proc.pid)
            assert workers
        finally:
            proc.kill()
            proc.wait(timeout=10)
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline \
                    and not all(map(_exited, workers)):
                time.sleep(0.05)
            assert all(map(_exited, workers))
        finally:
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
