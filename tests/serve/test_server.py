"""The sweep server end to end: global in-flight dedup across
concurrent clients, crash -> retry -> quarantine without stalling
anyone, warm resubmissions served entirely from the cache,
bit-identity with a direct in-process run, and recovery with the disk
cache as the one durable store: client reconnect across a server
restart, idle-exit and drain.

The server runs on a background thread (:class:`ServerThread`) over a
real unix socket, its simulations in real forked workers -- the same
machinery ``repro serve`` deploys, minus only the second OS process.
Its misses share one long-lived worker pool: workers are reused across
kernels and submissions, give up the sockets they inherit, and are all
joined when the server stops or dies.
"""

import asyncio
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
from repro.serve import ServeClient, ServerThread
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.client import connect
from tests.eval.test_hardening import _exited, _log_attempts

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
            # the disk store, not this process's dict
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
            assert "cache" not in stats

    def test_stats_never_walks_the_disk_cache(self, server,
                                              monkeypatch):
        """``stats`` answers on the event loop, where a walk of a large
        disk cache would hold up every connection; ``repro cache
        stats`` reports the disk totals instead."""
        def walk():
            raise AssertionError("stats walked the disk cache")

        monkeypatch.setattr(diskcache, "disk_stats", walk)
        with ServeClient(server.address) as client:
            stats = client.stats()
        assert stats["ok"] and "cache" not in stats

    def test_unknown_kernel_is_structured_failure(self, server):
        with ServeClient(server.address) as client:
            bad = [SweepPoint("no-such-kernel", "io", scale=SCALE)]
            summary = client.submit(bad + POINTS[:1])
            assert len(summary.failures) == 1
            assert "no-such-kernel" in summary.failures[0].error
            # the good point still came back
            assert len(summary.outcomes) == 1
        # a wire point that does not parse fails as well, and the
        # server counts both kinds of failure
        sock = connect(server.address)
        try:
            protocol.send_frame(sock, {"op": "submit", "points": [
                {"config": "io"},
                {"kernel": "no-such-kernel", "config": "io"}]})
            frames = [protocol.recv_frame(sock) for _ in range(3)]
        finally:
            sock.close()
        assert sorted(f["kind"] for f in frames[:2]) == \
            ["error", "protocol"]
        assert frames[2]["type"] == "done" and frames[2]["failed"] == 2
        with ServeClient(server.address) as client:
            counters = client.stats()["counters"]
        assert counters["points"] == 4 and counters["failed"] == 3

    def test_engine_failure_reaches_the_client_verbatim(self, server,
                                                        monkeypatch):
        """The failure frame carries the kind, error and attempt count
        of the :class:`PointFailure` the hardened engine built, as it
        built them: an engine-level failure ran no attempt, and its
        client reads 0 attempts, not 1."""
        pt = POINTS[0]
        failure = hardening.PointFailure(
            pt.label(), 0, "error", "engine: RuntimeError: boom")

        def engine_failure(point, policy, pool):
            return hardening.OneOutcome(None, failure, 0.0, False)

        monkeypatch.setattr(server_module, "execute_one", engine_failure)
        sock = connect(server.address)
        try:
            protocol.send_frame(sock, {"op": "submit", "points": [
                protocol.point_to_wire(pt)]})
            frame, done = protocol.recv_frame(sock), \
                protocol.recv_frame(sock)
        finally:
            sock.close()
        assert {k: frame[k] for k in ("type", "label", "kind", "error",
                                      "attempts")} == {
            "type": "failure", "label": pt.label(), "kind": "error",
            "error": "engine: RuntimeError: boom", "attempts": 0}
        assert done["type"] == "done" and done["failed"] == 1
        # the client turns the frame back into the same record
        with ServeClient(server.address) as client:
            summary = client.submit([pt])
            counters = client.stats()["counters"]
        assert summary.failures == [failure]
        assert counters["failed"] == 2 and counters["simulated"] == 0

    def test_misses_resolve_and_leave_nothing_in_flight(self, tmp_path):
        """Every miss simulates once and its task, done, leaves the
        in-flight table, so a shutdown drains at once."""
        st = ServerThread(jobs=2, socket_dir=str(tmp_path)).start()
        try:
            with ServeClient(st.address) as client:
                assert client.submit(POINTS).ok
                stats = client.stats()
            assert stats["counters"]["simulated"] == len(POINTS)
            assert stats["inflight"] == 0 and "queue" not in stats
            t0 = time.monotonic()
            with ServeClient(st.address) as client:
                assert client.shutdown()["drained"]
            assert time.monotonic() - t0 < 2.0
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

    def test_a_point_spelled_two_ways_simulates_once(self, server):
        """One submission carries a point twice, its wire fields in
        another order the second time: the server keys a miss by the
        point's memo key, so the second copy joins the first's
        simulation."""
        wire = protocol.point_to_wire(POINTS[1])
        shuffled = dict(reversed(list(wire.items())))
        assert list(shuffled) != list(wire)
        sock = connect(server.address)
        try:
            protocol.send_frame(sock, {"op": "submit",
                                       "points": [wire, shuffled]})
            frames = [protocol.recv_frame(sock) for _ in range(3)]
        finally:
            sock.close()
        assert [f["type"] for f in frames] == ["result", "result", "done"]
        assert sorted(f["source"] for f in frames[:2]) == \
            ["inflight", "sim"]
        assert frames[0]["record"] == frames[1]["record"]
        with ServeClient(server.address) as client:
            counters = client.stats()["counters"]
        assert counters["simulated"] == 1
        assert counters["served_inflight"] == 1


    def test_a_served_sweep_counts_its_points_as_a_direct_one(
            self, server, capsys):
        """The CLI deduplicates a sweep's points before either path:
        the two-kernel Table II sweep holds 24 unique points of 28,
        and through a server it completes and simulates 24, as a
        direct sweep does."""
        from repro.cli import main
        assert main(["sweep", "table2", "--scale", SCALE, "--kernels",
                     "vvadd-uc", "saxpy-uc", "--server", server.address,
                     "--quiet", "--expect-points", "24",
                     "--expect-sims-exact", "24"]) == 0, \
            capsys.readouterr()
        assert "24 points" in capsys.readouterr().out


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


@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"),
                    reason="unix sockets unavailable")
def test_a_failed_unix_connect_leaves_no_socket_open(tmp_path,
                                                    monkeypatch):
    opened = []

    class _Recorded(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(socket, "socket", _Recorded)
    with pytest.raises(OSError):
        connect("unix:" + str(tmp_path / "no-server.sock"))
    assert len(opened) == 1
    assert opened[0].fileno() == -1     # closed, not left to the GC


#: set when a record's unpickling called _trip: it never may
_TRIPPED = []


def _trip():
    _TRIPPED.append(True)


class _Hostile:
    """Unpickles by calling :func:`_trip` -- a stand-in for a pickle
    that runs a command."""

    def __reduce__(self):
        return (_trip, ())


def _abandon(st, held, quick):
    """Submit *quick* and *held* on a raw connection and hang up at
    once, as a client that dies mid-submit, then wait until the server
    has dropped the connection -- writing *quick*'s result fails --
    and only *held* is left unresolved, a point no client waits for."""
    sock = connect(st.address)
    try:
        protocol.send_frame(sock, {
            "op": "submit",
            "points": [protocol.point_to_wire(quick),
                       protocol.point_to_wire(held)]})
    finally:
        sock.close()
    server = st.server
    deadline = time.monotonic() + 30
    while (server._active_connections
           or set(server.inflight) != {held.memo_key()}) \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server._active_connections == 0
    assert set(server.inflight) == {held.memo_key()}


def test_no_peer_can_plant_a_record(tmp_path, monkeypatch):
    """No op hands the server a record: each former worker op gets the
    ``unknown op`` frame, a ``complete`` carrying a tripwire pickle for
    an unresolved point is never unpickled, and the connection still
    serves a submit afterwards."""
    held, other, quick = POINTS
    wire = protocol.point_to_wire(held)
    # the abandoned point hangs in its worker: unresolved throughout
    monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
        {held.label(): {"hang": [0]}}))
    decoded = []
    real = protocol.loads_record

    def spy(data):
        decoded.append(data)
        return real(data)

    monkeypatch.setattr(protocol, "loads_record", spy)
    hostile = protocol.pack_record(_Hostile())
    with ServerThread(jobs=2, socket_dir=str(tmp_path / "sock")) as st:
        _abandon(st, held, quick)
        sock = connect(st.address)
        try:
            for op in ("register", "lease", "heartbeat", "complete",
                       "fail"):
                protocol.send_frame(sock, {
                    "op": op, "worker_id": 1, "lease_id": 1,
                    "point": wire, "record": hostile, "kind": "crash"})
                assert protocol.recv_frame(sock) == {
                    "error": "unknown op %r" % op}
            protocol.send_frame(sock, {
                "op": "submit",
                "points": [protocol.point_to_wire(other)]})
            result, done = protocol.recv_frame(sock), \
                protocol.recv_frame(sock)
        finally:
            sock.close()
        assert result["type"] == "result"
        assert result["label"] == other.label()
        assert done["type"] == "done" and done["simulated"] == 1
        assert held.memo_key() in st.server.inflight
    assert decoded == [] and _TRIPPED == []


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

    def test_a_quarantined_point_is_simulated_afresh(self, server,
                                                     monkeypatch,
                                                     tmp_path):
        """The server keeps no verdict on a quarantined point: submitted
        again, it simulates afresh from its first attempt."""
        attempts = _log_attempts(monkeypatch, tmp_path / "attempts.log")
        pt = POINTS[0]
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {pt.label(): {"crash": [0, 1]}}))
        with ServeClient(server.address) as client:
            first = client.submit([pt])
            assert [f.attempts for f in first.failures] == [2]
            # both crashes retired their workers, so the next one
            # forks without the chaos plan
            monkeypatch.delenv(hardening.CHAOS_ENV)
            second = client.submit([pt])
            counters = client.stats()["counters"]
        assert second.ok and second.misses == 1
        assert [attempt for _label, attempt, _pid in attempts()] == \
            [0, 1, 0]
        assert counters["failed"] == 1 and counters["simulated"] == 1


def test_a_served_point_reports_its_workers_incidents(server,
                                                      monkeypatch):
    """A fast-path failure in a pool worker is absorbed by the interp
    fallback and recorded as an incident: the result frame carries
    it, and the client lists it as a direct sweep does."""
    from repro.eval.parallel import sweep
    from repro.uarch.system import SystemSimulator
    real_run = SystemSimulator.run

    def exploding(sim, *args, **kwargs):
        if sim.backend != "interp":
            raise RuntimeError("fast path exploded")
        return real_run(sim, *args, **kwargs)

    # forked workers inherit the patch
    monkeypatch.setattr(SystemSimulator, "run", exploding)
    points = POINTS[:2]
    direct = sweep(points, jobs=2)
    runner.clear_cache()
    with ServeClient(server.address) as client:
        served = client.submit(points)
    for summary in (direct, served):
        assert summary.ok and summary.misses == 2, summary.render()
        assert sorted((inc.kind, inc.context) for inc in
                      summary.incidents) == sorted(
            ("fast-path-fallback", "%s/%s/%s/%s/%s" % (
                pt.kernel, pt.config, pt.mode, pt.binary, pt.scale))
            for pt in points)
        assert all("fast path exploded" in inc.detail
                   for inc in summary.incidents)


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
        through two simulation threads under a short switch interval.
        Every unique point simulates exactly once, and the server never
        holds more than two workers."""
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

    def test_a_failed_fork_fails_the_point(self, tmp_path, monkeypatch):
        """A miss that can fork no worker fails with the spawn error.
        It never falls back to simulating in the server's own process,
        where its threads could arm no ``--timeout`` watchdog."""
        def no_fork(pool):
            raise OSError("process table full")

        monkeypatch.setattr(hardening.WorkerPool, "_fork", no_fork)
        before = runner.simulations
        with ServerThread(jobs=2, timeout=1.0,
                          socket_dir=str(tmp_path)) as st:
            sock = connect(st.address)
            try:
                protocol.send_frame(sock, {"op": "submit", "points": [
                    protocol.point_to_wire(POINTS[0])]})
                frame, done = protocol.recv_frame(sock), \
                    protocol.recv_frame(sock)
            finally:
                sock.close()
            with ServeClient(st.address) as client:
                counters = client.stats()["counters"]
        assert frame["type"] == "failure", frame
        assert (frame["kind"], frame["attempts"]) == ("error", 0)
        assert frame["error"] == "worker spawn failed: process table full"
        assert done["failed"] == 1
        assert runner.simulations == before
        assert counters["spawned"] == 0 and counters["simulated"] == 0

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


class TestJournalResume:
    """The disk cache is the journal of completed work: it is all a
    crashed server leaves behind, and all its successor resumes
    from."""

    def test_server_restart_resumes_without_resimulating(
            self, tmp_path):
        """Crash the server mid-campaign: a successor with the same
        disk cache serves completed points from it and finishes only
        the remainder."""
        with ServerThread(jobs=2,
                          socket_dir=str(tmp_path / "sock1")) as st:
            with ServeClient(st.address) as client:
                first = client.submit(POINTS[:2])
                assert first.ok and first.misses == 2
        # ServerThread.stop() is a hard stop: no drain, no farewell --
        # the disk cache is all that survives

        runner.clear_cache(keep_disk=True)   # new process, cold memo
        with ServerThread(jobs=2,
                          socket_dir=str(tmp_path / "sock2")) as st:
            with ServeClient(st.address) as client:
                resumed = client.submit(POINTS)
                assert resumed.ok
                assert resumed.points == len(POINTS)
                # the completed part is cache-served, never re-run
                assert resumed.misses == len(POINTS) - 2
                counters = client.stats()["counters"]
                assert counters["simulated"] == len(POINTS) - 2


class TestClientReconnect:
    def test_resubmit_between_batches_after_server_restart(
            self, tmp_path):
        """A persistent client survives its server being replaced
        between submissions: the dead socket is detected, reconnected
        with backoff, and the batch resubmitted."""
        sockdir = str(tmp_path / "sock")
        st1 = ServerThread(jobs=2, socket_dir=sockdir).start()
        client = ServeClient(st1.address)
        try:
            first = client.submit(POINTS[:2])
            assert first.ok and first.points == 2
        finally:
            st1.stop()
        # a new server on the SAME socket path; the client's socket
        # is a stale fd to the old one
        st2 = ServerThread(jobs=2, socket_dir=sockdir).start()
        try:
            assert st2.address == st1.address
            second = client.submit(POINTS)
            assert second.ok and second.points == len(POINTS)
            # completed work came from the shared cache, not re-sim
            assert second.misses == len(POINTS) - 2
        finally:
            client.close()
            st2.stop()

    def test_resubmit_mid_submit_when_server_dies(self, tmp_path,
                                                  monkeypatch):
        """The server dies while a submit waits on points its workers
        are running; a successor appears on the same path; the client
        reconnects mid-submit and resubmits the unacknowledged
        remainder."""
        attempts = _log_attempts(monkeypatch, tmp_path / "attempts.log")
        held = POINTS[:2]
        # the first server's workers hang on every held point; stopping
        # it kills them, so its submit stays in flight until then
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {pt.label(): {"hang": [0]} for pt in held}))
        sockdir = str(tmp_path / "sock")
        st1 = ServerThread(jobs=2, socket_dir=sockdir).start()
        out, errors = {}, []

        def submit():
            try:
                with ServeClient(st1.address, reconnects=12) as client:
                    out["summary"] = client.submit(held)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        t = threading.Thread(target=submit)
        t.start()
        try:
            deadline = time.monotonic() + 10
            while len(attempts()) < len(held) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(attempts()) == len(held)   # both workers hang
        finally:
            st1.stop()               # server dies mid-submit
        # the successor's workers fork without the chaos plan
        monkeypatch.delenv(hardening.CHAOS_ENV)
        st2 = ServerThread(jobs=2, socket_dir=sockdir).start()
        try:
            t.join(timeout=60)
            assert not t.is_alive()
            assert not errors, errors
            assert out["summary"].ok
            assert out["summary"].points == len(held)
            assert out["summary"].misses == len(held)
        finally:
            st2.stop()


class TestIdleExit:
    def test_idle_exit_waits_for_abandoned_work(self, tmp_path,
                                                monkeypatch):
        """An --idle-exit server must not vanish while a point whose
        client hung up is unresolved; once it is done, the server
        exits on schedule."""
        held = POINTS[0]
        quick = SweepPoint("vvadd-uc", "io", scale=SCALE)
        # the abandoned point's first attempt hangs until the 3 s
        # watchdog kills it, well past the 0.4 s idle window
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {held.label(): {"hang": [0]}}))
        st = ServerThread(jobs=2, socket_dir=str(tmp_path / "sock"),
                          idle_exit=0.4, timeout=3,
                          backoff=0.01).start()
        try:
            _abandon(st, held, quick)
            time.sleep(1.0)
            assert st._thread.is_alive()
            assert st.server.inflight
            st._thread.join(timeout=30)
            assert not st._thread.is_alive()
            assert not st.server.inflight
            assert st.server.counters["retried"] == 1
        finally:
            st.stop()


class TestGracefulDrain:
    def test_shutdown_waits_for_queued_points(self, tmp_path,
                                              monkeypatch):
        """``shutdown`` replies only once nothing is in flight: a point
        whose first attempt hangs past the watchdog is retried and
        answered before the server stops, and the reply says
        ``drained``."""
        attempts = _log_attempts(monkeypatch, tmp_path / "attempts.log")
        held = POINTS[0]
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {held.label(): {"hang": [0]}}))
        with ServerThread(jobs=2, timeout=1.5, backoff=0.01,
                          socket_dir=str(tmp_path / "sock")) as st:
            out = {}

            def submit():
                with ServeClient(st.address) as client:
                    out["summary"] = client.submit(POINTS)

            t = threading.Thread(target=submit)
            t.start()
            deadline = time.monotonic() + 10
            while held.label() not in {label for label, _a, _p
                                       in attempts()} \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert st.server.inflight           # held is in flight
            with ServeClient(st.address) as stopper:
                reply = stopper.shutdown()
            assert reply["drained"]
            assert not st.server.inflight
            t.join(timeout=60)
            assert not t.is_alive()
            # the drain waited: every point completed
            assert out["summary"].ok
            assert out["summary"].points == len(POINTS)

    def test_shutdown_waits_for_unwritten_frames(self, tmp_path,
                                                 monkeypatch):
        """A point leaves ``inflight`` before its frame, and its
        submission's ``done`` frame, are written; a stop that lands
        in between must not hang up on the client.  The drain waits
        for every submission to be answered, so the client reads every
        frame.  Each frame is held back 0.3 s here, which makes that
        window certain."""
        real = server_module.SweepServer._point_frame

        async def held_back(self, i, data):
            frame = await real(self, i, data)
            await asyncio.sleep(0.3)
            return frame

        monkeypatch.setattr(server_module.SweepServer, "_point_frame",
                            held_back)
        with ServerThread(jobs=2, socket_dir=str(tmp_path / "sock")) as st:
            out = {}

            def submit():
                with ServeClient(st.address) as client:
                    out["summary"] = client.submit(POINTS)

            t = threading.Thread(target=submit)
            t.start()
            deadline = time.monotonic() + 10
            while not st.server.counters["submissions"] \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            with ServeClient(st.address) as stopper:
                reply = stopper.shutdown()
            assert reply["drained"]
            t.join(timeout=60)
            assert not t.is_alive()
            assert out["summary"].ok
            assert out["summary"].points == len(POINTS)
