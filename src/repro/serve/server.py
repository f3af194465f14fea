"""The sweep server: an asyncio result service over the shared cache.

``repro serve`` runs one :class:`SweepServer` per host.  Many clients
connect (unix socket or TCP) and submit sweep point batches; the
server answers each point from the cheapest tier that has it and
streams results back as they complete:

1. **cache** -- the in-process memo or the sharded disk store
   (:func:`repro.eval.runner.cached_result`); nothing is simulated.
   This is the production path: the cache *is* the product, and a
   warm sweep is served entirely from here.
2. **inflight** -- another waiter (another client, or an earlier point
   of the same submission) already started this point's simulation;
   the request joins that task.  One simulation fans out to every
   waiter.
3. **sim** -- a true miss becomes one task, kept in
   :attr:`SweepServer.inflight` under the point's memo key until it
   resolves.  It runs the point with
   :func:`repro.eval.hardening.execute_one` on the server's
   :class:`~repro.eval.hardening.WorkerPool` (persistent forked
   workers, the ``--timeout`` watchdog, retry, quarantine), on one of
   the ``--jobs`` threads of the server's executor, whose FIFO holds
   the misses waiting for a thread.  A quarantined point becomes a
   structured failure frame for every waiter, and never stalls other
   points or other clients.

The disk cache is the one durable store.  A restarted server serves
every point it finished from there, and a client resubmits its
unanswered points after a reconnect.  Results cross the wire as
pickled records (see :mod:`repro.serve.protocol`), so a
server-routed sweep is bit-identical to a direct ``runner.run`` --
the conformance tests assert it.

Concurrency model: the asyncio loop owns all bookkeeping (the
in-flight tasks, counters, frame writes); a miss's simulation runs on
a thread pool whose threads merely block on the hardened engine's
worker pipes, so the GIL is never contended by simulation work.  The
server holds one worker pool for its lifetime: a ``shutdown`` op,
:meth:`SweepServer.serve`'s exit and :meth:`ServerThread.stop` all
return only after every worker has been joined; a point still in
flight then stays unresolved.
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .. import __version__
from ..eval import diskcache, runner
from ..eval.hardening import HardeningPolicy, OneOutcome, WorkerPool, \
    execute_one
from . import protocol

#: seconds a graceful drain waits for the points in flight to resolve
DRAIN_TIMEOUT = 30.0


class SweepServer:
    """One result-serving process; see the module docstring.

    *jobs* is the number of simulations that run at once (None: the
    CPU count; at least 1, since only a simulation answers a miss),
    *timeout*/*retries*/*backoff* the per-point hardening knobs, and
    *idle_exit* stops the server after that many seconds with no
    client activity and nothing in flight (0 = run forever).
    """

    def __init__(self, jobs=None, timeout=0.0, retries=3, backoff=0.25,
                 idle_exit=0.0):
        self.jobs = (os.cpu_count() or 2) if jobs is None else int(jobs)
        if self.jobs < 1:
            raise ValueError("a sweep server needs at least one "
                             "simulation job (jobs=%d)" % self.jobs)
        self.policy = HardeningPolicy(timeout, retries, backoff)
        self.idle_exit = float(idle_exit or 0.0)
        self.counters = {
            "connections": 0, "submissions": 0, "points": 0,
            "served_cache": 0, "served_inflight": 0, "simulated": 0,
            "failed": 0, "retried": 0}
        #: memo key -> the task simulating that point, until it resolves
        self.inflight = {}
        #: submissions not yet answered in full; a drain waits for them
        self._submitting = 0
        #: the forked workers misses simulate on, joined when serve()
        #: ends
        self.workers = WorkerPool()
        self._threads = None
        self._stop_event = None
        self._active_connections = 0
        #: the stream writer of every open client connection
        self._writers = set()
        self._last_activity = 0.0
        #: "host:port" or the unix socket path, set once listening
        self.bound = None

    # -- lifecycle ---------------------------------------------------------

    def request_stop(self):
        """Ask the serve loop to wind down (threadsafe only via
        ``loop.call_soon_threadsafe``)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve(self, path=None, host=None, port=None, ready=None,
                    announce=None):
        """Listen and serve until a ``shutdown`` op or idle-exit.

        *path* selects a unix socket; otherwise *host*/*port* TCP
        (port 0 picks a free port -- :attr:`bound` reports it).
        *ready*, when given, is a :class:`threading.Event` set once
        listening; *announce* a callable handed one human line.
        """
        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._threads = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-serve")
        self._last_activity = loop.time()
        if path:
            if os.path.exists(path):
                os.unlink(path)   # stale socket from a dead server
            server = await asyncio.start_unix_server(
                self._handle_connection, path=path)
            self.bound = path
        else:
            server = await asyncio.start_server(
                self._handle_connection, host or "127.0.0.1",
                protocol.DEFAULT_PORT if port is None else port)
            sock = server.sockets[0].getsockname()
            self.bound = "%s:%d" % (sock[0], sock[1])
        if announce:
            announce("serving on %s (jobs=%d, cache=%s)"
                     % (self.bound, self.jobs,
                        diskcache.cache_dir()
                        if diskcache.enabled() else "disabled"))
        if ready is not None:
            ready.set()
        tasks = []
        if self.idle_exit:
            tasks.append(asyncio.ensure_future(self._idle_watchdog()))
        try:
            async with server:
                try:
                    await self._stop_event.wait()
                finally:
                    # leaving the block waits for every client
                    # connection to end (Python >= 3.12.1), so hang up
                    # on them all, as a stopped server's clients see
                    # on older Pythons: idle ones would never end, and
                    # a submit whose point is still running neither.
                    self._close_workers()
                    for writer in list(self._writers):
                        writer.close()
        finally:
            for task in tasks:
                task.cancel()
            self._threads.shutdown(wait=False)
            if path and os.path.exists(path):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def _close_workers(self):
        """Cancel the simulation tasks, then join every worker.  The
        tasks go first, so the failure of a point whose worker is
        killed is not credited: the point stays unresolved."""
        for task in self.inflight.values():
            task.cancel()
        self.workers.close()

    async def _idle_watchdog(self):
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(min(self.idle_exit, 5.0))
            idle = loop.time() - self._last_activity
            # an idle-exit server may not vanish beneath a point in
            # flight or one still waiting for a thread
            if (idle >= self.idle_exit
                    and self._active_connections == 0
                    and not self.inflight):
                self._stop_event.set()
                return

    def _touch(self):
        self._last_activity = asyncio.get_running_loop().time()

    # -- per-connection ----------------------------------------------------

    async def _handle_connection(self, reader, writer):
        self.counters["connections"] += 1
        self._active_connections += 1
        self._touch()
        write_lock = asyncio.Lock()
        self._writers.add(writer)
        try:
            while True:
                try:
                    msg = await protocol.read_frame(reader)
                except protocol.ProtocolError:
                    break       # a garbled client gets hung up on
                if msg is None:
                    break
                self._touch()
                op = msg.get("op")
                if op == "ping":
                    await protocol.write_frame(writer, {
                        "ok": True, "version": __version__,
                        "protocol": protocol.PROTOCOL_VERSION})
                elif op == "stats":
                    await protocol.write_frame(writer,
                                               self.stats_payload())
                elif op == "shutdown":
                    drained = await self._drain()
                    # reply only once no worker is left, so
                    # ``repro serve --stop`` returns after them
                    self._close_workers()
                    await protocol.write_frame(writer, {
                        "ok": True, "drained": drained})
                    self._stop_event.set()
                    break
                elif op == "submit":
                    self._submitting += 1
                    try:
                        await self._handle_submit(msg, writer, write_lock)
                    finally:
                        self._submitting -= 1
                else:
                    await protocol.write_frame(writer, {
                        "error": "unknown op %r" % (op,)})
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass                # client went away; its misses live on
        finally:
            self._writers.discard(writer)
            self._active_connections -= 1
            self._touch()
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass        # server tearing down under us is fine

    async def _drain(self):
        """Graceful wind-down: wait, up to :data:`DRAIN_TIMEOUT`, for
        every point in flight to resolve and every submission to be
        answered -- a point leaves :attr:`inflight` before its frame
        and its submission's ``done`` frame are written, and the stop
        hangs up on every client.  True when everything did."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_TIMEOUT
        while ((self.inflight or self._submitting)
               and loop.time() < deadline):
            await asyncio.sleep(0.05)
        return not (self.inflight or self._submitting)

    async def _handle_submit(self, msg, writer, write_lock):
        self.counters["submissions"] += 1
        raw = msg.get("points")
        if not isinstance(raw, list):
            await protocol.write_frame(writer, {
                "error": "submit without a points list"})
            return
        totals = {"points": 0, "simulated": 0, "failed": 0}

        async def one(i, data):
            frame = await self._point_frame(i, data)
            totals["points"] += 1
            totals["simulated"] += bool(frame.get("simulated"))
            totals["failed"] += frame["type"] == "failure"
            async with write_lock:
                await protocol.write_frame(writer, frame)

        self.counters["points"] += len(raw)
        await asyncio.gather(*(one(i, d) for i, d in enumerate(raw)))
        self._touch()
        async with write_lock:
            await protocol.write_frame(writer, {
                "type": "done", "jobs": self.jobs, **totals})

    async def _point_frame(self, i, data):
        """Resolve one wire point into its response frame."""
        try:
            pt = protocol.point_from_wire(data)
            source, out = await self._resolve(pt)
            label = pt.label()
        except protocol.ProtocolError as exc:
            self.counters["failed"] += 1
            return {"type": "failure", "i": i, "label": repr(data),
                    "kind": "protocol", "error": str(exc),
                    "attempts": 0}
        except Exception as exc:  # noqa: BLE001 - a bad point must not kill the server
            self.counters["failed"] += 1
            return {"type": "failure", "i": i, "label": repr(data),
                    "kind": "error",
                    "error": "%s: %s" % (type(exc).__name__, exc),
                    "attempts": 0}
        if out.failure is not None:
            return {"type": "failure", "i": i, "label": label,
                    "kind": out.failure.kind, "error": out.failure.error,
                    "attempts": out.failure.attempts}
        return {"type": "result", "i": i, "label": label,
                "source": source, "simulated": source == "sim",
                "wall": round(out.wall, 6),
                "record": protocol.pack_record(out.result),
                "incidents": [{"kind": inc.kind, "context": inc.context,
                               "detail": inc.detail}
                              for inc in out.incidents]}

    # -- point resolution --------------------------------------------------

    async def _resolve(self, pt):
        """``(source, outcome)`` for one point, the outcome a
        :class:`~repro.eval.hardening.OneOutcome`: cache probe, else
        join the task already simulating the point or start one, and
        await it.  shield() keeps the task alive if *we* are cancelled
        (our client hung up) -- the other waiters still want it."""
        cached = runner.cached_result(pt.kernel, pt.config,
                                      **pt.run_kwargs())
        if cached is not None:
            self.counters["served_cache"] += 1
            return "cache", OneOutcome(cached, None, 0.0, False)
        key = pt.memo_key()
        task = self.inflight.get(key)
        if task is not None:
            out = await asyncio.shield(task)
            self.counters["served_inflight"] += 1
            return "inflight", out
        if self.workers.closed:
            # a stopping server leaves a new miss unresolved, as it
            # leaves the ones it cancelled
            raise asyncio.CancelledError
        task = self.inflight[key] = asyncio.ensure_future(
            self._simulate(key, pt))
        out = await asyncio.shield(task)
        return ("sim" if out.simulated else "cache"), out

    async def _simulate(self, key, pt):
        """Run one miss on a worker of the pool, credit it and resolve
        its entry; its :class:`~repro.eval.hardening.OneOutcome`.  One
        that did not simulate was served by a cache a sibling process
        filled meanwhile."""
        out = await asyncio.get_running_loop().run_in_executor(
            self._threads, execute_one, pt, self.policy, self.workers)
        del self.inflight[key]
        self.counters["retried"] += out.retries
        if out.failure is not None:
            self.counters["failed"] += 1
        else:
            self.counters["simulated" if out.simulated
                          else "served_cache"] += 1
        return out

    # -- introspection -----------------------------------------------------

    def stats_payload(self):
        return {"ok": True, "version": __version__,
                "protocol": protocol.PROTOCOL_VERSION,
                "jobs": self.jobs, "inflight": len(self.inflight),
                "counters": dict(self.counters,
                                 spawned=self.workers.spawned,
                                 workers=self.workers.live)}


class ServerThread:
    """A :class:`SweepServer` on a background thread -- the harness
    tests, the speed bench, and interactive experiments drive a real
    client against a real socket without a second process.
    *server_kwargs* go to :class:`SweepServer`.

    Prefers a unix socket under *socket_dir* (a fresh temp dir by
    default); hosts without ``AF_UNIX`` fall back to TCP on a free
    port.  Use as a context manager, or ``start()``/``stop()``.
    """

    def __init__(self, jobs=2, socket_dir=None, **server_kwargs):
        self.server = SweepServer(jobs=jobs, **server_kwargs)
        self._socket_dir = socket_dir
        self._owns_dir = None
        self._thread = None
        self._ready = threading.Event()
        self._loop = None

    @property
    def address(self):
        return self.server.bound

    def start(self):
        import socket as socket_mod
        path = None
        if hasattr(socket_mod, "AF_UNIX"):
            if self._socket_dir is None:
                import tempfile
                self._owns_dir = tempfile.mkdtemp(prefix="repro-serve-")
                self._socket_dir = self._owns_dir
            else:
                os.makedirs(self._socket_dir, exist_ok=True)
            path = os.path.join(self._socket_dir, "serve.sock")

        async def main():
            self._loop = asyncio.get_running_loop()
            await self.server.serve(path=path, port=0,
                                    ready=self._ready)

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()),
            name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("sweep server failed to start")
        return self     # serve() sets bound before ready

    def stop(self):
        """Stop the server and join its thread, which ends only after
        the server's worker processes have been joined."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self.server.request_stop)
            except RuntimeError:
                pass        # loop already closed (idle-exit fired)
        if self._thread is not None:
            self._thread.join(timeout=30)
        if self._owns_dir:
            import shutil
            shutil.rmtree(self._owns_dir, ignore_errors=True)

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc):
        self.stop()
        return False
