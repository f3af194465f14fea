"""Synchronous client of the sweep service.

``repro sweep --server ADDR`` swaps the in-process
:class:`~repro.eval.parallel.SweepExecutor` for a
:class:`ServeClient`: the point list goes over the wire, the server
resolves every point (cache, in-flight join, or its work queue: one
of its own simulation slots or a leased ``repro worker``), and the
streamed results land in the same :class:`SweepSummary` shape the
executor produces -- downstream table/figure assembly cannot tell
the difference, because each returned record is also seeded into the
in-process memo exactly as the parallel executor seeds its workers'
results.

Robustness: :meth:`ServeClient.submit` survives a dying or restarting
server.  It tracks which submitted points have not yet been answered,
and on any transport failure reconnects with bounded exponential
backoff (:class:`~repro.resilience.backoff.Backoff`, budget restored
whenever progress is made) and resubmits exactly the unacknowledged
remainder -- answered points are never resubmitted, and a restarted
server answers the resubmission from its durable cache/journal rather
than re-simulating.  Only transport failures are retried: an explicit
``{"error": ...}`` verdict from the server raises
:class:`~repro.serve.protocol.RemoteError` immediately.
"""

from __future__ import annotations

import socket
import time

from ..eval import runner
from ..eval.hardening import PointFailure
from ..eval.parallel import PointOutcome, SweepSummary
from ..resilience.backoff import Backoff, BackoffExhausted
from . import protocol


def connect(address, timeout=None):
    """A connected socket for ``unix:PATH``, a path, or ``host:port``."""
    kind, host, port = protocol.parse_address(address)
    if kind == "unix":
        if not hasattr(socket, "AF_UNIX"):
            raise protocol.ProtocolError(
                "unix sockets unavailable on this platform; use "
                "host:port")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(host)
        return sock
    return socket.create_connection((host, port), timeout=timeout)


class ServeClient:
    """One connection to a sweep server.

    The connection is lazy (opened on first use) and persistent -- a
    client submits any number of batches over it.  Context-manager
    friendly.  *reconnects* bounds the consecutive transport failures
    a :meth:`submit` absorbs before giving up (the budget refills on
    every answered point).
    """

    def __init__(self, address, timeout=None, reconnects=8,
                 reconnect_base=0.05, reconnect_cap=2.0):
        self.address = address
        self.timeout = timeout
        self.reconnects = max(1, int(reconnects))
        self.reconnect_base = float(reconnect_base)
        self.reconnect_cap = float(reconnect_cap)
        self._sock = None

    def _socket(self):
        if self._sock is None:
            self._sock = connect(self.address, self.timeout)
        return self._sock

    def _drop_socket(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _roundtrip(self, msg):
        sock = self._socket()
        protocol.send_frame(sock, msg)
        reply = protocol.recv_frame(sock)
        if reply is None:
            raise protocol.ProtocolError(
                "server closed the connection mid-request")
        return reply

    def ping(self):
        return self._roundtrip({"op": "ping"})

    def stats(self):
        return self._roundtrip({"op": "stats"})

    def shutdown(self):
        """Ask the server to exit (it drains its work queue first);
        tolerates it dying before replying."""
        try:
            return self._roundtrip({"op": "shutdown"})
        except (protocol.ProtocolError, OSError):
            return {"ok": True}

    def submit(self, points):
        """Run *points* through the server; a :class:`SweepSummary`.

        Results stream back as the server finishes them, so a
        slow-simulating point does not delay delivery of the rest.
        Ordering in :attr:`SweepSummary.outcomes` follows completion
        order, matching the parallel executor's behaviour.  Transport
        failures reconnect and resubmit the unacknowledged remainder
        (see the module docstring).
        """
        points = list(points)
        start = time.perf_counter()
        summary = SweepSummary(jobs=1)
        if not points:
            return summary
        wires = [protocol.point_to_wire(p) for p in points]
        todo = set(range(len(points)))   # original indices unanswered
        backoff = Backoff(base=self.reconnect_base,
                          cap=self.reconnect_cap,
                          attempts=self.reconnects)
        while todo:
            try:
                self._submit_once(points, wires, todo, summary,
                                  backoff)
            except protocol.RemoteError:
                raise               # a deliberate verdict; no retrying
            except (protocol.ProtocolError, OSError) as exc:
                self._drop_socket()
                try:
                    backoff.sleep()
                except BackoffExhausted:
                    raise protocol.ProtocolError(
                        "server unreachable with %d point(s) "
                        "unresolved (%d reconnect attempts): %s"
                        % (len(todo), self.reconnects, exc))
        summary.wall_time = time.perf_counter() - start
        return summary

    def _submit_once(self, points, wires, todo, summary, backoff):
        """One submit round over a (re)connected socket: send the
        unanswered remainder, consume frames until ``done``.  Frame
        indices are into *this* round's submission; ``sent`` maps them
        back to original points."""
        sent = sorted(todo)
        sock = self._socket()
        protocol.send_frame(sock, {
            "op": "submit", "protocol": protocol.PROTOCOL_VERSION,
            "points": [wires[i] for i in sent]})
        while True:
            frame = protocol.recv_frame(sock)
            if frame is None:
                raise protocol.ProtocolError(
                    "server closed the connection with %d point(s) "
                    "unresolved" % len(todo))
            if "error" in frame and "type" not in frame:
                raise protocol.RemoteError(frame["error"])
            ftype = frame.get("type")
            if ftype == "done":
                if todo:
                    raise protocol.ProtocolError(
                        "done frame with %d point(s) unanswered"
                        % len(todo))
                summary.jobs = int(frame.get("jobs", 1))
                return
            fi = frame.get("i")
            idx = sent[fi] if isinstance(fi, int) \
                and 0 <= fi < len(sent) else None
            pt = points[idx] if idx is not None else None
            if ftype == "failure":
                if idx is not None:
                    todo.discard(idx)
                    backoff.reset()     # progress refills the budget
                summary.failures.append(PointFailure(
                    label=frame.get("label", "?"),
                    attempts=int(frame.get("attempts", 0)),
                    kind=frame.get("kind", "error"),
                    error=frame.get("error", "")))
                continue
            if ftype != "result" or pt is None:
                raise protocol.ProtocolError(
                    "unexpected frame %r" % (frame,))
            record = protocol.unpack_record(frame["record"])
            todo.discard(idx)
            backoff.reset()             # progress refills the budget
            # same memo seeding the parallel executor does for its
            # workers' results: downstream table assembly hits the memo
            runner.seed_result(pt.memo_key(), record)
            summary.outcomes.append(PointOutcome(
                point=pt, wall_time=float(frame.get("wall", 0.0)),
                simulated=bool(frame.get("simulated", False))))

    def close(self):
        self._drop_socket()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False
