"""Wire protocol of the sweep service: length-prefixed JSON frames.

Every message is a 4-byte big-endian length followed by a UTF-8 JSON
object.  JSON keeps the protocol debuggable (``socat`` + eyeballs) and
language-neutral; the one binary payload -- a finished
:class:`~repro.eval.runner.KernelRun` record, which must cross the
wire bit-identical -- rides inside it as base64-encoded pickle, the
same serialization a parallel sweep ships results over worker pipes
with.

Trust model: no op carries a record to the server, so the server
decodes none -- every record it serves was simulated by its own
workers or read from its own cache.  A client decodes the server's
records only through :func:`unpack_record`, which resolves only the
result-record classes (:func:`repro.eval.diskcache.loads_record`), so
no server can make a client run code.  Any process that connects can
submit points and stop the server, so listen on a unix socket or a
loopback or private address only.

Client -> server operations (protocol 3)::

    {"op": "ping"}
    {"op": "stats"}
    {"op": "shutdown"}              # waits for the points in flight
    {"op": "submit", "points": [<wire point>, ...]}

Server -> client, per submission, streamed as points complete::

    {"type": "result", "i": N, "label": ..., "source":
     "cache"|"inflight"|"sim", "simulated": bool, "wall": secs,
     "record": <base64 pickle>, "incidents": [{"kind": ...,
     "context": ..., "detail": ...}, ...]}
    {"type": "failure", "i": N, "label": ..., "kind": ...,
     "error": ..., "attempts": N}
    {"type": "done", "points": N, "simulated": N, "failed": N,
     "jobs": N}

A result frame's ``incidents`` are the degradations the point's
simulation absorbed (:class:`~repro.eval.runner.Incident`), such as a
fallback to the ``interp`` rung; a point served from the cache has
none.  The field is additive: a client that ignores it reads the
frame as before.

A *wire point* is the JSON image of a
:class:`~repro.eval.parallel.SweepPoint` -- named configurations only
(an ad-hoc :class:`SystemConfig` has no name to send).

Any op may instead be answered ``{"error": ...}`` -- an explicit
server verdict (an unknown op, a submit without a points list),
raised client-side as :class:`RemoteError` and never blindly
retried.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import pickle
import struct

from ..eval.diskcache import loads_record

#: frame size bound; a sweep submission of 10^5 points is ~10 MB, a
#: single KernelRun record a few hundred KB
MAX_FRAME = 256 << 20

_HEADER = struct.Struct("!I")

#: bumped on incompatible message-shape changes; ping reports it.
#: 2 added the worker ops and the draining shutdown; 3 removed the
#: worker ops again -- ping, stats, shutdown and submit are unchanged.
PROTOCOL_VERSION = 3

#: default TCP port of ``repro serve --listen``
DEFAULT_PORT = 7340


class ProtocolError(Exception):
    """A malformed, truncated, or oversized frame."""


class RemoteError(ProtocolError):
    """The server answered with an explicit ``{"error": ...}`` frame.

    Distinct from a transport-level :class:`ProtocolError` because the
    reconnecting client must treat them oppositely: a dead socket is
    retried with backoff, a deliberate server verdict never is."""


def encode_frame(msg):
    """One message as bytes: length header + compact JSON."""
    body = json.dumps(msg, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError("frame of %d bytes exceeds the %d bound"
                            % (len(body), MAX_FRAME))
    return _HEADER.pack(len(body)) + body


def _decode_body(body):
    try:
        msg = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("undecodable frame: %s" % exc)
    if not isinstance(msg, dict):
        raise ProtocolError("frame is not a JSON object")
    return msg


async def read_frame(reader):
    """Read one frame from an asyncio stream; None on clean EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None         # clean EOF between frames
        raise ProtocolError("truncated frame header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError("oversized frame (%d bytes)" % length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("truncated frame body")
    return _decode_body(body)


async def write_frame(writer, msg):
    writer.write(encode_frame(msg))
    await writer.drain()


def _recv_exact(sock, n):
    """Blocking receive of exactly *n* bytes; None on immediate EOF."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_frame(sock, msg):
    """Blocking client-side frame send."""
    sock.sendall(encode_frame(msg))


def recv_frame(sock):
    """Blocking client-side frame receive; None on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError("oversized frame (%d bytes)" % length)
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return _decode_body(body)


# ---------------------------------------------------------------------------
# payloads: records and wire points
# ---------------------------------------------------------------------------


def pack_record(obj):
    """A result record as a JSON-safe string (base64 pickle)."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_record(text):
    """Inverse of :func:`pack_record`, through
    :func:`~repro.eval.diskcache.loads_record`."""
    return loads_record(base64.b64decode(text))


def point_to_wire(pt):
    """:meth:`~repro.eval.parallel.SweepPoint.to_wire`, raising
    :class:`ProtocolError` for an ad-hoc configuration."""
    try:
        return pt.to_wire()
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def point_from_wire(data):
    """Inverse of :func:`point_to_wire`; ProtocolError if malformed."""
    from ..eval.parallel import SweepPoint
    try:
        return SweepPoint.from_wire(data)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def parse_address(text):
    """``host:port``, a filesystem path, or ``unix:PATH`` ->
    ``("tcp", host, port)`` or ``("unix", path, None)``.  Anything
    with a path separator (or no colon at all) is a unix socket."""
    if text.startswith("unix:"):
        return ("unix", text[len("unix:"):], None)
    if "/" in text or os.sep in text or ":" not in text:
        return ("unix", text, None)
    host, _, port = text.rpartition(":")
    try:
        return ("tcp", host or "127.0.0.1", int(port))
    except ValueError:
        raise ProtocolError("unparseable address %r" % text)
