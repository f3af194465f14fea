"""Sweep-as-a-service: the async result server and its client.

See :mod:`repro.serve.protocol` for the wire format,
:mod:`repro.serve.server` for the asyncio server (every cache miss
goes on its one :mod:`repro.serve.queue` work queue, which deduplicates
it and which the server's own hardened simulation slots drain), and
:mod:`repro.serve.client` for the synchronous reconnecting client the
CLI and the speed bench use.  ``docs/SERVICE.md`` is the operator
guide (the failure matrix, restart and resume, the trust model).
"""

from .client import ServeClient, connect
from .protocol import DEFAULT_PORT, PROTOCOL_VERSION, ProtocolError, \
    RemoteError, parse_address
from .queue import WorkQueue
from .server import ServerThread, SweepServer

__all__ = [
    "DEFAULT_PORT", "PROTOCOL_VERSION", "ProtocolError", "RemoteError",
    "ServeClient", "ServerThread", "SweepServer", "WorkQueue",
    "connect", "parse_address",
]
