"""Sweep-as-a-service: the async result server and its client.

See :mod:`repro.serve.protocol` for the wire format,
:mod:`repro.serve.server` for the asyncio server (it answers each
point from the cache, joins a simulation already in flight, or runs
the miss on its hardened worker pool with
:func:`repro.eval.hardening.execute_one`), and
:mod:`repro.serve.client` for the synchronous reconnecting client the
CLI and the speed bench use.  ``docs/SERVICE.md`` is the operator
guide (the failure matrix, restart and resume, the trust model).
"""

from .client import ServeClient, connect
from .protocol import DEFAULT_PORT, PROTOCOL_VERSION, ProtocolError, \
    RemoteError, parse_address
from .server import ServerThread, SweepServer

__all__ = [
    "DEFAULT_PORT", "PROTOCOL_VERSION", "ProtocolError", "RemoteError",
    "ServeClient", "ServerThread", "SweepServer", "connect",
    "parse_address",
]
