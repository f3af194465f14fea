"""Sweep-as-a-service: the async result server, workers, and client.

See :mod:`repro.serve.protocol` for the wire format,
:mod:`repro.serve.server` for the asyncio server (every cache miss
goes on its one :mod:`repro.serve.queue` work queue, which deduplicates
it and which the server's own hardened simulation slots and any
``repro worker`` drain), :mod:`repro.serve.worker` for the ``repro
worker`` pull loop, and :mod:`repro.serve.client` for the synchronous
reconnecting client the CLI and the speed bench use.
``docs/SERVICE.md`` is the operator guide (the "Distributed
operation" section covers leases, heartbeats, the journal and the
failure matrix).
"""

from .client import ServeClient, connect
from .protocol import DEFAULT_PORT, PROTOCOL_VERSION, ProtocolError, \
    RemoteError, parse_address
from .queue import WorkQueue
from .server import ServerThread, SweepServer
from .worker import SweepWorker, WorkerThread, run_worker

__all__ = [
    "DEFAULT_PORT", "PROTOCOL_VERSION", "ProtocolError", "RemoteError",
    "ServeClient", "ServerThread", "SweepServer", "SweepWorker",
    "WorkQueue", "WorkerThread", "connect", "parse_address",
    "run_worker",
]
