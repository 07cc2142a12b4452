"""The serving tier: admission control + request coalescing.

This package is the one network front end for an index (``repro
serve``): one asyncio event loop multiplexing every connection, bounded
admission queues answering 429 + ``Retry-After`` under overload
(instead of the thread-per-client collapse of a threaded HTTP server),
and a coalescing dispatcher that fuses concurrent singleton requests
into the engine's batch entry points (``execute_many`` for reads, one
group-commit ``insert_many`` per write batch). It speaks a pipelined
JSONL protocol and the HTTP/1.1 contract of ``docs/wire-protocol.md``
on the same port, so the stdlib
:class:`~repro.cluster.client.ServeClient` and :class:`JsonlClient`
both talk to it. Start it with ``repro serve`` or embed it::

    from repro import connect
    from repro.serve import serve_async

    with serve_async(connect("db.gauss"), port=0) as server:
        host, port = server.address
        ...

Design notes live in ``docs/serving.md``.
"""

from repro.serve.admission import AdmissionConfig, AdmissionError, AdmissionQueue
from repro.serve.client import JsonlClient
from repro.serve.coalesce import CoalesceConfig
from repro.serve.server import AsyncQueryServer, serve_async

__all__ = [
    "AdmissionConfig",
    "AdmissionError",
    "AdmissionQueue",
    "AsyncQueryServer",
    "CoalesceConfig",
    "JsonlClient",
    "serve_async",
]
