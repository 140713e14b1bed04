"""REPRO802 fixture: client-side imports at module level, the server in functions."""

from typing import TYPE_CHECKING

from repro.service import ServiceClient
from repro.service.client import encode_update

if TYPE_CHECKING:  # never runs
    from repro.service.server import BackgroundServer


def serve(manager) -> None:
    import asyncio

    from repro.service.server import ClusteringServiceServer

    asyncio.run(ClusteringServiceServer(manager).serve_forever())


def background(manager) -> "BackgroundServer":
    from repro.service import BackgroundServer

    return BackgroundServer(manager)


def client(port):
    return ServiceClient("127.0.0.1", port), encode_update
