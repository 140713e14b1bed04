"""REPRO802 fixture: module-level imports of asyncio and the HTTP server."""

import asyncio
import json
from asyncio import Queue
from repro.service import ClusteringServiceServer  # a lazy server re-export
from repro.service.server import BackgroundServer

try:
    import repro.service.server as server  # a try block still runs at import
except ImportError:
    server = None


def encode(document):
    return json.dumps(document), Queue, asyncio, ClusteringServiceServer, BackgroundServer
