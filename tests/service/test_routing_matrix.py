"""Routing matrix of the HTTP server: the (status, error code) of every request shape.

Every route shape the server serves is sent GET, POST, DELETE and PUT, and
so is each edge shape around them: a trailing slash, a cluster route with
no vertex, a string vertex that holds ``/``, an unknown tail, tenant or
debug name, an unknown query parameter on each checked route, and paths
outside ``/v1/``.  Each row runs against its own fresh durable server, in
the order GET, POST, DELETE, PUT, so no row depends on another's side
effects.

A second test records which requests the server hands to its executor
rather than running them on the event loop.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.core.config import StrCluParams
from repro.service.engine import EngineConfig
from repro.service.manager import EngineManager
from repro.service.server import BackgroundServer

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
FAST = EngineConfig(batch_size=8)
METHODS = ("GET", "POST", "DELETE", "PUT")

#: Body sent with POST and PUT, by the path's last segment.
BODIES = {
    "tenants": {"tenant": "acme"},
    "updates": {"updates": [["+", 1, 2], ["+", 2, 3], ["+", 1, 3]]},
    "group-by": {"vertices": [1, 2, 3]},
    "fence": {"epoch": 5},
    "reparent": {"replica_of": "127.0.0.1:1"},
}

NA = "405 method_not_allowed"
NF = "404 not_found"
UT = "404 unknown_tenant"
BR = "400 bad_request"

#: path -> expected "status[ code]" for GET, POST, DELETE and PUT.
MATRIX = {
    # every route shape
    "/metrics": ("200", NA, NA, NA),
    "/v1/healthz": ("200", NA, NA, NA),
    "/v1/debug/traces": ("200", NA, NA, NA),
    "/v1/debug/decisions": ("200", NA, NA, NA),
    "/v1/debug/profile?seconds=0.01": ("200", NA, NA, NA),
    "/v1/tenants": ("200", "201", NA, NA),
    "/v1/tenants/default": ("200", NA, "200", NA),
    "/v1/tenants/default/updates": (NA, "200", NA, NA),
    "/v1/tenants/default/group-by": (NA, "200", NA, NA),
    "/v1/tenants/default/cluster/1": ("200", NA, NA, NA),
    "/v1/tenants/default/stats": ("200", NA, NA, NA),
    "/v1/tenants/default/wal": ("200", NA, NA, NA),
    "/v1/tenants/default/snapshot": ("200", NA, NA, NA),
    "/v1/tenants/default/fence": (NA, "200", NA, NA),
    "/v1/tenants/default/promote": (NA, "409 not_a_standby", NA, NA),
    "/v1/tenants/default/topology": ("200", NA, NA, NA),
    "/v1/tenants/default/reparent": (NA, "409 not_a_standby", NA, NA),
    # as_of: honoured by three reads, ignored where no route checks it
    "/v1/tenants/default/stats?as_of=latest": ("200", NA, NA, NA),
    "/v1/tenants/default/group-by?as_of=latest": (NA, "200", NA, NA),
    "/v1/tenants/default/cluster/1?as_of=latest": ("200", NA, NA, NA),
    "/v1/tenants/default/cluster/1?as_of=0": ("200", NA, NA, NA),
    "/v1/tenants/default/updates?as_of=0": (NA, "200", NA, NA),
    "/v1/tenants/default?as_of=0": ("200", NA, "200", NA),
    "/v1/tenants?as_of=0": ("200", "201", NA, NA),
    # trailing slashes
    "/metrics/": (NF, NF, NF, NF),
    "/v1/": (NF, NF, NF, NF),
    "/v1/healthz/": (NF, NF, NF, NF),
    "/v1/debug/traces/": (NF, NF, NF, NF),
    "/v1/tenants/": (UT, NA, UT, NA),
    "/v1/tenants/default/": (NF, NF, NF, NF),
    "/v1/tenants/default/stats/": (NF, NF, NF, NF),
    "/v1/tenants/default/group-by/": (NF, NF, NF, NF),
    # the cluster route's vertex
    "/v1/tenants/default/cluster": (NA, NA, NA, NA),
    "/v1/tenants/default/cluster/": (BR, NA, NA, NA),
    "/v1/tenants/default/cluster/~a/b": ("200", NA, NA, NA),
    "/v1/tenants/default/cluster/~a%2Fb": ("200", NA, NA, NA),
    "/v1/tenants/default/cluster/1/": ("200", NA, NA, NA),
    "/v1/tenants/default/cluster/~": (BR, NA, NA, NA),
    # unknown tails, tenants and debug names
    "/v1/tenants/default/bogus": (NF, NF, NF, NF),
    "/v1/tenants/default/stats/extra": (NF, NF, NF, NF),
    "/v1/tenants/ghost": (UT, NA, UT, NA),
    "/v1/tenants/ghost/stats": (UT, UT, UT, UT),
    "/v1/tenants/ghost/cluster": (UT, UT, UT, UT),
    "/v1/tenants/ghost/cluster/1": (UT, UT, UT, UT),
    "/v1/tenants/ghost/bogus": (UT, UT, UT, UT),
    "/v1/debug": (NF, NF, NF, NF),
    "/v1/debug/nope": (NF, NF, NF, NF),
    "/v1/nope": (NF, NF, NF, NF),
    # an unknown query parameter on each checked route
    "/v1/tenants/default/group-by?bogus=1": (NA, BR, NA, NA),
    "/v1/tenants/default/cluster/1?bogus=1": (BR, NA, NA, NA),
    "/v1/tenants/default/stats?bogus=1": (BR, NA, NA, NA),
    "/v1/tenants/default/wal?bogus=1": (BR, NA, NA, NA),
    "/v1/tenants/default/snapshot?bogus=1": (BR, NA, NA, NA),
    "/v1/tenants/default/topology?shard=0": (BR, NA, NA, NA),
    "/v1/debug/traces?bogus=1": (BR, NA, NA, NA),
    "/v1/debug/decisions?bogus=1": (BR, NA, NA, NA),
    "/v1/debug/profile?bogus=1": (BR, NA, NA, NA),
    # ... and on routes that check none
    "/v1/tenants/default/updates?bogus=1": (NA, "200", NA, NA),
    "/v1/healthz?bogus=1": ("200", NA, NA, NA),
    "/metrics?bogus=1": ("200", NA, NA, NA),
    # outside /v1/
    "/": (NF, NF, NF, NF),
    "/v1": (NF, NF, NF, NF),
    "/healthz": (NF, NF, NF, NF),
    "/v2/healthz": (NF, NF, NF, NF),
    "/tenants/default/stats": (NF, NF, NF, NF),
}


@pytest.fixture
def background(tmp_path):
    with EngineManager(PARAMS, default_engine_config=FAST, data_root=tmp_path) as manager:
        with BackgroundServer(manager) as server:
            yield server


def _body_for(path: str):
    route = path.partition("?")[0].rstrip("/")
    return BODIES.get(route.rsplit("/", 1)[-1])


def _outcome(background, method: str, path: str) -> str:
    """One raw request; "status" or "status code" for an error envelope."""
    body = _body_for(path) if method in ("POST", "PUT") else None
    connection = http.client.HTTPConnection("127.0.0.1", background.port, timeout=10)
    try:
        connection.request(
            method, path, body=None if body is None else json.dumps(body)
        )
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    if response.status < 400:
        return str(response.status)
    return f"{response.status} {json.loads(raw)['error']['code']}"


@pytest.mark.parametrize("path", list(MATRIX))
def test_routing_matrix(background, path):
    got = tuple(_outcome(background, method, path) for method in METHODS)
    assert got == MATRIX[path]


#: (method, path) of every route, and of each as_of read with ``as_of``.
ROUTES = (
    ("GET", "/metrics"),
    ("GET", "/v1/healthz"),
    ("GET", "/v1/debug/traces"),
    ("GET", "/v1/debug/decisions"),
    ("GET", "/v1/debug/profile?seconds=0.01"),
    ("GET", "/v1/tenants"),
    ("POST", "/v1/tenants"),
    ("GET", "/v1/tenants/default"),
    ("DELETE", "/v1/tenants/ghost"),
    ("POST", "/v1/tenants/default/updates"),
    ("POST", "/v1/tenants/default/group-by"),
    ("POST", "/v1/tenants/default/group-by?as_of=latest"),
    ("GET", "/v1/tenants/default/cluster/1"),
    ("GET", "/v1/tenants/default/cluster/1?as_of=latest"),
    ("GET", "/v1/tenants/default/stats"),
    ("GET", "/v1/tenants/default/stats?as_of=latest"),
    ("GET", "/v1/tenants/default/wal"),
    ("GET", "/v1/tenants/default/snapshot"),
    ("POST", "/v1/tenants/ghost/fence"),
    ("POST", "/v1/tenants/default/promote"),
    ("GET", "/v1/tenants/default/topology"),
    ("POST", "/v1/tenants/default/reparent"),
)

#: The requests that may block for long and so leave the event loop.
BLOCKING = {
    ("GET", "/metrics"),
    ("GET", "/v1/debug/profile?seconds=0.01"),
    ("POST", "/v1/tenants"),
    ("DELETE", "/v1/tenants/ghost"),
    ("POST", "/v1/tenants/default/group-by?as_of=latest"),
    ("GET", "/v1/tenants/default/cluster/1?as_of=latest"),
    ("GET", "/v1/tenants/default/stats?as_of=latest"),
    ("GET", "/v1/tenants/default/wal"),
    ("GET", "/v1/tenants/default/snapshot"),
    ("POST", "/v1/tenants/ghost/fence"),
    ("POST", "/v1/tenants/default/promote"),
    ("POST", "/v1/tenants/default/reparent"),
}


def test_blocking_routes_leave_the_event_loop(background):
    server = background.server
    dispatch = server._dispatch
    on_loop = []

    def recording_dispatch(*args):
        on_loop.append(threading.current_thread() is background._thread)
        return dispatch(*args)

    server._dispatch = recording_dispatch
    blocked = set()
    for method, path in ROUTES:
        _outcome(background, method, path)
        assert len(on_loop) == 1, (method, path)
        if not on_loop.pop():
            blocked.add((method, path))
    assert blocked == BLOCKING
