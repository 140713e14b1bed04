"""Stdlib-only asyncio JSON-over-HTTP front-end for multi-tenant clustering.

The server is deliberately minimal — ``asyncio.start_server`` plus a small
HTTP/1.1 request parser — because the container targets environments with
no third-party web stack.  Since v1 it hosts an
:class:`~repro.service.manager.EngineManager` (many named engines) and
routes by tenant:

========  ====================================  ============================
Method    Path                                  Semantics
========  ====================================  ============================
GET       ``/v1/healthz``                       Liveness + tenant aggregate
GET       ``/v1/tenants``                       List tenants
POST      ``/v1/tenants``                       Create a tenant
DELETE    ``/v1/tenants/{t}``                   Delete a tenant
POST      ``/v1/tenants/{t}/updates``           Enqueue edge updates
                                                (429 + ``Retry-After`` under
                                                backpressure)
POST      ``/v1/tenants/{t}/group-by``          Snapshot-consistent group-by
GET       ``/v1/tenants/{t}/cluster/{v}``       Clusters of one vertex
GET       ``/v1/tenants/{t}/stats``             View statistics + metrics
GET       ``/metrics``                          Prometheus text exposition
GET       ``/v1/debug/traces``                  Recent spans (``?trace_id=``)
GET       ``/v1/debug/decisions``               Fleet decision-log events
GET       ``/v1/debug/profile``                 Sampling profiler (collapsed
                                                stacks; ``?seconds=N``)
========  ====================================  ============================

Every request is traced: the server mints a ``trace_id`` (or adopts a
client-supplied ``X-Repro-Trace`` header, which additionally samples the
request's updates for end-to-end propagation) and echoes it back as an
``X-Repro-Trace`` response header; see ``docs/OBSERVABILITY.md``.

Apart from ``/metrics``, every path outside ``/v1/`` answers 404
``not_found``.

Every v1 error body is the structured envelope::

    {"error": {"code": "...", "message": "...", "retryable": true|false}}

optionally with route-specific siblings (the 429 adds ``accepted``,
``queue_depth`` and ``retry_after_ms`` next to the envelope).

Request/response bodies are JSON.  Updates use the compact wire form
``[op, u, v]`` with ``op`` in ``{"+", "-"}``.  Vertex identifiers are
**lossless**: a JSON int stays an int, a JSON string stays a string (the
int ``123`` and the string ``"123"`` are distinct vertices), and path
segments use the WAL's token escaping (``/cluster/123`` is the int,
``/cluster/~123`` the string).  All reads are served from each engine's
published immutable view, so a slow or bursty ingest never blocks a reader
and every response is internally consistent (it reflects exactly one
prefix of that tenant's update stream, reported as ``view_version``).
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

from urllib.parse import parse_qs, unquote

import repro
from repro.core.dynelm import Update
from repro.graph.dynamic_graph import Vertex
from repro.persistence.updatelog import (
    UpdateLogError,
    WalGapError,
    format_vertex_token,
    parse_vertex_token,
    read_wal_range,
)
from repro.service.client import ServiceError, encode_update, parse_primary_url
from repro.service.engine import (
    ClusteringEngine,
    EngineBackpressure,
    EngineError,
    EngineFenced,
    ReadOnlyEngineError,
    canonicalise_vertex,
)
from repro.service.manager import (
    EngineManager,
    NotAStandbyError,
    TenantDeleteError,
    TenantExistsError,
    TenantLimitError,
    UnknownTenantError,
)
from repro.service.obs import (
    decision_events,
    get_tracer,
    new_trace_id,
    render_metrics,
    sample_stacks,
)
from repro.service.replication import (
    DEFAULT_FETCH_RECORDS,
    MAX_FETCH_RECORDS,
    ReplicationError,
    StandbyEngine,
)
from repro.service.sharding import ShardedEngine
from repro.service.timetravel import AsOfUnavailableError

#: Largest accepted request body (1 MiB keeps parsing trivially safe).
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Allowed query parameters per v1 read route — anything else is a 400.
#: (Silently ignoring a mistyped ``?asof=`` would serve the *latest* view
#: while the caller believes they asked for history.)
_AS_OF_QUERY_PARAMS = frozenset({"as_of"})
_WAL_QUERY_PARAMS = frozenset({"from", "shard", "max", "ack"})
_SNAPSHOT_QUERY_PARAMS = frozenset({"shard"})
_DEBUG_TRACES_PARAMS = frozenset({"trace_id", "limit"})
_DEBUG_DECISIONS_PARAMS = frozenset({"limit"})
_DEBUG_PROFILE_PARAMS = frozenset({"seconds", "interval"})

#: Accepted shape of a client-supplied ``X-Repro-Trace`` header value.
#: Anything else is ignored (treated as absent) rather than echoed back.
_TRACE_ID_CHARS = frozenset("0123456789abcdefABCDEF-_.")
_TRACE_ID_MAX_LEN = 64

#: Extra headers attached to a response (name → value).
Headers = Dict[str, str]


class RawBody:
    """A non-JSON response body (the ``/metrics`` text exposition)."""

    def __init__(self, payload: bytes, content_type: str) -> None:
        self.payload = payload
        self.content_type = content_type


#: What a route handler produces.
Response = Tuple[int, Union[Dict[str, object], RawBody], Headers]


class BadRequest(ValueError):
    """Raised by request decoding; mapped to a 400 response."""


class _ProtocolError(Exception):
    """A malformed HTTP request; answered with ``status`` and closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def error_envelope(
    code: str, message: str, retryable: bool = False
) -> Dict[str, object]:
    """The v1 structured error body."""
    return {"error": {"code": code, "message": message, "retryable": retryable}}


def retry_after_header(retry_after_ms: int) -> str:
    """The ``Retry-After`` header value for a 429, from the body's ms hint.

    ``Retry-After`` only speaks integer seconds, so the header is the
    *ceiling* of the millisecond hint — a header-only client never retries
    before the suggested moment — and ``0`` is allowed (retry immediately)
    rather than being rounded up to a fabricated 1 s stall.  Clients that
    parse the JSON body should honour the smaller, precise
    ``retry_after_ms`` (see
    :attr:`repro.service.client.BackpressureError.retry_after_s`).
    """
    return str(max(0, math.ceil(retry_after_ms / 1000.0)))


def _decode_vertex(value: object) -> Vertex:
    """JSON value → vertex identifier, losslessly.

    Ints stay ints, strings stay strings — ``123`` and ``"123"`` are
    different vertices.  The canonical identifier space is defined once, by
    :func:`repro.service.engine.canonicalise_vertex`; anything outside it
    (bools, floats, empty or whitespace-bearing strings) maps to a 400.
    """
    if not isinstance(value, (int, str)):
        raise BadRequest(f"vertex identifiers must be ints or strings, got {value!r}")
    try:
        return canonicalise_vertex(value)
    except ValueError as exc:
        raise BadRequest(str(exc)) from exc


def decode_updates(payload: object) -> List[Update]:
    """Parse the ``/updates`` body: ``{"updates": [["+", u, v], ...]}``."""
    if not isinstance(payload, dict) or "updates" not in payload:
        raise BadRequest('body must be {"updates": [[op, u, v], ...]}')
    entries = payload["updates"]
    if not isinstance(entries, list):
        raise BadRequest('"updates" must be a list')
    updates: List[Update] = []
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise BadRequest(f"malformed update entry {entry!r}")
        op, u, v = entry
        if op == "+":
            updates.append(Update.insert(_decode_vertex(u), _decode_vertex(v)))
        elif op == "-":
            updates.append(Update.delete(_decode_vertex(u), _decode_vertex(v)))
        else:
            raise BadRequest(f"unknown update op {op!r} (expected '+' or '-')")
    return updates


class ClusteringServiceServer:
    """Serve an :class:`EngineManager` over JSON/HTTP on asyncio.

    Accepts either a manager (the multi-tenant path) or a bare
    :class:`ClusteringEngine` / :class:`ShardedEngine`, which is adopted as
    the ``default`` tenant (``repro serve --shards``, tests and examples).
    """

    def __init__(
        self,
        manager: Union[EngineManager, ClusteringEngine, ShardedEngine],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if isinstance(manager, (ClusteringEngine, ShardedEngine)):
            manager = EngineManager.adopt(manager)
        self.manager = manager
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        # every open connection → its handler task (event-loop thread only)
        self._connections: Dict[asyncio.StreamWriter, "asyncio.Task[None]"] = {}
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ClusteringServiceServer":
        self._closing = False
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self._requested_port
        )
        return self

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the kernel-assigned one)."""
        if self._server is None or not self._server.sockets:
            # repro: allow[REPRO501] lifecycle error for the embedding
            # process (server not started), never surfaced to a client
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._closing = True
            self._server.close()
            # close every connection and wait for its handler (parked: reads
            # EOF; mid-request: ends without parking again); asyncio logs
            # an ERROR for any handler still to cancel at loop shutdown
            for writer in self._connections:
                writer.close()
            if self._connections:
                await asyncio.wait(list(self._connections.values()))
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while not self._closing:
                try:
                    request = await _read_request(reader)
                except _ProtocolError as exc:
                    payload = json.dumps(
                        error_envelope("protocol_error", exc.message)
                    ).encode("utf-8")
                    writer.write(
                        _response_bytes(exc.status, payload, keep_alive=False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                supplied = _valid_trace_id(headers.get("x-repro-trace"))
                # a client-supplied id marks the request *sampled*: its
                # updates are tagged and traced end-to-end; server-minted
                # ids still name the request span but stay off the ingest
                # hot path (see repro.service.obs.SpanContext)
                trace_id = supplied if supplied is not None else new_trace_id()
                sampled = supplied is not None
                if self._is_blocking_route(method, path, query):
                    # tenant lifecycle can block for seconds (standby
                    # seeding over HTTP, fence attempts against a dead
                    # primary, final checkpoints): run it in a worker
                    # thread so every other tenant's requests keep flowing
                    status, document, extra_headers = (
                        await asyncio.get_running_loop().run_in_executor(
                            None,
                            self._dispatch,
                            method,
                            path,
                            body,
                            query,
                            trace_id,
                            sampled,
                        )
                    )
                else:
                    # repro: allow[REPRO401] fast path: _is_blocking_route
                    # just ruled this a non-blocking read; the executor hop
                    # would cost more than the dispatch itself
                    status, document, extra_headers = self._dispatch(
                        method, path, body, query, trace_id, sampled
                    )
                if isinstance(document, RawBody):
                    payload = document.payload
                    content_type = document.content_type
                else:
                    payload = json.dumps(document).encode("utf-8")
                    content_type = "application/json"
                extra_headers = dict(extra_headers)
                extra_headers.setdefault("X-Repro-Trace", trace_id)
                keep_alive = headers.get("connection", "keep-alive") != "close"
                writer.write(
                    _response_bytes(
                        status, payload, keep_alive, extra_headers, content_type
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        finally:
            del self._connections[writer]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # shutdown cancelled a handler mid-request; already closed
                pass

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @staticmethod
    def _is_blocking_route(method: str, path: str, query: str = "") -> bool:
        """Routes whose handlers may block for seconds, not microseconds.

        Tenant creation can crash-recover a large snapshot+WAL or seed a
        standby over HTTP from its primary (one snapshot download per
        shard), deletion cuts a final checkpoint, promotion retries a
        fence against a possibly-dead primary with full network timeouts,
        and the WAL/snapshot serving routes read segment/checkpoint files
        from disk on every replica poll — none of which may stall the
        event loop every tenant shares.  Likewise any tenant read carrying
        ``as_of``: a cold historical query restores a snapshot anchor and
        replays retained WAL from disk.
        """
        segments = [segment for segment in path.split("/") if segment]
        if segments == ["metrics"] or segments == ["v1", "debug", "profile"]:
            # /metrics walks every tenant's engines (locks, WAL horizons);
            # the profiler deliberately blocks for the sampled window
            return True
        if (
            segments[:2] == ["v1", "tenants"]
            and "as_of" in _parse_query(query)
        ):
            return True
        if method == "POST":
            # fence belongs here too: it fsyncs a manifest per shard, and
            # reparent probes the new primary with full network timeouts
            return segments == ["v1", "tenants"] or (
                len(segments) == 4
                and segments[:2] == ["v1", "tenants"]
                and segments[3] in ("promote", "fence", "reparent")
            )
        if method == "DELETE":
            return len(segments) == 3 and segments[:2] == ["v1", "tenants"]
        return (
            method == "GET"
            and len(segments) == 4
            and segments[:2] == ["v1", "tenants"]
            and segments[3] in ("wal", "snapshot")
        )

    def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        query: str = "",
        trace_id: Optional[str] = None,
        sampled: bool = False,
    ) -> Response:
        """Route one request under its ``http.request`` span.

        The span is opened *here* — in whichever thread actually runs the
        handler — because the active-span contextvar must be visible to
        the handler code (``run_in_executor`` does not copy the caller's
        context), and ``sampled`` governs whether submitted updates are
        tagged for end-to-end tracing (see
        :func:`repro.service.obs.tag_update`).
        """
        if trace_id is None:
            trace_id = new_trace_id()
        with get_tracer().span(
            "http.request",
            trace_id=trace_id,
            sampled=sampled,
            method=method,
            path=path,
        ):
            return self._dispatch_routes(method, path, body, query)

    def _dispatch_routes(
        self, method: str, path: str, body: bytes, query: str = ""
    ) -> Response:
        try:
            if path == "/metrics":
                if method != "GET":
                    return self._method_not_allowed(method, path)
                text = render_metrics(self.manager, version=repro.__version__)
                raw = RawBody(
                    text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                return 200, raw, {}
            if path.startswith("/v1/"):
                return self._dispatch_v1(method, path, body, query)
            return 404, error_envelope("not_found", f"no route for {path}"), {}
        except BadRequest as exc:
            return 400, error_envelope("bad_request", str(exc)), {}
        except UnknownTenantError as exc:
            return 404, error_envelope("unknown_tenant", str(exc)), {}
        except TenantExistsError as exc:
            return 409, error_envelope("tenant_exists", str(exc)), {}
        except TenantLimitError as exc:
            return 409, error_envelope("tenant_limit", str(exc)), {}
        except NotAStandbyError as exc:
            return 409, error_envelope("not_a_standby", str(exc)), {}
        except ReadOnlyEngineError as exc:
            # a standby tenant sheds *writes* only; not retryable against
            # this server — the client must target the primary or promote
            return 409, error_envelope("tenant_read_only", str(exc)), {}
        except EngineFenced as exc:
            document = {
                **error_envelope("tenant_fenced", str(exc)),
                "epoch": exc.epoch,
            }
            return 409, document, {}
        except WalGapError as exc:
            # the replica asked for a position below the retained WAL
            # horizon: re-seed from /snapshot (min_position says where
            # the log picks up again)
            document = {
                **error_envelope("wal_gap", str(exc)),
                "min_position": exc.min_position,
            }
            return 409, document, {}
        except ReplicationError as exc:
            return 409, error_envelope("replication_error", str(exc)), {}
        except AsOfUnavailableError as exc:
            # the requested history was pruned past the retention horizon:
            # permanent for this position (410, not retryable) — the body
            # says where replayable history starts
            document = {
                **error_envelope("as_of_unavailable", str(exc)),
                "requested_position": exc.requested,
                "oldest_position": exc.oldest,
            }
            if exc.shard is not None:
                document["shard"] = exc.shard
            return 410, document, {}
        except TenantDeleteError as exc:
            # the engine refused to close: the tenant is still fully
            # registered (no half-deleted state) and the delete is safe to
            # retry — a structured, retryable server-side failure
            return 500, error_envelope("tenant_delete_failed", str(exc), True), {}
        except EngineError as exc:
            # engine closed or its writer died: the service is unavailable,
            # but the connection (and the error) must still reach the client
            return (
                503,
                error_envelope("engine_unavailable", f"engine unavailable: {exc}", True),
                {},
            )
        except Exception as exc:  # a handler bug must not abort the connection
            return (
                500,
                error_envelope("internal", f"internal error: {type(exc).__name__}: {exc}"),
                {},
            )

    def _dispatch_v1(
        self, method: str, path: str, body: bytes, query: str = ""
    ) -> Response:
        segments = path[len("/v1/"):].split("/")
        if segments == ["healthz"]:
            if method != "GET":
                return self._method_not_allowed(method, path)
            return 200, self._healthz_v1(), {}
        if segments[0] == "debug":
            return self._dispatch_debug(method, segments[1:], query, path)
        if segments == ["tenants"]:
            if method == "GET":
                return 200, {"tenants": self.manager.list_tenants()}, {}
            if method == "POST":
                return self._create_tenant(_parse_json(body))
            return self._method_not_allowed(method, path)
        if segments[0] == "tenants" and len(segments) >= 2:
            tenant = segments[1]
            rest = segments[2:]
            if not rest:
                if method == "GET":
                    return 200, self.manager.describe(tenant), {}
                if method == "DELETE":
                    self.manager.delete(tenant)
                    return 200, {"deleted": tenant}, {}
                return self._method_not_allowed(method, path)
            engine = self.manager.get(tenant)
            if rest == ["updates"] and method == "POST":
                return self._post_updates_v1(engine, _parse_json(body))
            if rest == ["group-by"] and method == "POST":
                params = _checked_query(query, _AS_OF_QUERY_PARAMS, path)
                view, as_of = self._resolve_view(tenant, engine, params)
                return 200, self._group_by(engine, _parse_json(body), view, as_of), {}
            if rest[0] == "cluster" and len(rest) >= 2 and method == "GET":
                params = _checked_query(query, _AS_OF_QUERY_PARAMS, path)
                view, as_of = self._resolve_view(tenant, engine, params)
                # rejoin (a string vertex id may legally contain '/'), then
                # percent-decode: the v1 segment is defined as URL-encoded
                raw = unquote("/".join(rest[1:]))
                return 200, self._cluster_of(engine, raw, view=view, as_of=as_of), {}
            if rest == ["stats"] and method == "GET":
                params = _checked_query(query, _AS_OF_QUERY_PARAMS, path)
                return 200, self._stats_v1(tenant, engine, params), {}
            if rest == ["wal"] and method == "GET":
                return self._get_wal(
                    tenant, engine, _checked_query(query, _WAL_QUERY_PARAMS, path)
                )
            if rest == ["snapshot"] and method == "GET":
                params = _checked_query(query, _SNAPSHOT_QUERY_PARAMS, path)
                return 200, self._get_snapshot(tenant, engine, params), {}
            if rest == ["fence"] and method == "POST":
                return self._post_fence(tenant, engine, _parse_json(body))
            if rest == ["promote"] and method == "POST":
                return 200, {"tenant": tenant, **self.manager.promote(tenant)}, {}
            if rest == ["topology"] and method == "GET":
                _checked_query(query, frozenset(), path)
                return 200, self.manager.topology(tenant), {}
            if rest == ["reparent"] and method == "POST":
                return self._post_reparent(tenant, _parse_json(body))
            if rest in (
                ["updates"],
                ["group-by"],
                ["stats"],
                ["wal"],
                ["snapshot"],
                ["fence"],
                ["promote"],
                ["topology"],
                ["reparent"],
            ) or (rest and rest[0] == "cluster"):
                return self._method_not_allowed(method, path)
        return 404, error_envelope("not_found", f"no route for {path}"), {}

    def _method_not_allowed(self, method: str, path: str) -> Response:
        return (
            405,
            error_envelope("method_not_allowed", f"method {method} not allowed for {path}"),
            {},
        )

    # ------------------------------------------------------------------
    # debug routes (observability surface; see docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------
    def _dispatch_debug(
        self, method: str, rest: List[str], query: str, path: str
    ) -> Response:
        if rest == ["traces"]:
            if method != "GET":
                return self._method_not_allowed(method, path)
            params = _checked_query(query, _DEBUG_TRACES_PARAMS, path)
            trace_id = params.get("trace_id")
            limit = _query_int(params, "limit", 1000)
            if limit < 0:
                raise BadRequest(f"limit must be >= 0, got {limit}")
            tracer = get_tracer()
            spans = tracer.spans(trace_id=trace_id, limit=limit)
            document: Dict[str, object] = {
                "spans": spans,
                "count": len(spans),
                "capacity": tracer.capacity,
                "dropped": tracer.dropped,
            }
            if trace_id is not None:
                document["trace_id"] = trace_id
            return 200, document, {}
        if rest == ["decisions"]:
            if method != "GET":
                return self._method_not_allowed(method, path)
            params = _checked_query(query, _DEBUG_DECISIONS_PARAMS, path)
            limit = _query_int(params, "limit", 256)
            if limit < 0:
                raise BadRequest(f"limit must be >= 0, got {limit}")
            events = decision_events(limit=limit)
            return 200, {"decisions": events, "count": len(events)}, {}
        if rest == ["profile"]:
            if method != "GET":
                return self._method_not_allowed(method, path)
            params = _checked_query(query, _DEBUG_PROFILE_PARAMS, path)
            seconds = _query_float(params, "seconds", 1.0)
            interval = _query_float(params, "interval", 0.01)
            return 200, sample_stacks(seconds=seconds, interval=interval), {}
        return 404, error_envelope("not_found", f"no route for {path}"), {}

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _healthz_v1(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "version": repro.__version__,
            "api": "v1",
            **self.manager.aggregate(),
        }

    def _points_at_self(self, replica_of: str) -> bool:
        """Best-effort check that ``replica_of`` names this very server.

        Self-replication is always a misconfiguration (the standby would
        try to discover its shape from the very tenant slot it is
        reserving).  Comparing addresses is inherently approximate — this
        catches the same host string and the loopback spellings, which is
        where the mistake actually happens.
        """
        try:
            host, port = parse_primary_url(replica_of)
        except ValueError:
            return False  # manager.create reports the malformed URL
        try:
            own_port = self.port
        except RuntimeError:
            return False  # not started yet: nothing is bound to compare
        if port != own_port:
            return False
        loopback = {"localhost", "127.0.0.1", "::1"}
        if host == self.host:
            return True
        return host in loopback and (
            self.host in loopback or self.host in ("0.0.0.0", "::")
        )

    def _create_tenant(self, payload: object) -> Response:
        if not isinstance(payload, dict) or "tenant" not in payload:
            raise BadRequest('body must be {"tenant": name, ...}')
        name = payload["tenant"]
        if not isinstance(name, str):
            raise BadRequest(f"tenant name must be a string, got {name!r}")
        backend = payload.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise BadRequest(f'"backend" must be a string, got {backend!r}')
        queue_capacity = payload.get("queue_capacity")
        if queue_capacity is not None and (
            isinstance(queue_capacity, bool) or not isinstance(queue_capacity, int)
        ):
            raise BadRequest(f'"queue_capacity" must be an int, got {queue_capacity!r}')
        shards = payload.get("shards")
        if shards is not None and (
            isinstance(shards, bool) or not isinstance(shards, int)
        ):
            raise BadRequest(f'"shards" must be an int, got {shards!r}')
        replica_of = payload.get("replica_of")
        if replica_of is not None and not isinstance(replica_of, str):
            raise BadRequest(f'"replica_of" must be a string, got {replica_of!r}')
        if replica_of is not None and self._points_at_self(replica_of):
            raise BadRequest(
                f"replica_of {replica_of!r} points at this server itself; "
                "a tenant cannot be a standby of its own server"
            )
        params = None
        if "params" in payload:
            params = _decode_params(payload["params"], self.manager.default_params)
        try:
            self.manager.create(
                name,
                params=params,
                backend=backend,
                queue_capacity=queue_capacity,
                shards=shards,
                replica_of=replica_of,
            )
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        except OSError as exc:
            # the standby's primary is unreachable: a clean, retryable 409
            return (
                409,
                error_envelope(
                    "primary_unreachable",
                    f"cannot reach primary {replica_of!r}: {exc}",
                    retryable=True,
                ),
                {},
            )
        except Exception as exc:
            if isinstance(exc, ReplicationError) and isinstance(
                exc.__cause__, OSError
            ):
                # an unreachable primary surfaces wrapped (first seed with
                # no local state): same clean, retryable 409 as a raw one
                return (
                    409,
                    error_envelope(
                        "primary_unreachable",
                        f"cannot reach primary {replica_of!r}: {exc}",
                        retryable=True,
                    ),
                    {},
                )
            if isinstance(exc, ServiceError):
                # the primary answered but refused (unknown tenant there,
                # not durable, ...): forward the context as a clean 409
                return (
                    409,
                    error_envelope(
                        "primary_rejected",
                        f"primary {replica_of!r} rejected replication: {exc}",
                        retryable=exc.retryable,
                    ),
                    {},
                )
            raise
        return 201, self.manager.describe(name), {}

    def _resolve_view(
        self, tenant: str, engine: ClusteringEngine, params: Dict[str, str]
    ) -> Tuple[Optional[object], Optional[object]]:
        """Resolve the ``as_of`` query parameter to the view to serve.

        Returns ``(view, as_of_echo)``: ``(None, None)`` without the
        parameter (the handler serves the live view as always),
        ``(live view, "latest")`` for ``as_of=latest``, and a
        historical view plus the position list for an explicit position
        tuple.  Malformed positions are a 400; pruned history propagates
        as :class:`AsOfUnavailableError` (410).
        """
        raw = params.get("as_of")
        if raw is None:
            return None, None
        if raw.strip().lower() == "latest":
            return engine.view(), "latest"
        try:
            positions = tuple(int(part) for part in raw.split(","))
        except ValueError:
            raise BadRequest(
                "as_of must be 'latest', an applied position, or a comma-"
                f"separated per-shard position tuple, got {raw!r}"
            ) from None
        store = self.manager.timetravel(tenant)
        try:
            view = store.view_at(positions)
        except AsOfUnavailableError:
            raise
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        return view, list(positions)

    def _cluster_of(
        self,
        engine: ClusteringEngine,
        raw: str,
        view: Optional[object] = None,
        as_of: Optional[object] = None,
    ) -> Dict[str, object]:
        if not raw:
            raise BadRequest("missing vertex identifier")
        try:
            vertex = parse_vertex_token(raw)
        except UpdateLogError as exc:
            raise BadRequest(str(exc)) from None
        if view is None:
            view = engine.view()
        start = _now()
        clusters = view.cluster_of(vertex)
        engine.metrics.observe_query(_now() - start)
        document: Dict[str, object] = {
            "vertex": vertex,
            "clusters": list(clusters),
            "view_version": view.version,
        }
        if as_of is not None:
            document["as_of"] = as_of
        return document

    def _post_updates_v1(
        self, engine: ClusteringEngine, payload: object
    ) -> Response:
        updates = decode_updates(payload)
        accepted = engine.submit_many(updates, block=False)
        if accepted < len(updates):
            signal = engine.backpressure_signal()
            document = {
                **error_envelope("backpressure", str(signal), retryable=True),
                "accepted": accepted,
                "submitted": len(updates),
                "queue_depth": signal.queue_depth,
                "queue_capacity": signal.queue_capacity,
                "retry_after_ms": signal.retry_after_ms,
            }
            headers = {"Retry-After": retry_after_header(signal.retry_after_ms)}
            return 429, document, headers
        return 200, {"accepted": accepted, "submitted": len(updates)}, {}

    def _stats_v1(
        self,
        tenant: str,
        engine: ClusteringEngine,
        params: Optional[Dict[str, str]] = None,
    ) -> Dict[str, object]:
        """Per-tenant stats plus the ``replication``/``wal``/``timetravel`` blocks.

        Standby tenants bring their own replication block (role, lag,
        per-shard positions); for regular tenants the server composes the
        primary view: epoch, fence state and the positions its standbys
        acked on the WAL-serving route.  ``wal`` is the tenant's
        replayable horizon, ``timetravel`` the historical-view cache
        counters and replay latency.  With ``?as_of=<positions>`` the
        view-statistics portion describes that historical view instead of
        the live one.
        """
        view, as_of = self._resolve_view(tenant, engine, params or {})
        if view is not None and as_of != "latest":
            # historical: the view's own statistics at that position
            document = {"tenant": tenant, "as_of": as_of, **view.stats()}
            document["timetravel"] = self.manager.timetravel(tenant).stats()
            return document
        document = {"tenant": tenant, **engine.stats()}
        if as_of is not None:
            document["as_of"] = as_of
        document["wal"] = engine.wal_horizon()
        document["timetravel"] = self.manager.timetravel(tenant).stats()
        if "replication" not in document:
            acked = self.manager.acks(tenant)
            document["replication"] = {
                "role": "primary",
                "epoch": engine.epoch,
                "fenced": engine.fenced,
                "acked": {str(shard): position for shard, position in sorted(acked.items())},
            }
        return document

    def _wal_target(
        self, tenant: str, engine: ClusteringEngine, query: Dict[str, str]
    ) -> Tuple[int, ClusteringEngine, int]:
        """Resolve the ``shard`` query param to the engine serving that WAL.

        Returns ``(shard, inner engine, served epoch)``.  Any standby may
        serve its WAL — a *promoted* one because it IS the primary now,
        an *un-promoted* one to feed a chained replica
        (``primary -> A -> B``).  A chained hop advertises
        ``max(local epoch, upstream's seen epoch)`` so a promotion
        anywhere above propagates down the tree and fences stale leaves
        exactly as if they shipped from the root.
        """
        served_epoch: Optional[int] = None
        if isinstance(engine, StandbyEngine) and not engine.promoted:
            served_epoch = max(engine.epoch, engine.seen_epoch)
        shard = _query_int(query, "shard", 0)
        if not 0 <= shard < engine.num_shards:
            raise BadRequest(
                f"tenant {tenant!r} is unsharded; shard must be 0"
                if engine.num_shards == 1
                else f"shard must be in [0, {engine.num_shards}), got {shard}"
            )
        target = engine.shards[shard]
        if target.data_dir is None:
            raise BadRequest(
                f"tenant {tenant!r} is not durable; there is no WAL to ship"
            )
        if served_epoch is None:
            served_epoch = target.epoch
        return shard, target, served_epoch

    def _get_wal(
        self, tenant: str, engine: ClusteringEngine, query: Dict[str, str]
    ) -> Response:
        shard, target, served_epoch = self._wal_target(tenant, engine, query)
        start = _query_int(query, "from", 0)
        if start < 0:
            raise BadRequest(f"from must be >= 0, got {start}")
        max_records = min(
            max(1, _query_int(query, "max", DEFAULT_FETCH_RECORDS)),
            MAX_FETCH_RECORDS,
        )
        if "ack" in query:
            self.manager.record_ack(tenant, shard, _query_int(query, "ack", 0))
        chunk = read_wal_range(
            target.wal_segments(), start, max_records, target.wal_position
        )
        document = {
            "tenant": tenant,
            "shard": shard,
            "from": start,
            "records": [encode_update(update) for update in chunk.records],
            "position": start + len(chunk.records),
            "applied": target.wal_position,
            "epoch": served_epoch,
            "torn": chunk.torn,
        }
        traces = target.trace_ids(start, len(chunk.records))
        if traces:
            # positions whose updates carry a trace id: the shipper
            # re-attaches them so standby replay stays on the same trace
            document["traces"] = {
                str(position): trace_id for position, trace_id in traces.items()
            }
        return 200, document, {}

    def _get_snapshot(
        self, tenant: str, engine: ClusteringEngine, query: Dict[str, str]
    ) -> Dict[str, object]:
        shard, target, served_epoch = self._wal_target(tenant, engine, query)
        snapshot = target.read_snapshot_document()
        return {
            "tenant": tenant,
            "shard": shard,
            "position": int(snapshot.get("updates_processed", 0)),
            "epoch": served_epoch,
            "snapshot": snapshot,
        }

    def _post_fence(
        self, tenant: str, engine: ClusteringEngine, payload: object
    ) -> Response:
        if not isinstance(payload, dict) or "epoch" not in payload:
            raise BadRequest('body must be {"epoch": N}')
        epoch = payload["epoch"]
        if isinstance(epoch, bool) or not isinstance(epoch, int):
            raise BadRequest(f'"epoch" must be an int, got {epoch!r}')
        try:
            engine.fence(epoch)
        except ValueError as exc:
            return 409, error_envelope("stale_epoch", str(exc)), {}
        return 200, {"tenant": tenant, "epoch": epoch, "fenced": True}, {}

    def _post_reparent(self, tenant: str, payload: object) -> Response:
        if not isinstance(payload, dict) or "replica_of" not in payload:
            raise BadRequest('body must be {"replica_of": "host:port"}')
        replica_of = payload["replica_of"]
        if not isinstance(replica_of, str):
            raise BadRequest(f'"replica_of" must be a string, got {replica_of!r}')
        if self._points_at_self(replica_of):
            raise BadRequest(
                f"replica_of {replica_of!r} points at this server itself; "
                "a standby cannot replicate from its own server"
            )
        try:
            document = self.manager.reparent(tenant, replica_of)
        except (OSError, ReplicationError) as exc:
            if isinstance(exc, ReplicationError) and not isinstance(
                exc.__cause__, OSError
            ):
                raise  # refused probe / state change: 409 replication_error
            # the new primary is unreachable: clean, retryable 409 (same
            # contract as standby creation against a dead primary)
            return (
                409,
                error_envelope(
                    "primary_unreachable",
                    f"cannot reach primary {replica_of!r}: {exc}",
                    retryable=True,
                ),
                {},
            )
        return 200, document, {}

    def _group_by(
        self,
        engine: ClusteringEngine,
        payload: object,
        view: Optional[object] = None,
        as_of: Optional[object] = None,
    ) -> Dict[str, object]:
        if not isinstance(payload, dict) or "vertices" not in payload:
            raise BadRequest('body must be {"vertices": [...]}')
        vertices = payload["vertices"]
        if not isinstance(vertices, list):
            raise BadRequest('"vertices" must be a list')
        # an int is already canonical; `type(v) is int` keeps bools (an int
        # subclass) on the checked path, which answers them with a 400; a
        # set query is intersected with the view's clusters as it is
        query = {v if type(v) is int else _decode_vertex(v) for v in vertices}
        if view is None:
            view = engine.view()
        start = _now()
        result = view.group_by(query)
        engine.metrics.observe_query(_now() - start)
        document: Dict[str, object] = {
            "view_version": view.version,
            "groups": {
                str(gid): sorted(members, key=repr)
                for gid, members in result.groups.items()
            },
        }
        if as_of is not None:
            document["as_of"] = as_of
        return document


def _decode_params(payload: object, defaults) -> "repro.StrCluParams":
    """Build tenant params from a JSON object, inheriting missing fields."""
    from dataclasses import replace

    from repro.graph.similarity import SimilarityKind

    if not isinstance(payload, dict):
        raise BadRequest('"params" must be an object')
    allowed = {"epsilon", "mu", "rho", "delta_star", "similarity", "seed", "max_samples"}
    unknown = set(payload) - allowed
    if unknown:
        raise BadRequest(f"unknown params fields: {', '.join(sorted(unknown))}")
    fields = dict(payload)
    if "similarity" in fields:
        try:
            fields["similarity"] = SimilarityKind(fields["similarity"])
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
    try:
        return replace(defaults, **fields)
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"invalid params: {exc}") from exc


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request; None on a cleanly closed connection."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        return None
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise _ProtocolError(400, f"malformed Content-Length {raw_length!r}") from None
    if length < 0:
        raise _ProtocolError(400, f"malformed Content-Length {raw_length!r}")
    if length > MAX_BODY_BYTES:
        raise _ProtocolError(
            413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"
        )
    body = await reader.readexactly(length) if length else b""
    path, _, query = target.partition("?")
    return method.upper(), path, query, headers, body


def _response_bytes(
    status: int,
    payload: bytes,
    keep_alive: bool,
    extra_headers: Optional[Headers] = None,
    content_type: str = "application/json",
) -> bytes:
    reason = _STATUS_TEXT.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {connection}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + payload


def _parse_json(body: bytes) -> object:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"request body is not valid JSON: {exc}") from exc


def _parse_query(query: str) -> Dict[str, str]:
    """Query string → {name: last value} (the replication routes' params)."""
    return {
        name: values[-1]
        for name, values in parse_qs(query, keep_blank_values=True).items()
    }


def _checked_query(
    query: str, allowed: frozenset, path: str
) -> Dict[str, str]:
    """Parse a v1 read route's query string, rejecting unknown parameters.

    A mistyped parameter (``?asof=120``) silently ignored would serve the
    *latest* view while the caller believes they asked for history — on
    these routes that is a correctness hazard, so unknown names are a
    structured 400 listing what the route accepts.
    """
    params = _parse_query(query)
    unknown = set(params) - allowed
    if unknown:
        accepted = (
            f" (accepted: {', '.join(sorted(allowed))})" if allowed else ""
        )
        raise BadRequest(
            f"unknown query parameter(s) for {path}: "
            f"{', '.join(sorted(unknown))}{accepted}"
        )
    return params


def _query_int(query: Dict[str, str], name: str, default: int) -> int:
    value = query.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise BadRequest(f"query parameter {name!r} must be an int, got {value!r}") from None


def _query_float(query: Dict[str, str], name: str, default: float) -> float:
    value = query.get(name)
    if value is None:
        return default
    try:
        parsed = float(value)
    except ValueError:
        raise BadRequest(
            f"query parameter {name!r} must be a number, got {value!r}"
        ) from None
    if not math.isfinite(parsed):
        raise BadRequest(f"query parameter {name!r} must be finite, got {value!r}")
    return parsed


def _valid_trace_id(raw: Optional[str]) -> Optional[str]:
    """A well-formed ``X-Repro-Trace`` value, or None to mint one.

    The id is echoed back as a response header and stored verbatim in
    span records, so anything outside a short hex-ish token is ignored
    rather than reflected.
    """
    if not raw:
        return None
    value = raw.strip()
    if not value or len(value) > _TRACE_ID_MAX_LEN:
        return None
    if not all(char in _TRACE_ID_CHARS for char in value):
        return None
    return value


def _now() -> float:
    return time.perf_counter()


# ----------------------------------------------------------------------
# background runner (tests, examples, the load generator's HTTP mode)
# ----------------------------------------------------------------------
class BackgroundServer:
    """Run a :class:`ClusteringServiceServer` on a dedicated event-loop thread.

    Usage::

        with BackgroundServer(engine_or_manager) as server:
            client = ServiceClient("127.0.0.1", server.port)
            ...
    """

    def __init__(
        self,
        manager: Union[EngineManager, ClusteringEngine, ShardedEngine],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = ClusteringServiceServer(manager, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def manager(self) -> EngineManager:
        return self.server.manager

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="clustering-service-http", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("server did not start within 10 s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # pragma: no cover - bind failures
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._loop = None
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
