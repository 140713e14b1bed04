"""Stdlib-only asyncio JSON-over-HTTP front-end for multi-tenant clustering.

The server is deliberately minimal — ``asyncio.start_server`` plus a small
HTTP/1.1 request parser — because the container targets environments with
no third-party web stack.  Since v1 it hosts an
:class:`~repro.service.manager.EngineManager` (many named engines) and
routes by tenant.  Every route is declared once, in the module-level
:data:`ROUTES` table (method, path shape, handler, accepted query names
and when the handler leaves the event loop); ``docs/API.md`` documents
each route.

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
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple, Union

from urllib.parse import parse_qs, unquote

import repro
from repro.core.dynelm import Update
from repro.graph.dynamic_graph import Vertex
from repro.persistence.updatelog import (
    UpdateLogError,
    WalGapError,
    parse_vertex_token,
    read_wal_range,
)
from repro.service.client import ServiceError, encode_update, parse_primary_url
from repro.service.engine import (
    ClusteringEngine,
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
                params = _parse_query(query) if query else {}
                routed = _match(method, path, params, body)
                blocks = routed.route.blocks
                if blocks == ALWAYS or (blocks == AS_OF and "as_of" in params):
                    # run it in a worker thread so every other tenant's
                    # requests keep flowing (see ROUTES)
                    status, document, extra_headers = (
                        await asyncio.get_running_loop().run_in_executor(
                            None, self._dispatch, routed, trace_id, sampled
                        )
                    )
                else:
                    # repro: allow[REPRO401] fast path: the route table
                    # rules this route non-blocking; the executor hop
                    # would cost more than the dispatch itself
                    status, document, extra_headers = self._dispatch(
                        routed, trace_id, sampled
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
    # routing (the routes themselves are the module-level ROUTES table)
    # ------------------------------------------------------------------
    def _dispatch(self, request: _Request, trace_id: str, sampled: bool) -> Response:
        """Run one matched request under its ``http.request`` span.

        The span is opened *here* — in whichever thread actually runs the
        handler — because the active-span contextvar must be visible to
        the handler code (``run_in_executor`` does not copy the caller's
        context), and ``sampled`` governs whether submitted updates are
        tagged for end-to-end tracing (see
        :func:`repro.service.obs.tag_update`).
        """
        with get_tracer().span(
            "http.request",
            trace_id=trace_id,
            sampled=sampled,
            method=request.method,
            path=request.path,
        ):
            return self._dispatch_routes(request)

    def _dispatch_routes(self, request: _Request) -> Response:
        route = request.route
        try:
            # an unknown tenant answers 404 before its route's tail counts
            engine = (
                self.manager.get(request.tenant)
                if route.path.startswith(_TENANT_TAIL)
                else None
            )
            if route.params is not None:
                _check_query(request.params, route.params, request.path)
            return route.handler(self, request, engine)
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

    def _not_found(self, request: _Request, engine: _TenantEngine) -> Response:
        return 404, error_envelope("not_found", f"no route for {request.path}"), {}

    def _method_not_allowed(self, request: _Request, engine: _TenantEngine) -> Response:
        return (
            405,
            error_envelope(
                "method_not_allowed",
                f"method {request.method} not allowed for {request.path}",
            ),
            {},
        )

    # ------------------------------------------------------------------
    # service-level and debug handlers (see docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------
    def _get_metrics(self, request: _Request, engine: _TenantEngine) -> Response:
        text = render_metrics(self.manager, version=repro.__version__)
        raw = RawBody(text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8")
        return 200, raw, {}

    def _get_healthz(self, request: _Request, engine: _TenantEngine) -> Response:
        document = {
            "status": "ok",
            "version": repro.__version__,
            "api": "v1",
            **self.manager.aggregate(),
        }
        return 200, document, {}

    def _get_traces(self, request: _Request, engine: _TenantEngine) -> Response:
        trace_id = request.params.get("trace_id")
        limit = _query_int(request.params, "limit", 1000)
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

    def _get_decisions(self, request: _Request, engine: _TenantEngine) -> Response:
        limit = _query_int(request.params, "limit", 256)
        if limit < 0:
            raise BadRequest(f"limit must be >= 0, got {limit}")
        events = decision_events(limit=limit)
        return 200, {"decisions": events, "count": len(events)}, {}

    def _get_profile(self, request: _Request, engine: _TenantEngine) -> Response:
        seconds = _query_float(request.params, "seconds", 1.0)
        interval = _query_float(request.params, "interval", 0.01)
        return 200, sample_stacks(seconds=seconds, interval=interval), {}

    # ------------------------------------------------------------------
    # tenant admin handlers
    # ------------------------------------------------------------------
    def _list_tenants(self, request: _Request, engine: _TenantEngine) -> Response:
        return 200, {"tenants": self.manager.list_tenants()}, {}

    def _describe_tenant(self, request: _Request, engine: _TenantEngine) -> Response:
        return 200, self.manager.describe(request.tenant), {}

    def _delete_tenant(self, request: _Request, engine: _TenantEngine) -> Response:
        self.manager.delete(request.tenant)
        return 200, {"deleted": request.tenant}, {}

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

    def _create_tenant(self, request: _Request, engine: _TenantEngine) -> Response:
        payload = _parse_json(request.body)
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

    # ------------------------------------------------------------------
    # per-tenant handlers
    # ------------------------------------------------------------------
    def _resolve_view(
        self, request: _Request, engine: ClusteringEngine
    ) -> Tuple[Optional[object], Optional[object]]:
        """Resolve the ``as_of`` query parameter to the view to serve.

        Returns ``(view, as_of_echo)``: ``(None, None)`` without the
        parameter (the handler serves the live view as always),
        ``(live view, "latest")`` for ``as_of=latest``, and a
        historical view plus the position list for an explicit position
        tuple.  Malformed positions are a 400; pruned history propagates
        as :class:`AsOfUnavailableError` (410).
        """
        raw = request.params.get("as_of")
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
        store = self.manager.timetravel(request.tenant)
        try:
            view = store.view_at(positions)
        except AsOfUnavailableError:
            raise
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        return view, list(positions)

    def _get_cluster(self, request: _Request, engine: _TenantEngine) -> Response:
        view, as_of = self._resolve_view(request, engine)
        # the vertex segments were rejoined (a string vertex id may legally
        # contain '/'); percent-decode: the v1 segment is URL-encoded
        raw = unquote(request.vertex)
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
        return 200, document, {}

    def _post_updates(self, request: _Request, engine: _TenantEngine) -> Response:
        updates = decode_updates(_parse_json(request.body))
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

    def _get_stats(self, request: _Request, engine: _TenantEngine) -> Response:
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
        tenant = request.tenant
        view, as_of = self._resolve_view(request, engine)
        if view is not None and as_of != "latest":
            # historical: the view's own statistics at that position
            document = {"tenant": tenant, "as_of": as_of, **view.stats()}
            document["timetravel"] = self.manager.timetravel(tenant).stats()
            return 200, document, {}
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
        return 200, document, {}

    def _wal_target(
        self, request: _Request, engine: ClusteringEngine
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
        tenant = request.tenant
        served_epoch: Optional[int] = None
        if isinstance(engine, StandbyEngine) and not engine.promoted:
            served_epoch = max(engine.epoch, engine.seen_epoch)
        shard = _query_int(request.params, "shard", 0)
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

    def _get_wal(self, request: _Request, engine: _TenantEngine) -> Response:
        tenant, query = request.tenant, request.params
        shard, target, served_epoch = self._wal_target(request, engine)
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

    def _get_snapshot(self, request: _Request, engine: _TenantEngine) -> Response:
        shard, target, served_epoch = self._wal_target(request, engine)
        snapshot = target.read_snapshot_document()
        document = {
            "tenant": request.tenant,
            "shard": shard,
            "position": int(snapshot.get("updates_processed", 0)),
            "epoch": served_epoch,
            "snapshot": snapshot,
        }
        return 200, document, {}

    def _post_fence(self, request: _Request, engine: _TenantEngine) -> Response:
        payload = _parse_json(request.body)
        if not isinstance(payload, dict) or "epoch" not in payload:
            raise BadRequest('body must be {"epoch": N}')
        epoch = payload["epoch"]
        if isinstance(epoch, bool) or not isinstance(epoch, int):
            raise BadRequest(f'"epoch" must be an int, got {epoch!r}')
        try:
            engine.fence(epoch)
        except ValueError as exc:
            return 409, error_envelope("stale_epoch", str(exc)), {}
        return 200, {"tenant": request.tenant, "epoch": epoch, "fenced": True}, {}

    def _post_promote(self, request: _Request, engine: _TenantEngine) -> Response:
        tenant = request.tenant
        return 200, {"tenant": tenant, **self.manager.promote(tenant)}, {}

    def _get_topology(self, request: _Request, engine: _TenantEngine) -> Response:
        return 200, self.manager.topology(request.tenant), {}

    def _post_reparent(self, request: _Request, engine: _TenantEngine) -> Response:
        payload = _parse_json(request.body)
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
            document = self.manager.reparent(request.tenant, replica_of)
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

    def _post_group_by(self, request: _Request, engine: _TenantEngine) -> Response:
        view, as_of = self._resolve_view(request, engine)
        payload = _parse_json(request.body)
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
        return 200, document, {}


# ----------------------------------------------------------------------
# the route table
# ----------------------------------------------------------------------
#: When a route's handler leaves the event loop for the executor: a
#: handler that may block for seconds must not stall the loop every
#: tenant shares.  ``AS_OF`` routes block only when the request carries
#: ``as_of``: a cold historical read restores a snapshot anchor and
#: replays retained WAL from disk.
NEVER, ALWAYS, AS_OF = "never", "always", "as_of"


class Route(NamedTuple):
    """One served (method, path shape).

    ``params`` is the set of accepted query names (anything else is a 400
    naming the set, since a silently ignored ``?asof=`` would serve the
    *latest* view to a caller who asked for history), or None when the
    route does not check its query.
    """

    method: str
    path: str
    handler: Callable[[ClusteringServiceServer, _Request, _TenantEngine], Response]
    params: Optional[FrozenSet[str]]
    blocks: str


_S = ClusteringServiceServer

#: Every route, declared once; ``docs/API.md`` documents each.  Blocking
#: routes: ``/metrics`` walks every tenant's engines, the profiler sleeps
#: through its window, tenant creation may crash-recover or seed a standby
#: over HTTP, deletion cuts a final checkpoint, fence fsyncs a manifest per
#: shard, promote and reparent reach other servers with full network
#: timeouts, and the WAL and snapshot routes read files on every replica
#: poll.
ROUTES: Tuple[Route, ...] = (
    Route("GET", "/metrics", _S._get_metrics, None, ALWAYS),
    Route("GET", "/v1/healthz", _S._get_healthz, None, NEVER),
    Route("GET", "/v1/debug/traces", _S._get_traces, frozenset({"trace_id", "limit"}), NEVER),
    Route("GET", "/v1/debug/decisions", _S._get_decisions, frozenset({"limit"}), NEVER),
    Route("GET", "/v1/debug/profile", _S._get_profile, frozenset({"seconds", "interval"}), ALWAYS),
    Route("GET", "/v1/tenants", _S._list_tenants, None, NEVER),
    Route("POST", "/v1/tenants", _S._create_tenant, None, ALWAYS),
    Route("GET", "/v1/tenants/{tenant}", _S._describe_tenant, None, NEVER),
    Route("DELETE", "/v1/tenants/{tenant}", _S._delete_tenant, None, ALWAYS),
    Route("POST", "/v1/tenants/{tenant}/updates", _S._post_updates, None, NEVER),
    Route("POST", "/v1/tenants/{tenant}/group-by", _S._post_group_by, frozenset({"as_of"}), AS_OF),
    Route("GET", "/v1/tenants/{tenant}/cluster/{v}", _S._get_cluster, frozenset({"as_of"}), AS_OF),
    Route("GET", "/v1/tenants/{tenant}/stats", _S._get_stats, frozenset({"as_of"}), AS_OF),
    Route("GET", "/v1/tenants/{tenant}/wal", _S._get_wal,
          frozenset({"from", "shard", "max", "ack"}), ALWAYS),
    Route("GET", "/v1/tenants/{tenant}/snapshot", _S._get_snapshot, frozenset({"shard"}), ALWAYS),
    Route("POST", "/v1/tenants/{tenant}/fence", _S._post_fence, None, ALWAYS),
    Route("POST", "/v1/tenants/{tenant}/promote", _S._post_promote, None, ALWAYS),
    Route("GET", "/v1/tenants/{tenant}/topology", _S._get_topology, frozenset(), NEVER),
    Route("POST", "/v1/tenants/{tenant}/reparent", _S._post_reparent, None, ALWAYS),
)

_ROUTE_INDEX = {(route.method, route.path): route for route in ROUTES}
#: Paths any method of which is a route (another method is a 405); a
#: ``{v}`` route's path without its vertex counts too.
_ROUTE_PATHS = frozenset(route.path for route in ROUTES) | frozenset(
    route.path.removesuffix("/{v}") for route in ROUTES
)
#: The path prefix of the routes that need their tenant's engine.
_TENANT_TAIL = "/v1/tenants/{tenant}/"


#: A handler's ``engine``: the tenant's engine on a route under
#: ``/v1/tenants/{tenant}/``, None on any other.
_TenantEngine = Optional[ClusteringEngine]


class _Request(NamedTuple):
    """One request with the route it matched, the tenant and raw vertex."""

    route: Route
    method: str
    path: str
    tenant: Optional[str]
    vertex: str
    params: Dict[str, str]
    body: bytes


def _match(method: str, path: str, params: Dict[str, str], body: bytes) -> _Request:
    """Find the route of ``method path``: a pure lookup that cannot raise.

    A path with no entry for ``method`` gets a 405 route when another
    method serves it, a 404 route otherwise.
    """
    tenant: Optional[str] = None
    vertex = ""
    shape = path
    if path.startswith("/v1/tenants/"):
        tenant, slash, tail = path[len("/v1/tenants/"):].partition("/")
        name, slash_after, rest = tail.partition("/")
        if not slash:
            shape = "/v1/tenants/{tenant}"
        elif name == "cluster" and slash_after:
            shape, vertex = "/v1/tenants/{tenant}/cluster/{v}", rest
        else:
            shape = _TENANT_TAIL + tail
    route = _ROUTE_INDEX.get((method, shape))
    if route is None:
        handler = _S._method_not_allowed if shape in _ROUTE_PATHS else _S._not_found
        route = Route(method, shape, handler, None, NEVER)
    return _Request(route, method, path, tenant, vertex, params, body)


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
    """Query string → {name: last value}."""
    return {
        name: values[-1]
        for name, values in parse_qs(query, keep_blank_values=True).items()
    }


def _check_query(params: Dict[str, str], allowed: FrozenSet[str], path: str) -> None:
    """Reject query names a route does not accept, with a 400 naming the set."""
    unknown = params.keys() - allowed
    if unknown:
        accepted = (
            f" (accepted: {', '.join(sorted(allowed))})" if allowed else ""
        )
        raise BadRequest(
            f"unknown query parameter(s) for {path}: "
            f"{', '.join(sorted(unknown))}{accepted}"
        )


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
