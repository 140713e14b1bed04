"""Stdlib HTTP client for the v1 multi-tenant clustering service.

:class:`ServiceClient` (no third-party dependencies) mirrors the server's
v1 surface with typed helpers: tenant administration (:meth:`list_tenants`
/ :meth:`create_tenant` / :meth:`delete_tenant`) plus the four per-tenant
routes, bound to the client's ``tenant`` (``"default"`` unless overridden).
One persistent keep-alive HTTP/1.1 connection is maintained per client and
each request goes out as a single socket write; the client is protected by
a lock so it can be shared between load-generator threads, and transparently
reconnects once if the server closed the idle connection.

Errors carry the server's structured envelope: :class:`ServiceError` exposes
``code`` / ``retryable``, and the 429 backpressure path raises
:class:`BackpressureError` with the accepted count, the queue depth and the
server's suggested ``retry_after_ms``.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union
from urllib.parse import quote

from repro.core.dynelm import Update, UpdateKind
from repro.core.result import GroupByResult
from repro.graph.dynamic_graph import Vertex
from repro.persistence.updatelog import format_vertex_token

#: An ``as_of`` argument: one applied position (unsharded tenants), a
#: per-shard position sequence (sharded tenants), or the string
#: ``"latest"`` (the live view — useful to echo which view was served).
AsOf = Union[int, str, Sequence[int]]

#: Error codes that mean "this endpoint is the wrong place to ask, the
#: topology moved" — a replica-set client re-resolves and retries on
#: these (plus raw connection failures), never on ordinary errors.
_REROUTE_CODES = frozenset(
    {"tenant_fenced", "tenant_read_only", "unknown_tenant", "engine_unavailable"}
)


def encode_update(update: Update) -> List[object]:
    """The wire form of one update."""
    return ["+" if update.kind is UpdateKind.INSERT else "-", update.u, update.v]


def parse_primary_url(url: str) -> Tuple[str, int]:
    """``host:port`` or ``http://host:port`` → ``(host, port)``.

    The service stack is plain HTTP (stdlib only), so an ``https://``
    primary is rejected loudly rather than silently downgraded.
    """
    target = url.strip()
    if target.startswith("https://"):
        raise ValueError(f"https primaries are not supported: {url!r}")
    if target.startswith("http://"):
        target = target[len("http://"):]
    target = target.rstrip("/")
    host, sep, port_text = target.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"replica_of must be 'host:port' or 'http://host:port', got {url!r}"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"invalid primary port in {url!r}") from exc
    return host, port


def format_as_of(as_of: AsOf) -> str:
    """The wire form of an ``as_of`` argument (see :data:`AsOf`)."""
    if isinstance(as_of, str):
        return as_of
    if isinstance(as_of, bool):
        raise ValueError(f"as_of must be a position, tuple or 'latest', got {as_of!r}")
    if isinstance(as_of, int):
        return str(as_of)
    try:
        return ",".join(str(int(position)) for position in as_of)
    except (TypeError, ValueError):
        raise ValueError(
            f"as_of must be a position, a per-shard position sequence or "
            f"'latest', got {as_of!r}"
        ) from None


#: Longest status or header line, and most header lines, a response may
#: carry before the connection is given up as broken.
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: Characters a request target (control bytes, space) or a header value
#: (control bytes) must not contain: either would split the request head.
_UNSAFE_TARGET = re.compile(r"[\x00-\x20\x7f]")
_UNSAFE_VALUE = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")


class TransportError(ConnectionError):
    """The server's reply broke HTTP/1.1 framing.

    Raised for a connection closed before a complete reply, a malformed
    status or header line, a missing ``Content-Length``, or a body shorter
    than its ``Content-Length`` (a partial document is never returned).  It
    is a :class:`ConnectionError`, so every caller that already handles a
    dropped connection (``except OSError``) handles this too.
    """


class _Connection:
    """One keep-alive HTTP/1.1 connection that writes each request once.

    The head and body go out in a single ``sendall`` with ``TCP_NODELAY``
    set, so the server wakes once per request, not once for the head and
    again for the body.  The reply is parsed from a buffered reader: the
    status line, the headers (names lowercased), then exactly
    ``Content-Length`` body bytes — the v1 server frames every response
    that way.  The socket timeout is the client's ``timeout``.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._sock = socket.create_connection((host, port), timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._host = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def request(
        self, method: str, path: str, body: Optional[bytes], headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Send one request; return ``(status, headers, body)``."""
        if _UNSAFE_TARGET.search(path) or not path.isascii():
            raise ValueError(f"request target {path!r} is not a printable ASCII path")
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self._host}"]
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        for name, value in headers.items():
            if _UNSAFE_VALUE.search(value):
                raise ValueError(f"header {name!r} has a control character: {value!r}")
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self._sock.sendall(head + body if body else head)

        status_line = self._line()
        version, _, rest = status_line.partition(b" ")
        code = rest[:3]
        if not version.startswith(b"HTTP/") or len(code) != 3 or not code.isdigit():
            raise TransportError(f"malformed status line {status_line[:80]!r}")
        response_headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            line = self._line()
            if line in (b"\r\n", b"\n"):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise TransportError(f"malformed header line {line[:80]!r}")
            response_headers[name.strip().lower()] = value.strip()
        else:
            raise TransportError(f"more than {_MAX_HEADERS} response headers")
        raw_length = response_headers.get("content-length", "")
        if not raw_length.isdecimal():
            raise TransportError(f"response Content-Length {raw_length!r} is not a length")
        length = int(raw_length)
        payload = self._reader.read(length)
        if len(payload) < length:
            raise TransportError(f"response body truncated at {len(payload)} of {length} bytes")
        return int(code), response_headers, payload

    def _line(self) -> bytes:
        line = self._reader.readline(_MAX_LINE + 1)
        if not line.endswith(b"\n"):
            raise TransportError(
                "the server closed the connection"
                if not line
                else f"truncated or over-long line {line[:80]!r}"
            )
        return line


class ServiceError(RuntimeError):
    """A non-2xx response from the service.

    ``code`` and ``retryable`` are parsed from the v1 error envelope
    (``{"error": {"code", "message", "retryable"}}``).  A body without
    the envelope — a proxy's error page, or the client's own error for a
    non-text ``/metrics`` payload — falls back to ``"error"`` / ``False``.
    """

    def __init__(
        self,
        status: int,
        document: object,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(f"service returned {status}: {document!r}")
        self.status = status
        self.document = document
        self.headers = headers if headers is not None else {}

    @property
    def _envelope(self) -> Dict[str, object]:
        if isinstance(self.document, dict):
            error = self.document.get("error")
            if isinstance(error, dict):
                return error
        return {}

    @property
    def code(self) -> str:
        return str(self._envelope.get("code", "error"))

    @property
    def retryable(self) -> bool:
        return bool(self._envelope.get("retryable", False))


class BackpressureError(ServiceError):
    """The ingest queue was full (the v1 429 path).

    Exposes everything the server knows about the shed load: how much of
    the batch got in (``accepted``), how far behind the writer is
    (``queue_depth`` of ``queue_capacity``) and when to try again
    (``retry_after_ms``).

    ``total_accepted`` equals ``accepted`` for a single attempt; when
    :meth:`ServiceClient.submit_updates` retried, it is the sum over every
    attempt — what actually reached the server before giving up.
    """

    @property
    def total_accepted(self) -> int:
        """Updates accepted across all attempts (see class docstring)."""
        return getattr(self, "_total_accepted", self.accepted)

    def _int_field(self, name: str) -> int:
        if isinstance(self.document, dict):
            value = self.document.get(name, 0)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return int(value)
        return 0

    @property
    def accepted(self) -> int:
        return self._int_field("accepted")

    @property
    def queue_depth(self) -> int:
        return self._int_field("queue_depth")

    @property
    def queue_capacity(self) -> int:
        return self._int_field("queue_capacity")

    @property
    def retry_after_ms(self) -> int:
        return self._int_field("retry_after_ms")

    @property
    def retry_after_s(self) -> float:
        """When to retry, in seconds: the *smaller* of body and header.

        The JSON body's ``retry_after_ms`` is the precise hint; the
        ``Retry-After`` header is its integer-second ceiling (coarser,
        never earlier).  A well-behaved client therefore honours whichever
        is smaller, and retries immediately when neither is present.
        """
        candidates = []
        if isinstance(self.document, dict) and "retry_after_ms" in self.document:
            candidates.append(self.retry_after_ms / 1000.0)
        header = self.headers.get("retry-after")
        if header is not None:
            try:
                candidates.append(float(header))
            except ValueError:
                pass
        return max(0.0, min(candidates)) if candidates else 0.0


class ServiceClient:
    """Synchronous JSON/HTTP client matching :class:`ClusteringServiceServer`.

    Example
    -------
    ::

        client = ServiceClient("127.0.0.1", 8321, tenant="acme")
        client.create_tenant("acme", exist_ok=True)
        client.submit_updates([Update.insert(1, 2), Update.insert(2, 3)])
        result = client.group_by([1, 2, 3])

    Replica-set mode
    ----------------
    ``ServiceClient(endpoints=["h1:p1", "h2:p2", ...], tenant=...)``
    turns the client into a fleet router: reads (``group_by`` /
    ``cluster_of`` / ``stats``) go to the least-lagged standby, writes to
    the primary, and the topology is re-resolved transparently on
    ``tenant_fenced`` / ``tenant_read_only`` / connection failure — so a
    watchdog-driven failover behind the client needs no caller changes.
    ``min_position=`` on the read methods is a read-your-writes barrier
    (pair with :meth:`primary_position`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        timeout: float = 10.0,
        tenant: str = "default",
        endpoints: Optional[Sequence[str]] = None,
        topology_max_age: float = 2.0,
    ) -> None:
        if endpoints is not None:
            fleet = [str(endpoint) for endpoint in endpoints]
            if not fleet:
                raise ValueError("endpoints must be a non-empty list of host:port")
            # the first endpoint doubles as the default server for the
            # un-routed surface (healthz, tenant admin, wal/snapshot)
            host, port = parse_primary_url(fleet[0])
            endpoints = fleet
        self.host = host
        self.port = port
        self.timeout = timeout
        self.tenant = tenant
        self.endpoints: Optional[List[str]] = (
            list(endpoints) if endpoints is not None else None
        )
        self.topology_max_age = topology_max_age
        self._lock = threading.Lock()
        self._connection: Optional[_Connection] = None  # guarded-by: _lock
        # replica-set state: lazily-built per-endpoint sub-clients plus a
        # cached fleet topology (who is primary, how far along each
        # standby is) refreshed at most every topology_max_age seconds
        self._topology_lock = threading.Lock()
        self._peers: Dict[str, "ServiceClient"] = {}  # guarded-by: _topology_lock
        self._fleet: Dict[str, Dict[str, object]] = {}  # guarded-by: _topology_lock
        self._primary_endpoint: Optional[str] = None  # guarded-by: _topology_lock
        self._topology_at: Optional[float] = None  # guarded-by: _topology_lock

    @classmethod
    def wait_until_healthy(
        cls,
        host: str,
        port: int,
        timeout: float = 15.0,
        interval: float = 0.2,
    ) -> None:
        """Block until ``GET /v1/healthz`` answers on ``host:port``.

        The shared boot-wait of every harness that spawns a real server
        (the CI smokes, the capacity-bench runner).  Raises
        :class:`RuntimeError` carrying the last failure when the server
        never comes up within ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                with cls(host, port, timeout=2.0) as probe:
                    probe.healthz()
                    return
            except (OSError, ServiceError) as exc:
                last = exc
                time.sleep(interval)
        raise RuntimeError(
            f"server on {host}:{port} never became healthy "
            f"within {timeout:.0f}s: {last}"
        )

    def for_tenant(self, tenant: str) -> "ServiceClient":
        """A new client for another tenant on the same server(s)."""
        if self.endpoints is not None:
            return ServiceClient(
                timeout=self.timeout,
                tenant=tenant,
                endpoints=self.endpoints,
                topology_max_age=self.topology_max_age,
            )
        return ServiceClient(self.host, self.port, timeout=self.timeout, tenant=tenant)

    def _tenant_path(self, suffix: str, as_of: Optional[AsOf] = None) -> str:
        path = f"/v1/tenants/{self.tenant}{suffix}"
        if as_of is not None:
            path += f"?as_of={quote(format_as_of(as_of), safe=',')}"
        return path

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[object] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, object, Dict[str, str]]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if extra_headers:
            headers.update(extra_headers)
        with self._lock:
            for attempt in (0, 1):
                try:
                    if self._connection is None:
                        self._connection = _Connection(self.host, self.port, self.timeout)
                    status, response_headers, raw = self._connection.request(
                        method, path, body, headers
                    )
                    break
                except OSError:
                    # stale keep-alive connection (or a reply cut short, a
                    # TransportError): reconnect and resend once
                    if self._connection is not None:
                        self._connection.close()
                        self._connection = None
                    if attempt:
                        raise
            if response_headers.get("connection", "").lower() == "close":
                self._connection.close()
                self._connection = None
        try:
            document = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            document = raw.decode("utf-8", errors="replace")
        return status, document, response_headers

    def _expect_ok(
        self,
        method: str,
        path: str,
        payload: Optional[object] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> object:
        status, document, headers = self._request(method, path, payload, extra_headers)
        if status == 429:
            # on the v1 surface 429 is the only backpressure status; a 503
            # means the engine itself is unavailable and must surface as a
            # plain (retryable) ServiceError, not as load shedding
            raise BackpressureError(status, document, headers)
        if not 200 <= status < 300:
            raise ServiceError(status, document, headers)
        return document

    def close(self) -> None:
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None
        with self._topology_lock:
            peers = list(self._peers.values())
            self._peers.clear()
        for peer in peers:
            peer.close()

    # ------------------------------------------------------------------
    # replica-set routing (endpoints= mode)
    # ------------------------------------------------------------------
    def _peer(self, endpoint: str) -> "ServiceClient":
        with self._topology_lock:
            peer = self._peers.get(endpoint)
            if peer is None:
                host, port = parse_primary_url(endpoint)
                peer = ServiceClient(
                    host, port, timeout=self.timeout, tenant=self.tenant
                )
                self._peers[endpoint] = peer
        return peer

    def _refresh_topology(self, force: bool = False) -> None:
        """Re-learn who is primary and how far along each standby is.

        Probes every endpoint's ``topology`` route; unreachable members
        are simply absent from the cache this round.  When several
        members claim ``primary`` (a just-promoted standby racing a
        zombie), the highest epoch wins — the fenced zombie answers
        writes with ``tenant_fenced`` anyway, so a wrong pick here only
        costs one reroute.
        """
        now = time.monotonic()
        with self._topology_lock:
            fresh = (
                self._topology_at is not None
                and now - self._topology_at < self.topology_max_age
            )
            if fresh and not force:
                return
        fleet: Dict[str, Dict[str, object]] = {}
        for endpoint in self.endpoints or []:
            peer = self._peer(endpoint)
            try:
                document = peer._expect_ok(
                    "GET", f"/v1/tenants/{peer.tenant}/topology"
                )
            except (OSError, ServiceError):
                continue
            if isinstance(document, dict):
                fleet[endpoint] = document
        primary: Optional[str] = None
        best_epoch = -1
        for endpoint, document in fleet.items():
            if document.get("role") == "primary" and not document.get("fenced"):
                epoch = int(document.get("epoch", 0))  # type: ignore[arg-type]
                if epoch > best_epoch:
                    best_epoch = epoch
                    primary = endpoint
        with self._topology_lock:
            self._fleet = fleet
            self._primary_endpoint = primary
            self._topology_at = time.monotonic()

    def _select_reader(
        self, min_position: Optional[int] = None, force: bool = False
    ) -> "ServiceClient":
        """The least-lagged standby (ties: most applied), else the primary.

        With ``min_position``, only standbys whose *cached* applied
        position already covers it qualify — positions are monotone, so
        the cache is a safe lower bound — and the primary (which always
        satisfies any barrier it acked) is the fallback.
        """
        self._refresh_topology(force=force)
        with self._topology_lock:
            fleet = dict(self._fleet)
            primary = self._primary_endpoint
        floor = 0 if min_position is None else int(min_position)
        candidates: List[Tuple[int, int, str]] = []
        for endpoint, document in fleet.items():
            if document.get("role") != "standby":
                continue
            applied = int(document.get("applied", 0))  # type: ignore[arg-type]
            if applied < floor:
                continue
            lag = int(document.get("lag", 0))  # type: ignore[arg-type]
            candidates.append((lag, -applied, endpoint))
        if candidates:
            candidates.sort()
            return self._peer(candidates[0][2])
        if primary is not None:
            return self._peer(primary)
        # nothing answered the topology probe: try the configured head
        # and let the per-request error drive the next refresh
        return self._peer((self.endpoints or [f"{self.host}:{self.port}"])[0])

    def _select_writer(self) -> "ServiceClient":
        with self._topology_lock:
            primary = self._primary_endpoint
        if primary is not None:
            return self._peer(primary)
        return self._peer((self.endpoints or [f"{self.host}:{self.port}"])[0])

    def _routed_read(
        self,
        method: str,
        suffix: str,
        payload: Optional[object] = None,
        as_of: Optional[AsOf] = None,
        min_position: Optional[int] = None,
    ) -> object:
        if self.endpoints is None:
            return self._expect_ok(method, self._tenant_path(suffix, as_of=as_of), payload)
        last_error: Optional[Exception] = None
        for attempt in range(3):
            peer = self._select_reader(min_position, force=attempt > 0)
            try:
                return peer._expect_ok(
                    method, peer._tenant_path(suffix, as_of=as_of), payload
                )
            except BackpressureError:
                raise
            except ServiceError as exc:
                if exc.code not in _REROUTE_CODES:
                    raise
                last_error = exc
            except OSError as exc:
                last_error = exc
        assert last_error is not None
        raise last_error

    def _routed_write(
        self,
        method: str,
        suffix: str,
        payload: Optional[object] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> object:
        if self.endpoints is None:
            return self._expect_ok(
                method, self._tenant_path(suffix), payload, extra_headers
            )
        last_error: Optional[Exception] = None
        for attempt in range(4):
            if attempt:
                # a mid-failover fleet needs a beat for the watchdog to
                # promote; burning all attempts in microseconds helps no one
                time.sleep(0.05 * attempt)
            self._refresh_topology(force=attempt > 0)
            peer = self._select_writer()
            try:
                return peer._expect_ok(
                    method, peer._tenant_path(suffix), payload, extra_headers
                )
            except BackpressureError:
                raise
            except ServiceError as exc:
                if exc.code not in _REROUTE_CODES:
                    raise
                last_error = exc
            except OSError as exc:
                last_error = exc
        assert last_error is not None
        raise last_error

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # service-level routes
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        """Liveness document: status, library version, tenant aggregate."""
        return self._expect_ok("GET", "/v1/healthz")  # type: ignore[return-value]

    def metrics_text(self) -> str:
        """The raw ``/metrics`` Prometheus text exposition (version 0.0.4)."""
        status, document, headers = self._request("GET", "/metrics")
        if not 200 <= status < 300:
            raise ServiceError(status, document, headers)
        if not isinstance(document, str):
            raise ServiceError(
                status, {"error": "non-text /metrics payload"}, headers
            )
        return document

    def debug_traces(
        self, trace_id: Optional[str] = None, limit: Optional[int] = None
    ) -> Dict[str, object]:
        """Recent completed spans (optionally one trace's, last ``limit``)."""
        params = []
        if trace_id is not None:
            params.append(f"trace_id={quote(trace_id, safe='')}")
        if limit is not None:
            params.append(f"limit={int(limit)}")
        path = "/v1/debug/traces"
        if params:
            path += "?" + "&".join(params)
        return self._expect_ok("GET", path)  # type: ignore[return-value]

    def debug_decisions(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The fleet decision log's most recent events over HTTP."""
        path = "/v1/debug/decisions"
        if limit is not None:
            path += f"?limit={int(limit)}"
        return self._expect_ok("GET", path)  # type: ignore[return-value]

    def debug_profile(
        self, seconds: float = 1.0, interval: Optional[float] = None
    ) -> Dict[str, object]:
        """Sample the server's thread stacks for ``seconds``.

        Returns flamegraph-ready collapsed stacks (``"frame;frame 12"``
        lines under ``"stacks"``).  The server clamps the window, but the
        client timeout must out-wait it — pass a generous ``timeout`` to
        the constructor for long profiles.
        """
        path = f"/v1/debug/profile?seconds={float(seconds)}"
        if interval is not None:
            path += f"&interval={float(interval)}"
        return self._expect_ok("GET", path)  # type: ignore[return-value]

    def list_tenants(self) -> List[Dict[str, object]]:
        """Headline documents for every hosted tenant."""
        document = self._expect_ok("GET", "/v1/tenants")
        return list(document["tenants"])  # type: ignore[index]

    def create_tenant(
        self,
        name: Optional[str] = None,
        backend: Optional[str] = None,
        queue_capacity: Optional[int] = None,
        params: Optional[Dict[str, object]] = None,
        exist_ok: bool = False,
        shards: Optional[int] = None,
        replica_of: Optional[str] = None,
    ) -> Dict[str, object]:
        """Create a tenant (the client's own tenant when ``name`` is None).

        ``params`` is a partial override of the server's default parameter
        bundle (e.g. ``{"epsilon": 0.4, "mu": 3}``).  ``shards`` selects
        the tenant's engine shape: ``1`` (or ``None``, the server default)
        is a single engine, ``N > 1`` a hash-partitioned sharded engine.
        ``replica_of`` (``host:port`` of the primary server) creates the
        tenant as a warm *standby* replica of the same-named tenant there:
        shape and state are discovered from the primary, reads are served
        locally, writes are rejected until ``promote_tenant``.  With
        ``exist_ok`` a 409 from an already-existing tenant is swallowed
        and the existing tenant's description returned.
        """
        tenant = name if name is not None else self.tenant
        payload: Dict[str, object] = {"tenant": tenant}
        if backend is not None:
            payload["backend"] = backend
        if queue_capacity is not None:
            payload["queue_capacity"] = queue_capacity
        if params is not None:
            payload["params"] = params
        if shards is not None:
            payload["shards"] = shards
        if replica_of is not None:
            payload["replica_of"] = replica_of
        try:
            return self._expect_ok("POST", "/v1/tenants", payload)  # type: ignore[return-value]
        except ServiceError as exc:
            if exist_ok and exc.status == 409 and exc.code == "tenant_exists":
                return self.describe_tenant(tenant)
            raise

    def describe_tenant(self, name: Optional[str] = None) -> Dict[str, object]:
        """One tenant's headline document."""
        tenant = name if name is not None else self.tenant
        return self._expect_ok("GET", f"/v1/tenants/{tenant}")  # type: ignore[return-value]

    def delete_tenant(self, name: Optional[str] = None) -> None:
        """Delete a tenant (the client's own tenant when ``name`` is None)."""
        tenant = name if name is not None else self.tenant
        self._expect_ok("DELETE", f"/v1/tenants/{tenant}")

    # ------------------------------------------------------------------
    # replication routes
    # ------------------------------------------------------------------
    def promote_tenant(self, name: Optional[str] = None) -> Dict[str, object]:
        """Promote a standby tenant to primary; returns the promotion document.

        The server fences the old primary (best effort — an unreachable
        one is presumed dead), drains the standby's replay queue and flips
        it writable; the response carries the new ``epoch`` and the
        ``applied`` position at promotion.
        """
        tenant = name if name is not None else self.tenant
        return self._expect_ok(  # type: ignore[return-value]
            "POST", f"/v1/tenants/{tenant}/promote"
        )

    def fence_tenant(self, epoch: int, name: Optional[str] = None) -> Dict[str, object]:
        """Fence a (primary) tenant at ``epoch``: it rejects writes from now on."""
        tenant = name if name is not None else self.tenant
        return self._expect_ok(  # type: ignore[return-value]
            "POST", f"/v1/tenants/{tenant}/fence", {"epoch": epoch}
        )

    def topology(self, name: Optional[str] = None) -> Dict[str, object]:
        """The replication-topology document of a tenant.

        Single-endpoint mode returns the server's
        ``GET /v1/tenants/{t}/topology`` body (role, upstream, per-shard
        positions with wall-clock staleness, downstream acks).  In
        replica-set mode it instead returns the *fleet* view the router
        uses: ``{"primary": endpoint|None, "endpoints": {endpoint:
        topology document}}`` after a forced refresh.
        """
        if self.endpoints is not None and name is None:
            self._refresh_topology(force=True)
            with self._topology_lock:
                return {
                    "tenant": self.tenant,
                    "primary": self._primary_endpoint,
                    "endpoints": dict(self._fleet),
                }
        tenant = name if name is not None else self.tenant
        return self._expect_ok(  # type: ignore[return-value]
            "GET", f"/v1/tenants/{tenant}/topology"
        )

    def reparent_tenant(
        self, replica_of: str, name: Optional[str] = None
    ) -> Dict[str, object]:
        """Re-point a standby tenant at a new upstream primary.

        The orphan-rescue call after a promotion elsewhere in the fleet;
        the response says whether the standby could resume in place or
        had to re-seed (``{"reseeded": bool}``).
        """
        tenant = name if name is not None else self.tenant
        return self._expect_ok(  # type: ignore[return-value]
            "POST", f"/v1/tenants/{tenant}/reparent", {"replica_of": replica_of}
        )

    def primary_position(self) -> int:
        """The primary's current applied position (a read-your-writes barrier).

        Capture it after a write, then pass it as ``min_position=`` to a
        read: the read is then guaranteed to be served from a view that
        includes everything the primary had applied at capture time.
        """
        if self.endpoints is None:
            document = self.topology()
            return int(document.get("applied", 0))  # type: ignore[arg-type]
        self._refresh_topology(force=True)
        with self._topology_lock:
            primary = self._primary_endpoint
            fleet = dict(self._fleet)
        if primary is None:
            raise ServiceError(
                503,
                {
                    "error": {
                        "code": "no_primary",
                        "message": "no reachable endpoint claims primary",
                        "retryable": True,
                    }
                },
            )
        return int(fleet[primary].get("applied", 0))  # type: ignore[arg-type]

    def fetch_wal(
        self,
        from_position: int,
        shard: Optional[int] = None,
        max_records: Optional[int] = None,
        ack: Optional[int] = None,
    ) -> Dict[str, object]:
        """Fetch a WAL range of this client's tenant (the shipping protocol).

        Returns the raw document: ``records`` (wire-form updates starting
        at ``from``), the primary's ``applied`` position and ``epoch``,
        and ``torn`` when the served segment chain is damaged.  A request
        below the retained horizon raises a ``wal_gap``
        :class:`ServiceError` carrying ``min_position`` in its document.
        """
        query = [f"from={int(from_position)}"]
        if shard is not None:
            query.append(f"shard={int(shard)}")
        if max_records is not None:
            query.append(f"max={int(max_records)}")
        if ack is not None:
            query.append(f"ack={int(ack)}")
        path = self._tenant_path("/wal") + "?" + "&".join(query)
        return self._expect_ok("GET", path)  # type: ignore[return-value]

    def fetch_snapshot(self, shard: Optional[int] = None) -> Dict[str, object]:
        """Fetch the last checkpointed snapshot document (the re-seed payload)."""
        path = self._tenant_path("/snapshot")
        if shard is not None:
            path += f"?shard={int(shard)}"
        return self._expect_ok("GET", path)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # per-tenant routes
    # ------------------------------------------------------------------
    def stats(
        self,
        as_of: Optional[AsOf] = None,
        min_position: Optional[int] = None,
    ) -> Dict[str, object]:
        """View statistics plus engine metrics for this client's tenant.

        With ``as_of`` (an applied position, a per-shard position sequence
        for sharded tenants, or ``"latest"``), the view-statistics portion
        describes the tenant's *historical* view at that position instead
        of the live one; pruned history raises a 410
        ``as_of_unavailable`` :class:`ServiceError` whose document carries
        ``oldest_position``.  ``min_position`` is the replica-set read
        barrier (see :meth:`primary_position`); single-endpoint clients
        ignore it.
        """
        return self._routed_read(  # type: ignore[return-value]
            "GET", "/stats", as_of=as_of, min_position=min_position
        )

    def submit_updates(
        self,
        updates: Sequence[Update],
        max_retries: int = 0,
        trace_id: Optional[str] = None,
    ) -> int:
        """Submit a batch of updates; returns the total accepted count.

        With ``max_retries == 0`` (the default) a shed batch raises
        :class:`BackpressureError` immediately (inspect ``.accepted`` /
        ``.retry_after_ms``).  With retries, the client waits the server's
        suggestion — :attr:`BackpressureError.retry_after_s`, the smaller
        of the precise JSON ``retry_after_ms`` and the coarse
        ``Retry-After`` header — then resubmits the unaccepted suffix, up
        to ``max_retries`` times; the final :class:`BackpressureError` (if
        any) carries the last attempt's context plus ``total_accepted``,
        the cumulative count the server applied across every attempt.

        ``trace_id`` is sent as the ``X-Repro-Trace`` header: the server
        samples the request, tags every accepted update with the id, and
        the trace is queryable end-to-end (router → shard apply → standby
        replay) via :meth:`debug_traces`.
        """
        headers = {"X-Repro-Trace": trace_id} if trace_id is not None else None
        remaining = list(updates)
        total_accepted = 0
        retries = 0
        while True:
            payload = {"updates": [encode_update(u) for u in remaining]}
            try:
                document = self._routed_write(
                    "POST", "/updates", payload, extra_headers=headers
                )
                return total_accepted + int(document["accepted"])  # type: ignore[index]
            except BackpressureError as exc:
                total_accepted += exc.accepted
                remaining = remaining[exc.accepted :]
                if retries >= max_retries:
                    exc._total_accepted = total_accepted
                    raise
                retries += 1
                if exc.retry_after_s > 0.0:
                    time.sleep(exc.retry_after_s)

    def group_by(
        self,
        vertices: Iterable[Vertex],
        as_of: Optional[AsOf] = None,
        min_position: Optional[int] = None,
    ) -> GroupByResult:
        """Snapshot-consistent cluster-group-by over ``vertices``.

        With ``as_of``, the group-by is answered from the tenant's
        historical view at that position (see :meth:`stats` for the
        argument forms and failure modes) — a time-travel read.
        ``min_position`` is the replica-set read barrier.
        """
        document = self.group_by_raw(vertices, as_of=as_of, min_position=min_position)
        groups = {
            int(gid): set(members)
            for gid, members in document["groups"].items()  # type: ignore[index]
        }
        return GroupByResult(groups=groups)

    def group_by_raw(
        self,
        vertices: Iterable[Vertex],
        as_of: Optional[AsOf] = None,
        min_position: Optional[int] = None,
    ) -> Dict[str, object]:
        """Like :meth:`group_by` but returns the raw document (with version)."""
        return self._routed_read(  # type: ignore[return-value]
            "POST",
            "/group-by",
            {"vertices": list(vertices)},
            as_of=as_of,
            min_position=min_position,
        )

    def cluster_of(
        self,
        vertex: Vertex,
        as_of: Optional[AsOf] = None,
        min_position: Optional[int] = None,
    ) -> List[int]:
        """Cluster indices of one vertex in the current view.

        The vertex is encoded with the lossless token convention — the int
        ``123`` travels as ``/cluster/123``, the string ``"123"`` as
        ``/cluster/~123`` — then percent-encoded so non-ASCII identifiers
        survive the URL path (the v1 server percent-decodes the segment).
        With ``as_of``, answered from the historical view at that position
        (see :meth:`stats`).
        """
        token = quote(format_vertex_token(vertex), safe="")
        document = self._routed_read(
            "GET", f"/cluster/{token}", as_of=as_of, min_position=min_position
        )
        return list(document["clusters"])  # type: ignore[index]
