"""End-to-end tests of the JSON/HTTP server and its client."""

from __future__ import annotations

import json
import logging
import random
import socket
import threading
import time

import pytest

import repro
from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.service.client import (
    BackpressureError,
    ServiceClient,
    ServiceError,
    TransportError,
)
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.service.server import BackgroundServer, decode_updates, encode_update

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)

TRIANGLES = [
    Update.insert(1, 2),
    Update.insert(2, 3),
    Update.insert(1, 3),
    Update.insert(4, 5),
    Update.insert(5, 6),
    Update.insert(4, 6),
]


@pytest.fixture
def service():
    engine = ClusteringEngine(
        PARAMS, config=EngineConfig(batch_size=8)
    )
    with engine, BackgroundServer(engine) as background:
        client = ServiceClient("127.0.0.1", background.port)
        yield engine, client
        client.close()


class TestWireFormat:
    def test_encode_decode_round_trip(self):
        updates = [Update.insert(1, 2), Update.delete("a", "b")]
        wire = {"updates": [encode_update(u) for u in updates]}
        assert decode_updates(json.loads(json.dumps(wire))) == updates

    def test_decode_rejects_malformed(self):
        from repro.service.server import BadRequest

        with pytest.raises(BadRequest):
            decode_updates({"updates": [["*", 1, 2]]})
        with pytest.raises(BadRequest):
            decode_updates({"updates": [[1, 2]]})
        with pytest.raises(BadRequest):
            decode_updates({"nope": []})
        with pytest.raises(BadRequest):
            decode_updates({"updates": [["+", 1.5, 2]]})


class TestRoutes:
    def test_healthz(self, service):
        _engine, client = service
        document = client.healthz()
        assert document["status"] == "ok"
        assert document["version"] == repro.__version__

    def test_ingest_then_query(self, service):
        engine, client = service
        assert client.submit_updates(TRIANGLES) == 6
        engine.flush(timeout=10)
        result = client.group_by([1, 2, 4, 6])
        assert {frozenset(g) for g in result.as_sets()} == {
            frozenset({1, 2}),
            frozenset({4, 6}),
        }
        assert client.cluster_of(1) != client.cluster_of(4)
        raw = client.group_by_raw([1, 2])
        assert raw["view_version"] == 6

    def test_stats(self, service):
        engine, client = service
        client.submit_updates(TRIANGLES[:3])
        engine.flush(timeout=10)
        document = client.stats()
        assert document["applied"] == 3
        assert document["view_version"] == 3
        assert "metrics" in document
        assert document["metrics"]["counters"]["updates_applied"] == 3

    def test_string_vertices(self, service):
        engine, client = service
        client.submit_updates(
            [Update.insert("a", "b"), Update.insert("b", "c"), Update.insert("a", "c")]
        )
        engine.flush(timeout=10)
        result = client.group_by(["a", "b", "c"])
        assert {frozenset(g) for g in result.as_sets()} == {frozenset({"a", "b", "c"})}
        assert client.cluster_of("a") == client.cluster_of("b")

    def test_unknown_route_and_bad_method(self, service):
        _engine, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._expect_ok("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._expect_ok("GET", "/v1/tenants/default/updates")
        assert excinfo.value.status == 405

    def test_bad_json_body(self, service):
        _engine, client = service
        status, document, _headers = client._request(
            "POST", "/v1/tenants/default/group-by", payload=None
        )
        # no body at all: the server answers 400, not a connection error
        assert status == 400
        assert "error" in document

    def test_numeric_string_vertices_are_lossless_across_routes(self, service):
        """Regression: JSON "1" and 1 are *distinct* vertices on every route.

        The pre-v1 server collapsed numeric strings to ints on ingest,
        group-by and the cluster route, so a string vertex silently merged
        with its int namesake.  Canonicalisation is now explicit and
        lossless: the string triangle clusters on its own, and the int
        vertices remain unknown.
        """
        engine, client = service
        client.submit_updates(
            [Update.insert("1", "2"), Update.insert("2", "3"), Update.insert("1", "3")]
        )
        engine.flush(timeout=10)
        by_str = client.group_by(["1", "2", "3"])
        assert {frozenset(g) for g in by_str.as_sets()} == {frozenset({"1", "2", "3"})}
        # the ints were never inserted: the same query by int finds nothing
        assert client.group_by([1, 2, 3]).as_sets() == []
        # mixed query returns only the string community, types preserved
        mixed = client.group_by([1, "1", 2, "2"])
        assert {frozenset(g) for g in mixed.as_sets()} == {frozenset({"1", "2"})}
        # the cluster route distinguishes the two via the ~ token escape
        assert client.cluster_of("1") != []
        assert client.cluster_of(1) == []

    def test_malformed_content_length_gets_400_not_reset(self, service):
        import http.client

        _engine, client = service
        connection = http.client.HTTPConnection(client.host, client.port, timeout=5)
        connection.putrequest("POST", "/group-by", skip_host=False)
        connection.putheader("Content-Length", "abc")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert b"Content-Length" in response.read()
        connection.close()

    def test_handler_crash_returns_500_not_connection_abort(self, service):
        engine, client = service
        engine.stats = lambda: (_ for _ in ()).throw(RuntimeError("injected"))
        with pytest.raises(ServiceError) as excinfo:
            client.stats()
        assert excinfo.value.status == 500
        # and the connection is still usable afterwards
        assert client.healthz()["status"] == "ok"

    def test_backpressure_maps_to_503(self):
        # a never-started engine cannot drain its queue: the second batch
        # must overflow the 4-slot queue and surface as a 503
        engine = ClusteringEngine(PARAMS, config=EngineConfig(queue_capacity=4))
        try:
            with BackgroundServer(engine) as background:
                client = ServiceClient("127.0.0.1", background.port)
                with pytest.raises(BackpressureError) as excinfo:
                    client.submit_updates(TRIANGLES)
                assert excinfo.value.accepted == 4
                client.close()
        finally:
            engine.close(checkpoint=False)


def _asyncio_errors(caplog):
    return [
        record
        for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]


class TestShutdown:
    def test_idle_keep_alive_connection_closes_without_error(self, caplog):
        # the client keeps its connection open after one request, so the
        # server's handler is parked in readline when the loop shuts down
        caplog.set_level(logging.ERROR, logger="asyncio")
        engine = ClusteringEngine(PARAMS).start()
        try:
            background = BackgroundServer(engine).start()
            client = ServiceClient("127.0.0.1", background.port)
            client.stats()
            background.stop()
            client.close()
        finally:
            engine.close(checkpoint=False)
        assert _asyncio_errors(caplog) == []

    def test_request_in_flight_at_stop_ends_without_error(self, caplog):
        # /metrics runs in a worker thread; stop() lands while the handler
        # awaits it, so the handler must finish and not park again
        caplog.set_level(logging.ERROR, logger="asyncio")
        engine = ClusteringEngine(PARAMS).start()
        try:
            background = BackgroundServer(engine).start()
            dispatch = background.server._dispatch
            in_flight = threading.Event()

            def slow_dispatch(*args):
                in_flight.set()
                time.sleep(0.3)
                return dispatch(*args)

            background.server._dispatch = slow_dispatch
            client = ServiceClient("127.0.0.1", background.port)
            outcome = []

            def scrape():
                try:
                    outcome.append(client.metrics_text())
                except (OSError, ServiceError) as exc:
                    outcome.append(exc)

            scraper = threading.Thread(target=scrape)
            scraper.start()
            assert in_flight.wait(5.0)
            started = time.monotonic()
            background.stop()
            stop_seconds = time.monotonic() - started
            scraper.join(5.0)
            client.close()
        finally:
            engine.close(checkpoint=False)
        assert not scraper.is_alive() and len(outcome) == 1
        assert stop_seconds < 5.0
        assert _asyncio_errors(caplog) == []


# ----------------------------------------------------------------------
# the client transport: one keep-alive connection, one write per request
# ----------------------------------------------------------------------
def _read_http_request(conn: socket.socket) -> bytes:
    """Read one request (head plus its Content-Length body) off ``conn``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        body += conn.recv(65536)
    return data


def _http_reply(status: str, body: bytes, *headers: str, length=None) -> bytes:
    lines = [f"HTTP/1.1 {status}", "Content-Type: application/json"]
    lines.append(f"Content-Length: {len(body) if length is None else length}")
    lines.extend(headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


OK_HEALTH = _http_reply("200 OK", b'{"status": "ok"}')


class _StubPeer:
    """A scripted HTTP peer for the cases a real server never produces.

    The n-th accepted connection runs the n-th script, ``script(conn)``;
    a script closes ``conn`` itself when the case needs the peer to hang
    up, and every socket left open is closed by :meth:`close`.
    """

    def __init__(self, *scripts) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(5.0)
        self.port = self._listener.getsockname()[1]
        self.connections = 0
        self._open: list = []
        self._thread = threading.Thread(
            target=self._serve, args=(scripts,), name="stub-peer", daemon=True
        )
        self._thread.start()

    def _serve(self, scripts) -> None:
        for script in scripts:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            self._open.append(conn)
            script(conn)

    def join(self) -> None:
        self._thread.join(5.0)
        assert not self._thread.is_alive()

    def close(self) -> None:
        self._listener.close()
        self.join()
        for conn in self._open:
            conn.close()


def _answer(reply: bytes, hang_up: bool = False):
    def script(conn: socket.socket) -> None:
        _read_http_request(conn)
        conn.sendall(reply)
        if hang_up:
            conn.close()

    return script


@pytest.fixture
def stub_client():
    made = []

    def make(*scripts):
        stub = _StubPeer(*scripts)
        client = ServiceClient("127.0.0.1", stub.port, timeout=2.0)
        made.append((stub, client))
        return stub, client

    yield make
    for stub, client in made:
        client.close()
        stub.close()


class TestTransport:
    def test_one_sendall_per_request(self, service, monkeypatch):
        engine, client = service
        writes = []
        real_sendall = socket.socket.sendall

        def counting_sendall(sock, data, *args):
            writes.append(bytes(data))
            return real_sendall(sock, data, *args)

        # the in-process server writes through asyncio transports (send),
        # so every sendall seen here is the client's
        monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
        client.submit_updates(TRIANGLES)
        engine.flush(timeout=10)
        client.group_by([1, 2, 3])
        client.stats()
        monkeypatch.undo()
        assert len(writes) == 3
        ingest, group_by, stats = writes
        # each write is a whole request: head, blank line, then the body
        assert ingest.startswith(b"POST /v1/tenants/default/updates HTTP/1.1\r\n")
        head, _, body = ingest.partition(b"\r\n\r\n")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body)["updates"][0] == ["+", 1, 2]
        assert group_by.endswith(b'{"vertices": [1, 2, 3]}')
        assert stats.startswith(b"GET /v1/tenants/default/stats HTTP/1.1\r\n")
        assert stats.endswith(b"\r\n\r\n")

    def test_idle_connection_closed_by_peer_reconnects_once(self, stub_client):
        stub, client = stub_client(_answer(OK_HEALTH, hang_up=True), _answer(OK_HEALTH))
        assert client.healthz() == {"status": "ok"}
        # the peer hung up the idle keep-alive connection: the next call
        # fails on it, reconnects and succeeds
        assert client.healthz() == {"status": "ok"}
        assert stub.connections == 2

    def test_two_failures_in_a_row_raise(self, stub_client):
        hang_up = _answer(b"", hang_up=True)
        stub, client = stub_client(hang_up, hang_up)
        with pytest.raises(TransportError, match="closed the connection"):
            client.healthz()
        stub.join()
        assert stub.connections == 2  # one reconnect, no third attempt

    def test_connection_close_reply_is_followed_by_a_fresh_connection(
        self, stub_client
    ):
        # the first peer announces Connection: close but leaves the socket
        # open: a client that reused it would wait out its timeout
        closing = _http_reply("200 OK", b'{"status": "ok"}', "Connection: close")
        stub, client = stub_client(_answer(closing), _answer(OK_HEALTH))
        assert client.healthz() == {"status": "ok"}
        assert client._connection is None
        assert client.healthz() == {"status": "ok"}
        assert stub.connections == 2

    @pytest.mark.parametrize(
        "reply, message",
        [
            (_http_reply("200 OK", b'{"status": ', length=100), "truncated at 11 of 100"),
            (b'HTTP/1.1 200 OK\r\n\r\n{"status": "ok"}', "Content-Length ''"),
            (b"SSH-2.0-OpenSSH\r\n\r\n", "malformed status line"),
        ],
        ids=["truncated-body", "no-length", "not-http"],
    )
    def test_broken_reply_raises_after_one_resend(self, stub_client, reply, message):
        stub, client = stub_client(
            _answer(reply, hang_up=True), _answer(reply, hang_up=True)
        )
        with pytest.raises(TransportError, match=message):
            client.healthz()
        assert stub.connections == 2

    def test_backpressure_reads_the_lowercased_retry_after_header(self, stub_client):
        shed = _http_reply(
            "429 Too Many Requests", b'{"accepted": 0}', "Retry-After: 2"
        )
        _stub, client = stub_client(_answer(shed))
        with pytest.raises(BackpressureError) as excinfo:
            client.submit_updates(TRIANGLES[:1])
        assert excinfo.value.headers == {
            "content-type": "application/json",
            "content-length": "15",
            "retry-after": "2",
        }
        assert excinfo.value.retry_after_s == 2.0

    def test_multi_megabyte_snapshot_arrives_byte_exact(self, tmp_path):
        rng = random.Random(5)
        big = {
            "updates_processed": 6,
            "pad": rng.randbytes(1 << 20).hex(),
            "edges": [[rng.randrange(1 << 30), rng.randrange(1 << 30)] for _ in range(50000)],
        }
        engine = ClusteringEngine(PARAMS, data_dir=tmp_path).start()
        try:
            engine.read_snapshot_document = lambda: big
            with BackgroundServer(engine) as background:
                client = ServiceClient("127.0.0.1", background.port)
                document = client.fetch_snapshot()
                client.close()
        finally:
            engine.close(checkpoint=False)
        assert len(json.dumps(document)) > 3 << 20
        assert document["snapshot"] == big


class TestGroupByVertexIds:
    """The int fast path of group-by keeps the lossless id contract."""

    def test_all_int_and_mixed_queries(self, service):
        engine, client = service
        client.submit_updates(
            TRIANGLES[:3]
            + [Update.insert("1", "2"), Update.insert("2", "3"), Update.insert("1", "3")]
        )
        engine.flush(timeout=10)
        assert {frozenset(g) for g in client.group_by([1, 2, 3]).as_sets()} == {
            frozenset({1, 2, 3})
        }
        mixed = client.group_by([1, "1", 2, "2"])
        assert {frozenset(g) for g in mixed.as_sets()} == {
            frozenset({1, 2}),
            frozenset({"1", "2"}),
        }

    @pytest.mark.parametrize("bad", [True, 1.0, "a b"], ids=["bool", "float", "space"])
    def test_non_canonical_ids_get_400(self, service, bad):
        _engine, client = service
        status, document, _headers = client._request(
            "POST", "/v1/tenants/default/group-by", {"vertices": [1, bad]}
        )
        assert status == 400
        assert document["error"]["code"] == "bad_request"

    def test_response_document_is_pinned_byte_for_byte(self, service):
        import http.client

        engine, client = service
        # one community mixing ints and a string: members sort by repr,
        # so "a" leads and 10 sits between 1 and 2
        client.submit_updates(
            [
                Update.insert(1, 2),
                Update.insert(2, 10),
                Update.insert(1, 10),
                Update.insert("a", 1),
                Update.insert("a", 2),
            ]
        )
        engine.flush(timeout=10)
        connection = http.client.HTTPConnection(client.host, client.port, timeout=5)
        connection.request(
            "POST", "/v1/tenants/default/group-by", body=b'{"vertices": [2, "a", 10, 1]}'
        )
        raw = connection.getresponse().read()
        connection.close()
        assert raw == b'{"view_version": 5, "groups": {"0": ["a", 1, 10, 2]}}'
