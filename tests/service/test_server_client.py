"""End-to-end tests of the JSON/HTTP server and its client."""

from __future__ import annotations

import json
import logging
import threading
import time

import pytest

import repro
from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.service.client import BackpressureError, ServiceClient, ServiceError
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
