"""End-to-end tests of the v1 multi-tenant HTTP API.

Covers the versioned routes (tenant admin + the four per-tenant routes),
the structured error envelope, 429 backpressure with Retry-After, tenant
isolation over the wire, and the 404 every unversioned path (the removed
pre-v1 routes included) now answers.
"""

from __future__ import annotations

import http.client
import json

import pytest

import repro
from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.service.client import BackpressureError, ServiceClient, ServiceError
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.service.manager import EngineManager
from repro.service.server import BackgroundServer

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
FAST = EngineConfig(batch_size=8)

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
    with EngineManager(PARAMS, default_engine_config=FAST) as manager:
        with BackgroundServer(manager) as background:
            client = ServiceClient("127.0.0.1", background.port)
            yield manager, background, client
            client.close()


def _raw(background, method, path, payload=None):
    """One raw HTTP request; returns (status, headers, document)."""
    connection = http.client.HTTPConnection("127.0.0.1", background.port, timeout=5)
    body = None if payload is None else json.dumps(payload)
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    document = json.loads(raw) if raw else None
    result = response.status, dict(response.getheaders()), document
    connection.close()
    return result


class TestTenantAdmin:
    def test_healthz_reports_aggregate(self, service):
        _manager, _background, client = service
        document = client.healthz()
        assert document["status"] == "ok"
        assert document["version"] == repro.__version__
        assert document["api"] == "v1"
        assert document["tenants"] == 1

    def test_list_create_describe_delete(self, service):
        manager, _background, client = service
        assert [t["tenant"] for t in client.list_tenants()] == ["default"]
        created = client.create_tenant(
            "acme", backend="pscan", queue_capacity=32, params={"epsilon": 0.4}
        )
        assert created["tenant"] == "acme"
        assert created["backend"] == "pscan"
        assert created["queue_capacity"] == 32
        assert manager.config_of("acme").params.epsilon == 0.4
        assert [t["tenant"] for t in client.list_tenants()] == ["acme", "default"]
        assert client.describe_tenant("acme")["backend"] == "pscan"
        client.delete_tenant("acme")
        assert [t["tenant"] for t in client.list_tenants()] == ["default"]

    def test_create_conflict_and_exist_ok(self, service):
        _manager, _background, client = service
        client.create_tenant("dup")
        with pytest.raises(ServiceError) as excinfo:
            client.create_tenant("dup")
        assert excinfo.value.status == 409
        assert excinfo.value.code == "tenant_exists"
        # exist_ok swallows the conflict and returns the description
        assert client.create_tenant("dup", exist_ok=True)["tenant"] == "dup"

    def test_bad_tenant_payloads_get_400(self, service):
        _manager, background, client = service
        for payload in (None, {}, {"tenant": 7}, {"tenant": "x", "backend": 3},
                        {"tenant": "x", "queue_capacity": "big"},
                        {"tenant": "bad/name"},
                        {"tenant": "x", "backend": "nope"},
                        {"tenant": "x", "params": {"epsilon": 7.0}},
                        {"tenant": "x", "params": {"bogus": 1}}):
            status, _headers, document = _raw(background, "POST", "/v1/tenants", payload)
            assert status == 400, payload
            assert document["error"]["code"] == "bad_request"

    def test_unknown_tenant_envelope(self, service):
        _manager, background, client = service
        status, _headers, document = _raw(background, "GET", "/v1/tenants/ghost/stats")
        assert status == 404
        envelope = document["error"]
        assert envelope["code"] == "unknown_tenant"
        assert envelope["retryable"] is False
        assert "ghost" in envelope["message"]

    def test_unknown_v1_route_and_method_not_allowed(self, service):
        _manager, background, _client = service
        status, _headers, document = _raw(background, "GET", "/v1/nope")
        assert status == 404
        assert document["error"]["code"] == "not_found"
        status, _headers, document = _raw(background, "DELETE", "/v1/tenants/default/stats")
        assert status == 405
        assert document["error"]["code"] == "method_not_allowed"


class TestPerTenantRoutes:
    def test_ingest_query_stats_cluster(self, service):
        manager, _background, client = service
        client.create_tenant("acme")
        acme = client.for_tenant("acme")
        assert acme.submit_updates(TRIANGLES) == 6
        manager.get("acme").flush(timeout=10)
        result = acme.group_by([1, 2, 4, 6])
        assert {frozenset(g) for g in result.as_sets()} == {
            frozenset({1, 2}),
            frozenset({4, 6}),
        }
        assert acme.cluster_of(1) != acme.cluster_of(4)
        stats = acme.stats()
        assert stats["tenant"] == "acme"
        assert stats["applied"] == 6
        assert stats["backend"] == "dynstrclu"
        acme.close()

    def test_tenants_are_isolated_over_the_wire(self, service):
        manager, _background, client = service
        client.create_tenant("a")
        client.create_tenant("b")
        a, b = client.for_tenant("a"), client.for_tenant("b")
        a.submit_updates(TRIANGLES[:3])
        manager.get("a").flush(timeout=10)
        assert {frozenset(g) for g in a.group_by([1, 2, 3]).as_sets()} == {
            frozenset({1, 2, 3})
        }
        # tenant a's updates never appear in tenant b's group-by
        assert b.group_by([1, 2, 3]).as_sets() == []
        assert b.stats()["applied"] == 0
        a.close()
        b.close()

    def test_baseline_backend_serves_the_same_surface(self, service):
        manager, _background, client = service
        client.create_tenant("exact", backend="scan-exact")
        exact = client.for_tenant("exact")
        exact.submit_updates(TRIANGLES[:3])
        manager.get("exact").flush(timeout=10)
        assert {frozenset(g) for g in exact.group_by([1, 2, 3]).as_sets()} == {
            frozenset({1, 2, 3})
        }
        assert exact.stats()["backend"] == "scan-exact"
        exact.close()


class TestBackpressure429:
    def test_429_envelope_retry_after_and_client_exception(self):
        # a never-started engine cannot drain its queue: the batch overflows
        engine = ClusteringEngine(PARAMS, config=EngineConfig(queue_capacity=4))
        try:
            with BackgroundServer(engine) as background:
                status, headers, document = _raw(
                    background,
                    "POST",
                    "/v1/tenants/default/updates",
                    {"updates": [["+", i, i + 1] for i in range(8)]},
                )
                assert status == 429
                assert int(headers["Retry-After"]) >= 1
                envelope = document["error"]
                assert envelope["code"] == "backpressure"
                assert envelope["retryable"] is True
                assert document["accepted"] == 4
                assert document["submitted"] == 8
                assert document["queue_depth"] == 4
                assert document["queue_capacity"] == 4
                assert document["retry_after_ms"] >= 1

                client = ServiceClient("127.0.0.1", background.port)
                with pytest.raises(BackpressureError) as excinfo:
                    client.submit_updates([Update.insert(10, 11)])
                exc = excinfo.value
                assert exc.status == 429
                assert exc.code == "backpressure"
                assert exc.retryable
                assert exc.queue_depth == 4
                assert exc.queue_capacity == 4
                assert exc.retry_after_ms >= 1
                client.close()
        finally:
            engine.close(checkpoint=False)


class TestLosslessVertexTokens:
    def test_cluster_route_distinguishes_int_and_string(self, service):
        manager, background, client = service
        client.submit_updates(
            [Update.insert("7", "8"), Update.insert("8", "9"), Update.insert("7", "9")]
        )
        manager.get("default").flush(timeout=10)
        # the escaped token addresses the string vertex...
        status, _headers, document = _raw(
            background, "GET", "/v1/tenants/default/cluster/~7"
        )
        assert status == 200
        assert document["vertex"] == "7"
        assert document["clusters"] != []
        # ...the bare token the (absent) int vertex
        status, _headers, document = _raw(
            background, "GET", "/v1/tenants/default/cluster/7"
        )
        assert document["vertex"] == 7
        assert document["clusters"] == []
        # and the typed client round-trips both transparently
        assert client.cluster_of("7") != []
        assert client.cluster_of(7) == []

    def test_cluster_route_round_trips_non_ascii_ids(self, service):
        """The client percent-encodes the token; the v1 server decodes it."""
        manager, _background, client = service
        client.submit_updates(
            [
                Update.insert("café", "münchen"),
                Update.insert("münchen", "tōkyō"),
                Update.insert("café", "tōkyō"),
            ]
        )
        manager.get("default").flush(timeout=10)
        assert client.cluster_of("café") != []
        assert client.cluster_of("café") == client.cluster_of("tōkyō")

    def test_bare_escape_token_is_a_400(self, service):
        """Regression: a lone '~' used to answer 200 for the vertex ""."""
        _manager, background, _client = service
        for token in ("~", "%7E"):
            status, _headers, document = _raw(
                background, "GET", f"/v1/tenants/default/cluster/{token}"
            )
            assert status == 400
            assert document["error"]["code"] == "bad_request"

    def test_cluster_route_accepts_slash_bearing_string_ids(self, service):
        """Any WAL-legal identifier is addressable, '/' included."""
        manager, background, client = service
        client.submit_updates(
            [
                Update.insert("a/b", "c/d"),
                Update.insert("c/d", "e/f"),
                Update.insert("a/b", "e/f"),
            ]
        )
        manager.get("default").flush(timeout=10)
        status, _headers, document = _raw(
            background, "GET", "/v1/tenants/default/cluster/a/b"
        )
        assert status == 200
        assert document["vertex"] == "a/b"
        assert document["clusters"] != []
        assert client.cluster_of("a/b") != []


class TestEngineUnavailable503:
    def test_closed_engine_is_service_error_not_backpressure(self):
        """A 503 engine_unavailable must not masquerade as load shedding."""
        engine = ClusteringEngine(PARAMS, config=FAST).start()
        engine.close(checkpoint=False)
        with BackgroundServer(engine) as background:
            client = ServiceClient("127.0.0.1", background.port)
            with pytest.raises(ServiceError) as excinfo:
                client.submit_updates([Update.insert(1, 2)])
            exc = excinfo.value
            assert not isinstance(exc, BackpressureError)
            assert exc.status == 503
            assert exc.code == "engine_unavailable"
            assert exc.retryable
            client.close()


class TestUnversionedPaths:
    def test_pre_v1_routes_are_not_found(self, service):
        """The removed pre-v1 routes fall through to the v1 404 envelope."""
        manager, background, client = service
        for method, path, payload in (
            ("POST", "/updates", {"updates": [["+", 1, 2], ["+", 2, 3], ["+", 1, 3]]}),
            ("POST", "/group-by", {"vertices": [1, 2, 3]}),
            ("GET", "/cluster/1", None),
            ("GET", "/stats", None),
            ("GET", "/healthz", None),
        ):
            status, headers, document = _raw(background, method, path, payload)
            assert status == 404, path
            assert document["error"]["code"] == "not_found"
            assert "Deprecation" not in headers
        # and the POSTs reached no tenant
        manager.get("default").flush(timeout=10)
        assert client.stats()["applied"] == 0


#: two 4-cliques bridged by the hub 8, and the noise path 9-10-11
#: (at ε = 0.3, μ = 3: two clusters sharing 8, noise {9, 10, 11})
HUB_AND_NOISE = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    (8, 0), (8, 4), (9, 10), (10, 11),
]
HUB_PARAMS = {"epsilon": 0.3, "mu": 3}


class TestGroupByEveryVertex:
    """A group-by over the whole vertex set (the per-cluster path)."""

    @pytest.mark.parametrize("name", [lambda v: v, lambda v: f"v{v}"], ids=["int", "str"])
    def test_matches_the_live_maintainer(self, service, name):
        manager, background, client = service
        client.create_tenant("wide", params=HUB_PARAMS)
        wide = client.for_tenant("wide")
        updates = [Update.insert(name(u), name(v)) for u, v in HUB_AND_NOISE]
        assert wide.submit_updates(updates) == len(updates)
        manager.get("wide").flush(timeout=10)
        live = repro.DynStrClu(StrCluParams(epsilon=0.3, mu=3, rho=0.0))
        for update in updates:
            live.apply(update)
        vertices = [name(v) for v in range(12)]
        expected = {frozenset(g) for g in live.group_by(vertices).as_sets()}
        assert len(expected) == 2  # the hub lands in both

        # duplicates and an unknown vertex change nothing
        query = vertices + vertices[:4] + [name(99)]
        assert {frozenset(g) for g in wide.group_by(query).as_sets()} == expected
        status, _headers, document = _raw(
            background, "POST", "/v1/tenants/wide/group-by", {"vertices": query}
        )
        assert status == 200
        for members in document["groups"].values():
            assert members == sorted(set(members), key=repr)
        wide.close()

    @pytest.mark.parametrize("bad", [True, 1.5])
    def test_bool_and_float_vertices_are_a_400(self, service, bad):
        manager, background, client = service
        client.submit_updates(TRIANGLES)
        manager.get("default").flush(timeout=10)
        status, _headers, document = _raw(
            background,
            "POST",
            "/v1/tenants/default/group-by",
            {"vertices": list(range(1, 7)) + [bad]},
        )
        assert status == 400
        assert document["error"]["code"] == "bad_request"


class TestShardedTenantsOverHTTP:
    """The sharded engine behind the unchanged v1 surface."""

    def test_create_drive_and_inspect_a_sharded_tenant(self, service):
        _manager, background, client = service
        row = client.create_tenant("wide", shards=2)
        assert row["shards"] == 2
        wide = client.for_tenant("wide")
        assert wide.submit_updates(TRIANGLES) == len(TRIANGLES)
        _manager.get("wide").flush(timeout=10)

        stats = wide.stats()
        assert stats["num_shards"] == 2
        assert [s["shard"] for s in stats["shards"]] == [0, 1]
        assert all("queue_depth" in s for s in stats["shards"])
        assert stats["applied"] == len(TRIANGLES)

        groups = wide.group_by([1, 2, 3, 4, 5, 6])
        assert sorted(sorted(g) for g in groups.as_sets()) == [
            [1, 2, 3],
            [4, 5, 6],
        ]
        assert wide.cluster_of(1) == wide.cluster_of(2)

        health = client.healthz()
        assert health["shards"]["engines"] >= 3  # default + 2 inner engines
        assert health["shards"]["queue_depths"]["wide"] == [0, 0]
        wide.close()

    def test_invalid_shards_payload_is_a_400(self, service):
        _manager, background, _client = service
        status, _headers, document = _raw(
            background, "POST", "/v1/tenants", {"tenant": "x", "shards": "four"}
        )
        assert status == 400
        assert document["error"]["code"] == "bad_request"
        status, _headers, document = _raw(
            background, "POST", "/v1/tenants", {"tenant": "x", "shards": 0}
        )
        assert status == 400

    def test_sharded_tenant_isolation_over_the_wire(self, service):
        _manager, background, client = service
        client.create_tenant("wide", shards=3)
        wide = client.for_tenant("wide")
        wide.submit_updates(TRIANGLES)
        _manager.get("wide").flush(timeout=10)
        # the default tenant saw nothing
        assert client.stats()["applied"] == 0
        assert client.group_by([1, 2, 3]).as_sets() == []
        wide.close()
