"""Time-travel (``as_of``) reads: store semantics, retention and the HTTP surface.

Covers the :class:`~repro.service.timetravel.HistoricalViewStore` contract
(anchor+replay equality with a fresh sequential run, the materialised-view
LRU with its hit/miss/eviction counters, cached-replayer reuse), the
ack- and pin-aware WAL retention floor, the replayable-horizon telemetry,
and the v1 routes: ``?as_of`` on cluster/group-by/stats, the structured
410 ``as_of_unavailable`` for pruned history, and the strict rejection of
unknown query parameters.
"""

from __future__ import annotations

import pytest

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.core.result import clusterings_equal
from repro.graph.generators import planted_partition_graph
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.service.manager import EngineManager
from repro.service.server import BackgroundServer
from repro.service.sharding import ShardedEngine
from repro.service.timetravel import AsOfUnavailableError, HistoricalViewStore
from repro.workloads.updates import generate_update_sequence

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)


def _stream(num_updates=120, seed=5):
    edges = planted_partition_graph(2, 8, 0.8, 0.1, seed=3)
    workload = generate_update_sequence(16, edges, num_updates, eta=0.3, seed=seed)
    return list(workload.all_updates())


def _reference(stream, position):
    algo = DynStrClu(PARAMS)
    for update in stream[:position]:
        algo.apply(update)
    return algo.clustering()


def _drive(engine, stream):
    for update in stream:
        engine.submit(update)
    assert engine.flush(timeout=30)


@pytest.fixture
def durable_engine(tmp_path):
    config = EngineConfig(
        batch_size=4,
        checkpoint_every=25,
        wal_retain_segments=8,
    )
    with ClusteringEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
        engine.start()
        yield engine


class TestHistoricalViewStore:
    def test_as_of_equals_truncated_sequential_replay(self, durable_engine):
        stream = _stream()
        _drive(durable_engine, stream)
        applied = durable_engine.applied
        assert applied == len(stream)
        store = HistoricalViewStore(durable_engine, capacity=8)
        for position in (applied, applied - 1, applied // 2, applied // 3):
            view = store.view_at((position,))
            assert view.version == position
            assert clusterings_equal(view.clustering, _reference(stream, position))

    def test_second_query_is_an_lru_hit_without_replaying(self, durable_engine):
        stream = _stream(60)
        _drive(durable_engine, stream)
        position = durable_engine.applied // 2
        store = HistoricalViewStore(durable_engine, capacity=4)
        first = store.view_at((position,))
        replays = store.replay_latency.summary()["count"]
        again = store.view_at((position,))
        assert again is first  # the very same materialised view object
        assert store.replay_latency.summary()["count"] == replays
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert durable_engine.metrics.get("timetravel_hits") == 1

    def test_lru_evicts_oldest_beyond_capacity(self, durable_engine):
        stream = _stream(80)
        _drive(durable_engine, stream)
        applied = durable_engine.applied
        store = HistoricalViewStore(durable_engine, capacity=2)
        positions = [applied - 3, applied - 2, applied - 1]
        for position in positions:
            store.view_at((position,))
        stats = store.stats()
        assert stats["cached_views"] == 2
        assert stats["evictions"] == 1
        # the evicted (oldest) position replays again: a miss, not a hit
        store.view_at((positions[0],))
        assert store.stats()["misses"] == 4

    def test_cached_replayer_continues_forward(self, durable_engine):
        stream = _stream(100)
        _drive(durable_engine, stream)
        applied = durable_engine.applied
        store = HistoricalViewStore(durable_engine, capacity=8)
        early = store.view_at((applied // 4,))
        later = store.view_at((applied // 2,))  # continues the same replayer
        assert clusterings_equal(early.clustering, _reference(stream, applied // 4))
        assert clusterings_equal(later.clustering, _reference(stream, applied // 2))
        assert store.stats()["misses"] == 2

    def test_beyond_applied_is_a_value_error(self, durable_engine):
        _drive(durable_engine, _stream(40))
        store = HistoricalViewStore(durable_engine, capacity=2)
        with pytest.raises(ValueError, match="beyond the applied prefix"):
            store.view_at((durable_engine.applied + 1,))

    def test_wrong_arity_is_a_value_error(self, durable_engine):
        _drive(durable_engine, _stream(40))
        store = HistoricalViewStore(durable_engine, capacity=2)
        with pytest.raises(ValueError, match="exactly 1 per-shard"):
            store.view_at((1, 2))

    def test_non_durable_tenant_is_a_value_error(self):
        with ClusteringEngine(PARAMS, config=EngineConfig(batch_size=4)) as engine:
            engine.start()
            store = HistoricalViewStore(engine, capacity=2)
            with pytest.raises(ValueError, match="durable"):
                store.view_at((0,))

    def test_pruned_history_raises_as_of_unavailable(self, tmp_path):
        config = EngineConfig(
            batch_size=4,
            checkpoint_every=10,
            wal_retain_segments=1,
        )
        with ClusteringEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            engine.start()
            _drive(engine, _stream(150))
            horizon = engine.wal_horizon()
            assert horizon["oldest_replayable"] > 0  # history was pruned
            store = HistoricalViewStore(engine, capacity=2)
            with pytest.raises(AsOfUnavailableError) as excinfo:
                store.view_at((1,))
            assert excinfo.value.requested == 1
            assert excinfo.value.oldest == horizon["oldest_replayable"]
            # the oldest still-replayable position works
            view = store.view_at((horizon["oldest_replayable"],))
            assert view.version == horizon["oldest_replayable"]


class TestShardedTimeTravel:
    def test_sharded_as_of_matches_quiescent_view(self, tmp_path):
        stream = _stream(100)
        config = EngineConfig(
            batch_size=4,
            checkpoint_every=20,
            wal_retain_segments=8,
            shards=4,
        )
        with ShardedEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            engine.start()
            half = len(stream) // 2
            _drive(engine, stream[:half])
            mid_positions = tuple(shard.applied for shard in engine.shards)
            _drive(engine, stream[half:])
            store = HistoricalViewStore(engine, capacity=4)
            view = store.view_at(mid_positions)
            assert clusterings_equal(view.clustering, _reference(stream, half))
            with pytest.raises(ValueError, match="exactly 4 per-shard"):
                store.view_at((5,))


class TestRetentionFloor:
    def test_pin_holds_segments_and_unpin_releases(self, tmp_path):
        config = EngineConfig(
            batch_size=4,
            checkpoint_every=10,
            wal_retain_segments=1,
        )
        stream = _stream(200)
        with ClusteringEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            engine.start()
            _drive(engine, stream[:40])
            pin_position = engine.applied
            token = engine.pin_wal(pin_position)
            assert engine.retention_floor() == pin_position
            _drive(engine, stream[40:])
            # everything from the pin forward must still be replayable
            assert engine.wal_horizon()["oldest_replayable"] <= pin_position
            store = HistoricalViewStore(engine, capacity=2)
            view = store.view_at((pin_position,))
            assert clusterings_equal(view.clustering, _reference(stream, pin_position))
            engine.unpin_wal(token)
            assert engine.retention_floor() is None

    def test_standby_ack_floors_pruning(self, tmp_path):
        config = EngineConfig(
            batch_size=4,
            checkpoint_every=10,
            wal_retain_segments=1,
        )
        with ClusteringEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            engine.start()
            stream = _stream(200)
            _drive(engine, stream[:30])
            acked = engine.applied
            engine.note_standby_ack(acked)
            _drive(engine, stream[30:])
            # the slowest standby's position is still servable from the WAL
            assert engine.wal_horizon()["oldest_retained_base"] <= acked
            # a later ack advances the floor (last-wins, single slot)
            engine.note_standby_ack(engine.applied)
            assert engine.retention_floor() == engine.applied

    def test_floor_is_min_of_pins_and_ack(self, tmp_path):
        with ClusteringEngine(
            PARAMS,
            config=EngineConfig(wal_retain_segments=1),
            data_dir=tmp_path,
        ) as engine:
            assert engine.retention_floor() is None
            token_a = engine.pin_wal(50)
            token_b = engine.pin_wal(30)
            engine.note_standby_ack(40)
            assert engine.retention_floor() == 30
            engine.unpin_wal(token_b)
            assert engine.retention_floor() == 40
            engine.note_standby_ack(90)
            assert engine.retention_floor() == 50
            engine.unpin_wal(token_a)
            assert engine.retention_floor() == 90

    def test_manager_record_ack_reaches_engine_floor(self, tmp_path):
        manager = EngineManager(
            PARAMS,
            default_engine_config=EngineConfig(
                batch_size=4, wal_retain_segments=2
            ),
            data_root=tmp_path,
        )
        with manager:
            engine = manager.get("default")
            manager.record_ack("default", 0, 17)
            assert engine.retention_floor() == 17
            # out-of-range shard index is telemetry-only, never a crash
            manager.record_ack("default", 5, 3)
            assert engine.retention_floor() == 17


class TestTimeTravelHTTP:
    @pytest.fixture
    def service(self, tmp_path):
        manager = EngineManager(
            PARAMS,
            default_engine_config=EngineConfig(
                batch_size=4,
                checkpoint_every=25,
                wal_retain_segments=8,
            ),
            data_root=tmp_path,
        )
        with manager:
            with BackgroundServer(manager) as background:
                client = ServiceClient("127.0.0.1", background.port)
                yield manager, background, client
                client.close()

    def test_as_of_reads_over_http(self, service):
        manager, _background, client = service
        stream = _stream(80)
        engine = manager.get("default")
        _drive(engine, stream)
        applied = engine.applied
        position = applied // 2
        probe = list(range(16))
        document = client.group_by_raw(probe, as_of=position)
        assert document["view_version"] == position
        assert document["as_of"] == [position]
        # at the full applied position the historical view IS the live one
        def _partition(doc):
            return frozenset(
                frozenset(map(repr, members))
                for members in doc["groups"].values()
                if members
            )

        at_applied = client.group_by_raw(probe, as_of=applied)
        live = client.group_by_raw(probe)
        assert at_applied["view_version"] == applied
        assert _partition(at_applied) == _partition(live)
        # the historical cluster route agrees with the historical group-by
        clusters = client.cluster_of(1, as_of=position)
        assert isinstance(clusters, list)
        # as_of=latest serves the live view and echoes it
        latest = client.group_by_raw(probe, as_of="latest")
        assert latest["view_version"] == applied
        assert latest["as_of"] == "latest"
        assert _partition(latest) == _partition(live)

    def test_stats_exposes_horizon_cache_and_replay_histogram(self, service):
        manager, _background, client = service
        engine = manager.get("default")
        _drive(engine, _stream(60))
        position = engine.applied // 2
        client.cluster_of(1, as_of=position)
        client.cluster_of(1, as_of=position)
        stats = client.stats()
        assert stats["wal"]["durable"] is True
        assert stats["wal"]["segments"] >= 1
        assert stats["wal"]["oldest_replayable"] == 0
        travel = stats["timetravel"]
        assert travel["hits"] == 1
        assert travel["misses"] == 1
        assert travel["replay"]["count"] == 1
        assert travel["capacity"] == manager.history_cache_size
        # historical stats: the view-statistics portion at that position
        historical = client.stats(as_of=position)
        assert historical["as_of"] == [position]
        assert historical["view_version"] == position

    def test_healthz_exposes_replayable_horizon(self, service):
        manager, _background, client = service
        _drive(manager.get("default"), _stream(40))
        document = client.healthz()
        assert document["wal"]["segments"] >= 1
        assert "default" in document["wal"]["horizon"]
        horizon = document["wal"]["horizon"]["default"]
        assert horizon["oldest_replayable"] == 0

    def test_pruned_history_is_a_structured_410(self, tmp_path):
        manager = EngineManager(
            PARAMS,
            default_engine_config=EngineConfig(
                batch_size=4,
                checkpoint_every=10,
                wal_retain_segments=1,
            ),
            data_root=tmp_path,
        )
        with manager:
            engine = manager.get("default")
            _drive(engine, _stream(150))
            oldest = engine.wal_horizon()["oldest_replayable"]
            assert oldest > 0
            with BackgroundServer(manager) as background:
                client = ServiceClient("127.0.0.1", background.port)
                try:
                    with pytest.raises(ServiceError) as excinfo:
                        client.cluster_of(1, as_of=1)
                    error = excinfo.value
                    assert error.status == 410
                    assert error.code == "as_of_unavailable"
                    assert error.document["oldest_position"] == oldest
                    assert error.document["requested_position"] == 1
                    assert not error.retryable
                finally:
                    client.close()

    def test_unknown_query_params_are_rejected(self, service):
        _manager, background, client = service
        from tests.service.test_v1_api import _raw

        for path in (
            "/v1/tenants/default/cluster/1?asof=5",
            "/v1/tenants/default/cluster/1?as_of=1&frobnicate=yes",
            "/v1/tenants/default/stats?shard=0",
            "/v1/tenants/default/wal?from=0&bogus=1",
            "/v1/tenants/default/snapshot?max=3",
        ):
            status, _headers, document = _raw(background, "GET", path)
            assert status == 400, path
            assert document["error"]["code"] == "bad_request", path
            assert "query parameter" in document["error"]["message"], path
        # known parameters still pass validation on every route
        status, _headers, document = _raw(
            background, "GET", "/v1/tenants/default/cluster/1?as_of=latest"
        )
        assert status == 200
        assert document["as_of"] == "latest"

    def test_malformed_and_out_of_range_as_of_are_400(self, service):
        manager, background, client = service
        _drive(manager.get("default"), _stream(30))
        from tests.service.test_v1_api import _raw

        status, _headers, document = _raw(
            background, "GET", "/v1/tenants/default/cluster/1?as_of=bananas"
        )
        assert status == 400
        assert document["error"]["code"] == "bad_request"
        with pytest.raises(ServiceError) as excinfo:
            client.cluster_of(1, as_of=10**9)
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.cluster_of(1, as_of=[1, 2])  # wrong arity for unsharded
        assert excinfo.value.status == 400
