"""Unit tests of the multi-tenant EngineManager."""

from __future__ import annotations

import pytest

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.service.manager import (
    EngineManager,
    TenantConfig,
    TenantDeleteError,
    TenantExistsError,
    TenantLimitError,
    UnknownTenantError,
    validate_tenant_name,
)
from repro.service.sharding import ShardedEngine

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
FAST = EngineConfig(batch_size=8)

TRIANGLE = [Update.insert(1, 2), Update.insert(2, 3), Update.insert(1, 3)]


@pytest.fixture
def manager():
    with EngineManager(PARAMS, default_engine_config=FAST) as m:
        yield m


class TestTenantLifecycle:
    def test_default_tenant_created_eagerly(self, manager):
        assert "default" in manager
        assert manager.names() == ["default"]
        assert manager.get("default").running

    def test_create_get_delete(self, manager):
        engine = manager.create("acme")
        assert manager.get("acme") is engine
        assert engine.running
        manager.delete("acme")
        assert "acme" not in manager
        assert not engine.running  # owned engine was closed
        with pytest.raises(UnknownTenantError):
            manager.get("acme")
        with pytest.raises(UnknownTenantError):
            manager.delete("acme")

    def test_duplicate_tenant_rejected(self, manager):
        manager.create("acme")
        with pytest.raises(TenantExistsError):
            manager.create("acme")

    def test_tenant_limit_enforced(self):
        with EngineManager(PARAMS, max_tenants=2) as m:
            m.create("a")
            with pytest.raises(TenantLimitError):
                m.create("b")

    def test_invalid_tenant_names_rejected(self, manager):
        for bad in ("", "a/b", "a b", ".hidden", "x" * 65, 7):
            with pytest.raises(ValueError):
                manager.create(bad)

    def test_valid_tenant_names(self):
        for good in ("a", "acme-prod", "t.1", "A_b", "0"):
            assert validate_tenant_name(good) == good

    def test_per_tenant_backend_and_quota(self, manager):
        engine = manager.create("baseline", backend="pscan", queue_capacity=7)
        assert engine.backend == "pscan"
        assert engine.config.queue_capacity == 7
        assert manager.config_of("baseline").backend == "pscan"
        # other tenants keep the inherited config
        assert manager.get("default").config.queue_capacity == FAST.queue_capacity

    def test_close_all_idempotent(self):
        manager = EngineManager(PARAMS)
        engine = manager.get("default")
        manager.close()
        manager.close()
        assert not engine.running
        with pytest.raises(Exception):
            manager.create("late")


class TestIsolation:
    def test_updates_never_cross_tenants(self, manager):
        a = manager.create("a")
        b = manager.create("b")
        for update in TRIANGLE:
            a.submit(update)
        a.flush(timeout=10)
        assert {frozenset(g) for g in a.group_by([1, 2, 3]).as_sets()} == {
            frozenset({1, 2, 3})
        }
        assert b.group_by([1, 2, 3]).as_sets() == []
        assert b.applied == 0

    def test_per_tenant_backpressure(self, manager):
        # an unstarted engine cannot drain: only its own queue fills
        choked = ClusteringEngine(PARAMS, config=EngineConfig(queue_capacity=2))
        adopted = EngineManager.adopt(choked, name="choked")
        try:
            assert choked.submit_many(TRIANGLE, block=False) == 2
            # the sibling tenant (this test's default manager) is unaffected
            manager.get("default").submit_many(TRIANGLE, block=False)
            manager.get("default").flush(timeout=10)
            assert manager.get("default").applied == 3
        finally:
            adopted.close()
            choked.close(checkpoint=False)


class TestDurability:
    def test_tenants_persist_under_data_root(self, tmp_path):
        with EngineManager(PARAMS, default_engine_config=FAST, data_root=tmp_path) as m:
            engine = m.create("durable")
            for update in TRIANGLE:
                engine.submit(update)
            engine.flush(timeout=10)
            before = engine.view().clustering
            m.delete("durable")  # closes with a final checkpoint
        assert (tmp_path / "durable" / "snapshot.json").exists()

        with EngineManager(PARAMS, default_engine_config=FAST, data_root=tmp_path) as m:
            recovered = m.create("durable")
            from repro.core.result import clusterings_equal

            assert clusterings_equal(recovered.view().clustering, before)

    def test_non_snapshot_backend_is_memory_only_under_data_root(self, tmp_path):
        with EngineManager(PARAMS, data_root=tmp_path) as m:
            engine = m.create("baseline", backend="pscan")
            assert engine.data_dir is None
            assert not (tmp_path / "baseline").exists()


class TestAdoption:
    def test_adopted_engine_survives_manager(self):
        engine = ClusteringEngine(PARAMS, config=FAST).start()
        manager = EngineManager.adopt(engine)
        assert manager.get("default") is engine
        manager.delete("default")
        assert engine.running  # not owned: deregistered, not closed
        engine.close(checkpoint=False)


class TestShardedTenants:
    def test_create_builds_a_sharded_engine(self, manager):
        engine = manager.create("wide", shards=3)
        assert isinstance(engine, ShardedEngine)
        assert engine.num_shards == 3
        assert manager.config_of("wide").shards == 3
        for update in TRIANGLE:
            engine.submit(update)
        engine.flush(timeout=10)
        row = manager.describe("wide")
        assert row["shards"] == 3
        assert row["applied"] == 3
        manager.delete("wide")
        assert "wide" not in manager

    def test_unsharded_tenants_report_one_shard(self, manager):
        assert manager.describe("default")["shards"] == 1

    def test_adopting_a_sharded_engine_keeps_single_shard_defaults(self):
        """Regression: `serve --shards 4` shards the adopted default
        tenant, but dynamically created tenants keep the documented
        default of a single engine."""
        engine = ShardedEngine(PARAMS, config=EngineConfig(shards=4)).start()
        try:
            manager = EngineManager.adopt(engine)
            assert manager.describe("default")["shards"] == 4
            created = manager.create("plain")
            assert not isinstance(created, ShardedEngine)
            assert manager.describe("plain")["shards"] == 1
            sharded = manager.create("wide", shards=2)
            assert isinstance(sharded, ShardedEngine)
            manager.close()
        finally:
            engine.close(checkpoint=False)

    def test_sharded_tenants_persist_under_data_root(self, tmp_path):
        with EngineManager(
            PARAMS, default_engine_config=FAST, data_root=tmp_path
        ) as m:
            engine = m.create("wide", shards=2)
            for update in TRIANGLE:
                engine.submit(update)
            engine.flush(timeout=10)
            m.delete("wide")  # closes with a final checkpoint
            assert (tmp_path / "wide" / "shard-0" / "snapshot.json").exists()
            assert (tmp_path / "wide" / "shard-1" / "snapshot.json").exists()
            revived = m.create("wide", shards=2)
            assert revived.applied == 3
            groups = revived.group_by([1, 2, 3]).as_sets()
            assert sorted(map(sorted, groups)) == [[1, 2, 3]]

    def test_delete_fails_cleanly_when_a_shard_refuses_to_close(
        self, manager, monkeypatch
    ):
        """Regression (sharded tenant): a failed close must not leave a
        half-deleted tenant — the registration survives, reads keep
        working, and a retry completes the delete."""
        engine = manager.create("wide", shards=3)
        for update in TRIANGLE:
            engine.submit(update)
        engine.flush(timeout=10)

        original = ClusteringEngine.close

        def failing_close(self, checkpoint=True):
            if self is engine.shards[1]:
                raise RuntimeError("shard 1 refuses to close")
            return original(self, checkpoint=checkpoint)

        monkeypatch.setattr(ClusteringEngine, "close", failing_close)
        with pytest.raises(TenantDeleteError, match="remains registered"):
            manager.delete("wide")
        # no half-deleted state: still registered, still readable
        assert "wide" in manager
        assert manager.get("wide") is engine
        assert manager.config_of("wide").shards == 3
        assert manager.describe("wide")["tenant"] == "wide"
        groups = engine.group_by([1, 2, 3]).as_sets()
        assert sorted(map(sorted, groups)) == [[1, 2, 3]]
        # writes are rejected *loudly* while the engine is mid-close —
        # never silently swallowed into a stopped router
        from repro.service.engine import EngineClosed

        with pytest.raises(EngineClosed):
            engine.submit(Update.insert(7, 8))

        monkeypatch.setattr(ClusteringEngine, "close", original)
        manager.delete("wide")  # the retry completes
        assert "wide" not in manager
        with pytest.raises(UnknownTenantError):
            manager.get("wide")

    def test_manager_close_failure_keeps_engines_reachable_and_retryable(
        self, monkeypatch
    ):
        """A failed engine close during manager shutdown must not orphan a
        running engine behind a cleared registry — the tenant stays
        reachable and a close() retry completes."""
        manager = EngineManager(PARAMS, default_engine_config=FAST)
        engine = manager.get("default")
        original = ClusteringEngine.close

        def failing_close(self, checkpoint=True):
            raise RuntimeError("checkpoint broke")

        monkeypatch.setattr(ClusteringEngine, "close", failing_close)
        with pytest.raises(RuntimeError, match="checkpoint broke"):
            manager.close()
        # still reachable, still running, not half-shut-down
        assert "default" in manager
        assert manager.get("default") is engine
        assert engine.running
        monkeypatch.setattr(ClusteringEngine, "close", original)
        manager.close()  # the retry completes
        assert len(manager) == 0
        assert not engine.running

    def test_delete_failure_of_a_plain_tenant_is_also_clean(
        self, manager, monkeypatch
    ):
        engine = manager.create("solo")
        monkeypatch.setattr(
            engine, "close", lambda checkpoint=True: (_ for _ in ()).throw(
                RuntimeError("stuck")
            )
        )
        with pytest.raises(TenantDeleteError):
            manager.delete("solo")
        assert "solo" in manager
        monkeypatch.undo()
        manager.delete("solo")
        assert "solo" not in manager


class TestIntrospection:
    def test_describe_and_aggregate(self, manager):
        manager.create("a", queue_capacity=16)
        engine = manager.get("a")
        for update in TRIANGLE:
            engine.submit(update)
        engine.flush(timeout=10)
        row = manager.describe("a")
        assert row["tenant"] == "a"
        assert row["applied"] == 3
        assert row["queue_capacity"] == 16
        aggregate = manager.aggregate()
        assert aggregate["tenants"] == 2
        assert aggregate["applied"] == 3
        assert aggregate["ingest"]["count"] >= 1
        listing = manager.list_tenants()
        assert [row["tenant"] for row in listing] == ["a", "default"]

    def test_aggregate_exposes_per_shard_depths(self, manager):
        manager.create("wide", shards=2)
        engine = manager.get("wide")
        for update in TRIANGLE:
            engine.submit(update)
        engine.flush(timeout=10)
        aggregate = manager.aggregate()
        shards = aggregate["shards"]
        # default (1 engine) + wide (2 inner engines)
        assert shards["engines"] == 3
        assert shards["queue_depths"]["wide"] == [0, 0]
        assert "default" not in shards["queue_depths"]
