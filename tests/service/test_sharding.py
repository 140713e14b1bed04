"""Unit tests of the sharded clustering engine.

Covers the partitioning function, the boundary-replication and scoped-
labelling invariants, merged-view memoisation and statistics, the merged
backpressure contract, per-shard durability (manifest, recovery,
replica reconciliation) and fail-clean close semantics.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.graph.dynamic_graph import canonical_edge
from repro.service.engine import (
    ClusteringEngine,
    EngineBackpressure,
    EngineClosed,
    EngineConfig,
    EngineError,
)
from repro.service.sharding import (
    MANIFEST_FILE,
    ShardedEngine,
    ShardedView,
    make_engine,
    make_label_scope,
    shard_of,
)

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
FAST = EngineConfig(batch_size=16, shards=3)


def toggle_stream(num_vertices: int, length: int, seed: int):
    """A random applicable insert/delete stream over a small universe."""
    rng = random.Random(seed)
    present = set()
    stream = []
    while len(stream) < length:
        u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in present:
            present.discard(edge)
            stream.append(Update.delete(*edge))
        else:
            present.add(edge)
            stream.append(Update.insert(*edge))
    return stream


def sequential_reference(stream, params=PARAMS):
    algo = DynStrClu(params)
    for update in stream:
        algo.apply(update)
    return algo


class TestPartitioning:
    def test_shard_of_is_stable_and_in_range(self):
        for n in (1, 2, 3, 7):
            for v in (0, 1, 12345, "a", "12345", "x/y", "~weird"):
                index = shard_of(v, n)
                assert 0 <= index < n
                assert shard_of(v, n) == index  # deterministic

    def test_int_and_string_identifiers_hash_independently(self):
        # the partition is over canonical tokens: 123 and "123" are
        # different vertices and may land anywhere — but each consistently
        assert shard_of(123, 4) == shard_of(123, 4)
        assert shard_of("123", 4) == shard_of("123", 4)

    def test_single_shard_is_always_zero(self):
        assert all(shard_of(v, 1) == 0 for v in range(100))

    def test_distribution_covers_every_shard(self):
        owners = {shard_of(v, 4) for v in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_label_scope_requires_both_endpoints_owned(self):
        scope = make_label_scope(shard_of(1, 3), 3)
        same = [v for v in range(100) if shard_of(v, 3) == shard_of(1, 3)]
        other = [v for v in range(100) if shard_of(v, 3) != shard_of(1, 3)]
        assert scope(1, same[1])
        assert not scope(1, other[0])
        assert not scope(other[0], other[0])


class TestMakeEngine:
    def test_one_shard_builds_the_plain_engine(self):
        engine = make_engine(PARAMS, config=EngineConfig(shards=1))
        try:
            assert isinstance(engine, ClusteringEngine)
            assert not isinstance(engine, ShardedEngine)
        finally:
            engine.close(checkpoint=False)

    def test_many_shards_build_the_sharded_engine(self):
        engine = make_engine(PARAMS, config=EngineConfig(shards=3))
        try:
            assert isinstance(engine, ShardedEngine)
            assert engine.num_shards == 3
            assert len(engine.shards) == 3
        finally:
            engine.close(checkpoint=False)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_never_started_engine_queues_until_start(self, shards):
        engine = make_engine(PARAMS, config=EngineConfig(shards=shards))
        try:
            engine.submit_many(
                [Update.insert(1, 2), Update.insert(2, 3), Update.insert(1, 3)]
            )
            assert engine.queue_depth == 3
            assert engine.applied == 0
            with pytest.raises(EngineError, match="call start\\(\\) first"):
                engine.flush()
            engine.start()
            assert engine.flush(timeout=10)
            assert engine.applied == 3
            assert engine.queue_depth == 0
        finally:
            engine.close(checkpoint=False)

    def test_sharded_engine_rejects_single_shard_config(self):
        with pytest.raises(ValueError):
            ShardedEngine(PARAMS, config=EngineConfig(shards=1))

    def test_engine_config_validates_shards(self):
        with pytest.raises(ValueError):
            EngineConfig(shards=0)
        # one tenant-create must not be able to spawn unbounded engines
        with pytest.raises(ValueError, match="64"):
            EngineConfig(shards=100_000)

    def test_shape_mismatched_data_dirs_are_refused(self, tmp_path):
        unsharded_dir = tmp_path / "plain"
        with ClusteringEngine(PARAMS, data_dir=unsharded_dir) as engine:
            engine.submit(Update.insert(1, 2))
            engine.flush(timeout=10)
        # unsharded layout reopened sharded: never silently start empty
        with pytest.raises(ValueError, match="unsharded"):
            ShardedEngine(
                PARAMS, config=EngineConfig(shards=2), data_dir=unsharded_dir
            )
        sharded_dir = tmp_path / "wide"
        with ShardedEngine(
            PARAMS, config=EngineConfig(shards=2), data_dir=sharded_dir
        ) as engine:
            engine.submit(Update.insert(1, 2))
            engine.flush(timeout=10)
        # sharded layout reopened unsharded through the factory: refused
        with pytest.raises(ValueError, match="sharded"):
            make_engine(
                PARAMS, config=EngineConfig(shards=1), data_dir=sharded_dir
            )


class TestReplicationInvariants:
    def test_every_edge_lives_in_both_owner_shards(self):
        stream = toggle_stream(12, 200, seed=5)
        with ShardedEngine(PARAMS, config=FAST) as engine:
            for update in stream:
                engine.submit(update)
            engine.flush(timeout=30)
            reference = sequential_reference(stream)
            for u, v in reference.graph.edges():
                for index in {shard_of(u, 3), shard_of(v, 3)}:
                    assert engine.shards[index].maintainer.graph.has_edge(u, v)
            # and nothing extra: the union of shard edges is the graph
            union = set()
            for shard in engine.shards:
                union.update(
                    canonical_edge(u, v) for u, v in shard.maintainer.graph.edges()
                )
            expected = {
                canonical_edge(u, v) for u, v in reference.graph.edges()
            }
            assert union == expected

    def test_shards_label_only_their_owned_edges(self):
        stream = toggle_stream(12, 200, seed=6)
        with ShardedEngine(PARAMS, config=FAST) as engine:
            for update in stream:
                engine.submit(update)
            engine.flush(timeout=30)
            for shard in engine.shards:
                for u, v in shard.maintainer.labels:
                    assert shard_of(u, 3) == shard.shard_index
                    assert shard_of(v, 3) == shard.shard_index

    def test_router_counts_cross_shard_updates(self):
        stream = toggle_stream(12, 120, seed=7)
        with ShardedEngine(PARAMS, config=FAST) as engine:
            for update in stream:
                engine.submit(update)
            engine.flush(timeout=30)
            expected = sum(
                1
                for update in stream
                if shard_of(update.u, 3) != shard_of(update.v, 3)
            )
            assert engine.metrics.get("cross_shard_updates") == expected

    def test_noop_updates_are_filtered_by_the_router(self):
        with ShardedEngine(PARAMS, config=FAST) as engine:
            engine.submit(Update.insert(1, 2))
            engine.submit(Update.insert(1, 2))  # duplicate insert
            engine.submit(Update.delete(3, 4))  # delete of a missing edge
            engine.submit(Update.insert(5, 5))  # self-loop
            engine.flush(timeout=30)
            assert engine.applied == 1
            assert engine.metrics.get("updates_rejected") == 3


class TestMergedReads:
    def test_merged_view_is_memoised_per_view_tuple(self):
        with ShardedEngine(PARAMS, config=FAST) as engine:
            for update in toggle_stream(10, 60, seed=8):
                engine.submit(update)
            engine.flush(timeout=30)
            first = engine.view()
            assert engine.view() is first  # unchanged system: cached merge
            engine.submit(Update.insert(100, 101))
            engine.flush(timeout=30)
            second = engine.view()
            assert second is not first
            assert second.version > first.version

    def test_merged_view_duck_types_clustering_view(self):
        stream = toggle_stream(10, 80, seed=9)
        with ShardedEngine(PARAMS, config=FAST) as engine:
            for update in stream:
                engine.submit(update)
            engine.flush(timeout=30)
            view = engine.view()
            assert isinstance(view, ShardedView)
            reference = sequential_reference(stream)
            assert view.num_vertices == reference.graph.num_vertices
            assert view.num_edges == reference.graph.num_edges
            stats = view.stats()
            assert stats["view_version"] == view.version
            assert len(stats["shard_versions"]) == 3
            # cluster_of agrees with the membership the clustering implies
            membership = view.clustering.membership()
            for v in reference.graph.vertices():
                assert set(view.cluster_of(v)) == set(membership.get(v, []))

    def test_stats_expose_per_shard_depth_and_counters(self):
        with ShardedEngine(PARAMS, config=FAST) as engine:
            for update in toggle_stream(10, 60, seed=10):
                engine.submit(update)
            engine.flush(timeout=30)
            stats = engine.stats()
            assert stats["num_shards"] == 3
            assert len(stats["shards"]) == 3
            for index, row in enumerate(stats["shards"]):
                assert row["shard"] == index
                assert row["queue_depth"] == 0  # flushed
                assert row["running"]
                assert row["owned_vertices"] >= 0
            assert stats["applied"] == engine.applied
            assert "metrics" in stats

    def test_view_version_is_the_documented_merge_ordinal(self):
        """At quiescence: view_version == applied + cross_shard_updates
        (each cross-shard update is applied by both owner shards)."""
        with ShardedEngine(PARAMS, config=FAST) as engine:
            for update in toggle_stream(12, 150, seed=21):
                engine.submit(update)
            engine.flush(timeout=30)
            stats = engine.stats()
            assert stats["cross_shard_updates"] > 0  # the stream has some
            assert (
                stats["view_version"]
                == stats["applied"] + stats["cross_shard_updates"]
            )
            assert stats["view_version"] == sum(stats["shard_versions"])

    def test_updates_in_the_close_race_window_are_still_routed(self):
        """An update that slipped past the closed check and enqueued behind
        the stop marker is routed and applied, not silently dropped."""
        engine = ShardedEngine(PARAMS, config=FAST).start()
        engine.submit(Update.insert(1, 2))
        engine.flush(timeout=30)
        from repro.service.engine import _Stop

        engine._queue.put(_Stop())
        engine._queue.put(Update.insert(2, 3))  # the racing submit
        engine.close(checkpoint=False)
        assert engine.applied == 2
        assert engine.view().num_edges == 2

    def test_group_by_and_cluster_of_record_query_metrics(self):
        with ShardedEngine(PARAMS, config=FAST) as engine:
            engine.submit_many(
                [Update.insert(1, 2), Update.insert(2, 3), Update.insert(1, 3)]
            )
            engine.flush(timeout=30)
            engine.group_by([1, 2, 3])
            engine.cluster_of(1)
            assert engine.metrics.query.count == 2


class TestBackpressure:
    def test_submit_many_reports_the_exact_accepted_prefix(self):
        # a never-started sharded engine cannot drain its router queue
        engine = ShardedEngine(
            PARAMS, config=EngineConfig(shards=2, queue_capacity=5)
        )
        try:
            updates = [Update.insert(i, i + 1) for i in range(20)]
            accepted = engine.submit_many(updates, block=False)
            assert accepted == 5  # exactly the router queue capacity
            with pytest.raises(EngineBackpressure) as excinfo:
                engine.submit(Update.insert(100, 101), block=False)
            signal = excinfo.value
            assert signal.queue_depth >= 5
            # capacity is the whole pipeline's bound (router + shards), so
            # reported depth/capacity utilisation never exceeds 100%
            assert signal.queue_capacity == engine.total_queue_capacity == 15
            assert signal.retry_after_ms >= 1
        finally:
            engine.close(checkpoint=False)

    def test_merged_retry_after_is_the_max_over_shards(self):
        engine = ShardedEngine(
            PARAMS,
            config=EngineConfig(shards=2, queue_capacity=64, batch_size=4),
        )
        try:
            # load one shard's queue directly to create an asymmetric backlog
            busy = engine.shards[1]
            for i in range(64):
                busy.submit(Update.insert(i, i + 1), block=False)
            per_shard = [
                shard.backpressure_signal().retry_after_ms
                for shard in engine.shards
            ]
            assert per_shard[1] > per_shard[0]  # the asymmetry is real
            merged = engine.backpressure_signal()
            assert merged.retry_after_ms == max(per_shard)
            assert merged.queue_depth >= 64
        finally:
            engine.close(checkpoint=False)

    def test_submit_after_close_raises_engine_closed(self):
        engine = ShardedEngine(PARAMS, config=EngineConfig(shards=2))
        engine.close(checkpoint=False)
        with pytest.raises(EngineClosed):
            engine.submit(Update.insert(1, 2))


class TestDurability:
    def test_round_trip_restores_the_merged_clustering(self, tmp_path):
        stream = toggle_stream(10, 150, seed=11)
        config = EngineConfig(shards=3)
        with ShardedEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            for update in stream:
                engine.submit(update)
            engine.flush(timeout=30)
            before = engine.view().clustering
            applied = engine.applied
        # per-shard layout on disk
        for index in range(3):
            assert (tmp_path / f"shard-{index}" / "snapshot.json").exists()
        manifest = json.loads((tmp_path / MANIFEST_FILE).read_text())
        assert manifest["num_shards"] == 3
        assert manifest["applied"] == applied

        recovered = ShardedEngine(PARAMS, config=config, data_dir=tmp_path)
        with recovered:
            assert recovered.applied == applied
            after = recovered.view().clustering
            assert after.as_frozen() == before.as_frozen()
            assert after.cores == before.cores
            # the engine keeps accepting updates after recovery
            recovered.submit(Update.insert(200, 201))
            recovered.flush(timeout=30)
            assert recovered.applied == applied + 1

    def test_failed_construction_does_not_poison_an_empty_data_dir(self, tmp_path):
        # pscan cannot be made durable, so shard construction fails after
        # the manifest was written — the fresh manifest must be removed
        with pytest.raises(ValueError, match="durability"):
            ShardedEngine(
                PARAMS,
                config=EngineConfig(shards=4),
                data_dir=tmp_path,
                backend="pscan",
            )
        assert not (tmp_path / MANIFEST_FILE).exists()
        # the directory is reusable at any other shard count
        engine = ShardedEngine(
            PARAMS, config=EngineConfig(shards=2), data_dir=tmp_path
        )
        engine.close(checkpoint=False)

    def test_resharding_an_existing_data_dir_is_refused(self, tmp_path):
        with ShardedEngine(
            PARAMS, config=EngineConfig(shards=2), data_dir=tmp_path
        ) as engine:
            engine.submit(Update.insert(1, 2))
            engine.flush(timeout=30)
        with pytest.raises(ValueError, match="re-sharding"):
            ShardedEngine(PARAMS, config=EngineConfig(shards=4), data_dir=tmp_path)

    def test_recovery_reconciles_a_torn_cross_shard_replica(self, tmp_path):
        stream = toggle_stream(8, 60, seed=12)
        reference = sequential_reference(stream)
        config = EngineConfig(shards=2)
        with ShardedEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            for update in stream:
                engine.submit(update)
            engine.flush(timeout=30)

        # find a cross-shard pair of *fresh* vertices (outside the stream's
        # 0..7 universe) and forge a torn write: one owner logged the
        # insert, the other crashed before its WAL append
        u = next(v for v in range(50, 150) if shard_of(v, 2) == 0)
        v = next(w for w in range(150, 250) if shard_of(w, 2) == 1)
        lucky = shard_of(u, 2)
        half = ClusteringEngine(
            PARAMS,
            config=EngineConfig(),
            data_dir=tmp_path / f"shard-{lucky}",
            label_scope=make_label_scope(lucky, 2),
        )
        with half:
            half.submit(Update.insert(u, v))
            half.flush(timeout=30)

        recovered = ShardedEngine(PARAMS, config=config, data_dir=tmp_path)
        with recovered:
            # the union of the shard graphs is the graph of record: the
            # missing replica was re-inserted into the other owner
            for index in (0, 1):
                assert recovered.shards[index].maintainer.graph.has_edge(u, v)
            # and the resurrected edge reaches the merged read surface:
            # the merged graph is the pre-crash graph plus exactly (u, v)
            merged = recovered.view()
            assert merged.num_edges == reference.graph.num_edges + 1
            assert merged.num_vertices == reference.graph.num_vertices + 2


class TestFailCleanClose:
    def test_close_attempts_every_shard_and_raises(self, monkeypatch):
        engine = ShardedEngine(PARAMS, config=EngineConfig(shards=3))
        engine.start()
        closed = []
        original = ClusteringEngine.close

        def failing_close(self, checkpoint=True):
            if self is engine.shards[1]:
                raise RuntimeError("disk on fire")
            closed.append(self)
            return original(self, checkpoint=checkpoint)

        monkeypatch.setattr(ClusteringEngine, "close", failing_close)
        with pytest.raises(EngineError, match="1 of 3 shards"):
            engine.close(checkpoint=False)
        # the two healthy shards were still closed
        assert len(closed) == 2
        monkeypatch.setattr(ClusteringEngine, "close", original)
        engine.close(checkpoint=False)  # retry succeeds
        assert not engine.shards[1].running


class TestWriterFailurePropagation:
    def test_dead_shard_writer_with_full_queue_does_not_deadlock_the_router(self):
        """Regression: the router's replication wait is sliced, so a shard
        whose writer died with a full queue surfaces as an EngineError
        instead of blocking the router (and close()) forever."""
        engine = ShardedEngine(
            PARAMS,
            config=EngineConfig(shards=2, queue_capacity=4),
        )
        engine.start()
        try:
            for shard in engine.shards:
                shard.maintainer.apply = None  # type: ignore[assignment]
            accepted = engine.submit_many(
                [Update.insert(i, i + 1) for i in range(4)], block=False
            )
            assert accepted >= 1
            with pytest.raises(EngineError):
                engine.flush(timeout=15)
        finally:
            engine.kill()

    def test_shard_writer_failure_surfaces_on_flush(self):
        engine = ShardedEngine(PARAMS, config=EngineConfig(shards=2))
        engine.start()
        try:
            # break one shard's maintainer so its writer thread dies
            engine.shards[0].maintainer.apply = None  # type: ignore[assignment]
            engine.shards[1].maintainer.apply = None  # type: ignore[assignment]
            for update in [Update.insert(i, i + 1) for i in range(50)]:
                engine.submit(update)
            with pytest.raises(EngineError):
                engine.flush(timeout=10)
        finally:
            engine.kill()
