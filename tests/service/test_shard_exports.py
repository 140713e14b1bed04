"""A shard publishes only its export; the merge is the one clustering.

A shard's scoped labels leave its boundary edges undecided, so a
shard-local :class:`~repro.service.views.ClusteringView` would answer no
query.  These tests pin that no shard builds one — not at start-up, not
per batch, not on recovery and not on the sharded ``as_of`` path — and
that the per-shard stats rows read the exports instead.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.core.result import clusterings_equal
from repro.service.engine import ClusteringEngine, EngineConfig, EngineError
from repro.service.sharding import ShardedEngine, make_label_scope, shard_of
from repro.service.timetravel import capture_view
from repro.service.views import ClusteringView

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
FOUR = EngineConfig(batch_size=8, shards=4)


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


@pytest.fixture
def view_calls(monkeypatch):
    """Count every ClusteringView.capture and ClusteringView.patched call."""
    counts = {"capture": 0, "patched": 0}
    capture = ClusteringView.capture.__func__
    patched = ClusteringView.patched

    def counting_capture(cls, *args, **kwargs):
        counts["capture"] += 1
        return capture(cls, *args, **kwargs)

    def counting_patched(self, *args, **kwargs):
        counts["patched"] += 1
        return patched(self, *args, **kwargs)

    monkeypatch.setattr(ClusteringView, "capture", classmethod(counting_capture))
    monkeypatch.setattr(ClusteringView, "patched", counting_patched)
    return counts


def ingest(engine, stream):
    for update in stream:
        engine.submit(update)
    assert engine.flush(timeout=30)


class TestNoShardBuildsAView:
    def test_counting_wrappers_see_unsharded_publication(self, view_calls):
        with ClusteringEngine(PARAMS, config=EngineConfig(batch_size=8)) as engine:
            ingest(engine, toggle_stream(16, 80, seed=3))
        assert view_calls["patched"] >= 1
        capture_view([engine.maintainer], [engine.applied], PARAMS)
        assert view_calls["capture"] >= 1

    def test_four_shard_construction_and_ingest_build_no_view(self, view_calls):
        stream = toggle_stream(16, 120, seed=4)
        with ShardedEngine(PARAMS, config=FOUR) as engine:
            ingest(engine, stream)
            merged = engine.view()
            engine.stats()
        assert view_calls == {"capture": 0, "patched": 0}
        reference = DynStrClu(PARAMS)
        for update in stream:
            reference.apply(update)
        assert clusterings_equal(merged.clustering, reference.clustering())

    def test_recovered_shards_build_no_view(self, tmp_path, view_calls):
        with ShardedEngine(PARAMS, config=FOUR, data_dir=tmp_path) as engine:
            ingest(engine, toggle_stream(16, 60, seed=5))
            before = engine.view().clustering
        reopened = ShardedEngine(PARAMS, config=FOUR, data_dir=tmp_path)
        try:
            assert reopened.applied == 60
            assert clusterings_equal(reopened.view().clustering, before)
        finally:
            reopened.close(checkpoint=False)
        assert view_calls == {"capture": 0, "patched": 0}

    def test_sharded_capture_view_builds_no_view(self, view_calls):
        num_shards = 3
        stream = toggle_stream(16, 100, seed=6)
        maintainers = [
            DynStrClu(PARAMS, scope=make_label_scope(index, num_shards))
            for index in range(num_shards)
        ]
        for update in stream:
            for index in {shard_of(update.u, num_shards), shard_of(update.v, num_shards)}:
                maintainers[index].apply(update)
        positions = [m.updates_processed for m in maintainers]
        merged = capture_view(maintainers, positions, PARAMS)
        assert view_calls["capture"] == 0
        reference = DynStrClu(PARAMS)
        for update in stream:
            reference.apply(update)
        assert clusterings_equal(merged.clustering, reference.clustering())
        assert merged.shard_versions == tuple(positions)

    def test_a_shard_serves_no_view(self):
        with ShardedEngine(PARAMS, config=FOUR) as engine:
            ingest(engine, [Update.insert(1, 2)])
            for shard in engine.shards:
                with pytest.raises(EngineError):
                    shard.view()


class TestShardRowsReadTheExports:
    def test_rows_match_each_shards_position_and_graph(self):
        with ShardedEngine(PARAMS, config=FOUR) as engine:
            ingest(engine, toggle_stream(20, 150, seed=7))
            rows = engine.stats()["shards"]
            assert len(rows) == 4
            for shard, row in zip(engine.shards, rows):
                graph = shard.maintainer.graph
                assert row["view_version"] == shard.applied
                assert row["num_vertices"] == graph.num_vertices
                assert row["num_edges"] == graph.num_edges

    def test_published_at_is_the_exports_wall_clock_timestamp(self):
        with ShardedEngine(PARAMS, config=FOUR) as engine:
            before = time.time()
            ingest(engine, toggle_stream(20, 40, seed=8))
            after = time.time()
            stamps = [shard.published_at for shard in engine.shards]
            assert all(stamp <= after for stamp in stamps)
            assert max(stamps) >= before
            assert engine.view().published_at == max(stamps)
