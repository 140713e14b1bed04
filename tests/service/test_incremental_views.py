"""Unit tests for incremental view publication.

Covers the :class:`PersistentMap` copy-on-write substrate, the
:meth:`ClusteringView.patched` algorithm (attach/detach, merges, splits,
and every fallback-to-full condition), and the engine integration (mode
counters, the full-capture fallback backend, stats exposure).
"""

from __future__ import annotations

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.core.result import ViewDelta, clusterings_equal
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.service.views import ClusteringView, PersistentMap

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)

TWO_TRIANGLES = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]


def _built_maintainer(edges=TWO_TRIANGLES) -> DynStrClu:
    algo = DynStrClu(PARAMS)
    for u, v in edges:
        algo.insert_edge(u, v)
    return algo


def _families(view: ClusteringView, universe) -> set:
    """The cluster family over ``universe`` as a set of frozensets."""
    by_key = {}
    for v in universe:
        for key in view.cluster_of(v):
            by_key.setdefault(key, set()).add(v)
    return {frozenset(members) for members in by_key.values()}


def _assert_equivalent(incremental: ClusteringView, full: ClusteringView, universe):
    """Incremental and full views must agree up to cluster-key relabelling."""
    assert _families(incremental, universe) == _families(full, universe)
    for v in universe:
        assert len(incremental.cluster_of(v)) == len(full.cluster_of(v)), v
    stats_a = incremental.stats()
    stats_b = full.stats()
    for key in ("view_version", "num_vertices", "num_edges", "clusters",
                "cores", "hubs", "noise", "largest_cluster"):
        assert stats_a[key] == stats_b[key], key
    assert clusterings_equal(incremental.clustering, full.clustering)


class TestPersistentMap:
    def test_build_and_lookup(self):
        pm = PersistentMap.build({i: i * i for i in range(100)})
        assert len(pm) == 100
        assert pm[7] == 49
        assert pm.get(200) is None
        assert pm.get(200, ()) == ()
        assert 7 in pm and 200 not in pm
        assert dict(pm.items()) == {i: i * i for i in range(100)}
        assert sorted(pm) == list(range(100))

    def test_assign_is_persistent(self):
        base = PersistentMap.build({i: i for i in range(32)})
        patched = base.assign({1: "one", 99: "new", 2: None})
        # the parent is untouched
        assert base[1] == 1 and base[2] == 2 and 99 not in base
        assert len(base) == 32
        # the child sees the changes
        assert patched[1] == "one"
        assert patched[99] == "new"
        assert 2 not in patched
        assert len(patched) == 32  # +1 insert, -1 delete

    def test_assign_shares_untouched_buckets(self):
        base = PersistentMap.build({i: i for i in range(256)})
        patched = base.assign({0: "zero"})
        shared = sum(
            1 for a, b in zip(base._buckets, patched._buckets) if a is b
        )
        assert shared == len(base._buckets) - 1

    def test_deleting_missing_key_is_harmless(self):
        base = PersistentMap.build({1: "a"})
        patched = base.assign({2: None})
        assert len(patched) == 1 and patched[1] == "a"

    def test_empty_assign_returns_self(self):
        base = PersistentMap.build({1: "a"})
        assert base.assign({}) is base

    def test_overloaded_flags_outgrown_geometry(self):
        pm = PersistentMap.build({i: i for i in range(4)})
        assert not pm.overloaded
        grown = pm.assign({i: i for i in range(4, 200)})
        assert grown.overloaded


class TestPatched:
    def test_patch_matches_full_capture_after_attach(self):
        algo = _built_maintainer()
        algo.drain_view_delta()
        view = ClusteringView.capture(algo, version=6)
        algo.insert_edge(3, 7)  # attach a new satellite vertex to a core
        flips = algo.drain_view_delta().flips
        patched = view.patched(algo, flips, version=7)
        assert patched is not None
        _assert_equivalent(patched, ClusteringView.capture(algo, 7), range(1, 9))

    def test_patch_matches_full_capture_after_merge(self):
        algo = _built_maintainer()
        algo.drain_view_delta()
        view = ClusteringView.capture(algo, version=6)
        # merge the two triangles through a shared hub path
        algo.insert_edge(3, 4)
        algo.insert_edge(3, 5)
        flips = algo.drain_view_delta().flips
        patched = view.patched(algo, flips, version=8)
        assert patched is not None
        _assert_equivalent(patched, ClusteringView.capture(algo, 8), range(1, 8))

    def test_patch_matches_full_capture_after_split(self):
        edges = TWO_TRIANGLES + [(3, 4)]
        algo = _built_maintainer(edges)
        algo.drain_view_delta()
        view = ClusteringView.capture(algo, version=len(edges))
        algo.delete_edge(1, 2)  # demote cores of the first triangle
        algo.delete_edge(2, 3)
        flips = algo.drain_view_delta().flips
        patched = view.patched(algo, flips, version=len(edges) + 2)
        assert patched is not None
        _assert_equivalent(
            patched, ClusteringView.capture(algo, len(edges) + 2), range(1, 8)
        )

    def test_untouched_clusters_keep_their_keys(self):
        algo = _built_maintainer()
        algo.drain_view_delta()
        view = ClusteringView.capture(algo, version=6)
        second_key = view.cluster_of(4)
        algo.insert_edge(1, 7)  # touches only the first triangle's cluster
        patched = view.patched(algo, algo.drain_view_delta().flips, version=7)
        assert patched is not None
        assert patched.cluster_of(4) == second_key

    def test_patch_from_empty_view(self):
        algo = DynStrClu(PARAMS)
        view = ClusteringView.empty()
        for u, v in TWO_TRIANGLES[:3]:
            algo.insert_edge(u, v)
        patched = view.patched(algo, algo.drain_view_delta().flips, version=3)
        assert patched is not None
        _assert_equivalent(patched, ClusteringView.capture(algo, 3), range(1, 5))

    def test_max_dirty_falls_back(self):
        algo = _built_maintainer()
        algo.drain_view_delta()
        view = ClusteringView.capture(algo, version=6)
        algo.insert_edge(3, 4)
        flips = algo.drain_view_delta().flips
        assert view.patched(algo, flips, version=7, max_dirty=1) is None

    def test_closure_violation_falls_back(self):
        """An under-reported flip set must refuse to patch, not corrupt."""
        algo = _built_maintainer()
        algo.drain_view_delta()
        view = ClusteringView.capture(algo, version=6)
        algo.insert_edge(3, 4)  # merges the two clusters
        algo.insert_edge(3, 5)
        # report only one endpoint: the merged cluster reaches outside the
        # dirty region and the patcher must bail out
        assert view.patched(algo, {5}, version=8) is None

    def test_overloaded_buckets_fall_back(self):
        algo = DynStrClu(PARAMS)
        view = ClusteringView.empty()
        for i in range(0, 300, 3):
            algo.insert_edge(i, i + 1)
            algo.insert_edge(i + 1, i + 2)
            algo.insert_edge(i, i + 2)
        # the empty view has one bucket: far too small for 300 vertices
        assert view.patched(algo, algo.drain_view_delta().flips, version=300) is None


class TestViewDelta:
    def test_dynstrclu_reports_and_resets(self):
        algo = _built_maintainer()
        delta = algo.drain_view_delta()
        assert not delta.full_rebuild
        assert {1, 2, 3, 4, 5, 6} <= set(delta.flips)
        assert algo.drain_view_delta().flips == frozenset()

    def test_constructors(self):
        assert ViewDelta.full().full_rebuild
        tracked = ViewDelta.of({1, 2})
        assert not tracked.full_rebuild
        assert tracked.flips == frozenset({1, 2})


class TestEngineIntegration:
    def test_dynstrclu_publishes_incrementally(self):
        config = EngineConfig(batch_size=4)
        with ClusteringEngine(PARAMS, config=config) as engine:
            for u, v in TWO_TRIANGLES:
                engine.submit(Update.insert(u, v))
            assert engine.flush(timeout=10)
            for u, v in TWO_TRIANGLES:
                engine.submit(Update.delete(u, v))
            assert engine.flush(timeout=10)
            assert engine.metrics.get("view_capture_incremental") > 0
            stats = engine.stats()
        capture = stats["metrics"]["view_capture"]
        assert capture["count"] > 0
        assert capture["flip_set_size"]["count"] > 0
        assert capture["flip_set_size"]["max"] >= 1

    def test_fallback_backend_publishes_full_captures(self):
        config = EngineConfig(batch_size=4)
        with ClusteringEngine(PARAMS, config=config, backend="scan-exact") as engine:
            for u, v in TWO_TRIANGLES:
                engine.submit(Update.insert(u, v))
            assert engine.flush(timeout=10)
            assert engine.metrics.get("view_capture_incremental") == 0
            assert engine.metrics.get("view_capture_full") > 0
            assert {frozenset(g) for g in engine.group_by([1, 2, 3]).as_sets()} == {
                frozenset({1, 2, 3})
            }
