"""Property tests: incremental view capture is exactly full capture.

Two layers:

* **Patch-level** (dynstrclu, the one delta-tracking backend): drive a
  random insert/delete stream in micro-batches, patch the view from each
  drained flip set, and after every batch compare against a fresh full
  :meth:`ClusteringView.capture` of the same maintainer — ``cluster_of``
  arity and the induced cluster family over the whole universe, ``group_by``,
  ``stats`` (everything but the wall-clock timestamp) and the materialised
  :class:`Clustering` must all coincide.  Cluster keys themselves are opaque
  and may differ (full capture re-keys from zero), so equality is asserted
  up to the key bijection the family comparison induces.

* **Engine-level** (every registered backend, including the full-rebuild
  fallbacks): push the stream through :class:`ClusteringEngine` and compare
  the published view — built incrementally for dynstrclu, via full captures
  for the others — against a direct capture of the quiesced maintainer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import available_backends, make_clusterer
from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.result import clusterings_equal
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.service.views import ClusteringView

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)

UNIVERSE = 10


@st.composite
def update_streams(draw):
    """A random applicable stream: toggles over a small vertex universe."""
    n = draw(st.integers(min_value=4, max_value=UNIVERSE))
    length = draw(st.integers(min_value=1, max_value=60))
    present = set()
    stream = []
    for _ in range(length):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
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


def _families(view: ClusteringView, universe) -> set:
    by_key = {}
    for v in universe:
        for key in view.cluster_of(v):
            by_key.setdefault(key, set()).add(v)
    return {frozenset(members) for members in by_key.values()}


def assert_views_equivalent(incremental, full, universe):
    assert _families(incremental, universe) == _families(full, universe)
    for v in universe:
        assert len(incremental.cluster_of(v)) == len(full.cluster_of(v)), v
    groups_a = {frozenset(g) for g in incremental.group_by(universe).as_sets()}
    groups_b = {frozenset(g) for g in full.group_by(universe).as_sets()}
    assert groups_a == groups_b
    stats_a = incremental.stats()
    stats_b = full.stats()
    for key in ("view_version", "num_vertices", "num_edges", "clusters",
                "cores", "hubs", "noise", "largest_cluster"):
        assert stats_a[key] == stats_b[key], key
    assert clusterings_equal(incremental.clustering, full.clustering)


@settings(max_examples=25, deadline=None)
@given(stream=update_streams(), batch_size=st.integers(min_value=1, max_value=7))
def test_patched_view_equals_full_capture_every_batch(stream, batch_size):
    from repro.core.dynstrclu import DynStrClu

    algo = DynStrClu(PARAMS)
    view = ClusteringView.empty()
    universe = list(range(UNIVERSE))
    version = 0
    for start in range(0, len(stream), batch_size):
        for update in stream[start : start + batch_size]:
            algo.apply(update)
            version += 1
        flips = algo.drain_view_delta().flips
        patched = view.patched(algo, flips, version=version)
        if patched is None:  # bucket growth: re-base, exactly like the engine
            patched = ClusteringView.capture(algo, version)
        assert_views_equivalent(patched, ClusteringView.capture(algo, version), universe)
        view = patched


@pytest.mark.parametrize("backend", sorted(available_backends()))
@settings(max_examples=8, deadline=None)
@given(stream=update_streams(), batch_size=st.integers(min_value=1, max_value=7))
def test_engine_view_equals_full_capture(backend, stream, batch_size):
    config = EngineConfig(batch_size=batch_size)
    with ClusteringEngine(PARAMS, config=config, backend=backend) as engine:
        for update in stream:
            engine.submit(update)
        assert engine.flush(timeout=30)
        view = engine.view()
        reference = ClusteringView.capture(engine.maintainer, engine.applied)
    assert_views_equivalent(view, reference, list(range(UNIVERSE)))
    if backend == "dynstrclu" and stream:
        assert engine.metrics.get("view_capture_incremental") > 0
    elif stream:
        assert engine.metrics.get("view_capture_full") > 0
        assert engine.metrics.get("view_capture_incremental") == 0