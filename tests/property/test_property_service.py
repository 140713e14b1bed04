"""Property test: the engine's micro-batching path is an equivalence oracle.

Whatever the batch size, flush timing and queue interleaving, pushing an
update stream through :class:`ClusteringEngine` must produce exactly the
clustering of applying the same stream sequentially through
:class:`DynStrClu` — batching is an execution strategy, not a semantics
change.  Streams are random shuffles of insert/delete operations over a
small vertex universe (maintained as set-toggles so every generated update
is applicable), which exercises deletions, re-insertions and core flips.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.core.result import clusterings_equal
from repro.service.engine import ClusteringEngine, EngineConfig

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)


@st.composite
def update_streams(draw):
    """A random applicable stream: toggles over a small vertex universe."""
    n = draw(st.integers(min_value=4, max_value=10))
    length = draw(st.integers(min_value=1, max_value=50))
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


@settings(max_examples=25, deadline=None)
@given(stream=update_streams(), batch_size=st.integers(min_value=1, max_value=9))
def test_micro_batched_engine_equals_sequential_dynstrclu(stream, batch_size):
    sequential = DynStrClu(PARAMS)
    for update in stream:
        sequential.apply(update)

    config = EngineConfig(batch_size=batch_size)
    with ClusteringEngine(PARAMS, config=config) as engine:
        for update in stream:
            engine.submit(update)
        assert engine.flush(timeout=30)
        view = engine.view()

    assert engine.applied == len(stream)
    assert view.version == len(stream)
    assert clusterings_equal(view.clustering, sequential.clustering())

    # and the snapshot answers group-by exactly like the live maintainer
    query = list(range(10))
    assert {frozenset(g) for g in view.group_by(query).as_sets()} == {
        frozenset(g) for g in sequential.group_by(query).as_sets()
    }
