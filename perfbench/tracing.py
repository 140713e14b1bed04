"""Self-time tracing of the clustering stack, installed from outside the program.

The benchmark's traced runs wrap the public functions of each layer with a
span that records its duration; a layer's *self time* is that duration minus
the time of the spans it encloses.  Spans are aggregated in memory per
thread as ``{key: [self_ns, calls]}`` (a key is ``"<layer>:<function>"``)
and merged on :meth:`Tracer.snapshot`, so a run of a million spans costs a
handful of dict rows, not a million records.  No program source changes:
:func:`install` replaces class and module attributes and returns an undo.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Tuple

# (owner, attribute name, layer): the owner is a class or a module
Target = Tuple[object, str, str]
Snapshot = Dict[str, Tuple[int, int]]


class Tracer:
    """Per-thread span stacks feeding per-thread ``key -> [self_ns, calls]`` tables."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, List[int]]] = []  # guarded-by: _lock

    def _bind_thread(self) -> List[int]:
        table: Dict[str, List[int]] = {}
        with self._lock:
            self._tables.append(table)
        self._local.table = table
        # the bottom slot collects the time of top-level spans
        self._local.stack = [0]
        return self._local.stack

    def wrap(self, key: str, fn: Callable) -> Callable:
        local = self._local
        bind = self._bind_thread
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None) or bind()
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                row = local.table.get(key)
                if row is None:
                    row = local.table[key] = [0, 0]
                row[0] += elapsed - children
                row[1] += 1

        return traced

    def snapshot(self) -> Snapshot:
        """Merged ``key -> (self_ns, calls)`` over every thread so far."""
        with self._lock:
            tables = list(self._tables)
        merged: Dict[str, List[int]] = {}
        for table in tables:
            for key, (self_ns, calls) in list(table.items()):
                row = merged.setdefault(key, [0, 0])
                row[0] += self_ns
                row[1] += calls
        return {key: (row[0], row[1]) for key, row in merged.items()}


def diff(after: Snapshot, before: Snapshot) -> Snapshot:
    """Per-key ``after - before``."""
    zero = (0, 0)
    return {
        key: (ns - before.get(key, zero)[0], calls - before.get(key, zero)[1])
        for key, (ns, calls) in after.items()
    }


def layer_self_ns(spans: Snapshot) -> Dict[str, int]:
    """Self nanoseconds per layer (the key prefix before ``:``)."""
    out: Dict[str, int] = {}
    for key, (ns, _calls) in spans.items():
        layer = key.split(":", 1)[0]
        out[layer] = out.get(layer, 0) + ns
    return out


def install(tracer: Tracer, targets: List[Target]) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    undo: List[Tuple[object, str, object]] = []
    for owner, name, layer in targets:
        original = vars(owner)[name]
        key = f"{layer}:{name}"
        if isinstance(original, classmethod):
            replacement: object = classmethod(tracer.wrap(key, original.__func__))
        else:
            replacement = tracer.wrap(key, original)
        setattr(owner, name, replacement)
        undo.append((owner, name, original))

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


def core_targets() -> List[Target]:
    """The algorithm layers: oracle, labelling, affordability, DT, graph,
    vAuxInfo, HDT connectivity, the ELM update glue and DynStrClu itself."""
    from repro.connectivity.hdt import HDTConnectivity
    from repro.core import dynelm
    from repro.core.aux_info import VertexAuxInfo
    from repro.core.dynstrclu import DynStrClu
    from repro.core.estimator import ExactSimilarityOracle, SamplingSimilarityOracle
    from repro.core.labelling import LabellingStrategy
    from repro.dt.tracker import UpdateTracker
    from repro.graph.dynamic_graph import DynamicGraph

    targets: List[Target] = [
        (SamplingSimilarityOracle, "similarity", "core.estimator"),
        (ExactSimilarityOracle, "similarity", "core.estimator"),
        (LabellingStrategy, "label", "core.labelling"),
        # dynelm imported the function by name, so wrap that binding
        (dynelm, "tracking_threshold", "core.affordability"),
        (DynamicGraph, "insert_edge", "graph"),
        (DynamicGraph, "delete_edge", "graph"),
        (dynelm.DynELM, "insert_edge", "core.dynelm"),
        (dynelm.DynELM, "delete_edge", "core.dynelm"),
    ]
    targets += [
        (UpdateTracker, name, "dt")
        for name in ("increment", "track", "untrack", "process_ready")
    ]
    targets += [
        (VertexAuxInfo, name, "core.aux_info")
        for name in (
            "add_similar",
            "remove_similar",
            "set_neighbour_core_status",
            "update_similar_edge",
            "remove_similar_edge",
        )
    ]
    targets += [
        (HDTConnectivity, name, "connectivity")
        for name, value in vars(HDTConnectivity).items()
        if not name.startswith("_") and callable(value)
    ]
    targets += [
        (DynStrClu, name, "core.dynstrclu")
        for name in ("insert_edge", "delete_edge", "group_by", "clustering")
    ]
    return targets


def service_targets() -> List[Target]:
    """The served layers the launcher adds: view publication and WAL append."""
    from repro.persistence.updatelog import UpdateLogWriter
    from repro.service.views import ClusteringView

    return [
        (ClusteringView, "patched", "service.views"),
        (ClusteringView, "capture", "service.views"),
        (UpdateLogWriter, "append", "persistence"),
    ]


def inject_counters(counters: list) -> None:
    """Give every DynStrClu built without a counter its own ``OpCounter``.

    The service builds its maintainers with the default null counter; the
    traced server needs the cost model, so each new maintainer gets a fresh
    counter, appended to ``counters``.
    """
    from repro.core.dynstrclu import DynStrClu
    from repro.instrumentation import OpCounter

    original = DynStrClu.__init__

    @functools.wraps(original)
    def init(self, params, oracle=None, counter=None, *args, **kwargs):
        if counter is None:
            counter = OpCounter()
            counters.append(counter)
        original(self, params, oracle, counter, *args, **kwargs)

    DynStrClu.__init__ = init
