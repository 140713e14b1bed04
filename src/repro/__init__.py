"""repro — Dynamic Structural Clustering on Graphs (SIGMOD 2021).

A from-scratch Python implementation of the DynELM and DynStrClu algorithms
of Ruan, Gan, Wu and Wirth, together with every substrate they rely on
(dynamic graph storage, distributed tracking, fully dynamic connectivity),
the baselines they are compared against, the update workload simulators, the
quality metrics, and an experiment harness reproducing every table and
figure of the paper's evaluation.

Quickstart
----------
>>> from repro import DynStrClu, StrCluParams
>>> params = StrCluParams(epsilon=0.5, mu=2, rho=0.01, seed=1)
>>> algo = DynStrClu(params)
>>> for edge in [(0, 1), (1, 2), (0, 2), (2, 3)]:
...     _ = algo.insert_edge(*edge)
>>> algo.clustering().num_clusters
1
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__version__ = "1.10.0"

#: Public name -> the module that defines it.  Names resolve on first
#: access, so ``import repro`` loads no layer it does not use: the
#: algorithm layers load with the first algorithm name and the service
#: stack (HTTP server, asyncio) with the first service name.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.analysis": ("ClusterTracker", "VertexRole", "classify_roles", "role_census"),
        "repro.baselines": ("ExactDynamicSCAN", "IndexedDynamicSCAN", "static_scan"),
        "repro.core": (
            "Clustering",
            "DynELM",
            "DynStrClu",
            "EdgeLabel",
            "StrCluParams",
            "compute_clusters",
        ),
        "repro.core.api": ("Clusterer", "available_backends", "make_clusterer", "register_backend"),
        "repro.core.result": ("ViewDelta",),
        "repro.core.dynelm": ("Update", "UpdateKind"),
        "repro.graph": ("DynamicGraph", "cosine_similarity", "jaccard_similarity"),
        "repro.graph.similarity": ("SimilarityKind",),
        "repro.persistence": (
            "load_snapshot",
            "restore_dynstrclu",
            "save_snapshot",
            "take_snapshot",
        ),
        "repro.streaming": ("SlidingWindowClustering",),
        "repro.service.client": ("ServiceClient",),
        "repro.service.engine": ("ClusteringEngine", "EngineConfig"),
        "repro.service.fleet": ("FleetWatchdog", "WatchdogConfig"),
        "repro.service.loadgen": ("LoadGenConfig", "LoadGenerator"),
        "repro.service.manager": ("EngineManager", "TenantConfig"),
        "repro.service.metrics": ("ServiceMetrics",),
        "repro.service.server": ("BackgroundServer", "ClusteringServiceServer"),
        "repro.service.views": ("ClusteringView",),
    }.items()
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

if TYPE_CHECKING:
    from repro.analysis import ClusterTracker, VertexRole, classify_roles, role_census
    from repro.baselines import ExactDynamicSCAN, IndexedDynamicSCAN, static_scan
    from repro.core import Clustering, DynELM, DynStrClu, EdgeLabel, StrCluParams, compute_clusters
    from repro.core.api import Clusterer, available_backends, make_clusterer, register_backend
    from repro.core.dynelm import Update, UpdateKind
    from repro.core.result import ViewDelta
    from repro.graph import DynamicGraph, cosine_similarity, jaccard_similarity
    from repro.graph.similarity import SimilarityKind
    from repro.persistence import load_snapshot, restore_dynstrclu, save_snapshot, take_snapshot
    from repro.service.client import ServiceClient
    from repro.service.engine import ClusteringEngine, EngineConfig
    from repro.service.fleet import FleetWatchdog, WatchdogConfig
    from repro.service.loadgen import LoadGenConfig, LoadGenerator
    from repro.service.manager import EngineManager, TenantConfig
    from repro.service.metrics import ServiceMetrics
    from repro.service.server import BackgroundServer, ClusteringServiceServer
    from repro.service.views import ClusteringView
    from repro.streaming import SlidingWindowClustering
