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

from repro.analysis import ClusterTracker, VertexRole, classify_roles, role_census
from repro.baselines import ExactDynamicSCAN, IndexedDynamicSCAN, static_scan
from repro.core import Clustering, DynELM, DynStrClu, EdgeLabel, StrCluParams, compute_clusters
from repro.core.api import Clusterer, available_backends, make_clusterer, register_backend
from repro.core.result import ViewDelta
from repro.core.dynelm import Update, UpdateKind
from repro.graph import DynamicGraph, cosine_similarity, jaccard_similarity
from repro.graph.similarity import SimilarityKind
from repro.persistence import (
    load_snapshot,
    restore_dynstrclu,
    save_snapshot,
    take_snapshot,
)
from repro.streaming import SlidingWindowClustering

__version__ = "1.10.0"

from repro.service import (  # noqa: E402  (needs __version__ for /healthz)
    BackgroundServer,
    ClusteringEngine,
    ClusteringServiceServer,
    ClusteringView,
    EngineConfig,
    EngineManager,
    FleetWatchdog,
    LoadGenConfig,
    LoadGenerator,
    ServiceClient,
    ServiceMetrics,
    TenantConfig,
    WatchdogConfig,
)

__all__ = [
    "DynamicGraph",
    "DynELM",
    "DynStrClu",
    "StrCluParams",
    "EdgeLabel",
    "Clustering",
    "compute_clusters",
    "Update",
    "UpdateKind",
    "SimilarityKind",
    "jaccard_similarity",
    "cosine_similarity",
    "static_scan",
    "ExactDynamicSCAN",
    "IndexedDynamicSCAN",
    "VertexRole",
    "classify_roles",
    "role_census",
    "ClusterTracker",
    "take_snapshot",
    "save_snapshot",
    "load_snapshot",
    "restore_dynstrclu",
    "SlidingWindowClustering",
    "Clusterer",
    "available_backends",
    "make_clusterer",
    "register_backend",
    "ViewDelta",
    "ClusteringEngine",
    "EngineConfig",
    "EngineManager",
    "FleetWatchdog",
    "WatchdogConfig",
    "TenantConfig",
    "ClusteringView",
    "ClusteringServiceServer",
    "BackgroundServer",
    "ServiceClient",
    "ServiceMetrics",
    "LoadGenerator",
    "LoadGenConfig",
    "__version__",
]
