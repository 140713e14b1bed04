"""Streaming front-ends over the dynamic clustering maintainers.

The paper's motivating scenario is a graph that changes continuously
(social interactions, protein measurements, blockchain transfers).  This
package provides :mod:`repro.streaming.window`, a sliding-window view of
an interaction stream: every edge carries a timestamp, and edges older
than the window are automatically deleted from the maintained graph, so
the clustering always reflects the recent past.  Durable ingest (WAL,
checkpoints, crash recovery) is
:class:`repro.service.engine.ClusteringEngine`.
"""

from repro.streaming.window import SlidingWindowClustering, TimedEdge

__all__ = [
    "SlidingWindowClustering",
    "TimedEdge",
]
