"""Sliding-window structural clustering over a timestamped edge stream.

Many dynamic-graph applications care about the *recent* structure only:
interactions in the last hour, transactions in the last 10 000 blocks,
co-tagged photos from the last week.  :class:`SlidingWindowClustering`
maintains a :class:`~repro.core.dynstrclu.DynStrClu` instance over exactly
the edges observed within a trailing window of the event time, turning one
stream event into at most one insertion plus the deletions of every edge
that falls out of the window — i.e. the exact update workload the paper's
maintainers are designed for.

Window semantics
----------------
* Every observed edge carries an event time (any monotonically
  non-decreasing number: seconds, block height, logical step).
* An edge is *live* while ``now - last_seen < window``; observing an edge
  that is already live refreshes its timestamp instead of inserting a
  duplicate.
* :meth:`SlidingWindowClustering.advance_to` moves the clock without adding
  an edge (e.g. on a period of silence) and expires old edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import StrCluParams
from repro.core.dynstrclu import DynStrClu
from repro.core.result import Clustering, GroupByResult
from repro.graph.dynamic_graph import Vertex, canonical_edge
from repro.instrumentation import OpCounter

Edge = Tuple[Vertex, Vertex]


@dataclass(frozen=True)
class TimedEdge:
    """One stream event: an interaction between ``u`` and ``v`` at ``time``."""

    u: Vertex
    v: Vertex
    time: float

    @property
    def edge(self) -> Edge:
        return canonical_edge(self.u, self.v)


class SlidingWindowClustering:
    """Maintain the structural clustering of the last ``window`` time units.

    Parameters
    ----------
    params:
        Clustering parameters for the underlying :class:`DynStrClu`.
    window:
        Width of the trailing window, in the same unit as the event times.
    counter:
        Optional :class:`OpCounter` forwarded to the maintainer.

    Example
    -------
    >>> params = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
    >>> swc = SlidingWindowClustering(params, window=10.0)
    >>> for t, (u, v) in enumerate([(1, 2), (2, 3), (1, 3)]):
    ...     _ = swc.observe(u, v, time=float(t))
    >>> swc.num_live_edges
    3
    >>> swc.advance_to(20.0)   # everything expires
    3
    >>> swc.num_live_edges
    0
    """

    def __init__(
        self,
        params: StrCluParams,
        window: float,
        counter: Optional[OpCounter] = None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self.maintainer = DynStrClu(params, counter=counter)
        self.now: float = float("-inf")
        #: last event time of every live edge
        self._last_seen: Dict[Edge, float] = {}
        #: min-heap of (expiry_candidate_time, tie_break, edge); the unique
        #: tie-break stops heapq from ever comparing edges (whose endpoints
        #: may be of mixed, mutually unorderable types); stale entries are
        #: lazily skipped
        self._expiry_heap: List[Tuple[float, int, Edge]] = []
        self._heap_sequence = 0
        self.observed_events = 0
        self.expired_edges = 0

    # ------------------------------------------------------------------
    # stream input
    # ------------------------------------------------------------------
    def observe(self, u: Vertex, v: Vertex, time: float) -> int:
        """Process one interaction; returns the number of edges expired by it.

        Raises
        ------
        ValueError
            If ``time`` is earlier than the latest observed event (the
            window model requires non-decreasing event times).
        """
        if time < self.now:
            raise ValueError(
                f"event times must be non-decreasing: got {time} after {self.now}"
            )
        self.observed_events += 1
        expired = self.advance_to(time)
        edge = canonical_edge(u, v)
        if edge in self._last_seen:
            # refresh: the edge stays live for another full window
            self._last_seen[edge] = time
        else:
            self.maintainer.insert_edge(u, v)
            self._last_seen[edge] = time
        self._heap_sequence += 1
        heapq.heappush(self._expiry_heap, (time, self._heap_sequence, edge))
        return expired

    def observe_event(self, event: TimedEdge) -> int:
        """Process one :class:`TimedEdge`."""
        return self.observe(event.u, event.v, event.time)

    def advance_to(self, time: float) -> int:
        """Move the clock to ``time`` and expire edges that left the window."""
        if time < self.now:
            raise ValueError(
                f"event times must be non-decreasing: got {time} after {self.now}"
            )
        self.now = time
        cutoff = time - self.window
        expired = 0
        while self._expiry_heap and self._expiry_heap[0][0] <= cutoff:
            seen_at, _seq, edge = heapq.heappop(self._expiry_heap)
            current = self._last_seen.get(edge)
            if current is None or current > seen_at:
                continue  # refreshed or already expired: stale heap entry
            if current <= cutoff:
                del self._last_seen[edge]
                self.maintainer.delete_edge(*edge)
                expired += 1
        self.expired_edges += expired
        return expired

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def num_live_edges(self) -> int:
        """Number of edges currently inside the window."""
        return len(self._last_seen)

    def live_edges(self) -> List[Edge]:
        """The edges currently inside the window."""
        return list(self._last_seen)

    def last_seen(self, u: Vertex, v: Vertex) -> Optional[float]:
        """Event time of the most recent observation of edge ``(u, v)``, if live."""
        return self._last_seen.get(canonical_edge(u, v))

    def clustering(self) -> Clustering:
        """The StrCluResult of the current window content."""
        return self.maintainer.clustering()

    def group_by(self, query) -> GroupByResult:
        """Cluster-group-by query restricted to the current window content."""
        return self.maintainer.group_by(query)

    @property
    def params(self) -> StrCluParams:
        return self.maintainer.params
