"""Per-vertex organisation of DT instances with shared counters and heaps.

This module implements Section 5.2 of the paper.  Every vertex ``u`` keeps

* a single **shared counter** ``s_u`` counting the affecting updates incident
  on ``u`` (instead of one counter per incident edge), and
* a **DtHeap(u)** holding one entry per slack-mode edge at ``u``, keyed by
  the *shifted checkpoint*: the value of ``s_u`` at which that edge's DT
  participant must next signal its coordinator.

Registering an update at ``u`` increments ``s_u`` once and then only touches
the *checkpoint-ready* heap entries (key equal to ``s_u``), so the work per
update is proportional to the number of DT signals actually due — the whole
point of the paper's poly-logarithmic amortized bound.

**The lane.**  Once an instance's remaining τ is at most
``STRAIGHTFORWARD_LIMIT`` (4h = 8), DT runs in straightforward mode: every
affecting update is a signal, so the edge leaves the heaps.  Each endpoint
``x`` keeps, per lane edge, the value ``x0`` of ``s_x`` when the edge
entered the lane; a lane edge with τ > 1 also keeps its τ.  A lane edge is
*due* at ``x`` once ``s_x`` has passed its stamp, exactly when the heap's
slack-1 entry would signal.  Each due edge counts one ``dt_signal`` and no
``heap_op``; a due edge ``(a, b)`` matures once
``(s_a − a0) + (s_b − b0) ≥ τ``, :class:`NaiveTracker`'s rule read off the
shared counters.  A slack-mode instance moves to the lane when a round
leaves it 8 or less, so the heaps hold only slack-mode rounds, where the
paper's O(log τ) rounds pay.  Under Jaccard an edge stays in the lane
while ``d_max < 16 / (ρε)``, and at ρ = 0 every edge does.

**Re-tracking in batches.**  :meth:`UpdateTracker.process_ready` returns
the edges that matured at one endpoint; DynELM relabels them and hands the
whole list back to :meth:`UpdateTracker.retrack` with their new τ, in one
call per endpoint.  ``retrack`` skips the checks of
:meth:`UpdateTracker.track` (the edges are canonical and untracked by
construction) and sends each edge to the lane or the heaps by τ.

Two trackers are provided:

* :class:`UpdateTracker` — the heap-organised tracker used by DynELM.
* :class:`NaiveTracker` — the straw-man that increments every incident DT
  instance individually (``Θ(d[u])`` per update).  It is used as the
  reference in property-based tests (both must mature every edge at exactly
  the same affecting update) and in the DtHeap ablation benchmark.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, List, Optional, Sequence, Set

from repro.dt.heap import DtHeap, DtHeapEntry
from repro.graph.dynamic_graph import Edge, Vertex, canonical_edge
from repro.instrumentation import NULL_COUNTER, OpCounter

#: below (or at) this remaining threshold the DT round runs in straightforward
#: mode (slack 1), which the lane serves; equals ``4 * h`` with ``h = 2``
#: participants.
STRAIGHTFORWARD_LIMIT = 8


class _EdgeDTState:
    """Coordinator state of the DT instance tracking one edge."""

    __slots__ = ("edge", "initial_tau", "remaining", "slack", "signals_in_round", "entries")

    def __init__(self, edge: Edge, tau: int) -> None:
        self.edge = edge
        self.initial_tau = tau
        self.remaining = tau
        self.slack = 1
        self.signals_in_round = 0
        #: maps each endpoint to its DtHeapEntry living in that endpoint's heap
        self.entries: Dict[Vertex, DtHeapEntry[Edge]] = {}


class UpdateTracker:
    """Heap-organised tracker of affecting updates for every tracked edge.

    The tracker is agnostic of what the thresholds mean: DynELM computes
    ``tau(u, v)`` from the update-affordability lemmas and simply asks the
    tracker to report the edge once ``tau`` affecting updates have been
    absorbed.

    Example
    -------
    >>> t = UpdateTracker()
    >>> t.track(1, 2, tau=3)
    >>> t.register_update(1), t.register_update(2), t.register_update(1)
    ([], [], [(1, 2)])
    """

    def __init__(self, counter: OpCounter | None = None) -> None:
        self._shared: Dict[Vertex, int] = {}
        self._heaps: DefaultDict[Vertex, DtHeap[Edge]] = defaultdict(DtHeap)
        self._states: Dict[Edge, _EdgeDTState] = {}
        #: the lane edges: per endpoint, each edge's shared counter at track time
        self._stamps: DefaultDict[Vertex, Dict[Edge, int]] = defaultdict(dict)
        #: the τ of every lane edge with τ > 1
        self._lane_taus: Dict[Edge, int] = {}
        self._counter = counter if counter is not None else NULL_COUNTER

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    _key = staticmethod(canonical_edge)

    def shared_counter(self, u: Vertex) -> int:
        """Return the shared counter ``s_u`` (0 for unknown vertices)."""
        return self._shared.get(u, 0)

    def is_tracked(self, u: Vertex, v: Vertex) -> bool:
        """Return True when a DT instance currently exists for edge ``(u, v)``."""
        edge = self._key(u, v)
        return edge in self._states or edge in self._stamps.get(u, ())

    def tracked_threshold(self, u: Vertex, v: Vertex) -> Optional[int]:
        """Return the τ the DT instance for ``(u, v)`` counts to, if any.

        For an edge that moved from slack mode to the lane, that is the
        remainder it had left at the move, not the τ it was tracked with.
        """
        edge = self._key(u, v)
        if edge in self._stamps.get(u, ()):
            return self._lane_taus.get(edge, 1)
        state = self._states.get(edge)
        return None if state is None else state.initial_tau

    def num_tracked(self) -> int:
        """Number of edges currently tracked."""
        return len(self._states) + sum(map(len, self._stamps.values())) // 2

    def heap_size(self, u: Vertex) -> int:
        """Number of DtHeap entries at vertex ``u`` (testing/accounting aid)."""
        heap = self._heaps.get(u)
        return 0 if heap is None else len(heap)

    def memory_elements(self) -> Dict[str, int]:
        """Element counts used by the Table 1 memory model."""
        return {
            "dt_coordinator": len(self._states),
            "dt_heap_entry": sum(len(h) for h in self._heaps.values()),
            "dt_stamp": sum(map(len, self._stamps.values())),
            "dt_lane_tau": len(self._lane_taus),
        }

    # ------------------------------------------------------------------
    # DT lifecycle
    # ------------------------------------------------------------------
    def track(self, u: Vertex, v: Vertex, tau: int) -> None:
        """Create a DT instance for edge ``(u, v)`` with threshold ``tau``.

        Raises ``ValueError`` if ``tau < 1`` or the edge is already tracked.
        """
        if tau < 1:
            raise ValueError(f"tau must be a positive integer, got {tau}")
        edge = self._key(u, v)
        if self.is_tracked(u, v):
            raise ValueError(f"edge {edge!r} is already tracked")
        self._shared.setdefault(u, 0)
        self._shared.setdefault(v, 0)
        self.retrack((edge,), (tau,))

    def retrack(self, edges: Sequence[Edge], taus: Sequence[int]) -> None:
        """Create a DT instance for each edge of ``edges`` with the matching τ.

        The unchecked batch form of :meth:`track` that DynELM's drain uses
        for the edges :meth:`process_ready` just returned: every edge is
        canonical, untracked, has a shared counter at both endpoints and a
        positive τ.  An edge with τ ≤ ``STRAIGHTFORWARD_LIMIT`` joins the
        lane, stamped at both endpoints; any other edge gets a DT instance
        with one entry in each endpoint's heap.
        """
        shared = self._shared
        stamps = self._stamps
        for edge, tau in zip(edges, taus):
            if tau <= STRAIGHTFORWARD_LIMIT:
                if tau > 1:
                    self._lane_taus[edge] = tau
                a, b = edge
                stamps[a][edge] = shared[a]
                stamps[b][edge] = shared[b]
                continue
            state = _EdgeDTState(edge, tau)
            self._states[edge] = state
            for endpoint in edge:
                entry = DtHeapEntry(edge, key=0, round_start=0)
                state.entries[endpoint] = entry
                self._heaps[endpoint].push(entry)
                self._counter.add("heap_op")
            self._begin_round(state)

    def untrack(self, u: Vertex, v: Vertex) -> None:
        """Remove the DT instance for ``(u, v)`` (no-op if not tracked)."""
        edge = self._key(u, v)
        if edge in self._stamps.get(u, ()):
            del self._stamps[u][edge], self._stamps[v][edge]
            self._lane_taus.pop(edge, None)
            return
        state = self._states.pop(edge, None)
        if state is not None:
            self._drop_entries(state)

    def _drop_entries(self, state: _EdgeDTState) -> None:
        for endpoint, entry in state.entries.items():
            if entry.in_heap:
                self._heaps[endpoint].remove(entry)
                self._counter.add("heap_op")
        state.entries.clear()

    def _begin_round(self, state: _EdgeDTState) -> None:
        """Start a fresh slack-mode round: pick the slack, reset both checkpoints."""
        state.signals_in_round = 0
        state.slack = state.remaining // 4  # floor(tau / (2 h)) with h = 2
        for endpoint, entry in state.entries.items():
            s = self._shared[endpoint]
            entry.round_start = s
            self._heaps[endpoint].update_key(entry, s + state.slack)
            self._counter.add("heap_op")

    # ------------------------------------------------------------------
    # update processing
    # ------------------------------------------------------------------
    def increment(self, u: Vertex) -> None:
        """Increment the shared counter ``s_u`` without processing signals.

        DynELM performs the increments of Step 1 *before* the edge-specific
        handling of Step 2 (so a DT instance created or removed by Step 2 is
        not confused by this update), then drains the checkpoint-ready
        entries with :meth:`process_ready` in Steps 3 and 4.
        """
        self._shared[u] = self._shared.get(u, 0) + 1

    def process_ready(self, u: Vertex) -> List[Edge]:
        """Check the lane edges due at ``u`` and the ready entries of ``DtHeap(u)``.

        Returns the (possibly empty) list of edges whose DT instance
        matured; those instances are removed and must be re-created (with a
        new threshold) by the caller after re-labelling the edge.
        """
        s_u = self._shared.get(u, 0)
        matured: List[Edge] = []
        all_stamps = self._stamps
        stamps = all_stamps.get(u)
        if stamps:
            matured = [edge for edge, stamp in stamps.items() if stamp < s_u]
            if matured:
                self._counter.add("dt_signal", len(matured))
                lane_taus = self._lane_taus
                if lane_taus:
                    # keep the due edges (a, b) with (s_a − a0) + (s_b − b0) ≥ τ
                    due, matured, shared = matured, [], self._shared
                    for edge in due:
                        tau = lane_taus.get(edge)
                        if tau is not None:
                            a, b = edge
                            if (shared[a] - all_stamps[a][edge]
                                    + shared[b] - all_stamps[b][edge]) < tau:
                                continue
                            del lane_taus[edge]
                        matured.append(edge)
                for edge in matured:
                    a, b = edge
                    del all_stamps[a][edge], all_stamps[b][edge]
        heap = self._heaps.get(u)
        while heap and heap.peek_min().key <= s_u:
            self._counter.add("heap_op")
            self._process_signal(u, heap.peek_min(), matured)
        return matured

    def register_update(self, u: Vertex) -> List[Edge]:
        """Record one affecting update incident on ``u`` (increment + drain).

        Equivalent to :meth:`increment` followed by :meth:`process_ready`;
        kept as the convenience entry point used by tests and by callers that
        do not need the paper's exact step ordering.
        """
        self.increment(u)
        return self.process_ready(u)

    def _process_signal(self, u: Vertex, entry: DtHeapEntry[Edge], matured: List[Edge]) -> None:
        """Handle one checkpoint-ready slack-mode signal from participant ``u``."""
        edge = entry.payload
        state = self._states[edge]
        self._counter.add("dt_signal")
        state.signals_in_round += 1
        if state.signals_in_round < 2:
            # the round continues: only this participant's checkpoint advances
            self._heaps[u].update_key(entry, entry.key + state.slack)
            self._counter.add("heap_op")
            return
        # second signal: the coordinator collects exact in-round counts
        consumed = 0
        for endpoint, ep_entry in state.entries.items():
            consumed += self._shared[endpoint] - ep_entry.round_start
        state.remaining -= consumed
        if state.remaining > STRAIGHTFORWARD_LIMIT:
            self._begin_round(state)
            return
        # the straightforward tail runs in the lane
        del self._states[edge]
        self._drop_entries(state)
        if state.remaining > 0:
            self.retrack((edge,), (state.remaining,))
        else:
            # defensive: cannot happen with the h = 2 slack rule, but treat as maturity
            matured.append(edge)


class NaiveTracker:
    """Straw-man tracker: one private counter per tracked edge.

    ``register_update(u)`` walks over *every* tracked edge incident on ``u``
    and increments its counter, which is the ``Θ(d[u])`` behaviour the
    heap-organised tracker avoids.  Maturity semantics are identical, which
    the property-based tests rely on.
    """

    def __init__(self, counter: OpCounter | None = None) -> None:
        self._thresholds: Dict[Edge, int] = {}
        self._counts: Dict[Edge, int] = {}
        self._incident: Dict[Vertex, Set[Edge]] = {}
        self._counter = counter if counter is not None else NULL_COUNTER

    _key = staticmethod(canonical_edge)

    def is_tracked(self, u: Vertex, v: Vertex) -> bool:
        return self._key(u, v) in self._thresholds

    def num_tracked(self) -> int:
        return len(self._thresholds)

    def track(self, u: Vertex, v: Vertex, tau: int) -> None:
        if tau < 1:
            raise ValueError(f"tau must be a positive integer, got {tau}")
        edge = self._key(u, v)
        if edge in self._thresholds:
            raise ValueError(f"edge {edge!r} is already tracked")
        self._thresholds[edge] = tau
        self._counts[edge] = 0
        for endpoint in edge:
            self._incident.setdefault(endpoint, set()).add(edge)

    def untrack(self, u: Vertex, v: Vertex) -> None:
        edge = self._key(u, v)
        if edge not in self._thresholds:
            return
        del self._thresholds[edge]
        del self._counts[edge]
        for endpoint in edge:
            self._incident[endpoint].discard(edge)

    def register_update(self, u: Vertex) -> List[Edge]:
        matured: List[Edge] = []
        for edge in list(self._incident.get(u, ())):
            self._counter.add("counter_increment")
            self._counts[edge] += 1
            if self._counts[edge] >= self._thresholds[edge]:
                matured.append(edge)
        for edge in matured:
            self.untrack(*edge)
        return matured
