"""Time-travel reads: ``as_of`` historical queries over retained state.

The durability layer already retains everything needed to reconstruct any
past state of a tenant — position-stamped snapshot anchors
(``snapshot-<position>.json``, cut at every checkpoint) and the retained
WAL segments behind them.  This module turns that retention into a read
feature, following the reenactment idea (replay the log to the requested
point instead of materialising every version eagerly):

* **Anchor + replay.**  A query ``as_of=P`` is answered by
  :func:`repro.persistence.recovery.state_at` — the one reconstruction
  path crash recovery also uses — which restores the newest retained
  snapshot at position ``≤ P`` and replays the retained WAL forward
  through :func:`repro.persistence.updatelog.read_wal_range` (the same
  range reader that ships WAL to standbys), stopping exactly at ``P``.
* **Cached replayers.**  The replayed maintainer is kept per shard; a
  later query at ``P' ≥ P`` continues the replay forward through the
  same replay step (:func:`~repro.persistence.recovery.replay_wal`)
  instead of restarting from an anchor, so walking a tenant's history in
  order costs each WAL record once.
* **Materialised-view LRU.**  The captured views are held in a
  size-bounded LRU keyed by the requested position tuple, so repeated
  audits of the same epoch are O(1) lookups.
* **Retention pins.**  Before replaying, the store pins the engine's WAL
  retention (:meth:`~repro.service.engine.ClusteringEngine.pin_wal`), so
  a checkpoint cut mid-replay cannot prune the anchor or the segments
  out from under it.
* **Sharded tenants.**  Each shard replays to its own position, and
  :func:`capture_view` merges the per-shard exports through the *live*
  scatter-gather merge (:func:`repro.service.sharding.merge_shard_views`)
  — historical sharded reads are exactly as exact as current ones.

History that has been pruned past the retention horizon raises
:class:`AsOfUnavailableError` (HTTP ``410 as_of_unavailable``) carrying
the oldest position still replayable.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import StrCluParams
from repro.core.dynstrclu import DynStrClu
from repro.persistence.recovery import replay_wal, state_at
from repro.persistence.updatelog import WalGapError
from repro.service.engine import ClusteringEngine, EngineError
from repro.service.metrics import LatencyHistogram
from repro.service.replication import StandbyEngine
from repro.service.sharding import (
    AnyEngine,
    ShardedView,
    _OwnerMap,
    capture_shard_export,
    merge_shard_views,
)
from repro.service.views import ClusteringView

#: Default bound on materialised historical views kept per tenant.
DEFAULT_HISTORY_CACHE_SIZE = 8


class AsOfUnavailableError(EngineError):
    """The requested historical position is no longer replayable.

    Raised when the snapshot anchor / WAL segments an ``as_of`` replay
    needs have been pruned past the retention horizon.  Carries the
    context the HTTP 410 body surfaces: ``requested`` (the position asked
    for), ``oldest`` (the oldest position still replayable — ``None``
    when the tenant has no replayable history at all) and ``shard`` (the
    shard whose history ran out, for sharded tenants).
    """

    def __init__(
        self,
        message: str,
        requested: int = 0,
        oldest: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.requested = requested
        self.oldest = oldest
        self.shard = shard


def capture_view(
    maintainers: Sequence[DynStrClu],
    positions: Sequence[int],
    params: StrCluParams,
) -> Union[ClusteringView, ShardedView]:
    """The read view of per-shard maintainers at ``positions``.

    One maintainer is captured as is; several publish their exports into
    the live scatter-gather merge, exactly as a sharded tenant's shards.
    """
    num_shards = len(maintainers)
    if num_shards == 1:
        return ClusteringView.capture(maintainers[0], positions[0])
    owner = _OwnerMap(num_shards)
    exports = tuple(
        capture_shard_export(maintainer, index, num_shards, position, owner=owner)
        for index, (maintainer, position) in enumerate(zip(maintainers, positions))
    )
    return merge_shard_views(exports, params, num_shards, owner=owner)


class HistoricalViewStore:
    """Materialised historical views of one tenant, replayed on demand.

    One store per tenant, created lazily by
    :meth:`repro.service.manager.EngineManager.timetravel`.  Thread-safe:
    LRU lookups take a short lock; replays are serialised behind a
    dedicated replay lock (one historical rebuild at a time per tenant —
    they share the cached replayers).

    Counters (``timetravel_hits`` / ``timetravel_misses`` /
    ``timetravel_evictions``) go through the engine's own metrics, so they
    appear in the tenant's ``/stats`` counter block; replay wall-clock is
    tracked in a dedicated latency histogram exposed via :meth:`stats`.
    """

    def __init__(
        self,
        engine: Union[AnyEngine, StandbyEngine],
        capacity: int = DEFAULT_HISTORY_CACHE_SIZE,
    ) -> None:
        if capacity < 1:
            raise ValueError("history cache capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.replay_latency = LatencyHistogram()
        self._lock = threading.Lock()
        self._replay_lock = threading.Lock()
        self._views: "OrderedDict[Tuple[int, ...], object]" = OrderedDict()  # guarded-by: _lock
        self._replayers: Dict[int, DynStrClu] = {}  # guarded-by: _replay_lock

    def _targets(self) -> List[ClusteringEngine]:
        targets = self.engine.shards
        for target in targets:
            if target.data_dir is None:
                raise ValueError(
                    "as_of requires a durable tenant (snapshot + WAL "
                    "retention); this tenant keeps no history"
                )
        return targets

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------
    def view_at(self, positions: Sequence[int]) -> object:
        """The tenant's view at the requested per-shard position tuple.

        ``positions`` must hold exactly one position per shard (one
        entry for unsharded tenants).  Returns a
        :class:`~repro.service.views.ClusteringView` (unsharded) or
        :class:`~repro.service.sharding.ShardedView` (sharded) — the same
        read surface the live path serves.  Raises ``ValueError`` for a
        malformed request (wrong tuple length, position beyond the
        applied prefix, non-durable tenant) and
        :class:`AsOfUnavailableError` for pruned history.
        """
        key = tuple(int(position) for position in positions)
        if any(position < 0 for position in key):
            raise ValueError(f"as_of positions must be >= 0, got {list(key)}")
        metrics = self.engine.metrics
        with self._lock:
            view = self._views.get(key)
            if view is not None:
                self._views.move_to_end(key)
                metrics.add("timetravel_hits")
                return view
        with self._replay_lock:
            # re-check: a concurrent request may have materialised it
            # while this one waited for the replay lock
            with self._lock:
                view = self._views.get(key)
                if view is not None:
                    self._views.move_to_end(key)
                    metrics.add("timetravel_hits")
                    return view
            targets = self._targets()
            if len(key) != len(targets):
                raise ValueError(
                    f"as_of needs exactly {len(targets)} per-shard "
                    f"position(s) for this tenant, got {len(key)}"
                )
            for index, (target, goal) in enumerate(zip(targets, key)):
                if goal > target.applied:
                    raise ValueError(
                        f"as_of position {goal} is beyond the applied "
                        f"prefix {target.applied}"
                        + (f" of shard {index}" if len(targets) > 1 else "")
                    )
            metrics.add("timetravel_misses")
            start = time.perf_counter()
            maintainers = [
                self._replay_locked(target, index, goal)
                for index, (target, goal) in enumerate(zip(targets, key))
            ]
            view = capture_view(maintainers, key, self.engine.params)
            self.replay_latency.observe(time.perf_counter() - start)
            with self._lock:
                self._views[key] = view
                self._views.move_to_end(key)
                while len(self._views) > self.capacity:
                    self._views.popitem(last=False)
                    metrics.add("timetravel_evictions")
            return view

    def _replay_locked(self, target: ClusteringEngine, index: int, goal: int) -> DynStrClu:
        """A maintainer holding shard ``index``'s state at exactly ``goal``.

        Caller holds ``_replay_lock`` (the ``_locked`` suffix is the
        project convention the guarded-field checker understands): the
        cached ``_replayers`` are mutated freely here because
        :meth:`view_at` serialises every replay behind that lock.
        """
        cached = self._replayers.pop(index, None)
        # pinned at 0: a cold replay may anchor at any retained snapshot
        token = target.pin_wal(0)
        try:
            maintainer = None
            if cached is not None and cached.updates_processed <= goal:
                try:
                    replay_wal(cached, target.data_dir, goal)
                    maintainer = cached
                except WalGapError:
                    pass  # its WAL was pruned or is damaged: re-anchor below
            if maintainer is None:
                maintainer, _ = state_at(
                    target.data_dir,
                    goal,
                    scope=target.label_scope,
                )
        except (WalGapError, FileNotFoundError) as exc:
            # FileNotFoundError: an anchor pruned between listing and load
            sharded = self.engine.num_shards > 1
            raise AsOfUnavailableError(
                f"cannot replay to position {goal}"
                + (f" of shard {index}" if sharded else "")
                + f": {exc}",
                requested=goal,
                oldest=target.wal_horizon()["oldest_replayable"],
                shard=index if sharded else None,
            ) from exc
        except TimeoutError as exc:
            raise EngineError(f"as_of {exc}") from exc
        finally:
            target.unpin_wal(token)
        self._replayers[index] = maintainer
        return maintainer

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The ``timetravel`` stats block of this tenant."""
        metrics = self.engine.metrics
        with self._lock:
            cached = len(self._views)
        return {
            "cached_views": cached,
            "capacity": self.capacity,
            "hits": metrics.get("timetravel_hits"),
            "misses": metrics.get("timetravel_misses"),
            "evictions": metrics.get("timetravel_evictions"),
            "replay": self.replay_latency.summary(),
        }

    def clear(self) -> None:
        """Drop every cached view and replayer (tenant delete / close).

        Lock order matches :meth:`view_at` (``_replay_lock`` outside,
        ``_lock`` inside) so a clear racing a replay cannot deadlock.
        """
        with self._replay_lock:
            with self._lock:
                self._views.clear()
            self._replayers.clear()
