"""The clustering engine: a single-writer, micro-batching ingest pipeline.

:class:`ClusteringEngine` turns any registered clustering backend (the
:class:`~repro.core.api.Clusterer` protocol — ``dynstrclu`` by default,
or ``dynelm`` / ``scan-exact`` / ``pscan`` / ``hscan`` by name) into a
concurrent service component:

* **Single writer.**  The maintainers are not thread-safe, and the paper's
  model is one update stream.  The engine preserves both: exactly one
  writer thread applies updates, in submission order.
* **Micro-batching with backpressure.**  Producers enqueue updates into a
  bounded queue (:meth:`submit`); when the queue is full the producer either
  blocks or gets :class:`EngineBackpressure` — the open-loop load shedding
  signal.  The writer batches like database group commit: it blocks for
  one update, then takes whatever piled up while it was busy applying the
  previous batch, up to ``batch_size``.  No timer holds a batch open, so
  the ``queue_wait`` stage is pure backlog.
* **Snapshot-isolated reads.**  After each batch the writer captures an
  immutable :class:`~repro.service.views.ClusteringView` and publishes it
  with a single attribute store.  Readers never touch the maintainer and
  never block.
* **Incremental view publication.**  A backend that tracks the paper's
  flip set (``drain_view_delta`` reporting the vertices whose membership
  changed) gets its view *patched* from the previous one in O(|F| log n)
  instead of re-captured in O(n + m); the engine falls back to a full
  capture when the backend cannot track deltas, when the dirty region
  exceeds :data:`VIEW_REBUILD_FRACTION` of the graph, or when the persistent
  membership buckets must be re-sized.
* **Durability and crash recovery.**  With a ``data_dir``, every accepted
  update is appended to a WAL *before* it is applied, and a checkpoint
  (atomic snapshot write + WAL rotation) is cut every ``checkpoint_every``
  updates and on clean shutdown.  On startup the engine recovers through
  :func:`repro.persistence.recovery.state_at`, the one reconstruction
  path ``as_of`` reads share: it restores the last snapshot and replays
  the WAL segments after it, tolerating a torn final entry, so a
  restarted engine serves exactly the pre-crash clustering.

The WAL/snapshot handshake uses stream positions rather than a side
metadata file: the snapshot stores the number of updates applied (``S``),
every WAL segment records the stream position at which it was started,
and recovery replays the segments from position ``S`` on.  A crash at any
step of a checkpoint (snapshot write, anchor write, WAL close, rotation,
new segment) leaves a layout that resolves to the accepted prefix.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.api import SNAPSHOT_CAPABLE_BACKENDS, Clusterer, make_clusterer
from repro.core.config import StrCluParams
from repro.core.dynelm import Update, UpdateKind
from repro.core.result import ViewDelta
from repro.persistence.recovery import state_at
from repro.persistence.snapshot import (
    SNAPSHOT_FILE,
    list_retained_snapshots,
    retained_snapshot_name,
    take_snapshot,
    write_durable,
)
from repro.persistence.updatelog import (
    WAL_FILE,
    UpdateLogReader,
    UpdateLogWriter,
    WalSegment,
    list_wal_segments,
    segment_file_name,
)
from repro.graph.dynamic_graph import Vertex
from repro.service.metrics import ServiceMetrics
from repro.service.obs import (
    SpanContext,
    enqueued_at,
    get_tracer,
    stamp_enqueue,
    tag_update,
    update_context,
)
from repro.service.views import ClusteringView

#: Slow-batch diagnostics (threshold-gated; see EngineConfig.slow_batch_seconds).
_LOG = logging.getLogger("repro.service.engine")

#: A patch whose dirty region exceeds this fraction of the graph's vertices
#: (and the 64-vertex floor that keeps tiny graphs incremental) falls back
#: to a full capture: beyond that point the full retrieval is cheaper.
VIEW_REBUILD_FRACTION = 0.5

#: Recently applied traced positions retained per engine for WAL serving.
_TRACE_POSITIONS_CAPACITY = 4096

#: Per-engine replication manifest: the fencing epoch and whether this
#: engine has been fenced off by a promoted standby.  Sharded engines
#: keep one per shard directory (the epoch is manifest-pinned per shard).
REPLICATION_FILE = "replication.json"
REPLICATION_FORMAT = "repro-replication-manifest"

#: Upper bound on hash partitions per engine: every shard is a maintainer
#: plus a writer thread and queues, so an unbounded request-supplied value
#: would let one tenant-create exhaust the process (threads, memory).
MAX_SHARDS = 64


class EngineError(RuntimeError):
    """Base class for engine failures."""


class EngineBackpressure(EngineError):
    """Raised when the ingest queue is full and the caller asked not to wait.

    Carries the load-shedding context a client needs to retry sensibly:
    ``queue_depth`` / ``queue_capacity`` describe how far behind the writer
    is, ``retry_after_ms`` is the engine's estimate of when a slot frees up
    (the time the writer needs to drain the backlog at its measured apply
    rate).  The HTTP layer forwards all three in its 429 body and the
    ``Retry-After`` header.
    """

    def __init__(
        self,
        message: str,
        queue_depth: int = 0,
        queue_capacity: int = 0,
        retry_after_ms: int = 0,
    ) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.queue_capacity = queue_capacity
        self.retry_after_ms = retry_after_ms


class EngineClosed(EngineError):
    """Raised when submitting to an engine that has been closed."""


class EngineFenced(EngineError):
    """Raised when submitting to an engine fenced off by a newer epoch.

    After a standby was promoted at epoch ``E`` it fences the old primary:
    the demoted engine persists ``E`` and rejects every subsequent write
    with this error (HTTP 409 ``tenant_fenced``), so a half-dead primary
    can never split-brain the stream.  Reads keep working.
    """

    def __init__(self, message: str, epoch: int = 0) -> None:
        super().__init__(message)
        self.epoch = epoch


class ReadOnlyEngineError(EngineError):
    """Raised when writing to a standby engine that was not promoted yet.

    Standby tenants replay their primary's WAL continuously and serve
    snapshot-isolated reads; direct client writes are rejected (HTTP 409
    ``tenant_read_only``) until an explicit ``promote()``.
    """


class _Flush:
    """Queue sentinel: wake the writer, apply the open batch, set the event."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class _Stop:
    """Queue sentinel: drain everything still queued, then exit the loop."""

    __slots__ = ()


def take_batch(
    q: "queue.Queue[object]", batch_size: int
) -> Tuple[List[Update], List[_Flush], bool]:
    """Collect one group-commit batch (writer and sharded router) without
    reading a clock: block for the first item, then take what is already
    queued, closing the batch at ``batch_size`` updates, at a flush marker
    or on an empty queue; after a stop marker, take everything queued."""
    batch: List[Update] = []
    flushes: List[_Flush] = []
    stop = False
    item = q.get()
    while True:
        if isinstance(item, _Stop):
            # drain the close/submit race window: a submit that passed
            # the _closed check just before close() latched it may have
            # enqueued behind the stop marker — an accepted update (or
            # flush marker) must be honoured, not dropped with the
            # consumer's exit, so now only the empty queue ends the batch
            stop = True
        elif isinstance(item, _Flush):
            # everything submitted before the marker is already in
            # `batch` (FIFO queue); close the batch so the caller's
            # wait covers exactly its prefix
            flushes.append(item)
            if not stop:
                break
        else:
            batch.append(item)
            if len(batch) >= batch_size and not stop:
                break
        try:
            item = q.get_nowait()
        except queue.Empty:
            break
    return batch, flushes, stop


def retry_hint_ms(queue_depth: int, seconds_per_update: float) -> int:
    """Backpressure retry suggestion shared by both engine shapes.

    The backlog clears in ``depth`` times the writer's measured seconds per
    applied update; before the first batch the clamp's 1 ms floor stands in
    for that cost.  The suggestion is clamped to [1 ms, 30 s].
    """
    per_update_ms = 1000.0 * seconds_per_update if seconds_per_update > 0 else 1.0
    hint = int(queue_depth * per_update_ms)
    return max(1, min(hint, 30_000))


def put_control(
    q: "queue.Queue[object]",
    item: object,
    thread: Optional[threading.Thread],
) -> bool:
    """Enqueue a control sentinel without blocking on a dead consumer.

    A writer/router that died with its queue full would otherwise hang the
    closing thread forever on a blocking put.  Returns true when the item
    was enqueued; false when the consumer thread is (or became) not alive
    — the caller just joins it and moves on.
    """
    while True:
        if thread is None or not thread.is_alive():
            return False
        try:
            q.put(item, timeout=0.1)
            return True
        except queue.Full:
            continue


def await_flush_marker(
    marker: _Flush,
    raise_failure: Callable[[], None],
    timeout: Optional[float],
) -> bool:
    """Wait for a flush marker in short slices (shared by both shapes).

    Returns true when the marker was set within ``timeout``; re-checks the
    pipeline's failure probe every slice so a writer/router death after
    the marker was enqueued surfaces instead of deadlocking.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        raise_failure()
        slice_timeout = 0.1
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            slice_timeout = min(slice_timeout, remaining)
        if marker.event.wait(slice_timeout):
            raise_failure()
            return True


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs of the ingest pipeline.

    Batching is group commit, so it needs no timer (see ``_next_batch``).

    Attributes
    ----------
    batch_size:
        Maximum updates applied per micro-batch (and per view publication).
    queue_capacity:
        Bound of the ingest queue; the backpressure horizon.
    checkpoint_every:
        Cut a checkpoint after at least this many updates since the last
        one (0 disables periodic checkpoints; one is still cut on clean
        close when a ``data_dir`` is configured).
    fsync_each_batch:
        When true the WAL is fsynced after every batch (full durability);
        when false it is flushed per entry but fsynced only at checkpoints
        and close — the usual group-commit trade-off.
    shards:
        How many hash partitions the vertex space is split into.  ``1``
        (the default) is the single-writer engine described above; ``> 1``
        selects the sharded composition
        (:class:`repro.service.sharding.ShardedEngine`) when the engine is
        built through :func:`repro.service.sharding.make_engine` or the
        tenant manager.  A :class:`ClusteringEngine` constructed directly
        ignores the field — it is a deployment-shape knob, not an inner
        engine tuning knob.
    wal_retain_segments:
        How many rotated-out WAL segments to keep on disk after a
        checkpoint (the replication horizon: a standby that lags by less
        than the retained suffix catches up by tailing; one that lags past
        it falls back to a snapshot re-seed).  ``0`` restores the
        pre-replication behaviour of discarding the outgoing segment.
    slow_batch_seconds:
        Log (WARNING) any micro-batch whose end-to-end application took at
        least this long, with the per-stage decomposition (queue wait, WAL
        append, backend apply, view publish) so the slow stage is named in
        the log line.  ``0`` disables the slow-batch log.
    """

    batch_size: int = 64
    queue_capacity: int = 4096
    checkpoint_every: int = 0
    fsync_each_batch: bool = False
    shards: int = 1
    wal_retain_segments: int = 2
    slow_batch_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if not 1 <= self.shards <= MAX_SHARDS:
            raise ValueError(f"shards must be in [1, {MAX_SHARDS}]")
        if self.wal_retain_segments < 0:
            raise ValueError("wal_retain_segments must be >= 0")
        if self.slow_batch_seconds < 0.0:
            raise ValueError("slow_batch_seconds must be >= 0")


class ClusteringEngine:
    """Single-writer clustering service with snapshot-isolated reads.

    Example
    -------
    >>> from repro import StrCluParams, Update
    >>> with ClusteringEngine(StrCluParams(epsilon=0.5, mu=2, rho=0.0)) as engine:
    ...     for update in [Update.insert(1, 2), Update.insert(2, 3),
    ...                    Update.insert(1, 3)]:
    ...         engine.submit(update)
    ...     engine.flush()
    ...     sorted(map(sorted, engine.group_by([1, 2, 3]).as_sets()))
    [[1, 2, 3]]
    """

    shard_index = 0
    num_shards = 1

    def __init__(
        self,
        params: Optional[StrCluParams] = None,
        config: Optional[EngineConfig] = None,
        data_dir: Optional[Union[str, Path]] = None,
        metrics: Optional[ServiceMetrics] = None,
        backend: str = "dynstrclu",
        label_scope: Optional[Callable[[Vertex, Vertex], bool]] = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.backend = backend.strip().lower()
        self.label_scope = label_scope
        self._queue: "queue.Queue[object]" = queue.Queue(
            maxsize=self.config.queue_capacity
        )
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._close_lock = threading.Lock()
        self._failure: Optional[BaseException] = None
        self._wal: Optional[UpdateLogWriter] = None
        self._updates_at_checkpoint = 0
        self.epoch = 0
        self._fenced = False
        # retention floor inputs (see retention_floor): time-travel pins
        # keyed by token, plus the last standby ack observed on the
        # WAL-serving route — all read by the writer thread at prune time
        # and written by serving threads, hence the dedicated lock
        self._retention_lock = threading.Lock()
        self._pins: Dict[int, int] = {}  # guarded-by: _retention_lock
        self._pin_seq = 0  # guarded-by: _retention_lock
        self._standby_ack: Optional[int] = None  # guarded-by: _retention_lock
        # stream position → trace id of recently applied *traced* updates,
        # written by the writer thread and read by the WAL-serving route —
        # the map a standby uses to re-attach trace context on replay
        self._trace_lock = threading.Lock()
        self._trace_positions: "OrderedDict[int, str]" = OrderedDict()  # guarded-by: _trace_lock

        if self.data_dir is not None:
            if self.backend not in SNAPSHOT_CAPABLE_BACKENDS:
                raise ValueError(
                    f"backend {self.backend!r} does not support durability "
                    f"(data_dir); snapshot-capable backends: "
                    f"{', '.join(sorted(SNAPSHOT_CAPABLE_BACKENDS))}"
                )
            self.data_dir.mkdir(parents=True, exist_ok=True)
            self.epoch, self._fenced = _load_replication_manifest(self.data_dir)
            self.maintainer, self.recovered_updates = state_at(
                self.data_dir,
                params=params,
                scope=label_scope,
            )
            if params is not None and self.maintainer.params != params:
                # the snapshot's params win (they determined the persisted
                # labelling); the caller must know theirs were ignored
                warnings.warn(
                    f"data_dir {self.data_dir} holds a snapshot with params "
                    f"{self.maintainer.params}, ignoring the requested {params}",
                    stacklevel=2,
                )
        else:
            if params is None:
                raise ValueError("either params or a data_dir with a snapshot is required")
            self.maintainer: Clusterer = make_clusterer(
                self.backend, params, scope=label_scope
            )
            self.recovered_updates = 0

        self.applied = self.maintainer.updates_processed
        self._updates_at_checkpoint = self.applied
        if self.data_dir is not None:
            # start a fresh WAL segment anchored at the recovered position;
            # cutting a checkpoint here folds the replayed tail into the
            # snapshot so the old segment is no longer needed
            self._checkpoint()
        # discard deltas accumulated during construction/recovery: the
        # initial publication below is a full capture of exactly that state
        self.maintainer.drain_view_delta()
        self._publish(ViewDelta.full())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ClusteringEngine":
        """Start the writer thread (idempotent)."""
        if self._closed:
            raise EngineClosed("engine is closed")
        if self._thread is None:
            self.metrics.start_clock()
            self._thread = threading.Thread(
                target=self._writer_loop, name="clustering-engine-writer", daemon=True
            )
            self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def params(self) -> StrCluParams:
        """The maintainer's parameter bundle (shared engine-shape surface)."""
        return self.maintainer.params

    @property
    def queue_depth(self) -> int:
        """Updates currently waiting in the ingest queue (approximate)."""
        return self._queue.qsize()

    @property
    def total_queue_capacity(self) -> int:
        """Upper bound of :attr:`queue_depth` (shared engine-shape surface)."""
        return self.config.queue_capacity

    @property
    def shards(self) -> List["ClusteringEngine"]:
        """The writer engines behind this tenant: just this one."""
        return [self]

    def close(self, checkpoint: bool = True) -> None:
        """Stop the writer, optionally cut a final checkpoint, close the WAL.

        Idempotent: a second call is a no-op.  The engine only counts as
        closed once everything — final checkpoint included — succeeded: if
        the checkpoint raises (disk full, permissions), the writer thread
        is restarted and the engine stays fully open, so callers that
        promised a clean failure (``EngineManager.delete``) can really
        retry the close and ingestion keeps working in the meantime.

        Serialised: a concurrent ``close()`` waits for the in-flight one
        rather than observing its half-latched state as success — if the
        first attempt fails and reverts, the second runs its own full
        attempt (this is what makes concurrent tenant deletes sound).
        """
        with self._close_lock:
            self._close_locked(checkpoint)

    def _close_locked(self, checkpoint: bool) -> None:
        if self._closed:
            return
        # latch first so new submits are rejected loudly; a submit that
        # already passed the check and lands behind the stop marker is
        # still applied by the writer's final drain (see _next_batch) —
        # between the two, an accepted update is never silently lost.
        # The flag is reverted below if the final checkpoint fails.
        self._closed = True
        was_running = self._thread is not None
        if self._thread is not None:
            put_control(self._queue, _Stop(), self._thread)
            self._thread.join()
            self._thread = None
        if checkpoint and self.data_dir is not None and self._failure is None:
            try:
                self._checkpoint()
            except BaseException:
                # reopen for business: the close did not happen
                if was_running:
                    self._thread = threading.Thread(
                        target=self._writer_loop,
                        name="clustering-engine-writer",
                        daemon=True,
                    )
                    self._thread.start()
                self._closed = False
                raise
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def kill(self) -> None:
        """Simulate a crash: stop the writer without checkpoint or WAL close.

        Used by recovery tests and chaos drills — state on disk is left
        exactly as an OS-level process kill would leave it (modulo the
        page cache, which :class:`UpdateLogWriter`'s per-append flush has
        already drained to the file).
        """
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            put_control(self._queue, _Stop(), self._thread)
            self._thread.join()
            self._thread = None
        self._wal = None  # drop the handle without fsync/close bookkeeping

    def __enter__(self) -> "ClusteringEngine":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    def submit(
        self, update: Update, block: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Enqueue one update for the writer thread.

        Vertex identifiers are canonicalised first via
        :func:`canonicalise_update` — an explicit *validation*, not a
        conversion: ints and strings pass through unchanged (``123`` and
        ``"123"`` are distinct vertices, preserved losslessly by the WAL's
        escaped token format), while identifiers the WAL cannot represent
        (booleans, non-int/str types, empty or whitespace-bearing strings)
        are rejected here instead of failing inside the writer thread.

        Raises :class:`EngineBackpressure` when the queue is full and
        ``block`` is false (or the timeout elapses), and
        :class:`EngineClosed` after :meth:`close`.  Before :meth:`start`
        the update is queued and waits there until the writer starts
        (:meth:`flush` raises until then).
        """
        if self._closed:
            raise EngineClosed("engine is closed")
        if self._fenced:
            raise EngineFenced(
                f"engine is fenced at epoch {self.epoch}: a standby was "
                "promoted; writes must go to the new primary",
                epoch=self.epoch,
            )
        self._raise_writer_failure()
        update = canonicalise_update(update)
        # trace context rides with the update (ambient span, if sampled);
        # the admission stamp feeds the queue_wait stage histogram
        tag_update(update)
        stamp_enqueue(update)
        try:
            self._queue.put(update, block=block, timeout=timeout)
        except queue.Full:
            self.metrics.add("backpressure")
            raise self.backpressure_signal() from None

    def submit_many(
        self,
        updates: Iterable[Update],
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> int:
        """Enqueue a batch; returns how many were accepted.

        On backpressure with ``block=False`` the remainder is dropped and
        the accepted prefix count returned — the server's 503 path.
        """
        accepted = 0
        for update in updates:
            try:
                self.submit(update, block=block, timeout=timeout)
            except EngineBackpressure:
                break
            accepted += 1
        return accepted

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until everything submitted before this call is applied.

        Returns true when the flush completed within ``timeout``.  Raises
        :class:`EngineError` if the writer thread has died — waiting in
        short slices rather than one long wait, so a writer failure after
        the marker was enqueued surfaces instead of deadlocking.
        """
        if self._thread is None:
            raise EngineError("engine is not running; call start() first")
        marker = _Flush()
        if not put_control(self._queue, marker, self._thread):
            self._raise_writer_failure()
            raise EngineError("engine writer is not running")
        return await_flush_marker(marker, self._raise_writer_failure, timeout)

    # ------------------------------------------------------------------
    # read path (lock-free: all reads go through the published view)
    # ------------------------------------------------------------------
    def view(self) -> ClusteringView:
        """The most recently published immutable view."""
        return self._view

    @property
    def view_version(self) -> int:
        """Version of the current view — O(1), shared engine-shape surface."""
        return self._view.version

    @property
    def published_at(self) -> float:
        """Wall-clock time this writer last published (an event timestamp)."""
        return self._view.published_at

    def cluster_of(self, v: Vertex) -> Tuple[int, ...]:
        """Cluster indices of ``v`` in the current view (timed)."""
        start = time.perf_counter()
        result = self._view.cluster_of(v)
        self.metrics.observe_query(time.perf_counter() - start)
        return result

    def group_by(self, vertices: Iterable[Vertex]):
        """Snapshot-consistent cluster-group-by over the current view."""
        start = time.perf_counter()
        view = self._view
        result = view.group_by(vertices)
        self.metrics.observe_query(time.perf_counter() - start)
        return result

    def stats(self) -> Dict[str, object]:
        """View statistics plus engine/queue/metrics counters."""
        view = self._view
        return {
            **view.stats(),
            "backend": self.backend,
            "applied": self.applied,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.config.queue_capacity,
            "recovered_updates": self.recovered_updates,
            "running": self.running,
            "epoch": self.epoch,
            "fenced": self._fenced,
            "metrics": self.metrics.snapshot(),
        }

    def backpressure_signal(self) -> EngineBackpressure:
        """Build the load-shedding signal with retry guidance attached
        (see :func:`retry_hint_ms`)."""
        depth = self.queue_depth
        config = self.config
        return EngineBackpressure(
            f"ingest queue full ({config.queue_capacity} updates)",
            queue_depth=depth,
            queue_capacity=config.queue_capacity,
            retry_after_ms=retry_hint_ms(depth, self.metrics.seconds_per_update()),
        )

    # ------------------------------------------------------------------
    # writer thread
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        stop = False
        while not stop:
            batch, flushes, stop = self._next_batch()
            try:
                if batch:
                    self._apply_batch(batch)
            except BaseException as exc:  # surface on the next submit/flush
                self._failure = exc
                stop = True
            for marker in flushes:
                marker.event.set()

    def _next_batch(self) -> Tuple[List[Update], List[_Flush], bool]:
        return take_batch(self._queue, self.config.batch_size)

    #: Span name of one traced update application; the sharded composition
    #: overrides this so router/shard hops are distinguishable in a trace.
    _APPLY_SPAN_NAME = "engine.apply"

    def _apply_batch(self, batch: List[Update]) -> None:
        start = time.perf_counter()
        applied = 0
        queued_at: Optional[float] = None
        # stage accumulators (mutated by _apply_one): wal_append, backend_apply
        stages = [0.0, 0.0]
        tracer = get_tracer()
        for update in batch:
            stamp = enqueued_at(update)
            if stamp is not None and (queued_at is None or stamp < queued_at):
                queued_at = stamp
            if not self._applicable(update):
                self.metrics.add("updates_rejected")
                continue
            context = update_context(update)
            if context is None:
                self._apply_one(update, stages)
            else:
                position = self.applied + applied
                with tracer.span(
                    self._APPLY_SPAN_NAME,
                    trace_id=context.trace_id,
                    parent_id=context.span_id,
                    shard=self.shard_index,
                    position=position,
                    op=update.kind.value,
                ):
                    self._apply_one(update, stages)
                self._note_trace(position, context)
            applied += 1
        if self._wal is not None and self.config.fsync_each_batch:
            sync_start = time.perf_counter()
            self._wal.sync()
            stages[0] += time.perf_counter() - sync_start
        self.applied += applied
        publish_elapsed = 0.0
        if applied:
            publish_start = time.perf_counter()
            self._publish_view()
            publish_elapsed = time.perf_counter() - publish_start
        elapsed = time.perf_counter() - start
        self.metrics.observe_batch(applied, elapsed)
        queue_wait = max(0.0, start - queued_at) if queued_at is not None else 0.0
        if queued_at is not None:
            self.metrics.observe_stage("queue_wait", queue_wait)
        self.metrics.observe_stage("wal_append", stages[0])
        self.metrics.observe_stage("backend_apply", stages[1])
        self.metrics.observe_stage("view_publish", publish_elapsed)
        threshold = self.config.slow_batch_seconds
        if threshold > 0.0 and elapsed >= threshold:
            self.metrics.add("slow_batches")
            _LOG.warning(
                "slow ingest batch: %d update(s) in %.3fs "
                "(queue_wait=%.3fs wal_append=%.3fs backend_apply=%.3fs "
                "view_publish=%.3fs, shard=%s)",
                applied,
                elapsed,
                queue_wait,
                stages[0],
                stages[1],
                publish_elapsed,
                self.shard_index,
            )
        if (
            self.config.checkpoint_every
            and self.data_dir is not None
            and self.applied - self._updates_at_checkpoint >= self.config.checkpoint_every
        ):
            self._checkpoint()
            self.metrics.add("checkpoints")

    def _apply_one(self, update: Update, stages: List[float]) -> None:
        """Append + apply one accepted update, accumulating stage time.

        ``stages`` is the batch's two mutable accumulators:
        ``[wal_append, backend_apply]`` elapsed seconds.
        """
        # WAL-before-apply: an accepted update is on disk before it
        # mutates the maintainer, so recovery can always finish it
        if self._wal is not None:
            wal_start = time.perf_counter()
            self._wal.append(update)
            stages[0] += time.perf_counter() - wal_start
        apply_start = time.perf_counter()
        self.maintainer.apply(update)
        stages[1] += time.perf_counter() - apply_start

    # ------------------------------------------------------------------
    # trace propagation (writer thread writes, WAL-serving threads read)
    # ------------------------------------------------------------------
    def _note_trace(self, position: int, context: SpanContext) -> None:
        with self._trace_lock:
            self._trace_positions[position] = context.trace_id
            while len(self._trace_positions) > _TRACE_POSITIONS_CAPACITY:
                self._trace_positions.popitem(last=False)

    def trace_ids(self, start: int, count: int) -> Dict[int, str]:
        """Trace ids of stream positions ``[start, start + count)``.

        Served next to the WAL records so a standby can re-attach trace
        context on replay; empty when nothing in the range was traced.
        """
        if count <= 0:
            return {}
        with self._trace_lock:
            return {
                position: trace_id
                for position, trace_id in self._trace_positions.items()
                if start <= position < start + count
            }

    def _publish_view(self) -> None:
        """Publish the state after a batch (writer thread only), timed.

        Drains the backend's :class:`~repro.core.result.ViewDelta` and
        hands it to :meth:`_publish`; the ``view_capture`` metric records
        the publication's latency, mode and flip-set size.
        """
        start = time.perf_counter()
        delta = self.maintainer.drain_view_delta()
        mode = self._publish(delta)
        self.metrics.observe_view_capture(
            time.perf_counter() - start,
            mode,
            None if delta.full_rebuild else len(delta.flips),
        )

    def _publish(self, delta: ViewDelta) -> str:
        """Publish view ``applied``; returns ``"incremental"`` or ``"full"``.

        Patches the current view from the delta's flip set; falls back to
        a full :meth:`ClusteringView.capture` when the backend cannot
        track deltas, the dirty region exceeds the rebuild threshold, or
        the persistent buckets need re-sizing.  A shard overrides this to
        publish its export instead of a view.
        """
        if not delta.full_rebuild:
            num_vertices = self.maintainer.graph.num_vertices
            view = self._view.patched(
                self.maintainer,
                delta.flips,
                version=self.applied,
                max_dirty=max(64, int(VIEW_REBUILD_FRACTION * num_vertices)),
            )
            if view is not None:
                self._view = view
                return "incremental"
        self._view = ClusteringView.capture(self.maintainer, self.applied)
        return "full"

    def _applicable(self, update: Update) -> bool:
        """Pre-validate an update against the live graph.

        The WAL must contain exactly the updates that were applied (the
        recovery arithmetic counts them), so no-op updates — inserting an
        existing edge, deleting a missing one, self-loops — are rejected
        before logging instead of failing after.
        """
        if update.u == update.v:
            return False
        has_edge = self.maintainer.graph.has_edge(update.u, update.v)
        if update.kind is UpdateKind.INSERT:
            return not has_edge
        return has_edge

    def _raise_writer_failure(self) -> None:
        if self._failure is not None:
            raise EngineError("writer thread failed") from self._failure

    # ------------------------------------------------------------------
    # replication surface (fencing + WAL shipping)
    # ------------------------------------------------------------------
    @property
    def fenced(self) -> bool:
        """True once a promoted standby fenced this engine off."""
        return self._fenced

    def fence(self, epoch: int) -> None:
        """Fence this engine at ``epoch``: reject all writes from now on.

        Called (over HTTP) by a standby about to promote itself.  The
        epoch must be strictly newer than the engine's own — a stale fence
        request from an abandoned promotion attempt must not fence a
        primary that has since been legitimately re-promoted — and is
        persisted before taking effect, so the fence survives restarts.
        """
        if epoch <= self.epoch:
            raise ValueError(
                f"stale fence epoch {epoch}: engine is already at {self.epoch}"
            )
        if self.data_dir is not None:
            _store_replication_manifest(self.data_dir, epoch, True)
        self.epoch = epoch
        self._fenced = True

    def set_epoch(self, epoch: int) -> None:
        """Adopt ``epoch`` as this engine's own (promotion path, un-fenced)."""
        if epoch < self.epoch:
            raise ValueError(
                f"epoch must not move backwards: {epoch} < {self.epoch}"
            )
        if self.data_dir is not None:
            _store_replication_manifest(self.data_dir, epoch, False)
        self.epoch = epoch
        self._fenced = False

    def replication_status(self) -> None:
        """No replication block: a plain engine is a primary."""
        return None

    @property
    def wal_position(self) -> int:
        """Logical stream position covered by the WAL (== ``applied``)."""
        return self.applied

    def wal_segments(self) -> List[WalSegment]:
        """Retained + active WAL segments, sorted by base stream position."""
        if self.data_dir is None:
            return []
        return list_wal_segments(self.data_dir, active_name=WAL_FILE)

    def read_snapshot_document(self) -> Dict[str, object]:
        """The last checkpointed snapshot document (the re-seed payload).

        Read from disk, not captured live: the maintainer belongs to the
        writer thread, while this is called from the serving thread.  A
        durable engine always has one — a checkpoint is cut at startup.
        """
        if self.data_dir is None:
            raise EngineError("engine has no data_dir; nothing to re-seed from")
        path = self.data_dir / SNAPSHOT_FILE
        return json.loads(path.read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        """Atomically persist the maintainer state and rotate the WAL."""
        assert self.data_dir is not None
        snapshot = take_snapshot(self.maintainer)
        text = snapshot.to_json(indent=2)
        write_durable(self.data_dir / SNAPSHOT_FILE, text)
        if self.config.wal_retain_segments >= 1:
            # the same document again, position-stamped: the time-travel
            # replay anchor for this checkpoint's stream position.  Every
            # retained WAL segment base thus has a matching anchor, and
            # both are pruned in lockstep (_prune_segments).
            write_durable(
                self.data_dir / retained_snapshot_name(snapshot.updates_processed),
                text,
            )
        if self._wal is not None:
            self._wal.close()  # fsyncs the outgoing segment
        self._rotate_wal_segment()
        self._wal = UpdateLogWriter(self.data_dir / WAL_FILE, base=self.applied)
        self._wal.sync()
        self._updates_at_checkpoint = self.applied

    def _rotate_wal_segment(self) -> None:
        """Retain the outgoing WAL as ``wal-<base>.log``; prune old ones.

        The retained suffix is what a lagging standby tails across a
        checkpoint without a snapshot re-seed.  A segment is only retained
        when it has entries (an empty segment covers no stream positions)
        and retention is enabled; pruning keeps the newest
        ``wal_retain_segments`` retained segments.
        """
        wal_path = self.data_dir / WAL_FILE
        if self.config.wal_retain_segments < 1 or not wal_path.exists():
            return
        if self._wal is not None:
            # the just-closed writer knows the outgoing segment's shape;
            # it wrote the file from scratch, so re-parsing it here would
            # double every checkpoint's cost for nothing
            base = self._wal.base
            entries = self._wal.entries_written
        else:
            # startup: the segment is a recovered WAL from a previous
            # process (torn tail possible) — count it from disk
            reader = UpdateLogReader(wal_path, tolerate_torn_tail=True)
            base = reader.base()
            entries = sum(1 for _update in reader)
        if entries < 1:
            return
        # repro: allow[REPRO301] rotating an already-fsynced WAL into its
        # retained segment name; the rename *is* the atomic commit here
        os.replace(wal_path, self.data_dir / segment_file_name(base))
        self._prune_segments()

    def _prune_segments(self) -> None:
        """Prune retained WAL segments (and their snapshot anchors).

        ``wal_retain_segments`` is a *ceiling*, not the only rule: a
        segment beyond the newest-N window survives while anything still
        needs it — a standby that acked a position inside it, or an
        in-flight time-travel read that pinned it
        (:meth:`retention_floor`).  Pruning goes oldest-first and stops at
        the first segment still needed, so the retained run stays
        contiguous (no gaps for :func:`read_wal_range` to trip over).

        Retained snapshot anchors are pruned in lockstep: every anchor at
        or above the oldest surviving segment base is kept, so the oldest
        replayable position is always anchored.
        """
        retained = [
            segment
            for segment in list_wal_segments(self.data_dir)
            if not segment.active
        ]
        floor = self.retention_floor()
        # a segment covers [base, next_base); it is prunable only when it
        # falls outside the newest-N count window AND nothing at or above
        # the retention floor still lives inside it
        for segment, successor in zip(
            retained[: -self.config.wal_retain_segments], retained[1:]
        ):
            if floor is not None and successor.base > floor:
                break
            segment.path.unlink(missing_ok=True)
        survivors = [
            segment
            for segment in list_wal_segments(self.data_dir)
            if not segment.active
        ]
        oldest_base = survivors[0].base if survivors else self.applied
        for anchor in list_retained_snapshots(self.data_dir):
            if anchor.position < oldest_base:
                anchor.path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # retention floor: time-travel pins + standby acks
    # ------------------------------------------------------------------
    def pin_wal(self, position: int) -> int:
        """Pin WAL retention at ``position``; returns a token for :meth:`unpin_wal`.

        While the pin is held, :meth:`_prune_segments` never discards the
        segments (or the snapshot anchor) an in-flight replay from
        ``position`` needs.  Callers must release the token in a
        ``finally`` block — a leaked pin holds segments forever.
        """
        if position < 0:
            raise ValueError(f"pin position must be >= 0, got {position}")
        with self._retention_lock:
            self._pin_seq += 1
            token = self._pin_seq
            self._pins[token] = position
        return token

    def unpin_wal(self, token: int) -> None:
        """Release a retention pin (unknown tokens are ignored)."""
        with self._retention_lock:
            self._pins.pop(token, None)

    def note_standby_ack(self, position: int) -> None:
        """Record the standby ack observed on the WAL-serving route.

        A single last-wins slot, mirroring the manager's per-shard ack
        telemetry: the shipper re-acks on every fetch, so the slot tracks
        the live standby's replay frontier.
        """
        with self._retention_lock:
            self._standby_ack = position

    def retention_floor(self) -> Optional[int]:
        """Oldest stream position WAL pruning must keep replayable.

        ``min`` over the active time-travel pins and the last standby ack;
        ``None`` (no pins, no standby seen) restores the plain
        ``wal_retain_segments`` count window.
        """
        with self._retention_lock:
            candidates = list(self._pins.values())
            if self._standby_ack is not None:
                candidates.append(self._standby_ack)
        return min(candidates) if candidates else None

    def wal_horizon(self) -> Dict[str, object]:
        """How far back this engine's history is replayable.

        The operator-facing ``as_of`` horizon: oldest retained WAL base,
        retained segment count and bytes, the current snapshot position,
        and ``oldest_replayable`` — the oldest position-stamped snapshot
        anchor, i.e. the oldest ``as_of`` the engine can still answer.
        """
        if self.data_dir is None:
            return {
                "durable": False,
                "segments": 0,
                "bytes": 0,
                "oldest_retained_base": None,
                "snapshot_position": None,
                "oldest_replayable": None,
            }
        segments = self.wal_segments()
        total_bytes = 0
        for segment in segments:
            try:
                total_bytes += segment.path.stat().st_size
            except OSError:
                continue  # pruned underneath the listing: benign race
        anchors = list_retained_snapshots(self.data_dir)
        return {
            "durable": True,
            "segments": len(segments),
            "bytes": total_bytes,
            "oldest_retained_base": segments[0].base if segments else None,
            "snapshot_position": self._updates_at_checkpoint,
            "oldest_replayable": anchors[0].position if anchors else None,
        }


def canonicalise_vertex(v: Vertex) -> Vertex:
    """Validate a vertex identifier for service ingestion (lossless).

    The canonical identifier space is exactly what the WAL token format
    can round-trip: ints, and non-empty strings without whitespace.  Ints
    and numeric strings are *distinct* vertices (``123`` ≠ ``"123"``) —
    the WAL escapes ambiguous strings, so nothing needs collapsing.
    Anything else is rejected up front with ``ValueError`` rather than
    failing asynchronously inside the writer thread.
    """
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(
            f"vertex identifiers must be ints or strings, got {v!r}"
        )
    if isinstance(v, str) and (not v or any(ch.isspace() for ch in v)):
        raise ValueError(
            f"string vertex identifier {v!r} must be non-empty and "
            "whitespace-free"
        )
    return v


def canonicalise_update(update: Update) -> Update:
    """Validate both endpoints of an update (see :func:`canonicalise_vertex`)."""
    canonicalise_vertex(update.u)
    canonicalise_vertex(update.v)
    return update


# ----------------------------------------------------------------------
# replication manifest
# ----------------------------------------------------------------------
def _load_replication_manifest(data_dir: Path) -> Tuple[int, bool]:
    """Read ``(epoch, fenced)`` from the replication manifest (0/False when absent)."""
    path = data_dir / REPLICATION_FILE
    if not path.exists():
        return 0, False
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("format") != REPLICATION_FORMAT:
        raise ValueError(f"{path} is not a replication manifest")
    return int(document.get("epoch", 0)), bool(document.get("fenced", False))


def _store_replication_manifest(data_dir: Path, epoch: int, fenced: bool) -> None:
    """Atomically persist the replication manifest (tmp + fsync + rename).

    The fence must hold across restarts — a demoted primary that forgot it
    was fenced would split-brain the stream — so the write is durable
    before the in-memory flag flips.
    """
    document = {"format": REPLICATION_FORMAT, "epoch": epoch, "fenced": fenced}
    write_durable(data_dir / REPLICATION_FILE, json.dumps(document, indent=2))
