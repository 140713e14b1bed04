"""WAL-shipping replication: warm standby engines with promote-on-failure.

A durable tenant's WAL is an exact, ordered record of every applied update
(PR 1's WAL-before-apply discipline), which makes it a replication stream
for free.  This module turns that observation into an availability story:

* **Pull-based shipping.**  A :class:`WalShipper` (one per tenant, one per
  shard for sharded tenants) runs *next to the standby* and tails the
  primary's WAL segments over the existing stdlib HTTP stack —
  ``GET /v1/tenants/{t}/wal?from=N`` — resuming from the standby's own
  applied position.  The primary serves the requested range straight from
  its retained + active segment files
  (:func:`repro.persistence.updatelog.list_wal_segments`).
* **Positive-ack flow control.**  The shipper only advances ``from`` after
  the fetched records are applied *and locally durable* on the standby
  (they go through the standby engine's normal submit path, so they are
  WAL-logged before they mutate the replica), and every fetch carries an
  ``ack`` of that position; a standby that cannot keep up simply stops
  fetching — the primary is never asked to buffer in memory.
* **Continuous replay into a live engine.**  The :class:`StandbyEngine`
  replays into a real :class:`~repro.service.engine.ClusteringEngine` (or
  a :class:`~repro.service.sharding.ShardedEngine` with per-shard
  shippers), so views are published through the normal incremental-capture
  path and standby reads are snapshot-isolated and cheap.  Client writes
  are rejected with :class:`~repro.service.engine.ReadOnlyEngineError`
  until promotion.
* **Gap and torn-tail handling.**  When the standby lags past the
  primary's retained WAL horizon (``wal_gap``), or a retained segment is
  damaged (torn short of the next segment's base), the standby falls back
  to a **snapshot re-seed**: it discards its local state, downloads the
  primary's last checkpoint per shard and resumes tailing from there.
* **Promotion with epoch fencing.**  ``promote()`` stops the shippers
  (draining the replay queue), fences the old primary at a strictly newer
  epoch — persisted in the replication manifest on *both* sides, per
  shard for sharded tenants — and flips the standby writable.  A fenced
  primary rejects every subsequent write with
  :class:`~repro.service.engine.EngineFenced`, so a half-dead primary
  cannot split-brain the stream; fencing an unreachable (dead) primary is
  best-effort and promotion proceeds.

Consistency claim (locked in by the property suite): at every acked
position ``P``, the standby's clustering is exactly the primary's
clustering after the first ``P`` updates of the (per-shard) stream — the
replay is the same deterministic sequence through the same maintainer.
"""

from __future__ import annotations

import json
import random
import shutil
import threading
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.core.dynelm import Update
from repro.persistence.snapshot import write_durable
from repro.service.client import ServiceClient, ServiceError, parse_primary_url
from repro.service.engine import (
    SNAPSHOT_FILE,
    ClusteringEngine,
    EngineConfig,
    EngineError,
    ReadOnlyEngineError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.obs import attach_context, get_tracer
from repro.service.sharding import (
    MANIFEST_FILE,
    SHARD_DIR_FORMAT,
    AnyEngine,
    make_engine,
)

#: How many records one WAL fetch returns at most (server-side clamp too).
DEFAULT_FETCH_RECORDS = 512
MAX_FETCH_RECORDS = 4096

#: Default seconds a shipper sleeps when the primary has nothing new.
DEFAULT_POLL_INTERVAL = 0.05

#: Ceiling on the shipper's jittered error-path backoff (seconds).
DEFAULT_MAX_POLL_INTERVAL = 2.0

#: Standby-local manifest: everything needed to rebuild the standby's
#: engine when the primary is unreachable at restart (the failover case).
STANDBY_FILE = "standby.json"
STANDBY_FORMAT = "repro-standby-manifest"


class ReplicationError(EngineError):
    """Base class for replication failures."""


def backoff_delay(
    failures: int, base: float, cap: float, rng: random.Random
) -> float:
    """Jittered exponential backoff for the ``failures``-th consecutive error.

    The delay is drawn uniformly from ``[base, min(cap, base * 2**failures)]``
    — exponential growth with full jitter above the healthy poll interval.
    The jitter is the point: every shard of every standby polls a dead
    primary on its own clock, and identical fixed retry intervals would
    synchronise them into one thundering herd the moment the primary
    returns.  ``failures <= 0`` (the healthy path) is just ``base``.
    """
    if failures <= 0:
        return base
    ceiling = min(cap, base * (2 ** min(failures, 30)))
    if ceiling <= base:
        return base
    return base + rng.random() * (ceiling - base)


# ----------------------------------------------------------------------
# standby side: the shipper
# ----------------------------------------------------------------------
class WalShipper(threading.Thread):
    """Tail one (tenant, shard) WAL of the primary into the standby.

    The loop is deliberately simple: fetch from the standby's current
    position, apply through the standby's guarded apply path, repeat;
    sleep ``poll_interval`` when the primary has nothing new; on a
    reported gap or damaged segment, trigger the standby's re-seed.  All
    shared state is owned by the :class:`StandbyEngine` (the shipper holds
    no positions of its own), which is what makes re-seeds and promotion
    race-free: the standby serialises every state transition behind one
    lock and the shipper re-reads the position after each one.
    """

    def __init__(
        self,
        standby: "StandbyEngine",
        slot: int,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_records: int = DEFAULT_FETCH_RECORDS,
        max_poll_interval: float = DEFAULT_MAX_POLL_INTERVAL,
    ) -> None:
        name = f"wal-shipper-{standby.tenant}-{slot}"
        super().__init__(name=name, daemon=True)
        self.standby = standby
        self.slot = slot
        self.poll_interval = poll_interval
        self.max_poll_interval = max(poll_interval, max_poll_interval)
        self.max_records = max_records
        self.last_primary_position = 0
        self.last_error: Optional[str] = None
        self.connected = False
        self.consecutive_failures = 0
        self._rng = random.Random()
        self._stop_event = threading.Event()

    def stop(self) -> None:
        """Ask the shipper to exit after the in-flight fetch/apply."""
        self._stop_event.set()

    @property
    def stopping(self) -> bool:
        return self._stop_event.is_set()

    def _backoff(self) -> None:
        """Sleep the jittered, exponentially growing error-path delay."""
        self.consecutive_failures += 1
        self._stop_event.wait(
            backoff_delay(
                self.consecutive_failures,
                self.poll_interval,
                self.max_poll_interval,
                self._rng,
            )
        )

    def _reseed(self, reason: str) -> None:
        """Trigger a re-seed; a primary dying mid-re-seed is just a retry.

        The standby stages the download before touching local state, so a
        failure here leaves it serving its last replayed position and the
        next loop iteration tries again.
        """
        try:
            self.standby.reseed(reason=reason)
        except (OSError, ServiceError) as exc:
            self.connected = False
            self.last_error = f"re-seed failed ({reason}): {exc}"
            self._backoff()

    def run(self) -> None:
        while not self._stop_event.is_set():
            try:
                position = self.standby.position(self.slot)
                document = self.standby.fetch_wal(
                    self.slot, position, self.max_records
                )
            except ServiceError as exc:
                if exc.code == "wal_gap":
                    self.connected = True
                    self.last_error = None
                    self.consecutive_failures = 0
                    self._reseed(f"wal gap at shard {self.slot}")
                    continue
                self.connected = False
                self.last_error = f"{exc.code}: {exc}"
                self._backoff()
                continue
            except OSError as exc:
                # primary unreachable (crashed, restarting): keep retrying
                # with jittered exponential backoff — the warm standby keeps
                # serving its last replayed state, and the backoff keeps a
                # whole fleet's shippers from stampeding a returning primary
                self.connected = False
                self.last_error = str(exc)
                self._backoff()
                continue
            self.connected = True
            self.last_error = None
            self.consecutive_failures = 0
            self.last_primary_position = int(document.get("applied", 0))
            self.standby.note_epoch(int(document.get("epoch", 0)))
            if document.get("torn"):
                self._reseed(f"damaged primary segment at shard {self.slot}")
                continue
            records = document.get("records", [])
            if not records:
                self._stop_event.wait(self.poll_interval)
                continue
            try:
                updates = _decode_records(records)
                traces = _decode_traces(document.get("traces"))
                self.standby.apply_chunk(
                    self.slot, position, updates, traces=traces
                )
            except Exception as exc:
                # a malformed record, the standby's engine dying, or an
                # apply racing a re-seed (the old engine is killed under
                # it): the shipper must never die silently while the
                # stats keep reporting a healthy, lag-free standby —
                # surface the error and retry from the re-read position
                self.connected = False
                self.last_error = f"apply failed: {exc}"
                self._backoff()


def _decode_records(records: List[object]) -> List[Update]:
    """Wire records ``[[op, u, v], ...]`` → updates (lossless, validated)."""
    from repro.service.server import decode_updates

    return decode_updates({"updates": records})


def _decode_traces(raw: object) -> Optional[Dict[int, str]]:
    """Wire trace map ``{"<position>": trace_id, ...}`` → ``{int: str}``.

    Best-effort: a malformed entry (or an old primary that does not ship
    the field at all) degrades to untraced replay, never to an error.
    """
    if not isinstance(raw, dict) or not raw:
        return None
    traces: Dict[int, str] = {}
    for key, value in raw.items():
        try:
            traces[int(key)] = str(value)
        except (TypeError, ValueError):
            continue
    return traces or None


# ----------------------------------------------------------------------
# the standby engine
# ----------------------------------------------------------------------
class StandbyEngine:
    """A warm replica of one remote tenant, promotable to primary.

    Mirrors the read surface of both engine shapes (``view`` /
    ``group_by`` / ``cluster_of`` / ``stats`` plus the ``applied`` /
    ``queue_depth`` / ``running`` properties), so the tenant manager and
    the HTTP server host it unchanged; the write surface raises
    :class:`~repro.service.engine.ReadOnlyEngineError` until
    :meth:`promote` flips it.

    Construction contacts the primary: the tenant's shape (shard count,
    backend) is discovered from its headline document, and — when the
    local ``data_dir`` holds no previous standby state — the initial state
    is seeded from the primary's last checkpoint per shard.  A restarted
    standby recovers from its *own* snapshot + WAL and resumes tailing
    from its recovered position.
    """

    def __init__(
        self,
        replica_of: str,
        tenant: str,
        data_dir: Union[str, Path],
        config: Optional[EngineConfig] = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        client_factory: Optional[Callable[[], object]] = None,
    ) -> None:
        self.replica_of = replica_of
        self.tenant = tenant
        self.data_dir = Path(data_dir)
        self.poll_interval = poll_interval
        self._lock = threading.RLock()
        self._closed = False  # guarded-by: _lock
        self._promoted = False  # guarded-by: _lock
        self._promotion: Optional[Dict[str, object]] = None  # guarded-by: _lock
        self._seen_epoch = 0  # guarded-by: _lock
        self._reseeds = 0  # guarded-by: _lock
        self._reparents = 0  # guarded-by: _lock
        self._replayed_logical = 0  # guarded-by: _lock
        # last acked position per shard of *our own* downstream replicas
        # (chained standbys shipping from us): forwarded upstream so the
        # root primary's retention floor reflects the slowest leaf
        self._downstream_acks: Dict[int, int] = {}  # guarded-by: _lock

        if client_factory is None:
            client_factory = self._url_client_factory(replica_of)
        self._client_factory = client_factory
        self._client = client_factory()

        try:
            row = self._client.describe_tenant(tenant)
        except OSError as exc:
            # the primary is unreachable — exactly the situation a warm
            # standby must survive: a restart with local state falls back
            # to its own manifest (and can still be promoted); only a
            # *first* seed genuinely needs the primary
            row = self._local_manifest()
            if row is None:
                raise ReplicationError(
                    f"primary {replica_of} is unreachable and {self.data_dir} "
                    f"holds no previous standby state: {exc}"
                ) from exc
        else:
            if not row.get("durable", False):
                raise ReplicationError(
                    f"tenant {tenant!r} on {replica_of} is not durable; only "
                    "durable (WAL-backed) tenants can be replicated"
                )
            # an un-promoted standby upstream is allowed: it serves the
            # wal/snapshot routes from its own local log, so replicas can
            # chain (primary -> A -> B) to fan out a replication tree
        self.num_shards = int(row.get("shards", 1))
        self.backend = str(row.get("backend", "dynstrclu"))
        base_config = config if config is not None else EngineConfig()
        self.config = replace(base_config, shards=self.num_shards)

        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._store_local_manifest()
        if not self._has_local_state():
            self._seed_from_primary()
        self._engine = self._build_engine()
        self.recovered_updates = self._engine.recovered_updates
        self._shippers: List[WalShipper] = []
        self._spawn_shippers()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _url_client_factory(self, url: str) -> Callable[[], object]:
        """The default client factory for a primary URL (used by reparent too)."""
        host, port = parse_primary_url(url)
        tenant = self.tenant

        def factory() -> object:
            return ServiceClient(host, port, tenant=tenant)

        return factory

    def _spawn_shippers(self) -> None:
        """(Re-)create the shipper threads, one per shard (not started)."""
        self._shippers = [
            WalShipper(self, slot, poll_interval=self.poll_interval)
            for slot in range(self.num_shards)
        ]

    def _local_manifest(self) -> Optional[Dict[str, object]]:
        """The persisted shape of this standby (None when never seeded)."""
        path = self.data_dir / STANDBY_FILE
        if not path.exists():
            return None
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("format") != STANDBY_FORMAT:
            return None
        return document

    def _store_local_manifest(self) -> None:
        write_durable(
            self.data_dir / STANDBY_FILE,
            json.dumps(
                {
                    "format": STANDBY_FORMAT,
                    "replica_of": self.replica_of,
                    "tenant": self.tenant,
                    "shards": self.num_shards,
                    "backend": self.backend,
                    "durable": True,
                },
                indent=2,
            ),
        )

    def _has_local_state(self) -> bool:
        if self.num_shards == 1:
            return (self.data_dir / SNAPSHOT_FILE).exists()
        return (self.data_dir / MANIFEST_FILE).exists()

    def _shard_dir(self, slot: int) -> Path:
        if self.num_shards == 1:
            return self.data_dir
        return self.data_dir / SHARD_DIR_FORMAT.format(index=slot)

    def _fetch_seed(self) -> List[Dict[str, object]]:
        """Download the primary's last checkpoint per shard (network only).

        Kept separate from writing so a re-seed can stage the download
        *before* destroying local state — a primary that dies mid-fetch
        must leave the standby serving its last replayed state.
        """
        documents = []
        for slot in range(self.num_shards):
            document = self._client.fetch_snapshot(
                shard=slot if self.num_shards > 1 else None
            )
            self.note_epoch(int(document.get("epoch", 0)))
            documents.append(document)
        return documents

    def _write_seed(self, documents: List[Dict[str, object]]) -> None:
        # atomic (tmp + fsync + rename), like every other persisted file:
        # a crash mid-seed must leave either no snapshot (re-seeded on the
        # next start) or a whole one — a torn snapshot.json would make
        # every subsequent restart fail its recovery parse
        for slot, document in enumerate(documents):
            directory = self._shard_dir(slot)
            directory.mkdir(parents=True, exist_ok=True)
            write_durable(
                directory / SNAPSHOT_FILE,
                json.dumps(document["snapshot"], indent=2),
            )

    def _seed_from_primary(self) -> None:
        """Download and install the primary's last checkpoint per shard."""
        self._write_seed(self._fetch_seed())

    def _build_engine(self) -> AnyEngine:
        # params come from the seeded/recovered snapshots; reconcile is
        # off because a standby replays each shard's WAL verbatim and a
        # reconciliation repair would shift the position arithmetic
        return make_engine(
            params=None,
            config=self.config,
            data_dir=self.data_dir,
            backend=self.backend,
            reconcile=False,
        )

    # ------------------------------------------------------------------
    # shipper-facing surface (all state transitions behind the lock)
    # ------------------------------------------------------------------
    def position(self, slot: int) -> int:
        """The standby's applied position of one shard stream (the ack)."""
        with self._lock:
            return self._engine.shards[slot].applied

    def fetch_wal(self, slot: int, position: int, max_records: int) -> Dict[str, object]:
        """One primary fetch (kept here so the client is shared/lockable).

        The ``ack`` carried upstream is ``min(our applied position, the
        last ack of our own slowest downstream replica)`` — per-hop ack
        forwarding, so in a chain ``primary -> A -> B`` the root primary's
        retention floor reflects the slowest *leaf*, not just A.
        """
        with self._lock:
            client = self._client
            ack = position
            downstream = self._downstream_acks.get(slot)
            if downstream is not None:
                ack = min(ack, downstream)
        return client.fetch_wal(
            from_position=position,
            shard=slot if self.num_shards > 1 else None,
            max_records=max_records,
            ack=ack,
        )

    def note_downstream_ack(self, slot: int, position: int) -> None:
        """Record a chained replica's acked position for one shard.

        Called by the manager when this (un-promoted) standby serves its
        own WAL route; the recorded position is folded into the next
        upstream fetch's ``ack`` (see :meth:`fetch_wal`).  Last-wins per
        shard, mirroring the primary's own standby-ack slot.
        """
        with self._lock:
            self._downstream_acks[slot] = position

    def downstream_acks(self) -> Dict[int, int]:
        """Last acked position per shard of our downstream replicas."""
        with self._lock:
            return dict(self._downstream_acks)

    def note_epoch(self, epoch: int) -> None:
        """Remember the highest primary epoch observed on the wire."""
        with self._lock:
            if epoch > self._seen_epoch:
                self._seen_epoch = epoch

    @property
    def seen_epoch(self) -> int:
        """Highest upstream epoch observed on the wire (>= own epoch's source)."""
        with self._lock:
            return self._seen_epoch

    def apply_chunk(
        self,
        slot: int,
        start: int,
        updates: List[Update],
        traces: Optional[Dict[int, str]] = None,
    ) -> bool:
        """Apply one fetched chunk; returns false when it raced a re-seed.

        ``traces`` maps absolute stream positions (``start + offset``) to
        the trace ids the primary recorded for those updates; contiguous
        runs of the same trace replay under one ``standby.replay`` span,
        and the replayed updates carry that span's context so the local
        engine's apply spans — and any chained replica downstream — stay
        on the original trace.

        The chunk is only valid if it still begins exactly at the shard's
        current position — a re-seed (or a competing apply) in between
        invalidates it and the shipper simply re-fetches.  Records go
        through the engine's normal submit path (WAL-before-apply on the
        standby too) and the flush makes the advanced position — the next
        ack — cover only locally-durable records.

        The blocking part (submit + flush of up to a full fetch) runs
        *outside* the state lock: ``/stats`` and ``/v1/healthz`` read
        positions through that lock and must not stall behind a replay
        burst.  The races this opens are benign — promotion and close
        stop (join) this shipper before touching the engine, and a
        re-seed triggered by another shard's shipper kills the engine
        mid-apply, which surfaces as an exception the shipper's loop
        reports and retries; the killed engine's state is discarded
        wholesale, so the partial apply costs nothing.
        """
        with self._lock:
            if self._closed or self._promoted:
                return False
            if self.position(slot) != start:
                return False
            engine = self._engine
        target = engine.shards[slot]
        tracer = get_tracer()
        replayed = 0
        index = 0
        while index < len(updates):
            trace_id = traces.get(start + index) if traces else None
            end = index + 1
            while end < len(updates) and (
                (traces.get(start + end) if traces else None) == trace_id
            ):
                end += 1
            run = updates[index:end]
            if trace_id is None:
                for update in run:
                    replayed += self._replay_one(engine, target, slot, update)
            else:
                with tracer.span(
                    "standby.replay",
                    trace_id=trace_id,
                    slot=slot,
                    start=start + index,
                    count=len(run),
                ) as context:
                    for update in run:
                        attach_context(update, context)
                        replayed += self._replay_one(
                            engine, target, slot, update
                        )
            index = end
        target.flush()
        with self._lock:
            if self._engine is engine:
                self._replayed_logical += replayed
        return True

    def _replay_one(
        self, engine: AnyEngine, target: object, slot: int, update: Update
    ) -> int:
        """Submit one replayed update; returns its logical-count weight.

        A cross-shard update appears in both endpoint shards' WALs; it is
        counted once, at ``u``'s owner.
        """
        target.submit(update)
        if self.num_shards > 1 and engine._owner(update.u) == slot:
            return 1
        return 0

    def reseed(self, reason: str = "") -> None:
        """Discard local state, re-download the primary's checkpoint, rebuild.

        The fallback path for WAL gaps (standby lagged past the retained
        horizon) and damaged segments.  Serialised behind the lock; the
        published views of the *old* engine keep serving readers until the
        rebuilt engine publishes its first view — readers never observe a
        half-seeded replica.  The download is staged *before* any local
        state is destroyed, so a primary that dies mid-re-seed (raising
        here, caught by the shipper, retried later) costs nothing.
        """
        with self._lock:
            if self._closed or self._promoted:
                return
            staged = self._fetch_seed()  # may raise; local state untouched
            old = self._engine
            old.kill()
            for entry in list(self.data_dir.iterdir()):
                if entry.is_dir():
                    shutil.rmtree(entry)
                else:
                    entry.unlink()
            self._store_local_manifest()
            self._write_seed(staged)
            engine = self._build_engine()
            self._engine = engine
            self._replayed_logical = 0
            self._reseeds += 1
            engine.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "StandbyEngine":
        """Start the inner engine and (unless promoted) the shippers."""
        self._engine.start()
        if not self.promoted:
            for shipper in self._shippers:
                if not shipper.is_alive() and not shipper.stopping:
                    shipper.start()
        return self

    def close(self, checkpoint: bool = True) -> None:
        """Stop the shippers, settle the applied count, close the engine."""
        self._stop_shippers()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self.num_shards > 1:
                # fold the replayed logical count into the engine before
                # its manifest is written (see ShardedEngine.close)
                self._engine.applied = self.applied
                self._replayed_logical = 0
            self._engine.close(checkpoint=checkpoint)
        self._client.close()

    def kill(self) -> None:
        """Crash-stop: shippers down, engine killed without checkpoint."""
        self._stop_shippers()
        with self._lock:
            self._closed = True
            self._engine.kill()
        self._client.close()

    def _stop_shippers(self) -> None:
        for shipper in self._shippers:
            shipper.stop()
        for shipper in self._shippers:
            if shipper.is_alive():
                shipper.join()

    def __enter__(self) -> "StandbyEngine":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------
    @property
    def promoted(self) -> bool:
        with self._lock:
            return self._promoted

    def promote(self) -> Dict[str, object]:
        """Fence the old primary, drain the replay queue, flip writable.

        Idempotent: a second call returns the recorded promotion document.
        Fencing is *ordered before* the flip — the old primary is told to
        reject writes at the new epoch first, so even a promotion that
        crashes half-way leaves the system safe (no writer accepts): the
        demoted primary is already fenced and the standby, still
        read-only, re-runs the promotion when asked again.  An
        *unreachable* primary (the failover case) is presumed dead and
        skipped, and one whose tenant is gone has nothing left to fence —
        but a primary that is alive and **fails the fence** aborts with
        :class:`ReplicationError`: whether it refuses as stale even after
        re-fencing above its learned epoch (another standby already won
        the promotion) or errors unexpectedly (e.g. persisting the fence
        failed server-side), it may still be writable, and flipping this
        standby writable next to it would split the brain.  On abort the
        shippers are restarted and the standby keeps replicating.
        """
        with self._lock:
            if self._closed:
                raise EngineError("standby is closed")
            if self._promoted:
                return dict(self._promotion or {})
        # stop the shippers *outside* the lock: an in-flight apply_chunk
        # holds the lock and must be allowed to finish before join()
        self._stop_shippers()
        with self._lock:
            if self._promoted:
                return dict(self._promotion or {})
            new_epoch = max(self._seen_epoch, self._engine.epoch) + 1
            fenced_primary = False
            for _attempt in range(3):
                try:
                    self._client.fence_tenant(new_epoch)
                    fenced_primary = True
                    break
                except OSError:
                    break  # unreachable: presumed dead, promotion proceeds
                except ServiceError as exc:
                    if exc.code == "unknown_tenant":
                        break  # tenant gone on the primary: nothing to fence
                    if exc.code != "stale_epoch":
                        # the primary is ALIVE but the fence failed for an
                        # unexpected reason (an internal error persisting
                        # it, an unrecognised refusal): it may well still
                        # be writable, and only a *confirmed* fence — or a
                        # dead/absent primary — makes flipping this
                        # standby safe.  Abort and keep replicating.
                        self._spawn_shippers()
                        self.start()
                        raise ReplicationError(
                            f"promotion aborted: primary {self.replica_of} "
                            f"failed the fence with {exc.code!r} ({exc}); "
                            "promoting against a possibly-writable live "
                            "primary would split the brain"
                        )
                    # the primary is ALIVE and ahead of everything this
                    # standby has seen: learn its epoch and fence above it
                    try:
                        current = int(self._client.stats().get("epoch", new_epoch))
                    except (OSError, ServiceError, TypeError, ValueError):
                        current = new_epoch
                    new_epoch = max(new_epoch, current) + 1
            else:
                self._spawn_shippers()
                self.start()
                raise ReplicationError(
                    f"promotion aborted: primary {self.replica_of} is alive "
                    f"and kept refusing the fence as stale (last tried epoch "
                    f"{new_epoch}); promoting anyway would split the brain"
                )
            if self._engine.running:
                self._engine.flush()
            if self.num_shards > 1:
                self._engine.applied = self.applied
                self._replayed_logical = 0
                self._engine._rebuild_router_state()
            self._engine.set_epoch(new_epoch)
            self._promoted = True
            self._promotion = {
                "promoted": True,
                "epoch": new_epoch,
                "applied": self.applied,
                "fenced_primary": fenced_primary,
            }
            return dict(self._promotion)

    # ------------------------------------------------------------------
    # re-parenting (orphan rescue after a promotion elsewhere)
    # ------------------------------------------------------------------
    def reparent(
        self,
        replica_of: str,
        client_factory: Optional[Callable[[], object]] = None,
    ) -> Dict[str, object]:
        """Re-point this standby at a new primary, keeping its local state.

        The post-failover orphan path: when a sibling standby was promoted,
        every other replica of the dead primary re-parents onto the winner
        and resumes shipping from its *own* position — both histories are
        prefixes of the dead primary's stream, so as long as the new
        primary's log covers our position the records are identical and no
        re-seed is needed.  Two cases do force a re-seed, detected with a
        probe fetch against the new primary before shipping resumes:

        * we are **ahead** of the new primary on some shard (we replicated
          records the winner never acked): our extra suffix may diverge
          from what the winner writes next, so our state is discarded and
          re-seeded from the winner's checkpoint;
        * we are **below** the new primary's retained WAL horizon
          (``wal_gap``): the ordinary re-seed case.

        An unreachable or refusing new primary aborts with
        :class:`ReplicationError` and the standby keeps shipping from its
        previous source — the caller (typically the fleet watchdog)
        retries.  Raises for a closed or promoted standby.
        """
        if client_factory is None:
            client_factory = self._url_client_factory(replica_of)
        with self._lock:
            if self._closed:
                raise EngineError("standby is closed")
            if self._promoted:
                raise ReplicationError(
                    f"tenant {self.tenant!r} is promoted; a primary cannot "
                    "be re-parented"
                )
        # stop the shippers outside the lock (an in-flight apply_chunk
        # holds it), exactly like promote()
        self._stop_shippers()
        probe = client_factory()
        needs_reseed = False
        try:
            for slot in range(self.num_shards):
                position = self.position(slot)
                try:
                    document = probe.fetch_wal(
                        from_position=position,
                        shard=slot if self.num_shards > 1 else None,
                        max_records=1,
                        ack=position,
                    )
                except ServiceError as exc:
                    if exc.code == "wal_gap":
                        needs_reseed = True
                        continue
                    raise ReplicationError(
                        f"reparent aborted: new primary {replica_of} refused "
                        f"the probe fetch with {exc.code!r} ({exc})"
                    ) from exc
                except OSError as exc:
                    raise ReplicationError(
                        f"reparent aborted: new primary {replica_of} is "
                        f"unreachable: {exc}"
                    ) from exc
                if int(document.get("applied", 0)) < position:
                    # we replicated past the winner's acked history: the
                    # suffix we hold may diverge from its future writes
                    needs_reseed = True
        except ReplicationError:
            probe.close()
            # keep replicating from the previous source
            self._spawn_shippers()
            self.start()
            raise
        with self._lock:
            if self._closed or self._promoted:
                probe.close()
                raise ReplicationError(
                    f"tenant {self.tenant!r} changed state during reparent"
                )
            old_client = self._client
            self._client_factory = client_factory
            self._client = probe
            self.replica_of = replica_of
            self._reparents += 1
            self._store_local_manifest()
        old_client.close()
        if needs_reseed:
            try:
                self.reseed(reason=f"reparent onto {replica_of}")
            except (OSError, ServiceError) as exc:
                # the winner died between probe and re-seed: leave the
                # shippers stopped (resuming could replay a diverged
                # suffix) and report — the watchdog retries the reparent
                raise ReplicationError(
                    f"reparent onto {replica_of} needs a re-seed that "
                    f"failed: {exc}; shipping is paused until a retry"
                ) from exc
        self._spawn_shippers()
        self.start()
        return {
            "tenant": self.tenant,
            "replica_of": replica_of,
            "reseeded": needs_reseed,
        }

    # ------------------------------------------------------------------
    # engine surface (reads delegate; writes are gated on promotion)
    # ------------------------------------------------------------------
    @property
    def engine(self) -> AnyEngine:
        """The inner engine (the promoted survivor keeps using it)."""
        return self._engine

    @property
    def params(self):
        return self._engine.params

    @property
    def metrics(self) -> ServiceMetrics:
        return self._engine.metrics

    @property
    def applied(self) -> int:
        if self.num_shards == 1:
            return self._engine.applied
        with self._lock:
            return self._engine.applied + self._replayed_logical

    @property
    def shards(self) -> List[ClusteringEngine]:
        return self._engine.shards

    @property
    def queue_depth(self) -> int:
        return self._engine.queue_depth

    @property
    def total_queue_capacity(self) -> int:
        return self._engine.total_queue_capacity

    @property
    def running(self) -> bool:
        return self._engine.running

    @property
    def epoch(self) -> int:
        return self._engine.epoch

    @property
    def fenced(self) -> bool:
        return self._engine.fenced

    def fence(self, epoch: int) -> None:
        """Fence the (possibly promoted) standby — chained failover safety."""
        self._engine.fence(epoch)

    @property
    def view_version(self) -> int:
        return self._engine.view_version

    def view(self):
        return self._engine.view()

    def group_by(self, vertices):
        return self._engine.group_by(vertices)

    def cluster_of(self, v):
        return self._engine.cluster_of(v)

    def submit(self, update: Update, block: bool = True, timeout: Optional[float] = None) -> None:
        if not self.promoted:
            raise ReadOnlyEngineError(
                f"tenant {self.tenant!r} is a standby of {self.replica_of}; "
                "promote it before writing"
            )
        self._engine.submit(update, block=block, timeout=timeout)

    def submit_many(self, updates, block: bool = True, timeout: Optional[float] = None) -> int:
        if not self.promoted:
            raise ReadOnlyEngineError(
                f"tenant {self.tenant!r} is a standby of {self.replica_of}; "
                "promote it before writing"
            )
        return self._engine.submit_many(updates, block=block, timeout=timeout)

    def backpressure_signal(self):
        return self._engine.backpressure_signal()

    def flush(self, timeout: Optional[float] = None) -> bool:
        return self._engine.flush(timeout=timeout)

    def wal_horizon(self) -> Dict[str, object]:
        """The inner engine's replayable horizon (standby history is local)."""
        return self._engine.wal_horizon()

    def stats(self) -> Dict[str, object]:
        document = self._engine.stats()
        document["applied"] = self.applied
        document["replication"] = self.replication_status()
        return document

    def replication_status(self) -> Dict[str, object]:
        """The ``replication`` stats block of this tenant."""
        shards: List[Dict[str, object]] = []
        total_lag = 0
        oldest_applied_at: Optional[float] = None
        for shipper in self._shippers:
            position = self.position(shipper.slot)
            primary_position = max(shipper.last_primary_position, position)
            lag = primary_position - position
            total_lag += lag
            row: Dict[str, object] = {
                "shard": shipper.slot,
                "position": position,
                "primary_position": primary_position,
                "lag": lag,
                "connected": shipper.connected,
            }
            # wall-clock staleness: the shard writer's last publish
            # timestamp (its view's or its export's), so watchdogs and
            # routing clients don't have to infer freshness from position
            # deltas alone
            with self._lock:
                engine = self._engine
            applied_at = engine.shards[shipper.slot].published_at
            row["last_applied_at"] = applied_at
            if oldest_applied_at is None or applied_at < oldest_applied_at:
                oldest_applied_at = applied_at
            if shipper.last_error is not None:
                row["last_error"] = shipper.last_error
            shards.append(row)
        with self._lock:
            promoted = self._promoted
            seen_epoch = self._seen_epoch
            reseeds = self._reseeds
            reparents = self._reparents
        status: Dict[str, object] = {
            "role": "primary" if promoted else "standby",
            "promoted": promoted,
            "replica_of": self.replica_of,
            "epoch": self._engine.epoch,
            "primary_epoch": seen_epoch,
            "lag": total_lag,
            "reseeds": reseeds,
            "reparents": reparents,
            "shards": shards,
        }
        if oldest_applied_at is not None:
            status["last_applied_at"] = oldest_applied_at
        downstream = self.downstream_acks()
        if downstream:
            status["downstream_acks"] = {
                str(slot): position for slot, position in sorted(downstream.items())
            }
        return status
