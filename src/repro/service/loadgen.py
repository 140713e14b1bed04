"""Open-loop load generator mixing ingest and query traffic.

Drives a clustering service — either an in-process
:class:`~repro.service.engine.ClusteringEngine` or a remote server through
:class:`~repro.service.client.ServiceClient` — with the update streams from
:mod:`repro.workloads.updates` plus a configurable fraction of group-by
queries.

The generator is *open loop*: request start times are fixed on a schedule
derived from the target rate before the run begins, and a slow service does
not slow the schedule down — the generator records how far behind schedule
it fell (``max_lag_s``) and, through the engine's bounded queue, how often
ingest was shed (``rejected``).  This is the methodology that exposes
coordinated omission, which a closed loop (wait-for-response) would hide.

The schedule and every recorded duration run on the monotonic clocks
(``time.monotonic`` for the open-loop ticks, ``time.perf_counter`` for
request latencies) so a wall-clock step cannot bend the offered rate or
the histograms — an invariant pinned by ``tests/service/test_time_sources.py``.
Shed updates are *not* retried here (that would close the loop); clients
that want retry-with-backoff use ``ServiceClient.submit_updates(...,
max_retries=N)``, which honours the server's 429 hints.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Protocol, Sequence

from repro.core.dynelm import Update
from repro.graph.dynamic_graph import Vertex
from repro.service.client import BackpressureError, ServiceClient
from repro.service.engine import EngineBackpressure
from repro.service.metrics import ServiceMetrics
from repro.service.obs import new_trace_id
from repro.service.sharding import AnyEngine


class LoadTarget(Protocol):
    """What the generator needs from a service: batched ingest + group-by."""

    def submit_updates(self, updates: Sequence[Update]) -> int:
        """Returns how many updates were accepted."""
        ...

    def group_by(self, vertices: Sequence[Vertex]) -> object:
        ...


@dataclass
class EngineTarget:
    """Drive an in-process engine (either shape) directly, no HTTP."""

    engine: AnyEngine

    def submit_updates(self, updates: Sequence[Update]) -> int:
        try:
            return self.engine.submit_many(updates, block=False)
        except EngineBackpressure:  # pragma: no cover - submit_many absorbs it
            return 0

    def group_by(self, vertices: Sequence[Vertex]) -> object:
        return self.engine.group_by(vertices)


@dataclass
class ClientTarget:
    """Drive a remote server through :class:`ServiceClient`.

    With ``trace=True`` every ingest batch carries a fresh
    ``X-Repro-Trace`` id, so the server records its full pipeline
    (router → shard apply → standby replay) for later inspection via
    ``/v1/debug/traces`` — the loadgen doubles as a trace generator.
    """

    client: ServiceClient
    trace: bool = False

    def submit_updates(self, updates: Sequence[Update]) -> int:
        trace_id = new_trace_id() if self.trace else None
        try:
            return self.client.submit_updates(updates, trace_id=trace_id)
        except BackpressureError as exc:
            return exc.accepted

    def group_by(self, vertices: Sequence[Vertex]) -> object:
        return self.client.group_by(vertices)


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of the generated traffic.

    Attributes
    ----------
    rate:
        Target request rate in requests/second (each ingest request carries
        ``ingest_batch`` updates).  0 means "as fast as possible".
    ingest_batch:
        Updates per ingest request.
    query_ratio:
        Fraction of requests that are group-by queries (in [0, 1]).
    query_size:
        Vertices per group-by query.
    seed:
        RNG seed for the insert/query mixture and query-set sampling.
    vertex_prefix:
        When non-empty, every vertex identifier in the generated traffic is
        rewritten to the *string* ``f"{prefix}{v}"``.  Two generators with
        different prefixes produce disjoint vertex spaces — the isolation
        probe of the multi-tenant smoke gate (and an exercise of the
        service's lossless string-ID path).
    max_seconds:
        When > 0 the run stops after this many (monotonic) seconds even if
        updates remain — the fixed-duration probe mode of the capacity
        bench's saturation search.  0 (the default) runs the whole stream.
    loop:
        When true the update stream wraps around instead of ending, so a
        fixed-duration run at a high rate never starves; requires
        ``max_seconds > 0`` (a looped unbounded run would never finish).
    """

    rate: float = 0.0
    ingest_batch: int = 16
    query_ratio: float = 0.2
    query_size: int = 32
    seed: int = 0
    vertex_prefix: str = ""
    max_seconds: float = 0.0
    loop: bool = False

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if self.ingest_batch < 1:
            raise ValueError("ingest_batch must be >= 1")
        if not 0.0 <= self.query_ratio <= 1.0:
            raise ValueError("query_ratio must be in [0, 1]")
        if self.query_size < 1:
            raise ValueError("query_size must be >= 1")
        if any(ch.isspace() for ch in self.vertex_prefix):
            raise ValueError("vertex_prefix must be whitespace-free")
        if self.max_seconds < 0:
            raise ValueError("max_seconds must be >= 0")
        if self.loop and not self.max_seconds:
            raise ValueError("loop requires max_seconds > 0")


@dataclass
class LoadReport:
    """Outcome of one load-generation run (JSON-serialisable via as_dict)."""

    requests: int = 0
    ingest_requests: int = 0
    query_requests: int = 0
    updates_sent: int = 0
    updates_accepted: int = 0
    updates_rejected: int = 0
    wall_seconds: float = 0.0
    max_lag_s: float = 0.0
    metrics: Optional[ServiceMetrics] = None
    errors: List[str] = field(default_factory=list)

    @property
    def offered_updates_per_second(self) -> float:
        return self.updates_sent / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def accepted_updates_per_second(self) -> float:
        return self.updates_accepted / self.wall_seconds if self.wall_seconds else 0.0

    def as_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "requests": self.requests,
            "ingest_requests": self.ingest_requests,
            "query_requests": self.query_requests,
            "updates_sent": self.updates_sent,
            "updates_accepted": self.updates_accepted,
            "updates_rejected": self.updates_rejected,
            "wall_seconds": self.wall_seconds,
            "max_lag_s": self.max_lag_s,
            "offered_updates_per_second": self.offered_updates_per_second,
            "accepted_updates_per_second": self.accepted_updates_per_second,
            "errors": list(self.errors),
        }
        if self.metrics is not None:
            document["client_metrics"] = self.metrics.snapshot()
        return document


class LoadGenerator:
    """Replay an update stream against a target with mixed-in queries.

    Parameters
    ----------
    target:
        An :class:`EngineTarget`, :class:`ClientTarget` or anything
        satisfying :class:`LoadTarget`.
    updates:
        The update stream to ingest (e.g. from
        :func:`repro.workloads.updates.generate_update_sequence`); consumed
        in order, ``ingest_batch`` at a time.
    vertex_pool:
        Vertices to sample group-by query sets from; defaults to the
        endpoints seen in ``updates``.
    config:
        Traffic shape.
    """

    def __init__(
        self,
        target: LoadTarget,
        updates: Sequence[Update],
        vertex_pool: Optional[Sequence[Vertex]] = None,
        config: Optional[LoadGenConfig] = None,
    ) -> None:
        self.target = target
        self.config = config if config is not None else LoadGenConfig()
        self.updates = [
            prefix_update(u, self.config.vertex_prefix) for u in updates
        ]
        if vertex_pool is None:
            seen = {u.u for u in self.updates} | {u.v for u in self.updates}
            vertex_pool = sorted(seen, key=repr)
        else:
            vertex_pool = [
                prefix_vertex(v, self.config.vertex_prefix) for v in vertex_pool
            ]
        self.vertex_pool = list(vertex_pool)
        self.metrics = ServiceMetrics()

    def run(self) -> LoadReport:
        """Execute the run: ingest every update, interleaving queries."""
        config = self.config
        rng = random.Random(config.seed)
        report = LoadReport(metrics=self.metrics)
        self.metrics.start_clock()
        interval = 1.0 / config.rate if config.rate > 0 else 0.0
        started = time.monotonic()
        cursor = 0
        tick = 0
        while config.loop or cursor < len(self.updates):
            if config.max_seconds and time.monotonic() - started >= config.max_seconds:
                break
            if not self.updates:
                break
            if interval:
                scheduled = started + tick * interval
                now = time.monotonic()
                if now < scheduled:
                    time.sleep(scheduled - now)
                else:
                    report.max_lag_s = max(report.max_lag_s, now - scheduled)
            tick += 1
            is_query = (
                bool(self.vertex_pool) and rng.random() < config.query_ratio
            )
            try:
                if is_query:
                    self._one_query(rng)
                    report.query_requests += 1
                else:
                    cursor = self._one_ingest(cursor, report)
                    report.ingest_requests += 1
            except Exception as exc:  # keep the run alive; record the failure
                report.errors.append(f"{type(exc).__name__}: {exc}")
                if not is_query:
                    cursor += config.ingest_batch  # skip the poisoned batch
            report.requests += 1
        report.wall_seconds = time.monotonic() - started
        return report

    # ------------------------------------------------------------------
    def _one_ingest(self, cursor: int, report: LoadReport) -> int:
        if self.config.loop:
            # wrap the stream: the cursor counts sent updates, the index
            # into the stream is taken modulo its length
            start = cursor % len(self.updates)
            batch = self.updates[start : start + self.config.ingest_batch]
            if len(batch) < self.config.ingest_batch:
                batch = batch + self.updates[: self.config.ingest_batch - len(batch)]
        else:
            batch = self.updates[cursor : cursor + self.config.ingest_batch]
        start = time.perf_counter()
        accepted = self.target.submit_updates(batch)
        self.metrics.observe_batch(accepted, time.perf_counter() - start)
        report.updates_sent += len(batch)
        report.updates_accepted += accepted
        report.updates_rejected += len(batch) - accepted
        # rejected updates are shed, not retried: open-loop semantics
        return cursor + len(batch)

    def _one_query(self, rng: random.Random) -> None:
        size = min(self.config.query_size, len(self.vertex_pool))
        query = rng.sample(self.vertex_pool, size)
        start = time.perf_counter()
        self.target.group_by(query)
        self.metrics.observe_query(time.perf_counter() - start)


# ----------------------------------------------------------------------
# vertex prefixing + multi-tenant mixes
# ----------------------------------------------------------------------
def prefix_vertex(v: Vertex, prefix: str) -> Vertex:
    """Rewrite a vertex into the prefixed (string) identifier space."""
    if not prefix:
        return v
    return f"{prefix}{v}"


def prefix_update(update: Update, prefix: str) -> Update:
    """Rewrite both endpoints of an update (no-op for an empty prefix)."""
    if not prefix:
        return update
    return Update(
        update.kind, prefix_vertex(update.u, prefix), prefix_vertex(update.v, prefix)
    )


class MultiTenantLoadGenerator:
    """Drive several tenants concurrently, one open-loop generator each.

    The update stream is partitioned round-robin across tenants; every
    tenant's traffic is rewritten into its own vertex space
    (``"{tenant}:"`` prefix by default) so the workloads are disjoint by
    construction and cross-tenant leakage is detectable from the outside.

    Parameters
    ----------
    targets:
        ``tenant name → LoadTarget`` (typically :class:`ClientTarget`
        instances bound to per-tenant clients).
    updates:
        The combined stream; tenant ``i`` of ``k`` receives updates
        ``i, i+k, i+2k, ...``.
    config:
        Shared traffic shape; each tenant runs with ``seed + its index``
        and its own ``vertex_prefix`` (an explicit ``vertex_prefix`` in
        the shared config is prepended to the per-tenant one).
    """

    def __init__(
        self,
        targets: Dict[str, LoadTarget],
        updates: Sequence[Update],
        config: Optional[LoadGenConfig] = None,
    ) -> None:
        if not targets:
            raise ValueError("at least one tenant target is required")
        base = config if config is not None else LoadGenConfig()
        stream = list(updates)
        names = list(targets)
        self.generators: Dict[str, LoadGenerator] = {}
        for index, name in enumerate(names):
            tenant_config = replace(
                base,
                seed=base.seed + index,
                vertex_prefix=f"{base.vertex_prefix}{name}:",
            )
            slice_ = stream[index::len(names)]
            self.generators[name] = LoadGenerator(
                targets[name], slice_, config=tenant_config
            )

    def run(self) -> Dict[str, LoadReport]:
        """Run every tenant's generator concurrently; reports by tenant."""
        reports: Dict[str, LoadReport] = {}
        errors: List[BaseException] = []

        def _run_one(name: str, generator: LoadGenerator) -> None:
            try:
                reports[name] = generator.run()
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(
                target=_run_one, args=(name, generator), name=f"loadgen-{name}"
            )
            for name, generator in self.generators.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return reports
