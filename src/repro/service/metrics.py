"""Service metrics: latency histograms and throughput counters.

Built on :mod:`repro.instrumentation`: counts go through an
:class:`~repro.instrumentation.OpCounter`, wall-clock phases through a
:class:`~repro.instrumentation.Stopwatch`.  On top of those this module adds
the one primitive a serving layer needs that the benchmark harness does
not — a fixed-memory latency *histogram* with percentile estimation, so the
service can report p50/p90/p99 without retaining every sample.

The histogram uses exponentially growing buckets (factor 2) from 1 µs to
~137 s; percentile estimates interpolate linearly inside the winning bucket,
giving a relative error bounded by the bucket width (≤ 2×) — the standard
Prometheus-style trade-off.  All mutators take an internal lock: the
histogram is shared between the writer thread, server tasks and the load
generator.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.instrumentation import OpCounter

#: Histogram bucket upper bounds in seconds: 1 µs · 2^k, k = 0..27 (~137 s).
_BUCKET_BOUNDS: Sequence[float] = tuple(1e-6 * (2.0 ** k) for k in range(28))

#: Where non-finite / absurd samples are clamped: safely inside the overflow
#: bucket, and finite — so no inf can propagate into percentiles or JSON.
_OVERFLOW_CLAMP: float = 2.0 * _BUCKET_BOUNDS[-1]

#: The ingest pipeline stages, in data-path order: time spent queued
#: before the writer picked the batch up, appending to the WAL, applying
#: to the clustering backend, and publishing the refreshed view.  Each
#: stage gets its own histogram in :class:`ServiceMetrics` (observed once
#: per batch), decomposing the single ``ingest`` batch latency.
INGEST_STAGES: Tuple[str, ...] = (
    "queue_wait",
    "wal_append",
    "backend_apply",
    "view_publish",
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimation.

    Samples are sanitised on the way in so the exported ``/stats`` JSON is
    always strictly valid (no ``NaN`` / ``Infinity`` literals): a ``NaN``
    sample is dropped, a negative one clamps to 0, and anything above the
    top bucket bound (including ``+inf``) clamps to a finite value inside
    the overflow bucket.
    """

    __slots__ = ("_lock", "_counts", "count", "total", "max_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: List[int] = [0] * (len(_BUCKET_BOUNDS) + 1)  # guarded-by: _lock
        self.count = 0  # guarded-by: _lock
        self.total = 0.0  # guarded-by: _lock
        self.max_value = 0.0  # guarded-by: _lock

    def observe(self, seconds: float) -> None:
        """Record one latency sample (in seconds); sanitises bad samples."""
        if seconds != seconds:  # NaN: no meaningful bucket exists — drop it
            return
        if seconds < 0.0:
            seconds = 0.0
        elif seconds > _OVERFLOW_CLAMP:  # also catches +inf
            seconds = _OVERFLOW_CLAMP
        idx = bisect_left(_BUCKET_BOUNDS, seconds)
        with self._lock:
            self._counts[idx] += 1
            self.count += 1
            self.total += seconds
            if seconds > self.max_value:
                self.max_value = seconds

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (``p`` in [0, 100]).

        Pinned edge semantics:

        * an **empty** histogram returns ``0.0`` for every ``p``;
        * ``p = 0`` returns the lower edge of the first non-empty bucket
          (a lower bound on the observed minimum);
        * ``p = 100`` returns exactly ``max_value``;
        * samples in the **overflow bucket** interpolate between the top
          bucket bound and ``max_value`` — never beyond it;
        * every estimate is clamped to ``[0, max_value]``, so the result
          is always finite and never exceeds an actually observed latency.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = p / 100.0 * self.count
            seen = 0.0
            for idx, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if seen + bucket_count >= rank:
                    lower = _BUCKET_BOUNDS[idx - 1] if idx > 0 else 0.0
                    upper = (
                        _BUCKET_BOUNDS[idx]
                        if idx < len(_BUCKET_BOUNDS)
                        else self.max_value
                    )
                    upper = min(upper, self.max_value)
                    lower = min(lower, upper)
                    fraction = (rank - seen) / bucket_count
                    return lower + (upper - lower) * max(0.0, min(1.0, fraction))
                seen += bucket_count
            return self.max_value

    def summary(self) -> Dict[str, float]:
        """JSON-serialisable digest: count, mean, p50/p90/p99, max.

        ``count`` / ``mean_s`` / ``max_s`` come from one locked snapshot,
        so a concurrent ``observe`` can never produce a torn pair (a
        count that includes a sample whose latency the mean excludes).
        The percentiles each take the lock again — a sample landing
        between reads shifts an estimate, which is inherent to serving
        live percentiles, but every individual figure is self-consistent.
        """
        with self._lock:
            count = self.count
            total = self.total
            max_value = self.max_value
        return {
            "count": count,
            "mean_s": total / count if count else 0.0,
            "p50_s": self.percentile(50.0),
            "p90_s": self.percentile(90.0),
            "p99_s": self.percentile(99.0),
            "max_s": max_value,
        }

    def bucket_snapshot(self) -> "Tuple[Sequence[float], List[int], int, float]":
        """One locked snapshot for exporters: bounds, counts, count, total.

        ``counts`` is the raw (non-cumulative) per-bucket tally including
        the trailing overflow bucket, so ``sum(counts) == count`` holds
        exactly — the invariant the Prometheus renderer's ``+Inf`` bucket
        relies on.
        """
        with self._lock:
            return _BUCKET_BOUNDS, list(self._counts), self.count, self.total

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one.

        Used by the multi-tenant aggregation path: per-tenant histograms
        stay independent, and a fleet-wide percentile view is produced by
        merging copies on demand (bucket counts are additive).
        """
        with other._lock:
            counts = list(other._counts)
            count = other.count
            total = other.total
            max_value = other.max_value
        with self._lock:
            for idx, bucket_count in enumerate(counts):
                self._counts[idx] += bucket_count
            self.count += count
            self.total += total
            if max_value > self.max_value:
                self.max_value = max_value


class ServiceMetrics:
    """Aggregated ingest/query metrics for one engine or load generator.

    * ``ingest`` — latency of one micro-batch application (WAL append +
      maintainer updates + view publication), observed by the writer thread;
    * ``query`` — latency of one read (group-by / cluster-of / stats);
    * ``view_capture`` — latency of one view publication (incremental patch
      or full capture), plus flip-set-size statistics and the
      ``view_capture_incremental`` / ``view_capture_full`` counters;
    * named counters — ``updates_applied``, ``updates_rejected``,
      ``batches``, ``queries``, ``checkpoints``, ``backpressure`` …

    All elapsed-time inputs come from the monotonic clocks
    (``time.monotonic`` / ``time.perf_counter``) — wall-clock time is never
    part of duration arithmetic anywhere in the service layer.
    """

    def __init__(self) -> None:
        self.ingest = LatencyHistogram()
        self.query = LatencyHistogram()
        self.view_capture = LatencyHistogram()
        self.ingest_stages: Dict[str, LatencyHistogram] = {
            stage: LatencyHistogram() for stage in INGEST_STAGES
        }
        self.counter = OpCounter()
        self._lock = threading.Lock()
        self._started_at: Optional[float] = None  # guarded-by: _lock
        self._flip_count = 0  # guarded-by: _lock
        self._flip_total = 0  # guarded-by: _lock
        self._flip_max = 0  # guarded-by: _lock
        self._flip_last = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    def start_clock(self) -> None:
        """Mark the beginning of the serving window (for throughput rates)."""
        with self._lock:
            if self._started_at is None:
                self._started_at = time.monotonic()

    def elapsed(self) -> float:
        """Seconds since :meth:`start_clock` (0 when never started)."""
        with self._lock:
            if self._started_at is None:
                return 0.0
            return time.monotonic() - self._started_at

    def add(self, name: str, amount: int = 1) -> None:
        """Increment a named counter (thread-safe)."""
        with self._lock:
            self.counter.add(name, amount)

    def get(self, name: str) -> int:
        with self._lock:
            return self.counter.get(name)

    def counters(self) -> Dict[str, int]:
        """One locked snapshot of every named counter (for exporters)."""
        with self._lock:
            return dict(self.counter.snapshot())

    # ------------------------------------------------------------------
    def observe_batch(self, num_updates: int, seconds: float) -> None:
        """Record one applied micro-batch."""
        self.ingest.observe(seconds)
        self.add("batches")
        self.add("updates_applied", num_updates)

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Record one batch's time inside one ingest pipeline stage."""
        self.ingest_stages[stage].observe(seconds)

    def observe_query(self, seconds: float) -> None:
        """Record one read-path request."""
        self.query.observe(seconds)
        self.add("queries")

    def observe_view_capture(
        self, seconds: float, mode: str, flip_set_size: Optional[int] = None
    ) -> None:
        """Record one view publication.

        ``mode`` is ``"incremental"`` (patched from the flip set) or
        ``"full"`` (complete re-capture); ``flip_set_size`` is ``|F|`` as
        drained from the backend, when the backend tracked one.
        """
        self.view_capture.observe(seconds)
        self.add(f"view_capture_{mode}")
        if flip_set_size is not None:
            with self._lock:
                self._flip_count += 1
                self._flip_total += flip_set_size
                self._flip_last = flip_set_size
                if flip_set_size > self._flip_max:
                    self._flip_max = flip_set_size

    def flip_set_stats(self) -> Dict[str, float]:
        """Aggregate statistics of the drained flip-set sizes.

        ``last`` is a per-engine notion (the most recent batch's ``|F|``);
        fleet-wide merges keep the additive fields and leave it at 0.
        """
        with self._lock:
            count = self._flip_count
            return {
                "count": count,
                "total": self._flip_total,
                "mean": (self._flip_total / count) if count else 0.0,
                "max": self._flip_max,
                "last": self._flip_last,
            }

    def view_capture_summary(self) -> Dict[str, object]:
        """The ``view_capture`` stats document: histogram + flip-set stats."""
        return {
            **self.view_capture.summary(),
            "flip_set_size": self.flip_set_stats(),
        }

    # ------------------------------------------------------------------
    def updates_per_second(self) -> float:
        """Ingest throughput over the serving window so far."""
        elapsed = self.elapsed()
        if elapsed <= 0.0:
            return 0.0
        return self.get("updates_applied") / elapsed

    def seconds_per_update(self) -> float:
        """Measured writer cost: ingest seconds per applied update (0 before any)."""
        applied = self.get("updates_applied")
        return self.ingest.bucket_snapshot()[3] / applied if applied else 0.0

    def snapshot(self) -> Dict[str, object]:
        """One JSON-serialisable document with every metric."""
        with self._lock:
            counters = self.counter.snapshot()
        return {
            "elapsed_s": self.elapsed(),
            "updates_per_second": self.updates_per_second(),
            "counters": counters,
            "ingest": self.ingest.summary(),
            "ingest_stages": {
                stage: histogram.summary()
                for stage, histogram in self.ingest_stages.items()
            },
            "query": self.query.summary(),
            "view_capture": self.view_capture_summary(),
        }

    @classmethod
    def merged(cls, all_metrics: Iterable["ServiceMetrics"]) -> "ServiceMetrics":
        """Fleet-wide aggregate of several tenants' metrics (a fresh copy).

        Histogram buckets and counters are additive; the serving-window
        clock is left unset (rates are per-tenant concepts — callers read
        the merged histograms and counters, not ``updates_per_second``).
        """
        merged = cls()
        for metrics in all_metrics:
            merged.ingest.merge(metrics.ingest)
            merged.query.merge(metrics.query)
            merged.view_capture.merge(metrics.view_capture)
            for stage in INGEST_STAGES:
                merged.ingest_stages[stage].merge(metrics.ingest_stages[stage])
            flips = metrics.flip_set_stats()
            with metrics._lock:
                counters = metrics.counter.snapshot()
            with merged._lock:
                # additive fields only: "last" has no meaningful fleet-wide
                # aggregate (per-tenant recency is lost), so it stays 0
                merged._flip_count += int(flips["count"])
                merged._flip_total += int(flips["total"])
                merged._flip_max = max(merged._flip_max, int(flips["max"]))
            for name, amount in counters.items():
                merged.add(name, amount)
        return merged
