"""Observability substrate: tracing, Prometheus exposition, profiling.

Three stdlib-only facilities the rest of the service layer plugs into:

**Tracing.**  A request is stamped with a ``trace_id`` — generated by the
server, or supplied by the client in an ``X-Repro-Trace`` header — and the
id rides *with the data* through every asynchronous hop: the dispatcher
opens an ``http.request`` span and tags each submitted
:class:`~repro.core.dynelm.Update` with the active span context
(:func:`tag_update`); the router re-tags with its own ``router.route``
span so per-shard applies nest under it; the writer thread opens an
``engine.apply`` / ``shard.apply`` span per traced update and records the
update's WAL position against the trace (:meth:`ClusteringEngine
trace_ids`); the WAL-serving route ships that position→trace map next to
the records, and the standby's replay path re-attaches it — so one
client-supplied id is observable across processes, all the way down a
standby chain.  Spans are **only** opened through the context-manager API
(:meth:`Tracer.span`) — an invariant pinned by the ``REPRO701
span-hygiene`` checker, so an exception path can never leak an unfinished
span.  Completed spans land in a bounded per-process ring (plus an
optional best-effort JSONL mirror, same discipline as the fleet decision
log) and are queryable via ``GET /v1/debug/traces`` and ``repro trace``.

Span timing uses the monotonic clocks (``time.perf_counter`` start /
duration); the single wall-clock field is the human-facing ``ts`` event
timestamp, exactly like the decision log.

**Prometheus exposition.**  :func:`render_metrics` walks an
:class:`~repro.service.manager.EngineManager` and renders every
:class:`~repro.service.metrics.LatencyHistogram` as cumulative
``_bucket`` / ``_sum`` / ``_count`` series (the factor-2 buckets are
already Prometheus-shaped), every named counter as a ``_total`` series,
and the live engine state (queue depths, applied positions, WAL horizon,
epoch/fenced, replication lag and staleness) as gauges — all labelled
``tenant`` / ``shard`` / ``role``.  :func:`parse_prometheus_text` is the
strict inverse used by the golden tests and the CI smoke.

**Profiling.**  :func:`sample_stacks` is an on-demand sampling profiler
over ``sys._current_frames()`` emitting flamegraph-ready collapsed
stacks; the server exposes it as ``GET /v1/debug/profile?seconds=N``
(executor-offloaded — it sleeps).
"""

from __future__ import annotations

import json
import random
import re
import sys
import threading
import time
import weakref
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro import __version__
from repro.service.metrics import INGEST_STAGES, LatencyHistogram

__all__ = [
    "SpanContext",
    "Tracer",
    "get_tracer",
    "configure_tracer",
    "new_trace_id",
    "current_context",
    "attach_context",
    "update_context",
    "tag_update",
    "stamp_enqueue",
    "enqueued_at",
    "register_decision_log",
    "decision_events",
    "render_metrics",
    "parse_prometheus_text",
    "Sample",
    "sample_stacks",
]

#: Completed spans retained in the per-process ring.
DEFAULT_SPAN_CAPACITY = 4096

#: Hidden attributes piggybacked on (frozen, ``__dict__``-bearing) Updates.
_CONTEXT_ATTR = "_repro_trace"
_ENQUEUE_ATTR = "_repro_enqueued"


# ----------------------------------------------------------------------
# span context propagation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpanContext:
    """The part of a span that propagates: trace id, span id, sampling.

    ``sampled=False`` marks a server-generated ambient trace (no
    ``X-Repro-Trace`` header): the request span itself is recorded, but
    updates are *not* tagged — per-update apply spans are opt-in via the
    header, which keeps the ingest hot path free of per-update span cost
    unless a trace was explicitly requested.
    """

    trace_id: str
    span_id: str
    sampled: bool = True


#: The active span of the current thread/task (contextvars are both
#: thread-local and asyncio-task-local, which is exactly the scoping a
#: request-bound span needs).
_ACTIVE: ContextVar[Optional[SpanContext]] = ContextVar(
    "repro_active_span", default=None
)


#: Draws trace and span ids: one ``getrandbits`` call per id (a ``uuid4``
#: costs ~5x more), private so that seeding the global ``random`` cannot
#: replay ids.  The ids name requests; they are not secrets.
_ID_RNG = random.Random()


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (also usable as an X-Repro-Trace value)."""
    return f"{_ID_RNG.getrandbits(64):016x}"


def _new_span_id() -> str:
    return f"{_ID_RNG.getrandbits(32):08x}"


def current_context() -> Optional[SpanContext]:
    """The active span context of this thread/task, if any."""
    return _ACTIVE.get()


def attach_context(update: object, context: SpanContext) -> None:
    """Pin ``context`` to ``update`` (overwrites any existing tag).

    ``Update`` is a frozen dataclass *without* ``__slots__``, so the tag
    lives in the instance ``__dict__`` and survives canonicalisation
    (which validates and returns the same object) and queue hops.
    """
    object.__setattr__(update, _CONTEXT_ATTR, context)


def update_context(update: object) -> Optional[SpanContext]:
    """The span context riding on ``update``, if one was attached."""
    return getattr(update, _CONTEXT_ATTR, None)


def tag_update(update: object) -> None:
    """Tag ``update`` with the ambient sampled span context.

    An existing tag always wins (the standby replay path attaches
    explicit contexts before resubmitting), and unsampled ambient spans
    do not tag at all — see :class:`SpanContext`.
    """
    if getattr(update, _CONTEXT_ATTR, None) is not None:
        return
    context = _ACTIVE.get()
    if context is not None and context.sampled:
        object.__setattr__(update, _CONTEXT_ATTR, context)


def stamp_enqueue(update: object) -> None:
    """Stamp the admission time (perf_counter) for queue-wait accounting.

    First stamp wins: a sharded update is admitted once at the router and
    re-enqueued per shard, and queue-wait means time since *admission*.
    """
    if getattr(update, _ENQUEUE_ATTR, None) is None:
        object.__setattr__(update, _ENQUEUE_ATTR, time.perf_counter())


def enqueued_at(update: object) -> Optional[float]:
    """The admission stamp of ``update`` (perf_counter), if present."""
    return getattr(update, _ENQUEUE_ATTR, None)


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
class Tracer:
    """Bounded ring of completed spans, with an optional JSONL mirror.

    Spans are recorded on *exit* of the :meth:`span` context manager —
    the only way to open one (``REPRO701``).  The ring is shared by every
    thread in the process; the JSONL mirror is best-effort append (an
    unwritable path must never take the data path down — the same
    contract as the fleet decision log).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        jsonl_path: Optional[Path] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._spans: Deque[Dict[str, object]] = deque(  # guarded-by: _lock
            maxlen=max(1, capacity)
        )
        self._jsonl_path = Path(jsonl_path) if jsonl_path else None  # guarded-by: _lock
        self._dropped = 0  # guarded-by: _lock

    # -- configuration --------------------------------------------------
    def configure(
        self,
        jsonl_path: Optional[Path] = None,
        capacity: Optional[int] = None,
    ) -> None:
        """Re-point the JSONL mirror and/or resize the ring in place."""
        with self._lock:
            if jsonl_path is not None:
                self._jsonl_path = Path(jsonl_path)
            if capacity is not None:
                self._spans = deque(self._spans, maxlen=max(1, capacity))

    @property
    def capacity(self) -> int:
        with self._lock:
            return self._spans.maxlen or 0

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring since process start."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        sampled: bool = True,
        **attrs: object,
    ) -> Iterator[SpanContext]:
        """Open a span; the **only** way to record one (``REPRO701``).

        Without an explicit ``trace_id`` the span joins the ambient trace
        (becoming a child of the active span) or starts a fresh one.
        With an explicit ``trace_id`` it joins that trace; the parent
        link is inherited from the ambient span only when the ids match,
        so cross-process parents are never fabricated.
        """
        ambient = _ACTIVE.get()
        if trace_id is None:
            trace_id = ambient.trace_id if ambient is not None else new_trace_id()
        if (
            parent_id is None
            and ambient is not None
            and ambient.trace_id == trace_id
        ):
            parent_id = ambient.span_id
        context = SpanContext(trace_id, _new_span_id(), sampled)
        record: Dict[str, object] = {
            "trace_id": context.trace_id,
            "span_id": context.span_id,
            "parent_id": parent_id,
            "name": name,
            "ts": time.time(),
            "thread": threading.current_thread().name,
            "attrs": dict(attrs),
        }
        token = _ACTIVE.set(context)
        start = time.perf_counter()
        try:
            yield context
        except BaseException as exc:
            record["attrs"]["error"] = type(exc).__name__  # type: ignore[index]
            raise
        finally:
            _ACTIVE.reset(token)
            record["duration_s"] = time.perf_counter() - start
            self._record(record)

    def _record(self, record: Dict[str, object]) -> None:
        line: Optional[str] = None
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(record)
            if self._jsonl_path is not None:
                line = json.dumps(record, sort_keys=True, default=repr)
                try:
                    with self._jsonl_path.open("a", encoding="utf-8") as handle:
                        handle.write(line + "\n")
                except OSError:
                    # the mirror must never take the data path down
                    pass

    # -- querying -------------------------------------------------------
    def spans(
        self,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """Completed spans, oldest first; optionally one trace, last N."""
        with self._lock:
            snapshot = list(self._spans)
        if trace_id is not None:
            snapshot = [s for s in snapshot if s.get("trace_id") == trace_id]
        if limit is not None and limit >= 0:
            snapshot = snapshot[-limit:]
        return snapshot

    def clear(self) -> None:
        """Drop every retained span (tests)."""
        with self._lock:
            self._spans.clear()
            self._dropped = 0


#: The per-process tracer every service component records into.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer singleton."""
    return _TRACER


def configure_tracer(
    jsonl_path: Optional[Path] = None, capacity: Optional[int] = None
) -> Tracer:
    """Configure (and return) the process-wide tracer."""
    _TRACER.configure(jsonl_path=jsonl_path, capacity=capacity)
    return _TRACER


# ----------------------------------------------------------------------
# decision-log registry (GET /v1/debug/decisions)
# ----------------------------------------------------------------------
_DECISION_LOCK = threading.Lock()
_DECISION_LOGS: "weakref.WeakSet" = weakref.WeakSet()


def register_decision_log(log: object) -> None:
    """Make a :class:`~repro.service.fleet.DecisionLog` HTTP-visible.

    Called by ``DecisionLog.__init__`` itself; the weak set means the
    registry never extends a log's lifetime.
    """
    with _DECISION_LOCK:
        _DECISION_LOGS.add(log)


def decision_events(limit: Optional[int] = None) -> List[Dict[str, object]]:
    """Merged events of every live decision log, oldest first by ``ts``."""
    with _DECISION_LOCK:
        logs = list(_DECISION_LOGS)
    events: List[Dict[str, object]] = []
    for log in logs:
        try:
            events.extend(log.events())
        except Exception:  # a dying log must not break the debug route
            continue
    events.sort(key=lambda entry: float(entry.get("ts", 0.0) or 0.0))
    if limit is not None and limit >= 0:
        events = events[-limit:]
    return events


# ----------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4)
# ----------------------------------------------------------------------
#: Every family this exporter can emit: name -> (type, help).
_FAMILIES: Dict[str, Tuple[str, str]] = {
    "repro_build_info": ("gauge", "Always 1; the version rides in the label."),
    "repro_tenants": ("gauge", "Hosted (ready) tenants."),
    "repro_ingest_latency_seconds": (
        "histogram",
        "Latency of one applied ingest micro-batch.",
    ),
    "repro_ingest_stage_seconds": (
        "histogram",
        "Per-batch time inside one ingest pipeline stage "
        "(queue_wait, wal_append, backend_apply, view_publish).",
    ),
    "repro_query_latency_seconds": ("histogram", "Latency of one read request."),
    "repro_view_capture_latency_seconds": (
        "histogram",
        "Latency of one view publication (incremental patch or full capture).",
    ),
    "repro_events_total": ("counter", "Named service events (counter snapshot)."),
    "repro_queue_depth": ("gauge", "Updates waiting in the ingest queue."),
    "repro_queue_capacity": ("gauge", "Bound of the ingest queue."),
    "repro_applied_position": ("gauge", "Applied WAL/stream position."),
    "repro_epoch": ("gauge", "Replication epoch of the tenant."),
    "repro_fenced": ("gauge", "1 when the engine is fenced (zombie primary)."),
    "repro_wal_segments": ("gauge", "Retained WAL segments."),
    "repro_wal_bytes": ("gauge", "Bytes across retained WAL segments."),
    "repro_wal_oldest_replayable": (
        "gauge",
        "Oldest position still answerable by as_of reads.",
    ),
    "repro_replication_lag": (
        "gauge",
        "Primary position minus standby position (records).",
    ),
    "repro_standby_staleness_seconds": (
        "gauge",
        "Seconds since the standby last applied a replayed record.",
    ),
    "repro_trace_spans": ("gauge", "Completed spans retained in the trace ring."),
    "repro_trace_spans_dropped_total": (
        "counter",
        "Spans evicted from the trace ring since process start.",
    ),
}


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """A float rendered the way Prometheus parsers expect (finite, terse)."""
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Dict[str, object]) -> str:
    if not labels:
        return ""
    parts = [
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in labels.items()
    ]
    return "{" + ",".join(parts) + "}"


class Exposition:
    """Accumulates samples family by family, renders text format 0.0.4.

    Families are emitted in registration (``_FAMILIES``) order, each with
    one ``# HELP`` / ``# TYPE`` header; label order is insertion order of
    the dict handed in, which callers keep fixed — the output is fully
    deterministic (the golden tests pin it).
    """

    def __init__(self) -> None:
        self._samples: Dict[str, List[str]] = {}

    def add(
        self,
        family: str,
        labels: Dict[str, object],
        value: float,
        suffix: str = "",
    ) -> None:
        if family not in _FAMILIES:
            raise ValueError(f"unknown metric family {family!r}")
        line = f"{family}{suffix}{_format_labels(labels)} {format_value(value)}"
        self._samples.setdefault(family, []).append(line)

    def histogram(
        self, family: str, labels: Dict[str, object], histogram: LatencyHistogram
    ) -> None:
        """Render one histogram as cumulative ``_bucket``/``_sum``/``_count``."""
        bounds, counts, count, total = histogram.bucket_snapshot()
        cumulative = 0
        for bound, bucket_count in zip(bounds, counts):
            cumulative += bucket_count
            self.add(
                family, {**labels, "le": format_value(bound)}, cumulative, "_bucket"
            )
        # the overflow bucket folds into +Inf, which always equals _count
        self.add(family, {**labels, "le": "+Inf"}, count, "_bucket")
        self.add(family, labels, total, "_sum")
        self.add(family, labels, count, "_count")

    def render(self) -> str:
        lines: List[str] = []
        for family, (kind, help_text) in _FAMILIES.items():
            samples = self._samples.get(family)
            if not samples:
                continue
            lines.append(f"# HELP {family} {_escape_help(help_text)}")
            lines.append(f"# TYPE {family} {kind}")
            lines.extend(samples)
        return "\n".join(lines) + "\n"


def _emit_engine(
    exposition: Exposition, labels: Dict[str, object], target: object
) -> None:
    """Histograms, counters and queue/WAL gauges of one engine."""
    metrics = target.metrics
    exposition.histogram("repro_ingest_latency_seconds", labels, metrics.ingest)
    exposition.histogram("repro_query_latency_seconds", labels, metrics.query)
    exposition.histogram(
        "repro_view_capture_latency_seconds", labels, metrics.view_capture
    )
    for stage in INGEST_STAGES:
        exposition.histogram(
            "repro_ingest_stage_seconds",
            {**labels, "stage": stage},
            metrics.ingest_stages[stage],
        )
    for event, amount in sorted(metrics.counters().items()):
        exposition.add("repro_events_total", {**labels, "event": event}, amount)
    exposition.add("repro_queue_depth", labels, target.queue_depth)
    exposition.add("repro_queue_capacity", labels, target.config.queue_capacity)
    exposition.add("repro_applied_position", labels, target.applied)
    try:
        horizon = target.wal_horizon()
    except Exception:
        horizon = None
    if horizon is not None and horizon["durable"]:
        exposition.add("repro_wal_segments", labels, int(horizon["segments"]))
        exposition.add("repro_wal_bytes", labels, int(horizon["bytes"]))
        oldest = horizon["oldest_replayable"]
        if isinstance(oldest, int):
            exposition.add("repro_wal_oldest_replayable", labels, oldest)


def render_metrics(manager: object, version: Optional[str] = None) -> str:
    """The full ``GET /metrics`` document for one engine manager.

    ``manager`` is anything with ``items() -> [(tenant, engine)]`` —
    in practice an :class:`~repro.service.manager.EngineManager`.
    """
    exposition = Exposition()
    if version is None:
        version = __version__
    exposition.add("repro_build_info", {"version": version}, 1)
    tenants = list(manager.items())
    exposition.add("repro_tenants", {}, len(tenants))
    for tenant, engine in tenants:
        status = engine.replication_status()
        role = "primary" if status is None else str(status["role"])
        rows = [(str(index), shard) for index, shard in enumerate(engine.shards)]
        if engine.num_shards > 1:
            rows.append(("router", engine))
        for shard_label, target in rows:
            _emit_engine(
                exposition,
                {"tenant": tenant, "shard": shard_label, "role": role},
                target,
            )
        tenant_labels = {"tenant": tenant, "role": role}
        exposition.add("repro_epoch", tenant_labels, engine.epoch)
        exposition.add("repro_fenced", tenant_labels, int(engine.fenced))
        if status is not None:
            exposition.add("repro_replication_lag", tenant_labels, status["lag"])
            applied_at = status.get("last_applied_at")
            if applied_at is not None:
                # staleness of a wall-clock event timestamp is itself
                # wall-clock arithmetic, by construction
                staleness = max(0.0, time.time() - applied_at)  # repro: allow[REPRO101]
                exposition.add(
                    "repro_standby_staleness_seconds", tenant_labels, staleness
                )
    tracer = get_tracer()
    exposition.add("repro_trace_spans", {}, len(tracer))
    exposition.add("repro_trace_spans_dropped_total", {}, tracer.dropped)
    return exposition.render()


# ----------------------------------------------------------------------
# exposition parsing (golden tests + CI smoke)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sample:
    """One parsed exposition sample."""

    name: str
    labels: Dict[str, str]
    value: float


_METRIC_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_LABELS_BODY_RE = re.compile(
    r'^(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*,?)?$'
)


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(token: str) -> float:
    if token == "+Inf":
        return float("inf")
    if token == "-Inf":
        return float("-inf")
    if token == "NaN":
        return float("nan")
    return float(token)  # raises ValueError on garbage — intended


def parse_prometheus_text(text: str) -> Tuple[Dict[str, str], List[Sample]]:
    """Parse (and strictly validate) exposition text.

    Returns ``(types, samples)`` where ``types`` maps family name to its
    ``# TYPE``.  Raises :class:`ValueError` on any malformed line —
    that strictness *is* the CI gate.
    """
    types: Dict[str, str] = {}
    samples: List[Sample] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in {"counter", "gauge", "histogram", "summary", "untyped"}:
                    raise ValueError(f"line {lineno}: bad TYPE {line!r}")
                types[parts[2]] = kind
            continue  # HELP and free comments pass through
        match = _METRIC_LINE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels_body = match.group("labels")
        labels: Dict[str, str] = {}
        if labels_body is not None:
            if not _LABELS_BODY_RE.match(labels_body):
                raise ValueError(f"line {lineno}: malformed labels {line!r}")
            for key, value in _LABEL_RE.findall(labels_body):
                labels[key] = _unescape_label_value(value)
        try:
            value = _parse_value(match.group("value"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value {line!r}") from exc
        samples.append(Sample(match.group("name"), labels, value))
    return types, samples


# ----------------------------------------------------------------------
# sampling profiler (GET /v1/debug/profile)
# ----------------------------------------------------------------------
def sample_stacks(
    seconds: float = 1.0, interval: float = 0.01
) -> Dict[str, object]:
    """Collapsed-stack sampling profile of every other live thread.

    Samples ``sys._current_frames()`` every ``interval`` seconds for
    ``seconds``; each sample folds into a flamegraph-ready collapsed
    stack ``thread-name;frame;frame;... count`` (root first).  The
    sampling thread itself is excluded.  Blocking by design — the server
    runs it on the executor, never the event loop.
    """
    seconds = min(max(float(seconds), 0.0), 60.0)
    interval = min(max(float(interval), 0.001), 1.0)
    own = threading.get_ident()
    counts: Dict[str, int] = {}
    samples = 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        names = {
            thread.ident: thread.name for thread in threading.enumerate()
        }
        for ident, frame in sys._current_frames().items():
            if ident == own:
                continue
            frames: List[str] = []
            while frame is not None:
                code = frame.f_code
                frames.append(f"{Path(code.co_filename).name}:{code.co_name}")
                frame = frame.f_back
            frames.reverse()
            stack = ";".join([names.get(ident, f"thread-{ident}")] + frames)
            counts[stack] = counts.get(stack, 0) + 1
        samples += 1
        time.sleep(interval)
    stacks = [
        f"{stack} {count}"
        for stack, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    return {
        "seconds": seconds,
        "interval": interval,
        "samples": samples,
        "stacks": stacks,
    }
