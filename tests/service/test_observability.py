"""Observability tests: tracing, Prometheus exposition, debug routes.

Covers the tracer's ring/propagation semantics, the ``/metrics``
exposition writer pinned against golden text and its own strict parser
(escaping, label ordering, bucket cumulativity, ``+Inf == _count``), a
hypothesis property tying scraped bucket counts to the histogram's raw
tallies, and the end-to-end acceptance path: one client-supplied
``X-Repro-Trace`` id observable across router → shard apply → standby
replay on both 1-shard and 4-shard replicated tenants.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.service import obs
from repro.service.client import ServiceClient
from repro.service.engine import EngineConfig
from repro.service.fleet import DecisionLog
from repro.service.manager import EngineManager
from repro.service.metrics import LatencyHistogram
from repro.service.obs import (
    SpanContext,
    Tracer,
    attach_context,
    enqueued_at,
    new_trace_id,
    parse_prometheus_text,
    render_metrics,
    stamp_enqueue,
    tag_update,
    update_context,
)
from repro.service.server import BackgroundServer

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
FAST = EngineConfig(batch_size=8)


# ----------------------------------------------------------------------
# tracer semantics
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_on_exit_with_duration(self):
        tracer = Tracer(capacity=8)
        with tracer.span("work", answer=42) as context:
            assert context.trace_id and context.span_id
        (record,) = tracer.spans()
        assert record["name"] == "work"
        assert record["trace_id"] == context.trace_id
        assert record["attrs"] == {"answer": 42}
        assert record["duration_s"] >= 0.0

    def test_ring_is_bounded_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for index in range(6):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer) == 4
        assert tracer.dropped == 2
        assert [s["name"] for s in tracer.spans()] == ["s2", "s3", "s4", "s5"]

    def test_child_joins_ambient_trace_with_parent_link(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                assert child.trace_id == parent.trace_id
        child_record, = [s for s in tracer.spans() if s["name"] == "child"]
        assert child_record["parent_id"] == parent.span_id

    def test_foreign_trace_id_never_fabricates_a_parent(self):
        tracer = Tracer()
        with tracer.span("ambient"):
            with tracer.span("foreign", trace_id="f00dfeedf00dfeed"):
                pass
        foreign, = [s for s in tracer.spans() if s["name"] == "foreign"]
        assert foreign["trace_id"] == "f00dfeedf00dfeed"
        assert foreign["parent_id"] is None

    def test_exception_path_closes_the_span_and_tags_the_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = tracer.spans()
        assert record["attrs"]["error"] == "RuntimeError"

    def test_jsonl_mirror_appends_one_line_per_span(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(jsonl_path=path)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_clear_resets_ring_and_drop_counter(self):
        tracer = Tracer(capacity=1)
        for _ in range(3):
            with tracer.span("x"):
                pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_spans_filter_by_trace_and_limit(self):
        tracer = Tracer()
        with tracer.span("mine", trace_id="aaaa000011112222"):
            pass
        with tracer.span("other"):
            pass
        mine = tracer.spans(trace_id="aaaa000011112222")
        assert [s["name"] for s in mine] == ["mine"]
        assert len(tracer.spans(limit=1)) == 1


class TestUpdateTagging:
    def test_tag_update_requires_a_sampled_ambient_span(self):
        tracer = Tracer()
        update = Update.insert(1, 2)
        tag_update(update)  # no ambient span: no tag
        assert update_context(update) is None
        with tracer.span("unsampled", sampled=False):
            tag_update(update)
        assert update_context(update) is None
        with tracer.span("sampled") as context:
            tag_update(update)
        assert update_context(update) == context

    def test_existing_tag_and_enqueue_stamp_win(self):
        update = Update.insert(1, 2)
        pinned = SpanContext("1111222233334444", "abcd0123")
        attach_context(update, pinned)
        tracer = Tracer()
        with tracer.span("later"):
            tag_update(update)
        assert update_context(update) == pinned
        stamp_enqueue(update)
        first = enqueued_at(update)
        stamp_enqueue(update)
        assert enqueued_at(update) == first


# ----------------------------------------------------------------------
# exposition writer: golden text + format invariants
# ----------------------------------------------------------------------
class _EmptyManager:
    def items(self):
        return []


GOLDEN_EMPTY = """\
# HELP repro_build_info Always 1; the version rides in the label.
# TYPE repro_build_info gauge
repro_build_info{version="test"} 1
# HELP repro_tenants Hosted (ready) tenants.
# TYPE repro_tenants gauge
repro_tenants 0
# HELP repro_trace_spans Completed spans retained in the trace ring.
# TYPE repro_trace_spans gauge
repro_trace_spans 0
# HELP repro_trace_spans_dropped_total Spans evicted from the trace ring since process start.
# TYPE repro_trace_spans_dropped_total counter
repro_trace_spans_dropped_total 0
"""


class TestExpositionFormat:
    def test_golden_empty_manager(self):
        obs.get_tracer().clear()
        assert render_metrics(_EmptyManager(), version="test") == GOLDEN_EMPTY

    def test_label_escaping_round_trips(self):
        hostile = 'quote:" backslash:\\ newline:\n done'
        exposition = obs.Exposition()
        exposition.add("repro_build_info", {"version": hostile}, 1)
        _types, samples = parse_prometheus_text(exposition.render())
        (sample,) = samples
        assert sample.labels["version"] == hostile

    def test_label_order_is_insertion_order_and_deterministic(self):
        exposition = obs.Exposition()
        exposition.add(
            "repro_queue_depth", {"tenant": "t", "shard": "0", "role": "primary"}, 3
        )
        text = exposition.render()
        assert 'repro_queue_depth{tenant="t",shard="0",role="primary"} 3' in text
        assert text == exposition.render()  # rendering is pure

    def test_histogram_buckets_are_cumulative_and_inf_equals_count(self):
        histogram = LatencyHistogram()
        for seconds in (1e-6, 3e-6, 0.5, 1e9):  # first, middle, overflow
            histogram.observe(seconds)
        exposition = obs.Exposition()
        exposition.histogram("repro_query_latency_seconds", {"tenant": "t"}, histogram)
        types, samples = parse_prometheus_text(exposition.render())
        assert types["repro_query_latency_seconds"] == "histogram"
        buckets = [s for s in samples if s.name.endswith("_bucket")]
        values = [s.value for s in buckets]
        assert values == sorted(values)  # cumulative: non-decreasing
        assert buckets[-1].labels["le"] == "+Inf"
        (count,) = [s for s in samples if s.name.endswith("_count")]
        assert buckets[-1].value == count.value == 4
        (total,) = [s for s in samples if s.name.endswith("_sum")]
        assert total.value == pytest.approx(histogram.total)

    def test_format_value_is_terse_and_parseable(self):
        assert obs.format_value(1.0) == "1"
        assert obs.format_value(float("inf")) == "+Inf"
        assert obs.format_value(2e-6) == "2e-06"
        assert obs._parse_value("+Inf") == float("inf")

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_tenants oops\n")
        with pytest.raises(ValueError):
            parse_prometheus_text('repro_tenants{tenant=t} 1\n')
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE repro_tenants flavour\n")

    def test_unknown_family_is_a_programming_error(self):
        with pytest.raises(ValueError):
            obs.Exposition().add("not_a_family", {}, 1)


class TestExpositionProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            max_size=50,
        )
    )
    def test_scraped_buckets_equal_prefix_sums_of_raw_tallies(self, observations):
        histogram = LatencyHistogram()
        for seconds in observations:
            histogram.observe(seconds)
        exposition = obs.Exposition()
        exposition.histogram(
            "repro_ingest_latency_seconds", {"tenant": "t"}, histogram
        )
        _types, samples = parse_prometheus_text(exposition.render())
        bounds, counts, count, total = histogram.bucket_snapshot()
        buckets = [s for s in samples if s.name.endswith("_bucket")]
        finite = [s for s in buckets if s.labels["le"] != "+Inf"]
        assert len(finite) == len(bounds)
        prefix_sums = list(itertools.accumulate(counts[: len(bounds)]))
        assert [int(s.value) for s in finite] == prefix_sums
        (inf,) = [s for s in buckets if s.labels["le"] == "+Inf"]
        assert inf.value == count == len(observations)
        (scraped_sum,) = [s for s in samples if s.name.endswith("_sum")]
        assert scraped_sum.value == pytest.approx(total)


class TestHistogramSummary:
    def test_summary_count_mean_max_come_from_one_snapshot(self):
        histogram = LatencyHistogram()
        stop = threading.Event()

        def writer():
            value = 0
            while not stop.is_set():
                histogram.observe(0.001 * ((value % 10) + 1))
                value += 1

        thread = threading.Thread(target=writer, name="summary-writer")
        thread.start()
        try:
            for _ in range(300):
                digest = histogram.summary()
                count, mean = digest["count"], digest["mean_s"]
                if count:
                    # a torn (count, total) pair would put the mean outside
                    # the observed value range
                    assert 0.001 <= mean <= 0.010 + 1e-12
                    assert digest["max_s"] <= 0.010 + 1e-12
        finally:
            stop.set()
            thread.join()


# ----------------------------------------------------------------------
# end-to-end: X-Repro-Trace across router → shard apply → standby replay
# ----------------------------------------------------------------------
def _replicated_stack(tmp_path, shards):
    """(primary manager+server+client, replica manager+server+client)."""
    primary = EngineManager(
        PARAMS,
        default_engine_config=FAST,
        data_root=tmp_path / "primary",
        create_default=False,
    )
    primary.create("t", shards=shards)
    replica = EngineManager(
        PARAMS,
        default_engine_config=FAST,
        data_root=tmp_path / "replica",
        create_default=False,
    )
    return primary, replica


def _wait_for_span(client, trace_id, name, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        spans = client.debug_traces(trace_id=trace_id)["spans"]
        if any(span["name"] == name for span in spans):
            return spans
        time.sleep(0.05)
    raise AssertionError(
        f"span {name!r} for trace {trace_id} never appeared; have "
        f"{[s['name'] for s in client.debug_traces(trace_id=trace_id)['spans']]}"
    )


@pytest.mark.parametrize(
    "shards, apply_span, expect_router",
    [(1, "engine.apply", False), (4, "shard.apply", True)],
)
def test_trace_id_spans_router_shard_and_standby(
    tmp_path, shards, apply_span, expect_router
):
    obs.get_tracer().clear()
    primary, replica = _replicated_stack(tmp_path, shards)
    trace_id = new_trace_id()
    updates = [Update.insert(i, i + 1) for i in range(12)]
    with primary, replica:
        with BackgroundServer(primary) as primary_server:
            client = ServiceClient("127.0.0.1", primary_server.port, tenant="t")
            with BackgroundServer(replica) as replica_server:
                admin = ServiceClient("127.0.0.1", replica_server.port)
                admin.create_tenant(
                    "t", replica_of=f"127.0.0.1:{primary_server.port}"
                )
                accepted = client.submit_updates(updates, trace_id=trace_id)
                assert accepted == len(updates)
                primary.get("t").flush()
                spans = _wait_for_span(client, trace_id, "standby.replay")
                names = {span["name"] for span in spans}
                assert "http.request" in names
                assert apply_span in names
                assert ("router.route" in names) is expect_router
                assert {span["trace_id"] for span in spans} == {trace_id}
                # the apply spans carry shard + WAL position attributes
                applies = [s for s in spans if s["name"] == apply_span]
                assert applies and all(
                    "position" in s["attrs"] for s in applies
                )
                if expect_router:
                    touched = {s["attrs"]["shard"] for s in applies}
                    assert len(touched) > 1  # the batch crossed shards
                admin.close()
            client.close()


# ----------------------------------------------------------------------
# one /metrics + /topology contract over every tenant-engine shape
# ----------------------------------------------------------------------
#: shape -> (primary shard count, replicate?, promote the standby?)
ENGINE_SHAPES = {
    "primary": (1, False, False),
    "primary-4": (4, False, False),
    "standby": (1, True, False),
    "standby-2": (2, True, False),
    "promoted": (1, True, True),
}


def _wait(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.02)
    return predicate()


@pytest.mark.parametrize("shape", list(ENGINE_SHAPES))
def test_engine_shape_surface(tmp_path, shape):
    shards, replicate, promote = ENGINE_SHAPES[shape]
    primary, replica = _replicated_stack(tmp_path, shards)
    updates = [Update.insert(i, i + 1) for i in range(40)]
    with primary, replica, BackgroundServer(primary) as primary_server:
        primary.get("t").submit_many(updates)
        primary.get("t").flush()
        manager = primary
        if replicate:
            replica.create("t", replica_of=f"127.0.0.1:{primary_server.port}")
            standby = replica.get("t")
            assert _wait(lambda: standby.applied == len(updates))
            if promote:
                replica.promote("t")
            manager = replica
        engine = manager.get("t")
        inner = engine.engine if replicate else engine
        writers = inner.shards if shards > 1 else [inner]
        with BackgroundServer(manager) as server:
            client = ServiceClient("127.0.0.1", server.port, tenant="t")
            _types, samples = parse_prometheus_text(client.metrics_text())
            topology = client.topology()
            client.close()
    rows = [s for s in samples if s.labels.get("tenant") == "t"]
    role = "standby" if replicate and not promote else "primary"
    assert {s.labels["role"] for s in rows} == {role}
    applied = {
        s.labels["shard"]: s.value
        for s in rows
        if s.name == "repro_applied_position"
    }
    expected_labels = {str(index) for index in range(shards)}
    if shards > 1:
        expected_labels.add("router")
        # the router row is the tenant's front engine: its position is
        # the tenant's, also on a standby that replays into the shards
        assert applied["router"] == engine.applied == len(updates)
    assert set(applied) == expected_labels
    for index, writer in enumerate(writers):
        assert applied[str(index)] == writer.applied

    def tenant_gauge(name):
        return [s.value for s in rows if s.name == name]

    assert tenant_gauge("repro_epoch") == [1 if promote else 0]
    assert tenant_gauge("repro_fenced") == [0]
    assert len(tenant_gauge("repro_replication_lag")) == (1 if replicate else 0)
    assert [
        (row["shard"], row["position"]) for row in topology["shard_positions"]
    ] == [(index, writer.applied) for index, writer in enumerate(writers)]


def test_untraced_requests_do_not_record_apply_spans(tmp_path):
    obs.get_tracer().clear()
    manager = EngineManager(
        PARAMS, default_engine_config=FAST, data_root=tmp_path, create_default=False
    )
    manager.create("t")
    with manager, BackgroundServer(manager) as server:
        client = ServiceClient("127.0.0.1", server.port, tenant="t")
        client.submit_updates([Update.insert(1, 2)])
        manager.get("t").flush()
        time.sleep(0.1)
        names = {
            span["name"] for span in client.debug_traces(limit=1000)["spans"]
        }
        assert "http.request" in names  # every request gets one span
        assert "engine.apply" not in names  # per-update spans are opt-in
        client.close()


# ----------------------------------------------------------------------
# HTTP surface: /metrics, header echo, debug routes
# ----------------------------------------------------------------------
@pytest.fixture
def served(tmp_path):
    manager = EngineManager(
        PARAMS,
        default_engine_config=FAST,
        data_root=tmp_path,
        create_default=False,
    )
    manager.create("t", shards=4)
    with manager, BackgroundServer(manager) as server:
        client = ServiceClient("127.0.0.1", server.port, tenant="t")
        yield manager, server, client
        client.close()


def _raw(server, method, path, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
    connection.request(method, path, headers=headers or {})
    response = connection.getresponse()
    raw = response.read()
    result = response.status, dict(response.getheaders()), raw
    connection.close()
    return result


class TestHttpSurface:
    def test_metrics_route_serves_valid_exposition(self, served):
        _manager, server, client = served
        client.submit_updates([Update.insert(i, i + 1) for i in range(8)])
        client.group_by([1, 2])
        _manager.get("t").flush()
        status, headers, raw = _raw(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        types, samples = parse_prometheus_text(raw.decode("utf-8"))
        assert types["repro_ingest_latency_seconds"] == "histogram"
        counts = {
            s.labels["shard"]: s.value
            for s in samples
            if s.name == "repro_ingest_latency_seconds_count"
            and s.labels["tenant"] == "t"
        }
        assert set(counts) == {"0", "1", "2", "3", "router"}
        assert sum(counts.values()) > 0
        stage_rows = [
            s for s in samples if s.name == "repro_ingest_stage_seconds_count"
        ]
        assert {s.labels["stage"] for s in stage_rows} == {
            "queue_wait", "wal_append", "backend_apply", "view_publish",
        }
        # the client helper scrapes the same document (re-parsed, since a
        # second scrape may observe newer samples)
        parse_prometheus_text(client.metrics_text())

    def test_trace_header_is_echoed_and_invalid_values_are_replaced(self, served):
        _manager, server, _client = served
        status, headers, _ = _raw(
            server, "GET", "/v1/healthz", {"X-Repro-Trace": "cafe0123cafe0123"}
        )
        assert status == 200
        assert headers["X-Repro-Trace"] == "cafe0123cafe0123"
        _status, headers, _ = _raw(
            server, "GET", "/v1/healthz", {"X-Repro-Trace": 'bad "value"\x01' + "x" * 80}
        )
        minted = headers["X-Repro-Trace"]
        assert minted and "bad" not in minted and len(minted) == 16

    def test_debug_traces_filters_and_validates(self, served):
        _manager, server, client = served
        trace_id = "feedface00000001"
        client.submit_updates([Update.insert(1, 2)], trace_id=trace_id)
        document = client.debug_traces(trace_id=trace_id)
        assert document["trace_id"] == trace_id
        assert all(s["trace_id"] == trace_id for s in document["spans"])
        assert {"count", "capacity", "dropped"} <= set(document)
        status, _headers, _ = _raw(server, "GET", "/v1/debug/traces?limit=oops")
        assert status == 400
        status, _headers, _ = _raw(server, "GET", "/v1/debug/traces?bogus=1")
        assert status == 400

    def test_debug_decisions_surfaces_registered_logs(self, served):
        _manager, _server, client = served
        log = DecisionLog()
        log.record("unit_test_probe", tenant="t")
        document = client.debug_decisions(limit=10)
        events = [e["event"] for e in document["decisions"]]
        assert "unit_test_probe" in events
        assert document["count"] == len(document["decisions"])

    def test_debug_profile_returns_collapsed_stacks(self, served):
        _manager, server, client = served
        document = client.debug_profile(seconds=0.05, interval=0.01)
        assert document["samples"] >= 1
        assert isinstance(document["stacks"], list)
        # the event loop thread shows up: the profiler saw other threads
        assert any(";" in stack for stack in document["stacks"])
        status, _headers, _ = _raw(
            server, "GET", "/v1/debug/profile?seconds=nan"
        )
        assert status == 400


class TestTraceCli:
    def test_repro_trace_lists_spans_as_json(self, served, capsys):
        from repro.cli import main

        _manager, server, client = served
        trace_id = "beadfeed00000002"
        client.submit_updates([Update.insert(7, 8)], trace_id=trace_id)
        _wait_for_span(client, trace_id, "shard.apply")
        exit_code = main(
            [
                "trace",
                "--port", str(server.port),
                "--trace-id", trace_id,
                "--json",
            ]
        )
        assert exit_code == 0
        spans = json.loads(capsys.readouterr().out)
        assert spans and all(span["trace_id"] == trace_id for span in spans)
