"""Engine tests: batching, backpressure, durability and crash recovery."""

from __future__ import annotations

import os
import threading
from pathlib import Path

import pytest

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.core.result import clusterings_equal
from repro.graph.generators import planted_partition_graph
from repro.persistence.updatelog import UpdateLogWriter
from repro.service import engine as engine_module
from repro.service.engine import (
    ClusteringEngine,
    EngineBackpressure,
    EngineClosed,
    EngineConfig,
    _Flush,
    _Stop,
)
from repro.workloads.updates import generate_update_sequence

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)

TRIANGLES = [
    Update.insert(1, 2),
    Update.insert(2, 3),
    Update.insert(1, 3),
    Update.insert(4, 5),
    Update.insert(5, 6),
    Update.insert(4, 6),
]


def _workload_stream(num_updates=60, seed=5):
    edges = planted_partition_graph(2, 8, 0.8, 0.1, seed=3)
    workload = generate_update_sequence(16, edges, num_updates, eta=0.3, seed=seed)
    return list(workload.all_updates())


def _sequential(stream):
    algo = DynStrClu(PARAMS)
    for update in stream:
        algo.apply(update)
    return algo


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(batch_size=0)
        with pytest.raises(ValueError):
            EngineConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_every=-1)

    def test_requires_params_or_snapshot(self):
        with pytest.raises(ValueError):
            ClusteringEngine()


class TestIngest:
    def test_micro_batching_matches_sequential(self):
        stream = _workload_stream()
        config = EngineConfig(batch_size=7)
        with ClusteringEngine(PARAMS, config=config) as engine:
            for update in stream:
                engine.submit(update)
            assert engine.flush(timeout=30)
            view = engine.view()
        assert view.version == len(stream)
        assert clusterings_equal(view.clustering, _sequential(stream).clustering())

    def test_flush_covers_prior_submissions(self):
        with ClusteringEngine(PARAMS, config=EngineConfig(batch_size=100)) as engine:
            for update in TRIANGLES:
                engine.submit(update)
            assert engine.flush(timeout=10)
            assert engine.applied == len(TRIANGLES)
            assert engine.view().version == len(TRIANGLES)

    def test_noop_updates_rejected_not_applied(self):
        with ClusteringEngine(PARAMS) as engine:
            engine.submit(Update.insert(1, 2))
            engine.submit(Update.insert(1, 2))  # duplicate
            engine.submit(Update.delete(8, 9))  # absent edge
            engine.submit(Update.insert(3, 3))  # self loop
            engine.flush(timeout=10)
            assert engine.applied == 1
            assert engine.metrics.get("updates_rejected") == 3

    def test_backpressure_when_queue_full(self):
        config = EngineConfig(queue_capacity=4)
        engine = ClusteringEngine(PARAMS, config=config)  # writer never started
        try:
            for update in TRIANGLES[:4]:
                engine.submit(update, block=False)
            with pytest.raises(EngineBackpressure):
                engine.submit(TRIANGLES[4], block=False)
            assert engine.metrics.get("backpressure") == 1
            assert engine.submit_many(TRIANGLES, block=False) == 0
        finally:
            engine.close(checkpoint=False)

    def test_submit_after_close_raises(self):
        engine = ClusteringEngine(PARAMS).start()
        engine.close()
        with pytest.raises(EngineClosed):
            engine.submit(Update.insert(1, 2))

    def test_close_is_idempotent(self):
        engine = ClusteringEngine(PARAMS).start()
        engine.close()
        engine.close()
        assert not engine.running


def _next_batch_now(engine):
    """Call ``_next_batch`` on an unstarted engine, failing if it blocks."""
    result = []
    worker = threading.Thread(
        target=lambda: result.append(engine._next_batch()), daemon=True
    )
    worker.start()
    worker.join(timeout=5)
    assert result, "_next_batch blocked on a non-empty queue"
    return result[0]


class TestBatchFormation:
    """Group commit: a batch is what is queued when the writer is free."""

    def test_queued_updates_form_one_batch_without_waiting(self):
        engine = ClusteringEngine(PARAMS)  # writer never started
        try:
            for update in TRIANGLES[:3]:
                engine.submit(update)
            assert _next_batch_now(engine) == (TRIANGLES[:3], [], False)
            assert engine.queue_depth == 0
        finally:
            engine.close(checkpoint=False)

    def test_backlog_is_cut_at_batch_size(self):
        config = EngineConfig(batch_size=4)
        engine = ClusteringEngine(PARAMS, config=config)
        updates = [Update.insert(i, i + 1) for i in range(config.batch_size + 5)]
        try:
            for update in updates:
                engine.submit(update)
            batch, flushes, stop = _next_batch_now(engine)
            assert batch == updates[: config.batch_size]
            assert (flushes, stop) == ([], False)
            assert engine.queue_depth == 5
        finally:
            engine.close(checkpoint=False)

    def test_flush_marker_closes_the_batch(self):
        engine = ClusteringEngine(PARAMS)
        marker = _Flush()
        try:
            engine.submit(TRIANGLES[0])
            engine.submit(TRIANGLES[1])
            engine._queue.put(marker)
            engine.submit(TRIANGLES[2])
            assert _next_batch_now(engine) == (TRIANGLES[:2], [marker], False)
            assert _next_batch_now(engine) == ([TRIANGLES[2]], [], False)
        finally:
            engine.close(checkpoint=False)

    def test_stop_marker_drains_everything_queued_behind_it(self):
        config = EngineConfig(batch_size=2)
        engine = ClusteringEngine(PARAMS, config=config)
        marker = _Flush()
        try:
            engine.submit(TRIANGLES[0])
            engine._queue.put(_Stop())
            for update in TRIANGLES[1:5]:
                engine.submit(update)
            engine._queue.put(marker)
            engine.submit(TRIANGLES[5])
            assert _next_batch_now(engine) == (TRIANGLES, [marker], True)
        finally:
            engine.close(checkpoint=False)


class TestWriterFailure:
    def test_flush_raises_instead_of_deadlocking(self):
        from repro.service.engine import EngineError

        engine = ClusteringEngine(PARAMS).start()
        try:
            def _boom(update):
                raise RuntimeError("injected maintainer failure")

            engine.maintainer.apply = _boom
            engine.submit(Update.insert(1, 2))
            with pytest.raises(EngineError):
                engine.flush(timeout=10)
        finally:
            engine.close(checkpoint=False)


class TestVertexCanonicalisation:
    def test_numeric_strings_are_distinct_vertices(self):
        """Lossless IDs: "1" (string) and 1 (int) name different vertices."""
        with ClusteringEngine(PARAMS) as engine:
            engine.submit(Update.insert("1", "2"))
            engine.submit(Update.insert("2", "3"))
            engine.submit(Update.insert("1", "3"))
            engine.submit(Update.insert(1, 2))
            engine.flush(timeout=10)
            assert engine.applied == 4
            # the string triangle clusters; the int edge is separate noise
            assert engine.cluster_of("1") != ()
            assert engine.cluster_of(1) == ()
            groups = engine.view().group_by(["1", "2", "3", 1, 2]).as_sets()
            assert {frozenset(g) for g in groups} == {frozenset({"1", "2", "3"})}

    def test_invalid_vertex_identifiers_rejected_on_submit(self):
        with ClusteringEngine(PARAMS) as engine:
            for bad in (True, None, 1.5, "", "a b"):
                with pytest.raises(ValueError):
                    engine.submit(Update.insert(bad, 7))

    def test_numeric_string_vertices_survive_crash_recovery(self, tmp_path):
        """The WAL's escaped tokens keep "1" ≠ 1 across crash recovery."""
        config = EngineConfig(batch_size=2)
        engine = ClusteringEngine(PARAMS, config=config, data_dir=tmp_path).start()
        engine.submit(Update.insert("1", "2"))
        engine.submit(Update.insert("2", "3"))
        engine.submit(Update.insert("1", "3"))
        engine.submit(Update.insert(1, 2))
        engine.flush(timeout=10)
        before = engine.view().clustering
        engine.kill()

        recovered = ClusteringEngine(PARAMS, config=config, data_dir=tmp_path)
        try:
            assert clusterings_equal(recovered.view().clustering, before)
            assert recovered.view().cluster_of("1") != ()
            assert recovered.view().cluster_of(1) == ()
            assert 1 in recovered.maintainer.graph.vertices()
            assert "1" in recovered.maintainer.graph.vertices()
        finally:
            recovered.close(checkpoint=False)


class TestRecovery:
    def test_clean_restart_serves_identical_results(self, tmp_path):
        stream = _workload_stream()
        config = EngineConfig(batch_size=8)
        with ClusteringEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            for update in stream:
                engine.submit(update)
            engine.flush(timeout=30)
            expected = engine.view().clustering
            applied = engine.applied

        with ClusteringEngine(PARAMS, config=config, data_dir=tmp_path) as restarted:
            assert restarted.applied == applied
            assert clusterings_equal(restarted.view().clustering, expected)

    def test_crash_recovery_from_snapshot_plus_wal(self, tmp_path):
        stream = _workload_stream(num_updates=80)
        config = EngineConfig(batch_size=7, checkpoint_every=25)
        engine = ClusteringEngine(PARAMS, config=config, data_dir=tmp_path).start()
        for update in stream:
            engine.submit(update)
        engine.flush(timeout=30)
        expected = engine.view().clustering
        applied = engine.applied
        engine.kill()  # no final checkpoint, no clean WAL close

        recovered = ClusteringEngine(PARAMS, config=config, data_dir=tmp_path)
        try:
            # some updates come from the snapshot, the tail from the WAL
            assert recovered.recovered_updates > 0
            assert recovered.applied == applied
            assert clusterings_equal(recovered.view().clustering, expected)
            query = sorted(
                recovered.maintainer.graph.vertices(), key=repr
            )
            live = _sequential(stream)
            assert {frozenset(g) for g in recovered.view().group_by(query).as_sets()} == {
                frozenset(g) for g in live.group_by(query).as_sets()
            }
        finally:
            recovered.close(checkpoint=False)

    def test_recovery_tolerates_torn_wal_tail(self, tmp_path):
        stream = _workload_stream()
        config = EngineConfig(batch_size=8)
        engine = ClusteringEngine(PARAMS, config=config, data_dir=tmp_path).start()
        for update in stream:
            engine.submit(update)
        engine.flush(timeout=30)
        expected = engine.view().clustering
        applied = engine.applied
        engine.kill()

        with (tmp_path / "wal.log").open("a", encoding="utf-8") as handle:
            handle.write("+ 99")  # a torn append: no trailing newline

        recovered = ClusteringEngine(PARAMS, config=config, data_dir=tmp_path)
        try:
            assert recovered.applied == applied
            assert clusterings_equal(recovered.view().clustering, expected)
        finally:
            recovered.close(checkpoint=False)

    def test_param_mismatch_on_recovery_warns(self, tmp_path):
        with ClusteringEngine(PARAMS, data_dir=tmp_path) as engine:
            engine.submit(Update.insert(1, 2))
            engine.flush(timeout=10)

        other = StrCluParams(epsilon=0.9, mu=4, rho=0.0)
        with pytest.warns(UserWarning, match="ignoring the requested"):
            recovered = ClusteringEngine(other, data_dir=tmp_path)
        try:
            # the snapshot's params win: they produced the persisted labels
            assert recovered.maintainer.params == PARAMS
        finally:
            recovered.close(checkpoint=False)

    def test_restart_can_continue_ingesting(self, tmp_path):
        config = EngineConfig(batch_size=4)
        with ClusteringEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            for update in TRIANGLES[:3]:
                engine.submit(update)
            engine.flush(timeout=10)

        with ClusteringEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            for update in TRIANGLES[3:]:
                engine.submit(update)
            engine.flush(timeout=10)
            assert engine.applied == len(TRIANGLES)
            sequential = _sequential(TRIANGLES)
            assert clusterings_equal(
                engine.view().clustering, sequential.clustering()
            )


class TestFailedFinalCheckpoint:
    def test_close_reopens_the_writer_when_the_checkpoint_fails(
        self, tmp_path, monkeypatch
    ):
        """A failed final checkpoint must not latch the engine closed:
        the writer reopens, ingest keeps working, and a retried close
        really re-attempts (and completes) the checkpoint."""
        engine = ClusteringEngine(
            PARAMS,
            config=EngineConfig(batch_size=8),
            data_dir=tmp_path,
        ).start()
        for update in TRIANGLES:
            engine.submit(update)
        engine.flush(timeout=10)

        import repro.service.engine as engine_module

        def boom(algo):
            raise OSError("disk full")

        monkeypatch.setattr(engine_module, "take_snapshot", boom)
        with pytest.raises(OSError, match="disk full"):
            engine.close()
        # the engine is NOT closed: ingestion still works end to end
        assert engine.running
        engine.submit(Update.insert(7, 8))
        assert engine.flush(timeout=10)
        assert engine.applied == len(TRIANGLES) + 1

        monkeypatch.undo()
        engine.close()  # the retry cuts the real final checkpoint
        assert not engine.running
        assert (tmp_path / "snapshot.json").exists()

        recovered = ClusteringEngine(PARAMS, data_dir=tmp_path)
        assert recovered.applied == len(TRIANGLES) + 1
        recovered.close(checkpoint=False)


class TestCloseRaceWindow:
    def test_update_enqueued_behind_the_stop_marker_is_applied(self):
        """A submit that passed the closed check just before close() must
        not be acknowledged-then-lost: the writer drains past _Stop."""
        from repro.service.engine import _Stop

        engine = ClusteringEngine(
            PARAMS, config=EngineConfig(batch_size=8)
        ).start()
        for update in TRIANGLES[:3]:
            engine.submit(update)
        engine.flush(timeout=10)
        engine._queue.put(_Stop())
        engine._queue.put(Update.insert(7, 8))  # the racing submit
        engine.close(checkpoint=False)
        assert engine.applied == 4
        assert engine.view().version == 4


#: The durable steps of ``ClusteringEngine._checkpoint``, in order.
CHECKPOINT_STEPS = ["snapshot", "anchor", "wal_close", "rotate", "new_wal"]


def _crash_at(monkeypatch, step):
    """Make checkpoint step ``step`` raise; returns the list it records into."""
    fired = []

    def boom(*_args, **_kwargs):
        fired.append(step)
        raise OSError(f"injected crash at the {step} step")

    if step in ("snapshot", "anchor"):
        real_write = engine_module.write_durable

        def write_durable(path, text):
            if (Path(path).name == "snapshot.json") == (step == "snapshot"):
                boom()
            real_write(path, text)

        monkeypatch.setattr(engine_module, "write_durable", write_durable)
    elif step == "wal_close":
        monkeypatch.setattr(UpdateLogWriter, "close", boom)
    elif step == "rotate":
        real_replace = os.replace

        def replace(src, dst):
            if Path(src).name == "wal.log":
                boom()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
    else:
        monkeypatch.setattr(engine_module, "UpdateLogWriter", boom)
    return fired


class TestCrashDuringCheckpoint:
    """A crash at any durable step of a checkpoint recovers the accepted prefix.

    Each step is made to raise inside the writer's periodic checkpoint,
    and the engine is then killed.  The reopened engine must hold exactly
    the updates that reached the WAL, equal to a sequential DynStrClu over
    that prefix, and keep ingesting and time-travelling over the layout
    the crash left behind.
    """

    @pytest.mark.parametrize("step", CHECKPOINT_STEPS)
    def test_reopen_equals_sequential_prefix(self, step, tmp_path, monkeypatch):
        from repro.service.engine import EngineError
        from repro.service.timetravel import HistoricalViewStore

        stream = _workload_stream(num_updates=90)
        config = EngineConfig(
            batch_size=7, checkpoint_every=25, wal_retain_segments=8
        )
        engine = ClusteringEngine(PARAMS, config=config, data_dir=tmp_path).start()
        for update in stream[:30]:  # one clean periodic checkpoint first
            engine.submit(update)
        engine.flush(timeout=30)
        fired = _crash_at(monkeypatch, step)
        try:
            for update in stream[30:]:
                engine.submit(update)
            engine.flush(timeout=30)
        except EngineError:
            pass  # the writer died in the checkpoint
        assert fired, f"the {step} step never ran"
        accepted = engine.applied
        engine.kill()
        monkeypatch.undo()

        recovered = ClusteringEngine(PARAMS, config=config, data_dir=tmp_path)
        try:
            assert recovered.applied == accepted
            assert clusterings_equal(
                recovered.view().clustering,
                _sequential(stream[:accepted]).clustering(),
            )
        finally:
            recovered.close(checkpoint=False)

        with ClusteringEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            for update in stream[accepted:]:
                engine.submit(update)
            engine.flush(timeout=30)
            assert clusterings_equal(
                engine.view().clustering, _sequential(stream).clustering()
            )
            historical = HistoricalViewStore(engine).view_at((accepted,))
            assert clusterings_equal(
                historical.clustering, _sequential(stream[:accepted]).clustering()
            )
