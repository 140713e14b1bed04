"""Unit tests for the append-only update log and replay."""

from __future__ import annotations

import pytest

from repro.core.config import StrCluParams
from repro.core.dynelm import Update, UpdateKind
from repro.core.dynstrclu import DynStrClu
from repro.persistence.snapshot import restore_dynstrclu, take_snapshot
from repro.persistence.updatelog import (
    LOG_HEADER,
    UpdateLogError,
    UpdateLogReader,
    UpdateLogWriter,
    format_update,
    list_wal_segments,
    parse_update_line,
    read_update_log,
    replay_updates,
    segment_entry_count,
    segment_file_name,
    write_update_log,
)

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)

UPDATES = [
    Update.insert(1, 2),
    Update.insert(2, 3),
    Update.insert(1, 3),
    Update.insert(3, 4),
    Update.delete(3, 4),
    Update.insert("alice", "bob"),
]


class TestFormatting:
    def test_format_and_parse_round_trip(self):
        for update in UPDATES:
            parsed = parse_update_line(format_update(update))
            assert parsed == update

    def test_comments_and_blank_lines_skipped(self):
        assert parse_update_line("") is None
        assert parse_update_line("   ") is None
        assert parse_update_line("# a comment") is None

    def test_malformed_lines_raise(self):
        with pytest.raises(UpdateLogError):
            parse_update_line("* 1 2")
        with pytest.raises(UpdateLogError):
            parse_update_line("+ 1")
        with pytest.raises(UpdateLogError):
            parse_update_line("+ 1 2 3")

    def test_whitespace_vertex_rejected(self):
        with pytest.raises(UpdateLogError):
            format_update(Update.insert("a vertex", 2))

    def test_integer_identifiers_parse_back_to_int(self):
        parsed = parse_update_line("+ 10 20")
        assert parsed == Update(UpdateKind.INSERT, 10, 20)
        assert isinstance(parsed.u, int)

    def test_numeric_string_identifiers_round_trip_losslessly(self):
        """Regression: "10" (string) must not come back as the int 10."""
        update = Update.insert("10", "-3")
        line = format_update(update)
        assert line == "+ ~10 ~-3"
        parsed = parse_update_line(line)
        assert parsed == update
        assert isinstance(parsed.u, str) and isinstance(parsed.v, str)
        # and a string vertex starting with the escape char double-escapes
        tilded = Update.insert("~x", 5)
        parsed = parse_update_line(format_update(tilded))
        assert parsed == tilded

    def test_v1_header_log_is_refused(self, tmp_path):
        """A pre-escape (v1-headered) log is refused, never misread as v2."""
        path = tmp_path / "old.log"
        path.write_text(
            "# repro-update-log v1\n+ ~x alice\n+ 1 2\n", encoding="utf-8"
        )
        for tolerate in (False, True):
            with pytest.raises(UpdateLogError, match="old.log.*v1-format"):
                UpdateLogReader(path, tolerate_torn_tail=tolerate).read_all()

    def test_append_to_v1_log_is_refused(self, tmp_path):
        """Splicing v2 (~-escaped) entries into a v1 log would corrupt it."""
        path = tmp_path / "old.log"
        path.write_text("# repro-update-log v1\n+ 1 2\n", encoding="utf-8")
        before = path.read_bytes()
        with pytest.raises(UpdateLogError, match="v1-format"):
            UpdateLogWriter(path, append=True)
        # the refused append left the file's bytes exactly as they were
        assert path.read_bytes() == before

    def test_bare_escape_token_names_no_vertex(self):
        """Regression: a lone '~' used to parse as the empty-string vertex."""
        from repro.persistence.updatelog import parse_vertex_token

        with pytest.raises(UpdateLogError, match="names no vertex"):
            parse_vertex_token("~")
        with pytest.raises(UpdateLogError, match="line 7"):
            parse_update_line("+ ~ 5", 7)

    def test_token_codec_round_trips_every_identifier_shape(self):
        from repro.persistence.updatelog import format_vertex_token, parse_vertex_token

        for vertex in (0, 7, -7, "alice", "7", "-7", "~", "~7", "~~x", "s:1"):
            token = format_vertex_token(vertex)
            assert " " not in token
            roundtripped = parse_vertex_token(token)
            assert roundtripped == vertex
            assert type(roundtripped) is type(vertex)


class TestWriterReader:
    def test_write_and_read(self, tmp_path):
        path = tmp_path / "updates.log"
        count = write_update_log(UPDATES, path)
        assert count == len(UPDATES)
        assert read_update_log(path) == UPDATES
        assert path.read_text().splitlines()[0] == LOG_HEADER

    def test_append_mode(self, tmp_path):
        path = tmp_path / "updates.log"
        with UpdateLogWriter(path) as writer:
            writer.append(UPDATES[0])
        with UpdateLogWriter(path, append=True) as writer:
            writer.append(UPDATES[1])
        assert read_update_log(path) == UPDATES[:2]

    def test_write_after_close_raises(self, tmp_path):
        writer = UpdateLogWriter(tmp_path / "updates.log")
        writer.close()
        with pytest.raises(UpdateLogError):
            writer.append(UPDATES[0])

    def test_reader_is_reiterable(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES, path)
        reader = UpdateLogReader(path)
        assert list(reader) == list(reader)


class TestDurability:
    def test_sync_flushes_to_disk(self, tmp_path):
        path = tmp_path / "updates.log"
        writer = UpdateLogWriter(path)
        writer.append(UPDATES[0])
        writer.sync()
        assert read_update_log(path) == UPDATES[:1]
        writer.close()

    def test_close_is_idempotent(self, tmp_path):
        writer = UpdateLogWriter(tmp_path / "updates.log")
        writer.append(UPDATES[0])
        writer.close()
        writer.close()
        assert writer.closed
        writer.sync()  # syncing a closed writer is a no-op, not an error

    def test_base_marker_round_trips(self, tmp_path):
        from repro.persistence.updatelog import read_log_base

        path = tmp_path / "updates.log"
        with UpdateLogWriter(path, base=42) as writer:
            writer.append(UPDATES[0])
        assert read_log_base(path) == 42
        assert UpdateLogReader(path).base() == 42
        assert read_update_log(path) == UPDATES[:1]

    def test_base_defaults_to_zero(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES[:2], path)
        assert UpdateLogReader(path).base() == 0


class TestTornTail:
    def test_unterminated_tail_dropped_when_tolerated(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES[:3], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("+ 99")  # torn append: no newline
        assert UpdateLogReader(path, tolerate_torn_tail=True).read_all() == UPDATES[:3]

    def test_malformed_tail_dropped_when_tolerated(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES[:3], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("garbage line\n")
        assert UpdateLogReader(path, tolerate_torn_tail=True).read_all() == UPDATES[:3]

    def test_torn_tail_raises_by_default(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES[:3], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("garbage line\n")
        with pytest.raises(UpdateLogError):
            UpdateLogReader(path).read_all()

    def test_mid_file_corruption_always_raises(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES[:1], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("garbage line\n")
            handle.write(format_update(UPDATES[1]) + "\n")
        with pytest.raises(UpdateLogError):
            UpdateLogReader(path, tolerate_torn_tail=True).read_all()

    def test_tolerated_torn_tail_is_reported_not_swallowed(self, tmp_path):
        """Regression: a dropped tail must set ``torn_tail`` on the reader.

        The WAL shipper distinguishes "clean end of segment" from "this
        segment is damaged, re-seed the standby from a snapshot" — a
        silently swallowed tail made that decision impossible.
        """
        path = tmp_path / "updates.log"
        write_update_log(UPDATES[:3], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("+ 99")  # torn append: no newline
        reader = UpdateLogReader(path, tolerate_torn_tail=True)
        assert reader.read_all() == UPDATES[:3]
        assert reader.torn_tail is True
        assert reader.entries_read == 3

    def test_clean_log_reports_no_torn_tail(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES[:3], path)
        reader = UpdateLogReader(path, tolerate_torn_tail=True)
        assert reader.read_all() == UPDATES[:3]
        assert reader.torn_tail is False
        assert reader.entries_read == 3

    def test_torn_flag_resets_between_iterations(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES[:2], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("+ 99")
        reader = UpdateLogReader(path, tolerate_torn_tail=True)
        reader.read_all()
        assert reader.torn_tail is True
        # repair the tail and re-iterate the same reader object
        with path.open("a", encoding="utf-8") as handle:
            handle.write(" 100\n")
        assert reader.read_all() == UPDATES[:2] + [Update.insert(99, 100)]
        assert reader.torn_tail is False


class TestIterFrom:
    def test_skip_jumps_entries_without_parsing(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES, path)
        reader = UpdateLogReader(path)
        assert list(reader.iter_from(2)) == UPDATES[2:]
        assert reader.entries_skipped == 2
        assert reader.entries_read == len(UPDATES) - 2

    def test_skip_beyond_the_log_yields_nothing(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES[:3], path)
        reader = UpdateLogReader(path)
        assert list(reader.iter_from(10)) == []
        assert reader.entries_skipped == 3  # what was actually there

    def test_torn_tail_detected_even_inside_the_skip_range(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES[:2], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("+ 99")  # torn final line
        reader = UpdateLogReader(path, tolerate_torn_tail=True)
        assert list(reader.iter_from(5)) == []
        assert reader.torn_tail is True

    def test_observed_base_is_set_before_the_first_yield(self, tmp_path):
        """WAL serving verifies mid-iteration that the file it opened is
        the segment it listed, so the marker must be visible by the time
        the first entry comes out."""
        path = tmp_path / "updates.log"
        with UpdateLogWriter(path, base=42) as writer:
            writer.extend(UPDATES[:3])
        reader = UpdateLogReader(path)
        iterator = iter(reader)
        first = next(iterator)
        assert first == UPDATES[0]
        assert reader.observed_base == 42
        list(iterator)
        assert reader.observed_base == 42 == reader.base()

    def test_observed_base_defaults_to_zero_without_a_marker(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(UPDATES[:2], path)
        reader = UpdateLogReader(path)
        list(reader)
        assert reader.observed_base == 0

    def test_observed_base_on_an_empty_rotated_segment(self, tmp_path):
        # the marker is the file's last line: still reported
        path = tmp_path / "updates.log"
        with UpdateLogWriter(path, base=7):
            pass
        reader = UpdateLogReader(path)
        assert list(reader) == []
        assert reader.observed_base == 7


class TestSegments:
    def test_writer_position_is_base_plus_entries(self, tmp_path):
        path = tmp_path / "updates.log"
        with UpdateLogWriter(path, base=7) as writer:
            assert writer.position == 7
            writer.extend(UPDATES[:3])
            assert writer.position == 10

    def test_list_wal_segments_orders_by_base(self, tmp_path):
        write_update_log(UPDATES[:2], tmp_path / segment_file_name(0))
        with UpdateLogWriter(tmp_path / segment_file_name(2), base=2) as writer:
            writer.extend(UPDATES[2:4])
        with UpdateLogWriter(tmp_path / "wal.log", base=4) as writer:
            writer.append(UPDATES[4])
        segments = list_wal_segments(tmp_path, active_name="wal.log")
        assert [segment.base for segment in segments] == [0, 2, 4]
        assert [segment.active for segment in segments] == [False, False, True]
        assert [segment_entry_count(segment) for segment in segments] == [2, 2, 1]

    def test_list_wal_segments_without_active_file(self, tmp_path):
        write_update_log(UPDATES[:2], tmp_path / segment_file_name(0))
        segments = list_wal_segments(tmp_path, active_name="wal.log")
        assert [segment.base for segment in segments] == [0]

    def test_unrelated_files_are_ignored(self, tmp_path):
        (tmp_path / "snapshot.json").write_text("{}", encoding="utf-8")
        (tmp_path / "wal-xyz.log").write_text("junk", encoding="utf-8")
        assert list_wal_segments(tmp_path) == []


class TestReplay:
    def test_replay_into_maintainer(self, tmp_path):
        path = tmp_path / "updates.log"
        updates = [u for u in UPDATES if isinstance(u.u, int)]
        write_update_log(updates, path)
        algo = DynStrClu(PARAMS)
        applied = replay_updates(algo, UpdateLogReader(path))
        assert applied == len(updates)
        assert algo.graph.num_edges == 3  # (3, 4) was inserted then deleted

    def test_replay_with_skip_reconstructs_from_checkpoint(self, tmp_path):
        """snapshot + log suffix == replaying the full log from scratch."""
        log_path = tmp_path / "updates.log"
        updates = [u for u in UPDATES if isinstance(u.u, int)]
        prefix, suffix = updates[:3], updates[3:]

        live = DynStrClu(PARAMS)
        with UpdateLogWriter(log_path) as wal:
            for update in prefix:
                wal.append(update)
                live.apply(update)
            snapshot = take_snapshot(live)
            for update in suffix:
                wal.append(update)
                live.apply(update)

        recovered = restore_dynstrclu(snapshot)
        replay_updates(recovered, UpdateLogReader(log_path), skip=len(prefix))
        assert recovered.clustering().as_frozen() == live.clustering().as_frozen()
        assert recovered.graph.num_edges == live.graph.num_edges

    def test_on_update_callback(self, tmp_path):
        seen = []
        updates = [u for u in UPDATES if isinstance(u.u, int)]
        algo = DynStrClu(PARAMS)
        replay_updates(algo, updates, on_update=lambda i, u: seen.append((i, u.kind)))
        assert len(seen) == len(updates)
        assert seen[0][0] == 0
