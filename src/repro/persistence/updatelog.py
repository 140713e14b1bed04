"""Append-only update logs (write-ahead logs) for the update stream.

The log format is a plain text file, one update per line::

    # repro-update-log v2
    + 17 42
    - 17 42
    + alice bob
    + ~17 alice

``+`` is an insertion, ``-`` a deletion, followed by the two endpoint
identifiers.  Identifiers containing whitespace are not supported (matching
the SNAP edge-list convention).  Bare integer tokens parse back to ``int``;
a *string* identifier that would be ambiguous — one that parses as an
integer, or one starting with ``~`` — is written with a ``~`` escape prefix
(``"17"`` → ``~17``, ``"~x"`` → ``~~x``), so the round trip is lossless:
the int ``17`` and the string ``"17"`` are distinct vertices and stay
distinct through WAL replay.  A bare ``~`` names no vertex and is refused.
A log carrying the pre-escape ``v1`` header stored its tokens verbatim, so
read as v2 a string vertex starting with ``~`` would lose its prefix and
replay as a different vertex; such a log is refused, on read and on
append, rather than misread.

The combination ``snapshot + log suffix`` reconstructs a maintainer after a
crash: :func:`repro.persistence.recovery.state_at` restores the snapshot
and replays the segments through :func:`read_wal_range`, the same range
reader that ships WAL to standbys.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, IO, Iterable, Iterator, List, Optional, Union

from repro.core.dynelm import Update, UpdateKind
from repro.graph.dynamic_graph import Vertex

#: Header line written at the top of every log file.
LOG_HEADER = "# repro-update-log v2"

#: Header of the pre-escape format (tokens verbatim), which is refused.
LOG_HEADER_V1 = "# repro-update-log v1"

#: Escape prefix marking a token that must parse back as a *string* even
#: though it looks like an integer (or itself starts with the prefix).
ESCAPE_PREFIX = "~"

#: Comment prefix recording the stream position at which a log was started
#: (the total number of updates applied before its first entry).  Used by
#: crash recovery to line a rotated log up against a state snapshot.
BASE_PREFIX = "# base "

#: File-name pattern of a *retained* (rotated-out) WAL segment.  The base
#: position is zero-padded into the name so a lexicographic directory
#: listing is also the stream order; the ``# base`` marker inside the file
#: stays the source of truth.
SEGMENT_NAME_FORMAT = "wal-{base:012d}.log"
SEGMENT_NAME_RE = re.compile(r"^wal-(\d{12})\.log$")

#: File name of the *active* WAL segment (the one being appended to).
WAL_FILE = "wal.log"

_OP_TO_SYMBOL = {UpdateKind.INSERT: "+", UpdateKind.DELETE: "-"}
_SYMBOL_TO_OP = {"+": UpdateKind.INSERT, "-": UpdateKind.DELETE}


class UpdateLogError(ValueError):
    """Raised when an update-log line cannot be parsed."""


def format_vertex_token(v: Vertex) -> str:
    """The whitespace-free token form of a vertex identifier (lossless).

    Shared by the WAL and the HTTP path segments of ``/cluster/{v}``: a
    string that could be mistaken for an int (or for an escaped token) is
    prefixed with :data:`ESCAPE_PREFIX`.
    """
    text = str(v)
    if not text or any(ch.isspace() for ch in text):
        raise UpdateLogError(
            f"vertex identifier {v!r} cannot be written as a log token "
            "(empty or contains whitespace)"
        )
    if isinstance(v, str):
        needs_escape = text.startswith(ESCAPE_PREFIX)
        if not needs_escape:
            try:
                int(text)
                needs_escape = True
            except ValueError:
                pass
        if needs_escape:
            return ESCAPE_PREFIX + text
    return text


def parse_vertex_token(token: str) -> Vertex:
    """Inverse of :func:`format_vertex_token`."""
    if token.startswith(ESCAPE_PREFIX):
        if token == ESCAPE_PREFIX:
            raise UpdateLogError(f"vertex token {token!r} names no vertex")
        return token[len(ESCAPE_PREFIX):]
    try:
        return int(token)
    except ValueError:
        return token


def _refuse_v1(path: Path, first_line: str) -> None:
    """Raise if ``first_line`` is the header of a pre-escape v1 log."""
    if first_line.strip() == LOG_HEADER_V1:
        raise UpdateLogError(
            f"{path} is a v1-format update log ({LOG_HEADER_V1!r}); "
            "this version reads only v2 logs"
        )


def format_update(update: Update) -> str:
    """One log line (without newline) for an update."""
    return (
        f"{_OP_TO_SYMBOL[update.kind]} "
        f"{format_vertex_token(update.u)} {format_vertex_token(update.v)}"
    )


def parse_update_line(line: str, lineno: int = 0) -> Optional[Update]:
    """Parse one log line; returns ``None`` for blank lines and comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 3 or parts[0] not in _SYMBOL_TO_OP:
        raise UpdateLogError(f"malformed update-log line {lineno}: {line!r}")
    try:
        u, v = parse_vertex_token(parts[1]), parse_vertex_token(parts[2])
    except UpdateLogError as exc:
        raise UpdateLogError(f"malformed update-log line {lineno}: {exc}") from None
    return Update(_SYMBOL_TO_OP[parts[0]], u, v)


class UpdateLogWriter:
    """Appends updates to a log file, flushing after every entry.

    Usable as a context manager::

        with UpdateLogWriter(path) as log:
            log.append(Update.insert(1, 2))
    """

    def __init__(
        self, path: Union[str, Path], append: bool = False, base: int = 0
    ) -> None:
        self.path = Path(path)
        mode = "a" if append and self.path.exists() else "w"
        if mode == "a":
            with self.path.open("r", encoding="utf-8") as existing:
                _refuse_v1(self.path, existing.readline())
        self._handle: Optional[IO[str]] = self.path.open(mode, encoding="utf-8")
        if mode == "w":
            self._handle.write(LOG_HEADER + "\n")
            if base:
                self._handle.write(f"{BASE_PREFIX}{base}\n")
            self._handle.flush()
        self.base = base
        self.entries_written = 0

    @property
    def closed(self) -> bool:
        return self._handle is None

    @property
    def position(self) -> int:
        """The stream position after the last appended entry.

        ``base + entries_written`` — the logical update-stream coordinate a
        WAL shipper resumes from, and the ``from`` a replica acks up to.
        """
        return self.base + self.entries_written

    def append(self, update: Update) -> None:
        """Append one update and flush it to disk."""
        if self._handle is None:
            raise UpdateLogError("update log writer is closed")
        self._handle.write(format_update(update) + "\n")
        self._handle.flush()
        self.entries_written += 1

    def extend(self, updates: Iterable[Update]) -> None:
        """Append a batch of updates."""
        for update in updates:
            self.append(update)

    def sync(self) -> None:
        """Flush buffered entries and fsync them to stable storage.

        Durability barrier for checkpoints: after ``sync()`` returns, every
        appended entry survives a crash of the whole machine, not just of
        the process, so recovery never replays a torn tail.
        """
        if self._handle is None:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Fsync and close the log.  Safe to call more than once."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "UpdateLogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class UpdateLogReader:
    """Iterates over the updates stored in a log file.

    Parameters
    ----------
    path:
        The log file to read.
    tolerate_torn_tail:
        When true, a final entry that is unterminated (no trailing newline)
        or unparseable is dropped instead of raising — the shape a log
        takes when the writer crashed mid-append.  Corruption anywhere
        *before* the last line still raises :class:`UpdateLogError`.

    A tolerated torn tail is *reported*, never silently swallowed: after
    (or during) iteration :attr:`torn_tail` is true and
    :attr:`entries_read` counts the entries actually yielded, so a caller
    that needs the distinction — a WAL shipper deciding between "clean end
    of segment" and "this segment is damaged, re-seed from a snapshot" —
    can make it deterministically.
    """

    def __init__(
        self, path: Union[str, Path], tolerate_torn_tail: bool = False
    ) -> None:
        self.path = Path(path)
        self.tolerate_torn_tail = tolerate_torn_tail
        #: True once iteration dropped an unterminated/unparseable tail.
        self.torn_tail = False
        #: Entries yielded by the most recent iteration.
        self.entries_read = 0
        #: Entries skipped (counted but not parsed) by the most recent
        #: :meth:`iter_from` iteration.
        self.entries_skipped = 0
        #: The ``# base N`` marker streamed past during the most recent
        #: iteration (0 when the file carries none).  Because the writer
        #: emits the marker before any entry, this is always set before
        #: the first yield — letting a caller that opened the file through
        #: a racy path (the active WAL can be rotated between listing and
        #: opening) verify it is reading the segment it thinks it is.
        self.observed_base = 0

    def __iter__(self) -> Iterator[Update]:
        return self.iter_from(0)

    def iter_from(self, skip: int) -> Iterator[Update]:
        """Iterate the log, cheaply jumping over the first ``skip`` entries.

        Skipped entries are *counted* at line granularity (comments and
        blanks excluded) but never tokenised — this is the WAL-serving
        hot path seeking to a stream position, where re-parsing the whole
        prefix on every replica poll would be pure waste.  Note the
        trade-off: a malformed line inside the skipped prefix is counted
        as an entry instead of raising (full-strictness readers use
        ``skip=0``, the default iteration).

        Streams with one line of lookahead: only the final line may be a
        torn tail, and buffering one line keeps recovery O(1) in memory
        even for a WAL that was never rotated.  The tail line is always
        parsed (even inside the skip range) so torn-tail detection stays
        exact.
        """
        self.torn_tail = False
        self.entries_read = 0
        self.entries_skipped = 0
        self.observed_base = 0
        with self.path.open("r", encoding="utf-8") as handle:
            pending: Optional[str] = None
            pending_no = 0
            for lineno, line in enumerate(handle, start=1):
                if lineno == 1:
                    _refuse_v1(self.path, line)
                if pending is not None:
                    stripped = pending.strip()
                    if stripped.startswith(BASE_PREFIX):
                        self._note_base(stripped)
                    if stripped and not stripped.startswith("#"):
                        if self.entries_skipped < skip:
                            self.entries_skipped += 1
                        else:
                            update = parse_update_line(pending, pending_no)
                            if update is not None:
                                self.entries_read += 1
                                yield update
                pending, pending_no = line, lineno
            if pending is None:
                return
            if self.tolerate_torn_tail and not pending.endswith("\n"):
                self.torn_tail = True
                return  # unterminated tail: the writer died mid-append
            if pending.strip().startswith(BASE_PREFIX):
                # an empty just-rotated segment: the marker is the last line
                self._note_base(pending.strip())
            try:
                update = parse_update_line(pending, pending_no)
            except UpdateLogError:
                if self.tolerate_torn_tail:
                    self.torn_tail = True
                    return
                raise
            if update is not None:
                if self.entries_skipped < skip:
                    self.entries_skipped += 1
                else:
                    self.entries_read += 1
                    yield update

    def _note_base(self, stripped: str) -> None:
        """Record the first ``# base N`` marker seen while streaming."""
        if self.observed_base:
            return
        try:
            self.observed_base = int(stripped[len(BASE_PREFIX):])
        except ValueError:
            pass  # malformed marker: leave 0, matching a marker-less file

    def base(self) -> int:
        """The stream position recorded when this log was started (0 if none)."""
        return read_log_base(self.path)

    def read_all(self) -> List[Update]:
        """Materialise the whole log."""
        return list(self)


def read_log_base(path: Union[str, Path]) -> int:
    """Parse the ``# base N`` marker of a rotated log (0 when absent)."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if stripped.startswith(BASE_PREFIX):
                try:
                    return int(stripped[len(BASE_PREFIX):])
                except ValueError as exc:
                    raise UpdateLogError(f"malformed base marker {line!r}") from exc
            if stripped and not stripped.startswith("#"):
                break  # past the header block: no marker present
    return 0


@dataclass(frozen=True)
class WalSegment:
    """One WAL segment on disk: ``[base, base + entries)`` of the stream.

    ``active`` marks the segment currently being appended to; retained
    (rotated-out) segments are immutable.  ``entries`` is computed lazily
    by :func:`segment_entry_count` when a reader needs the upper bound.
    """

    path: Path
    base: int
    active: bool = False


def segment_file_name(base: int) -> str:
    """The retained-segment file name for a segment starting at ``base``."""
    return SEGMENT_NAME_FORMAT.format(base=base)


def list_wal_segments(
    directory: Union[str, Path], active_name: Optional[str] = None
) -> List[WalSegment]:
    """Every WAL segment under ``directory``, sorted by base position.

    Retained segments are discovered by their ``wal-<base>.log`` names
    (the base taken from the name — the rotation writes both, and the
    ``# base`` marker inside stays the recovery-path source of truth);
    the *active* segment, named ``active_name``, is appended last with
    its marker-derived base.  The shipping layer walks this list to
    serve any still-retained suffix of the stream.

    The active base is read *before* the directory scan: a concurrent
    rotation (active renamed to retained, new active created at a higher
    base) can then only make the listing cover some positions twice —
    benign, the serving layer skips past-the-cursor segments and
    re-verifies the active base at open time — never leave a hole
    between the retained set and the active segment, which would be
    misreported as a pruned gap and trigger a needless snapshot re-seed.
    """
    directory = Path(directory)
    active: Optional[WalSegment] = None
    if active_name is not None:
        active_path = directory / active_name
        try:
            base = read_log_base(active_path)
        except FileNotFoundError:
            # the writer is mid-rotation (the active log was renamed and
            # not yet recreated): list without it; the caller's next poll
            # sees the rotated layout
            pass
        else:
            active = WalSegment(path=active_path, base=base, active=True)
    segments: List[WalSegment] = []
    if directory.is_dir():
        for entry in sorted(directory.iterdir()):
            match = SEGMENT_NAME_RE.match(entry.name)
            if match is None:
                continue
            segments.append(WalSegment(path=entry, base=int(match.group(1))))
    segments.sort(key=lambda segment: segment.base)
    if active is not None:
        segments.append(active)
    return segments


def segment_entry_count(segment: WalSegment) -> int:
    """Number of (whole) entries stored in a segment, torn tail excluded."""
    reader = UpdateLogReader(segment.path, tolerate_torn_tail=True)
    count = 0
    for _update in reader:
        count += 1
    return count


class WalGapError(RuntimeError):
    """The requested stream position is no longer retained on disk.

    Carries ``min_position``, the earliest position still served.  A
    standby answers it with a snapshot re-seed (HTTP ``409 wal_gap``); an
    ``as_of`` read with ``410 as_of_unavailable``.
    """

    def __init__(self, message: str, min_position: int = 0) -> None:
        super().__init__(message)
        self.min_position = min_position


# ----------------------------------------------------------------------
# serving a WAL range from the on-disk segments
# ----------------------------------------------------------------------
@dataclass
class WalChunk:
    """One served slice of the stream: ``records`` starting at ``start``.

    ``torn`` marks a *damaged* retained segment — it ended (torn tail or
    short) before reaching the next segment's base, so the positions in
    between are unrecoverable from the log and the standby must re-seed.
    A benign torn tail on the **active** segment (the writer is mid-append
    right now) is not reported: those records simply arrive on the next
    poll.
    """

    start: int
    records: List[Update]
    torn: bool


def read_wal_range(
    segments: List[WalSegment],
    start: int,
    max_records: int,
    limit_position: int,
) -> WalChunk:
    """Read up to ``max_records`` updates beginning at stream position ``start``.

    ``limit_position`` caps the range.  A live engine passes its applied
    count: the WAL may momentarily hold an entry that is flushed but not
    yet applied, and a replica must only ever see the applied prefix.  Raises
    :class:`WalGapError` when ``start`` predates the earliest retained
    segment.
    """
    if start >= limit_position:
        return WalChunk(start=start, records=[], torn=False)
    segments = sorted(segments, key=lambda segment: (segment.base, segment.active))
    if not segments or start < segments[0].base:
        earliest = segments[0].base if segments else limit_position
        raise WalGapError(
            f"position {start} is below the retained WAL horizon {earliest}",
            min_position=earliest,
        )
    records: List[Update] = []
    position = start
    for index, segment in enumerate(segments):
        if segment.base > position:
            # discontinuity between retained segments: the log cannot
            # produce the positions in between (a pruned or lost segment)
            raise WalGapError(
                f"positions [{position}, {segment.base}) are not retained",
                min_position=segment.base,
            )
        next_base = (
            segments[index + 1].base if index + 1 < len(segments) else None
        )
        if next_base is not None and next_base <= position:
            continue  # already past this segment
        reader = UpdateLogReader(segment.path, tolerate_torn_tail=True)
        # jump over the already-served prefix without parsing it — the
        # replica polls this route continuously, and re-tokenising the
        # whole segment up to `from` on every poll would be O(stream)
        # parse work per poll instead of a line skip
        try:
            for update in reader.iter_from(position - segment.base):
                if segment.active and reader.observed_base != segment.base:
                    # the writer rotated the active log between the listing
                    # and this open: the file on disk now starts at a
                    # different stream position, so the skip arithmetic
                    # above counted lines of the *wrong* file — serving
                    # them would hand the replica records mislabelled with
                    # positions they do not hold.  Stop with whatever the
                    # still-immutable earlier segments yielded; the next
                    # poll lists the rotated layout and resumes exactly
                    return WalChunk(start=start, records=records, torn=False)
                records.append(update)
                position += 1
                if len(records) >= max_records or position >= limit_position:
                    return WalChunk(start=start, records=records, torn=False)
        except FileNotFoundError:
            if segment.active:
                # rotation gap: the active log was renamed away and not yet
                # recreated — transient, the next poll sees the new layout
                return WalChunk(start=start, records=records, torn=False)
            # a retained segment pruned between listing and opening: the
            # positions it held are gone for good — report the structured
            # gap (not a raw 500) so the standby re-seeds immediately
            resume = next_base if next_base is not None else limit_position
            raise WalGapError(
                f"retained segment {segment.path.name} was pruned while "
                f"being served; positions [{position}, {resume}) are "
                "no longer retained",
                min_position=resume,
            )
        if segment.active and reader.observed_base != segment.base:
            # same race, observed after a fetch that yielded nothing new
            return WalChunk(start=start, records=records, torn=False)
        cursor = segment.base + reader.entries_skipped + reader.entries_read
        if next_base is not None and cursor < next_base:
            # a *closed* segment ended short of its successor — the
            # reader's torn-tail reporting makes the two causes
            # distinguishable instead of silently serving a stream with a
            # hole: a torn tail is damage (report it), a cleanly-ended
            # short segment means the positions in between were pruned
            if reader.torn_tail:
                return WalChunk(start=start, records=records, torn=True)
            raise WalGapError(
                f"positions [{cursor}, {next_base}) are not retained",
                min_position=next_base,
            )
    return WalChunk(start=start, records=records, torn=False)


def write_update_log(updates: Iterable[Update], path: Union[str, Path]) -> int:
    """Write a complete update sequence to ``path``; returns the entry count."""
    with UpdateLogWriter(path) as writer:
        writer.extend(updates)
        return writer.entries_written


def read_update_log(path: Union[str, Path]) -> List[Update]:
    """Read every update stored at ``path``."""
    return UpdateLogReader(path).read_all()


def replay_updates(
    algo,
    updates: Iterable[Update],
    on_update: Optional[Callable[[int, Update], None]] = None,
    skip: int = 0,
) -> int:
    """Apply a sequence of updates to any algorithm exposing ``apply(update)``.

    Parameters
    ----------
    algo:
        A maintainer with an ``apply(update)`` method (DynELM, DynStrClu and
        both dynamic baselines qualify).
    updates:
        The updates to apply, typically from :class:`UpdateLogReader`.
    on_update:
        Optional callback invoked after each applied update with the
        (zero-based) position in the replayed stream and the update.
    skip:
        Number of leading updates to skip — the position of the snapshot in
        the log when recovering from ``snapshot + log``.

    Returns the number of updates applied.
    """
    applied = 0
    for index, update in enumerate(updates):
        if index < skip:
            continue
        algo.apply(update)
        if on_update is not None:
            on_update(index, update)
        applied += 1
    return applied
