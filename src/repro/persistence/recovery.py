"""Reconstruct a data directory's state at a stream position.

One function, :func:`state_at`, serves every reader of past or recovered
state: engine crash recovery, ``as_of`` time-travel reads and the offline
references the smoke gates compare a live service against.  Each anchors
at a snapshot and replays the WAL segments forward from it, the
reenactment idea of rebuilding what a reader saw by replaying the log.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

from repro.core.config import StrCluParams
from repro.core.dynstrclu import DynStrClu
from repro.graph.dynamic_graph import Vertex
from repro.persistence.snapshot import (
    SNAPSHOT_FILE,
    list_retained_snapshots,
    load_snapshot,
    restore_dynstrclu,
)
from repro.persistence.updatelog import (
    WAL_FILE,
    WalGapError,
    list_wal_segments,
    read_wal_range,
)

#: Records pulled per replay iteration.  Each iteration re-opens the
#: segment and line-skips its already-replayed prefix, so a long active
#: segment (``checkpoint_every=0`` keeps the whole stream in one) costs
#: skipping quadratic in the number of iterations.  Reading 200k entries
#: took 3.9 s at 4096 records per iteration, 0.65 s at this size and 0.6 s
#: in one pass (2-vCPU host, CPython 3.11); the bound keeps the records
#: held at once small.
REPLAY_FETCH_RECORDS = 65536

#: Consecutive empty fetches tolerated before a replay to a fixed position
#: gives up: an empty chunk only happens in a rotation race window, which
#: the next listing resolves, so a long run of them means the WAL cannot
#: produce the range.
MAX_REPLAY_STALLS = 50


def state_at(
    data_dir: Union[str, Path],
    position: Optional[int] = None,
    *,
    params: Optional[StrCluParams] = None,
    scope: Optional[Callable[[Vertex, Vertex], bool]] = None,
) -> Tuple[DynStrClu, int]:
    """The maintainer holding ``data_dir``'s state after ``position`` updates.

    Anchors at the newest retained ``snapshot-<P>.json`` with
    ``P <= position`` and replays the WAL segments forward to exactly
    ``position``.  With ``position=None`` it anchors at ``snapshot.json``
    and replays to the end of the log, tolerating a torn final entry:
    that is crash recovery.  A directory without an anchor starts from a
    fresh ``DynStrClu(params)``.  ``scope`` (a shard's labelling scope)
    is installed before the replay, so replayed out-of-scope edges stay
    graph-only.

    Returns the maintainer and the number of WAL entries replayed onto
    the anchor.  Raises :class:`WalGapError` when the anchor or the WAL
    covering the requested range has been pruned (``FileNotFoundError``
    when a concurrent prune removes the anchor between its listing and
    its load), and ``ValueError`` when there is neither an anchor nor
    ``params`` to start fresh from.
    """
    data_dir = Path(data_dir)
    if position is None:
        anchor: Optional[Path] = data_dir / SNAPSHOT_FILE
        if not anchor.exists():
            anchor = None
    else:
        retained = list_retained_snapshots(data_dir)
        below = [snapshot for snapshot in retained if snapshot.position <= position]
        anchor = below[-1].path if below else None
        if anchor is None and params is None:
            raise WalGapError(
                f"no retained snapshot at or below position {position}",
                min_position=retained[0].position if retained else position,
            )
    if anchor is None:
        if params is None:
            raise ValueError(
                f"no snapshot in {data_dir} and no params to start fresh from"
            )
        maintainer = DynStrClu(params, scope=scope)
    else:
        maintainer = restore_dynstrclu(load_snapshot(anchor), scope=scope)
    return maintainer, replay_wal(maintainer, data_dir, position)


def replay_wal(
    maintainer: DynStrClu, data_dir: Union[str, Path], goal: Optional[int] = None
) -> int:
    """Apply ``data_dir``'s WAL to ``maintainer`` from its position to ``goal``.

    The replay starts at ``maintainer.updates_processed`` and reads
    through :func:`read_wal_range`, the range reader that also ships WAL
    to standbys, so rotation races, pruned segments and torn tails are
    handled by one implementation.  The segments are re-listed per chunk
    because a live writer may rotate the active log mid-replay.
    ``goal=None`` replays to the end of the log.  Returns the number of
    entries applied.
    """
    start = position = maintainer.updates_processed
    limit = sys.maxsize if goal is None else goal
    stalls = 0
    while position < limit:
        segments = list_wal_segments(data_dir, active_name=WAL_FILE)
        if goal is None and not segments:
            break
        chunk = read_wal_range(segments, position, REPLAY_FETCH_RECORDS, limit)
        if chunk.torn:
            raise WalGapError(
                f"a retained WAL segment is damaged; cannot replay past "
                f"position {position + len(chunk.records)}",
                min_position=position,
            )
        if not chunk.records:
            if goal is None:
                break  # the end of the log
            stalls += 1
            if stalls > MAX_REPLAY_STALLS:
                raise TimeoutError(
                    f"replay stalled at position {position} (goal {goal}): "
                    "the WAL cannot produce the range"
                )
            time.sleep(0.01)
            continue
        stalls = 0
        for update in chunk.records:
            maintainer.apply(update)
        position += len(chunk.records)
    return position - start
