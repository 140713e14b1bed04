"""Persistence: snapshots of the maintained state and update logs.

A dynamic clustering index is long-lived: the process maintaining it will
be restarted, the update stream will be archived and replayed, and the
maintained state will be shipped between machines.  This package provides
the two standard persistence primitives for that:

* :mod:`repro.persistence.snapshot` — serialise the *logical* state of a
  :class:`~repro.core.dynelm.DynELM` / :class:`~repro.core.dynstrclu.DynStrClu`
  instance (graph, edge labels, parameters) to a JSON document and restore
  a fully functional instance from it, without re-running the labelling
  strategy (so the restored clustering is bit-for-bit the snapshotted one);
* :mod:`repro.persistence.updatelog` — an append-only, human-readable log
  of edge updates (a write-ahead log) with a reader and a replay helper;
* :mod:`repro.persistence.recovery` — :func:`state_at`, which rebuilds a
  data directory's state at any retained stream position (or, by
  default, after the whole log: crash recovery) from
  ``snapshot + log suffix``.
"""

from repro.persistence.recovery import state_at
from repro.persistence.snapshot import (
    StateSnapshot,
    load_snapshot,
    restore_dynelm,
    restore_dynstrclu,
    save_snapshot,
    take_snapshot,
)
from repro.persistence.updatelog import (
    UpdateLogReader,
    UpdateLogWriter,
    read_log_base,
    read_update_log,
    replay_updates,
    write_update_log,
)

__all__ = [
    "StateSnapshot",
    "take_snapshot",
    "save_snapshot",
    "load_snapshot",
    "restore_dynelm",
    "restore_dynstrclu",
    "UpdateLogWriter",
    "UpdateLogReader",
    "read_log_base",
    "write_update_log",
    "read_update_log",
    "replay_updates",
    "state_at",
]
