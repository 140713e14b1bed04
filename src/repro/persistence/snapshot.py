"""Snapshots of the maintained DynELM / DynStrClu state.

A snapshot captures the *logical* state that determines the clustering:

* the clustering parameters (:class:`~repro.core.config.StrCluParams`);
* the vertex set and edge set of the current graph;
* the maintained ρ-approximate label of every edge.

Restoring from a snapshot rebuilds the graph, reinstates the stored labels
verbatim (no strategy invocation, no sampling), re-creates a fresh DT
instance per edge with the threshold computed from the *current* degrees,
and — for :class:`~repro.core.dynstrclu.DynStrClu` — rebuilds vAuxInfo, the
core set and CC-Str(G_core) from the labels.  Resetting the DT tracking
state is safe: the affordability lemmas (5.1/5.2 and 8.4/8.5) only require
that an edge is re-labelled before it has absorbed τ(u, v) affecting
updates *since it was last labelled*, and a fresh DT instance tracks from
zero, which is conservative.

The on-disk format is a single JSON document (version-tagged), chosen for
longevity and debuggability over pickling live objects.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.affordability import tracking_threshold
from repro.core.config import StrCluParams
from repro.core.dynelm import DynELM
from repro.core.dynstrclu import DynStrClu
from repro.core.labelling import EdgeLabel
from repro.graph.dynamic_graph import Vertex, canonical_edge
from repro.graph.similarity import SimilarityKind

Edge = Tuple[Vertex, Vertex]

#: Identifies the snapshot JSON documents produced by this module.
SNAPSHOT_FORMAT = "repro-strclu-snapshot"
SNAPSHOT_VERSION = 1

#: File name of the latest checkpoint in an engine's data directory.
SNAPSHOT_FILE = "snapshot.json"

#: Position-stamped snapshot files retained alongside the WAL segments as
#: time-travel replay anchors: ``snapshot-<position:012d>.json``.  The fixed
#: 12-digit zero-padded position makes lexicographic order equal numeric
#: order, mirroring the WAL segment naming in
#: :mod:`repro.persistence.updatelog`.
RETAINED_SNAPSHOT_FORMAT = "snapshot-{position:012d}.json"
RETAINED_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.json$")


class SnapshotError(ValueError):
    """Raised when a snapshot document is malformed or has the wrong version."""


def write_durable(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically and durably (tmp + fsync + rename).

    The one shared discipline for every persisted state file — snapshots,
    shard/replication manifests, standby seeds: a crash at any point
    leaves either the old whole file or the new whole file on disk, never
    a torn one that bricks the next recovery's parse.
    """
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    with tmp_path.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


@dataclass
class StateSnapshot:
    """In-memory representation of a snapshot.

    Attributes
    ----------
    params:
        The clustering parameters active when the snapshot was taken.
    vertices:
        Every vertex of the graph (including isolated ones).
    labelled_edges:
        Every edge together with its maintained label.  A *graph-only*
        edge (outside the instance's labelling scope — see
        :class:`repro.core.dynelm.DynELM`) is stored with label ``None``
        and restored without a label or DT instance.
    updates_processed:
        Number of updates the snapshotted instance had processed; restored
        instances continue the count (it feeds the δ_i schedule bookkeeping
        in reports, not correctness).
    """

    params: StrCluParams
    vertices: List[Vertex] = field(default_factory=list)
    labelled_edges: List[Tuple[Vertex, Vertex, Optional[EdgeLabel]]] = field(
        default_factory=list
    )
    updates_processed: int = 0

    # ------------------------------------------------------------------
    # JSON (de)serialisation
    # ------------------------------------------------------------------
    def to_document(self) -> Dict[str, object]:
        """The JSON-serialisable document for this snapshot."""
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "params": _params_to_document(self.params),
            "updates_processed": self.updates_processed,
            "vertices": [_vertex_to_json(v) for v in self.vertices],
            "edges": [
                [
                    _vertex_to_json(u),
                    _vertex_to_json(v),
                    None if label is None else label.value,
                ]
                for u, v, label in self.labelled_edges
            ],
        }

    @classmethod
    def from_document(cls, document: Dict[str, object]) -> "StateSnapshot":
        """Parse a snapshot document; raises :class:`SnapshotError` if malformed."""
        if not isinstance(document, dict):
            raise SnapshotError("snapshot document must be a JSON object")
        if document.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"unexpected snapshot format {document.get('format')!r}; "
                f"expected {SNAPSHOT_FORMAT!r}"
            )
        version = document.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(f"unsupported snapshot version {version!r}")
        try:
            params = _params_from_document(document["params"])  # type: ignore[arg-type]
            vertices = [_vertex_from_json(v) for v in document.get("vertices", [])]
            edges = [
                (
                    _vertex_from_json(entry[0]),
                    _vertex_from_json(entry[1]),
                    None if entry[2] is None else EdgeLabel(entry[2]),
                )
                for entry in document.get("edges", [])
            ]
            updates = int(document.get("updates_processed", 0))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise SnapshotError(f"malformed snapshot document: {exc}") from exc
        return cls(
            params=params,
            vertices=vertices,
            labelled_edges=edges,
            updates_processed=updates,
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_document(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StateSnapshot":
        """Parse from a JSON string."""
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"snapshot is not valid JSON: {exc}") from exc
        return cls.from_document(document)

    # ------------------------------------------------------------------
    # convenience views
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.labelled_edges)

    def labels(self) -> Dict[Edge, EdgeLabel]:
        """Edge-label mapping keyed by canonical edges (graph-only edges omitted)."""
        return {
            canonical_edge(u, v): label
            for u, v, label in self.labelled_edges
            if label is not None
        }


# ----------------------------------------------------------------------
# taking snapshots
# ----------------------------------------------------------------------
def take_snapshot(algo: Union[DynELM, DynStrClu]) -> StateSnapshot:
    """Capture the logical state of a DynELM or DynStrClu instance.

    Example
    -------
    >>> from repro import DynStrClu, StrCluParams
    >>> algo = DynStrClu(StrCluParams(epsilon=0.5, mu=2, rho=0.0))
    >>> for e in [(1, 2), (2, 3), (1, 3)]:
    ...     _ = algo.insert_edge(*e)
    >>> snap = take_snapshot(algo)
    >>> snap.num_edges
    3
    """
    elm = algo.elm if isinstance(algo, DynStrClu) else algo
    vertices = sorted(elm.graph.vertices(), key=repr)
    edges = []
    for u, v in sorted(elm.graph.edges(), key=repr):
        edge = canonical_edge(u, v)
        if elm.scope is not None and not elm.scope(u, v):
            edges.append((u, v, elm.labels.get(edge)))  # graph-only edge
        else:
            # an in-scope edge missing its label is a bookkeeping bug and
            # must fail the checkpoint loudly, not persist as unlabelled
            edges.append((u, v, elm.labels[edge]))
    return StateSnapshot(
        params=elm.params,
        vertices=vertices,
        labelled_edges=edges,
        updates_processed=elm.updates_processed,
    )


def save_snapshot(algo: Union[DynELM, DynStrClu], path: Union[str, Path]) -> StateSnapshot:
    """Take a snapshot of ``algo`` and write it to ``path`` as JSON.

    Written through :func:`write_durable`: a crash mid-save must leave
    the previous snapshot intact, never a torn document that bricks the
    next recovery's parse (regression: this used to be a bare
    ``write_text``, which truncates before it writes).
    """
    snapshot = take_snapshot(algo)
    write_durable(path, snapshot.to_json(indent=2))
    return snapshot


def load_snapshot(path: Union[str, Path]) -> StateSnapshot:
    """Read a snapshot document from ``path``."""
    return StateSnapshot.from_json(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# retained (position-stamped) snapshots: the time-travel replay anchors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetainedSnapshot:
    """One position-stamped snapshot file: the anchor for replay-to-``position``."""

    position: int
    path: Path


def retained_snapshot_name(position: int) -> str:
    """File name of the retained snapshot taken at applied ``position``."""
    if position < 0:
        raise ValueError(f"snapshot position must be >= 0, got {position}")
    return RETAINED_SNAPSHOT_FORMAT.format(position=position)


def list_retained_snapshots(directory: Union[str, Path]) -> List[RetainedSnapshot]:
    """Every retained snapshot in ``directory``, sorted by position.

    This listing *is* the snapshot position manifest: the file names carry
    the applied position each snapshot was cut at, so no separate index
    file can drift out of sync with the snapshots actually on disk.
    """
    directory = Path(directory)
    retained: List[RetainedSnapshot] = []
    if not directory.is_dir():
        return retained
    for entry in directory.iterdir():
        match = RETAINED_SNAPSHOT_RE.match(entry.name)
        if match:
            retained.append(RetainedSnapshot(position=int(match.group(1)), path=entry))
    retained.sort(key=lambda snapshot: snapshot.position)
    return retained


# ----------------------------------------------------------------------
# restoring
# ----------------------------------------------------------------------
def restore_dynelm(snapshot: StateSnapshot, **kwargs) -> DynELM:
    """Rebuild a :class:`DynELM` instance from a snapshot.

    The stored labels are reinstated verbatim; every edge is tracked by a
    fresh DT instance with the threshold computed from the restored
    degrees.  Additional keyword arguments (``oracle``, ``counter``) are
    forwarded to the :class:`DynELM` constructor.
    """
    elm = DynELM(snapshot.params, **kwargs)
    graph = elm.graph
    for v in snapshot.vertices:
        graph.add_vertex(v)
    for u, v, _label in snapshot.labelled_edges:
        graph.insert_edge(u, v)
    for u, v, label in snapshot.labelled_edges:
        if label is None:  # graph-only edge (out of labelling scope)
            continue
        edge = canonical_edge(u, v)
        elm.labels[edge] = label
        tau = tracking_threshold(graph, u, v, snapshot.params)
        elm.tracker.track(u, v, tau)
    elm.updates_processed = snapshot.updates_processed
    return elm


def restore_dynstrclu(
    snapshot: StateSnapshot,
    connectivity_backend: str = "hdt",
    **kwargs,
) -> DynStrClu:
    """Rebuild a :class:`DynStrClu` instance (ELM + vAuxInfo + CC-Str) from a snapshot.

    The restored instance produces exactly the clustering that was
    maintained when the snapshot was taken and continues to accept updates.

    Example
    -------
    >>> from repro import DynStrClu, StrCluParams
    >>> algo = DynStrClu(StrCluParams(epsilon=0.5, mu=2, rho=0.0))
    >>> for e in [(1, 2), (2, 3), (1, 3), (3, 4)]:
    ...     _ = algo.insert_edge(*e)
    >>> restored = restore_dynstrclu(take_snapshot(algo))
    >>> restored.clustering().as_frozen() == algo.clustering().as_frozen()
    True
    """
    algo = DynStrClu(
        snapshot.params, connectivity_backend=connectivity_backend, **kwargs
    )
    # --- ELM (kwargs forwarded so a ``scope`` predicate survives restore) ---
    elm_kwargs = {
        key: value
        for key, value in kwargs.items()
        if key in ("oracle", "counter", "scope", "graph")
    }
    restored_elm = restore_dynelm(snapshot, **elm_kwargs)
    algo.elm = restored_elm

    # --- vAuxInfo and the core set ------------------------------------------
    mu = snapshot.params.mu
    similar_edges = [
        (u, v) for u, v, label in snapshot.labelled_edges if label is EdgeLabel.SIMILAR
    ]
    sim_counts: Dict[Vertex, int] = {}
    for u, v in similar_edges:
        sim_counts[u] = sim_counts.get(u, 0) + 1
        sim_counts[v] = sim_counts.get(v, 0) + 1
    cores = {v for v, count in sim_counts.items() if count >= mu}
    algo.cores = set(cores)
    for u, v in similar_edges:
        algo.aux.update_similar_edge(u, v, u in cores, v in cores)

    # --- CC-Str(G_core) -----------------------------------------------------
    for core in cores:
        algo.cc.add_vertex(core)
    for u, v in similar_edges:
        if u in cores and v in cores:
            algo.cc.insert_edge(u, v)
    return algo


# ----------------------------------------------------------------------
# vertex / parameter (de)serialisation helpers
# ----------------------------------------------------------------------
def _vertex_to_json(v: Vertex) -> object:
    if isinstance(v, bool):  # bool is an int subclass; refuse the ambiguity
        raise SnapshotError("boolean vertex identifiers are not supported")
    if isinstance(v, (int, str)):
        return v
    raise SnapshotError(
        f"vertex identifiers must be ints or strings for snapshots, got {type(v).__name__}"
    )


def _vertex_from_json(value: object) -> Vertex:
    if isinstance(value, (int, str)):
        return value
    raise SnapshotError(f"malformed vertex identifier {value!r} in snapshot")


def _params_to_document(params: StrCluParams) -> Dict[str, object]:
    return {
        "epsilon": params.epsilon,
        "mu": params.mu,
        "rho": params.rho,
        "delta_star": params.delta_star,
        "similarity": params.similarity.value,
        "seed": params.seed,
        "max_samples": params.max_samples,
    }


def _params_from_document(document: Dict[str, object]) -> StrCluParams:
    return StrCluParams(
        epsilon=float(document["epsilon"]),
        mu=int(document["mu"]),
        rho=float(document["rho"]),
        delta_star=float(document["delta_star"]),
        similarity=SimilarityKind(document["similarity"]),
        seed=int(document.get("seed", 0)),
        max_samples=(
            None if document.get("max_samples") is None else int(document["max_samples"])
        ),
    )
