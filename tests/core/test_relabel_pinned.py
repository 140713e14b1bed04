"""Pinned work and labels of DynStrClu on a fixed stream, per ρ and similarity.

The relabel step of :class:`~repro.core.labelling.LabellingStrategy` is a
performance rewrite of the label → oracle → similarity → threshold chain,
so it must leave every label and every OpCounter total unchanged.  The
values below were recorded with that chain on the stream built here: a
planted-partition graph plus three hubs adjacent to every vertex and to
each other.  ``max_samples=2`` puts the hybrid cutoff at 40 closed
neighbours, so a hub pair (63 each before the stream) takes the sampling
branch at ρ > 0, and the cosine runs exercise the Lemma 8.2
short-circuit on hub–leaf edges.  A hub–leaf edge stays on the exact
branch.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import StrCluParams
from repro.core.dynstrclu import DynStrClu
from repro.graph.generators import planted_partition_graph
from repro.graph.similarity import SimilarityKind
from repro.instrumentation import OpCounter
from repro.workloads.updates import generate_update_sequence

COMMUNITY_VERTICES = 60
HUBS = tuple(range(COMMUNITY_VERTICES, COMMUNITY_VERTICES + 3))


def _initial_edges():
    edges = list(planted_partition_graph(4, 15, 0.5, 0.05, seed=5))
    for hub in HUBS:
        edges += [(v, hub) for v in range(COMMUNITY_VERTICES)]
    edges += [(a, b) for a in HUBS for b in HUBS if a < b]
    return edges


def run_pinned_stream(rho: float, kind: SimilarityKind):
    """Hot start plus a DR stream; returns ``(OpCounter totals, label digest)``."""
    params = StrCluParams(
        epsilon=0.4, mu=3, rho=rho, similarity=kind, seed=11, max_samples=2
    )
    edges = _initial_edges()
    workload = generate_update_sequence(
        COMMUNITY_VERTICES + len(HUBS), edges, 400, strategy="DR", eta=0.5, seed=13
    )
    counter = OpCounter()
    algo = DynStrClu(params, counter=counter)
    for update in workload.all_updates():
        algo.apply(update)
    digest = hashlib.sha256()
    for (u, v), label in sorted(algo.elm.labels.items()):
        digest.update(f"{u},{v},{label.value};".encode())
    return counter.snapshot(), digest.hexdigest()[:16]


#: (kind, ρ) -> (OpCounter totals, digest of the final label map)
PINNED = {
    ("jaccard", 0.0): (
        {
            "cc_op": 951, "dt_signal": 23496, "label_invocation": 24204,
            "neighbour_probe": 317011, "similarity_eval": 24204, "update": 865,
        },
        "c6c7c7c85e6b5a13",
    ),
    ("jaccard", 0.01): (
        {
            "cc_op": 944, "dt_signal": 23496, "label_invocation": 24204,
            "neighbour_probe": 310674, "sample": 232, "similarity_eval": 24204,
            "update": 865,
        },
        "9844f9adae57d0d0",
    ),
    ("jaccard", 0.5): (
        {
            "cc_op": 580, "dt_signal": 23496, "heap_op": 84151,
            "label_invocation": 9577, "neighbour_probe": 113796, "sample": 40,
            "similarity_eval": 9577, "update": 865,
        },
        "b6f395d4dbe2af67",
    ),
    ("cosine", 0.0): (
        {
            "cc_op": 2132, "dt_signal": 23496, "heap_op": 423,
            "label_invocation": 24157, "neighbour_probe": 316699,
            "similarity_eval": 24157, "update": 865,
        },
        "4b10ae7635007a81",
    ),
    ("cosine", 0.01): (
        {
            "cc_op": 2142, "dt_signal": 23496, "heap_op": 423,
            "label_invocation": 24157, "neighbour_probe": 308098, "sample": 232,
            "similarity_eval": 24157, "update": 865,
        },
        "4b10ae7635007a81",
    ),
    ("cosine", 0.5): (
        {
            "cc_op": 2010, "dt_signal": 23496, "heap_op": 41357,
            "label_invocation": 18477, "neighbour_probe": 231251, "sample": 84,
            "similarity_eval": 18477, "update": 865,
        },
        "bccecf31cdde3efc",
    ),
}


@pytest.mark.parametrize("rho", [0.0, 0.01, 0.5])
@pytest.mark.parametrize("kind", [SimilarityKind.JACCARD, SimilarityKind.COSINE])
def test_counts_and_labels_match_the_pinned_chain(rho, kind):
    counts, digest = run_pinned_stream(rho, kind)
    expected_counts, expected_digest = PINNED[kind.value, rho]
    assert counts == expected_counts
    assert digest == expected_digest
    if rho > 0:
        assert counts.get("sample", 0) > 0, "the hub pair must take the sampling branch"
