"""Adjusted Rand Index between two partitions.

The paper quantifies the overall quality of an approximate clustering by the
ARI (Hubert & Arabie, 1985) between the disjoint cluster assignments derived
from the approximate and the exact StrCluResult: non-core vertices are
assigned only to the cluster of their smallest similar core neighbour and
noise vertices are ignored (Section 9.2).  The assignment derivation lives
in :meth:`repro.core.result.Clustering.partition_assignment`; this module
implements the index itself from scratch (no sklearn dependency).
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Mapping

Vertex = Hashable


def _comb2(x: int) -> float:
    """Number of unordered pairs among ``x`` items."""
    return x * (x - 1) / 2.0


def adjusted_rand_index(
    assignment_a: Mapping[Vertex, Hashable], assignment_b: Mapping[Vertex, Hashable]
) -> float:
    """ARI between two labelled partitions, computed over their common vertices.

    Returns 1.0 when the partitions agree perfectly (including the degenerate
    case of an empty common support, where there is nothing to disagree on).
    """
    common = [v for v in assignment_a if v in assignment_b]
    if not common:
        return 1.0
    contingency: Counter = Counter()
    rows: Counter = Counter()
    cols: Counter = Counter()
    for v in common:
        a = assignment_a[v]
        b = assignment_b[v]
        contingency[(a, b)] += 1
        rows[a] += 1
        cols[b] += 1

    n = len(common)
    sum_cells = sum(_comb2(c) for c in contingency.values())
    sum_rows = sum(_comb2(c) for c in rows.values())
    sum_cols = sum(_comb2(c) for c in cols.values())
    total_pairs = _comb2(n)
    if total_pairs == 0:
        return 1.0
    expected = sum_rows * sum_cols / total_pairs
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)
