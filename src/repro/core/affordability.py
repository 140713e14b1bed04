"""Update affordability: how many affecting updates an edge label survives.

The ρ-approximate notion gives every freshly labelled edge a buffer: its
exact similarity must move by at least ``ρε`` (Jaccard) before the label can
become invalid, and each affecting update moves the similarity by a bounded
amount.  Lemmas 5.1/5.2 (Jaccard) and 8.4/8.5 (cosine) turn that into a
number of affecting updates ``k`` the edge can absorb, and DynELM tracks the
``(k + 1)``-th affecting update with a DT instance whose threshold ``τ`` is
computed here (Equations (2), (7) and (8)).
"""

from __future__ import annotations

import math

from repro.core.config import StrCluParams
from repro.graph.dynamic_graph import DynamicGraph, Vertex
from repro.graph.similarity import SimilarityKind

#: constants of the cosine-case analysis (Section 8.2/8.3)
COSINE_BALANCED_FACTOR = 0.45
COSINE_BALANCE_CUTOFF = 0.81
COSINE_UNBALANCED_FACTOR = 0.19


def jaccard_affordability(d_max: int, rho: float, epsilon: float) -> int:
    """``k = floor(½ ρ ε · d_max)`` — Lemmas 5.1 and 5.2."""
    return math.floor(0.5 * rho * epsilon * d_max)


def jaccard_threshold(d_max: int, rho: float, epsilon: float) -> int:
    """DT threshold ``τ(u, v) = floor(½ ρ ε · d_max) + 1`` — Equation (2)."""
    return jaccard_affordability(d_max, rho, epsilon) + 1


def cosine_is_balanced(d_min: int, d_max: int, epsilon: float) -> bool:
    """True when ``d_min ≥ 0.81 ε² d_max`` (the DT case of Section 8.3)."""
    return d_min >= COSINE_BALANCE_CUTOFF * epsilon * epsilon * d_max


def cosine_threshold(d_min: int, d_max: int, rho: float, epsilon: float) -> int:
    """DT threshold under cosine similarity — Equations (7) and (8).

    Balanced degrees use ``τ = floor(0.45 ρ ε² d_max) + 1``; unbalanced
    degrees (where the edge is necessarily dissimilar, Lemma 8.2) use the
    degree gap ``τ* = floor(0.19 ε² d_max) + 1``.
    """
    eps_sq = epsilon * epsilon
    if cosine_is_balanced(d_min, d_max, epsilon):
        return math.floor(COSINE_BALANCED_FACTOR * rho * eps_sq * d_max) + 1
    return math.floor(COSINE_UNBALANCED_FACTOR * eps_sq * d_max) + 1


def tracking_threshold(graph: DynamicGraph, u: Vertex, v: Vertex, params: StrCluParams) -> int:
    """DT threshold for edge ``(u, v)`` at its current degrees.

    In exact mode (ρ = 0) every affecting update may invalidate the label, so
    the threshold degenerates to 1 and DynELM re-labels the edge on every
    affecting update — the behaviour used by the correctness property tests.

    Under cosine similarity the closed neighbourhood sizes ``d[x] + 1`` are
    used for the balance test and the thresholds, consistently with the
    similarity definition used in this library (see
    :func:`repro.graph.similarity.cosine_similarity`).
    """
    du = graph.degree(u)
    dv = graph.degree(v)
    if params.similarity is SimilarityKind.JACCARD:
        return jaccard_threshold(max(du, dv), params.rho, params.epsilon)
    n_min, n_max = min(du, dv) + 1, max(du, dv) + 1
    return cosine_threshold(n_min, n_max, params.rho, params.epsilon)
