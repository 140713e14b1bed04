"""Similarity oracles: the sampling (Δ, δ)-estimator and its exact counterpart.

Section 4 of the paper builds a biased sampling estimator for the Jaccard
similarity of an edge ``(u, v)``: repeat ``L`` times —

1. flip a coin ``z`` with ``Pr[z = 1] = |N[u]| / (|N[u]| + |N[v]|)``;
2. draw ``w`` uniformly from ``N[u]`` if ``z = 1`` else from ``N[v]``;
3. record ``X = 1`` iff ``w ∈ N[u] ∩ N[v]``.

Then ``E[X̄] = 2σ / (1 + σ)`` and ``σ̃ = X̄ / (2 − X̄)`` estimates ``σ`` within
``Δ`` with probability ``1 − δ`` for ``L = (2/Δ²) ln(2/δ)`` (Theorem 4.1).

Section 8.1 reuses the same random variable for cosine similarity:
``(d[u] + d[v]) X̄ / (2 sqrt(d[u] d[v]))`` estimates ``σ_c`` (Theorem 8.3),
after short-circuiting edges with ``d_min < ε² d_max`` as dissimilar
(Lemma 8.2).  Cosine formulas use the closed sizes ``|N[x]| = d[x] + 1``
throughout, as :func:`repro.graph.similarity.cosine_similarity` explains.

**The hybrid rule.**  Sampling pays ``L`` draws however small the
neighbourhoods are, while the exact similarity costs
``min(|N[u]|, |N[v]|)`` set probes.  :meth:`SamplingSimilarityOracle.similarity`
therefore returns the exact σ whenever
``min(|N[u]|, |N[v]|) ≤ exact_ratio · L`` (``exact_ratio`` defaults to
``EXACT_COST_RATIO``) and samples otherwise (the cosine short-circuit runs
first either way); the paper's pure sampler stays available as
:meth:`SamplingSimilarityOracle.estimate`, and an oracle whose
``exact_ratio`` is 0 samples every edge.  The guarantees survive the
switch:

* an exact value is a (Δ, δ)-estimate with δ = 0, so Theorem 4.1 holds
  for every call and Lemma 4.3 still makes each strategy invocation's label
  valid ρ-approximate with probability at least ``1 − δ_i``;
* the exact branch runs only when it costs at most ``EXACT_COST_RATIO · L_i``
  probes, a constant factor of the invocation's sampling cost, so the
  amortized update bound of Theorems 6.1 and 8.1 is unchanged.

**Where the rule runs.**  DynELM does not call an oracle for most labels.
:meth:`~repro.core.labelling.LabellingStrategy.relabel` reads the two
neighbourhoods once and applies the rule itself, with the cutoff
``exact_ratio · L_1`` read from the oracle it holds at call time.  The
sample size ``L_i`` is non-decreasing in the invocation index ``i`` (δ_i
falls, and the ``max_samples`` cap is monotone), so
``n_min ≤ exact_ratio · L_1`` implies ``n_min ≤ exact_ratio · L_i``: every
edge under the cutoff is one the oracle would have computed exactly, and
``L_i`` need only be computed, and the oracle called, above it.  ``i``
still advances on every label, so δ_i, the sample sizes of the sampled
invocations and Lemma 4.3 are unchanged.  In exact mode (ρ = 0) no
invocation samples, so the cutoff is unbounded.  The strategy uses the
attributes of the :class:`SimilarityOracle` protocol (``graph``,
``kind``, ``exact_ratio``, ``short_circuit_ratio``), so it charges the
same ``similarity_eval`` and ``neighbour_probe`` counts as the oracle
would, for the exact oracle and the sampling one alike.

With the hybrid, the ``max_samples`` cap of
:class:`~repro.core.config.StrCluParams` only matters on edges whose
endpoints both have more than ``EXACT_COST_RATIO · max_samples`` closed
neighbours; every other edge gets its exact similarity, which is at least as
accurate as the uncapped ``L_i`` draws.

Both oracles implement the same tiny protocol (:class:`SimilarityOracle`),
so DynELM can run with exact similarities (ρ = 0 mode, ablations) or with
the sampling estimator (the paper's configuration) interchangeably.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Protocol

from repro.graph.dynamic_graph import DynamicGraph, Vertex
from repro.graph.similarity import SimilarityKind, structural_similarity
from repro.instrumentation import NULL_COUNTER, OpCounter

#: Crossover of the hybrid rule: exact similarity is used while it needs at
#: most this many set probes per sample the estimator would draw.  Measured
#: on CPython 3.11 (shared 2-vCPU x86-64 host), neighbourhoods of 8 to 2048:
#: one draw of the sampling loop costs 0.76–1.47 µs and one probe of the
#: C-level set intersection 15–65 ns (the top of that range at degree 8,
#: where the call's fixed cost is spread over few probes), a ratio of
#: 19–49; the constant takes the low end.
EXACT_COST_RATIO = 20


class SimilarityOracle(Protocol):
    """Anything that can produce a similarity value for an edge of the graph.

    Besides :meth:`similarity`, an oracle publishes the rule by which it
    evaluates σ exactly, so that the labelling strategy can apply that rule
    inline (see "Where the rule runs" in the module docstring).  Sizes are
    closed neighbourhood sizes in ``graph``; ``n_min`` and ``n_max`` are
    the smaller and larger of the two.
    """

    graph: DynamicGraph
    kind: SimilarityKind
    #: σ is computed exactly (``n_min`` probes) when ``n_min ≤ exact_ratio · L``
    exact_ratio: float
    #: σ is reported as 0, with no probe, when ``n_min < short_circuit_ratio · n_max``
    short_circuit_ratio: float

    def similarity(self, u: Vertex, v: Vertex, num_samples: Optional[int] = None) -> float:
        """Return an (estimate of the) structural similarity of edge ``(u, v)``."""
        ...


class ExactSimilarityOracle:
    """Oracle that computes the exact similarity by intersecting neighbourhoods.

    Cost per call is ``Θ(min(d[u], d[v]))`` set probes — the cost the
    sampling estimator is designed to avoid on high-degree edges.  Used by
    the exact baselines, by ρ = 0 mode and by the estimator ablation
    benchmark.
    """

    #: every σ is exact, whatever the sample size ...
    exact_ratio = math.inf
    #: ... including the cosine edges that Lemma 8.2 settles without a probe
    short_circuit_ratio = 0.0

    def __init__(
        self,
        graph: DynamicGraph,
        kind: SimilarityKind = SimilarityKind.JACCARD,
        counter: OpCounter | None = None,
    ) -> None:
        self.graph = graph
        self.kind = SimilarityKind(kind)
        self.counter = counter if counter is not None else NULL_COUNTER

    def similarity(self, u: Vertex, v: Vertex, num_samples: Optional[int] = None) -> float:
        """Return the exact similarity; ``num_samples`` is accepted and ignored."""
        self.counter.add("similarity_eval")
        self.counter.add("neighbour_probe", min(self.graph.degree(u), self.graph.degree(v)) + 1)
        return structural_similarity(self.graph, u, v, self.kind)


class SamplingSimilarityOracle:
    """The (Δ, δ)-similarity estimator of Sections 4 and 8.1, made cost-aware.

    :meth:`similarity` applies the hybrid rule of the module docstring;
    :meth:`estimate` is the paper's sampler on its own.

    Parameters
    ----------
    graph:
        The dynamic graph; random neighbour draws use its O(1)
        ``random_closed_neighbour``.
    kind:
        Jaccard or cosine.
    epsilon:
        Only used by the cosine short-circuit of Lemma 8.2.
    rng:
        Random source (seeded by the caller for reproducibility).
    default_samples:
        Sample size used when the caller does not pass ``num_samples``.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        kind: SimilarityKind = SimilarityKind.JACCARD,
        epsilon: float = 0.2,
        rng: random.Random | None = None,
        default_samples: int = 256,
        counter: OpCounter | None = None,
    ) -> None:
        self.graph = graph
        self.kind = SimilarityKind(kind)
        self.epsilon = epsilon
        self.rng = rng if rng is not None else random.Random(0)
        self.default_samples = default_samples
        self.counter = counter if counter is not None else NULL_COUNTER
        #: the hybrid crossover; 0 makes :meth:`similarity` the pure sampler
        self.exact_ratio: float = EXACT_COST_RATIO
        #: Lemma 8.2: under cosine, ``n_min < ε² n_max`` is dissimilar
        self.short_circuit_ratio = (
            epsilon * epsilon if self.kind is SimilarityKind.COSINE else 0.0
        )

    # ------------------------------------------------------------------
    def _mean_indicator(self, u: Vertex, v: Vertex, num_samples: int) -> float:
        """Return ``X̄`` — the empirical mean of the paper's indicator variable."""
        graph = self.graph
        rng = self.rng
        nu = graph.neighbours(u)
        nv = graph.neighbours(v)
        size_u = len(nu) + 1  # |N[u]| includes u itself
        size_v = len(nv) + 1
        threshold = size_u / (size_u + size_v)
        hits = 0
        self.counter.add("sample", num_samples)
        for _ in range(num_samples):
            if rng.random() < threshold:
                w = graph.random_closed_neighbour(u, rng)
            else:
                w = graph.random_closed_neighbour(v, rng)
            # membership in N[x] means: equals x, or is adjacent to x
            in_nu = w == u or w in nu
            in_nv = w == v or w in nv
            if in_nu and in_nv:
                hits += 1
        return hits / num_samples

    def similarity(self, u: Vertex, v: Vertex, num_samples: Optional[int] = None) -> float:
        """Return ``σ(u, v)`` exactly when that is cheaper, else ``σ̃(u, v)``.

        The exact value is used when ``min(|N[u]|, |N[v]|) ≤
        exact_ratio · num_samples`` (counted as ``neighbour_probe``);
        otherwise this is :meth:`estimate` (counted as ``sample``).
        """
        return self._evaluate(u, v, num_samples, self.exact_ratio)

    def estimate(self, u: Vertex, v: Vertex, num_samples: Optional[int] = None) -> float:
        """Return the paper's sampled ``σ̃(u, v)`` (Jaccard) or ``σ̃_c(u, v)`` (cosine)."""
        return self._evaluate(u, v, num_samples, 0)

    def _evaluate(
        self, u: Vertex, v: Vertex, num_samples: Optional[int], exact_ratio: float
    ) -> float:
        samples = num_samples if num_samples is not None else self.default_samples
        if samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.counter.add("similarity_eval")
        size_u = self.graph.degree(u) + 1
        size_v = self.graph.degree(v) + 1
        n_min, n_max = min(size_u, size_v), max(size_u, size_v)
        if n_min < self.short_circuit_ratio * n_max:
            return 0.0  # the short-circuit of Lemma 8.2
        if n_min <= exact_ratio * samples:
            self.counter.add("neighbour_probe", n_min)
            return structural_similarity(self.graph, u, v, self.kind)
        mean = self._mean_indicator(u, v, samples)
        if self.kind is SimilarityKind.COSINE:
            return (size_u + size_v) * mean / (2.0 * math.sqrt(size_u * size_v))
        return mean / (2.0 - mean) if mean < 2.0 else 1.0


def hoeffding_sample_size(delta: float, accuracy: float) -> int:
    """Reference sample size ``L = (2/Δ²) ln(2/δ)`` from Theorem 4.1 (testing aid)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if accuracy <= 0.0:
        raise ValueError("accuracy must be positive")
    return math.ceil(2.0 / (accuracy * accuracy) * math.log(2.0 / delta))
