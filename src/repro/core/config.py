"""Structural-clustering parameters and their validation.

The algorithms are governed by four user parameters (paper Sections 2-6):

* ``epsilon`` — similarity threshold, in ``(0, 1]``;
* ``mu`` — core threshold (minimum number of similar neighbours), ``>= 1``;
* ``rho`` — approximation slack, in ``[0, min(1, 1/epsilon - 1))``; ``rho = 0``
  demands exact labels;
* ``delta_star`` — overall failure probability of the maintained labelling
  over an entire update sequence.

``similarity`` selects Jaccard (default) or cosine structural similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.graph.similarity import SimilarityKind


@dataclass(frozen=True)
class StrCluParams:
    """Validated parameter bundle shared by every algorithm in the library.

    Example
    -------
    >>> params = StrCluParams(epsilon=0.3, mu=3, rho=0.01)
    >>> params.delta_schedule(1)  # doctest: +ELLIPSIS
    0.000...
    """

    epsilon: float = 0.2
    mu: int = 5
    rho: float = 0.01
    delta_star: float = 0.001
    similarity: SimilarityKind = SimilarityKind.JACCARD
    seed: int = 0
    #: optional cap on the per-invocation sample size of the estimator (the
    #: theoretical L_i grows with ln(i)).  A sampled label keeps its δ_i
    #: bound only while the cap reaches the uncapped L_i; at ρ ≤ 0.1 with
    #: ε ∈ {0.2, 0.5} the default 2048 does not, and the paper's pure
    #: sampler at ρ = 0.01 left 1.2–1.6% of labels outside the ρ-band.  The
    #: hybrid oracle computes σ exactly on every edge with a small enough
    #: endpoint, so the cap only binds on edges between two hubs (see the
    #: :mod:`repro.core.estimator` docstring).
    max_samples: Optional[int] = 2048

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.mu < 1 or int(self.mu) != self.mu:
            raise ValueError(f"mu must be a positive integer, got {self.mu}")
        rho_upper = min(1.0, 1.0 / self.epsilon - 1.0)
        # rho = 0 (exact mode) is always admissible, even when the open range
        # [0, rho_upper) collapses because epsilon = 1
        rho_valid = self.rho == 0.0 or 0.0 <= self.rho < rho_upper
        if not rho_valid:
            raise ValueError(
                f"rho must be in [0, {rho_upper}) for epsilon={self.epsilon}, got {self.rho}"
            )
        if not 0.0 < self.delta_star < 1.0:
            raise ValueError(f"delta_star must be in (0, 1), got {self.delta_star}")
        if not isinstance(self.similarity, SimilarityKind):
            object.__setattr__(self, "similarity", SimilarityKind(self.similarity))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def delta_estimate(self) -> float:
        """The estimator accuracy ``Δ = ρ ε / 2`` used by the (½ρε, δ)-strategy."""
        return 0.5 * self.rho * self.epsilon

    @property
    def exact_mode(self) -> bool:
        """True when ``rho == 0``: labels must be exact, no sampling slack exists."""
        return self.rho == 0.0

    def delta_schedule(self, invocation: int) -> float:
        """Failure probability ``δ_i = δ* / (i (i + 1))`` of the i-th strategy invocation.

        The telescoping sum of the schedule over all invocations is below
        ``δ*`` (paper Eq. (3) and Lemma 6.5).
        """
        if invocation < 1:
            raise ValueError("invocation index starts at 1")
        return self.delta_star / (invocation * (invocation + 1))

    def jaccard_sample_size(self, invocation: int) -> int:
        """Sample size ``L_i`` of the i-th invocation under Jaccard (paper Eq. (4))."""
        delta_i = self.delta_schedule(invocation)
        width = self.delta_estimate
        if width <= 0.0:
            raise ValueError("sampling is undefined in exact mode (rho = 0)")
        samples = math.ceil(2.0 / (width * width) * math.log(2.0 / delta_i))
        return self._cap(samples)

    def cosine_sample_size(self, invocation: int) -> int:
        """Sample size of the i-th invocation under cosine (paper Theorem 8.3)."""
        delta_i = self.delta_schedule(invocation)
        width = self.delta_estimate
        if width <= 0.0:
            raise ValueError("sampling is undefined in exact mode (rho = 0)")
        eps = self.epsilon
        factor = (eps * eps + 1.0) ** 2 / (8.0 * eps * eps * width * width)
        samples = math.ceil(factor * math.log(2.0 / delta_i))
        return self._cap(samples)

    def sample_size(self, invocation: int) -> int:
        """Dispatch to the sample size of the configured similarity."""
        if self.similarity is SimilarityKind.JACCARD:
            return self.jaccard_sample_size(invocation)
        return self.cosine_sample_size(invocation)

    def _cap(self, samples: int) -> int:
        if self.max_samples is not None:
            return max(1, min(samples, self.max_samples))
        return max(1, samples)

    def with_similarity(self, similarity: SimilarityKind | str) -> "StrCluParams":
        """Return a copy of the parameters with a different similarity kind."""
        return replace(self, similarity=SimilarityKind(similarity))

    def with_rho(self, rho: float) -> "StrCluParams":
        """Return a copy of the parameters with a different approximation slack."""
        return replace(self, rho=rho)

    def with_epsilon(self, epsilon: float) -> "StrCluParams":
        """Return a copy of the parameters with a different similarity threshold."""
        return replace(self, epsilon=epsilon)


#: Default parameter bundle used throughout examples and benchmarks.
DEFAULT_PARAMS = StrCluParams()
