"""Operation counting and structure-size accounting.

The paper reports wall-clock update latencies measured on a native C++
implementation.  In pure Python the interpreter overhead dominates absolute
latencies, so in addition to wall-clock timing (via ``pytest-benchmark``)
this module provides a deterministic *cost model*: algorithms increment
named counters for the operations that dominate their asymptotic cost
(neighbourhood probes, similarity evaluations, heap operations, connectivity
operations).  The benchmark harness reports both wall-clock time and these
counters; the counters are what make the asymptotic separation between
DynELM/DynStrClu and the pSCAN/hSCAN baselines visible independently of the
interpreter.

The module also provides :class:`MemoryModel`, a structure-size accountant
used for the Table 1 reproduction: instead of process RSS (meaningless for
small synthetic graphs), each algorithm reports the number of logical
machine words its data structures hold.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator


class OpCounter:
    """A named operation counter shared by an algorithm instance.

    Counters are plain integers keyed by a short operation name, e.g.
    ``"neighbour_probe"``, ``"similarity_eval"``, ``"heap_op"``,
    ``"cc_op"``, ``"sample"``.  The counter is intentionally tiny: the hot
    paths call :meth:`add` millions of times during a benchmark run.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counts[name] += amount

    def get(self, name: str) -> int:
        """Return the current value of counter ``name`` (0 if never used)."""
        return self.counts.get(name, 0)

    def total(self) -> int:
        """Return the sum over all counters."""
        return sum(self.counts.values())

    def reset(self) -> None:
        """Zero every counter."""
        self.counts.clear()

    def snapshot(self) -> Dict[str, int]:
        """Return a plain-dict copy of the current counters."""
        return dict(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OpCounter({inner})"


class NullCounter(OpCounter):
    """An OpCounter whose :meth:`add` is a no-op.

    Used as the default so that production code paths pay (almost) nothing
    when instrumentation is not requested.
    """

    def add(self, name: str, amount: int = 1) -> None:  # noqa: D102
        return


#: Shared do-nothing counter instance; safe because it holds no state.
NULL_COUNTER = NullCounter()


@dataclass
class MemoryModel:
    """Logical structure-size accounting, in machine words.

    Every algorithm exposes a ``memory_words()`` method built on this model.
    The constants below approximate the per-element footprint the paper's
    C++ implementation would pay; the point of Table 1 is the *relative*
    footprint.  What ``benchmarks/bench_table1_memory.py`` prints with
    these constants: every method is linear in ``n + m``; DynStrClu takes
    1.2-2.1x DynELM's words (the CC structure and vAuxInfo on top); pSCAN
    takes ~0.7x DynELM; and hSCAN takes exactly DynELM's words, where the
    paper reports it at roughly 2x.
    """

    #: words per adjacency entry (vertex id + set/BST overhead)
    adjacency_entry: int = 3
    #: words per vertex record (degree, shared counter, bookkeeping)
    vertex_record: int = 4
    #: words per edge-label record
    edge_label: int = 2
    #: words per DT coordinator state (threshold, slack, signals, round)
    dt_coordinator: int = 4
    #: words per DtHeap entry (key, shared-counter snapshot, edge ref, position)
    dt_heap_entry: int = 4
    #: words per lane stamp (edge ref, shared-counter snapshot)
    dt_stamp: int = 2
    #: words per τ > 1 lane threshold (τ = 1 lane edges keep none)
    dt_lane_tau: int = 1
    #: words per similar-neighbour index entry (hSCAN-style sorted index)
    index_entry: int = 3
    #: words per connectivity-structure node (treap node / level bookkeeping)
    cc_node: int = 8
    #: words per vAuxInfo neighbour-category entry
    aux_entry: int = 2

    def words(self, **element_counts: int) -> int:
        """Combine element counts into a single word total.

        Unknown keyword names raise ``AttributeError`` so typos in callers
        fail loudly.
        """
        total = 0
        for name, count in element_counts.items():
            per_element = getattr(self, name)
            total += per_element * count
        return total


@dataclass
class Stopwatch:
    """Accumulating wall-clock stopwatch with named phases."""

    elapsed: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def measure(self, phase: str) -> Iterator[None]:
        """Accumulate wall-clock time of the ``with`` body under ``phase``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.elapsed[phase] = self.elapsed.get(phase, 0.0) + perf_counter() - start

    def total(self) -> float:
        """Return total elapsed seconds over all phases."""
        return sum(self.elapsed.values())
