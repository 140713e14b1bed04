"""Addressable binary min-heap used for ``DtHeap(u)``.

Section 5.2 of the paper organises, for every vertex ``u``, one heap entry
per incident tracked edge, keyed by the *shifted checkpoint*
``c_hat_u(u, v)``.  Processing an update only touches the entries whose key
equals the shared counter ``s_u`` (the *checkpoint-ready* entries), so the
heap must support:

* ``push`` / ``remove`` of an arbitrary entry (edges appear and disappear),
* ``peek_min`` to find checkpoint-ready entries,
* ``increase_key`` when a checkpoint is pushed forward by one slack,

each in ``O(log d[u])`` time.  The implementation is a classic binary heap
that stores each entry's position so that arbitrary-entry operations are
possible without lazy deletion.

Only slack-mode rounds (remaining τ > 8) reach a heap; the tracker's counter
lane serves the rest.  Under Jaccard, τ = ⌊½ρε·d_max⌋ + 1
(:func:`~repro.core.affordability.tracking_threshold`), so at ε = 0.2 and
hot-start degrees no registry graph reaches a heap at ρ ≤ 0.1 or under
cosine; at ρ = 0.5 only ``dense`` does (d_max 250); at ρ = 0.9 ``wiki``,
``twitter``, ``pokec``, ``skitter`` and ``dense`` do.
"""

from __future__ import annotations

from typing import Generic, Hashable, List, Optional, TypeVar

PayloadT = TypeVar("PayloadT", bound=Hashable)


class DtHeapEntry(Generic[PayloadT]):
    """One heap entry: a tracked edge incident on the heap's vertex.

    Attributes
    ----------
    payload:
        Caller-supplied identity (the canonical edge).
    key:
        The shifted checkpoint ``c_hat``; the entry is *checkpoint-ready*
        when ``key`` equals the vertex's shared counter.
    round_start:
        The value of the shared counter when the current DT round started
        (``s_bar_u(v)`` in the paper); the participant's exact in-round count
        is ``s_u - round_start``.
    """

    __slots__ = ("payload", "key", "round_start", "_pos")

    def __init__(self, payload: PayloadT, key: int, round_start: int) -> None:
        self.payload = payload
        self.key = key
        self.round_start = round_start
        self._pos: int = -1

    @property
    def in_heap(self) -> bool:
        """True while the entry is stored in some :class:`DtHeap`."""
        return self._pos >= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DtHeapEntry({self.payload!r}, key={self.key}, round_start={self.round_start})"


class DtHeap(Generic[PayloadT]):
    """Addressable binary min-heap of :class:`DtHeapEntry` objects keyed by ``key``."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: List[DtHeapEntry[PayloadT]] = []

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def entries(self) -> List[DtHeapEntry[PayloadT]]:
        """Return a snapshot list of the entries (arbitrary order)."""
        return list(self._items)

    # ------------------------------------------------------------------
    # primitive sift operations
    # ------------------------------------------------------------------
    def _swap(self, i: int, j: int) -> None:
        items = self._items
        items[i], items[j] = items[j], items[i]
        items[i]._pos = i
        items[j]._pos = j

    def _sift_up(self, i: int) -> None:
        items = self._items
        while i > 0:
            parent = (i - 1) // 2
            if items[i].key < items[parent].key:
                self._swap(i, parent)
                i = parent
            else:
                break

    def _sift_down(self, i: int) -> None:
        items = self._items
        n = len(items)
        while True:
            left = 2 * i + 1
            right = left + 1
            smallest = i
            if left < n and items[left].key < items[smallest].key:
                smallest = left
            if right < n and items[right].key < items[smallest].key:
                smallest = right
            if smallest == i:
                break
            self._swap(i, smallest)
            i = smallest

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def push(self, entry: DtHeapEntry[PayloadT]) -> None:
        """Insert ``entry``; it must not already live in a heap."""
        if entry.in_heap:
            raise ValueError("entry is already stored in a heap")
        entry._pos = len(self._items)
        self._items.append(entry)
        self._sift_up(entry._pos)

    def peek_min(self) -> Optional[DtHeapEntry[PayloadT]]:
        """Return the entry with the smallest key, or ``None`` when empty."""
        return self._items[0] if self._items else None

    def pop_min(self) -> DtHeapEntry[PayloadT]:
        """Remove and return the entry with the smallest key."""
        if not self._items:
            raise IndexError("pop from an empty DtHeap")
        top = self._items[0]
        self.remove(top)
        return top

    def remove(self, entry: DtHeapEntry[PayloadT]) -> None:
        """Remove an arbitrary ``entry`` currently stored in this heap."""
        pos = entry._pos
        if pos < 0 or pos >= len(self._items) or self._items[pos] is not entry:
            raise ValueError("entry is not stored in this heap")
        last = self._items.pop()
        entry._pos = -1
        if last is entry:
            return
        last._pos = pos
        self._items[pos] = last
        self._sift_down(pos)
        self._sift_up(pos)

    def update_key(self, entry: DtHeapEntry[PayloadT], new_key: int) -> None:
        """Change ``entry.key`` to ``new_key`` and restore the heap order."""
        pos = entry._pos
        if pos < 0 or pos >= len(self._items) or self._items[pos] is not entry:
            raise ValueError("entry is not stored in this heap")
        old_key = entry.key
        entry.key = new_key
        if new_key < old_key:
            self._sift_up(pos)
        elif new_key > old_key:
            self._sift_down(pos)

    def check_invariant(self) -> bool:
        """Return True when the heap-order and position invariants hold (testing aid)."""
        items = self._items
        for i, entry in enumerate(items):
            if entry._pos != i:
                return False
            left, right = 2 * i + 1, 2 * i + 2
            if left < len(items) and items[left].key < entry.key:
                return False
            if right < len(items) and items[right].key < entry.key:
                return False
        return True
