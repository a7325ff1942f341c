"""Record identifiers and RID-list helpers.

A RID names a record by (page number, slot). Jscan (Section 6) manipulates
RID lists heavily: building them from index scans, intersecting them through
filters, sorting them for page-clustered final fetches. Yao's formula
estimates how many distinct pages a sorted RID fetch will touch, which is the
"projected second stage cost" used by the two-stage competition.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Iterator, NamedTuple


class RID(NamedTuple):
    """A record identifier: heap page number and slot within the page."""

    page: int
    slot: int

    def encode(self, slots_per_page: int = 1 << 16) -> int:
        """Pack into a single integer (for hashing into bitmap filters)."""
        return self.page * slots_per_page + self.slot

    @classmethod
    def decode(cls, value: int, slots_per_page: int = 1 << 16) -> "RID":
        """Inverse of :meth:`encode`."""
        return cls(value // slots_per_page, value % slots_per_page)


class SortedRidBuffer:
    """An in-memory, always-sorted RID list with membership tests.

    This is the "in-buffer sorted RID list" filter of Section 6, used when a
    RID list is small enough to stay in main memory. Insertion keeps order so
    the final fetch stage can walk pages monotonically without a sort.
    """

    __slots__ = ("_rids",)

    def __init__(self, rids: Iterable[RID] = ()) -> None:
        self._rids: list[RID] = sorted(rids)

    def __len__(self) -> int:
        return len(self._rids)

    def __iter__(self) -> Iterator[RID]:
        return iter(self._rids)

    def __contains__(self, rid: RID) -> bool:
        i = bisect_left(self._rids, rid)
        return i < len(self._rids) and self._rids[i] == rid

    def add(self, rid: RID) -> None:
        """Insert keeping sorted order (no-op semantics for duplicates kept:
        duplicates are allowed and preserved, matching index duplicates)."""
        insort(self._rids, rid)

    def extend(self, rids: Iterable[RID]) -> None:
        """Bulk insert."""
        for rid in rids:
            insort(self._rids, rid)

    def to_list(self) -> list[RID]:
        """Return the RIDs as a (sorted) list copy."""
        return list(self._rids)

    def intersect(self, other: "SortedRidBuffer") -> "SortedRidBuffer":
        """Sorted-merge intersection of two buffers."""
        result: list[RID] = []
        a, b = self._rids, other._rids
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i] == b[j]:
                result.append(a[i])
                i += 1
                j += 1
            elif a[i] < b[j]:
                i += 1
            else:
                j += 1
        out = SortedRidBuffer()
        out._rids = result
        return out

    def union(self, other: "SortedRidBuffer") -> "SortedRidBuffer":
        """Sorted-merge union (duplicates collapsed)."""
        result: list[RID] = []
        a, b = self._rids, other._rids
        i = j = 0
        while i < len(a) or j < len(b):
            if j >= len(b) or (i < len(a) and a[i] <= b[j]):
                candidate = a[i]
                i += 1
                if j < len(b) and b[j] == candidate:
                    j += 1
            else:
                candidate = b[j]
                j += 1
            if not result or result[-1] != candidate:
                result.append(candidate)
        out = SortedRidBuffer()
        out._rids = result
        return out

    def distinct_pages(self) -> int:
        """Number of distinct heap pages referenced."""
        return len({rid.page for rid in self._rids})


def yao_pages_touched(total_pages: int, records_per_page: int, k: int) -> float:
    """Yao's formula: expected distinct pages touched fetching ``k`` records.

    Given a table of ``m = total_pages`` pages with ``d = records_per_page``
    records each (``n = m * d`` records in all), selecting ``k`` records
    uniformly without replacement misses a given page with probability
    ``C(n - d, k) / C(n, k)``, so on average ``m * (1 - C(n - d, k) / C(n, k))``
    pages are touched. This is the engine's estimate for the cost of a
    sorted RID-list fetch (the "second stage" of Jscan's two-stage
    competition).

    The ratio is exact in either of its two product forms;
    ``C(n - k, d) / C(n, d) = prod_{j=0..d-1} (n - k - j) / (n - j)`` is used
    because it has ``d`` factors rather than ``k``, so a call costs
    O(records_per_page) however large ``k`` grows. Every factor falls as
    ``k`` grows, so the result never decreases in ``k``. Once
    ``k > n - d`` no page can be missed and the result is ``m``. A
    fractional ``k`` counts as its integer part.
    """
    k = int(k)
    if total_pages <= 0 or k <= 0:
        return 0.0
    m = float(total_pages)
    n = total_pages * records_per_page
    if k > n - records_per_page:
        return m
    missed = 1.0
    for j in range(records_per_page):
        missed *= (n - k - j) / (n - j)
    return m * (1.0 - missed)
