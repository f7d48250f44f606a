"""Per-process address spaces and reservation areas.

An :class:`Area` is one contiguous virtual reservation — for this
reproduction, typically the 8 GiB guard region backing one WebAssembly
linear memory.  It combines:

* a :class:`~repro.oskernel.vma.ProtectionMap` (the VMA structure), and
* its *populated* pages (pages with an installed PTE), held as sorted,
  disjoint, non-adjacent half-open page runs with a running page count,
  so populating or zapping a range costs O(runs touched), not O(pages).

The distinction is the crux of the paper's kernel-side story: changing
protections is a VMA operation under the exclusive ``mmap_lock``;
populating a page is a fault under the shared lock; and tearing down
populated pages requires both PTE zapping and a TLB shootdown.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.oskernel.layout import PAGE_SIZE
from repro.oskernel.vma import Prot, ProtectionMap, VmaError


def pages_in(length: int) -> int:
    """Number of base pages covering ``length`` bytes (rounded up)."""
    return -(-length // PAGE_SIZE)


@dataclass
class Area:
    """A contiguous virtual reservation within an address space."""

    start: int
    length: int
    name: str = ""
    uffd_registered: bool = False
    prot_map: ProtectionMap = field(init=False)
    #: Populated pages (indices relative to the area) as the half-open
    #: runs ``[_starts[k], _ends[k])``: sorted, disjoint and
    #: non-adjacent (``_ends[k] < _starts[k + 1]``).
    _starts: list = field(init=False, default_factory=list)
    _ends: list = field(init=False, default_factory=list)
    populated_pages: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.prot_map = ProtectionMap(self.length, Prot.NONE)

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def populated_bytes(self) -> int:
        return self.populated_pages * PAGE_SIZE

    def page_range(self, offset: int, length: int) -> range:
        if not 0 <= offset <= offset + length <= self.length:
            raise VmaError(
                f"range [{offset:#x},{offset + length:#x}) outside area {self.name!r}"
            )
        first = offset // PAGE_SIZE
        last = pages_in(offset + length)
        return range(first, last)

    def populate(self, offset: int, length: int) -> int:
        """Mark pages populated; returns how many were newly installed."""
        pages = self.page_range(offset, length)
        first, last = pages.start, pages.stop
        if first >= last:
            return 0
        starts, ends = self._starts, self._ends
        # Runs [lo, hi) overlap or abut the range; they merge into one.
        lo = bisect_left(ends, first)
        hi = bisect_right(starts, last)
        present = self._covered(lo, hi, first, last)
        if lo < hi:
            first = min(first, starts[lo])
            last = max(last, ends[hi - 1])
        starts[lo:hi] = [first]
        ends[lo:hi] = [last]
        added = len(pages) - present
        self.populated_pages += added
        return added

    def zap(self, offset: int, length: int) -> int:
        """Unpopulate pages in the range; returns how many were zapped."""
        pages = self.page_range(offset, length)
        first, last = pages.start, pages.stop
        if first >= last:
            return 0
        starts, ends = self._starts, self._ends
        # Runs [lo, hi) overlap the range; their parts outside it survive.
        lo = bisect_right(ends, first)
        hi = bisect_left(starts, last)
        if lo >= hi:
            return 0
        zapped = self._covered(lo, hi, first, last)
        kept_starts, kept_ends = [], []
        if starts[lo] < first:
            kept_starts.append(starts[lo])
            kept_ends.append(first)
        if ends[hi - 1] > last:
            kept_starts.append(last)
            kept_ends.append(ends[hi - 1])
        starts[lo:hi] = kept_starts
        ends[lo:hi] = kept_ends
        self.populated_pages -= zapped
        return zapped

    def zap_all(self) -> int:
        zapped = self.populated_pages
        self._starts.clear()
        self._ends.clear()
        self.populated_pages = 0
        return zapped

    def _covered(self, lo: int, hi: int, first: int, last: int) -> int:
        """Pages of ``[first, last)`` that runs ``lo`` to ``hi - 1`` hold."""
        starts, ends = self._starts, self._ends
        return sum(
            min(ends[k], last) - max(starts[k], first) for k in range(lo, hi)
        )


class AddressSpace:
    """All reservations of one process, plus a simple placement policy."""

    #: Reservations start high, like mmap on Linux, and grow upwards.
    BASE_ADDRESS = 0x7F00_0000_0000

    def __init__(self) -> None:
        self._areas: dict[int, Area] = {}
        self._cursor = self.BASE_ADDRESS

    def map_area(self, length: int, name: str = "") -> Area:
        if length <= 0:
            raise VmaError(f"cannot map area of length {length}")
        # Align placement to a page boundary and leave a guard gap.
        aligned = pages_in(length) * PAGE_SIZE
        area = Area(start=self._cursor, length=aligned, name=name)
        self._areas[area.start] = area
        self._cursor += aligned + PAGE_SIZE
        return area

    def unmap_area(self, area: Area) -> int:
        """Remove a reservation; returns the number of zapped pages."""
        if area.start not in self._areas:
            raise VmaError(f"area {area.name!r} not mapped in this address space")
        del self._areas[area.start]
        return area.zap_all()

    def find_area(self, address: int) -> Optional[Area]:
        for area in self._areas.values():
            if area.start <= address < area.end:
                return area
        return None

    def areas(self) -> Iterator[Area]:
        return iter(self._areas.values())

    @property
    def vma_count(self) -> int:
        """Total protection intervals across all reservations."""
        return sum(area.prot_map.interval_count for area in self._areas.values())

    @property
    def populated_bytes(self) -> int:
        return sum(area.populated_bytes for area in self._areas.values())
