"""Shared-memory allocator with DASH-style page placement.

Applications carve the simulated shared address space into named regions.
Each region is page-aligned and placed according to a policy:

* ``local(node)`` — all pages homed at one node.  The paper's applications
  use this for per-processor data (MP3D particles, LU owned columns) to
  reduce miss penalties.
* ``round_robin()`` — pages distributed across all nodes in order, the
  simulator's default for unannotated data (Section 2.3).

The allocator records, for every page, which node is its *home* (holds
main memory and the directory entry for its lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.memlayout.address import align_up


@dataclass(frozen=True)
class Region:
    """A named, contiguous, page-aligned chunk of shared memory."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def addr(self, offset: int) -> int:
        """Address ``offset`` bytes into the region, bounds-checked."""
        if not 0 <= offset < self.size:
            raise IndexError(
                f"offset {offset} outside region {self.name!r} of size {self.size}"
            )
        return self.base + offset

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class PageTable(dict):
    """Page number -> home node.  A lookup of a page no region covers
    raises the one unallocated-address error, whether it comes through
    :meth:`SharedMemoryAllocator.home_of` or a direct index."""

    __slots__ = ("page_bytes",)

    def __init__(self, page_bytes: int) -> None:
        super().__init__()
        self.page_bytes = page_bytes

    def __missing__(self, page: int) -> int:
        raise KeyError(
            f"address {page * self.page_bytes:#x} (page {page}) is not in "
            f"any allocated region"
        )


class SharedMemoryAllocator:
    """Carves the address space into regions and assigns page homes."""

    def __init__(self, num_nodes: int, page_bytes: int = 4096) -> None:
        if num_nodes <= 0:
            raise ValueError("need at least one node")
        if page_bytes <= 0:
            raise ValueError("page size must be positive")
        self.num_nodes = num_nodes
        self.page_bytes = page_bytes
        self._next_base = page_bytes  # keep address 0 unused as a guard
        self._rr_next = 0
        #: Page number -> home node.  Mutated in place, never rebound,
        #: so the protocol's miss paths index it directly by
        #: ``line // page_bytes``.
        self.page_table = PageTable(page_bytes)
        self._regions: List[Region] = []

    # -- allocation ------------------------------------------------------

    def alloc_local(self, name: str, size: int, node: int) -> Region:
        """Allocate a region whose pages are all homed at ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        return self._alloc(name, size, lambda _page: node)

    def alloc_round_robin(self, name: str, size: int) -> Region:
        """Allocate a region whose pages rotate across all nodes."""

        def placer(_page: int) -> int:
            node = self._rr_next
            self._rr_next = (self._rr_next + 1) % self.num_nodes
            return node

        return self._alloc(name, size, placer)

    def alloc_striped(self, name: str, size: int, stride_pages: int = 1) -> Region:
        """Allocate a region striped across nodes every ``stride_pages``."""
        if stride_pages <= 0:
            raise ValueError("stride must be positive")
        counter = {"pages": 0}

        def placer(_page: int) -> int:
            node = (counter["pages"] // stride_pages) % self.num_nodes
            counter["pages"] += 1
            return node

        return self._alloc(name, size, placer)

    def _alloc(self, name: str, size: int, placer) -> Region:
        if size <= 0:
            raise ValueError("region size must be positive")
        if any(region.name == name for region in self._regions):
            raise ValueError(f"duplicate region name {name!r}")
        base = self._next_base
        padded = align_up(size, self.page_bytes)
        region = Region(name=name, base=base, size=size)
        first_page = base // self.page_bytes
        for page in range(first_page, (base + padded) // self.page_bytes):
            self.page_table[page] = placer(page)
        self._next_base = base + padded
        self._regions.append(region)
        return region

    # -- queries ---------------------------------------------------------

    def home_of(self, addr: int) -> int:
        """Home node of the page containing ``addr``."""
        return self.page_table[addr // self.page_bytes]

    def region_of(self, addr: int) -> Optional[Region]:
        """Region containing ``addr``, or None."""
        for region in self._regions:
            if region.contains(addr):
                return region
        return None

    @property
    def regions(self) -> List[Region]:
        return list(self._regions)

    @property
    def total_allocated(self) -> int:
        """Total bytes requested across regions (shared data size stat)."""
        return sum(region.size for region in self._regions)
