"""Unit tests for address helpers and the shared-memory allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.memlayout import (
    SharedMemoryAllocator,
    align_up,
    line_of,
    lines_spanned,
)


def test_line_of():
    assert line_of(0, 16) == 0
    assert line_of(15, 16) == 0
    assert line_of(16, 16) == 16
    assert line_of(37, 16) == 32


def test_align_up():
    assert align_up(0, 16) == 0
    assert align_up(1, 16) == 16
    assert align_up(16, 16) == 16
    assert align_up(17, 4096) == 4096


def test_lines_spanned():
    assert list(lines_spanned(0, 16, 16)) == [0]
    assert list(lines_spanned(8, 16, 16)) == [0, 16]
    assert list(lines_spanned(0, 36, 16)) == [0, 16, 32]
    with pytest.raises(ValueError):
        lines_spanned(0, 0, 16)


def test_local_allocation_homes_all_pages_at_node():
    allocator = SharedMemoryAllocator(num_nodes=4, page_bytes=512)
    region = allocator.alloc_local("data", 2000, node=2)
    for offset in range(0, region.size, 256):
        assert allocator.home_of(region.addr(offset)) == 2


def test_round_robin_rotates_homes():
    allocator = SharedMemoryAllocator(num_nodes=4, page_bytes=512)
    region = allocator.alloc_round_robin("data", 4 * 512)
    homes = [allocator.home_of(region.base + page * 512) for page in range(4)]
    assert homes == [0, 1, 2, 3]


def test_round_robin_continues_across_regions():
    allocator = SharedMemoryAllocator(num_nodes=4, page_bytes=512)
    allocator.alloc_round_robin("a", 512)          # page -> node 0
    region_b = allocator.alloc_round_robin("b", 512)  # page -> node 1
    assert allocator.home_of(region_b.base) == 1


def test_striped_allocation():
    allocator = SharedMemoryAllocator(num_nodes=2, page_bytes=512)
    region = allocator.alloc_striped("s", 4 * 512, stride_pages=2)
    homes = [allocator.home_of(region.base + page * 512) for page in range(4)]
    assert homes == [0, 0, 1, 1]


def test_regions_do_not_overlap():
    allocator = SharedMemoryAllocator(num_nodes=2, page_bytes=512)
    a = allocator.alloc_local("a", 700, node=0)
    b = allocator.alloc_local("b", 700, node=1)
    assert a.end <= b.base


def test_region_bounds_checked():
    allocator = SharedMemoryAllocator(num_nodes=2, page_bytes=512)
    region = allocator.alloc_local("a", 100, node=0)
    with pytest.raises(IndexError):
        region.addr(100)
    with pytest.raises(IndexError):
        region.addr(-1)


def test_duplicate_region_names_rejected():
    allocator = SharedMemoryAllocator(num_nodes=2, page_bytes=512)
    allocator.alloc_local("a", 100, node=0)
    with pytest.raises(ValueError):
        allocator.alloc_local("a", 100, node=1)


def test_unmapped_address_raises():
    allocator = SharedMemoryAllocator(num_nodes=2, page_bytes=512)
    with pytest.raises(KeyError, match="is not in any allocated region"):
        allocator.home_of(10**9)


def test_region_of():
    allocator = SharedMemoryAllocator(num_nodes=2, page_bytes=512)
    a = allocator.alloc_local("a", 100, node=0)
    assert allocator.region_of(a.base) is a
    assert allocator.region_of(10**9) is None


def test_total_allocated():
    allocator = SharedMemoryAllocator(num_nodes=2, page_bytes=512)
    allocator.alloc_local("a", 100, node=0)
    allocator.alloc_round_robin("b", 300)
    assert allocator.total_allocated == 400


@given(
    st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=20),
    st.integers(min_value=1, max_value=8),
)
def test_property_every_allocated_byte_has_a_home(sizes, num_nodes):
    allocator = SharedMemoryAllocator(num_nodes=num_nodes, page_bytes=256)
    regions = [
        allocator.alloc_round_robin(f"r{i}", size) for i, size in enumerate(sizes)
    ]
    for region in regions:
        for offset in (0, region.size // 2, region.size - 1):
            home = allocator.home_of(region.addr(offset))
            assert 0 <= home < num_nodes
