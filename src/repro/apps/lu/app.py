"""LU application threads.

Parallelization follows the paper (Section 2.2): columns are statically
assigned to the processes in an interleaved fashion and allocated from
shared memory local to the owning process's node.  Each process waits
until a pivot column has been produced (one ANL event/flag per column —
these waits populate the lock column of Table 2), then uses it to modify
the columns it owns; a process that finishes normalizing a column
releases all waiters by setting the column's flag.

Prefetch annotation (Section 5.2): each time the pivot column is applied
to an owned column, the pivot column is prefetched read-shared and the
owned column read-exclusive, with the prefetches evenly distributed
through the element loop to avoid hot-spotting.  Re-prefetching the
pivot column for every target column is redundant work that pays for
itself by covering pivot-column replacement misses — the paper reaches
an 89% coverage factor with 8 added source lines.
"""

from __future__ import annotations

from typing import List

from repro.apps import base
from repro.apps.lu.config import LUConfig
from repro.apps.lu.kernel import apply_pivot, generate_matrix, normalize_column
from repro.memlayout import Region, SharedMemoryAllocator
from repro.tango import ops as O
from repro.tango.program import ProcessEnv, Program


class LUWorld:
    """Shared state of one LU run: the matrix plus its memory layout."""

    def __init__(
        self, config: LUConfig, allocator: SharedMemoryAllocator, num_processes: int
    ) -> None:
        self.config = config
        self.num_processes = num_processes
        self.columns = generate_matrix(config.n, config.seed)

        n = config.n
        self.owned: List[range] = [
            base.interleaved_indices(n, p, num_processes)
            for p in range(num_processes)
        ]
        self.column_regions: List[Region] = []
        for p in range(num_processes):
            count = max(1, len(self.owned[p]))
            node = p % allocator.num_nodes
            self.column_regions.append(
                allocator.alloc_local(
                    f"lu.columns.{p}", count * n * config.element_bytes, node
                )
            )
        # One flag per placement page: spreads the per-column events over
        # all homes, as the full-size data set's 4KB pages would.
        self.page_bytes = allocator.page_bytes
        self.flag_region = allocator.alloc_round_robin(
            "lu.flags", n * self.page_bytes
        )
        self.sync_region = allocator.alloc_round_robin(
            "lu.sync", 2 * self.page_bytes
        )
        # Element (i, j) lives at ``col_base[j] + i * element_bytes``.
        # Both ends of every column are bounds-checked here, once; the
        # threads only ever emit row indices in ``range(n)``, so every
        # address they form stays inside a checked extent.
        element_bytes = config.element_bytes
        self.col_base: List[int] = []
        for j in range(n):
            region = self.column_regions[j % num_processes]
            offset = (j // num_processes) * n * element_bytes
            region.addr(offset + (n - 1) * element_bytes)
            self.col_base.append(region.addr(offset))

    # -- address helpers -----------------------------------------------------

    def flag_addr(self, k: int) -> int:
        return self.flag_region.addr(k * self.page_bytes)

    def barrier_addr(self, which: int) -> int:
        return self.sync_region.addr(which * self.page_bytes)


def _lu_thread(world: LUWorld, env: ProcessEnv, mode: base.PrefetchMode):
    prefetching = mode is not base.PrefetchMode.OFF
    prefetch_local = mode is base.PrefetchMode.FULL
    config = world.config
    columns = world.columns
    col_base = world.col_base
    eb = config.element_bytes
    n = config.n
    me = env.process_id
    nproc = env.num_processes
    line = 16
    per_line = max(1, line // eb)
    distance = max(1, config.prefetch_distance_lines)

    yield (O.BARRIER, world.barrier_addr(0), nproc)

    for k in range(n):
        # Column k's base; element (i, k) is at ``ck + i * eb``.
        ck = col_base[k]
        if k % nproc == me:
            # Produce pivot column k: normalize its subdiagonal.
            normalize_column(columns, k)
            yield (O.READ, ck + k * eb)
            for i in range(k + 1, n):
                addr = ck + i * eb
                yield (O.READ, addr)
                yield (O.WRITE, addr)
                yield (O.BUSY, config.normalize_busy)
            yield (O.FLAG_SET, world.flag_addr(k))
        if k == n - 1:
            break
        # Everyone (owner included, as with ANL events) synchronizes on
        # the column's flag before consuming it.
        yield (O.FLAG_WAIT, world.flag_addr(k))

        targets = [j for j in world.owned[me] if j > k]
        for position, j in enumerate(targets):
            cj = col_base[j]
            apply_pivot(columns, k, j)
            if prefetching and position == 0:
                # Cold start for this pivot step: prime the pivot column
                # and the first owned column.
                for lead in range(0, distance * per_line, per_line):
                    if k + 1 + lead < n:
                        yield (O.PREFETCH, ck + (k + 1 + lead) * eb, False)
                        if prefetch_local:
                            yield (O.PREFETCH, cj + (k + 1 + lead) * eb, True)
            next_column = targets[position + 1] if position + 1 < len(targets) else None
            # Software-pipeline point: while finishing this column, fetch
            # the start of the next one so its first lines arrive in time.
            pipeline_i = max(k + 1, n - distance * per_line)
            yield (O.READ, cj + k * eb)
            for i in range(k + 1, n):
                if prefetching and (i - k - 1) % per_line == 0:
                    # Evenly distributed, `distance` lines ahead: pivot
                    # column read-shared, owned column read-exclusive.
                    ahead = i + distance * per_line
                    if ahead < n:
                        # The pivot column is remote; the owned column is
                        # node-local, so a context-aware annotation skips it.
                        yield (O.PREFETCH, ck + ahead * eb, False)
                        if prefetch_local:
                            yield (O.PREFETCH, cj + ahead * eb, True)
                if prefetch_local and i == pipeline_i and next_column is not None:
                    cn = col_base[next_column]
                    for lead in range(0, distance * per_line, per_line):
                        if k + 1 + lead < n:
                            yield (O.PREFETCH, cn + (k + 1 + lead) * eb, True)
                offset = i * eb
                addr = cj + offset
                yield (O.READ, ck + offset)
                yield (O.READ, addr)
                yield (O.WRITE, addr)
                yield (O.BUSY, config.update_busy)

    yield (O.BARRIER, world.barrier_addr(1), nproc)


def lu_program(config: LUConfig = LUConfig(), prefetching=False) -> Program:
    """Build the LU benchmark as a runnable :class:`Program`.

    ``prefetching`` accepts a bool or a :class:`~repro.apps.base.PrefetchMode`.
    """
    mode = base.prefetch_mode(prefetching)

    def setup(allocator: SharedMemoryAllocator, num_processes: int) -> LUWorld:
        return LUWorld(config, allocator, num_processes)

    def factory(world: LUWorld, env: ProcessEnv):
        return _lu_thread(world, env, mode)

    return Program("LU", setup, factory, prefetching=mode is not base.PrefetchMode.OFF)
