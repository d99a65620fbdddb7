"""MP3D application threads.

Parallelization follows the paper exactly (Section 2.2): particles are
statically divided equally among the processes, each process's particles
are allocated from shared memory local to its node, the space-cell array
is distributed uniformly, and the main synchronization is barriers
between the phases of each time step.  MP3D uses no locks (Table 2);
concurrent cell updates are unsynchronized, as in the original.

Prefetch annotation (Section 5.2): a particle record is prefetched
read-exclusively two iterations before its turn; in the following
iteration the particle is read and its space cell is determined and
prefetched read-exclusively, so both records are cached when the
particle moves.  Boundary-phase references are prefetched too.  The
paper reaches an 87% coverage factor with 16 added source lines.
"""

from __future__ import annotations

from typing import List

from repro.apps import base
from repro.apps.mp3d.config import MP3DConfig
from repro.apps.mp3d.physics import (
    FlowField,
    accumulate,
    maybe_collide,
    move_particle,
    seed_particles,
)
from repro.memlayout import Region, SharedMemoryAllocator
from repro.tango import ops as O
from repro.tango.program import ProcessEnv, Program


class MP3DWorld:
    """Shared state of one MP3D run: physics plus memory layout."""

    def __init__(
        self, config: MP3DConfig, allocator: SharedMemoryAllocator, num_processes: int
    ) -> None:
        self.config = config
        self.num_processes = num_processes
        rng = base.DeterministicRandom(config.seed).make()
        self.field = FlowField(config.space_x, config.space_y, config.space_z)
        self.particles = seed_particles(self.field, config.num_particles, rng)

        # Per-process particle partitions, allocated node-locally.
        self.partitions = [
            base.partition_indices(config.num_particles, p, num_processes)
            for p in range(num_processes)
        ]
        self.particle_regions: List[Region] = []
        for p, part in enumerate(self.partitions):
            size = max(1, len(part)) * config.particle_record_bytes
            node = p % allocator.num_nodes
            self.particle_regions.append(
                allocator.alloc_local(f"mp3d.particles.{p}", size, node)
            )
        # Space cells distributed uniformly (round-robin pages).
        self.cell_region = allocator.alloc_round_robin(
            "mp3d.cells", config.num_cells * config.cell_record_bytes
        )
        self.page_bytes = allocator.page_bytes
        self.sync_region = allocator.alloc_round_robin(
            "mp3d.sync", 4 * self.page_bytes
        )
        # Each cell record's op tuples, built once and shared by every
        # thread (the record is one line, so one address per cell).
        cell_addrs = [self.cell_addr(c) for c in range(config.num_cells)]
        self.cell_reads = [(O.READ, addr) for addr in cell_addrs]
        self.cell_writes = [(O.WRITE, addr) for addr in cell_addrs]
        self.cell_prefetches = [(O.PREFETCH, addr, True) for addr in cell_addrs]
        self.steps_completed = 0
        self.collisions = 0

    # -- address helpers ----------------------------------------------------

    def particle_lines(self, process: int, local_index: int) -> List[int]:
        return base.record_lines(
            self.particle_regions[process],
            local_index,
            self.config.particle_record_bytes,
        )

    def cell_addr(self, cell_index: int) -> int:
        return self.cell_region.addr(cell_index * self.config.cell_record_bytes)

    def barrier_addr(self, phase: int) -> int:
        return self.sync_region.addr(self.page_bytes * (phase % 4))


#: The BUSY ops MP3D yields, shared by every thread.
_BUSY3 = (O.BUSY, 3)
_BUSY4 = (O.BUSY, 4)
_BUSY5 = (O.BUSY, 5)
_BUSY6 = (O.BUSY, 6)
_BUSY8 = (O.BUSY, 8)


def _record_ops(lines: List[int]) -> tuple:
    """One particle record's op tuples: reads of its first line
    (position), its second or only line (velocity) and its last line,
    then writes of the same three lines."""
    first, second, last = lines[0], lines[min(1, len(lines) - 1)], lines[-1]
    return (
        (O.READ, first), (O.READ, second), (O.READ, last),
        (O.WRITE, first), (O.WRITE, second), (O.WRITE, last),
    )


def _mp3d_thread(world: MP3DWorld, env: ProcessEnv, mode: base.PrefetchMode):
    """One MP3D process: move my particles each step, then help reset
    the cell statistics, with barriers between phases."""
    prefetching = mode is not base.PrefetchMode.OFF
    prefetch_local = mode is base.PrefetchMode.FULL
    config = world.config
    field = world.field
    particles = world.particles
    mine = list(world.partitions[env.process_id])
    rng = base.DeterministicRandom(config.seed).make(stream=env.process_id + 1)
    nproc = env.num_processes
    my_cells = base.partition_indices(config.num_cells, env.process_id, nproc)
    cell_reads = world.cell_reads
    cell_writes = world.cell_writes
    cell_prefetches = world.cell_prefetches
    # My particle records' op tuples, by position in ``mine``, built
    # once: every time step replays the same addresses.
    record_ops = []
    record_prefetches = []
    for position in range(len(mine)):
        lines = world.particle_lines(env.process_id, position)
        record_ops.append(_record_ops(lines))
        if prefetch_local:
            record_prefetches.append(tuple((O.PREFETCH, addr, True) for addr in lines))

    yield (O.BARRIER, world.barrier_addr(0), nproc)

    for step in range(config.time_steps):
        # ---- move phase -------------------------------------------------
        for position, i in enumerate(mine):
            if prefetching:
                # Particle i+2's record, two iterations ahead (read-ex).
                # Particle records are node-local: a context-aware
                # annotation leaves them to the other contexts.
                if prefetch_local and position + 2 < len(mine):
                    yield from record_prefetches[position + 2]
                # Read the next particle's header and prefetch its cell.
                if position + 1 < len(mine):
                    yield record_ops[position + 1][0]
                    yield cell_prefetches[field.cell_index(particles[mine[position + 1]])]

            p = particles[i]
            read_pos, read_vel, read_last, write_pos, write_vel, write_last = (
                record_ops[position]
            )
            # Field-level walk over the particle record: position, then
            # velocity (records straddle lines, so both halves appear).
            yield read_pos
            yield read_vel
            yield _BUSY4
            yield read_vel
            yield read_last
            yield _BUSY6

            cell_index = move_particle(field, p)
            # Boundary handling walks position and velocity per axis,
            # then writes the new position back.
            yield read_pos
            yield read_vel
            yield _BUSY3
            yield write_pos
            yield write_vel
            yield _BUSY4
            yield read_last
            yield write_last
            yield read_pos
            yield _BUSY5

            cell = field.cells[cell_index]
            read_cell = cell_reads[cell_index]
            write_cell = cell_writes[cell_index]
            # Cell statistics: the population word, then each momentum
            # component read-modify-written in turn.
            yield read_cell
            accumulate(cell, p)
            yield read_cell
            yield read_vel
            yield read_cell
            yield write_cell
            yield read_last
            yield read_cell
            yield write_cell
            yield _BUSY5

            if maybe_collide(cell, p, rng, config.collision_scale):
                world.collisions += 1
                # Collision reads the reservoir and rewrites velocities.
                yield read_cell
                yield read_last
                yield write_last
                yield write_cell
                yield _BUSY8

        yield (O.BARRIER, world.barrier_addr(1), nproc)

        # ---- cell statistics reset phase ----------------------------------
        for c in my_cells:
            if prefetching:
                yield cell_prefetches[c]
            yield cell_reads[c]
            field.cells[c].reset_statistics()
            yield cell_writes[c]
            yield _BUSY3

        yield (O.BARRIER, world.barrier_addr(2), nproc)
        if env.process_id == 0:
            world.steps_completed += 1

    yield (O.BARRIER, world.barrier_addr(3), nproc)


def mp3d_program(config: MP3DConfig = MP3DConfig(), prefetching=False) -> Program:
    """Build the MP3D benchmark as a runnable :class:`Program`.

    ``prefetching`` accepts a bool or a :class:`~repro.apps.base.PrefetchMode`.
    """
    mode = base.prefetch_mode(prefetching)

    def setup(allocator: SharedMemoryAllocator, num_processes: int) -> MP3DWorld:
        return MP3DWorld(config, allocator, num_processes)

    def factory(world: MP3DWorld, env: ProcessEnv):
        return _mp3d_thread(world, env, mode)

    return Program("MP3D", setup, factory, prefetching=mode is not base.PrefetchMode.OFF)
