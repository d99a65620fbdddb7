"""PTHOR application threads.

A parallel distributed-time logic simulator in the mould of Soule &
Gupta's PTHOR: logic elements are statically owned by processes, each
process serves the task queue holding its activated elements, and
evaluating an element may activate fanout elements on other processes'
queues.  When a process runs out of tasks it *spins* on the queue and
the global pending-work counter — that spin time shows up as busy time,
exactly the accounting artifact the paper calls out in Section 2.2.

Within each simulated clock cycle the combinational network settles
event-driven to its (unique, DAG-guaranteed) fixpoint; flip-flops then
latch simultaneously (read phase, barrier, write phase).  The parallel
simulation is verified against the sequential reference in
:mod:`repro.apps.pthor.logicsim` — per-cycle net values must match bit
for bit.

Prefetch annotation (Section 5.2): when an element is picked from a
task queue, its record is prefetched according to the read-mostly /
modified grouping, plus the first levels of its input net list.  The
application's complex control structure keeps the coverage factor low
(the paper managed 56% with 29 added lines).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.apps import base
from repro.apps.pthor.circuit import GateType, synthesize_circuit
from repro.apps.pthor.config import PTHORConfig
from repro.apps.pthor.logicsim import default_stimulus
from repro.memlayout import Region, SharedMemoryAllocator
from repro.tango import ops as O
from repro.tango.program import ProcessEnv, Program


class PTHORWorld:
    """Shared state of one PTHOR run: circuit, values, task queues."""

    def __init__(
        self,
        config: PTHORConfig,
        allocator: SharedMemoryAllocator,
        num_processes: int,
        circuit=None,
    ) -> None:
        self.config = config
        self.num_processes = num_processes
        self.circuit = circuit or synthesize_circuit(
            num_gates=config.num_gates,
            flip_flop_fraction=config.flip_flop_fraction,
            num_primary_inputs=config.num_primary_inputs,
            levels=config.levels,
            seed=config.seed,
        )
        self.circuit.check()
        self.stimulus = default_stimulus(self.circuit)
        self.net_values: List[int] = [0] * self.circuit.num_nets

        num_gates = len(self.circuit.gates)
        self.owner = [g % num_processes for g in range(num_gates)]
        self.queues: List[Deque[int]] = [deque() for _ in range(num_processes)]
        self.scheduled = [False] * num_gates
        self.pending = 0
        self.history: List[List[int]] = []
        self.evaluations = 0

        # Memory layout: element records local to their owner, net
        # values and the pending counter distributed, per-process queue
        # records (lock word + head line) local to the serving process.
        self.element_regions: List[Region] = []
        self.queue_regions: List[Region] = []
        gates_per = [0] * num_processes
        self.local_index = [0] * num_gates
        for g in range(num_gates):
            process = self.owner[g]
            self.local_index[g] = gates_per[process]
            gates_per[process] += 1
        for p in range(num_processes):
            node = p % allocator.num_nodes
            size = max(1, gates_per[p]) * config.element_record_bytes
            self.element_regions.append(
                allocator.alloc_local(f"pthor.elements.{p}", size, node)
            )
            self.queue_regions.append(
                allocator.alloc_local(f"pthor.queue.{p}", 64, node)
            )
        #: Per-process queue lock word and head line, fixed for the run.
        self.queue_locks: List[int] = [r.addr(0) for r in self.queue_regions]
        self.queue_heads: List[int] = [r.addr(16) for r in self.queue_regions]
        self.net_region = allocator.alloc_round_robin(
            "pthor.nets", self.circuit.num_nets * config.net_bytes
        )
        self.page_bytes = allocator.page_bytes
        self.sync_region = allocator.alloc_round_robin(
            "pthor.sync", 7 * self.page_bytes
        )

    # -- address helpers -------------------------------------------------------

    def element_lines(self, gate: int) -> List[int]:
        process = self.owner[gate]
        return base.record_lines(
            self.element_regions[process],
            self.local_index[gate],
            self.config.element_record_bytes,
        )

    def net_addr(self, net: int) -> int:
        return self.net_region.addr(net * self.config.net_bytes)

    def pending_addr(self) -> int:
        return self.sync_region.addr(0)

    def barrier_addr(self, which: int) -> int:
        return self.sync_region.addr(self.page_bytes * (1 + which % 6))

    # -- scheduling (Python-side bookkeeping; callers emit the ops) --------------

    def try_schedule(self, gate: int) -> bool:
        """Mark ``gate`` activated if not already queued; True if queued."""
        if self.scheduled[gate]:
            return False
        self.scheduled[gate] = True
        self.queues[self.owner[gate]].append(gate)
        self.pending += 1
        return True

    def try_pop(self, process: int):
        """Pop the next activated element of ``process``, or None."""
        queue = self.queues[process]
        if not queue:
            return None
        gate = queue.popleft()
        self.scheduled[gate] = False
        return gate

    def finish_task(self) -> None:
        self.pending -= 1
        if self.pending < 0:
            raise RuntimeError("pending task counter went negative")


def _schedule_ops(world: PTHORWorld, gate: int):
    """Reference stream for scheduling ``gate`` onto its owner's queue."""
    owner = world.owner[gate]
    yield (O.LOCK, world.queue_locks[owner])
    yield (O.READ, world.queue_heads[owner])
    queued = world.try_schedule(gate)
    if queued:
        yield (O.WRITE, world.queue_heads[owner])
    yield (O.UNLOCK, world.queue_locks[owner])
    yield (O.BUSY, world.config.schedule_busy)


def _evaluate_ops(world: PTHORWorld, env: ProcessEnv, gate_index: int, prefetching):
    """Reference stream for evaluating one activated element."""
    config = world.config
    circuit = world.circuit
    gate = circuit.gates[gate_index]
    lines = world.element_lines(gate_index)

    if prefetching:
        # First level of the element's input net list (the record
        # itself was prefetched when the element was picked or when its
        # predecessor was being evaluated).
        for net in gate.inputs:
            yield (O.PREFETCH, world.net_addr(net), False)

    # Element record walk, mirroring PTHOR's fat element records: the
    # type and state words, the input-list pointer, one pointer
    # dereference per input (record-resident), the input net values,
    # the fanout-list pointer, and the state words again while the new
    # output event is computed.
    for addr in lines:
        yield (O.READ, addr)
    yield (O.BUSY, 4)
    for index, net in enumerate(gate.inputs):
        yield (O.READ, lines[(1 + index) % len(lines)])
        yield (O.READ, world.net_addr(net))
        yield (O.BUSY, 2)
    yield (O.READ, lines[-1])
    yield (O.READ, lines[1 % len(lines)])
    yield (O.READ, lines[0])
    yield (O.BUSY, config.evaluate_busy)

    world.evaluations += 1
    new_value = gate.evaluate(world.net_values)
    if new_value != world.net_values[gate.output]:
        world.net_values[gate.output] = new_value
        yield (O.WRITE, world.net_addr(gate.output))
        yield (O.WRITE, lines[-1])  # element state update
        yield (O.BUSY, 2)
        for fan_index in gate.fanout:
            if circuit.gates[fan_index].gate_type is GateType.DFF:
                continue
            yield from _schedule_ops(world, fan_index)

    # Task complete.  The pending-work bookkeeping itself rides on the
    # queue-head updates already emitted; only the idle-loop's deadlock
    # probe touches the global counter line.
    world.finish_task()


def _pthor_thread(world: PTHORWorld, env: ProcessEnv, mode: base.PrefetchMode):
    prefetching = mode is not base.PrefetchMode.OFF
    prefetch_local = mode is base.PrefetchMode.FULL
    config = world.config
    circuit = world.circuit
    me = env.process_id
    nproc = env.num_processes

    yield (O.BARRIER, world.barrier_addr(0), nproc)

    for cycle in range(config.clock_cycles):
        # ---- initialization: every element starts activated, so the
        # ---- first settle establishes all gate outputs from scratch.
        if cycle == 0:
            for gate in circuit.combinational:
                if world.owner[gate.index] == me:
                    yield from _schedule_ops(world, gate.index)

        # ---- stimulus phase: process 0 drives the primary inputs; the
        # ---- activation of their fanout is distributed by ownership
        # ---- (the changed-input set is a pure function of the cycle).
        inputs = world.stimulus(cycle)
        previous = world.stimulus(cycle - 1) if cycle else {}
        changed_inputs = [
            net for net, value in inputs.items() if value != previous.get(net, 0)
        ]
        if me == 0:
            for net in changed_inputs:
                world.net_values[net] = inputs[net]
                yield (O.WRITE, world.net_addr(net))
        for net in changed_inputs:
            for fan_index in circuit.input_fanout.get(net, []):
                fan = circuit.gates[fan_index]
                if fan.gate_type is GateType.DFF:
                    continue
                if world.owner[fan_index] == me:
                    yield from _schedule_ops(world, fan_index)
        yield (O.BARRIER, world.barrier_addr(1), nproc)

        # ---- settle phase: serve the task queues until quiescence -------
        # A process prefers its own queue but *steals* from the other
        # processes' queues when it runs dry ("removes an activated
        # element from one of its task queues", Section 2.2) — stealing
        # is also what keeps spinning contexts from starving siblings on
        # a multiple-context processor: remote-queue probes miss in the
        # cache, giving the processor switch opportunities.
        spins = 0
        while True:
            task = None
            victim = me
            # Own queue first: the head line stays cached while empty and
            # is invalidated by a remote push.
            yield (O.READ, world.queue_heads[me])
            if world.queues[me]:
                yield (O.LOCK, world.queue_locks[me])
                yield (O.READ, world.queue_heads[me])
                task = world.try_pop(me)
                if task is not None:
                    yield (O.WRITE, world.queue_heads[me])
                yield (O.UNLOCK, world.queue_locks[me])
            elif spins >= 2:
                # Still dry after spinning: steal from the other queues.
                # The remote probes miss in the cache, which also gives a
                # multiple-context processor its switch opportunities.
                for probe in range(1, nproc):
                    victim = (me + probe) % nproc
                    yield (O.READ, world.queue_heads[victim])
                    if not world.queues[victim]:
                        continue
                    yield (O.LOCK, world.queue_locks[victim])
                    yield (O.READ, world.queue_heads[victim])
                    task = world.try_pop(victim)
                    if task is not None:
                        yield (O.WRITE, world.queue_heads[victim])
                    yield (O.UNLOCK, world.queue_locks[victim])
                    if task is not None:
                        break
            if task is not None:
                spins = 0
                yield (O.BUSY, 4)
                if prefetch_local and world.queues[me]:
                    # Prefetch the *next* activated element's record while
                    # this one is being evaluated — the lead time that
                    # makes the prefetch useful.  Records are node-local,
                    # so a context-aware annotation skips them.
                    nxt_lines = world.element_lines(world.queues[me][0])
                    for addr in nxt_lines[:3]:
                        yield (O.PREFETCH, addr, False)
                    yield (O.PREFETCH, nxt_lines[-1], True)
                yield from _evaluate_ops(world, env, task, prefetching)
                continue
            # Nothing runnable: check for global quiescence, then spin
            # with backoff.  The spin time is busy time, not
            # synchronization time (Section 2.2).
            yield (O.READ, world.pending_addr())
            if world.pending == 0:
                break
            spins += 1
            backoff = min(config.spin_busy << min(spins, 4), 320)
            yield (O.BUSY, backoff)

        yield (O.BARRIER, world.barrier_addr(2), nproc)
        # The snapshot and the flip-flop D-input reads below only *read*
        # net values, so they proceed concurrently after one barrier.
        if me == 0:
            world.history.append(list(world.net_values))

        # ---- clock phase: simultaneous flip-flop latch -------------------
        my_ffs = [
            g
            for g in circuit.flip_flops
            if world.owner[g.index] == me
        ]
        latched = []
        for ff in my_ffs:
            yield (O.READ, world.net_addr(ff.inputs[0]))
            latched.append((ff, world.net_values[ff.inputs[0]]))
        yield (O.BARRIER, world.barrier_addr(4), nproc)
        for ff, value in latched:
            if world.net_values[ff.output] != value:
                world.net_values[ff.output] = value
                yield (O.WRITE, world.net_addr(ff.output))
                for fan_index in ff.fanout:
                    if circuit.gates[fan_index].gate_type is GateType.DFF:
                        continue
                    yield from _schedule_ops(world, fan_index)
        yield (O.BARRIER, world.barrier_addr(5), nproc)

    yield (O.BARRIER, world.barrier_addr(0), nproc)


def pthor_program(
    config: PTHORConfig = PTHORConfig(),
    prefetching=False,
    circuit=None,
) -> Program:
    """Build the PTHOR benchmark as a runnable :class:`Program`.

    ``prefetching`` accepts a bool or a :class:`~repro.apps.base.PrefetchMode`.
    """
    mode = base.prefetch_mode(prefetching)

    def setup(allocator: SharedMemoryAllocator, num_processes: int) -> PTHORWorld:
        return PTHORWorld(config, allocator, num_processes, circuit=circuit)

    def factory(world: PTHORWorld, env: ProcessEnv):
        return _pthor_thread(world, env, mode)

    return Program("PTHOR", setup, factory, prefetching=mode is not base.PrefetchMode.OFF)
