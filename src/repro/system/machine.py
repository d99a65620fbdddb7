"""Machine assembly and top-level run loop.

``Machine`` wires together every subsystem — the event engine, the
shared-memory allocator, the per-node cache hierarchies, the directories,
the interconnect, the coherence protocol, the synchronization managers,
and the processors — and runs a :class:`~repro.tango.Program` to
completion, returning a :class:`~repro.system.results.SimulationResult`.

Process placement: with P processors and K contexts each, process ``i``
runs as context ``i // P`` of processor ``i % P``, so processes 0..P-1
form the first context of each node and "local" data allocated by
process ``i`` is homed at node ``i % P``.
"""

from __future__ import annotations

import gc
from typing import Optional

from repro.coherence import CoherenceProtocol, Directory, NodeCaches
from repro.caches import DirectMappedCache
from repro.config import MachineConfig
from repro.consistency import policy_for
from repro.interconnect import Interconnect
from repro.memlayout import SharedMemoryAllocator
from repro.processor import Context, Processor
from repro.sim.engine import (
    DEFAULT_EVENT_LIMIT,
    DeadlockError,
    EventEngine,
    SimulationError,
)
from repro.sync import BarrierManager, FlagManager, LockManager, SyncCosts
from repro.system.memiface import NodeMemoryInterface
from repro.system.results import (
    PrefetchSummary,
    SimulationResult,
    SyncSummary,
    classify_counts,
)
from repro.tango import ProcessEnv, Program


class Machine:
    """A fully assembled simulated multiprocessor."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.engine = EventEngine(
            event_limit=config.max_events
            if config.max_events is not None
            else DEFAULT_EVENT_LIMIT,
        )
        self.allocator = SharedMemoryAllocator(
            num_nodes=config.num_processors, page_bytes=config.page_bytes
        )
        self.policy = policy_for(config.consistency)
        self.interconnect = Interconnect(config.num_processors, config.contention)

        self.caches = [
            NodeCaches(
                primary=DirectMappedCache(config.primary_cache),
                secondary=DirectMappedCache(config.secondary_cache),
            )
            for _ in range(config.num_processors)
        ]
        self.directories = [Directory(i) for i in range(config.num_processors)]
        self.protocol = CoherenceProtocol(
            config=config,
            allocator=self.allocator,
            caches=self.caches,
            directories=self.directories,
            interconnect=self.interconnect,
        )

        costs = SyncCosts(config, self.allocator, self.interconnect)
        self.locks = LockManager(self.engine, costs)
        self.flags = FlagManager(self.engine, costs)
        self.barriers = BarrierManager(self.engine, costs)

        self.memifaces = [
            NodeMemoryInterface(
                node=i,
                config=config,
                policy=self.policy,
                protocol=self.protocol,
                engine=self.engine,
            )
            for i in range(config.num_processors)
        ]
        self.processors = [
            Processor(
                engine=self.engine,
                config=config,
                node_id=i,
                memiface=self.memifaces[i],
                policy=self.policy,
                locks=self.locks,
                flags=self.flags,
                barriers=self.barriers,
            )
            for i in range(config.num_processors)
        ]
        self._program: Optional[Program] = None
        #: ``(id(target), name) -> method`` for every entry point
        #: installed by :meth:`interpose`; the run-time guard accepts no
        #: other instance attribute.
        self._interposed: dict = {}
        self._started = False

        # Invariant sanitizer (off by default): imported lazily so the
        # analysis package stays entirely out of ordinary runs.
        self.sanitizer = None
        if config.sanitize:
            from repro.analysis.invariants import CoherenceSanitizer

            self.sanitizer = CoherenceSanitizer(self).install()

        # Fault injection (off by default, and an empty plan installs
        # nothing): installed after the sanitizer, so ``interpose`` nests
        # it outside and the sanitizer sees the single real protocol
        # transaction of each retried access.
        self.fault_injector = None
        if config.fault_plan is not None and not config.fault_plan.is_empty:
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(
                self, config.fault_plan, seed_mix=config.seed
            ).install()

        # Memory-event trace recorder (off by default): with the flag
        # off every hook site keeps ``trace is None`` and no recording
        # code runs, so default runs stay bit-identical.
        self.trace = None
        if config.trace_memory_events:
            from repro.analysis.tracecheck import MemoryEventTrace

            self.trace = MemoryEventTrace(
                line_bytes=config.line_bytes, allocator=self.allocator
            )
            self.protocol.trace = self.trace
            for iface in self.memifaces:
                iface.trace = self.trace
                iface._fused = False  # the fused paths skip the hooks
            for processor in self.processors:
                processor.trace = self.trace

    # -- observers ------------------------------------------------------------

    def interpose(self, target, name: str, wrap):
        """Replace ``target.<name>`` with ``wrap(current)`` and return it.

        The one way an observer (the sanitizer, the fault injector, the
        litmus recorder, the ``tracecheck`` mutations) hooks a
        transaction: ``target`` is :attr:`protocol` or one of
        :attr:`memifaces`, ``name`` one of its ``ENTRY_POINTS``.  Wrappers
        nest in install order — each ``wrap`` receives the entry point
        as the earlier ones left it — and any installation closes the
        fused fast paths of every node, so each access reaches the
        wrapped entry points.  Installing once :meth:`run` has started
        raises: the fast paths are decided when the run starts.
        """
        if self._started:
            raise SimulationError(
                f"Machine.interpose({name!r}) after Machine.run started: "
                "the fused paths were decided at the start of the run"
            )
        targets = (self.protocol, *self.memifaces)
        if not any(target is t for t in targets) or name not in target.ENTRY_POINTS:
            raise ValueError(
                f"{type(target).__name__}.{name} is not an entry point "
                "Machine.interpose can replace"
            )
        method = wrap(getattr(target, name))
        setattr(target, name, method)
        self._interposed[id(target), name] = method
        for iface in self.memifaces:
            iface._fused = False
        return method

    def _check_entry_points(self, when: str) -> None:
        """Raise if the protocol or a memory interface holds an entry
        point that :meth:`interpose` did not install: the fused paths
        would bypass it silently."""
        for target in (self.protocol, *self.memifaces):
            attrs = vars(target)
            for name in target.ENTRY_POINTS:
                if attrs.get(name) is not self._interposed.get((id(target), name)):
                    raise SimulationError(
                        f"{type(target).__name__}.{name} {when} outside "
                        "Machine.interpose, so the fused paths would "
                        "bypass it — install observers through "
                        "Machine.interpose before Machine.run"
                    )

    # -- loading --------------------------------------------------------------

    def load(self, program: Program) -> None:
        """Build the program's shared world and create one context per
        process across all processors."""
        config = self.config
        num_processes = config.total_contexts
        program.build(self.allocator, num_processes)
        for process_id in range(num_processes):
            node = process_id % config.num_processors
            slot = process_id // config.num_processors
            env = ProcessEnv(
                process_id=process_id,
                num_processes=num_processes,
                node=node,
                context=slot,
                num_nodes=config.num_processors,
            )
            thread = program.thread(env)
            self.processors[node].attach(
                Context(index=slot, process_id=process_id, thread=thread)
            )
        self._program = program

    # -- running --------------------------------------------------------------

    def run(self, watchdog=None) -> SimulationResult:
        """Run the loaded program to completion.

        ``watchdog`` is an optional :class:`~repro.faults.Watchdog`;
        when given, it is armed on the event engine for the duration of
        the run and aborts with ``WatchdogTimeout`` if the wall-clock
        budget is exceeded.
        """
        if self._program is None:
            raise RuntimeError("no program loaded")
        self._check_entry_points("was replaced")
        self._started = True
        for processor in self.processors:
            processor.start()
        if watchdog is not None:
            watchdog.attach(self.engine)
        # The event loop allocates only short-lived objects that die at
        # reference-count zero; generational GC passes over the live
        # machine graph are pure overhead during the drain.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.engine.run()
        finally:
            if gc_was_enabled:
                gc.enable()
            if watchdog is not None:
                watchdog.detach(self.engine)

        self._check_entry_points("changed mid-run")
        unfinished = [p.node_id for p in self.processors if not p.finished]
        if unfinished:
            raise DeadlockError(
                f"event calendar drained at t={self.engine.now} with "
                f"processors {unfinished} still blocked — check the "
                "program's synchronization\n" + self.waiters_report()
            )
        if self.sanitizer is not None:
            # End-of-run full-state sweep: every cache, directory,
            # buffer, and event counter — the per-transaction hooks only
            # visit the line each access touched.
            self.sanitizer.check_machine()
        return self._collect()

    def waiters_report(self) -> str:
        """Who-waits-on-what: blocked contexts, held locks, unfilled
        barriers, and unset flags, for deadlock/livelock diagnostics."""
        lines = ["who waits on what:"]
        for processor in self.processors:
            if processor.finished:
                continue
            for ctx in processor.contexts:
                if not ctx.live:
                    continue
                lines.append(
                    f"  node {processor.node_id} context {ctx.index} "
                    f"(process {ctx.process_id}): {ctx.state.value} "
                    f"since t={ctx.block_start}, "
                    f"{ctx.ops_executed} ops executed"
                )
        for addr, holder, waiters in self.locks.pending():
            lines.append(
                f"  lock {addr:#x}: held by node {holder}, "
                f"waiting nodes {waiters}"
            )
        for addr, arrived, participants in self.barriers.pending():
            lines.append(
                f"  barrier {addr:#x}: {len(arrived)}/{participants} "
                f"arrived (nodes {sorted(arrived)})"
            )
        for addr, waiters in self.flags.pending():
            lines.append(
                f"  flag {addr:#x}: never set, waiting nodes {waiters}"
            )
        lines.append(f"  event calendar: {self.engine.pending} events pending")
        if len(lines) == 2:
            lines.insert(1, "  (no blocked contexts or pending resources)")
        return "\n".join(lines)

    def _collect(self) -> SimulationResult:
        execution_time = max(p.finish_time or 0 for p in self.processors)

        read_hits, read_misses = classify_counts(self.protocol.stats.reads_by_class)
        # The paper's shared-write hit rate counts line *presence* in the
        # cache, even when an ownership upgrade is still required.
        write_hits = self.protocol.stats.writes_line_present
        write_misses = self.protocol.stats.writes_total - write_hits
        # Demand references that combined with an in-flight transaction
        # count as misses covered in flight.
        combined = sum(m.demand_combined_with_prefetch for m in self.memifaces)
        store_forwards = sum(m.store_forwards for m in self.memifaces)
        read_hits += store_forwards

        sync = SyncSummary(
            lock_acquires=self.locks.stats.acquires,
            contended_acquires=self.locks.stats.contended_acquires,
            flag_waits=self.flags.stats.waits,
            barrier_crossings=self.barriers.stats.crossings,
            barrier_episodes=self.barriers.stats.episodes,
        )
        prefetch = PrefetchSummary(
            issued_by_processor=sum(p.prefetches for p in self.processors),
            sent_to_memory=sum(m.prefetches_sent for m in self.memifaces),
            discarded=sum(m.prefetches_discarded for m in self.memifaces),
            demand_combined=combined,
            buffer_full_stall_cycles=sum(
                m.prefetch_buffer_full_stall_cycles for m in self.memifaces
            ),
        )
        return SimulationResult(
            program_name=self._program.name,
            config=self.config,
            execution_time=execution_time,
            per_processor=[p.breakdown for p in self.processors],
            protocol=self.protocol.stats,
            sync=sync,
            prefetch=prefetch,
            shared_reads=sum(p.shared_reads for p in self.processors),
            shared_writes=sum(p.shared_writes for p in self.processors),
            read_hits=read_hits,
            read_misses=read_misses + combined,
            write_hits=write_hits,
            write_misses=write_misses,
            # Table 2's shared-data size counts application data; the
            # synchronization/flag regions (padded to placement pages)
            # are excluded.
            shared_data_bytes=sum(
                region.size
                for region in self.allocator.regions
                if ".sync" not in region.name and ".flags" not in region.name
            ),
            world=self._program.world,
            faults=(
                self.fault_injector.stats if self.fault_injector else None
            ),
            events_processed=self.engine.events_processed,
            run_lengths=[
                length
                for processor in self.processors
                for length in processor.run_lengths
            ],
        )


def run_program(
    program: Program, config: MachineConfig, watchdog=None
) -> SimulationResult:
    """Convenience wrapper: build a machine, load, run, return results."""
    machine = Machine(config)
    machine.load(program)
    return machine.run(watchdog=watchdog)
