"""Span tracer for the simulator's layer entry points.

:class:`Tracer` wraps the entry points listed in :data:`ENTRY_POINTS` on
their *classes* and records one span per call: layer, name, start, end,
and the span that was open when the call began.  Spans live in compact
arrays in memory; :func:`self_times` turns them into self time (a span's
duration minus the part of it its child spans cover).

Three rules keep the traced run the same program as the untraced one:

* Wrap on the class, never on an instance.  The memory interface and
  the processor switch their fused and inline fast paths off as soon as
  ``read``/``write`` appear in the protocol's or memory interface's
  instance ``__dict__``; an instance wrapper would measure another
  program.
* Install before the ``Machine`` is built: ``Processor`` binds
  ``self._loop`` once, at construction.
* Restore every original on exit, also when the traced code raises.

The generator a ``Program.thread`` call returns cannot take a new
``__next__``, so it is handed to the processor inside a small iterator
whose ``__next__`` is timed.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

#: ``(layer, module, class, methods)``.  ``None`` as the method list
#: means every ``charge_*`` method the class defines.
ENTRY_POINTS = (
    ("sim", "repro.sim.engine", "EventEngine", ("run", "schedule")),
    ("processor", "repro.processor.processor", "Processor", ("_loop",)),
    ("apps", "repro.tango.program", "Program", ("build", "thread")),
    (
        "memiface",
        "repro.system.memiface",
        "NodeMemoryInterface",
        ("read", "write", "prefetch", "release_point"),
    ),
    (
        "coherence",
        "repro.coherence.protocol",
        "CoherenceProtocol",
        ("read", "write", "prefetch", "read_uncached", "write_uncached", "_read_fill"),
    ),
    ("interconnect", "repro.interconnect.network", "Interconnect", None),
    ("sync", "repro.sync.lock", "LockManager", ("acquire", "release")),
    ("sync", "repro.sync.flags", "FlagManager", ("wait", "set")),
    ("sync", "repro.sync.barrier", "BarrierManager", ("arrive",)),
    ("machine", "repro.system.machine", "Machine", ("__init__", "load", "run")),
    ("resultcache", "repro.experiments.resultcache", "ResultCache", ("load", "store")),
    ("resultcache", "repro.experiments.registry", "ExperimentRunner", ("run",)),
)

#: Every layer, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in ENTRY_POINTS))

#: Span name of one step of a thread generator.
THREAD_NEXT = "Program.thread.__next__"


class Tracer:
    """Records spans for every call into the wrapped entry points.

    ``on_run(machine, result)`` is called after each ``Machine.run``
    returns, so a caller can read the finished machine's counters
    without keeping the machine alive.
    """

    def __init__(self, on_run: Callable[[object, object], None] | None = None) -> None:
        self.on_run = on_run
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("H")
        #: Sum of the queueing delays returned by top-level
        #: ``Interconnect.charge_*`` calls (time work waited).
        self.queue_pclocks = 0
        self._stack: list[int] = []
        self._name_index: dict[str, int] = {}
        self._saved: list[tuple[type, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans (in place: the wrappers alias the arrays)."""
        del self.starts[:]
        del self.ends[:]
        del self.parents[:]
        del self.name_ids[:]
        self.queue_pclocks = 0

    def counts(self) -> dict[str, int]:
        """Calls per span name."""
        tally = [0] * len(self.names)
        for name_id in self.name_ids:
            tally[name_id] += 1
        return {name: tally[i] for i, name in enumerate(self.names)}

    def self_by_layer(self) -> dict[str, float]:
        """Self seconds per layer over the recorded spans."""
        totals = dict.fromkeys(LAYERS, 0.0)
        name_layer = self.name_layer
        name_ids = self.name_ids
        for i, own in enumerate(self_times(self.starts, self.ends, self.parents)):
            totals[LAYERS[name_layer[name_ids[i]]]] += own
        return totals

    def dump(self, path: str) -> None:
        """Write the recorded spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tlayer\tname\tstart\tend\tparent\n")
            for i, name_id in enumerate(self.name_ids):
                out.write(
                    f"{i}\t{LAYERS[self.name_layer[name_id]]}\t{self.names[name_id]}\t"
                    f"{self.starts[i]!r}\t{self.ends[i]!r}\t{self.parents[i]}\n"
                )

    def _name_id(self, layer: str, name: str) -> int:
        name_id = self._name_index.get(name)
        if name_id is None:
            name_id = self._name_index[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return name_id

    def _span(self, fn, layer: str, name: str, on_result=None):
        """Wrap ``fn`` so each call records one span named ``name``."""
        name_id = self._name_id(layer, name)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(name_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result, stack)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        try:
            for layer, module, cls_name, methods in ENTRY_POINTS:
                cls = getattr(importlib.import_module(module), cls_name)
                if methods is None:
                    methods = tuple(m for m in vars(cls) if m.startswith("charge_"))
                for method in methods:
                    self._install(cls, layer, method)
            yield self
        finally:
            while self._saved:
                cls, method, original = self._saved.pop()
                setattr(cls, method, original)
            self._stack.clear()

    def _install(self, cls: type, layer: str, method: str) -> None:
        original = vars(cls)[method]
        name = f"{cls.__name__}.{method}"
        if method == "thread":
            wrapper = self._thread_wrapper(original, layer)
        elif layer == "interconnect":
            wrapper = self._span(original, layer, name, self._charge_done(layer))
        elif name == "Machine.run":
            wrapper = self._span(original, layer, name, self._run_done)
        else:
            wrapper = self._span(original, layer, name)
        self._saved.append((cls, method, original))
        setattr(cls, method, wrapper)

    def _charge_done(self, layer: str):
        layer_id = LAYERS.index(layer)
        name_layer, name_ids = self.name_layer, self.name_ids

        def done(args, delay, stack) -> None:
            # Nested charges are already inside their caller's delay.
            if delay is not None and not (stack and name_layer[name_ids[stack[-1]]] == layer_id):
                self.queue_pclocks += delay

        return done

    def _run_done(self, args, result, stack) -> None:
        if self.on_run is not None:
            self.on_run(args[0], result)

    def _thread_wrapper(self, original, layer: str):
        step = self._span(next, layer, THREAD_NEXT)

        @functools.wraps(original)
        def thread(program, env):
            return _TimedThread(original(program, env), step)

        return thread


class _TimedThread:
    """An iterator over a thread generator whose every step is a span."""

    __slots__ = ("_generator", "_step")

    def __init__(self, generator: Iterator, step) -> None:
        self._generator = generator
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._generator)


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals.

    Spans are listed in the order they opened, so a parent precedes its
    children and siblings appear in start order; ``parents[i]`` is the
    index of span ``i``'s parent, or -1 for a root.
    """
    covered = [0.0] * len(starts)
    reach = [float("-inf")] * len(starts)
    for i, parent in enumerate(parents):
        if parent < 0:
            continue
        begin = starts[i] if starts[i] > reach[parent] else reach[parent]
        if ends[i] > begin:
            covered[parent] += ends[i] - begin
            reach[parent] = ends[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]
