"""Litmus-test consistency checking through the full machine.

Each :class:`LitmusTest` is a tiny multi-threaded program (store
buffering, message passing, IRIW, ...) run through the *complete*
simulated machine — processors, write buffers, caches, directory
protocol, and synchronization managers — under each consistency model,
over a small set of start-skew schedules.  The observed outcomes are
checked against per-model expectations: outcomes the model forbids must
never appear, and outcomes that demonstrate the model's relaxation (or
strength) must appear.

Value semantics.  The simulator is a timing model: it tracks *when*
accesses perform, not the data they move.  Litmus values are therefore
derived from the protocol's timestamps — a write to a variable performs
when its ownership transaction retires, a read performs when it issues,
and a read returns the number of writes to its variable that performed
at or before it (0 = initial value, 1 = after the first write, ...).
Under this model the classic relaxations are directly visible: with
store buffering under PC/WC/RC both threads' reads issue one cycle
after their buffered writes, long before either write retires, giving
the (0, 0) outcome that sequential consistency forbids — and under SC
the write stalls the processor to completion first, so (0, 0) is
impossible.

Every thread first warm-reads all data variables (so body reads are
cache-resident and issue promptly), then idles long enough for the
warm-up fills to leave the MSHRs, then meets a start barrier; the
optional per-thread skew delays inject schedule diversity after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.config import Consistency, ContentionConfig, dash_scaled_config
from repro.sim.engine import SimulationError
from repro.system import Machine
from repro.tango import ops as O
from repro.tango.program import Program

#: A symbolic litmus op: ("read"|"write"|"lock"|"unlock"|"flag_set"|
#: "flag_wait", variable name).
SymOp = Tuple[str, str]

#: One outcome: the values of every read, thread-major program order.
Outcome = Tuple[int, ...]

#: Idle cycles after warm-up so warm-up fills leave the MSHRs before the
#: timed body (a body read combining with an in-flight warm-up fill
#: would bypass the protocol and lose its timestamp).
_WARMUP_DRAIN = 400

#: Default per-thread start skews tried for every test: a simultaneous
#: start plus one thread delayed slightly (the start barrier releases
#: arrivals ~20 cycles apart, so a small skew re-overlaps the bodies a
#: buffered-write window apart), moderately, or long enough for earlier
#: writes to retire.
_SKEWS = (7, 48, 150)


@dataclass(frozen=True)
class LitmusTest:
    """A named litmus program with per-model expectations."""

    name: str
    #: Plain shared variables; variable ``i`` is homed at node ``i % N``.
    data_vars: Tuple[str, ...]
    #: Lock / flag variables (same homing rule, after the data vars).
    sync_vars: Tuple[str, ...]
    #: Per-thread bodies of symbolic ops; thread ``i`` runs on node ``i``.
    threads: Tuple[Tuple[SymOp, ...], ...]
    #: Outcomes that must never be observed, per model.
    forbidden: Mapping[Consistency, FrozenSet[Outcome]]
    #: Outcomes that must be observed (over all schedules), per model.
    required: Mapping[Consistency, FrozenSet[Outcome]]
    #: Extra start-skew schedules beyond the defaults.
    extra_schedules: Tuple[Tuple[int, ...], ...] = ()

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def schedules(self) -> List[Tuple[int, ...]]:
        n = self.num_threads
        result: List[Tuple[int, ...]] = [tuple([0] * n)]
        for skew in _SKEWS:
            for tid in range(n):
                schedule = [0] * n
                schedule[tid] = skew
                result.append(tuple(schedule))
        result.extend(self.extra_schedules)
        return result


@dataclass
class LitmusResult:
    """What one (test, model) pair observed across its schedules."""

    test: LitmusTest
    model: Consistency
    observed: FrozenSet[Outcome] = frozenset()
    by_schedule: Dict[Tuple[int, ...], Outcome] = field(default_factory=dict)
    #: Per-schedule axiomatic-oracle failures (``run_litmus`` with
    #: ``trace_check=True``): conformance violations or a mismatch
    #: between the axiomatic and operational outcome derivations.
    conformance_failures: Dict[Tuple[int, ...], str] = field(default_factory=dict)

    @property
    def forbidden_seen(self) -> FrozenSet[Outcome]:
        return self.observed & self.test.forbidden.get(self.model, frozenset())

    @property
    def required_missing(self) -> FrozenSet[Outcome]:
        return self.test.required.get(self.model, frozenset()) - self.observed

    @property
    def ok(self) -> bool:
        return (
            not self.forbidden_seen
            and not self.required_missing
            and not self.conformance_failures
        )

    def explain(self) -> str:
        lines = [
            f"{self.test.name} under {self.model.name}: "
            f"observed {sorted(self.observed)}"
        ]
        if self.forbidden_seen:
            lines.append(f"  FORBIDDEN outcomes seen: {sorted(self.forbidden_seen)}")
        if self.required_missing:
            lines.append(f"  required outcomes missing: {sorted(self.required_missing)}")
        for schedule, failure in sorted(self.conformance_failures.items()):
            lines.append(f"  conformance failure at schedule {schedule}:")
            lines.extend("    " + line for line in failure.splitlines())
        return "\n".join(lines)


def _build_program(
    test: LitmusTest, schedule: Sequence[int], addresses: Dict[str, int]
) -> Program:
    num_threads = test.num_threads

    def setup(allocator, num_processes):
        for index, var in enumerate(test.data_vars + test.sync_vars):
            region = allocator.alloc_local(
                f"litmus.{test.name}.{var}", 4, index % allocator.num_nodes
            )
            addresses[var] = region.base
        for index, var in enumerate(("__start", "__end")):
            region = allocator.alloc_local(
                f"litmus.{test.name}.sync.{var}", 4, 0
            )
            addresses[var] = region.base
        return addresses

    def thread_factory(world, env):
        tid = env.process_id
        body = test.threads[tid]
        skew = schedule[tid]

        def generate():
            for var in test.data_vars:
                yield O.read(world[var])
            yield O.busy(_WARMUP_DRAIN)
            yield O.barrier(world["__start"], num_threads)
            if skew:
                yield O.busy(skew)
            for op, var in body:
                addr = world[var]
                if op == "read":
                    yield O.read(addr)
                elif op == "write":
                    yield O.write(addr)
                elif op == "lock":
                    yield O.lock(addr)
                elif op == "unlock":
                    yield O.unlock(addr)
                elif op == "flag_set":
                    yield O.flag_set(addr)
                elif op == "flag_wait":
                    yield O.flag_wait(addr)
                else:
                    raise ValueError(f"unknown symbolic litmus op {op!r}")
            yield O.barrier(world["__end"], num_threads)

        return generate()

    return Program(
        name=f"litmus.{test.name}", setup=setup, thread_factory=thread_factory
    )


def _run_one(
    test: LitmusTest,
    model: Consistency,
    schedule: Sequence[int],
    config_overrides: Optional[Mapping[str, object]] = None,
    trace_check: bool = False,
) -> Tuple[Outcome, Optional[str]]:
    """Run one schedule through the machine.

    Returns the outcome tuple plus, when ``trace_check`` is set, any
    axiomatic-oracle failure text (``None`` when the trace conforms and
    its derived outcome matches the operational one).
    """
    addresses: Dict[str, int] = {}
    program = _build_program(test, schedule, addresses)
    kwargs: Dict[str, object] = dict(
        num_processors=test.num_threads,
        consistency=model,
        contention=ContentionConfig(enabled=False),
    )
    if config_overrides:
        kwargs.update(config_overrides)
    if trace_check:
        kwargs["trace_memory_events"] = True
    config = dash_scaled_config(**kwargs)
    machine = Machine(config)

    reads_by_node: Dict[int, List[Tuple[int, int]]] = {
        node: [] for node in range(test.num_threads)
    }
    writes_by_addr: Dict[int, List[int]] = {}

    def recording_read(original):
        def read(node, addr, time):
            outcome = original(node, addr, time)
            reads_by_node[node].append((addr, time))
            return outcome

        return read

    def recording_write(original):
        def write(node, addr, time, background=False):
            outcome = original(node, addr, time, background=background)
            writes_by_addr.setdefault(addr, []).append(outcome.retire)
            return outcome

        return write

    machine.interpose(machine.protocol, "read", recording_read)
    machine.interpose(machine.protocol, "write", recording_write)

    machine.load(program)
    machine.run()

    def value_of(addr: int, when: int) -> int:
        return sum(1 for retire in writes_by_addr.get(addr, ()) if retire <= when)

    warmup = len(test.data_vars)
    outcome: List[int] = []
    for tid, body in enumerate(test.threads):
        expected_reads = sum(1 for op, _var in body if op == "read")
        recorded = reads_by_node[tid][warmup:]
        if len(recorded) != expected_reads:
            raise SimulationError(
                f"litmus {test.name}/{model.name}: thread {tid} recorded "
                f"{len(recorded)} body reads, expected {expected_reads} "
                f"(a read bypassed the protocol — store forwarding or "
                f"MSHR combining in the litmus body)"
            )
        outcome.extend(value_of(addr, when) for addr, when in recorded)
    observed = tuple(outcome)

    conformance: Optional[str] = None
    if trace_check:
        from repro.analysis.tracecheck import check_trace, litmus_read_values

        assert machine.trace is not None
        report = check_trace(machine.trace, model)
        derived = litmus_read_values(
            machine.trace, report, test.num_threads, warmup
        )
        if not report.ok:
            conformance = report.format()
        elif derived != observed:
            conformance = (
                f"axiomatic outcome {derived} != operational outcome "
                f"{observed}"
            )
    return observed, conformance


def run_litmus(
    test: LitmusTest,
    model: Consistency,
    config_overrides: Optional[Mapping[str, object]] = None,
    trace_check: bool = False,
) -> LitmusResult:
    """Run ``test`` under ``model`` across all schedules.

    ``config_overrides`` are extra :class:`MachineConfig` fields merged
    over the litmus defaults — used by the edge-case tests to ablate
    e.g. ``write_buffer_bypass`` or install an (empty) fault plan and
    assert the verdicts do not change.

    ``trace_check`` additionally records each schedule's memory-event
    trace and cross-validates it against the model's axioms (the
    independent oracle of :mod:`repro.analysis.tracecheck`); failures
    land in :attr:`LitmusResult.conformance_failures` and make the
    result not ``ok``.
    """
    result = LitmusResult(test=test, model=model)
    outcomes = {}
    for schedule in test.schedules():
        outcomes[schedule], conformance = _run_one(
            test, model, schedule, config_overrides=config_overrides,
            trace_check=trace_check,
        )
        if conformance is not None:
            result.conformance_failures[tuple(schedule)] = conformance
    result.by_schedule = outcomes
    result.observed = frozenset(outcomes.values())
    return result


# -- the standard suite ------------------------------------------------------

def _all_models(*outcomes: Outcome) -> Dict[Consistency, FrozenSet[Outcome]]:
    expectation = frozenset(outcomes)
    return {model: expectation for model in Consistency}


def standard_suite() -> List[LitmusTest]:
    """The litmus tests exercised by ``repro check`` and the test suite."""
    relaxed = (Consistency.PC, Consistency.WC, Consistency.RC)
    sb_required: Dict[Consistency, FrozenSet[Outcome]] = {
        Consistency.SC: frozenset({(1, 1)}),
    }
    for model in relaxed:
        sb_required[model] = frozenset({(0, 0)})
    return [
        # Store buffering: both threads buffer their write and read the
        # other's variable early.  SC forbids (0, 0); every buffered
        # model must exhibit it.
        LitmusTest(
            name="SB",
            data_vars=("x", "y"),
            sync_vars=(),
            threads=(
                (("write", "x"), ("read", "y")),
                (("write", "y"), ("read", "x")),
            ),
            forbidden={Consistency.SC: frozenset({(0, 0)})},
            required=sb_required,
        ),
        # Store buffering with the critical sections locked: the lock
        # hand-off orders the bodies, so (0, 0) is forbidden under every
        # model, including the buffered ones.
        LitmusTest(
            name="SB_locked",
            data_vars=("x", "y"),
            sync_vars=("l",),
            threads=(
                (
                    ("lock", "l"), ("write", "x"),
                    ("read", "y"), ("unlock", "l"),
                ),
                (
                    ("lock", "l"), ("write", "y"),
                    ("read", "x"), ("unlock", "l"),
                ),
            ),
            forbidden=_all_models((0, 0)),
            required=_all_models((0, 1), (1, 0)),
        ),
        # Message passing with a plain-variable flag.  The write buffer
        # is FIFO and reads block in program order, so even the relaxed
        # models never show the (1, 0) reordering; the delayed-reader
        # schedule must observe the fully-propagated (1, 1).
        LitmusTest(
            name="MP_plain",
            data_vars=("x", "f"),
            sync_vars=(),
            threads=(
                (("write", "x"), ("write", "f")),
                (("read", "f"), ("read", "x")),
            ),
            forbidden=_all_models((1, 0)),
            required=_all_models((1, 1)),
            extra_schedules=((0, 300),),
        ),
        # Message passing through a proper ANL flag: FLAG_SET is a
        # release and FLAG_WAIT blocks, so the consumer always sees the
        # producer's write under every model.
        LitmusTest(
            name="MP_flag",
            data_vars=("x",),
            sync_vars=("f",),
            threads=(
                (("write", "x"), ("flag_set", "f")),
                (("flag_wait", "f"), ("read", "x")),
            ),
            forbidden=_all_models((0,)),
            required=_all_models((1,)),
        ),
        # Independent reads of independent writes: the invalidation
        # protocol makes writes atomic (a line is exclusive before the
        # new value exists), so the two readers can never disagree on
        # the order of the two writes — even under RC.
        LitmusTest(
            name="IRIW",
            data_vars=("x", "y"),
            sync_vars=(),
            threads=(
                (("write", "x"),),
                (("write", "y"),),
                (("read", "x"), ("read", "y")),
                (("read", "y"), ("read", "x")),
            ),
            forbidden=_all_models((1, 0, 1, 0)),
            required=_all_models((1, 1, 1, 1)),
            extra_schedules=((0, 0, 300, 300),),
        ),
    ]


def run_suite(
    models: Sequence[Consistency] = tuple(Consistency),
    tests: Sequence[LitmusTest] = (),
    config_overrides: Optional[Mapping[str, object]] = None,
    trace_check: bool = False,
) -> List[LitmusResult]:
    """Run every (test, model) pair; returns all results."""
    suite = list(tests) or standard_suite()
    return [
        run_litmus(
            test, model, config_overrides=config_overrides,
            trace_check=trace_check,
        )
        for test in suite for model in models
    ]


def verify_litmus(
    models: Sequence[Consistency] = tuple(Consistency),
) -> List[LitmusResult]:
    """Run the standard suite and raise on any expectation failure."""
    results = run_suite(models)
    failures = [result for result in results if not result.ok]
    if failures:
        raise SimulationError(
            "litmus expectations violated:\n"
            + "\n".join(result.explain() for result in failures)
        )
    return results
