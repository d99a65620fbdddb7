"""Gate-level circuits for PTHOR.

A circuit is a DAG of logic elements (gates) plus edge-triggered D
flip-flops, connected by nets.  The paper simulates five clock cycles of
a small RISC processor of ~11,000 two-input gates; we provide a
synthetic generator producing layered RISC-like circuits of any size
(register banks of flip-flops feeding combinational logic that feeds
back into the registers), plus small hand-built circuits (full adder,
ripple counter) whose behaviour is known exactly for verification.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple


class GateType(enum.Enum):
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    NOT = "not"
    BUF = "buf"
    DFF = "dff"  # edge-triggered D flip-flop (clocked between phases)


_EVAL: Dict[GateType, Callable[[Sequence[int]], int]] = {
    GateType.AND: lambda v: int(all(v)),
    GateType.OR: lambda v: int(any(v)),
    GateType.NAND: lambda v: int(not all(v)),
    GateType.NOR: lambda v: int(not any(v)),
    GateType.XOR: lambda v: int(sum(v) % 2),
    GateType.NOT: lambda v: int(not v[0]),
    GateType.BUF: lambda v: int(bool(v[0])),
}


@dataclass
class Gate:
    """One logic element: type, input nets, single output net."""

    index: int
    gate_type: GateType
    inputs: List[int]
    output: int
    fanout: List[int] = field(default_factory=list)  # gate indices

    def evaluate(self, net_values: Sequence[int]) -> int:
        """Combinational output for the current input net values.

        DFFs are not evaluated here — they latch at the clock edge.
        """
        if self.gate_type is GateType.DFF:
            raise ValueError("DFF outputs change only at clock edges")
        values = [net_values[n] for n in self.inputs]
        return _EVAL[self.gate_type](values)


@dataclass
class Circuit:
    """A complete circuit: nets, gates, and primary inputs."""

    num_nets: int
    gates: List[Gate]
    primary_inputs: List[int]  # net ids driven by the stimulus

    def __post_init__(self) -> None:
        self._wire_fanout()
        # Fixed once built: PTHOR's threads read both every cycle.
        self.flip_flops: Tuple[Gate, ...] = tuple(
            g for g in self.gates if g.gate_type is GateType.DFF
        )
        self.combinational: Tuple[Gate, ...] = tuple(
            g for g in self.gates if g.gate_type is not GateType.DFF
        )

    def _wire_fanout(self) -> None:
        driven_by: Dict[int, List[int]] = {}
        for gate in self.gates:
            for net in gate.inputs:
                driven_by.setdefault(net, []).append(gate.index)
        for gate in self.gates:
            gate.fanout = driven_by.get(gate.output, [])
        self.input_fanout = {
            net: driven_by.get(net, []) for net in self.primary_inputs
        }

    def check(self) -> None:
        """Structural sanity: nets in range, single driver per net,
        combinational part acyclic."""
        drivers: Dict[int, int] = {}
        for gate in self.gates:
            assert 0 <= gate.output < self.num_nets
            assert gate.output not in drivers, f"net {gate.output} double-driven"
            assert gate.output not in self.primary_inputs
            drivers[gate.output] = gate.index
            for net in gate.inputs:
                assert 0 <= net < self.num_nets
        # Acyclicity of the combinational subgraph (DFF outputs cut it).
        comb_driver = {
            g.output: g for g in self.gates if g.gate_type is not GateType.DFF
        }
        state: Dict[int, int] = {}

        def visit(gate: Gate) -> None:
            mark = state.get(gate.index, 0)
            if mark == 1:
                raise AssertionError("combinational cycle detected")
            if mark == 2:
                return
            state[gate.index] = 1
            for net in gate.inputs:
                upstream = comb_driver.get(net)
                if upstream is not None:
                    visit(upstream)
            state[gate.index] = 2

        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10_000 + len(self.gates)))
        try:
            for gate in self.combinational:
                visit(gate)
        finally:
            sys.setrecursionlimit(old_limit)


def synthesize_circuit(
    num_gates: int,
    flip_flop_fraction: float = 0.15,
    num_primary_inputs: int = 8,
    levels: int = 6,
    seed: int = 42,
) -> Circuit:
    """Generate a layered RISC-like synchronous circuit.

    Flip-flops form the register state; their outputs (plus the primary
    inputs) feed ``levels`` layers of random two-input combinational
    gates; the deepest nets feed the flip-flop D inputs, closing the
    state loop through the registers only (the combinational part stays
    a DAG).
    """
    if num_gates < 4:
        raise ValueError("need at least four gates")
    rng = random.Random(seed)
    num_ffs = max(1, int(num_gates * flip_flop_fraction))
    num_comb = num_gates - num_ffs

    net_counter = 0

    def new_net() -> int:
        nonlocal net_counter
        net = net_counter
        net_counter += 1
        return net

    primary_inputs = [new_net() for _ in range(num_primary_inputs)]
    ff_outputs = [new_net() for _ in range(num_ffs)]

    gates: List[Gate] = []
    level_nets: List[List[int]] = [list(primary_inputs) + list(ff_outputs)]
    comb_types = [t for t in GateType if t not in (GateType.DFF,)]

    per_level = max(1, num_comb // levels)
    created = 0
    for level in range(levels):
        this_level: List[int] = []
        count = per_level if level < levels - 1 else num_comb - created
        pool = [net for nets in level_nets for net in nets]
        for _ in range(count):
            gate_type = rng.choice(comb_types)
            arity = 1 if gate_type in (GateType.NOT, GateType.BUF) else 2
            inputs = [rng.choice(pool) for _ in range(arity)]
            output = new_net()
            gates.append(
                Gate(
                    index=len(gates),
                    gate_type=gate_type,
                    inputs=inputs,
                    output=output,
                )
            )
            this_level.append(output)
            created += 1
        if this_level:
            level_nets.append(this_level)

    deep_pool = [net for nets in level_nets[1:] for net in nets] or primary_inputs
    for ff_index in range(num_ffs):
        d_input = rng.choice(deep_pool)
        gates.append(
            Gate(
                index=len(gates),
                gate_type=GateType.DFF,
                inputs=[d_input],
                output=ff_outputs[ff_index],
            )
        )

    return Circuit(
        num_nets=net_counter, gates=gates, primary_inputs=primary_inputs
    )


def full_adder() -> Circuit:
    """1-bit full adder: inputs a(0), b(1), cin(2); sum=net 5, cout=net 8."""
    gates = [
        Gate(0, GateType.XOR, [0, 1], 3),   # a ^ b
        Gate(1, GateType.AND, [0, 1], 4),   # a & b
        Gate(2, GateType.XOR, [3, 2], 5),   # sum
        Gate(3, GateType.AND, [3, 2], 6),   # (a^b) & cin
        Gate(4, GateType.OR, [4, 6], 8),    # cout
    ]
    return Circuit(num_nets=9, gates=gates, primary_inputs=[0, 1, 2])


def ripple_counter(bits: int = 3) -> Circuit:
    """A ``bits``-bit synchronous counter built from DFFs and XOR/AND.

    Bit i toggles when all lower bits are 1; counts one per clock.
    Net layout: q_i are nets ``i``; enable net 0 is the primary input.
    """
    if bits < 1:
        raise ValueError("need at least one bit")
    enable = 0
    q = [1 + i for i in range(bits)]
    next_net = 1 + bits
    gates: List[Gate] = []

    carry = enable
    for i in range(bits):
        toggle_out = next_net
        next_net += 1
        gates.append(Gate(len(gates), GateType.XOR, [q[i], carry], toggle_out))
        if i < bits - 1:
            new_carry = next_net
            next_net += 1
            gates.append(Gate(len(gates), GateType.AND, [carry, q[i]], new_carry))
            carry = new_carry
        gates.append(Gate(len(gates), GateType.DFF, [toggle_out], q[i]))
    return Circuit(num_nets=next_net, gates=gates, primary_inputs=[enable])
