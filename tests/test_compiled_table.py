"""The compiled transition table: the one int-indexed form the runtime
handlers read, checked against ``TransitionTable.lookup``."""

import dataclasses

import pytest

from repro.analysis.protodiff import DIFF_MUTATIONS, mutated_spec
from repro.analysis.protolint import PROTO_MUTATIONS, mutated_table
from repro.caches import LineState
from repro.coherence.directory import DirState
from repro.coherence.specs import get_spec, spec_names
from repro.coherence.table import (
    Action,
    CompiledTable,
    ProtocolTableError,
    ProtoEvent,
    TransitionTable,
    situation,
)
from repro.config import Consistency, ContentionConfig, dash_scaled_config
from repro.system import Machine

_TABLES = [(name, get_spec(name).table) for name in spec_names()] + [
    (mutation, mutated_table(mutation)) for mutation in PROTO_MUTATIONS
] + [(mutation, mutated_spec(mutation).table) for mutation in DIFF_MUTATIONS]


@pytest.mark.parametrize(
    "table", [table for _, table in _TABLES], ids=[name for name, _ in _TABLES]
)
def test_rule_ids_name_exactly_the_rules_lookup_returns(table):
    # Built directly, not through ``compile``: a broken table must still
    # index, so the check covers the seeded mutations too.
    compiled = CompiledTable(table)
    for cache_state, dir_state, event in table.domain():
        for others in (True, False, None):
            row = compiled.situations[
                situation(event, cache_state, others, dir_state)
            ]
            try:
                rule = table.lookup(cache_state, dir_state, event, others)
            except ProtocolTableError:
                assert row is None
            else:
                assert table.rules[row.rule_id] is rule
                assert compiled.rows[row.rule_id] is row


@pytest.mark.parametrize(
    "table", [table for _, table in _TABLES], ids=[name for name, _ in _TABLES]
)
def test_hit_views_hold_each_states_hit_rule(table):
    compiled = CompiledTable(table)
    for event, view in (
        (ProtoEvent.READ_HIT, compiled.read_hit),
        (ProtoEvent.WRITE_HIT, compiled.write_hit),
    ):
        for state in LineState:
            rules = [
                i for i, rule in enumerate(table.rules)
                if rule.event is event and rule.cache_state == state
            ]
            row = view[state]
            assert (row is None) == (not rules)
            if rules:
                assert row.rule_id == rules[0]
                assert row.next_cache == table.rules[rules[0]].next_cache_state


def test_compile_is_cached_per_table():
    table = get_spec("mesi").table
    assert table.compile() is table.compile()


def test_eviction_without_a_directory_action_fails_to_compile():
    table = mutated_spec("mesi-without-e-writeback").table
    for _ in range(2):
        with pytest.raises(ProtocolTableError, match="names no directory action"):
            table.compile()


def _without_fill(spec, event):
    """``spec`` with the first ``event`` rule's FILL_FROM_CACHE dropped."""
    rules = list(spec.table.rules)
    index = next(i for i, rule in enumerate(rules) if rule.event is event)
    rules[index] = dataclasses.replace(
        rules[index],
        actions=tuple(
            a for a in rules[index].actions if a is not Action.FILL_FROM_CACHE
        ),
    )
    table = spec.table
    return dataclasses.replace(spec, table=TransitionTable(
        tuple(rules), table.impossible, name=table.name,
        cache_states=table.cache_states, dir_states=table.dir_states,
        events=table.events,
    ))


@pytest.mark.parametrize(
    "event, message",
    [
        (ProtoEvent.READ_HIT, "read-hit rule does not fill from cache"),
        (ProtoEvent.WRITE_HIT, "write-hit rule does not fill from cache"),
    ],
)
def test_hit_rule_without_fill_fails_when_the_protocol_is_built(
    monkeypatch, event, message
):
    broken = _without_fill(get_spec("directory-msi"), event)
    monkeypatch.setattr(
        "repro.coherence.protocol.get_spec", lambda name: broken
    )
    with pytest.raises(ProtocolTableError, match=message):
        Machine(dash_scaled_config(num_processors=4))


def _shared_copy_under_a_dirty_home(consistency):
    """Node 0 holds a SHARED copy of a line homed on node 0 whose entry
    is (impossibly) DIRTY at node 2."""
    machine = Machine(dash_scaled_config(
        num_processors=4, consistency=consistency,
        contention=ContentionConfig(enabled=False),
    ))
    addr = machine.allocator.alloc_local("r0", 8192, 0).addr(0)
    machine.protocol.read(0, addr, 0)
    line = machine.protocol.line_of(addr)
    assert machine.caches[0].secondary.probe(line) == LineState.SHARED
    entry = machine.directories[0].entry(line)
    entry.state = DirState.DIRTY
    entry.owner = 2
    entry.mask = 0
    return machine, addr


@pytest.mark.parametrize("consistency", [Consistency.SC, Consistency.RC])
def test_upgrade_under_a_dirty_home_raises_through_every_write_path(consistency):
    machine, addr = _shared_copy_under_a_dirty_home(consistency)
    with pytest.raises(ProtocolTableError, match="impossible"):
        machine.protocol.write(0, addr, 10)
    machine, addr = _shared_copy_under_a_dirty_home(consistency)
    assert machine.memifaces[0]._fused
    with pytest.raises(ProtocolTableError, match="impossible"):
        machine.memifaces[0].write(addr, 10)
