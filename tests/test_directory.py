"""Unit tests for directory state bookkeeping."""

import pytest

from repro.caches import LineState
from repro.coherence import Directory, DirState
from repro.coherence.table import ProtocolTableError
from repro.config import dash_scaled_config
from repro.system.machine import Machine


class TestDirectoryEntries:
    def test_entries_start_unowned(self):
        directory = Directory(0)
        entry = directory.entry(0x100)
        assert entry.state == DirState.UNOWNED
        assert not entry.sharers
        assert entry.owner is None

    def test_entry_is_stable(self):
        directory = Directory(0)
        assert directory.entry(0x100) is directory.entry(0x100)

    def test_known_lines(self):
        directory = Directory(0)
        directory.entry(0x100)
        directory.entry(0x200)
        assert set(directory.known_lines()) == {0x100, 0x200}


def _evicting_protocol(num_nodes=4):
    """A machine's protocol and a line homed on node 0.  Replacement
    updates reach the directory only through ``CoherenceProtocol._evict``,
    so these cases drive it directly."""
    machine = Machine(dash_scaled_config(num_processors=num_nodes))
    region = machine.allocator.alloc_local("lines", 4096, 0)
    protocol = machine.protocol
    return protocol, protocol.line_of(region.addr(0))


class TestReplacementHints:
    def test_drop_last_sharer_returns_to_unowned(self):
        protocol, line = _evicting_protocol()
        entry = protocol.directories[0].entry(line)
        entry.state = DirState.SHARED
        entry.sharers = {3}
        protocol._evict(3, line, int(LineState.SHARED), 5)
        assert entry.state == DirState.UNOWNED
        assert not entry.sharers
        assert protocol.stats.eviction_writebacks == 0

    def test_drop_one_of_many_keeps_shared(self):
        protocol, line = _evicting_protocol()
        entry = protocol.directories[0].entry(line)
        entry.state = DirState.SHARED
        entry.sharers = {1, 2}
        protocol._evict(1, line, int(LineState.SHARED), 5)
        assert entry.state == DirState.SHARED
        assert entry.sharers == {2}

    def test_drop_unknown_line_is_impossible(self):
        # A clean copy of a line the home has no record of: the table
        # declares (SHARED, UNOWNED, evict_clean) impossible.
        protocol, line = _evicting_protocol()
        with pytest.raises(ProtocolTableError, match="impossible"):
            protocol._evict(1, line, int(LineState.SHARED), 5)
        assert protocol.directories[0].entry(line).state == DirState.UNOWNED


class TestWriteback:
    def test_writeback_clears_ownership(self):
        protocol, line = _evicting_protocol()
        entry = protocol.directories[0].entry(line)
        entry.state = DirState.DIRTY
        entry.owner = 2
        protocol._evict(2, line, int(LineState.DIRTY), 5)
        assert entry.state == DirState.UNOWNED
        assert entry.owner is None
        assert protocol.stats.eviction_writebacks == 1

    def test_writeback_from_wrong_owner_ignored(self):
        # The table allows (DIRTY, DIRTY, evict_dirty) whichever node
        # evicts; the write-back is charged but only the recorded owner
        # releases the entry.
        protocol, line = _evicting_protocol()
        entry = protocol.directories[0].entry(line)
        entry.state = DirState.DIRTY
        entry.owner = 2
        protocol._evict(3, line, int(LineState.DIRTY), 5)
        assert entry.state == DirState.DIRTY
        assert entry.owner == 2
        assert protocol.stats.eviction_writebacks == 1

    def test_dirty_writeback_to_unowned_home_is_impossible(self):
        protocol, line = _evicting_protocol()
        with pytest.raises(ProtocolTableError, match="impossible"):
            protocol._evict(2, line, int(LineState.DIRTY), 5)
        assert protocol.stats.eviction_writebacks == 0

    def test_entry_check_validates_consistency(self):
        directory = Directory(0)
        entry = directory.entry(0x100)
        entry.check()  # UNOWNED is consistent
        entry.state = DirState.SHARED
        entry.sharers = {1}
        entry.check()
        entry.state = DirState.DIRTY
        entry.sharers = set()
        entry.owner = 1
        entry.check()


class TestNackCounter:
    def test_note_nack_accumulates(self):
        directory = Directory(0)
        directory.note_nack(0x100)
        directory.note_nack(0x100)
        assert directory.nacks_sent == 2

    def test_reset_zeroes_counter_but_keeps_entries(self):
        directory = Directory(0)
        entry = directory.entry(0x100)
        entry.state = DirState.SHARED
        entry.sharers = {1}
        directory.note_nack(0x100)
        directory.reset()
        assert directory.nacks_sent == 0
        assert directory.peek(0x100) is entry
        assert entry.sharers == {1}
