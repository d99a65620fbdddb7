"""Tests for the declarative transition table and its static analyzer."""

import hashlib

import pytest

from repro.analysis.modelcheck import ModelConfig, ProtocolModel, check_protocol
from repro.analysis.protodiff import mutated_spec
from repro.analysis.protolint import (
    PROTO_MUTATIONS,
    check_completeness,
    check_determinism,
    check_stutter,
    lint_table,
    mutated_table,
)
from repro.caches import LineState
from repro.coherence.directory import DirState
from repro.coherence.table import (
    DIRECTORY_PROTOCOL_TABLE,
    Action,
    ProtoEvent,
    ProtocolTableError,
    Rule,
    TransitionTable,
    build_directory_table,
)


# -- the table itself ---------------------------------------------------------


class TestTransitionTable:
    def test_every_domain_key_ruled_or_impossible(self):
        table = DIRECTORY_PROTOCOL_TABLE
        for key in table.domain():
            assert bool(table.rules_for(key)) != (
                table.declared_impossible(key) is not None
            ), key

    def test_lookup_returns_the_named_rule(self):
        rule = DIRECTORY_PROTOCOL_TABLE.lookup(
            LineState.INVALID, DirState.DIRTY, ProtoEvent.READ_MISS
        )
        assert rule.name == "read-miss-dirty-remote"
        assert Action.FETCH_FROM_OWNER in rule.action_set

    def test_lookup_resolves_eviction_guard(self):
        last = DIRECTORY_PROTOCOL_TABLE.lookup(
            LineState.SHARED, DirState.SHARED, ProtoEvent.EVICT_CLEAN,
            others=False,
        )
        crowd = DIRECTORY_PROTOCOL_TABLE.lookup(
            LineState.SHARED, DirState.SHARED, ProtoEvent.EVICT_CLEAN,
            others=True,
        )
        assert last.next_dir_state == DirState.UNOWNED
        assert crowd.next_dir_state == DirState.SHARED

    def test_lookup_of_impossible_key_raises_with_reason(self):
        with pytest.raises(ProtocolTableError, match="impossible"):
            DIRECTORY_PROTOCOL_TABLE.lookup(
                LineState.DIRTY, DirState.UNOWNED, ProtoEvent.READ_HIT
            )

    def test_fingerprint_is_stable_and_content_addressed(self):
        base = build_directory_table()
        assert base.fingerprint() == DIRECTORY_PROTOCOL_TABLE.fingerprint()
        assert (
            mutated_table("drop-transition").fingerprint()
            != base.fingerprint()
        )

    def test_protocol_exposes_the_table(self):
        from repro.coherence import CoherenceProtocol

        assert hasattr(CoherenceProtocol, "__init__")
        from tests.test_coherence import make_protocol

        protocol, _ = make_protocol()
        assert protocol.table is DIRECTORY_PROTOCOL_TABLE


# -- static passes on the real table ------------------------------------------


class TestCleanTable:
    def test_lint_passes_clean(self):
        result = lint_table()
        assert result.ok, result.format()
        assert result.rules == 13
        assert "complete, deterministic, live" in result.summary()

    def test_fingerprints_agree_with_model_checker(self):
        config = ModelConfig()
        result = lint_table(config=config)
        assert result.reachable_fingerprint == check_protocol(config).fingerprint

    def test_model_is_explored_once(self, monkeypatch):
        calls = []
        original = ProtocolModel.successors

        def counted(self, state):
            calls.append(state)
            return original(self, state)

        monkeypatch.setattr(ProtocolModel, "successors", counted)
        result = lint_table()
        assert result.states_explored == 658
        assert len(calls) == result.states_explored

    def test_reuses_a_given_model_check(self, monkeypatch):
        model_result = check_protocol()
        monkeypatch.setattr(ProtocolModel, "successors", None)
        result = lint_table(model_result=model_result)
        assert result.ok, result.format()
        assert result.reachable_fingerprint == model_result.fingerprint

    def test_max_states_guard(self):
        with pytest.raises(RuntimeError, match="max_states"):
            lint_table(config=ModelConfig(max_states=10))

    def test_static_passes_individually_clean(self):
        table = DIRECTORY_PROTOCOL_TABLE
        assert check_completeness(table) == []
        assert check_determinism(table) == []
        assert check_stutter(table) == []


# -- seeded mutations ---------------------------------------------------------


class TestMutations:
    def test_drop_transition_is_a_completeness_hole_with_witness(self):
        result = lint_table(mutated_table("drop-transition"))
        assert not result.ok
        checks = {finding.check for finding in result.findings}
        assert "completeness" in checks
        liveness = [f for f in result.findings if f.check == "liveness"]
        assert liveness, result.format()
        # The model reaches the un-ruled observation; the witness is a
        # BFS-minimal trace from the initial state.
        assert any(f.witness for f in liveness)
        assert any("initial" in step for f in liveness for step in f.witness)

    def test_overlap_rule_breaks_determinism(self):
        result = lint_table(mutated_table("overlap-rule"))
        assert not result.ok
        determinism = [
            f for f in result.findings if f.check == "determinism"
        ]
        assert determinism
        assert "evict-clean-shadow" in determinism[0].message
        # The first-wins index shadows the unguarded duplicate, so the
        # liveness pass also reports it dead.
        assert any(
            f.check == "liveness" and "evict-clean-shadow" in f.message
            for f in result.findings
        )

    def test_orphan_state_is_a_dead_transition(self):
        result = lint_table(mutated_table("orphan-state"))
        assert not result.ok
        dead = [
            f for f in result.findings
            if f.check == "liveness" and "dead transition" in f.message
        ]
        assert dead, result.format()
        assert "write-upgrade-stale" in dead[0].message
        # Dead-transition messages must name the model bounds the claim
        # is relative to.
        assert "caches" in dead[0].message

    def test_every_published_mutation_is_detected(self):
        for mutation in PROTO_MUTATIONS:
            result = lint_table(mutated_table(mutation))
            assert not result.ok, mutation

    #: sha256 of each mutation's full ``format()`` text (summary and
    #: every finding with its witness).
    PINNED = {
        "drop-transition":
            "a1507b1a65b34fd1f37f0000f241a875e945a5de01b13b14a1fd10c32d4856f0",
        "overlap-rule":
            "8f44d3a8a8dc4bdf1cf4498942d9421f6eb7cb4d238002eb7ae0c9e3c2319787",
        "orphan-state":
            "5b3f0577d96d0079925ee93cb11ff9eac8d088fa4fbd305ba5e050a4ff42f428",
    }

    @pytest.mark.parametrize("mutation", PROTO_MUTATIONS)
    def test_findings_text_is_pinned(self, mutation):
        text = lint_table(mutated_table(mutation)).format()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.PINNED[mutation], text

    def test_model_violation_is_reported_not_masked(self):
        """A spec whose model breaks an invariant yields that violation
        and its counterexample, not a partial-graph observation pass."""
        spec = mutated_spec("mesi-without-e-writeback")
        result = lint_table(spec=spec)
        model = check_protocol(spec=spec)
        assert model.violation.invariant == "directory-sharer-set"
        assert result.states_explored == model.states_explored == 41
        assert result.observations_checked == 0
        assert result.reachable_fingerprint == model.fingerprint
        assert [f.check for f in result.findings] == ["liveness"]
        finding = result.findings[0]
        assert "directory-sharer-set" in finding.message
        assert model.violation.message in finding.message
        assert finding.witness[0] == "#0   initial"
        assert finding.witness[-2].endswith("c0: evict line0 clean")
        assert len(finding.witness) == 2 * len(model.violation.trace)

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            mutated_table("flip-everything")


# -- stutter detection on a synthetic table -----------------------------------


def _stutter_findings(rules):
    table = TransitionTable(rules, (), name="synthetic")
    return check_stutter(table)


class TestStutter:
    def test_pure_noop_rule_flagged(self):
        findings = _stutter_findings((
            Rule(
                "noop",
                LineState.SHARED, DirState.SHARED, ProtoEvent.READ_HIT,
                None, (), LineState.SHARED, DirState.SHARED,
            ),
        ))
        assert [f.check for f in findings] == ["stutter"]
        assert "no actions" in findings[0].message

    def test_action_free_cycle_flagged(self):
        findings = _stutter_findings((
            Rule(
                "flip",
                LineState.SHARED, DirState.SHARED, ProtoEvent.READ_HIT,
                None, (), LineState.DIRTY, DirState.DIRTY,
            ),
            Rule(
                "flop",
                LineState.DIRTY, DirState.DIRTY, ProtoEvent.WRITE_HIT,
                None, (), LineState.SHARED, DirState.SHARED,
            ),
        ))
        assert any("cycle" in f.message for f in findings)

    def test_action_free_state_change_without_cycle_ok(self):
        findings = _stutter_findings((
            Rule(
                "sink",
                LineState.SHARED, DirState.SHARED, ProtoEvent.READ_HIT,
                None, (), LineState.INVALID, DirState.UNOWNED,
            ),
        ))
        assert findings == []

    def test_real_rules_all_perform_actions(self):
        assert all(r.actions for r in DIRECTORY_PROTOCOL_TABLE.rules)
