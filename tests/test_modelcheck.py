"""Tests for the exhaustive protocol model checker.

The acceptance configuration — two caches, one line, two data values,
NACK/retry edges bounded by a two-retry budget — is enumerated
exhaustively and must be violation-free; each deliberate protocol
mutation must produce a minimal counterexample trace.
"""

import hashlib

import pytest

from repro.analysis.modelcheck import (
    MUTATIONS,
    ModelChecker,
    ModelConfig,
    ProtocolModel,
    check_protocol,
    explore,
    format_counterexample,
)
from repro.faults.plan import BackoffPolicy


# -- the healthy protocol ----------------------------------------------------


class TestBaseline:
    def test_acceptance_config_is_violation_free(self):
        result = check_protocol()
        assert result.ok, result.violation.format()
        assert result.config.num_caches == 2
        assert result.config.num_lines == 1
        assert result.config.num_values == 2
        assert result.states_explored > 100
        assert result.transitions_explored > result.states_explored
        assert result.quiescent_states > 0

    def test_nack_edges_enlarge_the_state_space(self):
        """With NACK/retry edges disabled the reachable set shrinks:
        proof that the acceptance run really explores the retry edges."""
        with_nacks = check_protocol(ModelConfig(nacks=True))
        without = check_protocol(ModelConfig(nacks=False))
        assert without.ok and with_nacks.ok
        assert with_nacks.states_explored > without.states_explored
        assert with_nacks.fingerprint != without.fingerprint

    def test_three_caches_clean(self):
        result = check_protocol(ModelConfig(num_caches=3))
        assert result.ok, result.violation.format()
        assert result.states_explored > 1000

    def test_two_lines_clean(self):
        result = check_protocol(ModelConfig(num_lines=2))
        assert result.ok, result.violation.format()

    def test_single_cache_degenerate_config_clean(self):
        result = check_protocol(
            ModelConfig(num_caches=1, max_in_flight=1, nacks=False)
        )
        assert result.ok, result.violation.format()

    def test_fingerprint_is_stable_across_runs(self):
        a = check_protocol()
        b = check_protocol()
        assert a.fingerprint == b.fingerprint
        assert len(a.fingerprint) == 64  # sha256 hex

    def test_fingerprint_tracks_the_bounds(self):
        small = check_protocol(ModelConfig(num_values=1))
        big = check_protocol(ModelConfig(num_values=2))
        assert small.fingerprint != big.fingerprint

    def test_summary_mentions_states_and_verdict(self):
        result = check_protocol()
        summary = result.summary()
        assert str(result.states_explored) in summary
        assert "no invariant violations" in summary

    def test_max_states_safety_valve(self):
        with pytest.raises(RuntimeError, match="max_states"):
            check_protocol(ModelConfig(max_states=10))
        # The guard counts discovered states: exactly the reachable
        # count passes, one fewer raises.
        assert check_protocol(ModelConfig(max_states=658)).ok
        with pytest.raises(RuntimeError, match="max_states=657"):
            check_protocol(ModelConfig(max_states=657))


# -- mutations: every seeded bug must be caught ------------------------------


class TestMutations:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_each_mutation_is_caught(self, mutation):
        result = check_protocol(mutation=mutation)
        assert not result.ok, f"{mutation} escaped the checker"

    def test_skip_invalidation_breaks_swmr_with_minimal_trace(self):
        result = check_protocol(mutation="skip-invalidation")
        violation = result.violation
        assert violation is not None
        assert violation.invariant in ("swmr", "data-value")
        # BFS discovery: the counterexample is a shortest path.  Reaching
        # stale-sharer + dirty-owner needs a read fill, a write, and the
        # two serves — four transitions after the initial state.
        assert len(violation.trace) <= 5
        assert violation.trace[0][0] == "initial"

    def test_lost_writeback_breaks_data_value(self):
        result = check_protocol(mutation="lost-writeback")
        assert result.violation.invariant == "data-value"

    def test_nack_forever_is_a_stuck_state(self):
        result = check_protocol(mutation="nack-forever")
        assert result.violation.invariant == "no-stuck-state"
        # The stuck witness still has its unserveable message in flight.
        _action, last_state = result.violation.trace[-1]
        assert last_state.msgs

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            ProtocolModel(mutation="unplug-the-directory")

    #: sha256 of each mutation's summary line plus rendered
    #: counterexample: the counts, fingerprint and trace are all pinned,
    #: so a change to the BFS order or the early stop moves them.
    PINNED = {
        "skip-invalidation":
            "8886cde180475d96aa74116b9ed19b0cf7eb01af9ed7105ba2ca3aad8aa40fce",
        "lost-writeback":
            "46fbe933deceaf5e16a491363dbd97bb4705adaac84add087818159d920a3675",
        "nack-forever":
            "3bf364d8fa95b2d85b984be74705fc1db2314fac33a9ef6a978a9dfffa918f80",
    }

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_counterexample_text_is_pinned(self, mutation):
        result = check_protocol(mutation=mutation)
        text = result.summary() + "\n" + result.violation.format()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.PINNED[mutation], text

    def test_counterexample_rendering(self):
        result = check_protocol(mutation="skip-invalidation")
        text = format_counterexample(result.violation)
        assert "counterexample" in text
        assert "#0" in text and "initial" in text
        # Every step renders the full abstract state.
        assert "dir0=" in text and "mem0=" in text
        assert text == result.violation.format()


# -- configuration validation ------------------------------------------------


class TestModelConfig:
    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            ModelConfig(num_caches=0)
        with pytest.raises(ValueError):
            ModelConfig(num_lines=0)
        with pytest.raises(ValueError):
            ModelConfig(num_values=0)
        with pytest.raises(ValueError):
            ModelConfig(max_in_flight=0)

    def test_retry_budget_comes_from_backoff_policy(self):
        config = ModelConfig(backoff=BackoffPolicy(max_retries=5))
        assert config.max_retries == 5

    def test_checker_accepts_prebuilt_model(self):
        model = ProtocolModel(ModelConfig(num_values=1, nacks=False))
        result = ModelChecker(model).run()
        assert result.ok


# -- structural properties of the enumeration --------------------------------


class TestEnumeration:
    def test_initial_state_is_quiescent_and_clean(self):
        model = ProtocolModel()
        initial = model.initial_state()
        assert not initial.msgs
        assert model.check_state(initial) is None

    def test_successors_respect_message_bound(self):
        model = ProtocolModel(ModelConfig(max_in_flight=1))
        result = ModelChecker(model).run()
        assert result.ok
        # Exhaustiveness: the bound-1 space embeds in the bound-2 space.
        bigger = check_protocol(ModelConfig(max_in_flight=2))
        assert bigger.states_explored > result.states_explored

    def test_all_reachable_states_can_quiesce(self):
        """The no-stuck-state pass really covers the whole space: every
        reachable state drains under the healthy protocol."""
        result = check_protocol()
        assert result.ok
        assert result.quiescent_states >= 1


# -- the shared explorer -------------------------------------------------------


class TestExplore:
    def test_graph_records_states_parents_and_edges(self):
        model = ProtocolModel()
        graph = explore(model)
        states = list(graph.parent)
        assert states[0] == model.initial_state()
        assert graph.parent[states[0]] is None
        assert graph.stopped is None
        assert len(states) == 658 and len(graph.edges) == 2740
        # Every non-initial state's parent link is one of the recorded
        # edges, and exploration starts from the initial state.
        edges = set(graph.edges)
        for state in states[1:]:
            prev, label = graph.parent[state]
            assert (prev, label, state) in edges
        assert graph.edges[0][0] == states[0]

    def test_traces_are_bfs_minimal(self):
        graph = explore(ProtocolModel())
        depth = {}
        for state, link in graph.parent.items():
            depth[state] = 0 if link is None else depth[link[0]] + 1
        for src, _label, dst in graph.edges:
            assert depth[dst] <= depth[src] + 1
        deepest = max(graph.parent, key=depth.__getitem__)
        trace = graph.trace_to(deepest)
        assert trace[0][0] == "initial"
        assert len(trace) == depth[deepest] + 1
        assert trace[-1][1] == deepest

    def test_stop_ends_right_after_the_failing_state(self):
        model = ProtocolModel(mutation="lost-writeback")
        graph = explore(model, stop=model.check_state)
        state, (invariant, _message) = graph.stopped
        assert invariant == "data-value"
        assert list(graph.parent)[-1] == state
        assert graph.edges[-1][2] == state
        result = check_protocol(mutation="lost-writeback")
        assert result.states_explored == len(graph.parent) == 69
        assert result.transitions_explored == len(graph.edges) == 96

    def test_stop_can_fire_on_the_initial_state(self):
        model = ProtocolModel()
        graph = explore(model, stop=lambda state: "halt")
        assert graph.stopped == (model.initial_state(), "halt")
        assert len(graph.parent) == 1 and graph.edges == []

    def test_successors_run_once_per_state(self, monkeypatch):
        calls = []
        original = ProtocolModel.successors

        def counted(self, state):
            calls.append(state)
            return original(self, state)

        monkeypatch.setattr(ProtocolModel, "successors", counted)
        result = check_protocol()
        assert len(calls) == len(set(calls)) == result.states_explored

    @pytest.mark.parametrize("mutation, states, edges", [
        ("skip-invalidation", 1722, 7236),
        ("lost-writeback", 1236, 5256),
        ("nack-forever", 658, 2012),
    ])
    def test_mutated_models_explore_to_completion(
        self, mutation, states, edges
    ):
        # With no ``stop``, exploration runs past every violation; a
        # request the mutated table cannot serve is no edge, not a crash.
        graph = explore(ProtocolModel(mutation=mutation))
        assert graph.stopped is None
        assert (len(graph.parent), len(graph.edges)) == (states, edges)
