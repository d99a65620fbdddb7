"""Tests for the axiomatic trace-conformance checker."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.litmus import run_litmus, standard_suite
from repro.analysis.tracecheck import (
    MUTATION_NAMES,
    MemoryEventTrace,
    apply_mutation,
    check_app,
    check_trace,
    run_mutation_demo,
    run_traced_litmus,
    tarjan_sccs,
    _shortest_cycle,
)
from repro.config import Consistency, dash_scaled_config
from repro.experiments.registry import SMOKE_PROCESSES, smoke_program
from repro.experiments.resultcache import canonical_result_bytes
from repro.system import Machine


def _test_named(name):
    return next(t for t in standard_suite() if t.name == name)


# -- recording ----------------------------------------------------------------


class TestRecording:
    def test_tracing_off_by_default(self):
        machine = Machine(dash_scaled_config(num_processors=2))
        assert machine.trace is None

    def test_flag_installs_the_recorder_everywhere(self):
        machine = Machine(
            dash_scaled_config(num_processors=2, trace_memory_events=True)
        )
        assert machine.trace is not None
        assert machine.protocol.trace is machine.trace
        for iface in machine.memifaces:
            assert iface.trace is machine.trace
        for processor in machine.processors:
            assert processor.trace is machine.trace

    def test_litmus_run_records_all_event_kinds(self):
        run = run_traced_litmus(_test_named("MP_flag"), Consistency.RC)
        kinds = {e.kind for e in run.trace.events}
        assert kinds == {"R", "W", "ACQ", "REL"}
        # eids are dense and in record order.
        assert [e.eid for e in run.trace.events] == list(
            range(len(run.trace.events))
        )

    def test_describe_names_the_region(self):
        run = run_traced_litmus(_test_named("SB"), Consistency.SC)
        writes = [e for e in run.trace.events if e.kind == "W"]
        assert "litmus.SB" in run.trace.describe(writes[0])

    def test_rejects_nonpositive_line_bytes(self):
        with pytest.raises(ValueError):
            MemoryEventTrace(line_bytes=0)


class TestBitIdentity:
    def test_tracing_does_not_perturb_results(self):
        """The acceptance criterion: default runs are bit-identical with
        the recorder installed (tracing must be observation-only)."""
        results = []
        for flag in (False, True):
            config = dash_scaled_config(
                num_processors=SMOKE_PROCESSES,
                consistency=Consistency.RC,
                trace_memory_events=flag,
            )
            machine = Machine(config)
            machine.load(smoke_program("LU"))
            results.append(machine.run())
        off, on = results
        # Only the config flag itself may differ.
        on = dataclasses.replace(on, config=off.config)
        assert canonical_result_bytes(off) == canonical_result_bytes(on)


# -- synthetic-trace axiom units ----------------------------------------------


def _trace():
    return MemoryEventTrace(line_bytes=16)


class TestAxiomUnits:
    def test_empty_trace_is_conformant_for_all_models(self):
        for model in Consistency:
            report = check_trace(_trace(), model)
            assert report.ok
            assert "conformant" in report.format()

    def test_sc_write_completion_violation(self):
        trace = _trace()
        trace.begin_op(0, 0)
        trace.record_write(0, 0x100, 0, 10, 50, "local")
        trace.begin_op(0, 1)
        # Issued at 20, before the write's acks completed at 50.
        trace.record_read(0, 0x200, 20, 25, source="memory",
                          access_class="home")
        report = check_trace(trace, Consistency.SC)
        assert [v.axiom for v in report.violations] == ["sc-write-completion"]
        assert "witness cycle (2 events)" in report.violations[0].witness

    def test_sc_write_completion_is_not_an_rc_axiom(self):
        trace = _trace()
        trace.begin_op(0, 0)
        trace.record_write(0, 0x100, 0, 10, 50, "local")
        trace.begin_op(0, 1)
        trace.record_read(0, 0x200, 20, 25, source="memory",
                          access_class="home")
        assert check_trace(trace, Consistency.RC).ok

    def test_blocking_read_violation_under_every_model(self):
        for model in Consistency:
            trace = _trace()
            trace.begin_op(0, 0)
            trace.record_read(0, 0x100, 0, 40, source="memory",
                              access_class="home")
            trace.begin_op(0, 1)
            # Issued at 10 while the blocking read performs at 40.
            trace.record_read(0, 0x200, 10, 15, source="memory",
                              access_class="home")
            report = check_trace(trace, model)
            assert [v.axiom for v in report.violations] == ["blocking-order"], (
                model
            )

    def test_release_completion_violation_under_rc(self):
        trace = _trace()
        trace.begin_op(0, 0)
        trace.record_write(0, 0x100, 0, 10, 100, "local")
        # The release's fence point (30) precedes the write's acks (100).
        trace.record_release(0, 1, 0, 0x200, issue=20, fence=30, perform=30,
                             sync="lock")
        report = check_trace(trace, Consistency.RC)
        assert [v.axiom for v in report.violations] == ["release-completion"]
        assert "witness cycle (2 events)" in report.violations[0].witness

    def test_release_completion_not_checked_under_pc(self):
        # PC has no fences: releases legitimately overtake write acks.
        trace = _trace()
        trace.begin_op(0, 0)
        trace.record_write(0, 0x100, 0, 10, 100, "local")
        trace.record_release(0, 1, 0, 0x200, issue=20, fence=30, perform=30,
                             sync="lock")
        assert check_trace(trace, Consistency.PC).ok

    def test_malformed_forward_is_a_violation(self):
        trace = _trace()
        trace.begin_op(0, 0)
        # Claims to forward from eid 99, which does not exist.
        trace.record_read(0, 0x100, 0, 1, source="forward",
                          access_class="primary_hit", rf_eid=99)
        report = check_trace(trace, Consistency.RC)
        assert [v.axiom for v in report.violations] == ["well-formed-forward"]

    def test_forward_from_wrong_line_is_a_violation(self):
        trace = _trace()
        trace.begin_op(0, 0)
        trace.record_write(0, 0x200, 0, 10, 10, "local")
        trace.begin_op(0, 1)
        trace.record_read(0, 0x100, 5, 6, source="forward",
                          access_class="primary_hit", rf_eid=0)
        report = check_trace(trace, Consistency.RC)
        assert [v.axiom for v in report.violations] == ["well-formed-forward"]

    def test_valid_forward_conforms(self):
        trace = _trace()
        trace.begin_op(0, 0)
        trace.record_write(0, 0x100, 0, 50, 50, "local")
        trace.note_buffered_line(0, trace.line_of(0x100))
        trace.begin_op(0, 1)
        trace.record_read(0, 0x104, 5, 6, source="forward",
                          access_class="primary_hit",
                          rf_eid=trace.buffered_writer(0, 0x100))
        report = check_trace(trace, Consistency.RC)
        assert report.ok
        # The forwarded read sees the buffered write.
        assert report.read_values[1] == 1


# -- cycle machinery ----------------------------------------------------------


class TestCycleMachinery:
    def test_tarjan_finds_the_nontrivial_scc(self):
        graph = {0: [1], 1: [2], 2: [0, 3], 3: []}
        sccs = [sorted(s) for s in tarjan_sccs(graph) if len(s) > 1]
        assert sccs == [[0, 1, 2]]

    def test_tarjan_handles_self_contained_chain(self):
        graph = {0: [1], 1: []}
        assert [s for s in tarjan_sccs(graph) if len(s) > 1] == []

    def test_shortest_cycle_prefers_the_small_loop(self):
        graph = {
            0: [(1, "long")],
            1: [(2, "long")],
            2: [(0, "long")],
            3: [(4, "short")],
            4: [(3, "short")],
        }
        cycle = _shortest_cycle(graph, {3, 4}, 3)
        assert len(cycle) == 2


# -- seeded mutations ---------------------------------------------------------


class TestMutations:
    def test_unknown_mutation_rejected(self):
        machine = Machine(
            dash_scaled_config(num_processors=2, trace_memory_events=True)
        )
        with pytest.raises(ValueError):
            apply_mutation(machine, "no-such-bug")
        with pytest.raises(ValueError):
            run_mutation_demo("no-such-bug")

    def test_drop_inval_ack_detected_with_witness_cycle(self):
        report = run_mutation_demo("drop-inval-ack")
        assert not report.ok
        axioms = {v.axiom for v in report.violations}
        assert "sc-write-completion" in axioms
        assert "witness cycle" in report.format()

    def test_release_overtakes_writes_detected(self):
        report = run_mutation_demo("release-overtakes-writes")
        assert not report.ok
        axioms = {v.axiom for v in report.violations}
        assert "release-completion" in axioms
        assert "witness cycle" in report.format()

    def test_forward_unissued_write_detected(self):
        report = run_mutation_demo("forward-unissued-write")
        assert not report.ok
        axioms = {v.axiom for v in report.violations}
        assert "well-formed-forward" in axioms

    def test_every_mutation_has_a_demo_that_detects_it(self):
        for name in MUTATION_NAMES:
            assert not run_mutation_demo(name).ok, name


# -- litmus cross-validation --------------------------------------------------


class TestLitmusCrossValidation:
    @pytest.mark.parametrize("model", list(Consistency))
    def test_sb_conforms_and_outcomes_match(self, model):
        result = run_litmus(_test_named("SB"), model, trace_check=True)
        assert result.conformance_failures == {}, result.explain()
        assert result.ok, result.explain()

    def test_locked_litmus_conforms_under_all_models(self):
        test = _test_named("SB_locked")
        for model in Consistency:
            result = run_litmus(test, model, trace_check=True)
            assert result.conformance_failures == {}, result.explain()

    def test_whole_suite_cross_validates(self):
        """Every (test, model) pair's operational outcome is reproduced
        exactly by the axiomatic derivation, on every schedule."""
        from repro.analysis.litmus import run_suite

        results = run_suite(trace_check=True)
        assert len(results) == 20
        for result in results:
            assert result.conformance_failures == {}, result.explain()
            assert result.ok, result.explain()


# -- application smoke --------------------------------------------------------


class TestApplicationSmoke:
    def test_lu_smoke_trace_conforms_under_rc(self):
        report = check_app("LU")
        assert report.ok, report.format()
        assert report.num_events > 1000
