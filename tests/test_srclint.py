"""Tests for the determinism lint over simulator source."""

import textwrap

from repro.analysis.srclint import (
    WARNING,
    default_root,
    failures,
    format_issues,
    lint_source,
    lint_tree,
)


def _rules(source, rel_path="repro/example.py"):
    return [issue.rule for issue in lint_source(
        textwrap.dedent(source), rel_path
    )]


class TestUnseededRandom:
    def test_global_rng_call_flagged(self):
        assert _rules("""
            import random
            x = random.randint(0, 9)
        """) == ["unseeded-random"]

    def test_global_seed_flagged_too(self):
        assert _rules("""
            import random
            random.seed(42)
        """) == ["unseeded-random"]

    def test_from_import_flagged(self):
        assert _rules("""
            from random import randint
        """) == ["unseeded-random"]

    def test_unseeded_instance_flagged(self):
        assert _rules("""
            import random
            rng = random.Random()
        """) == ["unseeded-random"]

    def test_seeded_instance_ok(self):
        assert _rules("""
            import random
            rng = random.Random(1234)
            value = rng.randint(0, 9)
        """) == []

    def test_aliased_module_tracked(self):
        assert _rules("""
            import random as rnd
            x = rnd.random()
        """) == ["unseeded-random"]


class TestWallClock:
    def test_time_time_flagged(self):
        assert _rules("""
            import time
            t = time.time()
        """) == ["wall-clock"]

    def test_monotonic_flagged(self):
        assert _rules("""
            import time
            t = time.monotonic()
        """) == ["wall-clock"]

    def test_from_time_import_flagged(self):
        assert _rules("""
            from time import perf_counter
        """) == ["wall-clock"]

    def test_datetime_now_flagged(self):
        assert _rules("""
            from datetime import datetime
            t = datetime.now()
        """) == ["wall-clock"]

    def test_time_sleep_is_not_a_read(self):
        assert _rules("""
            import time
            time.sleep(0.1)
        """) == []

    def test_watchdog_file_is_allowlisted(self):
        assert _rules("""
            import time
            t = time.monotonic()
        """, rel_path="faults/watchdog.py") == []


class TestSetIteration:
    def test_for_over_set_display_flagged(self):
        assert _rules("""
            for x in {1, 2, 3}:
                pass
        """) == ["set-iteration"]

    def test_for_over_set_call_flagged(self):
        assert _rules("""
            for x in set(items):
                pass
        """) == ["set-iteration"]

    def test_comprehension_over_frozenset_flagged(self):
        assert _rules("""
            values = [x for x in frozenset(items)]
        """) == ["set-iteration"]

    def test_sorted_set_ok(self):
        assert _rules("""
            for x in sorted({1, 2, 3}):
                pass
        """) == []

    def test_plain_list_iteration_ok(self):
        assert _rules("""
            for x in [1, 2, 3]:
                pass
        """) == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        assert _rules("""
            def f(items=[]):
                return items
        """) == ["mutable-default"]

    def test_dict_call_default_flagged(self):
        assert _rules("""
            def f(table=dict()):
                return table
        """) == ["mutable-default"]

    def test_kwonly_default_flagged(self):
        assert _rules("""
            def f(*, acc={}):
                return acc
        """) == ["mutable-default"]

    def test_none_default_ok(self):
        assert _rules("""
            def f(items=None):
                return items or []
        """) == []


class TestSwallowedSimulationError:
    def test_swallowing_handler_flagged(self):
        assert _rules("""
            try:
                step()
            except Exception:
                pass
        """) == ["swallow-simulation-error"]

    def test_bare_except_flagged(self):
        assert _rules("""
            try:
                step()
            except:
                log()
        """) == ["swallow-simulation-error"]

    def test_simulation_error_by_name_flagged(self):
        assert _rules("""
            try:
                step()
            except SimulationError:
                count += 1
        """) == ["swallow-simulation-error"]

    def test_reraising_handler_ok(self):
        assert _rules("""
            try:
                step()
            except Exception:
                cleanup()
                raise
        """) == []

    def test_narrow_catch_ok(self):
        assert _rules("""
            try:
                step()
            except KeyError:
                pass
        """) == []


class TestSuppression:
    def test_ok_comment_with_rule_suppresses(self):
        assert _rules("""
            import time
            t = time.time()  # srclint: ok(wall-clock)
        """) == []

    def test_bare_ok_comment_suppresses(self):
        assert _rules("""
            import time
            t = time.time()  # srclint: ok
        """) == []

    def test_wrong_rule_does_not_suppress(self):
        # The mismatched ack also suppresses nothing, so it is dead.
        assert _rules("""
            import time
            t = time.time()  # srclint: ok(mutable-default)
        """) == ["wall-clock", "dead-ack"]


class TestDeadAcks:
    def test_unused_explicit_ack_is_warned(self):
        issues = lint_source(
            "x = 1  # srclint: ok(wall-clock)\n", "repro/example.py"
        )
        assert [i.rule for i in issues] == ["dead-ack"]
        assert issues[0].severity == WARNING
        assert issues[0].line == 1
        assert "ok(wall-clock)" in issues[0].message
        assert "warning:" in str(issues[0])

    def test_used_ack_is_not_warned(self):
        assert _rules("""
            import time
            t = time.time()  # srclint: ok(wall-clock)
        """) == []

    def test_rule_less_mention_is_not_flagged(self):
        # Docstrings describing the mechanism say ``# srclint: ok`` with
        # no rule; those are not acknowledgements of anything specific.
        assert _rules('''
            def helper():
                """Suppress with a trailing # srclint: ok comment."""
        ''') == []

    def test_dead_acks_fail_only_under_strict(self):
        issues = lint_source(
            "x = 1  # srclint: ok(set-iteration)\n", "repro/example.py"
        )
        assert failures(issues) == []
        assert [i.rule for i in failures(issues, strict=True)] == ["dead-ack"]

    def test_errors_fail_regardless_of_strict(self):
        issues = lint_source("import time\nt = time.time()\n", "x.py")
        assert [i.rule for i in failures(issues)] == ["wall-clock"]
        assert [i.rule for i in failures(issues, strict=True)] == ["wall-clock"]


class TestSpecPurity:
    SPEC = "coherence/specs/example.py"

    def test_runtime_import_flagged(self):
        assert _rules("""
            from repro.sim.engine import SimulationError
        """, self.SPEC) == ["spec-purity"]

    def test_system_and_processor_imports_flagged(self):
        assert _rules("""
            import repro.system
            from repro.processor.processor import Processor
        """, self.SPEC) == ["spec-purity", "spec-purity"]

    def test_module_scope_side_effect_flagged(self):
        assert _rules("""
            import os
            HOME = os.getenv("HOME")
        """, self.SPEC) == ["spec-purity"]

    def test_spec_constructors_and_containers_ok(self):
        assert _rules("""
            from repro.coherence.table import Rule, TransitionTable
            from repro.coherence.specs.base import make_spec
            OWNERS = frozenset({1, 2})
            SPEC = make_spec(name="x", rules=tuple())
        """, self.SPEC) == []

    def test_calls_inside_functions_are_not_module_scope(self):
        assert _rules("""
            def helper():
                return open("/dev/null")
        """, self.SPEC) == []

    def test_escape_hatch_acknowledges_a_finding(self):
        assert _rules("""
            from repro.system import Machine  # srclint: ok(spec-purity)
        """, self.SPEC) == []

    def test_rule_is_scoped_to_the_spec_package(self):
        assert _rules("""
            from repro.system import Machine
            x = print("hello")
        """, "coherence/protocol.py") == []

    def test_real_spec_registry_is_pure(self):
        root = default_root() / "coherence" / "specs"
        issues = [
            issue
            for issue in lint_tree()
            if issue.path.startswith("coherence/specs/")
        ]
        assert root.is_dir()
        assert issues == [], format_issues(issues)


class TestTree:
    def test_repro_source_is_clean(self):
        """The acceptance criterion: the shipped simulator source passes
        its own determinism lint."""
        issues = lint_tree()
        assert issues == [], format_issues(issues)

    def test_default_root_is_the_package(self):
        assert default_root().name == "repro"
        assert (default_root() / "cli.py").exists()

    def test_format_issues(self):
        assert format_issues([]) == "src lint: clean"
        issues = lint_source("import time\nt = time.time()\n", "x.py")
        text = format_issues(issues)
        assert "1 issue(s)" in text
        assert "x.py:2" in text


class TestMissingSlots:
    def test_plain_hot_path_class_flagged(self):
        assert _rules("""
            class EventRecord:
                def __init__(self):
                    self.time = 0
        """, rel_path="sim/engine.py") == ["missing-slots"]

    def test_slots_declaration_satisfies(self):
        assert _rules("""
            class EventRecord:
                __slots__ = ("time",)
                def __init__(self):
                    self.time = 0
        """, rel_path="caches/cache.py") == []

    def test_annotated_slots_satisfy(self):
        assert _rules("""
            class EventRecord:
                __slots__: tuple = ("time",)
        """, rel_path="coherence/protocol.py") == []

    def test_enum_bases_exempt(self):
        assert _rules("""
            from enum import Enum

            class LineState(Enum):
                INVALID = 0
        """, rel_path="caches/cache.py") == []

    def test_exception_classes_exempt(self):
        assert _rules("""
            class TableError(SimulationError):
                pass
        """, rel_path="coherence/table.py") == []

    def test_outside_hot_path_not_flagged(self):
        assert _rules("""
            class ReportRow:
                def __init__(self):
                    self.cells = []
        """, rel_path="experiments/report.py") == []

    def test_ack_comment_suppresses(self):
        assert _rules("""
            class Wrapped:  # srclint: ok(missing-slots)
                pass
        """, rel_path="sim/engine.py") == []

    def test_shipped_hot_path_classes_all_have_slots_or_acks(self):
        issues = [
            issue for issue in lint_tree()
            if issue.rule == "missing-slots"
        ]
        assert issues == [], format_issues(issues)


class TestLoopAllocation:
    def test_list_literal_in_engine_loop_flagged(self):
        assert _rules("""
            def run(self):
                while self.pending:
                    batch = []
        """, rel_path="sim/engine.py") == ["loop-allocation"]

    def test_comprehension_in_run_until_flagged(self):
        assert _rules("""
            def run_until(self, limit):
                for event in self.pending:
                    ready = [e for e in self.pending if e.time <= limit]
        """, rel_path="sim/engine.py") == ["loop-allocation"]

    def test_alloc_constructor_flagged(self):
        assert _rules("""
            def run(self):
                while self.pending:
                    seen = set()
        """, rel_path="sim/engine.py") == ["loop-allocation"]

    def test_allocation_outside_loop_ok(self):
        assert _rules("""
            def run(self):
                batch = []
                while self.pending:
                    batch.append(self.pending.pop())
        """, rel_path="sim/engine.py") == []

    def test_other_functions_not_checked(self):
        assert _rules("""
            def drain(self):
                while self.pending:
                    batch = []
        """, rel_path="sim/engine.py") == []

    def test_outside_sim_not_checked(self):
        assert _rules("""
            def run(self):
                while self.pending:
                    batch = []
        """, rel_path="experiments/runner.py") == []

    def test_comprehension_in_processor_loop_flagged(self):
        assert _rules("""
            def _loop(self):
                while True:
                    pending = [ctx for ctx in self.contexts]
        """, rel_path="processor/processor.py") == ["loop-allocation"]

    def test_processor_loop_rule_is_scoped_to_its_function_and_file(self):
        source = """
            def _loop(self):
                while True:
                    batch = []
        """
        assert _rules(source, rel_path="processor/context.py") == []
        assert _rules(source.replace("_loop", "_dispatch"),
                      rel_path="processor/processor.py") == []


class TestFloatDrift:
    def test_float_equality_flagged_in_sim(self):
        assert _rules("""
            if self.now == ratio / 2:
                pass
        """, rel_path="sim/engine.py") == ["float-drift"]

    def test_float_literal_inequality_flagged(self):
        assert _rules("""
            done = elapsed != 0.5
        """, rel_path="sim/resource.py") == ["float-drift"]

    def test_float_call_comparison_flagged(self):
        assert _rules("""
            if float(busy) == limit:
                pass
        """, rel_path="sim/resource.py") == ["float-drift"]

    def test_integer_comparison_ok(self):
        assert _rules("""
            if self.now == deadline:
                pass
        """, rel_path="sim/engine.py") == []

    def test_ordering_comparison_against_float_ok(self):
        # Tolerance-style comparisons are the recommended fix.
        assert _rules("""
            if utilization < 0.5:
                pass
        """, rel_path="sim/resource.py") == []

    def test_inplace_division_flagged(self):
        assert _rules("""
            self.remaining /= 2
        """, rel_path="sim/engine.py") == ["float-drift"]

    def test_float_accumulation_flagged(self):
        assert _rules("""
            self.clock += delta * 0.5
        """, rel_path="sim/engine.py") == ["float-drift"]

    def test_integer_accumulation_ok(self):
        assert _rules("""
            self.clock += delta
        """, rel_path="sim/engine.py") == []

    def test_outside_sim_not_checked(self):
        assert _rules("""
            if mean == total / count:
                pass
        """, rel_path="experiments/report.py") == []

    def test_ack_suppresses(self):
        assert _rules("""
            x = a == b / c  # srclint: ok(float-drift)
        """, rel_path="sim/engine.py") == []
