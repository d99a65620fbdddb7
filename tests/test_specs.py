"""Tests for the ProtocolSpec registry and the protocol-parametric
runtime.

Covers three layers:

* the registry itself — names, lookup, the default spec aliasing the
  original MSI table so nothing in the default path changed identity;
* the static battery over every registered spec — each table must be
  complete/deterministic/live and model-check clean, and latbound's
  spec-driven class derivation must reproduce the hand-written MSI
  reference exactly;
* the runtime — ``MachineConfig.protocol`` validation, the MOESI
  analyzer-only gate, and the MESI runtime legs: the litmus outcome
  matrix and trace conformance must be indistinguishable from MSI
  (goldens stay pinned to ``directory-msi`` only).
"""

import pytest

from repro.analysis.modelcheck import ModelConfig, check_protocol
from repro.analysis.protolint import lint_table
from repro.caches import LineState
from repro.coherence.specs import get_spec, spec_names
from repro.coherence.table import DIRECTORY_PROTOCOL_TABLE, ProtoEvent
from repro.config import Consistency, dash_scaled_config


# -- the registry -------------------------------------------------------------


class TestRegistry:
    def test_registered_names_in_order(self):
        assert spec_names() == ("directory-msi", "mesi", "moesi")

    def test_get_spec_returns_the_named_singleton(self):
        for name in spec_names():
            spec = get_spec(name)
            assert spec.name == name
            assert get_spec(name) is spec

    def test_unknown_name_rejected_with_registry_listing(self):
        with pytest.raises(ValueError, match="registered specs"):
            get_spec("mosi")

    def test_default_spec_aliases_the_original_msi_table(self):
        # The default runtime path must not even change object identity:
        # protocol code that compares against DIRECTORY_PROTOCOL_TABLE
        # keeps working unmodified.
        assert get_spec("directory-msi").table is DIRECTORY_PROTOCOL_TABLE

    def test_fingerprints_are_distinct_per_spec(self):
        prints = {get_spec(name).fingerprint() for name in spec_names()}
        assert len(prints) == len(spec_names())

    def test_describe_names_the_spec_and_rule_count(self):
        text = get_spec("mesi").describe()
        assert "'mesi'" in text
        assert "16 rule(s)" in text


# -- table-derived views ------------------------------------------------------


class TestDerivedViews:
    def test_msi_write_hits_only_in_dirty(self):
        assert get_spec("directory-msi").write_hit_states() == frozenset(
            {LineState.DIRTY}
        )

    def test_mesi_write_hits_in_dirty_and_exclusive(self):
        spec = get_spec("mesi")
        assert spec.write_hit_states() == frozenset(
            {LineState.DIRTY, LineState.EXCLUSIVE}
        )
        assert spec.silent_upgrade_states == frozenset(
            {LineState.EXCLUSIVE}
        )

    def test_upgrade_states_require_a_directory_message(self):
        for name in spec_names():
            spec = get_spec(name)
            assert not (
                spec.upgrade_states() & spec.silent_upgrade_states
            ), name

    def test_eviction_events_follow_the_state(self):
        mesi = get_spec("mesi")
        assert mesi.eviction_event(LineState.SHARED) is (
            ProtoEvent.EVICT_CLEAN
        )
        assert mesi.eviction_event(LineState.DIRTY) is (
            ProtoEvent.EVICT_DIRTY
        )
        assert mesi.eviction_event(LineState.EXCLUSIVE) is (
            ProtoEvent.EVICT_EXCLUSIVE
        )

    def test_eviction_event_of_nonresident_state_raises(self):
        with pytest.raises(KeyError, match="no eviction rule"):
            get_spec("directory-msi").eviction_event(LineState.EXCLUSIVE)

    def test_owner_states_contained_in_dirty_capable_protocols(self):
        for name in spec_names():
            spec = get_spec(name)
            # Every owner state is exclusive-or-dirty capable: the
            # sanitizer's SWMR check relies on it.
            assert spec.owner_states <= (
                spec.exclusive_states | spec.dirty_states
            ), name


# -- the static battery over every spec ---------------------------------------


class TestStaticBattery:
    @pytest.mark.parametrize("name", spec_names())
    def test_every_spec_lints_clean(self, name):
        result = lint_table(spec=get_spec(name))
        assert result.ok, result.format()
        assert result.reachable_fingerprint == check_protocol(
            ModelConfig(), spec=get_spec(name)
        ).fingerprint

    @pytest.mark.parametrize("name", spec_names())
    def test_every_spec_model_checks_clean(self, name):
        result = check_protocol(ModelConfig(), spec=get_spec(name))
        assert result.violation is None, result.summary()

    def test_latbound_derivation_reproduces_the_msi_reference(self):
        from repro.analysis.latbound import _RULE_SPECS, _derive_class_specs

        class_specs, zero_cost = _derive_class_specs(
            get_spec("directory-msi")
        )
        assert class_specs == _RULE_SPECS
        # Clean evictions are pure replacement hints: no write-back
        # message, so they price into no transaction class.
        assert zero_cost == (
            "evict-clean-other-sharers", "evict-clean-last",
        )


# -- runtime: config validation and the MOESI gate ----------------------------


class TestRuntimeGate:
    def test_unknown_protocol_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="registered specs"):
            dash_scaled_config(num_processors=2, protocol="mosi")

    def test_moesi_is_statically_verified_only(self):
        from repro.sim.engine import SimulationError
        from repro.system import Machine

        config = dash_scaled_config(num_processors=2, protocol="moesi")
        with pytest.raises(SimulationError, match="statically verified"):
            Machine(config)

    def test_protocol_participates_in_result_fingerprint(self):
        from repro.experiments.resultcache import config_fingerprint

        base = dash_scaled_config(num_processors=2)
        mesi = base.replace(protocol="mesi")
        assert config_fingerprint(base) != config_fingerprint(mesi)

    def test_runtime_protocol_carries_its_spec(self):
        from repro.system import Machine

        machine = Machine(
            dash_scaled_config(num_processors=2, protocol="mesi")
        )
        assert machine.protocol.spec is get_spec("mesi")
        assert machine.protocol.table is get_spec("mesi").table


# -- runtime: MESI behaves like MSI at the program level ----------------------


class TestMesiRuntime:
    def test_litmus_outcome_matrix_identical_to_msi(self):
        # The whole standard suite across every consistency model: the
        # observable outcome sets under MESI must equal the MSI
        # baseline pair-for-pair (the protocols are proven trace
        # equivalent statically; this is the runtime echo of that).
        from repro.analysis.litmus import run_suite

        baseline = run_suite()
        mesi = run_suite(config_overrides={"protocol": "mesi"})
        assert len(baseline) == len(mesi) == 20
        for msi_result, mesi_result in zip(baseline, mesi):
            assert mesi_result.ok, mesi_result.explain()
            assert mesi_result.observed == msi_result.observed, (
                msi_result.test.name, msi_result.model.name,
            )

    def test_smoke_trace_conforms_under_mesi(self):
        from repro.analysis.tracecheck import check_app

        report = check_app(
            "MP3D", Consistency.RC, config_overrides={"protocol": "mesi"}
        )
        assert report.ok, report.format()

    def test_sanitized_smoke_run_passes_under_mesi(self):
        from repro.experiments.registry import SMOKE_PROCESSES, smoke_program
        from repro.system import Machine

        config = dash_scaled_config(
            num_processors=SMOKE_PROCESSES, protocol="mesi", sanitize=True
        )
        machine = Machine(config)
        machine.load(smoke_program("LU"))
        machine.run()
        assert machine.sanitizer.checks_performed > 0

    def test_mesi_silent_upgrades_change_timing_but_not_results(self):
        from repro.experiments.registry import SMOKE_PROCESSES, smoke_program
        from repro.system import run_program

        program = smoke_program("LU")
        base = dash_scaled_config(num_processors=SMOKE_PROCESSES)
        msi = run_program(program, base)
        mesi = run_program(program, base.replace(protocol="mesi"))
        # Clean-exclusive write hits skip the directory round trip, so
        # MESI must be strictly faster on this write-heavy kernel...
        assert mesi.execution_time < msi.execution_time
        # ...while the executed program is the same program.
        assert mesi.shared_reads == msi.shared_reads
        assert mesi.shared_writes == msi.shared_writes
        assert mesi.shared_data_bytes == msi.shared_data_bytes
