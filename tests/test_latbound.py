"""Tests for the static latency-bound analyzer (repro.analysis.latbound)."""

import dataclasses

import pytest

from repro.analysis.latbound import (
    LAT_MUTATIONS,
    TxnClass,
    audit_app,
    audit_trace,
    check_accounting,
    derive_envelopes,
)
from repro.analysis.tracecheck import MemoryEventTrace
from repro.config import Consistency, ContentionConfig, dash_scaled_config


def quiet_config(**changes):
    return dash_scaled_config(
        contention=ContentionConfig(enabled=False), **changes
    )


class TestDerivation:
    def test_every_class_and_model_derived(self):
        table = derive_envelopes()
        for model in Consistency:
            for cls in TxnClass:
                env = table.get(model, cls)
                assert env.min_cycles <= env.max_cycles

    def test_min_bounds_are_table1_bases(self):
        table = derive_envelopes()
        lat = dash_scaled_config().latency
        expected = {
            TxnClass.READ_HIT_PRIMARY: lat.read_primary_hit,
            TxnClass.READ_HIT_SECONDARY: lat.read_fill_secondary,
            TxnClass.READ_MISS_LOCAL: lat.read_fill_local,
            TxnClass.READ_MISS_HOME: lat.read_fill_home,
            TxnClass.READ_MISS_DIRTY_HOME: lat.read_fill_home,
            TxnClass.READ_MISS_DIRTY_REMOTE: lat.read_fill_remote,
            TxnClass.WRITE_HIT_SECONDARY: lat.write_owned_secondary,
            TxnClass.WRITE_MISS_LOCAL: lat.write_owned_local,
            TxnClass.WRITE_MISS_HOME: lat.write_owned_home,
            TxnClass.WRITE_MISS_DIRTY_HOME: lat.write_owned_home,
            TxnClass.WRITE_MISS_DIRTY_REMOTE: lat.write_owned_remote,
            TxnClass.WRITEBACK: 0,
        }
        for cls, want in expected.items():
            for model in Consistency:
                assert table.get(model, cls).min_cycles == want

    def test_disabled_contention_collapses_to_points(self):
        # Except the prefetch classes, which are spans over the demand
        # classes a prefetch can become (local fill .. dirty-remote).
        spans = (TxnClass.PREFETCH_SHARED, TxnClass.PREFETCH_EXCLUSIVE)
        table = derive_envelopes(quiet_config())
        for model in Consistency:
            for cls in TxnClass:
                env = table.get(model, cls)
                if cls in spans:
                    assert env.min_cycles < env.max_cycles
                else:
                    assert env.min_cycles == env.max_cycles

    def test_hits_are_exact_even_under_contention(self):
        table = derive_envelopes()
        for cls, want in (
            (TxnClass.READ_HIT_PRIMARY, 1),
            (TxnClass.READ_HIT_SECONDARY, 14),
            (TxnClass.WRITE_HIT_SECONDARY, 2),
        ):
            env = table.get(Consistency.RC, cls)
            assert (env.min_cycles, env.max_cycles) == (want, want)

    def test_term_breakdown_sums_to_max(self):
        table = derive_envelopes()
        for model in Consistency:
            for cls in TxnClass:
                env = table.get(model, cls)
                if cls in (TxnClass.PREFETCH_SHARED,
                           TxnClass.PREFETCH_EXCLUSIVE):
                    continue  # prefetch terms are member spans, not sums
                assert sum(v for _n, v in env.term_breakdown) == \
                    env.max_cycles

    def test_sc_writes_dominated_by_rc(self):
        # Buffered models drain writes on the (deeper) background chain,
        # so SC write ceilings never exceed RC's.
        table = derive_envelopes()
        for cls in TxnClass:
            sc = table.get(Consistency.SC, cls)
            rc = table.get(Consistency.RC, cls)
            assert sc.min_cycles == rc.min_cycles
            assert sc.max_cycles <= rc.max_cycles

    def test_invalidation_ack_allowance_on_shared_write_classes(self):
        table = derive_envelopes()
        lat = dash_scaled_config().latency
        for cls in (TxnClass.WRITE_MISS_LOCAL, TxnClass.WRITE_MISS_HOME,
                    TxnClass.WRITE_UPGRADE_LOCAL, TxnClass.WRITE_UPGRADE_HOME):
            assert table.get(Consistency.SC, cls).ack_cycles == \
                lat.invalidation_ack_remote
        for cls in (TxnClass.READ_MISS_HOME,
                    TxnClass.WRITE_MISS_DIRTY_REMOTE):
            assert table.get(Consistency.SC, cls).ack_cycles == 0

    def test_uncached_is_cached_minus_discount(self):
        table = derive_envelopes()
        lat = dash_scaled_config().latency
        env = table.get(Consistency.RC, TxnClass.UNCACHED_READ_REMOTE)
        assert env.min_cycles == lat.read_fill_home - lat.uncached_discount

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError):
            derive_envelopes(mutation="no-such-defect")


#: ``derive_envelopes(spec=...).fingerprint()`` on the default config,
#: per registered spec.  A change to a declared charge plan
#: (``repro.interconnect.plans``), to how latbound picks plans, or to a
#: spec's pricing moves these; re-record them only for an intended
#: change to the latency model.
RECORDED_FINGERPRINTS = {
    "directory-msi":
        "b17d56d8f72411cdf81499017203b001658f4194de82823445722b122e1db58b",
    "mesi":
        "b17d56d8f72411cdf81499017203b001658f4194de82823445722b122e1db58b",
    "moesi":
        "fc7e707ebd8234d88d87cffa66b7117721ec4e08a3dbb684b318c9e5f2841614",
}


class TestFingerprint:
    def test_pinned_for_every_registered_spec(self):
        from repro.coherence.specs import get_spec, spec_names

        assert {
            name: derive_envelopes(spec=get_spec(name)).fingerprint()
            for name in spec_names()
        } == RECORDED_FINGERPRINTS

    def test_stable_across_rederivation(self):
        assert derive_envelopes().fingerprint() == \
            derive_envelopes().fingerprint()

    def test_sensitive_to_latency_change(self):
        base = derive_envelopes().fingerprint()
        config = dash_scaled_config()
        bumped = config.replace(
            latency=dataclasses.replace(
                config.latency,
                read_fill_home=config.latency.read_fill_home + 1,
            )
        )
        assert derive_envelopes(bumped).fingerprint() != base

    def test_sensitive_to_occupancy_change(self):
        base = derive_envelopes().fingerprint()
        bumped = dash_scaled_config(
            contention=ContentionConfig(memory_occupancy=9)
        )
        assert derive_envelopes(bumped).fingerprint() != base


class TestStaticConformance:
    def test_clean_on_default_config(self):
        result = check_accounting()
        assert result.ok, [f.format() for f in result.findings]

    def test_clean_on_contention_free_config(self):
        result = check_accounting(quiet_config())
        assert result.ok, [f.format() for f in result.findings]

    def test_summary_counts_classes_and_models(self):
        summary = check_accounting().summary()
        assert "24 transaction classes" in summary
        assert "4 consistency models" in summary

    def test_uncharged_hop_caught_by_continuity(self):
        result = check_accounting(mutation="uncharged-hop")
        assert not result.ok
        checks = {f.check for f in result.findings}
        assert checks == {"hop-continuity"}
        assert any("uncharged hop" in f.message for f in result.findings)
        assert all(f.witness for f in result.findings)

    def test_double_charged_directory_caught(self):
        result = check_accounting(
            mutation="double-charged-directory-occupancy"
        )
        assert not result.ok
        checks = {f.check for f in result.findings}
        assert "directory-single-pass" in checks
        assert any("2 times" in f.message for f in result.findings)

    def test_envelope_too_tight_evades_static_passes(self):
        # By design: the defect only shifts bounds, so every structural
        # pass stays green and only the trace audit can refute it.
        result = check_accounting(mutation="envelope-too-tight")
        assert result.ok

    def test_monotone_in_home_latency(self):
        config = dash_scaled_config()
        bumped = config.replace(
            latency=dataclasses.replace(
                config.latency,
                read_fill_home=config.latency.read_fill_home + 5,
            )
        )
        before = derive_envelopes(config)
        after = derive_envelopes(bumped)
        env_b = before.get(Consistency.RC, TxnClass.READ_MISS_HOME)
        env_a = after.get(Consistency.RC, TxnClass.READ_MISS_HOME)
        assert env_a.min_cycles == env_b.min_cycles + 5
        assert env_a.max_cycles == env_b.max_cycles + 5


class TestAudit:
    def test_synthetic_trace_within_envelope_passes(self):
        config = quiet_config()
        table = derive_envelopes(config)
        trace = MemoryEventTrace(line_bytes=16)
        base = config.latency.read_fill_home
        trace.record_read(0, 0x100, 1000, 1000 + base, "memory", "home", None)
        report = audit_trace(trace, table, Consistency.SC)
        assert report.ok
        assert report.checked == 1

    def test_synthetic_trace_below_floor_is_witnessed(self):
        config = quiet_config()
        table = derive_envelopes(config)
        trace = MemoryEventTrace(line_bytes=16)
        trace.record_read(0, 0x100, 1000, 1010, "memory", "home", None)
        report = audit_trace(trace, table, Consistency.SC)
        assert not report.ok
        witness = report.violations[0]
        assert witness.observed == 10
        assert witness.what == "latency"
        assert "read-miss-home" in witness.format()

    def test_combined_and_sync_events_skipped(self):
        table = derive_envelopes(quiet_config())
        trace = MemoryEventTrace(line_bytes=16)
        trace.record_read(0, 0x100, 1000, 1001, "combine", "home", 7)
        trace.record_acquire(0, 0, 0, 0x200, 1000, "lock")
        report = audit_trace(trace, table, Consistency.SC)
        assert report.checked == 0
        assert report.skipped == 2

    def test_smoke_app_has_zero_violations(self):
        for model in (Consistency.SC, Consistency.RC):
            report = audit_app("MP3D", model)
            assert report.ok, report.format()
            assert report.checked > 1000

    def test_envelope_too_tight_caught_by_audit_with_witness(self):
        report = audit_app("MP3D", mutation="envelope-too-tight")
        assert not report.ok
        first = report.violations[0]
        # BFS-minimal witness: no earlier audited event violates.
        assert first.eid == min(v.eid for v in report.violations)
        assert "outside" in report.format()

    def test_all_three_mutations_detected_somewhere(self):
        for mutation in LAT_MUTATIONS:
            static = check_accounting(mutation=mutation)
            if static.ok:
                assert not audit_app("MP3D", mutation=mutation).ok
