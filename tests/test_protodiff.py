"""Tests for the differential protocol-equivalence analyzer.

The differ's claim is sharp: two specs are reported equivalent exactly
when their tau-closed visible trace languages (load values and
ownership transfers) coincide under the bounded configuration, and a
refutation comes with a BFS-minimal witness.  These tests pin the
registry's containment chain (MSI ~ MESI ~ MOESI), the seeded
mutation's refutation including the exact minimal witness, and the
witness formatting the CLI prints.
"""

import hashlib
import itertools

import pytest

from repro.analysis.modelcheck import ModelConfig
from repro.analysis.protodiff import (
    DIFF_MUTATIONS,
    diff_config,
    diff_specs,
    format_act,
    mutated_spec,
)
from repro.coherence.specs import get_spec, spec_names


# -- the equivalence matrix ---------------------------------------------------


class TestEquivalenceMatrix:
    @pytest.mark.parametrize(
        "left,right", list(itertools.combinations(spec_names(), 2))
    )
    def test_registered_pairs_are_trace_equivalent(self, left, right):
        result = diff_specs(get_spec(left), get_spec(right))
        assert result.ok, result.format()
        assert result.divergence is None
        assert "observationally equivalent" in result.summary()

    def test_equivalence_is_reflexive(self):
        spec = get_spec("mesi")
        assert diff_specs(spec, spec).ok

    def test_summary_reports_state_counts_and_bounds(self):
        result = diff_specs(get_spec("directory-msi"), get_spec("mesi"))
        text = result.summary()
        assert f"{result.left_states} vs {result.right_states}" in text
        assert "2 caches" in text
        assert result.product_states > 0

    def test_diff_config_disables_nacks(self):
        # NACK/retry bounces only multiply tau interleavings; the
        # differ's default bounds drop them so the product stays small.
        assert diff_config().nacks is False


# -- the seeded mutation ------------------------------------------------------


class TestMutation:
    def test_mutated_spec_is_marked_and_not_runtime_supported(self):
        spec = mutated_spec("mesi-without-e-writeback")
        assert spec.name == "mesi[mesi-without-e-writeback]"
        assert not spec.runtime_supported
        assert spec.fingerprint() != get_spec("mesi").fingerprint()

    def test_mutation_is_refuted_with_minimal_witness(self):
        result = diff_specs(
            get_spec("directory-msi"),
            mutated_spec("mesi-without-e-writeback"),
        )
        assert not result.ok
        divergence = result.divergence
        assert divergence is not None
        # The minimal distinguishing behavior: write 1, read it back,
        # then the stale read — the dropped E write-back notification
        # lets the departed owner's line be served from a stale entry.
        assert len(divergence.prefix) == 2
        assert format_act(divergence.prefix[0]) == "W(c0,l0,v1)"
        assert format_act(divergence.prefix[1]) == "R(c0,l0)->v1"
        assert format_act(divergence.action) == "R(c0,l0)->v0"
        assert divergence.enabled_in == "mesi[mesi-without-e-writeback]"
        assert divergence.missing_in == "directory-msi"

    def test_witness_format_is_the_numbered_trace_the_cli_prints(self):
        result = diff_specs(
            get_spec("directory-msi"),
            mutated_spec("mesi-without-e-writeback"),
        )
        text = result.format()
        assert "NOT equivalent" in text
        assert "divergence after 2 visible step(s):" in text
        assert "1. W(c0,l0,v1)" in text
        assert (
            "possible in mesi[mesi-without-e-writeback], "
            "impossible in directory-msi" in text
        )

    def test_divergence_text_is_pinned(self):
        result = diff_specs(
            get_spec("directory-msi"),
            mutated_spec("mesi-without-e-writeback"),
        )
        text = result.format()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ad3513645c97b389ae274c3cc917fca816b694176c5ead4a5547225e4140c9c6"
        ), text

    def test_every_published_mutation_is_refuted(self):
        msi = get_spec("directory-msi")
        for mutation in DIFF_MUTATIONS:
            assert not diff_specs(msi, mutated_spec(mutation)).ok, mutation

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown protodiff mutation"):
            mutated_spec("drop-everything")


# -- bounds and guardrails ----------------------------------------------------


class TestBounds:
    def test_state_budget_overflow_is_loud(self):
        tiny = ModelConfig(nacks=False, max_states=8)
        with pytest.raises(RuntimeError, match="exceeds"):
            diff_specs(get_spec("directory-msi"), get_spec("mesi"), tiny)

    def test_format_act_covers_reads_and_writes(self):
        assert format_act(("W", 1, 0, 2)) == "W(c1,l0,v2)"
        assert format_act(("R", 0, 1, 0)) == "R(c0,l1)->v0"
