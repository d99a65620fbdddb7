"""Tests for the consistency policy switches and their observable
end-to-end semantics."""

import pytest

from repro.config import Consistency, ContentionConfig, dash_scaled_config
from repro.consistency import ConsistencyPolicy, policy_for
from repro.system import Machine, run_program
from repro.tango import Program
from repro.tango import ops as O


class TestPolicyFlags:
    def test_sc_flags(self):
        policy = policy_for(Consistency.SC)
        assert policy.write_stalls_processor
        assert not policy.writes_buffered
        assert not policy.reads_bypass_writes
        assert not policy.release_requires_completion

    def test_rc_flags(self):
        policy = policy_for(Consistency.RC)
        assert not policy.write_stalls_processor
        assert policy.writes_buffered
        assert policy.reads_bypass_writes
        assert policy.release_requires_completion

    def test_policy_is_value_object(self):
        assert policy_for(Consistency.SC) == ConsistencyPolicy(Consistency.SC)


def _two_proc_program(writer_ops, reader_ops):
    def setup(allocator, num_processes):
        return {
            "data": allocator.alloc_local("data", 4096, 0),
            "sync": allocator.alloc_round_robin("sync", 2048),
        }

    def factory(world, env):
        return writer_ops(world) if env.process_id == 0 else reader_ops(world)

    return Program("pair", setup, factory)


def _config(consistency):
    return dash_scaled_config(
        num_processors=2,
        consistency=consistency,
        contention=ContentionConfig(enabled=False),
    )


class TestReleaseSemantics:
    def test_rc_release_orders_writes_before_acquire(self):
        """The consumer must observe the producer's writes after
        acquiring the lock the producer released — i.e. the release is
        delayed past write completion, making the consumer's acquire
        grant later than the producer's last write completion."""
        observed = {}

        def writer(world):
            def thread():
                for i in range(8):
                    yield (O.WRITE, world["data"].addr(i * 16))
                yield (O.LOCK, world["sync"].addr(0))
                yield (O.UNLOCK, world["sync"].addr(0))
                yield (O.BARRIER, world["sync"].addr(512), 2)

            return thread()

        def reader(world):
            def thread():
                yield (O.BUSY, 5)
                yield (O.LOCK, world["sync"].addr(0))
                observed["acquired"] = True
                yield (O.UNLOCK, world["sync"].addr(0))
                yield (O.BARRIER, world["sync"].addr(512), 2)

            return thread()

        result = run_program(
            _two_proc_program(writer, reader), _config(Consistency.RC)
        )
        assert observed["acquired"]
        assert result.execution_time > 0

    def test_rc_hides_write_latency_sc_does_not(self):
        def writer(world):
            def thread():
                for i in range(32):
                    yield (O.WRITE, world["data"].addr((i * 16) % 4096))
                    yield (O.BUSY, 2)
                yield (O.BARRIER, world["sync"].addr(512), 2)

            return thread()

        def reader(world):
            def thread():
                yield (O.BARRIER, world["sync"].addr(512), 2)

            return thread()

        program_sc = _two_proc_program(writer, reader)
        program_rc = _two_proc_program(writer, reader)
        # Process 0 writes lines homed remotely from its node?  No —
        # data is local to node 0, but the *reader*'s barrier keeps both
        # alive; the point is SC stalls per write, RC does not.
        sc = run_program(program_sc, _config(Consistency.SC))
        rc = run_program(program_rc, _config(Consistency.RC))
        assert rc.execution_time < sc.execution_time

    def test_sc_and_rc_produce_identical_python_results(self):
        """Consistency model changes timing, never application values."""
        from repro.apps import LUConfig, lu_program

        sc = run_program(
            lu_program(LUConfig(n=16)), _config(Consistency.SC)
        )
        rc = run_program(
            lu_program(LUConfig(n=16)), _config(Consistency.RC)
        )
        assert sc.world.columns == rc.world.columns


class TestIntermediateModels:
    def test_pc_flags(self):
        policy = policy_for(Consistency.PC)
        assert policy.writes_buffered
        assert not policy.release_requires_completion
        assert not policy.acquire_requires_completion

    def test_wc_flags(self):
        policy = policy_for(Consistency.WC)
        assert policy.writes_buffered
        assert policy.release_requires_completion
        assert policy.acquire_requires_completion

    def test_rc_has_no_acquire_fence(self):
        assert not policy_for(Consistency.RC).acquire_requires_completion

    def test_spectrum_ordering_end_to_end(self):
        """SC is slowest; PC/WC/RC buffered models are all faster and
        all compute the same factorization."""
        from repro.apps import LUConfig, lu_program

        times = {}
        worlds = {}
        for model in (Consistency.SC, Consistency.PC, Consistency.WC,
                      Consistency.RC):
            result = run_program(
                lu_program(LUConfig(n=20)), _config(model)
            )
            times[model] = result.execution_time
            worlds[model] = result.world.columns
        assert max(times[m] for m in (Consistency.PC, Consistency.WC,
                                      Consistency.RC)) <= times[Consistency.SC]
        reference = worlds[Consistency.SC]
        for model, columns in worlds.items():
            assert columns == reference, model


class TestLitmusMatrix:
    """Litmus programs through the full machine under every model.

    Uses the analysis package's litmus runner: outcomes are derived from
    protocol timestamps (a read performs at issue, a write at retire),
    and each (test, model) pair is run over a set of start-skew
    schedules.  Forbidden outcomes must never appear; required outcomes
    (the model's characteristic relaxation or strength) must appear.
    """

    @pytest.fixture(scope="class")
    def suite(self):
        from repro.analysis.litmus import standard_suite

        return {test.name: test for test in standard_suite()}

    @pytest.mark.parametrize("model", list(Consistency))
    @pytest.mark.parametrize(
        "name", ["SB", "SB_locked", "MP_plain", "MP_flag", "IRIW"]
    )
    def test_litmus(self, suite, name, model):
        from repro.analysis.litmus import run_litmus

        result = run_litmus(suite[name], model)
        assert result.ok, result.explain()

    def test_sb_distinguishes_sc_from_buffered_models(self, suite):
        """The (0, 0) store-buffering outcome is the observable
        difference between SC and every write-buffered model."""
        from repro.analysis.litmus import run_litmus

        sc = run_litmus(suite["SB"], Consistency.SC)
        assert (0, 0) not in sc.observed
        for model in (Consistency.PC, Consistency.WC, Consistency.RC):
            relaxed = run_litmus(suite["SB"], model)
            assert (0, 0) in relaxed.observed, model

    def test_verify_litmus_passes(self):
        from repro.analysis.litmus import verify_litmus

        results = verify_litmus()
        assert len(results) == 20  # 5 tests x 4 models


class TestLitmusEdgeCases:
    """Config-ablation litmus runs: verdicts must survive turning the
    write-buffer read bypass off and installing an empty fault plan."""

    @pytest.fixture(scope="class")
    def suite(self):
        from repro.analysis.litmus import standard_suite

        return {test.name: test for test in standard_suite()}

    @pytest.mark.parametrize("bypass", [True, False])
    def test_iriw_under_rc_with_and_without_wb_bypass(self, suite, bypass):
        """IRIW's write atomicity comes from the invalidation protocol,
        not from buffer bypassing: the verdict is identical either way."""
        from repro.analysis.litmus import run_litmus

        result = run_litmus(
            suite["IRIW"], Consistency.RC,
            config_overrides={"write_buffer_bypass": bypass},
        )
        assert result.ok, result.explain()
        assert (1, 0, 1, 0) not in result.observed  # readers never disagree

    def test_wb_bypass_ablation_preserves_sb_verdicts(self, suite):
        """Store buffering under RC relaxes via buffered *writes*; reads
        bypassing the buffer is orthogonal, so (0, 0) appears with the
        bypass disabled too."""
        from repro.analysis.litmus import run_litmus

        on = run_litmus(suite["SB"], Consistency.RC)
        off = run_litmus(
            suite["SB"], Consistency.RC,
            config_overrides={"write_buffer_bypass": False},
        )
        assert on.ok and off.ok
        assert (0, 0) in off.observed

    @pytest.mark.parametrize("name", ["SB", "MP_flag", "IRIW"])
    def test_empty_fault_plan_leaves_verdicts_unchanged(self, suite, name):
        """A seeded-but-empty FaultPlan installs no fault layer; every
        observed outcome set must be bit-identical to the plain run."""
        from repro.analysis.litmus import run_litmus
        from repro.faults import FaultPlan

        for model in (Consistency.SC, Consistency.RC):
            plain = run_litmus(suite[name], model)
            faulted = run_litmus(
                suite[name], model,
                config_overrides={
                    "fault_plan": FaultPlan.empty(), "seed": 1234,
                },
            )
            assert faulted.ok, faulted.explain()
            assert faulted.observed == plain.observed
            assert faulted.by_schedule == plain.by_schedule
