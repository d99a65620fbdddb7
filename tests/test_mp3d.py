"""Tests for the MP3D application: physics and simulated execution."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.mp3d import (
    FlowField,
    MP3DConfig,
    Particle,
    accumulate,
    maybe_collide,
    move_particle,
    mp3d_program,
    seed_particles,
)
from repro.apps.mp3d.config import bench_scale, paper_scale
from repro.config import Consistency, dash_scaled_config
from repro.system import run_program
import random


class TestPhysics:
    def test_field_has_object_cells(self):
        field = FlowField(8, 12, 5)
        assert any(cell.is_object for cell in field.cells)
        assert sum(1 for c in field.cells if c.is_object) < len(field.cells)

    def test_seeding_avoids_object(self):
        field = FlowField(6, 6, 6)
        particles = seed_particles(field, 100, random.Random(1))
        assert len(particles) == 100
        for p in particles:
            assert not field.cells[field.cell_index(p)].is_object

    def test_move_keeps_particles_in_domain(self):
        field = FlowField(6, 6, 6)
        particles = seed_particles(field, 200, random.Random(2))
        for _ in range(20):
            for p in particles:
                move_particle(field, p)
                assert field.contains(p)

    def test_wall_reflection_reverses_velocity(self):
        field = FlowField(4, 4, 4)
        p = Particle(x=3.9, y=2.0, z=2.0, vx=1.0, vy=0.0, vz=0.0)
        move_particle(field, p, dt=1.0)
        assert p.vx < 0
        assert 0 <= p.x < 4

    def test_object_bounce_returns_to_old_cell(self):
        field = FlowField(6, 6, 6)
        # Find a non-object cell adjacent to the object in +x.
        p = None
        for x in range(5):
            for y in range(6):
                for z in range(6):
                    here = field.cells[field.cell_index_xyz(x, y, z)]
                    there = field.cells[field.cell_index_xyz(x + 1, y, z)]
                    if not here.is_object and there.is_object:
                        p = Particle(x + 0.9, y + 0.5, z + 0.5, 1.0, 0.0, 0.0)
                        break
        assert p is not None
        old_cell = field.cell_index(p)
        new_cell = move_particle(field, p, dt=0.5)
        assert new_cell == old_cell
        assert p.vx < 0

    def test_collision_swaps_with_reservoir(self):
        field = FlowField(4, 4, 4)
        cell = field.cells[0]
        cell.reservoir = (9.0, 8.0, 7.0)
        p = Particle(0.5, 0.5, 0.5, 1.0, 2.0, 3.0)
        rng = random.Random(0)
        # Force collision via scale 1.0 and repeated tries.
        collided = False
        for _ in range(50):
            if maybe_collide(cell, p, rng, 1.0):
                collided = True
                break
        assert collided
        assert cell.reservoir == (1.0, 2.0, 3.0)
        assert (p.vx, p.vy, p.vz) == (9.0 + 0.01, 8.0, 7.0)

    def test_accumulate(self):
        field = FlowField(4, 4, 4)
        cell = field.cells[0]
        accumulate(cell, Particle(0, 0, 0, 1.0, 2.0, 3.0))
        accumulate(cell, Particle(0, 0, 0, 1.0, 0.0, 0.0))
        assert cell.population == 2
        assert cell.momentum == (2.0, 2.0, 3.0)
        cell.reset_statistics()
        assert cell.population == 0

    @given(
        st.floats(min_value=-3, max_value=9),
        st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=100)
    def test_property_reflection_stays_in_bounds(self, pos, vel):
        from repro.apps.mp3d.physics import _reflect

        value, new_vel = _reflect(pos, vel, 6.0)
        assert 0 <= value < 6.0 or math.isclose(value, 6.0, abs_tol=1e-6)

    @staticmethod
    def _axis_values(size: int):
        """Positions along an axis of ``size`` cells: below 0, inside,
        and at or above ``size``, with the integer edges themselves."""
        return st.one_of(
            st.floats(min_value=-3 * size, max_value=3 * size),
            st.sampled_from([-1.0, -1e-9, 0.0, size - 1e-9, float(size), size + 0.5]),
        )

    @given(data=st.data(), dims=st.tuples(*[st.integers(1, 9)] * 3))
    @settings(max_examples=300, deadline=None)
    def test_property_cell_index_clamps_each_axis(self, data, dims):
        nx, ny, nz = dims
        field = FlowField(nx, ny, nz)
        x, y, z = (data.draw(self._axis_values(n)) for n in dims)
        particle = Particle(x, y, z, 0.0, 0.0, 0.0)
        cx = min(nx - 1, max(0, int(x)))
        cy = min(ny - 1, max(0, int(y)))
        cz = min(nz - 1, max(0, int(z)))
        assert field.cell_index(particle) == (cz * ny + cy) * nx + cx


class TestConfig:
    def test_paper_scale(self):
        config = paper_scale()
        assert config.num_particles == 10_000
        assert (config.space_x, config.space_y, config.space_z) == (14, 24, 7)
        assert config.time_steps == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            MP3DConfig(num_particles=0)
        with pytest.raises(ValueError):
            MP3DConfig(space_x=0)
        with pytest.raises(ValueError):
            MP3DConfig(collision_scale=2.0)


class TestSimulatedRun:
    @pytest.fixture(scope="class")
    def result(self):
        config = dash_scaled_config(num_processors=4)
        return run_program(mp3d_program(bench_scale()), config)

    def test_completes_all_steps(self, result):
        assert result.world.steps_completed == bench_scale().time_steps

    def test_particle_count_conserved(self, result):
        assert len(result.world.particles) == bench_scale().num_particles

    def test_particles_remain_in_domain(self, result):
        field = result.world.field
        for p in result.world.particles:
            assert field.contains(p)

    def test_no_locks_used(self, result):
        # MP3D uses only barriers (Table 2: zero locks).
        assert result.sync.lock_acquires == 0
        assert result.sync.flag_waits == 0
        assert result.sync.barrier_crossings > 0

    def test_deterministic_across_runs(self):
        config = dash_scaled_config(num_processors=4)
        a = run_program(mp3d_program(bench_scale()), config)
        b = run_program(mp3d_program(bench_scale()), config)
        assert a.execution_time == b.execution_time
        assert a.shared_reads == b.shared_reads

    def test_reads_outnumber_writes(self, result):
        assert result.shared_reads > result.shared_writes

    def test_rc_faster_than_sc(self):
        sc = run_program(
            mp3d_program(bench_scale()),
            dash_scaled_config(num_processors=4, consistency=Consistency.SC),
        )
        rc = run_program(
            mp3d_program(bench_scale()),
            dash_scaled_config(num_processors=4, consistency=Consistency.RC),
        )
        assert rc.execution_time < sc.execution_time

    def test_prefetching_issues_prefetches_and_helps(self):
        config = dash_scaled_config(num_processors=4)
        plain = run_program(mp3d_program(bench_scale()), config)
        prefetched = run_program(
            mp3d_program(bench_scale(), prefetching=True), config
        )
        assert prefetched.prefetch.issued_by_processor > 0
        assert prefetched.execution_time < plain.execution_time


class TestPrefetchModes:
    def test_remote_only_issues_fewer_prefetches(self):
        from repro.apps.base import PrefetchMode

        config = dash_scaled_config(num_processors=4)
        full = run_program(mp3d_program(bench_scale(), prefetching=True), config)
        remote = run_program(
            mp3d_program(bench_scale(), prefetching=PrefetchMode.REMOTE_ONLY),
            config,
        )
        assert 0 < remote.prefetch.issued_by_processor < full.prefetch.issued_by_processor

    def test_bool_flag_still_works(self):
        from repro.apps.base import PrefetchMode, prefetch_mode

        assert prefetch_mode(False) is PrefetchMode.OFF
        assert prefetch_mode(True) is PrefetchMode.FULL
        assert prefetch_mode(PrefetchMode.REMOTE_ONLY) is PrefetchMode.REMOTE_ONLY
