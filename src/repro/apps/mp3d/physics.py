"""MP3D particle physics.

A direct-simulation Monte-Carlo (DSMC) style rarefied-flow model in the
spirit of McDonald & Baganoff's simulator: particles stream through a
3-D space array of cells under free-molecular flow, reflect off the
domain walls and an embedded rectangular object, and collide with a
per-cell reservoir particle under a probabilistic model.  This is the
*real* computation the application threads carry out; cell statistics
(population and momentum) accumulate per time step exactly like the
original's space-cell records.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class Particle:
    x: float
    y: float
    z: float
    vx: float
    vy: float
    vz: float

    def speed(self) -> float:
        return math.sqrt(self.vx**2 + self.vy**2 + self.vz**2)


@dataclass
class SpaceCell:
    """One space-array cell: boundary info plus per-step statistics."""

    population: int = 0
    momentum: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    #: Reservoir velocity used by the probabilistic collision model.
    reservoir: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    is_object: bool = False

    def reset_statistics(self) -> None:
        self.population = 0
        self.momentum = (0.0, 0.0, 0.0)


@dataclass
class FlowField:
    """The simulation domain: dimensions, cells, embedded object."""

    nx: int
    ny: int
    nz: int
    cells: List[SpaceCell] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.cells:
            self.cells = [SpaceCell() for _ in range(self.nx * self.ny * self.nz)]
            self._embed_object()

    def _embed_object(self) -> None:
        """Mark a centred box of cells as the flying object."""
        x0, x1 = self.nx // 3, max(self.nx // 3 + 1, 2 * self.nx // 3)
        y0, y1 = self.ny // 3, max(self.ny // 3 + 1, 2 * self.ny // 3)
        z0, z1 = self.nz // 3, max(self.nz // 3 + 1, 2 * self.nz // 3)
        for x in range(x0, x1):
            for y in range(y0, y1):
                for z in range(z0, z1):
                    self.cells[self.cell_index_xyz(x, y, z)].is_object = True

    def cell_index_xyz(self, x: int, y: int, z: int) -> int:
        return (z * self.ny + y) * self.nx + x

    def cell_index(self, particle: Particle) -> int:
        """Index of the cell holding ``particle``, each axis clamped into
        ``[0, n - 1]``: :meth:`cell_index_xyz` of
        ``min(n - 1, max(0, int(v)))``, spelled without the calls (it
        runs twice per particle move)."""
        nx = self.nx
        ny = self.ny
        nz = self.nz
        x = int(particle.x)
        x = 0 if x < 0 else (nx - 1 if x >= nx else x)
        y = int(particle.y)
        y = 0 if y < 0 else (ny - 1 if y >= ny else y)
        z = int(particle.z)
        z = 0 if z < 0 else (nz - 1 if z >= nz else z)
        return (z * ny + y) * nx + x

    def contains(self, particle: Particle) -> bool:
        return (
            0.0 <= particle.x < self.nx
            and 0.0 <= particle.y < self.ny
            and 0.0 <= particle.z < self.nz
        )


def seed_particles(
    field_: FlowField, count: int, rng: random.Random, stream_velocity: float = 1.2
) -> List[Particle]:
    """Place ``count`` particles uniformly with a streaming velocity in x
    plus thermal jitter, avoiding the object's cells."""
    particles = []
    while len(particles) < count:
        p = Particle(
            x=rng.uniform(0.0, field_.nx),
            y=rng.uniform(0.0, field_.ny),
            z=rng.uniform(0.0, field_.nz),
            vx=stream_velocity + rng.gauss(0.0, 0.3),
            vy=rng.gauss(0.0, 0.3),
            vz=rng.gauss(0.0, 0.3),
        )
        if not field_.cells[field_.cell_index(p)].is_object:
            particles.append(p)
    return particles


def _reflect(value: float, velocity: float, limit: float) -> Tuple[float, float]:
    """Specular reflection off the walls at 0 and ``limit``."""
    if value < 0.0:
        return -value, -velocity
    if value >= limit:
        return 2.0 * limit - value - 1e-9, -velocity
    return value, velocity


def move_particle(field_: FlowField, p: Particle, dt: float = 0.5) -> int:
    """Advance one particle one time step; returns its new cell index.

    Handles wall reflection and object collision (specular bounce off
    the object's cell boundary).
    """
    old_cell = field_.cell_index(p)
    p.x += p.vx * dt
    p.y += p.vy * dt
    p.z += p.vz * dt
    p.x, p.vx = _reflect(p.x, p.vx, float(field_.nx))
    p.y, p.vy = _reflect(p.y, p.vy, float(field_.ny))
    p.z, p.vz = _reflect(p.z, p.vz, float(field_.nz))
    new_cell = field_.cell_index(p)
    if field_.cells[new_cell].is_object:
        # Bounce off the object: reverse velocity and return to the
        # centre of the previous cell (conservative specular bounce).
        p.vx, p.vy, p.vz = -p.vx, -p.vy, -p.vz
        p.x, p.y, p.z = _restore(field_, p, old_cell)
        new_cell = old_cell
    return new_cell


def _restore(field_: FlowField, p: Particle, old_cell: int):
    """Return a position inside ``old_cell`` (centre of the cell)."""
    nx, ny = field_.nx, field_.ny
    cx = old_cell % nx
    cy = (old_cell // nx) % ny
    cz = old_cell // (nx * ny)
    return cx + 0.5, cy + 0.5, cz + 0.5


def maybe_collide(
    cell: SpaceCell, p: Particle, rng: random.Random, scale: float
) -> bool:
    """Probabilistic collision with the cell's reservoir particle.

    With probability proportional to the cell's population the particle
    exchanges velocity with the reservoir (energy-conserving swap),
    modelling a binary collision with a representative partner.
    """
    probability = min(1.0, scale * (1.0 + 0.1 * cell.population) * 0.5)
    if rng.random() >= probability:
        return False
    rvx, rvy, rvz = cell.reservoir
    cell.reservoir = (p.vx, p.vy, p.vz)
    p.vx, p.vy, p.vz = rvx + 0.01, rvy, rvz
    return True


def accumulate(cell: SpaceCell, p: Particle) -> None:
    """Add the particle to the cell's per-step statistics."""
    mx, my, mz = cell.momentum
    cell.population += 1
    cell.momentum = (mx + p.vx, my + p.vy, mz + p.vz)


def total_momentum(particles: List[Particle]) -> Tuple[float, float, float]:
    return (
        sum(p.vx for p in particles),
        sum(p.vy for p in particles),
        sum(p.vz for p in particles),
    )
