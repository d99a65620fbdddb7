"""Node bus and network link contention model."""

from repro.interconnect.network import Interconnect, NodeLinks
from repro.interconnect.plans import (
    PLANS,
    ChargeKind,
    max_occupancy,
    occupancy_of,
    stations_per_charge,
)

__all__ = [
    "PLANS",
    "ChargeKind",
    "Interconnect",
    "NodeLinks",
    "max_occupancy",
    "occupancy_of",
    "stations_per_charge",
]
