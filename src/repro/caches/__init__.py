"""Cache hierarchy structures: caches and MSHRs."""

from repro.caches.cache import DirectMappedCache, LineState
from repro.caches.mshr import MSHRTable, OutstandingMiss

__all__ = [
    "DirectMappedCache",
    "LineState",
    "MSHRTable",
    "OutstandingMiss",
]
