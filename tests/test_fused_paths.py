"""Fused fast paths against the classic protocol path.

The memory interface and the processor loop serve read hits and owned
write hits inline, probing the packed cache arrays.  Installing a
pass-through wrapper on ``protocol.read``/``write``/``prefetch`` through
``Machine.interpose`` closes every one of those gates (the same
mechanism the sanitizer, the litmus recorder and the fault injector
rely on) and routes each access through the protocol's own entry
points, so each configuration here runs twice — fused and classic
(gates closed) — and must produce identical canonical results and
identical protocol counters.  The associative legs cover the probes'
fallback from plane 0 to the deeper planes.  Every prefetch reaches
``protocol.prefetch``, the one copy of the discard test, on both legs;
``tests/test_coherence.py`` (``TestPackedPrefetchDiscard``) tests that
test itself.
"""

import itertools
from functools import partial

import pytest

from repro.config import CacheGeometry, Consistency, dash_scaled_config
from repro.experiments import SMOKE_PROCESSES, build_app
from repro.experiments.resultcache import canonical_result_bytes
from repro.system import Machine

APPS = ("LU", "MP3D", "PTHOR")

#: ``(consistency, protocol, prefetching)`` legs run for every app.
LEGS = list(
    itertools.product(
        (Consistency.SC, Consistency.RC), ("directory-msi", "mesi"), (False, True)
    )
)

#: Memory-interface counters the fused paths bump directly.
IFACE_COUNTERS = (
    "prefetches_discarded",
    "prefetches_sent",
    "write_buffer_full_stall_cycles",
    "prefetch_buffer_full_stall_cycles",
    "demand_combined_with_prefetch",
    "store_forwards",
)


def close_fused_gates(machine) -> dict:
    """Interpose counting pass-throughs on the protocol's transaction
    entry points; returns per-entry-point call counts."""
    calls = {}

    def passthrough(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in ("read", "write", "prefetch"):
        calls[name] = 0
        machine.interpose(machine.protocol, name, partial(passthrough, name))
    return calls


def observe(app, config, prefetching, classic):
    machine = Machine(config)
    calls = close_fused_gates(machine) if classic else None
    machine.load(build_app(app, "smoke", prefetching=prefetching))
    result = machine.run()
    observed = (
        canonical_result_bytes(result),
        list(machine.protocol.stats.counter_items()),
        [
            tuple(getattr(iface, name) for name in IFACE_COUNTERS)
            for iface in machine.memifaces
        ],
    )
    return observed, calls


def assert_fused_matches_classic(app, config, prefetching):
    fused, _ = observe(app, config, prefetching, classic=False)
    classic, calls = observe(app, config, prefetching, classic=True)
    assert fused[0] == classic[0], "canonical result bytes differ"
    assert fused[1] == classic[1], "protocol counters differ"
    assert fused[2] == classic[2], "memory-interface counters differ"
    # The wrappers really did route the run through the classic path.
    assert calls["read"] > 0 and calls["write"] > 0
    if prefetching:
        assert calls["prefetch"] > 0


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize(
    "consistency,protocol,prefetching",
    LEGS,
    ids=[
        f"{c.value}-{p}-{'pf' if pf else 'nopf'}" for c, p, pf in LEGS
    ],
)
def test_fused_matches_classic(app, consistency, protocol, prefetching):
    config = dash_scaled_config(
        num_processors=SMOKE_PROCESSES,
        consistency=consistency,
        protocol=protocol,
    )
    assert_fused_matches_classic(app, config, prefetching)


@pytest.mark.parametrize("app", APPS)
def test_fused_matches_classic_four_contexts(app):
    # Blocking reads under several contexts feed the fill-lockout
    # watermark from the processor as well as from prefetches.
    config = dash_scaled_config(
        num_processors=SMOKE_PROCESSES // 4,
        contexts_per_processor=4,
        context_switch_cycles=4,
        consistency=Consistency.RC,
    )
    assert_fused_matches_classic(app, config, prefetching=True)


#: ``(id, consistency, protocol, prefetching, contexts)`` legs run on an
#: associative machine (2-way primary, 4-way secondary).
ASSOCIATIVE_LEGS = [
    ("sc-directory-msi-nopf", Consistency.SC, "directory-msi", False, 1),
    ("rc-mesi-pf", Consistency.RC, "mesi", True, 1),
    ("rc-directory-msi-pf-4ctx", Consistency.RC, "directory-msi", True, 4),
    ("rc-directory-msi-nopf-4ctx", Consistency.RC, "directory-msi", False, 4),
]


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize(
    "consistency,protocol,prefetching,contexts",
    [leg[1:] for leg in ASSOCIATIVE_LEGS],
    ids=[leg[0] for leg in ASSOCIATIVE_LEGS],
)
def test_fused_matches_classic_associative(
    app, consistency, protocol, prefetching, contexts
):
    config = dash_scaled_config(
        num_processors=SMOKE_PROCESSES // contexts,
        contexts_per_processor=contexts,
        context_switch_cycles=4,
        consistency=consistency,
        protocol=protocol,
        primary_cache=CacheGeometry(size_bytes=2048, ways=2),
        secondary_cache=CacheGeometry(size_bytes=4096, ways=4),
    )
    assert_fused_matches_classic(app, config, prefetching)
