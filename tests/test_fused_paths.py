"""Fused fast paths against the classic protocol path.

The memory interface and the processor loop serve read hits, owned
write hits and prefetch discards inline when the protocol's packed fast
path is live.  Installing a pass-through instance wrapper on
``protocol.read``/``write``/``prefetch`` closes every one of those gates
(the same mechanism the sanitizer, the litmus recorder and the fault
injector rely on), so each configuration here runs twice — fused and
classic — and must produce identical canonical results and identical
protocol counters.
"""

import itertools

import pytest

from repro.config import Consistency, dash_scaled_config
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
    """Wrap the protocol's transaction entry points on the instance;
    returns per-entry-point call counts."""
    protocol = machine.protocol
    calls = {}
    for name in ("read", "write", "prefetch"):
        original = getattr(protocol, name)
        calls[name] = 0

        def passthrough(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        setattr(protocol, name, passthrough)
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
