"""Property-based tests for the result-cache fingerprint and the
cache's corruption tolerance.

Fingerprint laws (seeded/derandomized hypothesis, so CI is stable):

* any single field change in :class:`MachineConfig` — randomized over
  fields and values, including nested latency tables, cache geometries,
  and fault plans — changes the cache key;
* equal configs built in different orders hash equal;
* corrupted or truncated cache files read as misses, never crashes.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    CacheGeometry,
    Consistency,
    ContentionConfig,
    LatencyTable,
    MachineConfig,
    PlacementPolicy,
    dash_scaled_config,
)
from repro.experiments.resultcache import (
    ResultCache,
    canonical_result_bytes,
    config_fingerprint,
    decode,
    encode,
    result_from_bytes,
    run_fingerprint,
)
from repro.faults.plan import BackoffPolicy, FaultPlan

_SETTINGS = settings(
    derandomize=True,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)

#: Alternative (non-default) values per MachineConfig field.  Every
#: value differs from the default and passes __post_init__ validation.
FIELD_ALTERNATIVES = {
    "num_processors": [1, 2, 4, 8, 32],
    "contexts_per_processor": [2, 4, 8],
    "context_switch_cycles": [0, 8, 16],
    "consistency": [Consistency.PC, Consistency.WC, Consistency.RC],
    "caching_shared_data": [False],
    "protocol": ["mesi", "moesi"],
    "sanitize": [True],
    "trace_memory_events": [True],
    "seed": [1, 7, 123456789],
    "max_events": [1_000, 2_000_000],
    "fault_plan": [
        FaultPlan.smoke(),
        FaultPlan.smoke(seed=9),
        FaultPlan.heavy(),
        FaultPlan(seed=3, delay_rate=0.25),
        FaultPlan(nack_rate=0.1, backoff=BackoffPolicy(max_retries=4)),
    ],
    "primary_cache": [
        CacheGeometry(size_bytes=4 * 1024),
        CacheGeometry(size_bytes=2 * 1024, ways=2),
    ],
    "secondary_cache": [
        CacheGeometry(size_bytes=8 * 1024),
        CacheGeometry(size_bytes=4 * 1024, ways=4),
    ],
    "write_buffer_depth": [1, 8, 32],
    "prefetch_buffer_depth": [4, 32],
    "write_buffer_bypass": [False],
    "max_outstanding_writes": [1, 4],
    "page_bytes": [256, 1024, 4096],
    "placement": [PlacementPolicy.LOCAL, PlacementPolicy.SINGLE_NODE],
    "latency": [
        LatencyTable(read_primary_hit=2),
        LatencyTable(read_fill_remote=120),
        LatencyTable(invalidation_ack_remote=30),
        LatencyTable(uncached_discount=0),
    ],
    "contention": [
        ContentionConfig(enabled=False),
        ContentionConfig(bus_occupancy_data=7),
        ContentionConfig(directory_occupancy=9),
    ],
    "prefetch_fill_stall": [0, 8],
    "prefetch_issue_cycles": [0, 5],
    "sc_write_hit_stall": [0, 4],
    "switch_min_stall_cycles": [1, 25],
}


def test_alternatives_cover_every_config_field():
    field_names = {f.name for f in dataclasses.fields(MachineConfig)}
    assert field_names == set(FIELD_ALTERNATIVES), (
        "FIELD_ALTERNATIVES out of sync with MachineConfig — a new "
        "field must get alternative values here so the fingerprint "
        "property covers it"
    )


def test_default_fingerprints_are_pinned():
    """Existing result caches stay valid only while the default keys
    do not move.  These values predate the removal of an
    encoding-skipped config field, and every change meant to leave
    results untouched must keep them."""
    assert config_fingerprint(MachineConfig()) == (
        "2e80bfe4452275891263b74111cc9ed66aa2388b3db3d479eaca62f0ddb14b09"
    )
    assert run_fingerprint("LU", "smoke", False, MachineConfig()) == (
        "ab0a58c5db13df7ee7c277468251036d5b6418e7a3b3a15f98c39ec625237a69"
    )


@_SETTINGS
@given(
    field=st.sampled_from(sorted(FIELD_ALTERNATIVES)),
    data=st.data(),
)
def test_any_single_field_change_changes_the_key(field, data):
    base = MachineConfig()
    value = data.draw(st.sampled_from(FIELD_ALTERNATIVES[field]))
    assert value != getattr(base, field)
    changed = base.replace(**{field: value})
    assert config_fingerprint(changed) != config_fingerprint(base)
    assert run_fingerprint("LU", "smoke", False, changed) != run_fingerprint(
        "LU", "smoke", False, base
    )


@_SETTINGS
@given(
    fields=st.permutations(
        ["num_processors", "seed", "consistency", "caching_shared_data", "page_bytes"]
    )
)
def test_equal_configs_built_in_different_orders_hash_equal(fields):
    values = {
        "num_processors": 4,
        "seed": 11,
        "consistency": Consistency.RC,
        "caching_shared_data": False,
        "page_bytes": 1024,
    }
    one_shot = dash_scaled_config(**values)
    incremental = dash_scaled_config()
    for field in fields:
        incremental = incremental.replace(**{field: values[field]})
    assert incremental == one_shot
    assert config_fingerprint(incremental) == config_fingerprint(one_shot)


def test_key_covers_app_scale_prefetching_and_version():
    config = dash_scaled_config()
    base = run_fingerprint("LU", "smoke", False, config)
    assert run_fingerprint("MP3D", "smoke", False, config) != base
    assert run_fingerprint("LU", "bench", False, config) != base
    assert run_fingerprint("LU", "smoke", True, config) != base
    assert run_fingerprint("LU", "smoke", False, config, version="0.0.0") != base


def test_config_roundtrips_through_canonical_encoding():
    config = dash_scaled_config(
        num_processors=4,
        consistency=Consistency.RC,
        fault_plan=FaultPlan.smoke(seed=3),
        max_events=5_000,
    )
    assert decode(encode(config)) == config


class TestCorruptionTolerance:
    @pytest.fixture()
    def stored(self, tmp_path):
        """A cache holding one real run."""
        from repro.experiments import build_app
        from repro.system import run_program

        cache = ResultCache(tmp_path)
        config = dash_scaled_config(num_processors=4)
        result = run_program(build_app("LU", "smoke"), config)
        key = cache.key("LU", "smoke", False, config)
        cache.store(key, result, 0.1)
        return cache, key, result

    def test_intact_entry_replays(self, stored):
        cache, key, result = stored
        cached = cache.load(key)
        assert cached is not None
        assert cached.payload == canonical_result_bytes(result)
        assert result_from_bytes(cached.payload).execution_time == result.execution_time

    def test_truncated_file_is_a_miss(self, stored):
        cache, key, _ = stored
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.load(key) is None

    def test_empty_file_is_a_miss(self, stored):
        cache, key, _ = stored
        cache.path_for(key).write_bytes(b"")
        assert cache.load(key) is None

    def test_tampered_payload_fails_the_digest(self, stored):
        cache, key, _ = stored
        path = cache.path_for(key)
        wrapper = json.loads(path.read_text())
        wrapper["result"]["fields"]["execution_time"] += 1
        path.write_text(json.dumps(wrapper))
        assert cache.load(key) is None

    def test_wrong_key_in_wrapper_is_a_miss(self, stored):
        cache, key, _ = stored
        path = cache.path_for(key)
        wrapper = json.loads(path.read_text())
        wrapper["key"] = "0" * 64
        path.write_text(json.dumps(wrapper))
        assert cache.load(key) is None

    def test_absent_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("f" * 64) is None
        assert cache.misses == 1

    @_SETTINGS
    @given(garbage=st.binary(min_size=0, max_size=512))
    def test_arbitrary_garbage_never_crashes(self, garbage, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("garbage"))
        key = "a" * 64
        cache.path_for(key).write_bytes(garbage)
        assert cache.load(key) is None

    def test_seeded_random_byte_flips_are_misses(self, stored):
        cache, key, result = stored
        path = cache.path_for(key)
        pristine = path.read_bytes()
        rng = random.Random(1991)
        for _ in range(25):
            blob = bytearray(pristine)
            for _ in range(rng.randint(1, 8)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            path.write_bytes(bytes(blob))
            cached = cache.load(key)
            # Either the flip broke the entry (miss) or it survived the
            # digest check, in which case it must replay bit-identically.
            if cached is not None:
                assert cached.payload == canonical_result_bytes(result)
        path.write_bytes(pristine)
        assert cache.load(key) is not None
