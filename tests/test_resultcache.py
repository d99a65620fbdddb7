"""Property-based tests for the result-cache fingerprint and the
cache's corruption tolerance.

Fingerprint laws (seeded/derandomized hypothesis, so CI is stable):

* any single field change in :class:`MachineConfig` — randomized over
  fields and values, including nested latency tables, cache geometries,
  and fault plans — changes the cache key;
* so does a change to the point's data set or to the package source;
* equal configs built in different orders hash equal;
* the runner and the sweep-point enumeration key a point alike, and a
  warm cache answers a whole claims evaluation without simulating;
* corrupted or truncated cache files read as misses, never crashes.

The entry layout (one header line, then the canonical payload bytes)
and the revive round trip of every registered tag are pinned too.
"""

import dataclasses
import hashlib
import json
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.config import (
    CacheGeometry,
    Consistency,
    ContentionConfig,
    LatencyTable,
    MachineConfig,
    PlacementPolicy,
    dash_scaled_config,
)
from repro.apps import LUConfig, lu_program
from repro.apps.base import PrefetchMode
from repro.experiments import (
    APP_NAMES,
    ExperimentRunner,
    SweepPoint,
    app_config,
    claims,
    registry,
    resultcache,
    sweep_points_for,
)
from repro.experiments.resultcache import (
    CACHE_FORMAT,
    ResultCache,
    canonical_result_bytes,
    config_fingerprint,
    decode,
    encode,
    payload_bytes,
    result_from_bytes,
    run_fingerprint,
)
from repro.faults.plan import BackoffPolicy, FaultPlan
from repro.system import Machine, run_program

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


def _point(app="LU", config=None, prefetching=False, **dataset):
    """A smoke-scale point, with ``dataset`` fields overridden."""
    return SweepPoint(
        name=app,
        app=app,
        dataset=dataclasses.replace(app_config(app, "smoke"), **dataset),
        prefetching=prefetching,
        config=config if config is not None else dash_scaled_config(),
    )


def test_alternatives_cover_every_config_field():
    field_names = {f.name for f in dataclasses.fields(MachineConfig)}
    assert field_names == set(FIELD_ALTERNATIVES), (
        "FIELD_ALTERNATIVES out of sync with MachineConfig — a new "
        "field must get alternative values here so the fingerprint "
        "property covers it"
    )


def test_default_fingerprints_are_pinned(monkeypatch):
    """The key formula is pinned at a fixed source digest: a change to
    the encoding or to the key's fields must be deliberate.  The config
    value predates the removal of an encoding-skipped config field."""
    monkeypatch.setattr(resultcache, "_SOURCE_DIGEST", "0" * 64)
    assert config_fingerprint(MachineConfig()) == (
        "2e80bfe4452275891263b74111cc9ed66aa2388b3db3d479eaca62f0ddb14b09"
    )
    assert run_fingerprint(_point(config=MachineConfig())) == (
        "69dd8c02d950a6d058feb539606d5785ee03af44ceba23261b952171c661bf20"
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
    assert run_fingerprint(_point(config=changed)) != run_fingerprint(
        _point(config=base)
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


def test_key_covers_app_dataset_prefetching_and_source(monkeypatch):
    base = run_fingerprint(_point())
    assert run_fingerprint(_point()) == base
    assert run_fingerprint(_point("MP3D")) != base
    assert run_fingerprint(_point(n=12)) != base
    assert run_fingerprint(_point(prefetch_distance_lines=1)) != base
    assert run_fingerprint(_point(prefetching=True)) != base
    # Name and chaos label a point; they are not what it simulates.
    assert run_fingerprint(dataclasses.replace(_point(), name="x", chaos="exit")) == base
    monkeypatch.setattr(resultcache, "_SOURCE_DIGEST", "0" * 64)
    assert run_fingerprint(_point()) != base


def test_source_digest_is_computed_once(monkeypatch):
    digest = resultcache.source_digest()
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    monkeypatch.setattr(resultcache.Path, "rglob", lambda *a: pytest.fail("rehashed"))
    assert resultcache.source_digest() == digest


def test_key_tells_prefetch_modes_apart():
    keys = {
        run_fingerprint(_point("MP3D", prefetching=mode))
        for mode in (False, True, *PrefetchMode)
    }
    assert len(keys) == 2 + len(PrefetchMode)


def test_config_roundtrips_through_canonical_encoding():
    config = dash_scaled_config(
        num_processors=4,
        consistency=Consistency.RC,
        fault_plan=FaultPlan.smoke(seed=3),
        max_events=5_000,
    )
    assert decode(encode(config)) == config


def _smoke_run(config):
    from repro.experiments import build_app
    from repro.system import Machine, run_program

    return run_program(build_app("LU", "smoke"), config)


def _split_entry(path):
    """The header line (parsed) and the body bytes of one entry."""
    head, _, body = path.read_bytes().partition(b"\n")
    return json.loads(head), body


def _write_entry(path, header, body):
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body)


@pytest.fixture()
def stored(tmp_path):
    """A cache holding one real run."""
    cache = ResultCache(tmp_path)
    config = dash_scaled_config(num_processors=4)
    result = _smoke_run(config)
    key = run_fingerprint(_point(config=config))
    cache.store(key, result, 0.1)
    return cache, key, result


class TestEntryLayout:
    def test_entry_is_a_header_line_then_the_canonical_payload(self, stored):
        cache, key, result = stored
        assert [p.name for p in cache.root.glob("*.json")] == [f"{key}.json"]
        header, body = _split_entry(cache.path_for(key))
        assert set(header) == {"format", "key", "version", "sha256", "wall_seconds"}
        assert header["format"] == CACHE_FORMAT
        assert header["key"] == key
        assert header["version"] == __version__
        assert header["wall_seconds"] == 0.1
        assert body == canonical_result_bytes(result)
        assert header["sha256"] == hashlib.sha256(body).hexdigest()

    def test_revive_round_trips_every_registered_tag(self):
        result = _smoke_run(
            dash_scaled_config(num_processors=4, fault_plan=FaultPlan.smoke(seed=7))
        )
        assert result.faults is not None
        blob = canonical_result_bytes(result)
        # What a journal stores beside results: data sets and modes.
        datasets = [app_config(app, "smoke") for app in APP_NAMES]
        extras = payload_bytes(encode([datasets, PrefetchMode.REMOTE_ONLY]))
        for name in resultcache._ENUMS:
            assert f'"__enum__":"{name}"'.encode() in blob + extras, name
        for name in resultcache._DATACLASSES:
            assert f'"__dataclass__":"{name}"'.encode() in blob + extras, name
        assert decode(encode([datasets, PrefetchMode.REMOTE_ONLY])) == [
            datasets, PrefetchMode.REMOTE_ONLY
        ]
        revived = result_from_bytes(blob)
        assert canonical_result_bytes(revived) == blob
        for field in dataclasses.fields(result):
            if field.name != "world":
                assert getattr(revived, field.name) == getattr(result, field.name), (
                    field.name
                )
        assert revived.world is None

    def test_leftover_temp_file_is_not_an_entry(self, tmp_path, monkeypatch):
        config = dash_scaled_config(num_processors=4)
        result = _smoke_run(config)
        made = []
        real_mkstemp = resultcache.tempfile.mkstemp

        def spy(**kwargs):
            made.append(kwargs)
            return real_mkstemp(**kwargs)

        monkeypatch.setattr(resultcache.tempfile, "mkstemp", spy)
        cache = ResultCache(tmp_path)
        key = run_fingerprint(_point(config=config))
        cache.store(key, result, 0.1)
        assert len(made) == 1
        # A writer killed between its write and its rename leaves a
        # temp file named exactly as a store names it.
        fd, _ = real_mkstemp(**made[0])
        with open(fd, "wb") as handle:
            handle.write(cache.path_for(key).read_bytes()[:100])
        assert [p.name for p in tmp_path.glob("*.json")] == [f"{key}.json"]
        cached = cache.load(key)
        assert cached is not None
        assert cached.payload == canonical_result_bytes(result)


class TestCorruptionTolerance:
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
        header, body = _split_entry(path)
        # Change one digit of execution_time; the body stays valid JSON.
        match = re.search(rb'"execution_time":(\d)', body)
        digit = int(match.group(1))
        tampered = (
            body[: match.start(1)] + str(digit % 9 + 1).encode() + body[match.end(1) :]
        )
        assert tampered != body
        json.loads(tampered)
        _write_entry(path, header, tampered)
        assert cache.load(key) is None

    def test_wrong_key_in_wrapper_is_a_miss(self, stored):
        cache, key, _ = stored
        path = cache.path_for(key)
        header, body = _split_entry(path)
        header["key"] = "0" * 64
        _write_entry(path, header, body)
        assert cache.load(key) is None

    def test_format_one_entry_is_a_miss_until_stored_again(self, stored):
        cache, key, result = stored
        path = cache.path_for(key)
        header, body = _split_entry(path)
        # The single-document layout: the wrapper embeds the payload.
        old = dict(header, format=1, result=json.loads(body))
        path.write_text(json.dumps(old, sort_keys=True))
        misses = cache.misses
        assert cache.load(key) is None
        assert cache.misses == misses + 1
        cache.store(key, result, 0.1)
        cached = cache.load(key)
        assert cached is not None
        assert cached.payload == body

    def test_header_without_body_is_a_miss(self, stored):
        cache, key, _ = stored
        path = cache.path_for(key)
        head = path.read_bytes().partition(b"\n")[0]
        path.write_bytes(head + b"\n")
        assert cache.load(key) is None
        path.write_bytes(head)
        assert cache.load(key) is None

    def test_verified_body_that_is_not_a_result_is_a_miss(self, stored):
        cache, key, _ = stored
        path = cache.path_for(key)
        header, _ = _split_entry(path)
        body = b"[]"
        header["sha256"] = hashlib.sha256(body).hexdigest()
        _write_entry(path, header, body)
        hits, misses = cache.hits, cache.misses
        assert cache.load(key) is None
        assert (cache.hits, cache.misses) == (hits, misses + 1)

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


class TestPointIdentity:
    """Every layer keys a point on what it simulates, so an edited data
    set or source re-simulates instead of replaying a stale result."""

    def test_dataset_field_change_misses(self, stored):
        cache, key, result = stored
        config = dash_scaled_config(num_processors=4)
        assert key == run_fingerprint(_point(config=config))
        for changed in (_point(config=config, n=12),
                        _point(config=config, prefetch_distance_lines=1)):
            assert cache.load(run_fingerprint(changed)) is None
        assert cache.load(key) is not None

    def test_source_change_misses(self, stored, monkeypatch):
        cache, key, _ = stored
        point = _point(config=dash_scaled_config(num_processors=4))
        monkeypatch.setattr(resultcache, "_SOURCE_DIGEST", "0" * 64)
        assert run_fingerprint(point) != key
        assert cache.load(run_fingerprint(point)) is None

    def test_runner_and_variant_points_share_keys(self, tmp_path):
        runner = ExperimentRunner(scale="smoke", seed=5, cache_dir=tmp_path)
        # Table 2's one variant is the cached-SC default config.
        [point] = [p for p in sweep_points_for(["table2"], runner) if p.app == "LU"]
        runner.run("LU", dash_scaled_config())
        assert [p.name for p in tmp_path.glob("*.json")] == [
            f"{run_fingerprint(point)}.json"
        ]

    def test_edited_dataset_resimulates_against_a_populated_cache(
        self, tmp_path, monkeypatch
    ):
        config = dash_scaled_config(num_processors=4)
        first = ExperimentRunner(scale="smoke", cache_dir=tmp_path)
        old = first.run("LU", config).execution_time
        monkeypatch.setitem(registry._SCALES["LU"], "smoke", lambda: LUConfig(n=12))
        second = ExperimentRunner(scale="smoke", cache_dir=tmp_path)
        new = second.run("LU", config).execution_time
        assert (second.result_cache.hits, second.result_cache.stores) == (0, 1)
        assert new != old
        assert new == run_program(lu_program(LUConfig(n=12)), config).execution_time

    def test_warm_cache_answers_claims_without_simulating(self, tmp_path, monkeypatch):
        cold = ExperimentRunner(scale="smoke", cache_dir=tmp_path)
        first = claims.evaluate(cold)
        assert cold.result_cache.stores == cold.runs_performed > 0
        monkeypatch.setattr(Machine, "run", lambda *a, **k: pytest.fail("simulated"))
        warm = ExperimentRunner(scale="smoke", cache_dir=tmp_path)
        second = claims.evaluate(warm)
        assert (warm.result_cache.misses, warm.result_cache.stores) == (0, 0)
        assert warm.result_cache.hits == cold.result_cache.stores
        assert [(o.measured, o.bound) for o in second] == [
            (o.measured, o.bound) for o in first
        ]
