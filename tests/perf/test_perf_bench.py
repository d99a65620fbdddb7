"""Self-tests of the simulator benchmark in ``benchmarks/perf``."""

from __future__ import annotations

import importlib
import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.apps import LUConfig, PTHORConfig, lu_program, pthor_program
from repro.coherence.protocol import CoherenceProtocol
from repro.config import Consistency, dash_scaled_config
from repro.experiments.parallel import sweep_points_for
from repro.experiments.registry import ExperimentRunner
from repro.system.machine import Machine

ROOT = Path(__file__).resolve().parents[2]
PERF = ROOT / "benchmarks" / "perf"
sys.path.insert(0, str(PERF))

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tiny_lu():
    config = dash_scaled_config(num_processors=4, consistency=Consistency.RC)
    return lu_program(LUConfig(n=16), prefetching=True), config


def _tiny_pthor():
    config = dash_scaled_config(
        num_processors=4,
        consistency=Consistency.RC,
        contexts_per_processor=2,
        context_switch_cycles=4,
    )
    return pthor_program(PTHORConfig(num_gates=120, clock_cycles=1)), config


def _run(make):
    program, config = make()
    machine = Machine(config)
    machine.load(program)
    return machine, machine.run()


def _originals():
    found = {}
    for _layer, module, cls_name, methods in tracer.ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        names = methods or [m for m in vars(cls) if m.startswith("charge_")]
        for name in names:
            found[(cls, name)] = vars(cls)[name]
    return found


# -- tracer -------------------------------------------------------------------


@pytest.mark.parametrize("make", [_tiny_lu, _tiny_pthor], ids=["lu-rc-pf", "pthor-2ctx"])
def test_traced_run_is_the_same_program(make):
    plain_machine, plain = _run(make)
    harvest = workloads.Harvest()
    spans = tracer.Tracer(on_run=harvest)
    with spans.installed():
        machine, traced = _run(make)

    assert workloads.digest(traced) == workloads.digest(plain)
    assert traced.events_processed == plain.events_processed
    # Wrapping happened on classes: no instance grew an attribute, so
    # the fused and inline fast paths stayed on.
    assert vars(machine.protocol).keys() == vars(plain_machine.protocol).keys()
    for iface, plain_iface in zip(machine.memifaces, plain_machine.memifaces):
        assert vars(iface).keys() == vars(plain_iface).keys()

    counts = spans.counts()
    assert counts["EventEngine.schedule"] == plain.events_processed
    assert counts[tracer.THREAD_NEXT] > counts["NodeMemoryInterface.read"] > 0
    assert harvest.totals["events"] == plain.events_processed
    assert sum(spans.self_by_layer().values()) > 0

    values = workloads.layer_metrics(
        counts, harvest.totals, harvest.max_util, spans.queue_pclocks,
        dict.fromkeys(tracer.LAYERS, 0.0), {},
    )
    extra = {"package.import_s", "resultcache.hit_frac", "resultcache.entry_kb", "tracing.overhead"}
    assert set(values) | extra == {name for name, *_ in workloads.PER_LAYER}


def test_originals_restored_when_the_traced_run_raises():
    before = _originals()
    _, config = _tiny_lu()
    with pytest.raises(RuntimeError, match="no program loaded"):
        with tracer.Tracer().installed():
            assert vars(CoherenceProtocol)["read"] is not before[(CoherenceProtocol, "read")]
            Machine(config).run()
    assert _originals() == before


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 10] holds [1, 4] (which holds [2, 3]) and [5, 9].
    assert tracer.self_times([0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]) == [3, 2, 1, 4]
    # Overlapping children cover their union once: [1, 5] + [2, 6] = 5.
    assert tracer.self_times([0, 1, 2], [10, 5, 6], [-1, 0, 0])[0] == 5


# -- statistics -------------------------------------------------------------------


def test_quartiles_follow_statistics_quantiles():
    assert stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9]) == (2.5, 7.5)
    assert stats.quartiles([4.0]) == (4.0, 4.0)
    assert stats.relative_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx(1.0)
    summary = stats.summarize([3.0, 1.0, 2.0], "s")
    assert (summary["value"], summary["n"], summary["tail"]) == (2.0, 3, None)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(99))) is None
    assert stats.tail_percentile(list(range(100)))[0] == 90
    assert stats.tail_percentile(list(range(999)))[0] == 90
    assert stats.tail_percentile(list(range(1000)))[0] == 99
    assert stats.tail_percentile(list(range(10000)))[0] == 99.9


# -- comparator -------------------------------------------------------------------


def _summary(value, spread=0.0):
    return {"value": value, "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2)}


def _doc(op_s, seed=1, events=100, ops=500, share=0.5):
    return {
        "workloads": {
            "w": {
                "seed": seed,
                "end_to_end": {"op_s": _summary(op_s)},
                "per_layer": {
                    "sim.pclocks": {"value": events},
                    "apps.ops": {"value": ops},
                    "sim.self_share": {"value": share},
                },
            }
        }
    }


DECLARED = {"end_to_end": [{"name": "op_s", "better": "lower", "bound": 0.15}]}


def test_verdicts_use_bound_direction_and_spread():
    base = [_summary(v) for v in (1.0, 1.01, 0.99)]
    assert compare.verdict(base, [_summary(1.05)], "lower", 0.15) == "unchanged"
    assert compare.verdict(base, [_summary(1.3)], "lower", 0.15) == "worse"
    assert compare.verdict(base, [_summary(0.8)], "lower", 0.15) == "better"
    assert compare.verdict(base, [_summary(0.8)], "higher", 0.15) == "worse"
    noisy = [_summary(v) for v in (0.6, 1.0, 1.4, 0.7)]
    assert compare.verdict(noisy, [_summary(1.0)], "lower", 0.15) == "unresolved"
    assert compare.verdict(noisy, [_summary(0.5), _summary(0.55)], "lower", 0.15) == "better"
    # One run per side: its own quartiles stand in for the spread, and a
    # lone pair of medians never decides a noisy metric.
    assert compare.verdict([_summary(1.0, 0.4)], [_summary(1.0)], "lower", 0.15) == "unresolved"
    assert compare.verdict([_summary(1.0, 0.4)], [_summary(0.5)], "lower", 0.15) == "unresolved"
    assert compare.verdict(noisy, [_summary(0.5, 0.4)], "lower", 0.15) == "unresolved"


def test_compare_fails_on_regression_and_on_simulated_drift():
    _, failed = compare.compare([_doc(1.0)], [_doc(1.02, ops=400, share=0.4)], DECLARED)
    assert not failed  # host counts and shares are reported, never gated
    lines, failed = compare.compare([_doc(1.0)], [_doc(1.5)], DECLARED)
    assert failed and any(line.endswith("worse") for line in lines)
    lines, failed = compare.compare([_doc(1.0)], [_doc(1.0, events=101)], DECLARED)
    assert failed and any("DRIFT" in line for line in lines)
    # At another seed simulated counters legitimately differ.
    _, failed = compare.compare([_doc(1.0)], [_doc(1.0, seed=2, events=101)], DECLARED)
    assert not failed
    _, failed = compare.compare([_doc(1.0), _doc(1.0, ops=7)], [_doc(1.0)], DECLARED)
    assert failed


# -- declaration --------------------------------------------------------------------


def test_benchmark_json_matches_the_registry():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert doc["paths"] == ["benchmarks/perf", "tests/perf"]
    assert doc["run_seconds"] == run.DEFAULT_SECONDS
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert all(NAME.fullmatch(name) for name in names) and len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in doc["end_to_end"]

    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in doc["end_to_end"]] == list(workloads.END_TO_END)
    assert [tuple(m.values()) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in workloads.PER_LAYER
    ]

    # Every per-layer metric names the end-to-end metric and workloads
    # it should move, or that it is in none.
    end_to_end = {m["name"] for m in doc["end_to_end"]}
    layers = {name.split(".")[0] for name, *_ in workloads.PER_LAYER}
    assert set(workloads.LAYER_MOVES) == layers
    for moves in filter(None, workloads.LAYER_MOVES.values()):
        metric, names = moves
        assert metric in end_to_end and names and set(names) <= set(workloads.WORKLOADS)


class _FakeBench(workloads.Bench):
    def __init__(self, times):
        super().__init__()
        self.times = iter(times)

    def warm_up(self):
        pass

    def op(self):
        self.attempted += 1
        self.refs = 10
        timed = next(self.times)
        if timed is None:
            self.fail("boom")
        return timed


def test_measure_emits_every_end_to_end_metric():
    bench = _FakeBench([(0.003, 0.001), (0.001, 0.002), None])
    metrics = workloads.measure(bench, seconds=0)
    assert list(metrics) == [name for name, *_ in workloads.END_TO_END]
    assert (bench.attempted, bench.failed) == (workloads.MIN_OPS, 1)
    # setup_s is the median of the operations' own set-ups.
    assert (metrics["setup_s"]["value"], metrics["setup_s"]["n"]) == (0.002, 2)
    assert metrics["op_s"]["value"] == pytest.approx(0.0035)
    assert metrics["refs_per_s"]["value"] == pytest.approx((10 / 0.001 + 10 / 0.002) / 2)


def test_measure_stops_when_every_operation_fails():
    bench = _FakeBench([None] * 100)
    assert workloads.measure(bench, seconds=0) == {}
    assert bench.attempted == bench.failed == workloads.MIN_OPS
    bench = _FakeBench([None] * 100)
    assert workloads.measure_traced(bench, 0, 0.0, None) == {}
    assert bench.attempted == bench.failed == 2


def test_host_speed_scales_host_time_and_drops_its_own_samples():
    speed = workloads.HostSpeed()
    slow = 2 * workloads.REFERENCE_S  # a host half as fast as the reference
    speed.starts = [0.0, 1.0, 3.0, 9.0]
    speed.times = [slow, slow, slow, slow / 2]
    # 4.5 host seconds, less the two samples taken in between, at half
    # speed; the sample at 9.0 is too far off to count.
    assert speed.seconds(0.01, 4.5) == pytest.approx((4.49 - 2 * slow) / 2)
    # A short set-up takes its speed from the samples around it.
    assert speed.seconds(8.99, 8.995) == pytest.approx(0.005)

    before = signal.getsignal(signal.SIGALRM)
    speed = workloads.HostSpeed()
    with speed.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * workloads.SAMPLE_PERIOD_S:
            pass
        end = time.perf_counter()
    assert len(speed.times) >= 4  # before, after, and the timer's in between
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.seconds(start, end) > 0


def test_sampled_simulation_is_the_same_program():
    tiny = workloads.Workload(
        "tiny", "", "sim", "LU", "smoke", True,
        (("num_processors", 4), ("consistency", "RC")), 7,
    )
    _, plain = _run(_tiny_lu)
    bench = workloads.SimBench(tiny, 7, workloads.digest(plain))
    for _ in range(2):
        setup_s, run_s = bench.op()
        assert setup_s > 0 and run_s > 0
    assert (bench.attempted, bench.failed) == (2, 0)
    assert bench.refs == plain.shared_reads + plain.shared_writes


def test_one_workload_ends_with_the_result_line(monkeypatch, capsys):
    def worker(name, seed, seconds, trace, record=False, spans=None):
        declared = workloads.PER_LAYER if trace else workloads.END_TO_END
        return {
            "attempted": 3, "failed": trace, "errors": ["boom"] * trace, "digests": {},
            "wall_s": 1.0,
            "metrics": {m[0]: {"value": 1.5, "unit": m[1], "n": 3} for m in declared},
        }

    def last_line():
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    monkeypatch.setattr(run, "run_worker", worker)
    assert run.main(["--workload", "lu-rc-pf", "--seconds", "1"]) == 1
    line = last_line()
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 6, 1)
    declared = workloads.END_TO_END + workloads.PER_LAYER
    assert list(line["metrics"]) == [m[0] for m in declared]
    assert line["metrics"]["op_s"] == {"value": 1.5, "unit": "s"}

    assert run.main(["--workload", "lu-rc-pf", "--seconds", "1", "--trace", "0"]) == 0
    line = last_line()
    assert line["correct"] and list(line["metrics"]) == [m[0] for m in workloads.END_TO_END]

    monkeypatch.setattr(run, "run_worker", lambda *a, **k: run.crashed("killed"))
    assert run.main(["--workload", "lu-rc-pf", "--trace", "1"]) == 1
    assert last_line() == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_expected_digests_cover_every_sweep_point(tmp_path):
    runner = ExperimentRunner(scale="smoke", cache_dir=tmp_path, jobs=1)
    names = [p.name for p in sweep_points_for(workloads.SWEEP_TARGETS, runner)]
    expected = json.loads(workloads.EXPECTED_PATH.read_text("utf-8"))
    assert len(names) == len(set(names)) == 39
    assert sorted(expected[workloads.SWEEP_KEY]) == sorted(names)
    for name, workload in workloads.WORKLOADS.items():
        if workload.kind == "sim":
            assert expected[name]["seed"] == workload.default_seed


def test_benchmark_never_keys_on_the_engine_backend():
    for path in PERF.glob("*.py"):
        text = path.read_text("utf-8")
        assert "engine_backend" not in text and "create_engine" not in text, path


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "lu-rc-pf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
