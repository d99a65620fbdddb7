"""Compare result files written by ``run.py --out``.

    python benchmarks/perf/compare.py --base A.json [B.json ...] --new C.json [D.json ...]

For each workload and end-to-end metric, prints both sides' medians and
quartiles and a verdict from the bound and direction in BENCHMARK.json:

* ``worse`` / ``better``: the new median moved by more than the bound;
* ``unchanged``: it moved by less;
* ``unresolved``: one side's run-to-run spread (quartile distance over
  median, across its files, or within its one run) exceeds the bound,
  unless each side has at least two files and every new run beats every
  base run.  One file per side would reduce that rule to comparing two
  medians.

Per-layer counts print their exact difference and are reported only.
Simulated counters must match exactly when both sides ran one seed.
The exit code is 1 on any ``worse`` verdict, simulated-counter drift,
or a count that differs between two runs of one side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, relative_spread  # noqa: E402
from workloads import PER_LAYER  # noqa: E402

BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"


def side_spread(entries: list[dict]) -> float:
    """Run-to-run spread of one side: across its runs' medians, or,
    with a single run, between that run's own quartiles."""
    if len(entries) >= 2:
        return relative_spread([e["value"] for e in entries])
    only = entries[0]
    return (only["q3"] - only["q1"]) / only["value"] if only["value"] else 0.0


def verdict(base: list[dict], new: list[dict], better: str, bound: float) -> str:
    """Verdict for one metric, each side given as its runs' summaries."""
    base_values = [e["value"] for e in base]
    new_values = [e["value"] for e in new]
    b = statistics.median(base_values)
    n = statistics.median(new_values)
    lower = better == "lower"
    if max(side_spread(base), side_spread(new)) > bound:
        if len(base) < 2 or len(new) < 2:
            return "unresolved"
        if lower:
            new_wins = max(new_values) < min(base_values)
        else:
            new_wins = min(new_values) > max(base_values)
        return "better" if new_wins else "unresolved"
    worse_by = ((n - b) if lower else (b - n)) / b
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def _side(docs: list[dict], workload: str, section: str, metric: str) -> list[dict]:
    return [
        d["workloads"][workload][section][metric]
        for d in docs
        if metric in d["workloads"].get(workload, {}).get(section, {})
    ]


def _fmt(entries: list[dict]) -> str:
    values = [e["value"] for e in entries]
    q1, q3 = quartiles(values) if len(values) > 1 else (entries[0]["q1"], entries[0]["q3"])
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base_docs: list[dict], new_docs: list[dict], declared: dict) -> tuple[list[str], bool]:
    """Report lines, and whether anything regressed or drifted."""
    lines: list[str] = []
    failed = False
    workloads = [w for w in base_docs[0]["workloads"] if all(w in d["workloads"] for d in new_docs)]
    for workload in workloads:
        lines.append(f"== {workload}")
        for metric in declared["end_to_end"]:
            base = _side(base_docs, workload, "end_to_end", metric["name"])
            new = _side(new_docs, workload, "end_to_end", metric["name"])
            if not base or not new:
                continue
            word = verdict(base, new, metric["better"], metric["bound"])
            failed |= word == "worse"
            lines.append(
                f"{metric['name']:<12} base {_fmt(base):<34} new {_fmt(new):<34} "
                f"bound {metric['bound']:.0%}  {word}"
            )
        seeds = {d["workloads"][workload]["seed"] for d in base_docs + new_docs}
        same_seed = len(seeds) == 1
        for name, _unit, _better, kind in PER_LAYER:
            base = [e["value"] for e in _side(base_docs, workload, "per_layer", name)]
            new = [e["value"] for e in _side(new_docs, workload, "per_layer", name)]
            if not base or not new:
                continue
            if kind == "host":
                lines.append(
                    f"  {name:<34} base {statistics.median(base):.6g}  "
                    f"new {statistics.median(new):.6g}"
                )
                continue
            if not same_seed:
                continue
            if len(set(base)) > 1 or len(set(new)) > 1:
                failed = True
                lines.append(f"  {name:<34} NONDETERMINISTIC base {base} new {new}")
            elif base[0] != new[0]:
                drift = kind == "sim"
                failed |= drift
                lines.append(
                    f"  {name:<34} base {base[0]:.10g}  new {new[0]:.10g}  "
                    f"diff {new[0] - base[0]:+.10g}{'  DRIFT' if drift else ''}"
                )
        if not same_seed:
            lines.append(f"  seeds differ ({sorted(seeds)}): counts not compared")
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark result files.")
    parser.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    parser.add_argument("--new", nargs="+", required=True, help="result files of the change")
    args = parser.parse_args(argv)
    declared = json.loads(BENCHMARK_JSON.read_text("utf-8"))
    base_docs = [json.loads(Path(p).read_text("utf-8")) for p in args.base]
    new_docs = [json.loads(Path(p).read_text("utf-8")) for p in args.new]
    lines, failed = compare(base_docs, new_docs, declared)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
