"""Unit tests for the ASCII report renderers and `SweepReport.format`."""

import pytest

from repro.experiments.breakdown import Bar
from repro.experiments.report import format_bars, format_table
from repro.experiments.supervisor import (
    ConfigStatus,
    ExperimentSupervisor,
    SweepEntry,
    SweepReport,
)


def _bar(label, **components):
    return Bar(
        label=label,
        components=components,
        total=sum(components.values()),
        execution_time=int(sum(components.values())),
    )


class TestFormatBars:
    def test_single_context_layout(self):
        bars = {
            "MP3D": [
                _bar("base", busy=40.0, read=30.0, write=20.0, sync=10.0),
                _bar("RC", busy=40.0, read=15.0, write=5.0, sync=10.0),
            ]
        }
        text = format_bars("Figure X", bars)
        lines = text.splitlines()
        assert lines[0] == "Figure X"
        assert lines[1] == "=" * len("Figure X")
        assert "MP3D" in text
        # single-context columns, no multi-context ones
        for column in ("Busy", "Read", "Write", "Sync", "PF-ovh", "Total"):
            assert column in text
        assert "Switch" not in text and "AllIdle" not in text
        assert "100.0" in text  # base total
        assert "70.0" in text  # RC total

    def test_multi_context_layout(self):
        bars = {"LU": [_bar("1ctx", busy=50.0, switch=25.0, all_idle=25.0)]}
        text = format_bars("Figure Y", bars, multi_context=True)
        for column in ("Busy", "Switch", "AllIdle", "NoSw", "PF-ovh"):
            assert column in text
        assert "Read" not in text.splitlines()[2]

    def test_paper_totals_fill_the_paper_column(self):
        bars = {"MP3D": [_bar("base", busy=100.0)]}
        text = format_bars(
            "Fig", bars, paper_totals={"MP3D": {"base": 98.5}}
        )
        row = next(line for line in text.splitlines() if line.startswith("base"))
        assert row.rstrip().endswith("98.5")

    def test_missing_paper_value_renders_dashes(self):
        bars = {
            "MP3D": [_bar("base", busy=100.0), _bar("novel", busy=60.0)]
        }
        text = format_bars(
            "Fig", bars, paper_totals={"MP3D": {"base": 100.0}}
        )
        novel = next(
            line for line in text.splitlines() if line.startswith("novel")
        )
        assert novel.rstrip().endswith("--")

    def test_no_paper_totals_at_all_renders_dashes(self):
        bars = {"LU": [_bar("base", busy=100.0)]}
        row = next(
            line
            for line in format_bars("Fig", bars).splitlines()
            if line.startswith("base")
        )
        assert row.rstrip().endswith("--")

    def test_absent_component_renders_zero(self):
        bars = {"LU": [_bar("base", busy=100.0)]}
        row = next(
            line
            for line in format_bars("Fig", bars).splitlines()
            if line.startswith("base")
        )
        assert "0.0" in row  # read/write/sync/pf default to 0.0


class TestFormatTable:
    def test_floats_render_with_two_decimals_and_right_align(self):
        text = format_table(
            "Speedups", ["app", "speedup"], [["MP3D", 1.5], ["LU", 12.25]]
        )
        lines = text.splitlines()
        assert lines[0] == "Speedups"
        assert lines[1] == "=" * len("Speedups")
        assert "1.50" in text and "12.25" in text
        # columns align: every data row has the same width
        assert len(lines[3]) == len(lines[4]) == len(lines[5])

    def test_strings_and_ints_pass_through(self):
        text = format_table("T", ["k", "v"], [["events", 31415]])
        assert "31415" in text
        assert "31415.00" not in text

    def test_wide_cell_stretches_its_column(self):
        text = format_table(
            "T", ["name", "x"], [["a-very-long-row-label", 1.0]]
        )
        header, rule = text.splitlines()[2], text.splitlines()[3]
        assert len(header) == len(rule)
        assert len(header) >= len("a-very-long-row-label")

    def test_empty_rows_still_render_header(self):
        text = format_table("Empty", ["a", "b"], [])
        assert "Empty" in text
        assert "a" in text.splitlines()[2]


def _entry(name, status, attempts=1, wall=0.5, error=None, cache_hit=None):
    return SweepEntry(
        name=name,
        status=status,
        attempts=attempts,
        wall_seconds=wall,
        error=error,
        cache_hit=cache_hit,
    )


class TestSweepReportFormat:
    def test_header_counts_statuses(self):
        report = SweepReport(
            name="demo",
            entries=[
                _entry("a", ConfigStatus.PASSED),
                _entry("b", ConfigStatus.DEGRADED, attempts=2),
                _entry("c", ConfigStatus.FAILED, attempts=2, error="boom"),
            ],
        )
        header = report.format().splitlines()[0]
        assert "1 passed" in header
        assert "1 degraded" in header
        assert "1 failed" in header
        assert "of 3 configurations" in header
        assert "cache:" not in header  # no cache in play

    def test_per_entry_lines_show_attempts_and_wall_time(self):
        report = SweepReport(
            name="demo",
            entries=[_entry("a", ConfigStatus.DEGRADED, attempts=2, wall=1.25)],
        )
        line = report.format().splitlines()[1]
        assert "degraded" in line
        assert "2 attempts" in line
        assert "1.25s" in line

    def test_single_attempt_is_not_pluralized(self):
        report = SweepReport(
            name="demo", entries=[_entry("a", ConfigStatus.PASSED)]
        )
        assert "1 attempt," in report.format()
        assert "1 attempts" not in report.format()

    def test_error_first_line_only(self):
        report = SweepReport(
            name="demo",
            entries=[
                _entry(
                    "a",
                    ConfigStatus.FAILED,
                    error="ValueError: top line\n  traceback noise",
                )
            ],
        )
        text = report.format()
        assert "ValueError: top line" in text
        assert "traceback noise" not in text

    def test_cache_counters_and_cached_tag(self):
        report = SweepReport(
            name="demo",
            entries=[
                _entry("a", ConfigStatus.PASSED, cache_hit=True, attempts=0),
                _entry("b", ConfigStatus.PASSED, cache_hit=False),
            ],
        )
        text = report.format()
        assert "cache: 1 hits, 1 misses" in text
        assert text.splitlines()[1].endswith("[cached]")
        assert "[cached]" not in text.splitlines()[2]

    def test_status_properties_partition_entries(self):
        entries = [
            _entry("a", ConfigStatus.PASSED),
            _entry("b", ConfigStatus.PASSED),
            _entry("c", ConfigStatus.DEGRADED),
            _entry("d", ConfigStatus.FAILED),
        ]
        report = SweepReport(name="demo", entries=entries)
        assert [e.name for e in report.passed] == ["a", "b"]
        assert [e.name for e in report.degraded] == ["c"]
        assert [e.name for e in report.failed] == ["d"]
        assert not report.ok
        assert report.cache_hits == 0 and report.cache_misses == 0

    def test_stats_line_hides_rare_statuses_when_absent(self):
        """The one-line roll-up only mentions quarantined/interrupted
        when they occur — a clean sweep keeps the header the tier-1
        suite has always asserted on."""
        report = SweepReport(
            name="demo",
            entries=[_entry("a", ConfigStatus.PASSED)],
        )
        line = report.stats_line()
        assert line == "sweep 'demo': 1 passed, 0 degraded, 0 failed of 1 configurations"
        assert "quarantined" not in line
        assert "interrupted" not in line

    def test_stats_line_counts_mixed_statuses(self):
        entries = [
            _entry("a", ConfigStatus.PASSED),
            _entry("b", ConfigStatus.QUARANTINED, attempts=3, error="poison"),
            _entry("c", ConfigStatus.INTERRUPTED, attempts=0),
            _entry("d", ConfigStatus.FAILED, error="boom"),
            _entry("e", ConfigStatus.DEGRADED, attempts=2),
        ]
        report = SweepReport(name="mixed", entries=entries)
        line = report.stats_line()
        assert "1 passed" in line
        assert "1 degraded" in line
        assert "1 failed" in line
        assert "1 quarantined" in line
        assert "1 interrupted" in line
        assert "of 5 configurations" in line
        assert not report.ok
        assert [e.name for e in report.quarantined] == ["b"]
        assert [e.name for e in report.interrupted] == ["c"]

    def test_quarantined_and_interrupted_are_not_ok(self):
        assert not _entry("q", ConfigStatus.QUARANTINED).ok
        assert not _entry("i", ConfigStatus.INTERRUPTED).ok
        assert _entry("p", ConfigStatus.PASSED).ok
        assert _entry("d", ConfigStatus.DEGRADED).ok

    def test_results_skips_failures_preserving_order(self):
        entries = [
            _entry("a", ConfigStatus.PASSED),
            _entry("b", ConfigStatus.FAILED),
            _entry("c", ConfigStatus.DEGRADED),
        ]
        entries[0].result = "ra"
        entries[2].result = "rc"
        report = SweepReport(name="demo", entries=entries)
        assert report.results() == ["ra", "rc"]


class TestSupervisorRunOne:
    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentSupervisor(max_attempts=0)

    def test_nontransient_error_fails_without_retry(self):
        calls = []

        def job():
            calls.append(1)
            raise RuntimeError("logic bug")

        report = ExperimentSupervisor().run_sweep("s", [("job", job)])
        assert len(calls) == 1
        assert report.entries[0].status is ConfigStatus.FAILED
        assert "RuntimeError: logic bug" in report.entries[0].error
