"""The paper's shape claims table and its ``check --checks claims`` pass.

The full table runs in CI (``repro-1991 check --checks claims``); here
one claim at a time keeps each test to a few seconds.
"""

import pytest

from repro.cli import main
from repro.experiments import ExperimentRunner, claims


def test_claim_ids_are_unique():
    ids = [claim.id for claim in claims.CLAIMS]
    assert len(set(ids)) == len(ids)


def test_every_claim_names_a_known_input_op_and_deviation():
    for claim in claims.CLAIMS:
        assert claim.input in claims.INPUTS, claim.id
        assert claim.op in claims._OPS, claim.id
        assert claim.cases or claim.apps, claim.id
        assert claim.deviation in (None, 1, 2, 3, 4), claim.id


def _only(monkeypatch, claim_id):
    """Narrow the table to one claim for the duration of a test."""
    by_id = {claim.id: claim for claim in claims.CLAIMS}
    monkeypatch.setattr(claims, "CLAIMS", (by_id[claim_id],))


def test_claim_holds_and_prints_its_values(monkeypatch, capsys):
    _only(monkeypatch, "fig2.caching-speedup")
    assert main(["check", "--checks", "claims"]) == 0
    out = capsys.readouterr().out
    assert "  ok   fig2.caching-speedup" in out
    assert ">  1.500" in out
    assert "[claims] 1 of 1 claims hold" in out


def test_seeded_config_perturbation_fails_the_named_claim(monkeypatch, capsys):
    # Caching disabled in every run, so Figure 2's "cached" bar is the
    # uncached baseline again: a speedup of exactly 1.
    _only(monkeypatch, "fig2.caching-speedup")
    effective = ExperimentRunner.effective_config
    monkeypatch.setattr(
        ExperimentRunner, "effective_config",
        lambda self, config=None: effective(self, config).replace(
            caching_shared_data=False
        ),
    )
    assert main(["check", "--checks", "claims"]) == 1
    out = capsys.readouterr().out
    assert "  FAIL fig2.caching-speedup " in out
    assert "FAILED: fig2.caching-speedup" in out
    assert "check: FAILED (claims)" in out


@pytest.mark.parametrize("flags", [
    ["--checks", "claims", "--scale", "paper"],
    ["--checks", "claims", "--scale", "default"],
    ["--all", "--scale", "smoke"],
])
def test_a_scale_without_thresholds_is_rejected(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", *flags])
    assert exc.value.code == 2
    assert "thresholds at --scale bench only" in capsys.readouterr().err


def test_bad_jobs_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--checks", "claims", "--jobs", "0"])
    assert exc.value.code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_prewarm_points_cover_the_ablation_sweeps():
    runner = ExperimentRunner(scale="bench")
    names = [point.name for point in claims.points(runner)]
    assert len(names) == len(set(names))
    # The MC-aware annotation is its own point, not full prefetching.
    assert "MP3D/MC-aware prefetch" in names
    # Points another input already makes are not repeated: full
    # prefetching with 4 contexts is a Figure 6 run, and the
    # consistency sweep's SC run is the cached-SC baseline.
    assert "MP3D/full prefetch" not in names and "MP3D/RC+pf 4ctx" in names
    assert "MP3D/SC" not in names and "MP3D/cached-SC" in names
