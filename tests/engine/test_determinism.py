"""Regression lock on the engine's determinism guarantee.

PR 1's headline property: with a fixed seed, ``generate_suite`` output
is *byte-identical* for any worker count — the DFS-merge shard
recombination plus canonical (now alpha-invariant) cached solving
together guarantee it.  This file pins the guarantee across the jobs
axis so later cache or sharding changes cannot silently weaken it.
"""

import pytest

from repro import TestGenConfig, generate_suite
from repro.testback import get_backend

PAIRS = [("fig1a", "v1model"), ("match_kinds", "v1model")]
JOBS = (1, 2, 4)


def _suite_bytes(jobs: int, **overrides) -> bytes:
    config = TestGenConfig(seed=5, max_tests=8, **overrides)
    results = generate_suite(PAIRS, jobs=jobs, config=config)
    backend = get_backend("stf")
    return "\n===\n".join(
        backend.render_suite(r.tests) for r in results
    ).encode()


@pytest.fixture(scope="module")
def reference():
    return _suite_bytes(1)


@pytest.mark.parametrize("jobs", [j for j in JOBS if j != 1])
def test_generate_suite_byte_identical_across_jobs(reference, jobs):
    assert _suite_bytes(jobs) == reference


def test_reference_run_is_nonempty(reference):
    # Guards against the identity holding vacuously.
    assert reference.count(b"packet") >= 2


@pytest.mark.parametrize("jobs", JOBS)
def test_elision_on_and_off_emit_identical_suites(reference, jobs):
    """Query elision may change how answers are found, never which
    tests come out: the elide-off suite must be byte-identical to the
    (elide-on by default) reference, at every worker count."""
    assert _suite_bytes(jobs, elide=False) == reference


@pytest.mark.parametrize("jobs", JOBS)
def test_incremental_on_and_off_emit_identical_suites(reference, jobs):
    """The incremental status plane only changes how feasibility
    *verdicts* are computed (assumption-scoped solves over a retained
    clause database); every emitted model still comes from the
    canonical one-shot solve path — so the incremental-off suite must
    be byte-identical to the (incremental-on by default) reference, at
    every worker count."""
    assert _suite_bytes(jobs, incremental=False) == reference


def test_per_program_results_align(reference):
    config = TestGenConfig(seed=5, max_tests=8)
    seq = generate_suite(PAIRS, jobs=1, config=config)
    par = generate_suite(PAIRS, jobs=4, config=config)
    assert [r.program for r in seq] == [r.program for r in par]
    for s, p in zip(seq, par):
        assert len(s.tests) == len(p.tests)
        assert s.statement_coverage == p.statement_coverage


# ---------------------------------------------------------------------------
# Coverage feedback loop (PR 7): the greedy strategy, the coverage-goal
# stop limit, and steered fuzz campaigns must all stay deterministic
# across the jobs axis.
# ---------------------------------------------------------------------------

def test_greedy_batch_byte_identical_across_jobs():
    """Coverage-greedy exploration is not intra-program shardable, but
    a multi-program batch runs each program sequentially inside its
    worker — so greedy suites must still be byte-identical at any
    worker count."""
    ref = _suite_bytes(1, strategy="greedy")
    assert ref.count(b"packet") >= 2
    for jobs in (2, 4):
        assert _suite_bytes(jobs, strategy="greedy") == ref


@pytest.mark.parametrize("jobs", JOBS)
def test_coverage_goal_truncates_identically_across_jobs(jobs):
    """``coverage_goal`` is checked at test boundaries and replayed in
    the shard merge, so a goal-truncated run stops on exactly the same
    test whether the exploration was sharded or not."""
    config = TestGenConfig(seed=5, max_tests=32, coverage_goal=60.0)
    [result] = generate_suite([("match_kinds", "v1model")], jobs=jobs,
                              config=config)
    [ref] = generate_suite([("match_kinds", "v1model")], jobs=1,
                           config=config)
    backend = get_backend("stf")
    assert backend.render_suite(result.tests) == \
        backend.render_suite(ref.tests)
    assert result.statement_coverage >= 60.0
    # The goal (not the cap) did the truncating.
    assert len(ref.tests) < 32


@pytest.mark.parametrize("jobs", JOBS)
def test_steered_campaign_report_identical_across_jobs(jobs, tmp_path):
    """A steered fuzz campaign's run report — case outcomes, construct
    coverage, steering schedule — is byte-identical at any worker
    count once wall-time/cache-warmth fields are stripped."""
    import json

    from repro.fuzz import FuzzCampaignConfig, run_fuzz_campaign
    from repro.report import Recorder, normalized

    def report_bytes(j, corpus):
        recorder = Recorder("fuzz", seed=3)
        run_fuzz_campaign(FuzzCampaignConfig(
            seed=3, count=6, targets=("v1model",), corpus_dir=str(corpus),
            jobs=j, max_tests=4, shrink=False, steer=True, steer_batch=3,
        ), recorder=recorder)
        return json.dumps(normalized(recorder.report()),
                          sort_keys=True).encode()

    assert report_bytes(jobs, tmp_path / f"c{jobs}") == \
        report_bytes(1, tmp_path / "c1")
