"""Fast unit tests for the differential fuzz subsystem.

These run in tier-1 (no ``fuzz`` marker): generator determinism and
well-typedness, harness classification, shrinker behavior, corpus
round-trips, and the campaign invariant under an injected simulator
fault.  The bounded end-to-end campaign lives in
``test_smoke_campaign.py`` behind ``-m fuzz``.
"""

import pytest

from repro.fuzz import (CaseResult, FuzzCampaignConfig, generate_spec,
                        load_corpus, run_fuzz_campaign, shrink_spec,
                        write_corpus_entry)
from repro.fuzz.generator import FUZZ_TARGETS
from repro.fuzz.harness import classify_replay
from repro.fuzz.corpus import spec_from_dict
from repro.oracle import load_program
from repro.testback import runner
from repro.testback.runner import TestRunResult


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_generate_spec_is_deterministic():
    a = generate_spec(7, "v1model")
    b = generate_spec(7, "v1model")
    assert a.render() == b.render()
    assert a.name == b.name == "fuzz_v1model_s7"


def test_generate_spec_varies_with_seed_and_target():
    base = generate_spec(7, "v1model").render()
    assert generate_spec(8, "v1model").render() != base
    assert generate_spec(7, "tna").render() != base


def test_generate_spec_rejects_unknown_target():
    with pytest.raises(KeyError, match="v1model"):
        generate_spec(0, "psa")


@pytest.mark.parametrize("target", FUZZ_TARGETS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_programs_are_well_typed(seed, target):
    spec = generate_spec(seed, target)
    program = load_program(spec.render(), source_name=spec.name)
    assert program is not None


def test_spec_dict_round_trip():
    spec = generate_spec(11, "v1model")
    rebuilt = spec_from_dict(spec.to_dict())
    assert rebuilt.render() == spec.render()


# ---------------------------------------------------------------------------
# Harness classification
# ---------------------------------------------------------------------------

def _case():
    return CaseResult(seed=0, target="v1model", name="t")


def test_classify_replay_all_passing():
    case = classify_replay(_case(), [TestRunResult(test_id=0, passed=True)])
    assert case.passed and case.classification == "pass"


@pytest.mark.parametrize("kind,expected", [
    ("wrong_output", "wrong_output"),
    ("missing_output", "wrong_output"),
    ("wrong_port", "wrong_port"),
    ("mask_violation", "mask_violation"),
    ("exception", "interp_exception"),
])
def test_classify_replay_kind_mapping(kind, expected):
    runs = [
        TestRunResult(test_id=0, passed=True),
        TestRunResult(test_id=1, passed=False, kind=kind, detail="boom"),
        TestRunResult(test_id=2, passed=False, kind="wrong_port"),
    ]
    case = classify_replay(_case(), runs)
    assert not case.passed
    assert case.classification == expected  # first failure wins
    assert case.failed_test_ids == [1, 2]   # ...but all are recorded


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------

def test_shrink_noop_when_nothing_reduces():
    spec = generate_spec(3, "v1model")
    result = shrink_spec(spec, lambda candidate: False, max_checks=50)
    assert result.steps == 0
    assert result.spec.render() == spec.render()


def test_shrink_reaches_structural_minimum():
    # An always-true predicate must drive the spec to the grammar's
    # floor — and every intermediate candidate must stay well-typed.
    spec = generate_spec(3, "v1model")

    def predicate(candidate):
        load_program(candidate.render(), source_name=candidate.name)
        return True

    result = shrink_spec(spec, predicate, max_checks=400)
    minimal = result.spec
    assert len(minimal.headers) == 1       # h0 survives
    assert not minimal.tables
    assert not minimal.apply_stmts
    assert not minimal.use_checksum and not minimal.use_lookahead
    load_program(minimal.render(), source_name=minimal.name)


def test_shrink_predicate_exception_is_not_a_reduction():
    spec = generate_spec(3, "v1model")

    def predicate(candidate):
        raise RuntimeError("predicate machinery died")

    result = shrink_spec(spec, predicate, max_checks=30)
    assert result.steps == 0
    assert result.spec.render() == spec.render()


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

def test_corpus_write_and_load_round_trip(tmp_path):
    spec = generate_spec(5, "ebpf_model")
    case = CaseResult(seed=5, target="ebpf_model", name=spec.name,
                      classification="wrong_output", detail="test 0: width",
                      num_tests=4, failed_test_ids=[0, 2])
    entry_dir = write_corpus_entry(tmp_path, case, spec, original_spec=spec)
    assert (entry_dir / "repro.p4").is_file()
    assert (entry_dir / "meta.json").is_file()

    entries = load_corpus(tmp_path)
    assert len(entries) == 1
    loaded = entries[0]
    assert loaded.seed == 5
    assert loaded.target == "ebpf_model"
    assert loaded.classification == "wrong_output"
    assert loaded.source == spec.render()
    assert loaded.spec.render() == spec.render()


def test_load_corpus_missing_dir_is_empty(tmp_path):
    assert load_corpus(tmp_path / "nope") == []


def test_checked_in_corpus_entry_loads():
    # The fixture entry under tests/fuzz/corpus/ pins the on-disk
    # format (see its README.md); it must always round-trip.
    import pathlib

    entries = load_corpus(pathlib.Path(__file__).parent / "corpus")
    assert entries, "expected at least the checked-in example entry"
    entry = entries[0]
    assert entry.classification in ("mask_violation", "wrong_output",
                                    "wrong_port", "interp_exception",
                                    "oracle_crash")
    assert entry.spec is not None
    assert entry.spec.render() == entry.source
    # It was produced against a faulted simulator, so it replays clean
    # on the real stack.
    program = load_program(entry.source, source_name=entry.name)
    assert program is not None


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

def test_campaign_config_validates_targets():
    with pytest.raises(KeyError, match="ebpf_model"):
        FuzzCampaignConfig(targets=("psa",))


def test_campaign_case_plan_round_robins():
    config = FuzzCampaignConfig(seed=10, count=4,
                                targets=("v1model", "ebpf_model"))
    assert config.case_plan() == [
        (10, "v1model"), (11, "ebpf_model"), (12, "v1model"),
        (13, "ebpf_model"),
    ]


class _Flipper:
    """Simulator wrapper that corrupts the low bit of every output."""

    def __init__(self, inner):
        self._inner = inner

    def process(self, *args, **kwargs):
        result = self._inner.process(*args, **kwargs)
        result.outputs = [
            (port, bits ^ 1, width) for port, bits, width in result.outputs
        ]
        return result


def test_campaign_finding_produces_reproducer(tmp_path):
    # Inject a payload-corrupting fault through the simulator registry:
    # the campaign must catch it, classify it, shrink it, and leave a
    # corpus entry for every failing case (the no-silent-drop invariant).
    original = runner.SIMULATORS["v1model"]
    runner.SIMULATORS.register(
        "v1model", lambda program, seed=0: _Flipper(original(program, seed)),
        replace=True,
    )
    try:
        config = FuzzCampaignConfig(
            seed=0, count=2, targets=("v1model",),
            corpus_dir=str(tmp_path), shrink=True, shrink_checks=25,
        )
        summary = run_fuzz_campaign(config)
    finally:
        runner.SIMULATORS.register("v1model", original, replace=True)

    assert len(summary.cases) == 2
    assert summary.num_failed >= 1
    assert len(summary.corpus_entries) == summary.num_failed
    for case in summary.cases:
        if not case.passed:
            assert case.classification in ("mask_violation", "wrong_output")
    entries = load_corpus(tmp_path)
    assert len(entries) == summary.num_failed
    # Reproducers must replay cleanly on the *un-faulted* stack.
    assert "fuzz campaign: 2 programs" in summary.report()


def test_campaign_clean_run_all_pass(tmp_path):
    config = FuzzCampaignConfig(
        seed=0, count=2, targets=("v1model", "ebpf_model"),
        corpus_dir=str(tmp_path),
    )
    summary = run_fuzz_campaign(config)
    assert summary.num_passed == 2
    assert not summary.corpus_entries
    assert list(tmp_path.iterdir()) == []
