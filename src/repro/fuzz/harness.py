"""Differential harness: oracle vs. concrete interpreter, one program.

For each generated :class:`~repro.fuzz.generator.ProgramSpec` the
harness runs the symbolic-execution oracle (:class:`repro.TestGen`),
then replays every emitted abstract test on the matching concrete
simulator via :func:`repro.testback.runner.run_suite`.  Any
disagreement is classified into one of five mismatch kinds so campaign
triage can bucket failures before a human ever reads a reproducer:

=================  ========================================================
classification     meaning
=================  ========================================================
``pass``           every generated test replayed identically
``wrong_output``   payload width / drop-vs-forward / packet-count mismatch
``wrong_port``     packet emitted on a different egress port
``mask_violation`` payload differs under the oracle's *care* bits
``interp_exception``  the concrete simulator raised / flagged an error
``oracle_crash``   the frontend/symex stack itself raised
=================  ========================================================

The first four come from :class:`repro.testback.runner.TestRunResult`
kinds; ``oracle_crash`` is caught here because the oracle dying on a
well-typed program is itself a finding.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field

from .generator import ProgramSpec, generate_spec

__all__ = ["CaseResult", "run_case", "run_spec", "classify_run",
           "classify_replay", "CLASSIFICATIONS"]

CLASSIFICATIONS = (
    "pass", "wrong_output", "wrong_port", "mask_violation",
    "interp_exception", "oracle_crash",
)

# TestRunResult.kind -> campaign classification.
_KIND_MAP = {
    "wrong_output": "wrong_output",
    "missing_output": "wrong_output",
    "wrong_port": "wrong_port",
    "mask_violation": "mask_violation",
    "exception": "interp_exception",
}


@dataclass
class CaseResult:
    """Outcome of one differential case (one generated program)."""

    seed: int
    target: str
    name: str = ""
    passed: bool = False
    classification: str = "pass"
    detail: str = ""
    num_tests: int = 0
    failed_test_ids: list = field(default_factory=list)
    coverage: float = 0.0
    # Oracle-phase solver/exploration stats (RunStats.as_dict()).
    # Populated even for worker-process cases, so campaign reports can
    # aggregate solver behavior instead of just mismatch counts.
    stats: dict = field(default_factory=dict)
    # "generated" for fresh grammar draws, "mutated:<parent>" for
    # corpus-guided perturbations of a saved reproducer.
    origin: str = "generated"

    def __bool__(self):
        return self.passed

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "target": self.target,
            "name": self.name,
            "passed": self.passed,
            "classification": self.classification,
            "detail": self.detail,
            "num_tests": self.num_tests,
            "failed_test_ids": list(self.failed_test_ids),
            "coverage": self.coverage,
            "stats": dict(self.stats),
            "origin": self.origin,
        }


def classify_run(run) -> str:
    """Map a :class:`TestRunResult` to a campaign classification."""
    return _KIND_MAP.get(run.kind, "wrong_output")


def run_spec(spec: ProgramSpec, *, max_tests: int | None = 16,
             oracle_seed: int = 1, batch_replay: bool = True) -> CaseResult:
    """Differentially test one concrete spec.

    Used both for fresh campaign cases and by the shrinker to check a
    reduced candidate still fails the same way.  ``batch_replay``
    selects the lane-engine replay path (classifications are identical
    either way; only throughput and the ``replay_*`` counters differ).
    """
    from .. import TestGen, TestGenConfig, load_program
    from ..interp.batch import ReplayStats
    from ..targets import get_target
    from ..testback.runner import run_suite

    case = CaseResult(seed=spec.seed, target=spec.target, name=spec.name)
    try:
        program = load_program(spec.render(), source_name=spec.name)
        target = get_target(spec.target)
        config = TestGenConfig(seed=oracle_seed, max_tests=max_tests)
        result = TestGen(program, target=target, config=config).run()
    except Exception as exc:  # the oracle dying IS the finding
        case.classification = "oracle_crash"
        case.detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        return case

    case.num_tests = len(result.tests)
    case.coverage = result.statement_coverage
    if result.stats is not None:
        case.stats = result.stats.as_dict()
    replay_stats = ReplayStats()
    _passed, runs = run_suite(result.tests, program, batch=batch_replay,
                              replay_stats=replay_stats)
    if batch_replay:
        case.stats.update(replay_stats.as_dict())
    return classify_replay(case, runs)


def classify_replay(case: CaseResult, runs) -> CaseResult:
    """Fold a suite of :class:`TestRunResult` replays into ``case``.

    Classifies by the first failure (stable: ``run_suite`` preserves
    test order), but records every failing test id for triage.
    """
    failing = [r for r in runs if not r.passed]
    if not failing:
        case.passed = True
        return case
    first = failing[0]
    case.classification = classify_run(first)
    case.detail = f"test {first.test_id}: {first.detail}"
    case.failed_test_ids = [r.test_id for r in failing]
    return case


def run_case(seed: int, target: str, *, max_tests: int | None = 16,
             oracle_seed: int = 1, batch_replay: bool = True) -> CaseResult:
    """Generate the program for ``(seed, target)`` and run it
    differentially."""
    spec = generate_spec(seed, target)
    return run_spec(spec, max_tests=max_tests, oracle_seed=oracle_seed,
                    batch_replay=batch_replay)
