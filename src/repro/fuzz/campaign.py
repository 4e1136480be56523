"""Fuzz campaign driver: generate → cross-check → shrink → persist.

One campaign generates ``count`` programs (seeds ``seed .. seed+count-1``
round-robined over ``targets``), pushes the expensive oracle phase
through the PR-1 :class:`repro.engine.Engine` (worker-process fan-out
with per-job error capture), replays and classifies each suite in the
parent, and for every failing case runs the delta-debugging shrinker
and writes a minimal reproducer + seed to the corpus directory.

Two feedback mechanisms close the loop (both off by default and both
deterministic given the campaign seed):

- **Steering** (``steer=True``): the campaign runs in rounds of
  ``steer_batch`` cases; after each round the accumulated
  :class:`~repro.fuzz.steer.ConstructCoverage` is turned into a
  :class:`~repro.fuzz.steer.GrammarBias` that weights the next round's
  grammar draws toward still-uncovered IR constructs.  The bias is a
  pure function of completed rounds, so any ``jobs`` value sees the
  identical schedule.
- **Corpus-guided mutation** (``mutate_fraction > 0``): a per-case RNG
  (keyed off the campaign seed and case index) decides whether to
  perturb a saved reproducer via :func:`~repro.fuzz.mutate.mutate_spec`
  instead of generating from scratch.  The mutation pool is loaded
  once, up front, from ``mutate_corpus`` (default: the campaign's own
  corpus directory).

The invariant the CLI and smoke tests assert: every generated program
either passes differential replay or leaves a reproducer in the corpus
— a campaign never silently drops a finding.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..interp.batch import ReplayStats
from ..smt import RunStats
from .corpus import load_corpus, write_corpus_entry
from .generator import FUZZ_TARGETS, generate_spec
from .harness import CaseResult, classify_replay, run_spec
from .mutate import mutate_spec
from .shrink import shrink_spec
from .steer import IDENTITY_BIAS, ConstructCoverage

__all__ = ["FuzzCampaignConfig", "CampaignSummary", "run_fuzz_campaign"]


@dataclass(frozen=True)
class FuzzCampaignConfig:
    seed: int = 0
    count: int = 25
    targets: tuple = ("v1model", "ebpf_model")
    corpus_dir: str = "fuzz-corpus"
    jobs: int = 1
    max_tests: int | None = 16       # oracle test budget per program
    oracle_seed: int = 1
    shrink: bool = True
    shrink_checks: int = 200         # predicate budget per finding
    steer: bool = False              # coverage-guided grammar steering
    steer_batch: int = 8             # cases per steering round
    batch_replay: bool = True        # lane-engine suite replay
    steer_strength: float = 4.0      # uncovered-construct weight boost
    mutate_fraction: float = 0.0     # P(case mutates a reproducer)
    mutate_corpus: str | None = None  # pool dir (default: corpus_dir)

    def __post_init__(self):
        for target in self.targets:
            if target not in FUZZ_TARGETS:
                raise KeyError(
                    f"unknown fuzz target {target!r}; "
                    f"available: {', '.join(FUZZ_TARGETS)}"
                )
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if not self.targets:
            raise ValueError("need at least one target")
        if self.steer_batch < 1:
            raise ValueError("steer_batch must be >= 1")
        if not 0.0 <= self.mutate_fraction <= 1.0:
            raise ValueError("mutate_fraction must be in [0, 1]")

    def case_plan(self):
        """The deterministic (seed, target) list this campaign runs."""
        return [
            (self.seed + i, self.targets[i % len(self.targets)])
            for i in range(self.count)
        ]


@dataclass
class CampaignSummary:
    config: FuzzCampaignConfig
    cases: list = field(default_factory=list)        # [CaseResult]
    corpus_entries: list = field(default_factory=list)  # [Path]
    elapsed: float = 0.0
    construct_coverage: ConstructCoverage = field(
        default_factory=ConstructCoverage)
    replay: ReplayStats = field(default_factory=ReplayStats)

    @property
    def num_passed(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def num_failed(self) -> int:
        return len(self.cases) - self.num_passed

    @property
    def num_mutated(self) -> int:
        return sum(1 for c in self.cases if c.origin != "generated")

    def by_classification(self) -> dict:
        counts: dict = {}
        for case in self.cases:
            counts[case.classification] = \
                counts.get(case.classification, 0) + 1
        return dict(sorted(counts.items()))

    def solver_stats(self) -> dict:
        """Campaign-wide totals of the per-case oracle stats.

        Each case's run record is merged into one, so worker-process
        runs contribute the same way sequential ones do (the engine
        already merged each case's shards); batch-replayed campaigns
        add their replay counters.
        """
        recorded = [case.stats for case in self.cases if case.stats]
        if not recorded:
            return {}
        total = RunStats()
        for stats in recorded:
            total.merge(stats)
        totals = total.as_dict()
        if self.config.batch_replay:
            totals.update(self.replay.as_dict())
        return dict(sorted(totals.items()))

    def record(self, recorder) -> None:
        """Fold this summary into a :class:`repro.report.Recorder`.

        The campaign block carries construct coverage (the grammar-side
        coverage curve), per-case outcomes, and the steering/mutation
        knobs, so steered and unsteered runs compare field-for-field.
        """
        recorder.num_tests = sum(c.num_tests for c in self.cases)
        exercised = [c.coverage for c in self.cases if c.num_tests > 0]
        recorder.statement_coverage = round(
            sum(exercised) / len(exercised), 4) if exercised else 0.0
        recorder.record_stats(self.solver_stats())
        recorder.extra["campaign"] = {
            "num_cases": len(self.cases),
            "num_passed": self.num_passed,
            "num_failed": self.num_failed,
            "steered": self.config.steer,
            "mutated_cases": self.num_mutated,
            "by_classification": self.by_classification(),
            "construct_coverage": self.construct_coverage.as_dict(),
            "cases": [c.to_dict() for c in self.cases],
            "corpus_entries": [str(p) for p in self.corpus_entries],
            "replay": {
                **self.replay.as_dict(),
                "fill_rate": round(self.replay.fill_rate(), 4),
                "batched": self.config.batch_replay,
            },
        }

    def report(self) -> str:
        lines = [
            f"fuzz campaign: {len(self.cases)} programs, "
            f"{self.num_passed} pass, {self.num_failed} findings "
            f"({self.elapsed:.1f}s)"
        ]
        if self.num_mutated:
            lines.append(f"  mutated from corpus: {self.num_mutated}")
        cc = self.construct_coverage
        if cc.cases:
            lines.append(
                f"  construct coverage: {len(cc.covered())}/"
                f"{len(cc.universe)} ({cc.percent:.1f}%)"
                + (" [steered]" if self.config.steer else "")
            )
        for kind, n in self.by_classification().items():
            lines.append(f"  {kind}: {n}")
        stats = self.solver_stats()
        if stats:
            elided = RunStats.from_dict(stats).elide_hits
            lines.append(
                f"  solver: {int(stats.get('solver_checks', 0))} checks, "
                f"{int(stats.get('sat_solves', 0))} SAT solves, "
                f"{int(elided)} elided, "
                f"{int(stats.get('cache_hits', 0))} cache hits"
            )
            lines.append(
                f"  intern: {int(stats.get('intern_hits', 0))} pool hits, "
                f"{int(stats.get('intern_misses', 0))} misses; "
                f"blast cache: {int(stats.get('blast_cache_hits', 0))} hits, "
                f"{int(stats.get('blast_clauses_replayed', 0))} clauses "
                "replayed"
            )
        if self.replay.replay_packets:
            lines.append(
                f"  replay: {self.replay.replay_packets} packets, "
                f"{self.replay.replay_batches} batches, "
                f"{self.replay.replay_scalar_packets} scalar, "
                f"fill {self.replay.fill_rate():.0%}"
            )
        for path in self.corpus_entries:
            lines.append(f"  reproducer: {path}")
        return "\n".join(lines)


def _oracle_results(config: FuzzCampaignConfig, specs, origins=None):
    """Run the oracle phase for every loadable spec.

    Yields ``(spec, case, oracle_result_or_None)`` in plan order.
    Frontend failures are caught here (loading happens in the parent);
    symex failures ride back on :class:`EngineResult.error`.
    ``origins`` maps spec names to case origins (mutated vs generated).
    """
    from .. import TestGen, TestGenConfig, load_program
    from ..engine import Engine
    from ..targets import get_target

    origins = origins or {}
    oracle_config = TestGenConfig(
        seed=config.oracle_seed, max_tests=config.max_tests
    )

    loaded = []      # (spec, program) pairs that reached the engine
    prepared = []    # (spec, case, program_or_None) in plan order
    for spec in specs:
        case = CaseResult(seed=spec.seed, target=spec.target, name=spec.name,
                          origin=origins.get(spec.name, "generated"))
        try:
            program = load_program(spec.render(), source_name=spec.name)
        except Exception as exc:
            case.classification = "oracle_crash"
            case.detail = _exc_str(exc)
            prepared.append((spec, case, None))
            continue
        prepared.append((spec, case, program))
        loaded.append((spec, program))

    if config.jobs > 1 and len(loaded) > 1:
        engine = Engine(jobs=config.jobs, config=oracle_config,
                        capture_errors=True)
        for spec, program in loaded:
            engine.submit(program, get_target(spec.target))
        engine_results = iter(engine.iter_results())
        for spec, case, program in prepared:
            if program is None:
                yield spec, case, None
                continue
            result = next(engine_results)
            if result.error is not None:
                case.classification = "oracle_crash"
                case.detail = result.error
                yield spec, case, None
            else:
                yield spec, case, (program, result.tests, result)
        return

    # Sequential path: run the oracle inline, no process pool.
    for spec, case, program in prepared:
        if program is None:
            yield spec, case, None
            continue
        try:
            result = TestGen(
                program, target=get_target(spec.target), config=oracle_config
            ).run()
        except Exception as exc:
            case.classification = "oracle_crash"
            case.detail = _exc_str(exc)
            yield spec, case, None
            continue
        yield spec, case, (program, result.tests, result)


def _exc_str(exc: BaseException) -> str:
    import traceback

    return "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()


def _mutation_pool(config: FuzzCampaignConfig):
    """The reproducer specs mutation may draw from, keyed by target.

    Loaded once, up front: a campaign must not mutate its *own* fresh
    findings mid-flight, or the plan would depend on failure timing.
    """
    if config.mutate_fraction <= 0.0:
        return {}
    source = config.mutate_corpus or config.corpus_dir
    pool: dict = {}
    for entry in load_corpus(source):
        if entry.spec is not None and entry.target in config.targets:
            pool.setdefault(entry.target, []).append(entry.spec)
    return pool


def _plan_specs(config: FuzzCampaignConfig, round_plan, base_index, bias,
                pool):
    """Build one round's specs: per-case mutate-or-generate decision.

    The decision RNG is keyed off ``(campaign seed, case index)`` only,
    so adding corpus entries changes *which parent* is drawn but a
    fixed pool replays exactly.
    """
    specs, origins = [], {}
    for offset, (seed, target) in enumerate(round_plan):
        index = base_index + offset
        rng = random.Random(f"mutate-pick|{config.seed}|{index}")
        roll = rng.random()
        parents = pool.get(target, ())
        if parents and roll < config.mutate_fraction:
            parent = parents[rng.randrange(len(parents))]
            spec = mutate_spec(parent, seed)
            origins[spec.name] = f"mutated:{parent.name}"
        else:
            spec = generate_spec(seed, target, bias=bias)
        specs.append(spec)
    return specs, origins


def run_fuzz_campaign(config: FuzzCampaignConfig,
                      on_case=None, recorder=None) -> CampaignSummary:
    """Run a full differential fuzz campaign.

    ``on_case(case)`` is invoked after each case finishes its oracle +
    replay phase (the CLI uses it for streaming progress).  An optional
    :class:`repro.report.Recorder` captures phase times and, at the
    end, the campaign block of the run report.
    """
    from ..testback.runner import run_suite

    def phase(name):
        return recorder.phase(name) if recorder is not None \
            else nullcontext()

    t0 = time.perf_counter()
    summary = CampaignSummary(config=config)
    pool = _mutation_pool(config)
    plan = config.case_plan()
    batch = config.steer_batch if config.steer else max(1, len(plan) or 1)
    bias = IDENTITY_BIAS

    def progress(case):
        if on_case is not None:
            on_case(case)

    for start in range(0, len(plan), batch):
        round_plan = plan[start:start + batch]
        with phase("generate"):
            specs, origins = _plan_specs(
                config, round_plan, start, bias, pool)

        # Phase order matters for determinism: classification and
        # shrinking happen in plan order regardless of worker
        # completion order (the Engine already yields in submission
        # order), and construct coverage folds in the same order.
        with phase("oracle_replay"):
            round_results = list(_oracle_results(config, specs, origins))
        for spec, case, oracle in round_results:
            if oracle is not None:
                program, tests, result = oracle
                case.num_tests = len(tests)
                try:
                    case.coverage = result.statement_coverage
                except Exception:
                    case.coverage = 0.0
                # Both the Engine path (EngineResult) and the sequential
                # path (TestGenResult) carry the run record; keep it on
                # the case so per-worker solver behavior survives
                # capture_errors aggregation.
                stats = getattr(result, "stats", None)
                if stats is not None:
                    case.stats = stats.as_dict()
                case_replay = ReplayStats()
                with phase("oracle_replay"):
                    _passed, runs = run_suite(
                        tests, program, batch=config.batch_replay,
                        replay_stats=case_replay)
                if config.batch_replay:
                    case.stats.update(case_replay.as_dict())
                summary.replay.merge(case_replay)
                classify_replay(case, runs)
            summary.cases.append(case)
            summary.construct_coverage.record_case(
                spec, exercised=case.num_tests > 0)
            progress(case)
            if case.passed:
                continue

            # A finding: shrink it (re-running the oracle sequentially
            # on each candidate) and persist the minimal reproducer.
            shrunk = spec
            if config.shrink:
                want = case.classification

                def still_fails(candidate):
                    outcome = run_spec(
                        candidate, max_tests=config.max_tests,
                        oracle_seed=config.oracle_seed,
                        batch_replay=config.batch_replay,
                    )
                    return (not outcome.passed
                            and outcome.classification == want)

                with phase("shrink"):
                    shrunk = shrink_spec(
                        spec, still_fails, max_checks=config.shrink_checks
                    ).spec
            entry = write_corpus_entry(
                config.corpus_dir, case, shrunk, original_spec=spec
            )
            summary.corpus_entries.append(entry)

        if config.steer:
            bias = summary.construct_coverage.bias(config.steer_strength)

    summary.elapsed = time.perf_counter() - t0
    if recorder is not None:
        summary.record(recorder)
    return summary
