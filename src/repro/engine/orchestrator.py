"""Batch/stream orchestration of test generation (the engine proper).

Two axes of parallelism, both deterministic:

- **Cross-program**: :class:`Engine` accepts many ``(program, target)``
  submissions and farms each complete job to a worker process.  Results
  stream back in submission order.
- **Intra-program**: a single program's exploration tree is split into
  branch-prefix shards (:meth:`Explorer.split_frontier`), workers
  explore subtrees independently, and :mod:`repro.engine.sharding`
  merges the finished paths back into exact sequential DFS order.  With
  a fixed seed the merged suite is byte-identical to ``jobs=1``.

``ProgramRun`` is the single-program driver used by both
:meth:`Engine.iter_results` and :meth:`repro.TestGen.iter_tests`; it
owns the merged coverage tracker and aggregated stats for the run.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field

from ..config import TestGenConfig
from ..ir.nodes import IrProgram
from ..smt import RunStats
from ..symex.coverage import CoverageTracker
from ..symex.explorer import Explorer
from ..targets.base import TargetExtension
from .sharding import merged_test_stream, ordered_entries
from .worker import run_program, run_shard

__all__ = ["Engine", "EngineJob", "EngineResult", "ProgramRun", "generate_suite"]

# Aim for several shards per worker so stragglers interleave, without
# splitting so deep that replay overhead dominates.
SPLIT_FACTOR = 4
SPLIT_MAX_ITERS = 4096


def _format_error(exc: BaseException) -> str:
    import traceback

    return "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()


def _validate_parallel(config: TestGenConfig) -> None:
    """Reject configs that cannot *shard one program* across processes.

    Only :class:`ProgramRun` enforces this: cross-program batches run
    each whole program sequentially inside its worker (``jobs=1``
    there), so any strategy stays deterministic on that path.
    """
    if config.jobs > 1 and config.strategy != "dfs":
        raise ValueError(
            f"strategy {config.strategy!r} draws from a shared RNG and cannot "
            "be sharded across processes; use strategy='dfs' with jobs>1 "
            "(cross-program batches may still use any strategy)"
        )


class ProgramRun:
    """One program's generation run — sequential or sharded.

    Iterate :meth:`iter_tests` to stream tests; ``coverage`` and
    ``stats`` are complete once the iterator is exhausted.
    """

    def __init__(self, program: IrProgram, target: TargetExtension,
                 config: TestGenConfig):
        _validate_parallel(config)
        self.program = program
        self.target = target
        self.config = config
        self.coverage = CoverageTracker(program)
        self.stats = RunStats()
        self.explorer: Explorer | None = None

    def iter_tests(self):
        if self.config.jobs <= 1:
            yield from self._iter_sequential()
        else:
            yield from self._iter_sharded()

    def _iter_sequential(self):
        explorer = Explorer(self.program, self.target, config=self.config)
        self.explorer = explorer
        self.coverage = explorer.coverage
        self.stats = explorer.stats
        yield from explorer.run()

    def _iter_sharded(self):
        from concurrent.futures import ProcessPoolExecutor

        config = self.config
        worker_config = config.replace(jobs=1)
        splitter = Explorer(self.program, self.target, config=worker_config)
        self.explorer = splitter
        states, _exhausted = splitter.split_frontier(
            config.jobs * SPLIT_FACTOR, SPLIT_MAX_ITERS
        )
        prefixes = [s.choice_path for s in states]
        self.stats.merge(splitter.stats.as_dict())
        entries = ordered_entries(splitter.event_log, prefixes)

        if not prefixes:
            # The split phase exhausted the whole tree; no pool needed.
            yield from merged_test_stream(
                self._entry_blocks(entries, {}), config, self.coverage
            )
            return

        program_blob = pickle.dumps(self.program)
        target_blob = pickle.dumps(self.target)
        config_dict = worker_config.as_dict()
        pool = ProcessPoolExecutor(max_workers=config.jobs)
        try:
            futures = {
                idx: pool.submit(run_shard, {
                    "index": idx,
                    "prefix": list(prefix),
                    "program_blob": program_blob,
                    "target_blob": target_blob,
                    "config": config_dict,
                })
                for idx, prefix in enumerate(prefixes)
            }
            yield from merged_test_stream(
                self._entry_blocks(entries, futures), config, self.coverage
            )
        finally:
            # Early truncation leaves shard futures unconsumed; drop the
            # queued ones instead of exploring subtrees nobody will read.
            pool.shutdown(wait=True, cancel_futures=True)

    def _entry_blocks(self, entries, futures):
        """Flatten ordered entries into ``(n_finished, tests)`` blocks,
        pulling each shard's result when the merge walk reaches it."""
        for entry in entries:
            if entry[0] == "shard":
                result = futures[entry[1]].result()
                self.stats.merge(result["stats"])
                yield from result["blocks"]
            else:
                yield entry[1], entry[2]


@dataclass
class EngineJob:
    index: int
    program: IrProgram
    target: TargetExtension
    config: TestGenConfig


@dataclass
class EngineResult:
    """The outcome of one submitted generation job.

    ``error`` is only ever set on engines constructed with
    ``capture_errors=True``; it holds the formatted exception from the
    failed job, and ``tests``/``coverage``/``stats`` are empty.
    """

    index: int
    program: str
    target: str
    tests: list = field(default_factory=list)
    coverage: object = None
    stats: object = None
    elapsed: float = 0.0
    error: str | None = None

    @property
    def statement_coverage(self) -> float:
        return self.coverage.statement_percent

    def coverage_report(self) -> str:
        return self.coverage.report()

    def emit(self, backend: str = "stf") -> str:
        from ..testback import get_backend

        return get_backend(backend).render_suite(self.tests)


class Engine:
    """Submit generation jobs; iterate results in submission order.

    ::

        engine = Engine(jobs=4)
        engine.submit("middleblock", "v1model")
        engine.submit("tunnel", "v1model", config=TestGenConfig(seed=7))
        for result in engine.iter_results():
            print(result.program, len(result.tests))

    With several submissions the pool runs one whole program per
    worker; with a single submission the program itself is sharded
    across workers.  Either way, a fixed seed produces byte-identical
    suites for any ``jobs``.
    """

    def __init__(self, jobs: int | None = None,
                 config: TestGenConfig | None = None,
                 capture_errors: bool = False):
        base = config if config is not None else TestGenConfig()
        if jobs is not None:
            base = base.replace(jobs=max(1, int(jobs)))
        # No parallel validation here: a multi-submission batch runs
        # every job sequentially in its worker, where any strategy is
        # deterministic.  A *single* submission at jobs>1 shards the
        # program, and ProgramRun rejects unshardable configs then.
        self.config = base
        # With capture_errors=True a job that raises yields an
        # EngineResult with ``error`` set instead of aborting the whole
        # batch — fuzz campaigns classify per-program oracle crashes.
        self.capture_errors = capture_errors
        self._jobs: list[EngineJob] = []

    @property
    def jobs(self) -> int:
        return self.config.jobs

    def submit(self, program, target, config: TestGenConfig | None = None) -> int:
        """Queue one generation job; returns its index.  ``program`` may
        be an IrProgram, corpus name, path, or source text; ``target`` a
        TargetExtension or registered target name."""
        if isinstance(program, str):
            from ..oracle.testgen import load_program

            program = load_program(program)
        if isinstance(target, str):
            from ..targets import get_target

            target = get_target(target)
        job_config = config if config is not None else self.config
        job = EngineJob(len(self._jobs), program, target, job_config)
        self._jobs.append(job)
        return job.index

    def run(self) -> list[EngineResult]:
        """Run every submitted job; returns results in submission order."""
        return list(self.iter_results())

    def iter_results(self):
        """Yield an :class:`EngineResult` per submission, in submission
        order, as each completes."""
        if self.config.jobs <= 1 or len(self._jobs) <= 1:
            for job in self._jobs:
                yield self._run_inline(job)
            return
        yield from self._iter_batch()

    def _run_inline(self, job: EngineJob) -> EngineResult:
        t0 = time.perf_counter()
        try:
            run = ProgramRun(job.program, job.target, job.config)
            tests = list(run.iter_tests())
        except Exception as exc:
            if not self.capture_errors:
                raise
            return EngineResult(
                index=job.index,
                program=job.program.source_name,
                target=job.target.name,
                elapsed=time.perf_counter() - t0,
                error=_format_error(exc),
            )
        return EngineResult(
            index=job.index,
            program=job.program.source_name,
            target=job.target.name,
            tests=tests,
            coverage=run.coverage,
            stats=run.stats,
            elapsed=time.perf_counter() - t0,
        )

    def _iter_batch(self):
        from concurrent.futures import ProcessPoolExecutor

        t0 = time.perf_counter()
        workers = min(self.config.jobs, len(self._jobs))
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [
                pool.submit(run_program, {
                    "index": job.index,
                    "program_blob": pickle.dumps(job.program),
                    "target_blob": pickle.dumps(job.target),
                    "config": job.config.replace(jobs=1).as_dict(),
                    "capture_errors": self.capture_errors,
                })
                for job in self._jobs
            ]
            for job, future in zip(self._jobs, futures):
                try:
                    result = future.result()
                except Exception as exc:
                    # Backstop for failures the worker could not wrap
                    # itself (e.g. an unpicklable result object).
                    if not self.capture_errors:
                        raise
                    result = {"error": _format_error(exc)}
                if result.get("error") is not None:
                    yield EngineResult(
                        index=job.index,
                        program=job.program.source_name,
                        target=job.target.name,
                        elapsed=time.perf_counter() - t0,
                        error=result["error"],
                    )
                    continue
                coverage = CoverageTracker(job.program)
                for test in result["tests"]:
                    coverage.record(test.covered_statements)
                yield EngineResult(
                    index=job.index,
                    program=job.program.source_name,
                    target=job.target.name,
                    tests=result["tests"],
                    coverage=coverage,
                    stats=RunStats.from_dict(result["stats"]),
                    elapsed=time.perf_counter() - t0,
                )
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def generate_suite(pairs, *, jobs: int = 1,
                   config: TestGenConfig | None = None) -> list[EngineResult]:
    """Batch convenience: run every ``(program, target)`` pair and return
    their results in order.

    ::

        results = generate_suite(
            [("fig1a", "v1model"), ("tunnel", "v1model")], jobs=4
        )
    """
    engine = Engine(jobs=jobs, config=config)
    for program, target in pairs:
        engine.submit(program, target)
    return engine.run()
