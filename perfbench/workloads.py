"""The benchmark's workloads, each driven through ``repro``'s public API.

A workload has two halves, both run inside one fresh interpreter:

- ``setup(seed)`` builds the inputs (and, for ``suite-replay``, the
  suites to replay).  Its cost is reported as ``setup_s``.
- ``measure(inputs, sample, tracer)`` does the timed work and fills a
  :class:`Sample` with what the metrics are computed from, plus the
  suite digests and coverage figures the correctness checks compare.

Everything runs at ``jobs=1``.  Importing this module touches nothing
in ``repro``; the workload functions import it.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["WORKLOADS", "Sample"]

# oracle-v1model: exhaustive suites (no test cap).
V1MODEL_ROWS = (("middleblock", "v1model", None), ("up4", "v1model", None))
# oracle-tna: 240 tests reach 100% statement coverage of switch_lite;
# the uncapped suite (427 tests) covers no further statement.
TNA_ROWS = (("switch_lite", "tna", 240),)

# suite-replay: programs whose suites stay on the lane engine, then
# programs whose replay falls back to the scalar interpreters.
REPLAY_LANE = (("fig1a", "v1model"), ("match_kinds", "v1model"),
               ("tna_forward", "tna"), ("ebpf_filter", "ebpf_model"),
               ("t2na_ghost", "t2na"))
REPLAY_SCALAR = (("middleblock", "v1model"), ("up4", "v1model"),
                 ("switch_lite", "tna"), ("mpls_stack", "v1model"),
                 ("tna_stateful", "tna"), ("register_demo", "v1model"))
REPLAY_MAX_TESTS = 16      # oracle cap per replayed suite
REPLAY_PACKETS = 64        # each suite is tiled to two full 32-lane batches
REPLAY_ROUNDS = 40         # timed passes over the whole mix

# fuzz-campaign: one steered campaign over all four fuzz targets.  Each
# seed draws different programs; many cheap cases rather than a few
# deep ones keep the wall of one campaign within ~10% of another's.
FUZZ_TARGETS = ("v1model", "ebpf_model", "tna", "t2na")
FUZZ_CASES = 100
FUZZ_MAX_TESTS = 4         # oracle test cap per generated program
FUZZ_SEED_STRIDE = 1000    # keeps campaigns of different seeds disjoint


@dataclass
class Sample:
    """Raw observations of one sample, aggregated by ``run.py``."""

    tests: int = 0              # tests emitted (replayed, for suite-replay)
    programs: int = 0           # units of work: programs, cases or suites
    gaps_ms: list = field(default_factory=list)
    cases_ms: list = field(default_factory=list)
    packets: int = 0
    replay_s: float = 0.0
    replay_passed: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    coverage: dict = field(default_factory=dict)   # suite -> statement %
    construct: list = field(default_factory=lambda: [0, 0])  # [hit, all]
    digests: dict = field(default_factory=dict)    # suite -> sha256
    replay: object = None       # repro.interp.batch.ReplayStats

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _render(tests) -> str:
    from repro.testback import get_backend

    return get_backend("stf").render_suite(tests)


def _statement_kinds(program, covered) -> tuple[int, int]:
    """(kinds covered, kinds present) over the program's IR statement
    classes — the construct coverage of a suite for a fixed program."""
    present, hit = set(), set()
    for stmt in program.all_statements():
        kind = type(stmt).__name__
        present.add(kind)
        if stmt.stmt_id in covered:
            hit.add(kind)
    return len(hit), len(present)


def _replay(sample: Sample, name: str, tests, program, seed: int) -> None:
    """Replay ``tests`` on the reference interpreter; every test must
    pass.  Looks ``run_suite`` up at call time so tracing sees it."""
    from repro.testback import runner

    t0 = time.perf_counter()
    passed, results = runner.run_suite(tests, program, seed=seed,
                                       batch=True, replay_stats=sample.replay)
    sample.replay_s += time.perf_counter() - t0
    sample.packets += len(results)
    sample.replay_passed += passed
    for result in results:
        if not result.passed:
            sample.fail(f"{name}: test {result.test_id} replayed as "
                        f"{result.kind}")


# ----------------------------------------------------------------------
# oracle-v1model / oracle-tna
# ----------------------------------------------------------------------

def _oracle_setup(rows):
    def setup(seed):
        from repro.targets import get_target

        return [(name, get_target(target), cap, seed)
                for name, target, cap in rows]
    return setup


def _oracle_measure(inputs, sample: Sample, tracer) -> None:
    from repro import TestGen, TestGenConfig, load_program
    from repro.testback import SuiteWriter, get_backend

    for name, target, cap, seed in inputs:
        with tracer.region("oracle.run"):
            t0 = time.perf_counter()
            program = load_program(name)
            gen = TestGen(program, target=target,
                          config=TestGenConfig(seed=seed, max_tests=cap))
            stream = io.StringIO()
            writer = SuiteWriter(get_backend("stf"), stream)
            tests = []
            last = time.perf_counter()
            for test in gen.iter_tests():
                now = time.perf_counter()
                sample.gaps_ms.append(1e3 * (now - last))
                last = now
                writer.write(test)
                tests.append(test)
            writer.close()
            sample.cases_ms.append(1e3 * (time.perf_counter() - t0))
        _replay(sample, name, tests, program, seed)
        coverage = gen.last_run.coverage
        sample.tests += len(tests)
        sample.attempted += len(tests)
        sample.programs += 1
        sample.coverage[name] = coverage.statement_percent
        hit, present = _statement_kinds(program, coverage.covered)
        sample.construct[0] += hit
        sample.construct[1] += present
        sample.digests[name] = _sha(stream.getvalue())


# ----------------------------------------------------------------------
# fuzz-campaign
# ----------------------------------------------------------------------

def _fuzz_setup(seed):
    from pathlib import Path

    from repro.fuzz import FuzzCampaignConfig

    # Findings (there should be none) land under the checkout.
    corpus = Path(".perfbench") / "corpus"
    return FuzzCampaignConfig(
        seed=seed * FUZZ_SEED_STRIDE, count=FUZZ_CASES,
        targets=FUZZ_TARGETS, corpus_dir=str(corpus), jobs=1,
        max_tests=FUZZ_MAX_TESTS, steer=True, steer_batch=1, shrink=True)


def _fuzz_measure(config, sample: Sample, tracer) -> None:
    from repro import TestGen
    from repro.fuzz import run_fuzz_campaign

    # Observe the oracle's test stream through the public streaming
    # API: one clock read per test, and the suite kept for its digest.
    suites = []
    iter_tests = TestGen.iter_tests

    def observed(self, config=None):
        tests = []
        suites.append(tests)
        last = time.perf_counter()
        for test in iter_tests(self, config):
            now = time.perf_counter()
            sample.gaps_ms.append(1e3 * (now - last))
            last = now
            tests.append(test)
            yield test

    # Time spent replaying, for packets_per_s.
    from repro.testback import runner
    run_suite = runner.run_suite
    replay_s = 0.0

    def timed_run_suite(*args, **kwargs):
        nonlocal replay_s
        t0 = time.perf_counter()
        try:
            return run_suite(*args, **kwargs)
        finally:
            replay_s += time.perf_counter() - t0

    # One case runs from the previous case's end to its own end
    # (steer_batch=1 runs each case's oracle and replay back to back).
    last_case = 0.0

    def on_case(_case):
        nonlocal last_case
        now = time.perf_counter()
        sample.cases_ms.append(1e3 * (now - last_case))
        last_case = now

    TestGen.iter_tests = observed
    runner.run_suite = timed_run_suite
    try:
        with tracer.region("fuzz.campaign"):
            last_case = time.perf_counter()
            summary = run_fuzz_campaign(config, on_case=on_case)
    finally:
        TestGen.iter_tests = iter_tests
        runner.run_suite = run_suite

    sample.replay = summary.replay
    sample.replay_s = replay_s
    sample.packets = summary.replay.replay_packets
    sample.programs = len(summary.cases)
    sample.attempted = len(summary.cases)
    digest = hashlib.sha256()
    for case, tests in zip(summary.cases, suites):
        sample.tests += case.num_tests
        sample.replay_passed += case.num_tests - len(case.failed_test_ids)
        sample.coverage[case.name] = case.coverage
        digest.update(f"{case.name} {case.classification} "
                      f"{_sha(_render(tests))}\n".encode())
        if not case.passed:
            sample.fail(f"{case.name}: {case.classification} "
                        f"{case.detail[:200]}")
    if len(suites) != len(summary.cases):
        sample.fail(f"{len(suites)} oracle streams for "
                    f"{len(summary.cases)} cases")
    cc = summary.construct_coverage
    sample.construct = [len(cc.covered()), len(cc.universe)]
    sample.digests["campaign"] = digest.hexdigest()


# ----------------------------------------------------------------------
# suite-replay
# ----------------------------------------------------------------------

def _replay_setup(seed):
    from repro import TestGen, TestGenConfig, load_program
    from repro.targets import get_target

    suites = []
    for name, target in REPLAY_LANE + REPLAY_SCALAR:
        program = load_program(name)
        gen = TestGen(program, target=get_target(target),
                      config=TestGenConfig(seed=seed,
                                           max_tests=REPLAY_MAX_TESTS))
        result = gen.run()
        tests = list(result.tests)
        tiled = (tests * -(-REPLAY_PACKETS // len(tests)))[:REPLAY_PACKETS]
        suites.append((name, program, tests, tiled, gen.last_run.coverage))
    # Lower every program to its compiled lane form before timing.
    from repro.interp.batch import ReplayStats
    warm = Sample(replay=ReplayStats())
    for name, program, _tests, tiled, _cov in suites:
        _replay(warm, name, tiled, program, seed)
    return seed, suites, warm.errors


def _replay_measure(inputs, sample: Sample, tracer) -> None:
    seed, suites, warm_errors = inputs
    for error in warm_errors:
        sample.fail(f"warm-up: {error}")
    for _round in range(REPLAY_ROUNDS):
        for name, program, _tests, tiled, _cov in suites:
            before = sample.replay_s
            _replay(sample, name, tiled, program, seed)
            took = sample.replay_s - before
            sample.cases_ms.append(1e3 * took)
            sample.gaps_ms.append(1e3 * took / len(tiled))
            sample.programs += 1
            sample.tests += len(tiled)
            sample.attempted += len(tiled)
    for name, program, tests, _tiled, coverage in suites:
        sample.coverage[name] = coverage.statement_percent
        hit, present = _statement_kinds(program, coverage.covered)
        sample.construct[0] += hit
        sample.construct[1] += present
        sample.digests[name] = _sha(_render(tests))


@dataclass(frozen=True)
class Workload:
    setup: Callable      # seed -> inputs
    measure: Callable    # (inputs, Sample, Tracer) -> None


# Why each workload is in the benchmark: BENCHMARK.json and README.md.
WORKLOADS = {
    "oracle-v1model": Workload(_oracle_setup(V1MODEL_ROWS), _oracle_measure),
    "oracle-tna": Workload(_oracle_setup(TNA_ROWS), _oracle_measure),
    "fuzz-campaign": Workload(_fuzz_setup, _fuzz_measure),
    "suite-replay": Workload(_replay_setup, _replay_measure),
}
