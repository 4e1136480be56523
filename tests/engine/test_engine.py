"""Parallel engine: determinism, merge order, batch orchestration."""

import pytest

from repro import Engine, TestGen, TestGenConfig, generate_suite, load_program
from repro.engine import dfs_order_key
from repro.engine.orchestrator import ProgramRun
from repro.targets import get_target


_PROGRAMS = {}


def _program(name):
    # One IrProgram per corpus name: stmt_ids come from a process-global
    # counter at lowering time, so coverage sets are only comparable
    # between runs that share the same program object.
    if name not in _PROGRAMS:
        _PROGRAMS[name] = load_program(name)
    return _PROGRAMS[name]


def _suite_text(program, target, config, backend="stf"):
    gen = TestGen(_program(program), target=get_target(target),
                  config=config)
    result = gen.run()
    return result.emit(backend), result


# ---------------------------------------------------------------------------
# The headline guarantee: jobs=4 output is byte-identical to jobs=1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("program,target,max_tests", [
    ("fig1a", "v1model", None),
    ("middleblock", "v1model", 20),
    ("mpls_stack", "v1model", 15),
])
def test_jobs_byte_identical(program, target, max_tests):
    config = TestGenConfig(seed=1, max_tests=max_tests)
    seq_text, seq = _suite_text(program, target, config)
    par_text, par = _suite_text(program, target, config.replace(jobs=4))
    assert par_text == seq_text
    assert [t.test_id for t in par.tests] == [t.test_id for t in seq.tests]
    assert par.coverage.covered == seq.coverage.covered
    assert par.coverage.report() == seq.coverage.report()


def test_jobs_identical_across_backends():
    config = TestGenConfig(seed=3, max_tests=8)
    for backend in ("stf", "ptf", "protobuf"):
        seq_text, _ = _suite_text("fig1a", "v1model", config, backend)
        par_text, _ = _suite_text("fig1a", "v1model",
                                  config.replace(jobs=3), backend)
        assert par_text == seq_text, backend


def test_jobs_identical_with_randomize_values():
    config = TestGenConfig(seed=7, max_tests=10, randomize_values=True)
    seq_text, _ = _suite_text("middleblock", "v1model", config)
    par_text, _ = _suite_text("middleblock", "v1model",
                              config.replace(jobs=4))
    assert par_text == seq_text


def test_truncation_lands_on_same_test():
    # max_tests cutting mid-suite must truncate at the identical point.
    full, _ = _suite_text("middleblock", "v1model",
                          TestGenConfig(seed=1, max_tests=9))
    par, _ = _suite_text("middleblock", "v1model",
                         TestGenConfig(seed=1, max_tests=9, jobs=2))
    assert par == full


def test_parallel_stats_expose_cache_counters():
    gen = TestGen(load_program("middleblock"), target=get_target("v1model"),
                  config=TestGenConfig(seed=1, max_tests=10, jobs=2))
    tests = list(gen.iter_tests())
    assert tests
    stats = gen.last_run.stats.as_dict()
    for key in ("cache_hits", "cache_misses", "cache_time_saved_s",
                "solver_checks"):
        assert key in stats
    assert stats["cache_misses"] > 0


# ---------------------------------------------------------------------------
# ProgramRun validation
# ---------------------------------------------------------------------------

def test_parallel_rejects_non_dfs_strategy():
    with pytest.raises(ValueError, match="strategy"):
        ProgramRun(load_program("fig1a"), get_target("v1model"),
                   TestGenConfig(strategy="random", jobs=2))


# ---------------------------------------------------------------------------
# Batch orchestration (cross-program)
# ---------------------------------------------------------------------------

def test_generate_suite_matches_sequential():
    pairs = [(_program("fig1a"), "v1model"), (_program("fig1b"), "v1model")]
    config = TestGenConfig(seed=1, max_tests=5)
    parallel = generate_suite(pairs, jobs=2, config=config)
    sequential = generate_suite(pairs, jobs=1, config=config)
    assert [r.program for r in parallel] == [r.program for r in sequential]
    for par, seq in zip(parallel, sequential):
        assert par.emit("stf") == seq.emit("stf")
        assert par.coverage.covered == seq.coverage.covered
        assert par.stats.tests_emitted == seq.stats.tests_emitted


def test_engine_submit_accepts_names_and_reports_in_order():
    engine = Engine(jobs=2, config=TestGenConfig(seed=1, max_tests=3))
    assert engine.submit("fig1b", "v1model") == 0
    assert engine.submit("fig1a", "v1model") == 1
    results = engine.run()
    assert [r.index for r in results] == [0, 1]
    assert results[0].program == "fig1b.p4"
    assert results[1].program == "fig1a.p4"
    for r in results:
        assert r.tests
        assert r.statement_coverage > 0
        assert r.elapsed >= 0


def test_engine_rejects_bad_config():
    # Cross-program batches run each program sequentially inside a
    # worker, so any strategy is fine there — the Engine itself accepts
    # greedy at jobs > 1.  Splitting a *single* program's exploration
    # across workers still requires the canonical DFS + solve-cache
    # combination, enforced when the submission turns into a ProgramRun.
    engine = Engine(jobs=2, config=TestGenConfig(strategy="greedy",
                                                 seed=1, max_tests=2))
    engine.submit("fig1a", "v1model")
    with pytest.raises(ValueError):
        engine.run()
    # With two programs the batch path takes over and greedy works.
    engine = Engine(jobs=2, config=TestGenConfig(strategy="greedy",
                                                 seed=1, max_tests=2))
    engine.submit("fig1a", "v1model")
    engine.submit("fig1b", "v1model")
    results = engine.run()
    assert all(r.tests for r in results)


# ---------------------------------------------------------------------------
# Merge-order comparator
# ---------------------------------------------------------------------------

def test_dfs_order_key_immediate_before_subtrees():
    # At one branch: immediate finishers ascending, then subtrees
    # descending — the sequential stack discipline.
    items = [
        ((0,), True), ((1,), True),          # immediates, ascending
        ((2,), False), ((1,), False),        # subtrees, descending
    ]
    ordered = sorted(items, key=lambda it: dfs_order_key(*it))
    assert ordered == [((0,), True), ((1,), True), ((2,), False), ((1,), False)]


def test_dfs_order_key_nested():
    # Everything under subtree (2,...) precedes everything under (1,...).
    deep = dfs_order_key((2, 0), True)
    shallow = dfs_order_key((1,), False)
    assert deep < shallow
