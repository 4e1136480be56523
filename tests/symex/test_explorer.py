"""Explorer unit tests: strategies, limits, pruning, coverage tracker."""

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.symex.coverage import CoverageTracker
from repro.symex.explorer import Explorer
from repro.targets import V1Model


@pytest.fixture(scope="module")
def program():
    return load_program("middleblock")


def test_max_tests_limit(program):
    explorer = Explorer(program, V1Model(),
                        config=TestGenConfig(seed=1, max_tests=5))
    tests = list(explorer.run())
    assert len(tests) == 5


def test_max_paths_limit(program):
    explorer = Explorer(program, V1Model(),
                        config=TestGenConfig(seed=1, max_paths=10))
    list(explorer.run())
    assert explorer.stats.paths_finished <= 10


def test_stop_at_full_coverage():
    prog = load_program("fig1a")
    explorer = Explorer(prog, V1Model(), config=TestGenConfig(
        seed=1, stop_at_full_coverage=True))
    tests = list(explorer.run())
    assert explorer.coverage.fully_covered
    # Stopping early: fewer tests than the exhaustive 5.
    assert 1 <= len(tests) <= 5


@pytest.mark.parametrize("strategy", ["dfs", "random", "greedy"])
def test_strategies_all_sound(strategy, program):
    from repro.testback.runner import run_suite

    explorer = Explorer(program, V1Model(), config=TestGenConfig(
        seed=3, strategy=strategy, max_tests=15))
    tests = list(explorer.run())
    assert tests
    passed, _ = run_suite(tests, program)
    assert passed == len(tests)


def test_unknown_strategy_rejected(program):
    explorer = Explorer(program, V1Model(),
                        config=TestGenConfig(strategy="zigzag", max_tests=1))
    with pytest.raises(ValueError):
        list(explorer.run())


def test_generate_convenience(program):
    explorer = Explorer(program, V1Model(), config=TestGenConfig(seed=1))
    tests = explorer.generate(3)
    assert len(tests) == 3


def test_stats_accumulate(program):
    explorer = Explorer(program, V1Model(),
                        config=TestGenConfig(seed=1, max_tests=5))
    list(explorer.run())
    stats = explorer.stats.as_dict()
    assert stats["steps"] > 0
    assert stats["tests_emitted"] == 5
    assert stats["step_time"] >= 0


def test_coverage_tracker_records():
    prog = load_program("fig1a")
    tracker = CoverageTracker(prog)
    assert tracker.universe_size > 0
    all_ids = [s.stmt_id for s in prog.all_statements()]
    new = tracker.record(all_ids[:2])
    assert new == 2
    assert tracker.record(all_ids[:2]) == 0  # nothing new
    assert 0 < tracker.statement_percent <= 100.0


def test_coverage_report_lists_uncovered():
    prog = load_program("fig1a")
    tracker = CoverageTracker(prog)
    report = tracker.report()
    assert "statement coverage: 0.0%" in report
    assert "uncovered statements:" in report


def test_coverage_ignores_foreign_ids():
    prog = load_program("fig1a")
    tracker = CoverageTracker(prog)
    assert tracker.record({10**9}) == 0


def test_test_ids_sequential(program):
    explorer = Explorer(program, V1Model(),
                        config=TestGenConfig(seed=1, max_tests=4))
    tests = list(explorer.run())
    assert [t.test_id for t in tests] == [1, 2, 3, 4]


def test_model_violating_the_path_is_never_emitted(program, monkeypatch):
    """The emission certificate: a model that breaks a path conjunct
    must stop the run instead of becoming a (wrong) test."""
    from repro.smt import Model, all_hold, terms as T
    from repro.symex.explorer import ModelCertificateError

    explorer = Explorer(program, V1Model(), config=TestGenConfig(seed=1))
    solver = explorer.model_solver
    real_check, real_model = solver.check, solver.model
    last_query = []

    def check(*extra):
        last_query[:] = extra
        return real_check(*extra)

    def corrupted_model(variables=None):
        # Flip one variable so the first conjunct that depends on it
        # evaluates false.
        values = real_model(variables).as_dict()
        for term in last_query:
            for var in sorted(T.free_vars(term), key=lambda v: v.payload):
                if var.width == 0:
                    flipped = {**values, var: not values[var]}
                else:
                    mask = (1 << var.width) - 1
                    flipped = {**values, var: ~values[var] & mask}
                if not all_hold([term], flipped):
                    return Model(flipped)
        return Model(values)

    monkeypatch.setattr(solver, "check", check)
    monkeypatch.setattr(solver, "model", corrupted_model)
    with pytest.raises(ModelCertificateError,
                       match=r"middleblock\.p4: .* at choice path"):
        list(explorer.run())
    assert explorer.stats.tests_emitted == 0
