"""Ablation: path-exploration strategies (DESIGN.md §5).

The paper uses DFS by default and names new exploration strategies as
future work; continuations exist precisely to make strategies pluggable
(§5.1.2).  We compare DFS, random backtracking, and coverage-greedy on
the middleblock analogue: tests needed to reach a fixed coverage level.
"""

from _util import once, report

from repro import TestGen, TestGenConfig, load_program
from repro.targets import V1Model

TARGET_COVERAGE = 95.0
CAP = 120


def _tests_to_coverage(strategy: str) -> tuple[int, float]:
    gen = TestGen(
        load_program("middleblock"), target=V1Model(),
        config=TestGenConfig(seed=7, strategy=strategy, max_tests=CAP),
    )
    explorer = gen.explorer()
    count = 0
    for _test in explorer.run():
        count += 1
        if explorer.coverage.statement_percent >= TARGET_COVERAGE:
            break
    return count, explorer.coverage.statement_percent


def test_ablation_exploration_strategies(benchmark):
    def run():
        return {
            strategy: _tests_to_coverage(strategy)
            for strategy in ("dfs", "random", "greedy")
        }

    results = once(benchmark, run)
    lines = [f"| Strategy | Tests to {TARGET_COVERAGE:.0f}% cov. | Final cov. |"]
    for strategy, (count, cov) in results.items():
        lines.append(f"| {strategy:8s} | {count:17d} | {cov:9.1f}% |")
    lines.append("")
    lines.append("DFS enumerates sibling table-action branches before new")
    lines.append("code; diversity-seeking strategies typically need fewer")
    lines.append("tests per uncovered statement.")
    report("ablation_strategies", lines)

    for strategy, (count, cov) in results.items():
        assert count >= 1
        assert cov >= TARGET_COVERAGE or count == CAP
    # At least one non-DFS strategy should do no worse than DFS.
    dfs = results["dfs"][0]
    assert min(results["random"][0], results["greedy"][0]) <= dfs
