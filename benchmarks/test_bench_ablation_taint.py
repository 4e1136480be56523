"""Ablation: taint-spread mitigations (paper §5.3).

Mitigation 2 lets a tainted ternary key be wildcarded so entries can
still be synthesized.  With it disabled, the classifier table in
``taint_key.p4`` is only reachable through its default action: fewer
tests and lower statement coverage.  Every generated test must still
pass on BMv2 in both modes (taint handling must never produce flaky
tests, only fewer ones).
"""

from _util import once, report

from repro import TestGen, TestGenConfig, load_program
from repro.targets import V1Model
from repro.testback.runner import run_suite


def _run(mitigation: bool):
    target = V1Model()
    target.taint_wildcard_mitigation = mitigation
    program = load_program("taint_key")
    result = TestGen(program, target=target,
                     config=TestGenConfig(seed=1)).run()
    passed, _ = run_suite(result.tests, program)
    return {
        "tests": len(result.tests),
        "passed": passed,
        "coverage": result.statement_coverage,
        "blocked": result.stats.tests_blocked,
    }


def test_ablation_taint_mitigations(benchmark):
    def run():
        return {"on": _run(True), "off": _run(False)}

    results = once(benchmark, run)
    lines = ["| Wildcard mitigation | Tests | Pass | Coverage | Blocked |"]
    for label, r in results.items():
        lines.append(
            f"| {label:19s} | {r['tests']:5d} | {r['passed']:4d} | "
            f"{r['coverage']:7.1f}% | {r['blocked']:7d} |"
        )
    lines.append("")
    lines.append("§5.3: wildcarding tainted ternary keys preserves table")
    lines.append("coverage that naive taint handling loses.")
    report("ablation_taint", lines)

    on, off = results["on"], results["off"]
    assert on["tests"] > off["tests"]
    assert on["coverage"] > off["coverage"]
    # Soundness in both modes: no flaky tests.
    assert on["passed"] == on["tests"]
    assert off["passed"] == off["tests"]
