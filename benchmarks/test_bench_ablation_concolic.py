"""Ablation: concolic execution of complex externs (paper §5.4).

With concolic execution enabled, the oracle's checksum values are
consistent with the target's concrete checksum function, so every test
replays green on BMv2.  With it disabled (placeholder variables left
unconstrained), the oracle's expectations are arbitrary and checksum-
dependent tests fail on replay — concolic execution is what makes the
oracle *correct*, not just complete.
"""

from _util import once, report

from repro import TestGen, TestGenConfig, load_program
from repro.targets import V1Model
from repro.testback.runner import run_suite


def _run(enabled: bool):
    program = load_program("fig1b")
    gen = TestGen(program, target=V1Model(),
                  config=TestGenConfig(seed=1, concolic_enabled=enabled))
    explorer = gen.explorer()
    tests = list(explorer.run())
    passed, _ = run_suite(tests, program)
    return {
        "tests": len(tests),
        "passed": passed,
        "coverage": explorer.coverage.statement_percent,
    }


def test_ablation_concolic_on_off(benchmark):
    def run():
        return {"concolic on": _run(True), "concolic off": _run(False)}

    results = once(benchmark, run)
    lines = ["| Configuration | Tests | Pass on BMv2 | Coverage |"]
    for label, r in results.items():
        lines.append(
            f"| {label:13s} | {r['tests']:5d} | {r['passed']:4d}/{r['tests']:<5d}"
            f" | {r['coverage']:7.1f}% |"
        )
    lines.append("")
    lines.append("§5.4: without the solve/bind/re-solve loop the oracle's")
    lines.append("checksum expectations are unsound; replay exposes it.")
    report("ablation_concolic", lines)

    on, off = results["concolic on"], results["concolic off"]
    assert on["passed"] == on["tests"], "concolic tests must be sound"
    assert off["passed"] < off["tests"], (
        "disabling concolic execution must break checksum tests"
    )
