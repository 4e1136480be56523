#!/usr/bin/env python3
"""Quickstart: generate tests for the paper's Fig. 1a program.

Runs the oracle on a small v1model program, prints the generated tests
in STF format, shows the statement-coverage report, and replays every
test on the BMv2 simulator to confirm they pass — the full §7 loop in
thirty lines.

Usage:  python examples/quickstart.py [program-name]
"""

import sys

from repro import TestGen, TestGenConfig, load_program
from repro.targets import V1Model
from repro.testback.runner import run_suite


def main() -> int:
    program_name = sys.argv[1] if len(sys.argv) > 1 else "fig1a"
    program = load_program(program_name)

    print(f"=== generating tests for {program_name} (v1model) ===")
    oracle = TestGen(program, target=V1Model(), config=TestGenConfig(seed=1))
    result = oracle.run(max_tests=10)

    for test in result.tests:
        print(" ", test.summary())
    print()
    print(result.coverage_report())
    print()

    print("=== STF rendering ===")
    print(result.emit("stf"))

    print("=== replaying on the BMv2 simulator ===")
    passed, runs = run_suite(result.tests, program)
    for run in runs:
        status = "PASS" if run.passed else f"FAIL ({run.kind}: {run.detail})"
        print(f"  test {run.test_id}: {status}")
    print(f"\n{passed}/{len(runs)} tests pass")
    return 0 if passed == len(runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
