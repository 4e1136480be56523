#!/usr/bin/env python3
"""Extensibility demo (paper Tbl. 1): one oracle, four targets, three
test back ends.

Generates tests for a representative program on every instantiated
target and renders each suite through every back end the target
supports — the paper's extension matrix, exercised end-to-end.

Usage:  python examples/multi_target.py
"""

from repro import TestGen, TestGenConfig, load_program
from repro.targets import EbpfModel, T2na, Tna, V1Model
from repro.testback import get_backend
from repro.testback.runner import run_suite

# Paper Tbl. 1: target -> (program, back ends).
MATRIX = [
    (V1Model, "fig1a", ["stf", "ptf", "protobuf"]),
    (Tna, "tna_forward", ["ptf", "protobuf"]),
    (T2na, "tna_forward", ["ptf", "protobuf"]),
    (EbpfModel, "ebpf_filter", ["stf"]),
]


def main() -> int:
    failures = 0
    print(f"{'Architecture':12s} {'Program':14s} {'Tests':>5s} {'Pass':>5s} "
          f"{'Coverage':>9s}  Back ends")
    for target_cls, program_name, backends in MATRIX:
        target = target_cls()
        program = load_program(program_name)
        result = TestGen(program, target=target,
                         config=TestGenConfig(seed=1)).run(max_tests=10)
        passed, _ = run_suite(result.tests, program)
        failures += len(result.tests) - passed
        rendered = []
        for backend_name in backends:
            text = get_backend(backend_name).render_suite(result.tests)
            rendered.append(f"{backend_name}({len(text)}ch)")
        print(f"{target.name:12s} {program_name:14s} {len(result.tests):5d} "
              f"{passed:5d} {result.statement_coverage:8.1f}%  "
              + ", ".join(rendered))
    print("\nall targets exercised" + (" - all tests pass" if failures == 0
                                       else f" - {failures} FAILURES"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
