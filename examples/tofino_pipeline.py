#!/usr/bin/env python3
"""Whole-program semantics on a hardware-style target (paper §5/§6.1.2).

Generates tests for a Tofino (tna) L2 forwarding program and highlights
the target-specific behaviours the oracle had to model:

- the 64-byte minimum packet size (every input is >= 512 bits);
- intrinsic metadata and port metadata prepended to the live packet
  (parsed by the program but absent from the input packet I);
- the "egress port never written -> dropped" traffic-manager rule;
- drop_ctl handling in the ingress deparser metadata.

Also runs the same program as t2na (Tofino 2) to show the extension
reuse the paper describes.

Usage:  python examples/tofino_pipeline.py
"""

from repro import TestGen, TestGenConfig, load_program
from repro.targets import T2na, Tna
from repro.testback.runner import run_suite


def main() -> int:
    program = load_program("tna_forward")
    failures = 0
    for target in (Tna(), T2na()):
        print(f"=== {target.name} ===")
        result = TestGen(program, target=target,
                         config=TestGenConfig(seed=1)).run()
        for test in result.tests:
            size_note = f"{test.input_packet.width // 8}B"
            print(f"  test {test.test_id}: input {size_note:>5} -> "
                  f"{'drop' if test.dropped else 'forward'}, "
                  f"{len(test.entries)} entries")
            assert test.input_packet.width >= 64 * 8, \
                "Tofino minimum packet size violated"
        print(" ", result.coverage_report().splitlines()[0])

        # The drop test with no entries demonstrates the unwritten-
        # egress-port rule: the default action is drop(), and even the
        # noop miss cannot forward because the port was never written.
        passed, _ = run_suite(result.tests, program)
        print(f"  replay on Tofino model (v{2 if target.name == 't2na' else 1}):"
              f" {passed}/{len(result.tests)} pass\n")
        failures += len(result.tests) - passed

    print("=== PTF rendering (first tna test) ===")
    result = TestGen(program, target=Tna(),
                     config=TestGenConfig(seed=1)).run(max_tests=1)
    print(result.emit("ptf"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
