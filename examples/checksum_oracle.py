#!/usr/bin/env python3
"""Concolic execution demo (paper §3 example 2 / §5.4).

The Fig. 1b program drops packets whose EtherType does not equal the
Internet checksum of the two MAC addresses.  A checksum cannot be
encoded in first-order bitvector logic at acceptable cost, so the
oracle models it as a placeholder variable and resolves it concolically.
This script shows the three generated behaviours and verifies the
checksum arithmetic by hand.

Usage:  python examples/checksum_oracle.py
"""

from repro import TestGen, TestGenConfig, load_program
from repro.externs.checksum import ones_complement16
from repro.targets import V1Model
from repro.testback.runner import run_suite


def describe(test) -> str:
    bits = test.input_packet.bits
    width = test.input_packet.width
    if width < 112:
        return f"too-short packet ({width} bits): header invalid, checksum skipped"
    dst = (bits >> 64) & ((1 << 48) - 1)
    src = (bits >> 16) & ((1 << 48) - 1)
    ethertype = bits & 0xFFFF
    computed = ones_complement16([(48, dst), (48, src)])
    verdict = "MATCH" if ethertype == computed else "MISMATCH"
    outcome = "dropped" if test.dropped else "forwarded"
    return (
        f"dst={dst:012x} src={src:012x} type={ethertype:04x} "
        f"csum16={computed:04x} -> {verdict}, {outcome}"
    )


def main() -> int:
    program = load_program("fig1b")
    result = TestGen(program, target=V1Model(),
                     config=TestGenConfig(seed=1)).run()

    print("=== concolic checksum tests (fig1b) ===")
    for test in result.tests:
        print(f"  test {test.test_id}: {describe(test)}")

    # Invariants from the paper's example:
    matching = [
        t for t in result.tests if t.input_packet.width == 112 and not t.dropped
    ]
    mismatching = [t for t in result.tests if t.dropped]
    assert matching, "expected a checksum-match test"
    assert mismatching, "expected a checksum-mismatch test"

    passed, _runs = run_suite(result.tests, program)
    print(f"\nreplay on BMv2 simulator: {passed}/{len(result.tests)} pass")
    print(result.coverage_report())
    return 0 if passed == len(result.tests) else 1


if __name__ == "__main__":
    raise SystemExit(main())
