"""Test-framework capability limits (paper §6).

"The richer the API of the test framework, the more P4Testgen can
exercise the control plane ... BMv2 STF does not yet support adding
range entries ... P4Testgen will cover fewer paths than is otherwise
possible."
"""

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.targets import Tna, V1Model
from repro.testback.runner import run_suite


def test_stf_cannot_install_range_entries():
    """The range table in match_kinds.p4 only misses under STF."""
    program = load_program("match_kinds")
    ptf = TestGen(program, target=V1Model(test_framework="ptf"),
                  config=TestGenConfig(seed=1)).run()
    stf = TestGen(program, target=V1Model(test_framework="stf"),
                  config=TestGenConfig(seed=1)).run()

    def range_hits(tests):
        return sum(
            1
            for t in tests
            for e in t.entries
            if e.table.endswith("range_table")
        )

    assert range_hits(ptf.tests) > 0
    assert range_hits(stf.tests) == 0
    assert len(stf.tests) < len(ptf.tests), "STF must cover fewer paths"


def test_stf_cannot_initialize_registers():
    """register_demo's DEADBEEF gate is only reachable via PTF."""
    program = load_program("register_demo")
    ptf = TestGen(program, target=V1Model(test_framework="ptf"),
                  config=TestGenConfig(seed=1)).run()
    stf = TestGen(program, target=V1Model(test_framework="stf"),
                  config=TestGenConfig(seed=1)).run()
    assert any(t.registers for t in ptf.tests)
    assert not any(t.registers for t in stf.tests)
    # The opcode==2 / value==DEADBEEF forward path needs register init.
    ptf_ports = {t.expected[0].port for t in ptf.tests if not t.dropped}
    stf_ports = {t.expected[0].port for t in stf.tests if not t.dropped}
    assert 2 in ptf_ports
    assert 2 not in stf_ports


def test_capability_limited_tests_still_sound():
    for framework in ("stf", "ptf"):
        program = load_program("match_kinds")
        result = TestGen(
            program, target=V1Model(test_framework=framework),
            config=TestGenConfig(seed=1)).run(max_tests=30)
        passed, _ = run_suite(result.tests, program)
        assert passed == len(result.tests)


def test_unknown_framework_rejected():
    with pytest.raises(ValueError):
        V1Model(test_framework="carrier-pigeon")


def test_default_framework_is_unrestricted():
    target = Tna()
    assert target.backend_caps.range_entries
    assert target.backend_caps.registers
