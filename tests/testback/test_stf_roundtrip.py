"""STF round trip: emit -> parse -> replay on the simulator."""

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.targets import V1Model
from repro.testback import get_backend
from repro.testback.runner import run_suite
from repro.testback.stf_parser import StfParseError, parse_stf


@pytest.fixture(scope="module")
def fig1a_suite():
    program = load_program("fig1a")
    result = TestGen(program, target=V1Model(),
                     config=TestGenConfig(seed=1)).run()
    text = get_backend("stf").render_suite(result.tests)
    return program, result.tests, text


def test_parse_recovers_test_count(fig1a_suite):
    _program, tests, text = fig1a_suite
    parsed = parse_stf(text)
    assert len(parsed) == len(tests)


def test_parse_recovers_packets(fig1a_suite):
    _program, tests, text = fig1a_suite
    parsed = parse_stf(text)
    for original, recovered in zip(tests, parsed):
        assert recovered.input_packet.width == original.input_packet.width
        assert recovered.input_packet.bits == original.input_packet.bits
        assert recovered.input_packet.port == original.input_packet.port
        assert recovered.dropped == (original.dropped or not original.expected)


def test_parse_recovers_entries(fig1a_suite):
    _program, tests, text = fig1a_suite
    parsed = parse_stf(text)
    for original, recovered in zip(tests, parsed):
        assert len(recovered.entries) == len(original.entries)
        for oe, re_ in zip(original.entries, recovered.entries):
            assert re_.table == oe.table
            assert re_.action == oe.action
            assert dict(re_.action_args) == dict(oe.action_args)


def test_parsed_tests_replay_green(fig1a_suite):
    program, _tests, text = fig1a_suite
    parsed = parse_stf(text)
    passed, results = run_suite(parsed, program)
    assert passed == len(parsed), [
        (r.kind, r.detail) for r in results if not r.passed
    ]


def test_wildcards_round_trip():
    program = load_program("taint_key")
    result = TestGen(program, target=V1Model(),
                     config=TestGenConfig(seed=1)).run()
    text = get_backend("stf").render_suite(result.tests)
    parsed = parse_stf(text)
    # taint_key's nonce-derived wildcards survive the round trip.
    passed, _ = run_suite(parsed, program)
    assert passed == len(parsed)


def test_value_set_round_trip():
    program = load_program("value_set_demo")
    result = TestGen(program, target=V1Model(),
                     config=TestGenConfig(seed=1)).run()
    text = get_backend("stf").render_suite(result.tests)
    parsed = parse_stf(text)
    assert any(t.value_sets for t in parsed)
    passed, _ = run_suite(parsed, program)
    assert passed == len(parsed)


def test_bad_line_raises():
    with pytest.raises(StfParseError):
        parse_stf("# test 1 (v1model, x.p4)\nfrobnicate everything\n")
