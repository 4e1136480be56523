"""Runner unit tests: comparison semantics and simulator dispatch."""

import pytest

from repro import load_program
from repro.testback.runner import make_simulator, run_test
from repro.testback.spec import AbstractTestCase, ExpectedPacket, PacketData


@pytest.fixture(scope="module")
def fig1a():
    return load_program("fig1a")


def make_test(**kwargs):
    defaults = dict(
        test_id=1,
        target="v1model",
        input_packet=PacketData(bits=0, width=112, port=0),
        expected=[ExpectedPacket(bits=0xBEEF, width=112, port=0)],
    )
    defaults.update(kwargs)
    return AbstractTestCase(**defaults)


def test_simulator_dispatch(fig1a):
    for name in ("v1model", "spec-only"):
        sim = make_simulator(name, fig1a)
        assert sim.__class__.__name__ == "Bmv2Simulator"
    tna_prog = load_program("tna_forward")
    assert make_simulator("tna", tna_prog).version == 1
    assert make_simulator("t2na", tna_prog).version == 2
    with pytest.raises(KeyError):
        make_simulator("asic9000", fig1a)


def test_passing_test(fig1a):
    result = run_test(make_test(), fig1a)
    assert result.passed and result.kind == "pass"


def test_wrong_payload_detected(fig1a):
    bad = make_test(
        expected=[ExpectedPacket(bits=0xDEAD, width=112, port=0)]
    )
    result = run_test(bad, fig1a)
    assert not result.passed
    assert result.kind == "mask_violation"
    assert "payload mismatch" in result.detail


def test_wrong_port_detected(fig1a):
    bad = make_test(expected=[ExpectedPacket(bits=0xBEEF, width=112, port=7)])
    result = run_test(bad, fig1a)
    assert not result.passed
    assert result.kind == "wrong_port" and "port" in result.detail


def test_wrong_width_detected(fig1a):
    bad = make_test(expected=[ExpectedPacket(bits=0xBEEF, width=104, port=0)])
    result = run_test(bad, fig1a)
    assert not result.passed
    assert result.kind == "wrong_output" and "width" in result.detail


def test_registry_lists_known_targets_on_miss(fig1a):
    with pytest.raises(KeyError, match="v1model"):
        make_simulator("asic9000", fig1a)


def test_register_simulator_round_trip(fig1a):
    from repro.testback.runner import SIMULATORS

    calls = []

    def factory(program, seed):
        calls.append((program, seed))
        return make_simulator("v1model", program, seed)

    SIMULATORS.register("custom-sim", factory)
    try:
        sim = make_simulator("custom-sim", fig1a, seed=3)
        assert sim.__class__.__name__ == "Bmv2Simulator"
        assert calls == [(fig1a, 3)]
        with pytest.raises(TypeError):
            SIMULATORS.register("bad", "not-a-callable")
    finally:
        SIMULATORS.pop("custom-sim", None)


def test_dont_care_mask_suppresses_mismatch(fig1a):
    # Expect a wrong EtherType but mark those bits don't-care.
    test = make_test(
        expected=[
            ExpectedPacket(bits=0x1234, width=112, port=0, dont_care=0xFFFF)
        ]
    )
    result = run_test(test, fig1a)
    assert result.passed


def test_expected_drop_but_forwarded(fig1a):
    test = make_test(expected=[], dropped=True)
    result = run_test(test, fig1a)
    assert not result.passed
    assert result.kind == "wrong_output"
    assert "expected drop" in result.detail


def test_missing_output_detected(fig1a):
    test = make_test(
        entries=[],
        expected=[
            ExpectedPacket(bits=0xBEEF, width=112, port=0),
            ExpectedPacket(bits=0xBEEF, width=112, port=1),
        ],
    )
    result = run_test(test, fig1a)
    assert not result.passed
    assert result.kind == "missing_output"
