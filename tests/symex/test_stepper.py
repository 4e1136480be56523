"""Stepper unit tests: expression evaluation, assignment, branching,
table application — driven through small crafted programs."""

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.targets import V1Model

V1_TEMPLATE = """
#include <core.p4>
#include <v1model.p4>
header h_t {{ bit<8> a; bit<8> b; bit<16> c; }}
struct hs {{ h_t h; }}
struct m_t {{ bit<16> x; bit<8> y; bool flag; }}
parser P(packet_in pkt, out hs h, inout m_t m,
         inout standard_metadata_t sm) {{
    state start {{ pkt.extract(h.h); transition accept; }}
}}
control V(inout hs h, inout m_t m) {{ apply {{ }} }}
control I(inout hs h, inout m_t m, inout standard_metadata_t sm) {{
    apply {{
{ingress}
    }}
}}
control E(inout hs h, inout m_t m, inout standard_metadata_t sm) {{ apply {{ }} }}
control CK(inout hs h, inout m_t m) {{ apply {{ }} }}
control D(packet_out pkt, in hs h) {{ apply {{ pkt.emit(h.h); }} }}
V1Switch(P(), V(), I(), E(), CK(), D()) main;
"""


def run_ingress(body, max_tests=20, seed=1):
    program = load_program(V1_TEMPLATE.format(ingress=body), "stepper_test.p4")
    result = TestGen(program, target=V1Model(),
                     config=TestGenConfig(seed=seed)).run(max_tests=max_tests)
    return result


def output_of(test):
    assert test.expected
    return test.expected[0]


def test_arithmetic_on_header_fields():
    result = run_ingress("h.h.a = h.h.a + h.h.b;")
    full = [t for t in result.tests if t.input_packet.width == 32]
    assert full
    t = full[0]
    in_a = (t.input_packet.bits >> 24) & 0xFF
    in_b = (t.input_packet.bits >> 16) & 0xFF
    out_a = (output_of(t).bits >> 24) & 0xFF
    assert out_a == (in_a + in_b) & 0xFF


def test_slice_assignment():
    result = run_ingress("h.h.c[7:0] = 8w0xAB;")
    full = [t for t in result.tests if t.input_packet.width == 32]
    t = full[0]
    assert output_of(t).bits & 0xFF == 0xAB
    # Upper slice untouched.
    assert (output_of(t).bits >> 8) & 0xFF == (t.input_packet.bits >> 8) & 0xFF


def test_concat_expression():
    result = run_ingress("h.h.c = h.h.a ++ h.h.b;")
    full = [t for t in result.tests if t.input_packet.width == 32]
    t = full[0]
    in_a = (t.input_packet.bits >> 24) & 0xFF
    in_b = (t.input_packet.bits >> 16) & 0xFF
    assert output_of(t).bits & 0xFFFF == (in_a << 8) | in_b


def test_symbolic_branch_generates_both_sides():
    result = run_ingress(
        "if (h.h.a == 7) { m.y = 1; sm.egress_spec = 1; } "
        "else { m.y = 2; sm.egress_spec = 2; }"
    )
    ports = {output_of(t).port for t in result.tests if not t.dropped}
    assert {1, 2} <= ports
    # The inputs must actually satisfy the branch conditions.
    for t in result.tests:
        if t.dropped or t.input_packet.width < 32:
            continue
        a = (t.input_packet.bits >> 24) & 0xFF
        if output_of(t).port == 1:
            assert a == 7
        elif output_of(t).port == 2:
            assert a != 7


def test_ternary_expression():
    result = run_ingress("m.x = (h.h.a > 10) ? 16w100 : 16w200;"
                         "h.h.c = m.x;")
    full = [t for t in result.tests if t.input_packet.width == 32]
    for t in full:
        a = (t.input_packet.bits >> 24) & 0xFF
        expected = 100 if a > 10 else 200
        assert output_of(t).bits & 0xFFFF == expected


def test_cast_bool_to_bit():
    result = run_ingress("m.flag = h.h.a == 0; "
                         "h.h.b = (bit<8>)(m.flag ? 8w1 : 8w0);")
    full = [t for t in result.tests if t.input_packet.width == 32]
    for t in full:
        a = (t.input_packet.bits >> 24) & 0xFF
        b_out = (output_of(t).bits >> 16) & 0xFF
        assert b_out == (1 if a == 0 else 0)


def test_setinvalid_removes_header_from_output():
    result = run_ingress("h.h.setInvalid();")
    full = [t for t in result.tests if t.input_packet.width == 32]
    for t in full:
        assert output_of(t).width == 0  # nothing emitted


def test_exit_skips_rest_of_control():
    result = run_ingress("sm.egress_spec = 5; exit; sm.egress_spec = 6;")
    forwarded = [t for t in result.tests if not t.dropped]
    assert forwarded
    assert all(output_of(t).port == 5 for t in forwarded)


def test_shift_by_symbolic_amount():
    result = run_ingress("h.h.c = h.h.c << (bit<16>) h.h.a;")
    full = [t for t in result.tests if t.input_packet.width == 32]
    for t in full:
        a = (t.input_packet.bits >> 24) & 0xFF
        c_in = t.input_packet.bits & 0xFFFF
        expected = (c_in << a) & 0xFFFF if a < 16 else 0
        assert output_of(t).bits & 0xFFFF == expected


def test_tests_replay_on_simulator():
    from repro.testback.runner import run_suite

    program = load_program(
        V1_TEMPLATE.format(
            ingress="if (h.h.a > h.h.b) { h.h.c = 16w1; } else { h.h.c = 16w2; }"
        ),
        "stepper_replay.p4",
    )
    result = TestGen(program, target=V1Model(),
                     config=TestGenConfig(seed=1)).run()
    passed, results = run_suite(result.tests, program)
    assert passed == len(result.tests)
