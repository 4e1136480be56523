"""The App. A.1 quirk catalogue, as executable tests.

Each test pins one documented target-implementation detail the paper
lists as requiring whole-program semantics.
"""

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.targets import EbpfModel, T2na, Tna, V1Model
from repro.testback.runner import run_suite


# ---------------------------------------------------------------------------
# v1model quirks
# ---------------------------------------------------------------------------

def test_bmv2_default_output_port_is_zero():
    """'BMv2's default output port is 0.'"""
    result = TestGen(load_program("fig1a"), target=V1Model(),
                     config=TestGenConfig(seed=1)).run()
    no_entry = [t for t in result.tests if not t.entries and not t.dropped]
    assert no_entry and all(t.expected[0].port == 0 for t in no_entry)


def test_bmv2_drop_port_511():
    """'BMv2 drops packets when the egress port is 511.'"""
    result = TestGen(load_program("fig1a"), target=V1Model(),
                     config=TestGenConfig(seed=1)).run()
    dropped = [t for t in result.tests if t.dropped and t.entries]
    assert dropped
    for t in dropped:
        port_arg = dict(t.entries[0].action_args).get("port")
        assert port_arg == 511


def test_bmv2_parser_error_does_not_drop():
    """'A parser error in BMv2 does not drop the packet; the header is
    invalid and execution skips to ingress.'"""
    result = TestGen(load_program("fig1a"), target=V1Model(),
                     config=TestGenConfig(seed=1)).run()
    short = [t for t in result.tests if t.input_packet.width < 112]
    assert short and all(not t.dropped for t in short)


def test_bmv2_uninitialized_variables_read_zero():
    """'All uninitialized variables are implicitly initialized to 0.'"""
    program_src = """
    #include <core.p4>
    #include <v1model.p4>
    header h_t { bit<8> f; }
    struct hs { h_t h; }
    struct m_t { bit<8> uninit; }
    parser P(packet_in pkt, out hs h, inout m_t m,
             inout standard_metadata_t sm) {
        state start { pkt.extract(h.h); transition accept; }
    }
    control V(inout hs h, inout m_t m) { apply { } }
    control I(inout hs h, inout m_t m, inout standard_metadata_t sm) {
        bit<8> local_var;
        apply {
            if (local_var == 0) { sm.egress_spec = 3; }
            else { sm.egress_spec = 4; }
        }
    }
    control E(inout hs h, inout m_t m, inout standard_metadata_t sm) { apply { } }
    control CK(inout hs h, inout m_t m) { apply { } }
    control D(packet_out pkt, in hs h) { apply { pkt.emit(h.h); } }
    V1Switch(P(), V(), I(), E(), CK(), D()) main;
    """
    from repro import load_program as lp

    program = lp(program_src)
    result = TestGen(program, target=V1Model(),
                     config=TestGenConfig(seed=1)).run()
    forwarded = [t for t in result.tests if not t.dropped]
    # Zero-init means the branch is constant: everyone goes to port 3.
    assert forwarded and all(t.expected[0].port == 3 for t in forwarded)
    passed, _ = run_suite(result.tests, program)
    assert passed == len(result.tests)


def test_bmv2_const_entry_priority_annotation():
    """'The table implementation in BMv2 supports the priority
    annotation, which changes the order of evaluation of constant
    entries.'"""
    from repro.ir.nodes import IrTableEntry

    program = load_program("match_kinds")
    table = program.find_table("mk_ingress.ternary_table")
    ordered = V1Model().order_const_entries(table)
    assert [e.priority for e in ordered] == [1, 2]


def test_bmv2_recirculate_bounded_and_replayable():
    program = load_program("recirc_demo")
    result = TestGen(program, target=V1Model(),
                     config=TestGenConfig(seed=1)).run()
    # hops==1 path recirculates: its trace must show it.
    recirc = [t for t in result.tests
              if any("recirculate" in line for line in t.trace)]
    assert recirc
    passed, _ = run_suite(result.tests, program)
    assert passed == len(result.tests)


# ---------------------------------------------------------------------------
# tna/t2na quirks
# ---------------------------------------------------------------------------

def test_tofino_minimum_packet_size():
    """'Packets must have a minimum size of 64 bytes.'"""
    result = TestGen(load_program("tna_forward"), target=Tna(),
                     config=TestGenConfig(seed=1)).run()
    assert result.tests
    for t in result.tests:
        assert t.input_packet.width >= 64 * 8


def test_tofino_unwritten_egress_port_drops():
    """'If the egress port variable is not written ... the packet is
    automatically considered dropped.'"""
    result = TestGen(load_program("tna_forward"), target=Tna(),
                     config=TestGenConfig(seed=1)).run()
    # The miss path runs default drop(); the noop-ish miss cannot
    # forward either because the port was never written.
    no_entry = [t for t in result.tests if not t.entries]
    assert no_entry and all(t.dropped for t in no_entry)


def test_tofino_metadata_prepend_not_in_input():
    """'Tofino prepends metadata to the packet ... parseable but not
    part of the input.'  The program extracts 64+64 bits of metadata
    before Ethernet, yet the input packet contains only Ethernet."""
    result = TestGen(load_program("tna_forward"), target=Tna(),
                     config=TestGenConfig(seed=1)).run()
    forwarded = [t for t in result.tests if not t.dropped]
    assert forwarded
    for t in forwarded:
        # Output is the ethernet header (112 bits) plus padding payload.
        assert t.expected[0].width >= 112


def test_t2na_short_packet_skips_extract():
    """Tofino 2 'will not execute the extract call' on short packets:
    the header stays invalid instead of unspecified."""
    t1 = Tna()
    t2 = T2na()
    assert t2.PORT_METADATA_BITS > t1.PORT_METADATA_BITS
    program = load_program("tna_forward")
    result = TestGen(program, target=t2, config=TestGenConfig(seed=1)).run()
    passed, _ = run_suite(result.tests, program)
    assert passed == len(result.tests)


def test_tna_taint_mitigation_auto_init_metadata():
    """'auto_init_metadata initializes all otherwise random metadata
    with 0' (taint mitigation 3)."""
    from repro.ir import load_ir
    from repro.programs import get_program_source

    src = "@auto_init_metadata\n" + get_program_source("tna_forward")
    # The annotation is attached at top level; the lowering stores
    # program-level annotations.
    program = load_ir(src)
    target = Tna()
    state = target.build_initial_state(program)
    assert state.props["meta_mode"] in ("zero", "taint")


# ---------------------------------------------------------------------------
# ebpf quirks
# ---------------------------------------------------------------------------

def test_ebpf_failing_extract_drops():
    """'A failing extract or advance in the eBPF kernel automatically
    drops the packet.'"""
    result = TestGen(load_program("ebpf_filter"), target=EbpfModel(),
                     config=TestGenConfig(seed=1)).run()
    short = [t for t in result.tests if t.input_packet.width < 112]
    assert short and all(t.dropped for t in short)


def test_ebpf_implicit_deparser_reemits_headers():
    """'The eBPF target does not have a deparser ... iterate over all
    headers and emit based on validity.'"""
    program = load_program("ebpf_filter")
    result = TestGen(program, target=EbpfModel(),
                     config=TestGenConfig(seed=1)).run()
    accepted = [t for t in result.tests if not t.dropped]
    assert accepted
    for t in accepted:
        # eth (112) + ipv4 (160) re-emitted.
        assert t.expected[0].width == t.input_packet.width
    passed, _ = run_suite(result.tests, program)
    assert passed == len(result.tests)


def test_ebpf_has_no_recirculation():
    """'ebpf_model does not support recirculation' — the extension
    registers no recirculate extern."""
    target = EbpfModel()
    assert target.extern_impl("recirculate_preserving_field_list") is None


def test_bmv2_clone_duplicates_packet():
    """'BMv2's clone extern behaves differently depending on the
    location it was called' — the I2E clone adds a second expected
    output on the mirror session's port."""
    program = load_program("clone_demo")
    result = TestGen(program, target=V1Model(),
                     config=TestGenConfig(seed=1)).run()
    cloned = [t for t in result.tests if len(t.expected) == 2]
    assert cloned, "a cloned path must produce two expected packets"
    t = cloned[0]
    # flags == 1 triggers the clone.
    flags = (t.input_packet.bits >> (t.input_packet.width - 8)) & 0xFF
    assert flags == 1
    passed, _ = run_suite(result.tests, program)
    assert passed == len(result.tests)
