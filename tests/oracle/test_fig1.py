"""End-to-end oracle tests on the paper's Fig. 1 example programs.

These assert the behaviours of Fig. 1c: four qualitative test shapes
for fig1a (no entries/noop, synthesized entry + set_out, synthesized
entry + noop, too-short packet -> default action only) and three for
fig1b (checksum mismatch -> drop, checksum match -> forward, invalid
header -> forward).
"""

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.externs.checksum import ones_complement16
from repro.targets import V1Model


@pytest.fixture(scope="module")
def fig1a_tests():
    gen = TestGen(load_program("fig1a"), target=V1Model(),
                  config=TestGenConfig(seed=1))
    return gen.run().tests


@pytest.fixture(scope="module")
def fig1b_tests():
    gen = TestGen(load_program("fig1b"), target=V1Model(),
                  config=TestGenConfig(seed=1))
    return gen.run().tests


def test_fig1a_full_statement_coverage():
    gen = TestGen(load_program("fig1a"), target=V1Model(),
                  config=TestGenConfig(seed=1))
    result = gen.run()
    assert result.statement_coverage == 100.0


def test_fig1a_count_and_shapes(fig1a_tests):
    # Paper Fig. 1c lines 4-7 plus the drop-port branch our TM models.
    assert 4 <= len(fig1a_tests) <= 6


def test_fig1a_default_noop_test(fig1a_tests):
    """First test: no table entries; output EtherType rewritten to
    0xBEEF; port unchanged (BMv2 default port 0)."""
    t = next(t for t in fig1a_tests if not t.entries and t.input_packet.width == 112)
    assert t.expected, "packet must be forwarded"
    out = t.expected[0]
    assert out.width == 112
    assert out.bits & 0xFFFF == 0xBEEF
    assert out.port == 0


def test_fig1a_synthesized_entry_matches_beef(fig1a_tests):
    """The symbolic executor must discover that the key is the
    program-written constant 0xBEEF (paper: 'Since the program
    previously set h.eth.type to 0xBEEF the match entry is 0xBEEF')."""
    entry_tests = [t for t in fig1a_tests if t.entries]
    assert entry_tests
    for t in entry_tests:
        entry = t.entries[0]
        assert entry.table == "MyIngress.forward_table"
        name, kind, roles = entry.keys[0]
        assert name == "type"
        assert kind == "exact"
        assert roles["value"] == 0xBEEF


def test_fig1a_set_out_changes_port(fig1a_tests):
    set_out = [
        t for t in fig1a_tests
        if t.entries and t.entries[0].action.endswith("set_out") and not t.dropped
    ]
    assert set_out
    t = set_out[0]
    port_arg = dict(t.entries[0].action_args)["port"]
    assert t.expected[0].port == port_arg


def test_fig1a_too_short_packet_uses_default_only(fig1a_tests):
    """Fig. 1c line 6: packet too short -> header invalid -> key tainted
    -> no entry can be guaranteed to match -> default action, and the
    original (partial) packet is forwarded unchanged."""
    short = [t for t in fig1a_tests if t.input_packet.width < 112]
    assert short, "a too-short-packet test must be generated"
    for t in short:
        assert not t.entries, "tainted key must prevent entry synthesis"
        assert not t.dropped
        out = t.expected[0]
        assert out.width == t.input_packet.width
        assert out.bits == t.input_packet.bits


def test_fig1b_three_behaviours(fig1b_tests):
    assert len(fig1b_tests) == 3


def test_fig1b_checksum_match_forwards(fig1b_tests):
    """The EtherType must equal csum16(dst ++ src) computed by concolic
    execution (paper §3 example 2, second test)."""
    forwarded = [
        t for t in fig1b_tests if t.input_packet.width == 112 and not t.dropped
    ]
    assert forwarded
    t = forwarded[0]
    bits = t.input_packet.bits
    dst = (bits >> 64) & ((1 << 48) - 1)
    src = (bits >> 16) & ((1 << 48) - 1)
    ethertype = bits & 0xFFFF
    assert ethertype == ones_complement16([(48, dst), (48, src)])
    # forwarded unchanged
    assert t.expected[0].bits == bits


def test_fig1b_checksum_mismatch_drops(fig1b_tests):
    dropped = [t for t in fig1b_tests if t.dropped]
    assert dropped
    t = dropped[0]
    bits = t.input_packet.bits
    dst = (bits >> 64) & ((1 << 48) - 1)
    src = (bits >> 16) & ((1 << 48) - 1)
    ethertype = bits & 0xFFFF
    assert ethertype != ones_complement16([(48, dst), (48, src)])


def test_fig1b_short_packet_skips_checksum(fig1b_tests):
    """Invalid header -> verify_checksum condition false -> forwarded."""
    short = [t for t in fig1b_tests if t.input_packet.width < 112]
    assert short
    t = short[0]
    assert not t.dropped
    assert t.expected[0].bits == t.input_packet.bits


def test_deterministic_across_runs():
    r1 = TestGen(load_program("fig1a"), target=V1Model(),
                 config=TestGenConfig(seed=7)).run()
    r2 = TestGen(load_program("fig1a"), target=V1Model(),
                 config=TestGenConfig(seed=7)).run()
    assert [t.input_packet.hex() for t in r1.tests] == [
        t.input_packet.hex() for t in r2.tests
    ]
    assert [len(t.entries) for t in r1.tests] == [len(t.entries) for t in r2.tests]


def test_stf_output_contains_wildcards_or_values(fig1a_tests):
    from repro.testback import get_backend

    text = get_backend("stf").render_suite(fig1a_tests)
    assert "packet 0" in text
    assert "BEEF" in text


def test_all_backends_render(fig1a_tests):
    from repro.testback import BACKENDS, get_backend

    for name in BACKENDS:
        text = get_backend(name).render_suite(fig1a_tests)
        assert text.strip()
