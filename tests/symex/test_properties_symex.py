"""Property-based tests on the symbolic-execution substrate."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import terms as T
from repro.symex.packet import PacketModel
from repro.symex.value import SymVal


@given(widths=st.lists(st.integers(1, 64), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_consume_accounts_all_bits(widths):
    """Total consumed width == growth of I when L starts empty."""
    pkt = PacketModel()
    total = 0
    for w in widths:
        v = pkt.consume(w)
        assert v.width == w
        total += w
    assert pkt.input_bits == total
    assert pkt.live_bits() == 0


@given(
    prepend_width=st.integers(1, 64),
    consume_widths=st.lists(st.integers(1, 32), min_size=1, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_prepends_consumed_before_input_grows(prepend_width, consume_widths):
    """I grows only once the prepended live content is exhausted."""
    pkt = PacketModel()
    pkt.prepend_live(SymVal(T.bv_const(0, prepend_width), 0))
    for w in consume_widths:
        pkt.consume(w)
    consumed = sum(consume_widths)
    expected_growth = max(0, consumed - prepend_width)
    assert pkt.input_bits == expected_growth


@given(
    values=st.lists(
        st.tuples(st.integers(0, 255), st.integers(0, 255)),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_emit_commit_preserves_order_and_taint(values):
    pkt = PacketModel()
    for value, taint in values:
        pkt.emit(SymVal(T.bv_const(value, 8), taint))
    pkt.commit_emit()
    live = pkt.live_value()
    assert live.term.width == 8 * len(values)
    expected_bits = 0
    expected_taint = 0
    for value, taint in values:
        expected_bits = (expected_bits << 8) | value
        expected_taint = (expected_taint << 8) | taint
    assert live.term.value == expected_bits
    assert live.taint == expected_taint


@given(
    data=st.integers(0, (1 << 64) - 1),
    consume1=st.integers(1, 32),
    consume2=st.integers(1, 32),
)
@settings(max_examples=50, deadline=None)
def test_consume_slices_in_wire_order(data, consume1, consume2):
    """Consuming w1 then w2 bits equals the top w1+w2 bits in order."""
    pkt = PacketModel()
    pkt.prepend_live(SymVal(T.bv_const(data, 64), 0))
    a = pkt.consume(consume1)
    b = pkt.consume(consume2)
    combined = T.concat(a.term, b.term)
    expected = (data >> (64 - consume1 - consume2)) & (
        (1 << (consume1 + consume2)) - 1
    )
    assert combined.value == expected


@given(seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_oracle_roundtrip_property(seed):
    """The paper's core soundness property as a hypothesis test: for
    any seed, every emitted fig1a test replays green on BMv2."""
    from repro import TestGen, TestGenConfig, load_program
    from repro.targets import V1Model
    from repro.testback.runner import run_suite

    program = load_program("fig1a")
    result = TestGen(program, target=V1Model(),
                     config=TestGenConfig(seed=seed, strategy="random")
                     ).run(max_tests=6)
    passed, results = run_suite(result.tests, program)
    assert passed == len(result.tests), [
        (r.kind, r.detail) for r in results if not r.passed
    ]
