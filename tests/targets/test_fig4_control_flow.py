"""Paper Fig. 4/5: target-defined pipeline control flow.

The green dashed segments of Fig. 5 — drop_ctl dropping in the traffic
manager, resubmit re-entering ingress — are target extension code, not
core code.  These tests pin the modeled control flow on the tna
analogue of the paper's snippet.
"""

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.targets import Tna
from repro.testback.runner import run_suite


@pytest.fixture(scope="module")
def fig4():
    program = load_program("tna_fig4")
    result = TestGen(program, target=Tna(), config=TestGenConfig(seed=1)).run()
    return program, result


def _ttl_of(test):
    # First 8 bits of the 64-bit ipish header.
    return (test.input_packet.bits >> (test.input_packet.width - 8)) & 0xFF


def test_ttl_zero_drops_in_tm(fig4):
    _program, result = fig4
    dropped = [t for t in result.tests if t.dropped]
    assert dropped
    assert any(_ttl_of(t) == 0 for t in dropped)
    # The drop happens in the TM, visible in the trace.
    assert any(
        any("drop_ctl" in line for line in t.trace)
        for t in dropped
    )


def test_ttl_one_resubmits_then_drops(fig4):
    """TTL 1: first pass resubmits with TTL rewritten to 0; the second
    ingress pass drops — the packet never leaves."""
    _program, result = fig4
    resubmitted = [
        t for t in result.tests
        if any("resubmit" in line for line in t.trace)
    ]
    assert resubmitted
    t = resubmitted[0]
    assert _ttl_of(t) == 1
    assert t.dropped


def test_ttl_other_forwards(fig4):
    _program, result = fig4
    forwarded = [t for t in result.tests if not t.dropped]
    assert forwarded
    for t in forwarded:
        assert _ttl_of(t) not in (0, 1)
        assert t.expected[0].port == 1


def test_all_fig4_tests_replay(fig4):
    program, result = fig4
    passed, results = run_suite(result.tests, program)
    assert passed == len(result.tests), [
        (r.kind, r.detail) for r in results if not r.passed
    ]


def test_parser_err_path_unreachable_under_min_size(fig4):
    """Reading parser_err flips the short-packet policy, but Tofino's
    64-byte minimum means this program's parse graph can never fail:
    the diagnostics branch stays uncovered — faithfully."""
    _program, result = fig4
    assert result.statement_coverage < 100.0
    uncovered = result.coverage.uncovered()
    assert len(uncovered) == 1
