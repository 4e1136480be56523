"""Figure 1c: the paper's worked example tests.

Regenerates the test tables for the Fig. 1a (EtherType forwarding) and
Fig. 1b (Ethernet checksum) programs and checks the qualitative rows:
sizes in/out, the 0xBEEF match entry, the taint-driven default-action
test, and the concolic checksum relationship.
"""

from _util import once, report

from repro import TestGen, TestGenConfig, load_program
from repro.externs.checksum import ones_complement16
from repro.targets import V1Model


def _row(test):
    inp = test.input_packet
    if test.dropped or not test.expected:
        out_desc = "drop"
    else:
        out = test.expected[0]
        out_desc = f"{out.width:4d}b port {out.port}"
    entries = "; ".join(
        f"match({e.keys[0][0]}={e.keys[0][2].get('value', 0):#x}),"
        f"action({e.action.split('.')[-1]})"
        for e in test.entries
    ) or "-"
    return (
        f"| {inp.width:4d}b in p{inp.port} | {out_desc:>14s} | {entries}"
    )


def test_fig1_example_tables(benchmark):
    def run():
        rows = []
        results = {}
        for name in ("fig1a", "fig1b"):
            result = TestGen(load_program(name), target=V1Model(),
                             config=TestGenConfig(seed=1)).run()
            results[name] = result
            rows.append(f"--- {name} ---")
            rows.append("| Size In       | Size Out       | Table configuration")
            for test in result.tests:
                rows.append(_row(test))
        return results, rows

    results, rows = once(benchmark, run)
    report("fig1_example_tests", rows)

    a = results["fig1a"].tests
    # Paper row: entry key must be the program-written 0xBEEF.
    assert any(
        t.entries and t.entries[0].keys[0][2]["value"] == 0xBEEF for t in a
    )
    # Paper row: too-short packet -> no entries, forwarded unchanged.
    short = [t for t in a if t.input_packet.width < 112]
    assert short and all(not t.entries for t in short)
    assert results["fig1a"].statement_coverage == 100.0

    b = results["fig1b"].tests
    match = [t for t in b if t.input_packet.width == 112 and not t.dropped]
    assert match
    bits = match[0].input_packet.bits
    assert bits & 0xFFFF == ones_complement16(
        [(48, (bits >> 64) & (1 << 48) - 1), (48, (bits >> 16) & (1 << 48) - 1)]
    )
    assert any(t.dropped for t in b)
