"""Table 4b: effect of preconditions on the number of generated tests.

Paper (middleblock.p4): no preconditions 237,846 tests; fixed-size
packets -25%; P4-constraints -43%; both -57% — with 100% statement
coverage in every configuration.  We run the same four configurations
on our middleblock analogue and assert the same *shape*: every
precondition reduces the count, the combination reduces the most, and
coverage stays at 100% throughout.
"""

from _util import once, report

from repro import TestGen, TestGenConfig, load_program
from repro.targets import Preconditions, V1Model

CONFIGS = [
    ("None", Preconditions()),
    ("Fixed-size pkt.", Preconditions(fixed_packet_size_bytes=1500)),
    ("P4-constraints", Preconditions(p4constraints=True)),
    ("P4-constraints & fixed-size pkt.",
     Preconditions(fixed_packet_size_bytes=1500, p4constraints=True)),
]


def test_tbl4b_preconditions(benchmark):
    def run():
        rows = []
        for label, pre in CONFIGS:
            result = TestGen(
                load_program("middleblock"),
                target=V1Model(preconditions=pre),
                config=TestGenConfig(seed=1),
            ).run()
            rows.append((label, len(result.tests), result.statement_coverage))
        return rows

    rows = once(benchmark, run)
    base = rows[0][1]
    lines = ["| Applied precondition              | Valid tests | Reduction | Cov. |"]
    for label, count, cov in rows:
        reduction = 100.0 * (1 - count / base)
        lines.append(
            f"| {label:33s} | {count:11d} | {reduction:8.1f}% | {cov:3.0f}% |"
        )
    lines.append("")
    lines.append("paper: 0% / 25% / 43% / 57% reduction, all at 100% coverage.")
    report("tbl4b_preconditions", lines)

    none_, fixed, constraints, both = (r[1] for r in rows)
    assert fixed < none_, "fixed packet size must reduce the test count"
    assert constraints < none_, "P4-constraints must reduce the test count"
    assert both < fixed and both < constraints, (
        "combining preconditions must reduce the most"
    )
    assert all(cov == 100.0 for _l, _n, cov in rows), (
        "every configuration must still reach full statement coverage"
    )
