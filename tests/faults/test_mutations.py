"""Unit tests for the fault-injection layer (Tbl. 2/3 substrate)."""

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.faults import MUTATION_CATALOG, mutations_for, run_campaign
from repro.faults.mutations import (
    mut_constant_off_by_one,
    mut_drop_emit,
    mut_flip_binop,
    mut_swallow_table_apply,
    mut_swap_if_branches,
)
from repro.ir import nodes as N
from repro.targets import V1Model
from repro.testback.runner import make_simulator, run_test


def test_catalog_has_both_classes():
    kinds = {m.bug_type for m in MUTATION_CATALOG}
    assert kinds == {"exception", "wrong_code"}
    assert len(mutations_for("exception")) >= 5
    assert len(mutations_for("wrong_code")) >= 5


def test_swallow_table_apply_removes_stmt():
    program = load_program("fig1a")
    before = sum(
        isinstance(s, N.IrApplyTable) for s in program.all_statements()
    )
    assert mut_swallow_table_apply(program)
    after = sum(
        isinstance(s, N.IrApplyTable) for s in program.all_statements()
    )
    assert after == before - 1


def test_drop_emit_removes_emit():
    program = load_program("fig1a")
    assert mut_drop_emit(program)
    emits = [
        s for s in program.all_statements()
        if isinstance(s, N.IrMethodCall) and s.call.func == "emit"
    ]
    assert not emits


def test_flip_binop_changes_operator():
    program = load_program("recirc_demo")  # has hdr.hop.tag + 1
    assert mut_flip_binop(program)


def test_mutations_report_inapplicable():
    # fig1b has no table at all -> swallow-table-apply cannot apply.
    program = load_program("fig1b")
    assert mut_swallow_table_apply(program) is False


def test_seeded_fault_is_detected_by_generated_tests():
    """The core Tbl. 2 loop on one (program, fault) cell."""
    clean = load_program("fig1a")
    tests = TestGen(clean, target=V1Model(),
                    config=TestGenConfig(seed=1)).run().tests

    mutated = load_program("fig1a")
    assert mut_swallow_table_apply(mutated)
    sim = make_simulator("v1model", mutated)
    outcomes = [run_test(t, mutated, sim) for t in tests]
    failing = [r for r in outcomes if not r.passed]
    assert failing, "removing the table apply must break some test"
    assert all(
        r.kind in ("wrong_output", "wrong_port", "mask_violation",
                   "missing_output")
        for r in failing
    )


def test_unmutated_baseline_passes():
    clean = load_program("fig1a")
    tests = TestGen(clean, target=V1Model(),
                    config=TestGenConfig(seed=1)).run().tests
    sim = make_simulator("v1model", clean)
    assert all(run_test(t, clean, sim).passed for t in tests)


def test_campaign_classification():
    result = run_campaign([("fig1a", V1Model)], seed=1, max_tests=10)
    detected = result.detected()
    assert detected
    for finding in detected:
        assert finding.detected_as in (
            "exception", "wrong_output", "wrong_port", "mask_violation",
            "missing_output"
        )
        if finding.bug_type == "exception":
            assert finding.detected_as == "exception"


def test_campaign_table_shapes():
    result = run_campaign([("fig1a", V1Model)], seed=1, max_tests=10)
    table = result.table2()
    assert "total" in table
    rows = result.table3_rows()
    assert len(rows) == len(result.detected())
    for label, status, bug_type, _desc in rows:
        assert status == "Found"
        assert bug_type in ("exception", "wrong_code")
