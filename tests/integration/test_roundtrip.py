"""The paper's §7 correctness loop: every test the oracle generates
must pass end-to-end on the matching (unmutated) software model."""

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.targets import EbpfModel, T2na, Tna, V1Model
from repro.testback.runner import run_suite

CASES = [
    ("fig1a", V1Model),
    ("fig1b", V1Model),
    ("ebpf_filter", EbpfModel),
    ("tna_forward", Tna),
    ("tna_forward", T2na),
    ("mpls_stack", V1Model),
    ("tiny_hdr", V1Model),
    ("value_set_demo", V1Model),
    ("register_demo", V1Model),
    ("match_kinds", V1Model),
    ("recirc_demo", V1Model),
    ("taint_key", V1Model),
    ("lookahead_demo", V1Model),
    ("clone_demo", V1Model),
    ("tna_stateful", Tna),
    ("t2na_ghost", T2na),
]


@pytest.mark.parametrize("prog_name,target_cls", CASES)
def test_generated_tests_pass_on_software_model(prog_name, target_cls):
    program = load_program(prog_name)
    result = TestGen(program, target=target_cls(),
                     config=TestGenConfig(seed=1)).run(max_tests=25)
    assert result.tests, "oracle must produce at least one test"
    passed, results = run_suite(result.tests, program)
    failures = [r for r in results if not r.passed]
    assert not failures, "; ".join(
        f"test {r.test_id}: {r.kind} ({r.detail})" for r in failures
    )


@pytest.mark.parametrize("prog_name,target_cls", CASES)
def test_different_seeds_still_pass(prog_name, target_cls):
    program = load_program(prog_name)
    result = TestGen(program, target=target_cls(),
                     config=TestGenConfig(seed=99, strategy="random")).run(
        max_tests=10
    )
    passed, results = run_suite(result.tests, program)
    assert passed == len(result.tests)
