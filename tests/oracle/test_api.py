"""Public API tests: load_program, TestGen, TestGenResult, baselines."""

import pathlib

import pytest

from repro import TestGen, TestGenConfig, TestGenResult, load_program
from repro.ir.nodes import IrProgram
from repro.programs import get_program_source, list_programs, program_path
from repro.targets import V1Model, get_target


def test_load_program_by_corpus_name():
    program = load_program("fig1a")
    assert isinstance(program, IrProgram)
    assert program.source_name == "fig1a.p4"


def test_load_program_from_source_text():
    src = get_program_source("fig1a")
    program = load_program(src, source_name="inline.p4")
    assert program.source_name == "inline.p4"
    assert "MyIngress" in program.controls


def test_load_program_from_path(tmp_path):
    path = tmp_path / "prog.p4"
    path.write_text(get_program_source("fig1a"))
    program = load_program(str(path))
    assert program.source_name == "prog.p4"


def test_corpus_registry():
    names = list_programs()
    assert "fig1a" in names and "middleblock" in names
    assert program_path("fig1a").exists()
    with pytest.raises(KeyError):
        program_path("no_such_program")


def test_corpus_programs_all_load():
    """Every shipped .p4 file must lower without errors."""
    for name in list_programs():
        program = load_program(name)
        assert program.all_statements(), name


def test_target_registry():
    from repro.targets import TARGETS

    assert set(TARGETS) == {"v1model", "tna", "t2na", "ebpf_model"}
    target = get_target("v1model")
    assert target.name == "v1model"
    with pytest.raises(KeyError):
        get_target("fancy_asic")


def test_testgen_accepts_program_name():
    gen = TestGen("fig1a", target=V1Model(), config=TestGenConfig(seed=1))
    result = gen.run(max_tests=2)
    assert len(result.tests) == 2


def test_result_emit_all_backends():
    result = TestGen("fig1a", target=V1Model(),
                     config=TestGenConfig(seed=1)).run(max_tests=2)
    assert isinstance(result, TestGenResult)
    for backend in ("stf", "ptf", "protobuf"):
        assert result.emit(backend).strip()


def test_result_statistics_exposed():
    result = TestGen("fig1a", target=V1Model(),
                     config=TestGenConfig(seed=1)).run(max_tests=2)
    assert result.statement_coverage > 0
    assert result.stats.tests_emitted == 2
    assert result.target == "v1model"


def test_spec_only_baseline_runs():
    from repro.oracle.baselines import SpecOnlyV1Model

    result = TestGen("fig1a", target=SpecOnlyV1Model(),
                     config=TestGenConfig(seed=1)).run()
    assert result.tests
    # The spec-only tool never generates a drop test: it does not know
    # about BMv2's drop port.
    assert all(not t.dropped for t in result.tests)
