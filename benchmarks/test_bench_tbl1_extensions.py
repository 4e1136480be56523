"""Table 1: the extension matrix.

One row per instantiated target with its test back ends; every cell is
smoke-verified by generating a test and rendering it through each back
end, then replaying it on the matching software model.
"""

from _util import once, report

from repro import TestGen, TestGenConfig, load_program
from repro.targets import EbpfModel, T2na, Tna, V1Model
from repro.testback import get_backend
from repro.testback.runner import run_suite

MATRIX = [
    ("v1model", V1Model, "BMv2", "fig1a", ["stf", "ptf", "protobuf"]),
    ("tna", Tna, "Tofino 1", "tna_forward", ["ptf", "protobuf"]),
    ("t2na", T2na, "Tofino 2", "tna_forward", ["ptf", "protobuf"]),
    ("ebpf_model", EbpfModel, "Linux Kernel", "ebpf_filter", ["stf"]),
]


def test_tbl1_extension_matrix(benchmark):
    def run():
        rows = []
        all_pass = True
        for arch, target_cls, device, program_name, backends in MATRIX:
            program = load_program(program_name)
            result = TestGen(program, target=target_cls(),
                             config=TestGenConfig(seed=1)).run(max_tests=5)
            rendered = []
            for backend in backends:
                text = get_backend(backend).render_suite(result.tests)
                assert text.strip(), f"{backend} produced empty output"
                rendered.append(backend.upper())
            passed, _ = run_suite(result.tests, program)
            all_pass &= passed == len(result.tests)
            rows.append(
                f"| {arch:10s} | {device:12s} | {', '.join(rendered):20s} | "
                f"{passed}/{len(result.tests)} replay |"
            )
        return rows, all_pass

    rows, all_pass = once(benchmark, run)
    header = "| Architecture | Target | Test back ends | Smoke |"
    report("tbl1_extensions", [header] + rows)
    assert all_pass
    assert len(rows) == 4  # the paper's four extensions
