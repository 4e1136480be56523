"""Absolute determinism: golden digests of the default-config suites.

The relative locks in ``test_determinism.py`` compare one mode against
another, so a change that alters models identically in every mode
would pass them.  These digests pin the emitted STF bytes themselves:
any change to an emitted test, in any mode, fails here.  A change that
alters suites on purpose must say why and record the new digests.
"""

import hashlib

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.targets import EbpfModel, Tna, V1Model

# (program, target, max_tests) -> SHA-256 of ``result.emit("stf")`` at seed 1.
GOLDEN = {
    ("fig1a", V1Model, None):
        "cb7a60d7c862f9e3e3c1435d1d543d737dd423a9e816b240e7d46539921b3285",
    ("middleblock", V1Model, None):
        "708f55cebfaeef705c7b60e4c0ff2649775088a5869d22abe0ff13e4f9121825",
    ("up4", V1Model, None):
        "462b5f76bc4ba68a52a3816e0270ec556f84eab4187f6b2d91ab699c3e73e4c9",
    ("switch_lite", Tna, 80):
        "ceb8cb340fe0ed031dc38d46e4eb84dc8cba69a465386d6f18dde361079e0d32",
    ("ebpf_filter", EbpfModel, None):
        "a9ca84d17a8a9eb6862f70a9e50523d4a4d87350ba08f2bbf27f58044014982c",
    ("tna_forward", Tna, None):
        "c0ae6b1692a75da0a7372f1d373bd2f9124d24efa07ea6008b6d93e4eb909e53",
}


def _digest(program, target, max_tests, jobs=1):
    config = TestGenConfig(seed=1, max_tests=max_tests, jobs=jobs)
    result = TestGen(load_program(program), target=target(),
                     config=config).run()
    assert result.tests
    return hashlib.sha256(result.emit("stf").encode()).hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN),
                         ids=lambda case: f"{case[0]}-{case[1].__name__}")
def test_default_suite_matches_golden_digest(case):
    assert _digest(*case) == GOLDEN[case]


def test_sharded_suite_matches_golden_digest():
    case = ("middleblock", V1Model, None)
    assert _digest(*case, jobs=2) == GOLDEN[case]
