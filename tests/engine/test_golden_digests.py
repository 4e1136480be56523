"""Absolute determinism: golden digests of the default-config suites.

The relative locks in ``test_determinism.py`` compare one mode against
another, so a change that alters models identically in every mode
would pass them.  These digests pin the emitted STF bytes themselves:
any change to an emitted test, in any mode, fails here.  A change that
alters suites on purpose must say why and record the new digests.  The
hash-seed lock at the end runs the CLI in fresh interpreters, so
process-level string hashing cannot leak into the output either.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.targets import EbpfModel, Preconditions, Tna, V1Model

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

# The same, with ``--fixed-packet-size 1500`` (cap 80).  A fixed size
# pins ``pkt_len`` to one constant, which the packet-length search must
# find without bisecting.
FIXED_SIZE_GOLDEN = {
    ("middleblock", V1Model, 80):
        "4253855f92eb02739f394b7bf6ea83d35d428fe24445285128192b4ef1b89ab8",
    ("switch_lite", Tna, 80):
        "7c990089545a3450547185d8519b2d34ff9451272ea7539c4381e7162ed49e5d",
}


def _digest(program, target, max_tests, jobs=1, preconditions=None):
    config = TestGenConfig(seed=1, max_tests=max_tests, jobs=jobs)
    result = TestGen(load_program(program),
                     target=target(preconditions=preconditions),
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


@pytest.mark.parametrize("case", list(FIXED_SIZE_GOLDEN),
                         ids=lambda case: f"{case[0]}-{case[1].__name__}")
def test_fixed_size_suite_matches_golden_digest(case):
    fixed = Preconditions(fixed_packet_size_bytes=1500)
    assert _digest(*case, preconditions=fixed) == FIXED_SIZE_GOLDEN[case]


SRC = Path(__file__).resolve().parents[2] / "src"


def _generate_under_hash_seed(args, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "repro", "generate", *args],
                          env=env, capture_output=True, check=True)
    return proc.stdout, proc.stderr


@pytest.mark.parametrize("args", [
    ["switch_lite", "--target", "tna", "--max-tests", "40"],
    ["middleblock", "--max-tests", "40"],
], ids=["switch_lite-tna", "middleblock-v1model"])
def test_suite_is_independent_of_the_hash_seed(args):
    # Set and dict iteration order over strings changes with the hash
    # seed; none of it may reach an emitted test or the coverage report.
    stdout, stderr = _generate_under_hash_seed(args, 0)
    assert stdout
    assert _generate_under_hash_seed(args, 12345) == (stdout, stderr)
