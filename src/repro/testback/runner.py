"""Test runner: execute abstract tests against the concrete simulators.

This closes the paper's evaluation loop (§7 "Does P4Testgen produce
correct tests?"): the oracle's generated tests are replayed on the
corresponding software model, and outputs are compared under the
don't-care masks.  A mismatch is either an oracle bug or — with the
fault-injection layer — a planted toolchain bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..interp.core import Config, InterpResult
from ..registry import Registry
from .spec import AbstractTestCase

__all__ = [
    "TestRunResult", "run_test", "evaluate_test", "run_suite",
    "make_simulator", "is_stock_simulator",
    "SIMULATORS",
]


def _bmv2(program, seed):
    # Spec-only baseline tests (Tbl. 5) are judged against the real
    # BMv2 model — that is the point of the comparison.
    from ..interp.bmv2 import Bmv2Simulator

    return Bmv2Simulator(program, seed=seed)


def _tofino_v1(program, seed):
    from ..interp.tofino_model import TofinoSimulator

    return TofinoSimulator(program, seed=seed, version=1)


def _tofino_v2(program, seed):
    from ..interp.tofino_model import TofinoSimulator

    return TofinoSimulator(program, seed=seed, version=2)


def _ebpf(program, seed):
    from ..interp.ebpf_vm import EbpfSimulator

    return EbpfSimulator(program, seed=seed)


def _validate_simulator(target_name: str, factory) -> None:
    if not callable(factory):
        raise TypeError(f"simulator factory for {target_name!r} must be "
                        f"callable, got {type(factory).__name__}")


#: Oracle target name -> simulator factory ``(program, seed) -> simulator``.
SIMULATORS = Registry("simulator", validator=_validate_simulator)
SIMULATORS.register("v1model", _bmv2)
SIMULATORS.register("spec-only", _bmv2)
SIMULATORS.register("tna", _tofino_v1)
SIMULATORS.register("t2na", _tofino_v2)
SIMULATORS.register("ebpf_model", _ebpf)

#: The factories the lane engine's compiled semantics mirror.  A target
#: whose registry entry differs (fault injection, user extensions) must
#: replay scalar so the override is actually exercised.
_STOCK_FACTORIES = dict(SIMULATORS)


def is_stock_simulator(target_name: str) -> bool:
    """Whether ``target_name`` resolves to the built-in simulator."""
    return SIMULATORS.get(target_name, None) \
        is _STOCK_FACTORIES.get(target_name)


def make_simulator(target_name: str, program, seed: int = 0):
    """Instantiate the software model matching an oracle target name."""
    return SIMULATORS.create(target_name, program, seed)


@dataclass
class TestRunResult:
    test_id: int = 0
    passed: bool = False
    # "pass" | "wrong_output" | "wrong_port" | "mask_violation"
    # | "exception" | "missing_output"
    kind: str = ""
    detail: str = ""
    interp: InterpResult = None

    def __bool__(self):
        return self.passed


def _match_expected(expected, actual):
    """None if the output matches; otherwise a (kind, description) pair."""
    port, bits, width = actual
    if port != expected.port:
        return "wrong_port", f"port {port} != expected {expected.port}"
    if width != expected.width:
        return "wrong_output", f"width {width} != expected {expected.width}"
    care = ~expected.dont_care & ((1 << width) - 1) if width else 0
    if (bits & care) != (expected.bits & care):
        return "mask_violation", (
            f"payload mismatch: got {bits:#x}, expected {expected.bits:#x} "
            f"(care mask {care:#x})"
        )
    return None


def run_test(test: AbstractTestCase, program, simulator=None,
             seed: int = 0) -> TestRunResult:
    if simulator is None:
        simulator = make_simulator(test.target, program, seed=seed)
    config = Config.from_test(test)
    pkt = test.input_packet
    result = simulator.process(pkt.port, pkt.bits, pkt.width, config)
    return evaluate_test(test, result)


def evaluate_test(test: AbstractTestCase, result: InterpResult) -> TestRunResult:
    """Judge one replayed :class:`InterpResult` against a test's
    expectations (shared by the scalar and batch replay paths)."""
    run = TestRunResult(test_id=test.test_id, interp=result)
    if result.error is not None:
        run.kind = "exception"
        run.detail = result.error
        return run
    if test.dropped or not test.expected:
        if result.outputs:
            run.kind = "wrong_output"
            run.detail = f"expected drop, got {result.outputs}"
            return run
        run.passed = True
        run.kind = "pass"
        return run
    if len(result.outputs) < len(test.expected):
        run.kind = "missing_output"
        run.detail = (
            f"expected {len(test.expected)} packets, got {len(result.outputs)}"
        )
        return run
    # Compare in order (the oracle emits outputs in pipeline order).
    for exp, actual in zip(test.expected, result.outputs):
        mismatch = _match_expected(exp, actual)
        if mismatch is not None:
            run.kind, run.detail = mismatch
            return run
    run.passed = True
    run.kind = "pass"
    return run


def run_suite(tests: list[AbstractTestCase], program, seed: int = 0, *,
              batch: bool = False, replay_stats=None):
    """Run all tests; returns (num_passed, list[TestRunResult]).

    With ``batch=True`` tests are grouped per target and replayed
    through the lane engine (:class:`repro.interp.batch.BatchSimulator`)
    instead of one scalar simulator per test; results come back in the
    original test order with identical classifications.  Pass a
    :class:`repro.interp.batch.ReplayStats` as ``replay_stats`` to
    accumulate lane/fallback counters across calls.
    """
    tests = list(tests)
    if batch:
        from ..interp.batch import BatchSimulator

        by_target: dict[str, list[int]] = {}
        for idx, test in enumerate(tests):
            by_target.setdefault(test.target, []).append(idx)
        results: list = [None] * len(tests)
        for target, idxs in by_target.items():
            sim = BatchSimulator(target, program, seed=seed,
                                 stats=replay_stats)
            cases = []
            for i in idxs:
                pkt = tests[i].input_packet
                cases.append((pkt.port, pkt.bits, pkt.width,
                              Config.from_test(tests[i])))
            for i, result in zip(idxs, sim.run_cases(cases)):
                results[i] = evaluate_test(tests[i], result)
    else:
        results = []
        for test in tests:
            simulator = make_simulator(test.target, program, seed=seed)
            results.append(run_test(test, program, simulator))
    passed = sum(1 for r in results if r.passed)
    return passed, results
