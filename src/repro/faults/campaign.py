"""Bug-finding campaign: the reproduction of the paper's Tbl. 2/3 loop.

For each (program, target) pair: generate tests with the oracle against
the *correct* semantics, plant one fault into the toolchain (fresh IR +
simulator), replay the tests, and classify any failure:

- the simulator raised -> an **exception** bug was exposed;
- outputs differed     -> a **wrong code** bug was exposed.

The campaign returns per-fault findings plus the Tbl. 2-shaped count
matrix (bug type x target).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import TestGen, TestGenConfig, load_program
from ..testback.runner import make_simulator, run_test
from .mutations import MUTATION_CATALOG, Mutation

__all__ = ["Finding", "CampaignResult", "run_campaign"]


@dataclass
class Finding:
    mutation: str
    bug_type: str
    target: str
    program: str
    detected: bool
    detected_as: str = ""   # "exception" | "wrong_output" | ...
    failing_test: int | None = None
    description: str = ""


@dataclass
class CampaignResult:
    findings: list = field(default_factory=list)

    def detected(self) -> list:
        return [f for f in self.findings if f.detected]

    def table2(self) -> dict:
        """Tbl. 2 shape: {target: {bug_type: count}, 'total': ...}."""
        out: dict = {}
        for f in self.detected():
            per_target = out.setdefault(f.target, {"exception": 0, "wrong_code": 0})
            per_target[f.bug_type] += 1
        totals = {"exception": 0, "wrong_code": 0}
        for per_target in out.values():
            totals["exception"] += per_target["exception"]
            totals["wrong_code"] += per_target["wrong_code"]
        out["total"] = totals
        return out

    def table3_rows(self) -> list[tuple]:
        """Tbl. 3 shape: per-bug detail rows."""
        rows = []
        for i, f in enumerate(self.detected(), start=1):
            label = f"{f.target.upper()}-{i}"
            rows.append((label, "Found", f.bug_type, f.description))
        return rows


def run_campaign(cases, seed: int = 1, max_tests: int = 25,
                 mutations: list[Mutation] | None = None) -> CampaignResult:
    """``cases``: list of (program_name, target_factory) pairs, where
    target_factory() builds the oracle-side target extension."""
    result = CampaignResult()
    mutations = mutations if mutations is not None else MUTATION_CATALOG
    for program_name, target_factory in cases:
        target = target_factory()
        clean_program = load_program(program_name)
        oracle = TestGen(clean_program, target=target,
                         config=TestGenConfig(seed=seed))
        tests = oracle.run(max_tests=max_tests).tests
        for mutation in mutations:
            # Fresh IR and simulator per fault so faults never compound.
            program = load_program(program_name)
            simulator = make_simulator(target.name, program, seed=seed)
            applied = mutation.apply(program, simulator)
            finding = Finding(
                mutation=mutation.name,
                bug_type=mutation.bug_type,
                target=target.name,
                program=program_name,
                detected=False,
                description=mutation.description,
            )
            if applied:
                try:
                    for test in tests:
                        run = run_test(test, program, simulator)
                        if not run.passed:
                            finding.detected = True
                            finding.detected_as = run.kind
                            finding.failing_test = run.test_id
                            break
                finally:
                    unpatch = getattr(simulator, "_unpatch", None)
                    if unpatch is not None:
                        unpatch()
            result.findings.append(finding)
    return result
