"""The public test-oracle API (the paper's command-line entry point).

::

    from repro import TestGen, TestGenConfig, load_program
    from repro.targets import V1Model

    gen = TestGen(load_program("fig1a"), target=V1Model(),
                  config=TestGenConfig(seed=1, max_tests=10, jobs=4))
    for test in gen.iter_tests():     # streams as paths finalize
        ...
    result = gen.run()                # or collect everything at once
    print(result.coverage_report())
    print(result.emit("stf"))
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import TestGenConfig
from ..ir import load_ir
from ..ir.nodes import IrProgram
from ..symex.explorer import Explorer
from ..targets.base import TargetExtension

__all__ = ["TestGen", "TestGenConfig", "TestGenResult", "load_program"]


def load_program(name_or_source: str, source_name: str | None = None) -> IrProgram:
    """Load a P4 program: a corpus name (``"fig1a"``), a path to a .p4
    file, or raw source text."""
    text = name_or_source
    name = source_name or "<input>"
    if "\n" not in name_or_source:
        from ..programs import get_program_source, program_path

        try:
            text = get_program_source(name_or_source)
            name = source_name or f"{name_or_source}.p4"
        except KeyError:
            import pathlib

            path = pathlib.Path(name_or_source)
            if path.exists():
                text = path.read_text()
                name = source_name or path.name
    return load_ir(text, name)


@dataclass
class TestGenResult:
    __test__ = False  # not a pytest class, despite the name

    tests: list = field(default_factory=list)
    coverage: object = None
    stats: object = None
    target: str = ""
    program: str = ""

    @property
    def statement_coverage(self) -> float:
        return self.coverage.statement_percent

    def coverage_report(self) -> str:
        return self.coverage.report()

    def emit(self, backend: str = "stf") -> str:
        """Render all tests in the chosen back-end format."""
        from ..testback import get_backend

        return get_backend(backend).render_suite(self.tests)


class TestGen:
    """A test oracle instance for one program on one target."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, program: IrProgram | str, target: TargetExtension,
                 *, config: TestGenConfig | None = None):
        if config is None:
            config = TestGenConfig()
        if isinstance(program, str):
            program = load_program(program)
        self.program = program
        self.target = target
        self.config = config
        self._last_run = None

    def explorer(self, config: TestGenConfig | None = None) -> Explorer:
        """A sequential :class:`Explorer` over this oracle's program.

        Uses this oracle's config unless an override ``config`` is
        given."""
        return Explorer(self.program, self.target,
                        config=config if config is not None else self.config)

    def iter_tests(self, config: TestGenConfig | None = None):
        """Stream tests as paths finalize (the engine handles
        ``config.jobs > 1`` transparently).  After exhaustion the run's
        coverage and stats are available via :attr:`last_run`."""
        from ..engine.orchestrator import ProgramRun

        cfg = config if config is not None else self.config
        run = ProgramRun(self.program, self.target, cfg)
        self._last_run = run
        yield from run.iter_tests()

    @property
    def last_run(self):
        """The :class:`repro.engine.ProgramRun` behind the most recent
        ``iter_tests``/``run`` call (None before any run)."""
        return self._last_run

    def run(self, max_tests: int | None = None,
            max_paths: int | None = None,
            stop_at_full_coverage: bool = False) -> TestGenResult:
        """Collect a full suite.  The optional arguments override the
        corresponding config fields for this run only."""
        overrides = {}
        if max_tests is not None:
            overrides["max_tests"] = max_tests
        if max_paths is not None:
            overrides["max_paths"] = max_paths
        if stop_at_full_coverage:
            overrides["stop_at_full_coverage"] = True
        cfg = self.config.replace(**overrides) if overrides else self.config
        tests = list(self.iter_tests(config=cfg))
        run = self._last_run
        return TestGenResult(
            tests=tests,
            coverage=run.coverage,
            stats=run.stats,
            target=self.target.name,
            program=self.program.source_name,
        )
