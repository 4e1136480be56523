"""repro: a Python reproduction of "P4Testgen: An Extensible Test
Oracle for P4-16" (SIGCOMM 2023).

Quickstart::

    from repro import TestGen, TestGenConfig, load_program
    from repro.targets import V1Model

    cfg = TestGenConfig(seed=1, max_tests=10)
    gen = TestGen(load_program("fig1a"), target=V1Model(), config=cfg)
    result = gen.run()
    print(result.coverage_report())
    print(result.emit("stf"))

Stream tests as they are found, or shard the search across worker
processes (byte-identical output for any ``jobs``)::

    for test in gen.iter_tests(config=cfg.replace(jobs=4)):
        ...

Batch many programs through the parallel engine::

    from repro import generate_suite
    results = generate_suite(
        [("fig1a", "v1model"), ("tunnel", "v1model")], jobs=4
    )

Custom test back ends plug into the open registry::

    from repro.testback import BACKENDS
    BACKENDS.register("mybackend", MyBackend)
"""

from .config import TestGenConfig
from .engine import Engine, EngineResult, generate_suite
from .oracle import TestGen, TestGenResult, load_program

__version__ = "1.0.0"
__all__ = [
    "TestGen",
    "TestGenConfig",
    "TestGenResult",
    "Engine",
    "EngineResult",
    "generate_suite",
    "load_program",
    "__version__",
]
