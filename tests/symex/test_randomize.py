"""Value randomization (§3: ports 'chosen at random'), opt-in."""

from repro import TestGen, TestGenConfig, load_program
from repro.targets import V1Model
from repro.testback.runner import run_suite


def _set_out_ports(tests):
    out = []
    for t in tests:
        for e in t.entries:
            args = dict(e.action_args)
            if "port" in args:
                out.append(args["port"])
    return out


def test_randomized_tests_stay_sound():
    program = load_program("fig1a")
    gen = TestGen(program, target=V1Model(),
                  config=TestGenConfig(seed=42, randomize_values=True))
    explorer = gen.explorer()
    tests = list(explorer.run())
    passed, results = run_suite(tests, program)
    assert passed == len(tests), [
        (r.kind, r.detail) for r in results if not r.passed
    ]


def test_randomization_diversifies_ports():
    program = load_program("fig1a")
    baseline = TestGen(program, target=V1Model(),
                       config=TestGenConfig(seed=42)).run()
    base_ports = set(_set_out_ports(baseline.tests))

    collected = set()
    for seed in (1, 2, 3):
        gen = TestGen(program, target=V1Model(),
                      config=TestGenConfig(seed=seed, randomize_values=True))
        explorer = gen.explorer()
        collected |= set(_set_out_ports(list(explorer.run())))
    # Randomized runs across seeds must produce more port diversity
    # than the deterministic default-model runs.
    assert len(collected) >= max(len(base_ports), 2)


def test_randomization_is_seeded():
    program = load_program("fig1a")

    def run(seed):
        explorer = TestGen(program, target=V1Model(), config=TestGenConfig(
            seed=seed, randomize_values=True)).explorer()
        return _set_out_ports(list(explorer.run()))

    assert run(9) == run(9)
