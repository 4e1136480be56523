"""Command-line interface: ``python -m repro``.

Mirrors the p4testgen binary's surface::

    python -m repro generate fig1a --target v1model --max-tests 10 \\
        --test-backend stf --seed 1 [--out tests.stf] [--jobs 4]
    python -m repro run fig1a --target v1model --seed 1
    python -m repro fuzz --seed 0 --count 25 [--steer] [--mutate-fraction P]
    python -m repro bench --label main [--quick]
    python -m repro list-programs
    python -m repro list-targets

``generate`` streams tests as paths finalize (both to stdout and to
``--out``); ``--jobs N`` shards the exploration across N worker
processes while keeping the output byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import sys

from . import TestGen, TestGenConfig, load_program
from .programs import list_programs
from .report import Recorder
from .targets import TARGETS, Preconditions, get_target
from .testback import BACKENDS, SuiteWriter, get_backend


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="P4Testgen reproduction: generate input/output tests "
                    "for P4-16 programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate tests for a program")
    gen.add_argument("program", help="corpus name, .p4 path, or '-' for stdin")
    gen.add_argument("--target", default="v1model", choices=sorted(TARGETS))
    gen.add_argument("--test-backend", default="stf",
                     choices=sorted(BACKENDS))
    gen.add_argument("--max-tests", type=int, default=10,
                     help="0 = exhaustive")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--strategy", default="dfs",
                     choices=["dfs", "random", "greedy"])
    gen.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes; output is byte-identical "
                          "to --jobs 1 for any N")
    gen.add_argument("--no-elide", action="store_true",
                     help="disable the solver query-elision pipeline "
                          "(ablation; answers and tests are identical "
                          "either way)")
    gen.add_argument("--no-incremental", action="store_true",
                     help="solve every feasibility check one-shot "
                          "instead of riding the incremental clause "
                          "database (escape hatch/ablation; emitted "
                          "suites are byte-identical either way)")
    gen.add_argument("--stats-json", default=None, metavar="PATH",
                     help="write the run report (phase times, coverage "
                          "curve, cache hit rates, solver stats) as "
                          "schema-validated JSON")
    gen.add_argument("--fixed-packet-size", type=int, default=None,
                     metavar="BYTES")
    gen.add_argument("--p4constraints", action="store_true")
    gen.add_argument("--stop-at-full-coverage", action="store_true")
    gen.add_argument("--coverage-goal", type=float, default=None,
                     metavar="PCT",
                     help="stop once statement coverage reaches PCT "
                          "(checked at test boundaries; deterministic "
                          "for any --jobs value)")
    gen.add_argument("--randomize-values", action="store_true",
                     help="prefer random control-plane values (§3)")
    gen.add_argument("--out", default=None, help="write tests to a file")

    run = sub.add_parser(
        "run", help="generate tests and replay them on the software model"
    )
    run.add_argument("program")
    run.add_argument("--target", default="v1model", choices=sorted(TARGETS))
    run.add_argument("--max-tests", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--batch-replay", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="replay the suite through the lane-packed "
                          "batch interpreter (--no-batch-replay forces "
                          "one scalar simulator per test)")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random programs, oracle vs. simulator",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first generator seed (case i uses seed+i)")
    fuzz.add_argument("--count", type=int, default=25,
                      help="number of random programs to generate")
    fuzz.add_argument("--targets", default="v1model,ebpf_model",
                      help="comma-separated targets to round-robin "
                           "(v1model, ebpf_model, tna, t2na)")
    fuzz.add_argument("--corpus", default="fuzz-corpus", metavar="DIR",
                      help="directory for shrunken reproducers")
    fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes for the oracle phase")
    fuzz.add_argument("--max-tests", type=int, default=16,
                      help="oracle test budget per generated program")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="persist failing programs without reduction")
    fuzz.add_argument("--steer", action="store_true",
                      help="coverage-guided steering: weight grammar "
                           "choices toward IR constructs the campaign "
                           "has not yet exercised")
    fuzz.add_argument("--steer-batch", type=int, default=8, metavar="N",
                      help="cases per steering round (bias recomputed "
                           "between rounds)")
    fuzz.add_argument("--mutate-fraction", type=float, default=0.0,
                      metavar="P",
                      help="probability a case mutates a saved corpus "
                           "reproducer instead of generating fresh")
    fuzz.add_argument("--mutate-corpus", default=None, metavar="DIR",
                      help="reproducer pool for --mutate-fraction "
                           "(default: the --corpus directory)")
    fuzz.add_argument("--stats-json", default=None, metavar="PATH",
                      help="write the campaign run report (construct "
                           "coverage, per-case outcomes, solver stats) "
                           "as schema-validated JSON")
    fuzz.add_argument("--batch-replay", action=argparse.BooleanOptionalAction,
                      default=True,
                      help="replay generated suites through the "
                           "lane-packed batch interpreter "
                           "(--no-batch-replay forces scalar stepping)")

    bench = sub.add_parser(
        "bench",
        help="run the pinned benchmark set and append a trajectory point",
    )
    bench.add_argument("--label", default="main",
                       help="trajectory label (file BENCH_<label>.json)")
    bench.add_argument("--out-dir", default="benchmarks/results",
                       metavar="DIR")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--fuzz-count", type=int, default=12,
                       help="fuzz smoke campaign size (0 disables)")
    bench.add_argument("--jobs", type=int, default=1, metavar="N")
    bench.add_argument("--quick", action="store_true",
                       help="bounded variant (capped rows, tiny fuzz "
                            "campaign) for smoke runs")

    sub.add_parser("list-programs", help="list the shipped P4 corpus")
    sub.add_parser("list-targets", help="list instantiated targets")
    return parser


def _load(program_arg: str):
    if program_arg == "-":
        return load_program(sys.stdin.read(), source_name="<stdin>")
    return load_program(program_arg)


def cmd_generate(args) -> int:
    program = _load(args.program)
    preconditions = Preconditions(
        fixed_packet_size_bytes=args.fixed_packet_size,
        p4constraints=args.p4constraints,
    )
    target = get_target(
        args.target,
        preconditions=preconditions,
        test_framework=args.test_backend,
    )
    config = TestGenConfig(
        seed=args.seed,
        strategy=args.strategy,
        randomize_values=args.randomize_values,
        max_tests=args.max_tests or None,
        stop_at_full_coverage=args.stop_at_full_coverage,
        coverage_goal=args.coverage_goal,
        jobs=args.jobs,
        elide=not args.no_elide,
        incremental=not args.no_incremental,
    )
    oracle = TestGen(program, target=target, config=config)
    backend = get_backend(args.test_backend)
    recorder = Recorder("generate", seed=args.seed,
                        program=program.source_name, target=args.target,
                        config=config.as_dict())
    if args.out:
        with open(args.out, "w") as handle:
            writer = SuiteWriter(backend, handle)
            with recorder.phase("generate"):
                for test in oracle.iter_tests():
                    writer.write(test)
            writer.close()
        print(f"wrote {writer.count} tests to {args.out}")
    else:
        writer = SuiteWriter(backend, sys.stdout)
        with recorder.phase("generate"):
            for test in oracle.iter_tests():
                writer.write(test)
        writer.close()
        sys.stdout.write("\n")
    print(oracle.last_run.coverage.report(), file=sys.stderr)
    if args.stats_json:
        recorder.record_program_run(oracle.last_run,
                                    num_tests=writer.count)
        recorder.write(args.stats_json)
        print(f"wrote run report to {args.stats_json}", file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    from .testback.runner import run_suite

    program = _load(args.program)
    target = get_target(args.target)
    config = TestGenConfig(seed=args.seed, max_tests=args.max_tests or None,
                           batch_replay=args.batch_replay)
    result = TestGen(program, target=target, config=config).run()
    passed, runs = run_suite(result.tests, program,
                             batch=config.batch_replay)
    for run in runs:
        status = "PASS" if run.passed else f"FAIL ({run.kind}: {run.detail})"
        print(f"test {run.test_id}: {status}")
    print(f"{passed}/{len(runs)} tests pass; "
          f"{result.statement_coverage:.1f}% statement coverage")
    return 0 if passed == len(runs) else 1


def cmd_fuzz(args) -> int:
    from .fuzz import FuzzCampaignConfig, run_fuzz_campaign

    config = FuzzCampaignConfig(
        seed=args.seed,
        count=args.count,
        targets=tuple(t.strip() for t in args.targets.split(",") if t.strip()),
        corpus_dir=args.corpus,
        jobs=args.jobs,
        max_tests=args.max_tests or None,
        shrink=not args.no_shrink,
        steer=args.steer,
        steer_batch=args.steer_batch,
        mutate_fraction=args.mutate_fraction,
        mutate_corpus=args.mutate_corpus,
        batch_replay=args.batch_replay,
    )

    def on_case(case):
        status = "pass" if case.passed else case.classification
        print(f"{case.name}: {status}"
              + (f" ({case.detail})" if not case.passed else ""),
              file=sys.stderr)

    recorder = Recorder("fuzz", seed=args.seed) if args.stats_json else None
    summary = run_fuzz_campaign(config, on_case=on_case, recorder=recorder)
    print(summary.report())
    if recorder is not None:
        recorder.write(args.stats_json)
        print(f"wrote run report to {args.stats_json}", file=sys.stderr)
    return 0 if summary.num_failed == 0 else 1


def cmd_bench(args) -> int:
    from .report.bench import run_bench, trajectory_path

    point = run_bench(
        args.label, args.out_dir, seed=args.seed,
        fuzz_count=args.fuzz_count, jobs=args.jobs, quick=args.quick,
    )
    path = trajectory_path(args.out_dir, args.label)
    for row in point["rows"]:
        print(f"{row['program']:13s} {row['target']:10s} "
              f"{row['num_tests']:4d} tests  "
              f"{row['statement_coverage']:6.1f}% cov  "
              f"{row['wall_s']:7.2f}s")
    if point["fuzz"] is not None:
        cc = point["fuzz"]["construct_coverage"]
        print(f"fuzz smoke: {point['fuzz']['num_cases']} cases, "
              f"{point['fuzz']['num_failed']} findings, "
              f"{cc['covered']}/{cc['universe']} constructs "
              f"({cc['percent']:.1f}%)")
    print(f"appended trajectory point to {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "fuzz":
        return cmd_fuzz(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "list-programs":
        for name in list_programs():
            print(name)
        return 0
    if args.command == "list-targets":
        for name in sorted(TARGETS):
            print(name)
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
