"""``repro bench``: the pinned benchmark set and its trajectory file.

One invocation measures the current tree on a fixed workload — the
Table-4a large-program subset (oracle runs with coverage curves and
cache rates) plus a small steered fuzz smoke campaign — and *appends*
the result as one point to ``BENCH_<label>.json``.  Successive points
over successive PRs form the performance/coverage trajectory the
roadmap tracks; the file itself validates against the
``bench_trajectory`` branch of ``run_report.schema.json``.

Counts, coverage, and curves are deterministic for a fixed seed; wall
times and cache-warmth counters are the machine-dependent residue and
are exactly what :func:`repro.report.normalized` strips.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from ..smt import RunStats
from .recorder import Recorder, SCHEMA_VERSION, cache_rates
from .schema import load_schema, validate

__all__ = ["BENCH_ROWS", "QUICK_ROWS", "REPLAY_ROWS", "run_bench",
           "measure_replay_throughput", "append_point", "trajectory_path",
           "solver_block"]

# The tbl4a subset: same programs and caps as the benchmark suite.
BENCH_ROWS = (
    ("middleblock", "v1model", None),
    ("up4", "v1model", None),
    ("switch_lite", "tna", 80),
)

# Bounded variant for the perfsmoke guard: capped test budgets, two
# rows, a handful of fuzz cases — seconds, not minutes.
QUICK_ROWS = (
    ("middleblock", "v1model", 48),
    ("up4", "v1model", 32),
)

# The replay-throughput workload: one program per compiled family.
# These stay on the lane engine's fast path (middleblock/up4 fall back
# — 128-bit fields, meters — so they would measure the scalar path
# twice and say nothing about lane packing).
REPLAY_ROWS = (
    ("fig1a", "v1model"),
    ("match_kinds", "v1model"),
    ("tna_forward", "tna"),
    ("ebpf_filter", "ebpf_model"),
)


def trajectory_path(out_dir, label: str) -> Path:
    return Path(out_dir) / f"BENCH_{label}.json"


def solver_block(stats: dict, phase_times: dict) -> dict:
    """The Fig 7 solver view of one bench point.

    CPU-split fractions (solver / bit-blast / interpreter step over the
    oracle phase's wall time) plus the incremental status plane's
    reuse and clause-retention counters — the per-PR scoreboard for
    solver-side speedups.  Fractions are wall-derived and therefore
    machine-dependent; the counters and rates are deterministic for a
    fixed seed.
    """
    def frac(num, den):
        return round(num / den, 6) if den else 0.0

    oracle = phase_times.get("oracle", 0.0)
    return {
        "solve_frac": frac(stats.get("solve_time_s", 0.0), oracle),
        "blast_frac": frac(stats.get("blast_time_s", 0.0), oracle),
        "step_frac": frac(stats.get("step_time", 0.0), oracle),
        "sat_solves": stats.get("sat_solves", 0),
        "solver_checks": stats.get("solver_checks", 0),
        "feasibility_checks": stats.get("feasibility_checks", 0),
        "feasibility_cache_hits": stats.get("feasibility_cache_hits", 0),
        "incremental": {
            "solves": stats.get("inc_solves", 0),
            "levels_pushed": stats.get("inc_levels_pushed", 0),
            "levels_popped": stats.get("inc_levels_popped", 0),
            "levels_reused": stats.get("inc_levels_reused", 0),
            "reuse_rate": frac(stats.get("inc_levels_reused", 0),
                               stats.get("inc_levels_assumed", 0)),
            "learned_retained": stats.get("inc_learned_retained", 0),
            "learned_deleted": stats.get("inc_learned_deleted", 0),
            "clauses_gced": stats.get("inc_clauses_gced", 0),
            "db_reductions": stats.get("inc_db_reductions", 0),
        },
    }


def _oracle_row(name, target_name, cap, *, seed, jobs):
    from .. import TestGen, TestGenConfig, load_program
    from ..targets import get_target

    rec = Recorder("bench", seed=seed, program=name, target=target_name)
    config = TestGenConfig(seed=seed, max_tests=cap, jobs=jobs)
    t0 = time.perf_counter()
    with rec.phase("oracle"):
        gen = TestGen(load_program(name), target=get_target(target_name),
                      config=config)
        result = gen.run()
    wall = time.perf_counter() - t0
    rec.record_program_run(gen.last_run, num_tests=len(result.tests))
    return {
        "program": name,
        "target": target_name,
        "num_tests": len(result.tests),
        "statement_coverage": round(result.statement_coverage, 4),
        "coverage_curve": gen.last_run.coverage.curve(),
        "cache_rates": cache_rates(rec.stats),
        "wall_s": round(wall, 6),
    }, rec


def _fuzz_block(*, seed, count, jobs, corpus_dir):
    from ..fuzz import FuzzCampaignConfig, run_fuzz_campaign

    rec = Recorder("bench-fuzz", seed=seed)
    config = FuzzCampaignConfig(
        seed=seed, count=count, corpus_dir=str(corpus_dir), jobs=jobs,
        max_tests=8, steer=True, steer_batch=max(2, count // 3),
        shrink=False,
    )
    summary = run_fuzz_campaign(config, recorder=rec)
    doc = rec.report()
    return {
        "num_cases": len(summary.cases),
        "num_passed": summary.num_passed,
        "num_failed": summary.num_failed,
        "construct_coverage": summary.construct_coverage.as_dict(),
        "cache_rates": doc["cache_rates"],
        "phase_times_s": doc["phase_times_s"],
    }


def measure_replay_throughput(*, seed: int = 1, max_tests: int = 16,
                              packets_per_suite: int = 48,
                              min_time_s: float = 0.25) -> dict:
    """Time suite replay scalar vs. lane-packed on :data:`REPLAY_ROWS`.

    Generates each suite once with the oracle, tiles it to
    ``packets_per_suite`` packets (small corpus programs have 3-6 paths;
    tiling models a campaign replaying many cases of one program, which
    is where full lanes actually come from), then replays everything
    repeatedly through :func:`repro.testback.runner.run_suite` in both
    modes until ``min_time_s`` of wall time accumulates per mode.
    Everything but the two wall times (and hence the rates) is
    deterministic for a fixed seed.
    """
    from .. import TestGen, TestGenConfig, load_program
    from ..interp.batch import ReplayStats
    from ..targets import get_target
    from ..testback.runner import run_suite

    suites = []
    for name, target_name in REPLAY_ROWS:
        program = load_program(name)
        config = TestGenConfig(seed=seed, max_tests=max_tests)
        result = TestGen(program, target=get_target(target_name),
                         config=config).run()
        tests = list(result.tests)
        reps = -(-packets_per_suite // len(tests))
        suites.append((program, (tests * reps)[:packets_per_suite]))

    def once(batch, stats=None):
        packets = 0
        for program, tests in suites:
            run_suite(tests, program, seed=seed, batch=batch,
                      replay_stats=stats)
            packets += len(tests)
        return packets

    def timed(batch):
        once(batch)  # warm the compile cache / interpreter setup
        packets = 0
        reps = 0
        t0 = time.perf_counter()
        while True:
            packets += once(batch)
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_time_s and reps >= 3:
                return packets / elapsed

    stats = ReplayStats()
    once(True, stats)
    batch_pps = timed(True)
    scalar_pps = timed(False)
    return {
        "programs": [name for name, _ in REPLAY_ROWS],
        "packets": sum(len(tests) for _, tests in suites),
        "scalar_pps": round(scalar_pps, 1),
        "batch_pps": round(batch_pps, 1),
        "speedup": round(batch_pps / scalar_pps, 2),
        "fill_rate": round(stats.fill_rate(), 4),
        "scalar_fallback_packets": stats.replay_scalar_packets,
    }


def run_bench(label: str, out_dir, *, seed: int = 1, fuzz_count: int = 12,
              jobs: int = 1, quick: bool = False,
              fuzz_corpus=None) -> dict:
    """Run the pinned benchmark set; returns the new trajectory point.

    The point is appended to ``BENCH_<label>.json`` under ``out_dir``
    (created if needed) and the whole trajectory re-validates against
    the checked-in schema before anything is written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows_spec = QUICK_ROWS if quick else BENCH_ROWS
    if quick:
        fuzz_count = min(fuzz_count, 4)

    rows = []
    phase_times: dict = {}
    total = RunStats()
    for name, target_name, cap in rows_spec:
        row, rec = _oracle_row(name, target_name, cap, seed=seed, jobs=jobs)
        rows.append(row)
        for pname, secs in rec.report()["phase_times_s"].items():
            phase_times[pname] = round(
                phase_times.get(pname, 0.0) + secs, 6)
        total.merge(rec.stats)
    stats_total = total.as_dict()

    corpus = fuzz_corpus if fuzz_corpus is not None \
        else out / f"bench-corpus-{label}"
    fuzz = _fuzz_block(seed=seed, count=fuzz_count, jobs=jobs,
                       corpus_dir=corpus) if fuzz_count > 0 else None

    replay = measure_replay_throughput(
        seed=seed, max_tests=8 if quick else 16,
        min_time_s=0.1 if quick else 0.25)

    point = {
        "label": label,
        "timestamp_s": round(time.time(), 3),
        "seed": seed,
        "phase_times_s": phase_times,
        "cache_rates": cache_rates(stats_total),
        "solver": solver_block(stats_total, phase_times),
        "rows": rows,
        "fuzz": fuzz,
        "replay": replay,
    }
    append_point(out, label, point)
    return point


def append_point(out_dir, label: str, point: dict) -> Path:
    """Append one point to the ``BENCH_<label>.json`` trajectory.

    The existing file (if any) must already be a valid trajectory; the
    updated document is validated before the write, so a bad point can
    never corrupt the history.
    """
    path = trajectory_path(out_dir, label)
    if path.is_file():
        doc = json.loads(path.read_text())
        if doc.get("kind") != "bench_trajectory":
            raise ValueError(f"{path} is not a bench trajectory")
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "bench_trajectory",
            "label": label,
            "points": [],
        }
    doc["points"].append(point)
    validate(doc, load_schema())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True,
                               default=str) + "\n")
    return path
