"""Engine scaling: solver-query caching and parallel sharding.

Measures three configurations of the same generation campaign:

- ``cache off`` — canonical solving without memoization
  (``cache_capacity=0``): every model query is solved from scratch;
- ``cache on`` — solver-query caching (sequential, jobs=1);
- ``jobs=4`` — cache on plus the exploration tree sharded across 4
  worker processes.

Reports the cache hit rate and the wall-clock speedups of the latter
two over ``cache off``.  On single-core CI boxes the jobs=4 row mostly
demonstrates that sharding overhead stays bounded (workers re-replay
branch prefixes and time-share one core); the cache row carries the
CPU-bound speedup there.  Every row's suite is asserted byte-identical:
the cache and the sharding change how fast models are found, never
which models come out.
"""

import time

from _util import once, report

from repro import TestGen, TestGenConfig, load_program
from repro.targets import V1Model

PROGRAM = "middleblock"
MAX_TESTS = 60


def _campaign(program, config):
    t0 = time.perf_counter()
    gen = TestGen(program, target=V1Model(), config=config)
    tests = list(gen.iter_tests())
    wall = time.perf_counter() - t0
    stats = gen.last_run.stats
    from repro.testback import get_backend

    return {
        "wall_s": wall,
        "tests": len(tests),
        "hits": stats.cache_hits,
        "misses": stats.cache_misses,
        "saved_s": stats.cache_time_saved_s,
        "elided": stats.elide_hits,
        "sat_solves": stats.sat_solves,
        "blast_hits": stats.blast_cache_hits,
        "blast_misses": stats.blast_cache_misses,
        "blast_replayed": stats.blast_clauses_replayed,
        "suite": get_backend("stf").render_suite(tests),
        "coverage": gen.last_run.coverage.statement_percent,
    }


def test_engine_scaling(benchmark):
    def run():
        program = load_program(PROGRAM)
        base = TestGenConfig(seed=1, max_tests=MAX_TESTS)
        return {
            "cache off": _campaign(program, base.replace(cache_capacity=0)),
            "cache on ": _campaign(program, base),
            "jobs=4   ": _campaign(program, base.replace(jobs=4)),
        }

    results = once(benchmark, run)
    baseline = results["cache off"]["wall_s"]
    import os

    lines = [
        f"program: {PROGRAM}, max_tests={MAX_TESTS}, seed=1, "
        f"cpus={os.cpu_count()}",
        "",
        "| Config    | Tests | Wall time | Speedup | Cache hits | Hit rate | Time saved | Elided | SAT solves | Blast hits | Clauses replayed |",
    ]
    for label, r in results.items():
        queries = r["hits"] + r["misses"]
        rate = 100.0 * r["hits"] / queries if queries else 0.0
        speedup = baseline / r["wall_s"] if r["wall_s"] else 0.0
        blasts = r["blast_hits"] + r["blast_misses"]
        brate = 100.0 * r["blast_hits"] / blasts if blasts else 0.0
        lines.append(
            f"| {label} | {r['tests']:5d} | {r['wall_s']:8.2f}s | "
            f"{speedup:6.2f}x | {r['hits']:10d} | {rate:7.1f}% | "
            f"{r['saved_s']:9.2f}s | {r['elided']:6d} | "
            f"{r['sat_solves']:10d} | {r['blast_hits']:4d} ({brate:4.1f}%) | "
            f"{r['blast_replayed']:16d} |"
        )
    lines.append("")
    lines.append("all rows are byte-identical suites (determinism check).")
    report("engine_scaling", lines)

    cached = results["cache on "]
    parallel = results["jobs=4   "]
    # The acceptance bar: a measurable hit rate and genuine savings.
    assert cached["hits"] > 0
    assert cached["saved_s"] > 0
    assert parallel["hits"] > 0
    # The shared blast cache must be live on every canonical-cache run
    # (per worker process under jobs=4).
    assert cached["blast_hits"] > 0 and cached["blast_replayed"] > 0
    assert parallel["blast_hits"] > 0
    # Every configuration explores the same paths.
    assert (cached["tests"] == parallel["tests"]
            == results["cache off"]["tests"])
    assert cached["coverage"] == parallel["coverage"]
    # Determinism: jobs=4 and cache-off emit the byte-identical suite.
    assert parallel["suite"] == cached["suite"]
    assert results["cache off"]["suite"] == cached["suite"]
