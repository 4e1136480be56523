"""Figure 7: CPU-time distribution of test generation.

The paper reports that constraint solving in Z3 accounts for <10% of
P4Testgen's CPU time — the symbolic interpretation side dominates.  We
measure the same decomposition for our substrate: CDCL SAT search, CNF
encoding (bit-blasting), symbolic stepping, and the remaining
finalization machinery, against the total wall time of the generation
run (which includes the eager feasibility pruning the paper also
performs).

DEVIATION (recorded in EXPERIMENTS.md): the paper pairs a C++
interpreter with Z3's C core, so solving is a sliver.  We pair a Python
interpreter with a *Python* SAT solver, which inflates the solver share
by roughly the C-to-Python constant.  The reproduced shape is the
decomposition itself plus the paper's enabling observation — incremental
solving keeps the per-check cost low (hundreds of checks, all answered
within milliseconds each).
"""

import time

from _util import once, report

from repro import TestGen, TestGenConfig, load_program
from repro.targets import V1Model


def test_fig7_cpu_split(benchmark):
    def run():
        t0 = time.perf_counter()
        gen = TestGen(load_program("middleblock"), target=V1Model(),
                      config=TestGenConfig(seed=1, max_tests=120))
        explorer = gen.explorer()
        tests = list(explorer.run())
        wall = time.perf_counter() - t0
        return explorer, tests, wall

    explorer, tests, wall = once(benchmark, run)
    # Two solvers cooperate per run — the incremental pruning solver and
    # the canonical model solver (see repro.symex.explorer) — and both
    # count into the explorer's run record.
    stats = explorer.stats
    solve = stats.solve_time_s
    blast = stats.blast_time_s
    stepping = stats.step_time
    other = max(wall - solve - blast - stepping, 0.0)
    checks = stats.solver_checks

    def pct(x):
        return 100.0 * x / wall if wall else 0.0

    lines = [
        f"tests generated: {len(tests)}",
        f"total wall time:       {wall:8.2f} s",
        f"  SAT solving (CDCL):  {solve:8.2f} s ({pct(solve):5.1f}%)",
        f"  CNF encoding:        {blast:8.2f} s ({pct(blast):5.1f}%)",
        f"  symbolic stepping:   {stepping:8.2f} s ({pct(stepping):5.1f}%)",
        f"  other (finalize/IO): {other:8.2f} s ({pct(other):5.1f}%)",
        f"solver checks: {checks} (feasibility={stats.feasibility_checks}, "
        f"canonical={stats.cache_hits + stats.cache_misses}); "
        f"{1000 * solve / max(checks, 1):.1f} ms/check",
        f"query elision: {stats.elide_hits} of "
        f"{checks} checks answered without SAT "
        f"(model-reuse={stats.elide_hits_model}, "
        f"rewrite={stats.elide_hits_rewrite}, "
        f"subsume={stats.elide_hits_subsume}); "
        f"cache hits={stats.cache_hits}; "
        f"sat solves={stats.sat_solves}",
        f"  word-level rewrite pass:{stats.rewrite_time_s:8.2f} s",
        "",
        "paper: Z3 <10% (C++ interpreter vs C solver).  Here the solver",
        "is Python, so its share is inflated by the implementation",
        "constant; the decomposition and the cheap-incremental-check",
        "property are the reproduced shape.",
    ]
    report("fig7_cpu_split", lines)

    assert len(tests) > 0
    # Accounting sanity: the categories must cover the run.
    assert solve + blast + stepping <= wall * 1.05
    # The enabling property: incremental checks stay cheap.
    assert solve / max(checks, 1) < 0.5, "per-check cost exploded"


def test_fig7_incremental_feasibility_speedup(benchmark):
    """The PR-10 before/after on the Fig 7 solver share: feasibility
    checks riding the retained clause database vs. solving each check
    from scratch.

    Elision is disabled on both sides so the comparison isolates the
    two SAT planes — with it on, the elider answers ~85% of checks
    before either plane runs and the delta shrinks to the residue.
    Recorded at PR-10 time: 0.28 s vs. 0.62 s of aggregate feasibility
    solve time (2.2x), 50k vs. 110k unit propagations.  The acceptance
    floor is 1.5x, pinned on the deterministic propagation counters in
    tests/perf/test_perfsmoke.py; the wall-clock assertion here is the
    honest end-to-end version of the same claim.
    """
    def run_mode(incremental):
        config = TestGenConfig(seed=1, max_tests=60, elide=False,
                               incremental=incremental)
        gen = TestGen(load_program("middleblock"), target=V1Model(),
                      config=config)
        explorer = gen.explorer()
        tests = list(explorer.run())
        stats = explorer.stats
        return {
            "tests": len(tests),
            "solve_s": stats.feasibility_solve_time_s,
            "sat_solves": stats.feasibility_sat_solves,
            "propagations": explorer.solver._sat.stats["propagations"],
            "levels_reused": stats.inc_levels_reused,
            "levels_assumed": stats.inc_levels_assumed,
        }

    def run_both():
        return run_mode(True), run_mode(False)

    inc, oneshot = once(benchmark, run_both)
    assert inc["tests"] == oneshot["tests"] == 60
    wall_gain = oneshot["solve_s"] / max(inc["solve_s"], 1e-9)
    prop_gain = oneshot["propagations"] / max(inc["propagations"], 1)
    reuse = inc["levels_reused"] / max(inc["levels_assumed"], 1)

    report("fig7_incremental_feasibility", [
        "middleblock seed=1 max_tests=60 elide=off (isolates the",
        "feasibility SAT planes; default runs elide ~85% of checks)",
        "",
        f"                      incremental    one-shot",
        f"feasibility solve:  {inc['solve_s']:9.3f} s {oneshot['solve_s']:9.3f} s"
        f"   ({wall_gain:.2f}x)",
        f"unit propagations:  {inc['propagations']:11d} {oneshot['propagations']:11d}"
        f"   ({prop_gain:.2f}x)",
        f"sat solves:         {inc['sat_solves']:11d} {oneshot['sat_solves']:11d}",
        f"trail reuse: {inc['levels_reused']}/{inc['levels_assumed']} "
        f"assumption levels re-established from the kept prefix "
        f"({100 * reuse:.0f}%)",
        "",
        "paper (§6): P4Testgen configures Z3 for incremental solving so",
        "per-branch feasibility checks stay cheap; this is the same",
        "lever on the native CDCL core.",
    ])

    assert prop_gain >= 1.5, (
        f"propagation gain {prop_gain:.2f}x below the 1.5x acceptance "
        f"floor"
    )
    assert wall_gain >= 1.5, (
        f"feasibility solve time gain {wall_gain:.2f}x below the 1.5x "
        f"acceptance floor"
    )
