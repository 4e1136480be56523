"""Perf-regression smoke test for the solver hot path.

Pins the query-elision pipeline's effectiveness on a fixed mid-size
program so later PRs cannot silently regress it: on ``middleblock``
with a fixed seed and test cap, the fraction of incremental
feasibility checks answered without a SAT solve must stay above a
floor, and the total number of real SAT solves below a recorded
ceiling.

The thresholds are deliberately slack against the measured values
(~87% elided, 60 SAT solves at recording time) — the test exists to
catch the pipeline being disconnected or defeated, not to flake on
noise.  Counters, not wall-clock, so CI speed never matters.

Run just this guard with ``pytest -m perfsmoke``.
"""

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.targets import get_target

PROGRAM = "middleblock"
SEED = 1
MAX_TESTS = 60

# Recorded on the fixed workload above at PR-3 time: 84/96 feasibility
# checks elided, 60 real SAT solves (276 solver checks in total).
ELIDED_FRACTION_FLOOR = 0.50
SAT_SOLVE_CEILING = 90

# Recorded at PR-5 time on the same workload: 290/528 blast-cache hits
# (55%), 1252/1795 intern-pool hits (70%), 87 state clones with zero
# path-condition copies.  Floors are slack for the same reason as above.
BLAST_HIT_FRACTION_FLOOR = 0.25
INTERN_HIT_FRACTION_FLOOR = 0.40


@pytest.fixture(scope="module")
def stats():
    config = TestGenConfig(seed=SEED, max_tests=MAX_TESTS)
    gen = TestGen(load_program(PROGRAM), target=get_target("v1model"),
                  config=config)
    result = gen.run()
    assert len(result.tests) == MAX_TESTS
    return result.stats


@pytest.mark.perfsmoke
def test_feasibility_elision_fraction_above_floor(stats):
    assert stats.feasibility_checks > 0
    fraction = stats.feasibility_elided / stats.feasibility_checks
    assert fraction >= ELIDED_FRACTION_FLOOR, (
        f"only {stats.feasibility_elided}/{stats.feasibility_checks} "
        f"({100 * fraction:.1f}%) of feasibility checks were elided; "
        f"floor is {100 * ELIDED_FRACTION_FLOOR:.0f}%"
    )


@pytest.mark.perfsmoke
def test_total_sat_solves_below_ceiling(stats):
    assert stats.sat_solves <= SAT_SOLVE_CEILING, (
        f"{stats.sat_solves} SAT solves on the fixed workload; "
        f"recorded ceiling is {SAT_SOLVE_CEILING} — the solver hot "
        f"path has regressed"
    )


@pytest.mark.perfsmoke
def test_elision_bookkeeping_is_consistent(stats):
    # Every check is answered by exactly one of: cache hit, elision
    # layer, or a real solve.
    assert stats.solver_checks == (stats.cache_hits + stats.elide_hits
                                   + stats.sat_solves)
    assert stats.feasibility_elided <= stats.feasibility_checks


@pytest.mark.perfsmoke
def test_state_clone_is_constant_time(stats):
    # clone() must share, not copy: forking a state at a branch conses
    # onto persistent path conditions and stamps frames copy-on-write,
    # so no path-condition list is ever duplicated (symex/state.py).
    assert stats.state_clones > 0
    assert stats.path_cond_copies == 0, (
        f"{stats.path_cond_copies} path-condition copies across "
        f"{stats.state_clones} state clones — clone() is copying again"
    )


@pytest.mark.perfsmoke
def test_blast_cache_hit_fraction_above_floor(stats):
    total = stats.blast_cache_hits + stats.blast_cache_misses
    assert total > 0
    fraction = stats.blast_cache_hits / total
    assert fraction >= BLAST_HIT_FRACTION_FLOOR, (
        f"only {stats.blast_cache_hits}/{total} ({100 * fraction:.1f}%) "
        f"of canonical-solve blasts were replayed from the shared "
        f"cache; floor is {100 * BLAST_HIT_FRACTION_FLOOR:.0f}%"
    )
    assert stats.blast_clauses_replayed > 0


@pytest.mark.perfsmoke
def test_intern_pool_hit_fraction_above_floor(stats):
    total = stats.intern_hits + stats.intern_misses
    assert total > 0
    fraction = stats.intern_hits / total
    assert fraction >= INTERN_HIT_FRACTION_FLOOR, (
        f"only {stats.intern_hits}/{total} ({100 * fraction:.1f}%) of "
        f"term constructions hit the intern pool; floor is "
        f"{100 * INTERN_HIT_FRACTION_FLOOR:.0f}%"
    )


# ---------------------------------------------------------------------------
# Incremental feasibility plane (PR 10): sibling checks in the DFS tree
# ride a retained clause database and trail instead of solving from
# scratch.  Floors recorded on the fixed workload above: 83/111
# assumption levels re-established from the reused trail (75%), and
# with elision disabled the incremental plane does 50k unit
# propagations where one-shot does 110k (2.19x).  Counters, not
# wall-clock, so the ratio floor cannot flake on CI speed.
# ---------------------------------------------------------------------------

INCREMENTAL_REUSE_RATE_FLOOR = 0.50
INCREMENTAL_PROPAGATION_GAIN_FLOOR = 1.5


@pytest.mark.perfsmoke
def test_incremental_trail_reuse_rate_above_floor(stats):
    assert stats.inc_solves > 0, "incremental plane never engaged"
    assert stats.inc_levels_assumed > 0
    rate = stats.inc_levels_reused / stats.inc_levels_assumed
    assert rate >= INCREMENTAL_REUSE_RATE_FLOOR, (
        f"only {stats.inc_levels_reused}/{stats.inc_levels_assumed} "
        f"({100 * rate:.1f}%) of assumption levels arrived "
        f"pre-established on the reused trail; floor is "
        f"{100 * INCREMENTAL_REUSE_RATE_FLOOR:.0f}%"
    )


@pytest.mark.perfsmoke
def test_incremental_plane_halves_feasibility_propagations():
    # Elision off isolates the two SAT planes: every feasibility check
    # that reaches a solver does real propagation work in both modes.
    def propagations(incremental):
        config = TestGenConfig(seed=SEED, max_tests=MAX_TESTS, elide=False,
                               incremental=incremental)
        gen = TestGen(load_program(PROGRAM), target=get_target("v1model"),
                      config=config)
        explorer = gen.explorer()
        tests = list(explorer.run())
        assert len(tests) == MAX_TESTS
        return explorer.solver._sat.stats["propagations"]

    with_inc = propagations(True)
    without = propagations(False)
    assert with_inc > 0
    gain = without / with_inc
    assert gain >= INCREMENTAL_PROPAGATION_GAIN_FLOOR, (
        f"incremental feasibility plane did {with_inc} propagations vs "
        f"{without} one-shot ({gain:.2f}x); floor is "
        f"{INCREMENTAL_PROPAGATION_GAIN_FLOOR}x — trail/clause reuse "
        f"has regressed"
    )


@pytest.mark.perfsmoke
def test_selector_gc_bounds_clause_db_on_deep_backtrack():
    # A DFS run that pushes deep and backtracks to the root over and
    # over retires hundreds of selectors; GC must keep the clause
    # database proportional to the *live* stack, not to history.
    from repro.smt import Solver
    from repro.smt import terms as T

    # Re-pushing the *same* branch constraints after a backtrack is the
    # DFS re-exploration shape: the terms re-blast to cached gate
    # clauses, so the only per-round DB growth is the guarded root
    # clause each push adds — exactly what selector GC reclaims.
    def deep_backtrack(gc: bool):
        s = Solver(incremental=True)
        if not gc:
            s._sat.gc_dead_threshold = 10 ** 9
        a = T.bv_var("gc_smoke_a", 16)
        s.add(T.ult(a, T.bv_const(60000, 16)))
        sizes = []
        for _round in range(8):
            for i in range(16):
                s.push()
                s.add(T.ne(a, T.bv_const(i, 16)))
            assert s.check().status == "sat"
            s.pop(16)
            assert s.check().status == "sat"
            sizes.append(len(s._sat.clauses))
        return s, sizes[-1] - sizes[0]

    collected, gc_growth = deep_backtrack(gc=True)
    hoarder, hoard_growth = deep_backtrack(gc=False)
    assert collected._sat.stats["clauses_gced"] > 0
    assert hoard_growth >= 7 * 16  # the control really does hoard
    assert gc_growth <= collected._sat.gc_dead_threshold, (
        f"clause DB grew by {gc_growth} clauses across 7 fully "
        f"backtracked re-exploration rounds (no-GC control grew by "
        f"{hoard_growth}) — selector GC is not reclaiming retired "
        f"levels"
    )


# ---------------------------------------------------------------------------
# Batch replay fast path (PR 8): on the compiled smoke corpus, every
# replayed packet must ride the lane engine — no compile fallbacks, no
# runtime ejections.  Measured at recording time: fill rate 1.0 on all
# four rows.  Counters again, never wall-clock.
# ---------------------------------------------------------------------------

REPLAY_ROWS = (("fig1a", "v1model"), ("match_kinds", "v1model"),
               ("tna_forward", "tna"), ("ebpf_filter", "ebpf_model"))
REPLAY_FILL_RATE_FLOOR = 0.95


@pytest.fixture(scope="module")
def replay_stats():
    from repro.interp import ReplayStats
    from repro.testback.runner import run_suite

    acc = ReplayStats()
    for name, target in REPLAY_ROWS:
        program = load_program(name)
        gen = TestGen(program, target=get_target(target),
                      config=TestGenConfig(seed=SEED, max_tests=16))
        tests = gen.run().tests
        assert tests
        run_suite(tests, program, batch=True, replay_stats=acc)
    return acc


@pytest.mark.perfsmoke
def test_batch_replay_fill_rate_above_floor(replay_stats):
    assert replay_stats.replay_packets > 0
    assert replay_stats.fill_rate() >= REPLAY_FILL_RATE_FLOOR, (
        f"lane fill rate {replay_stats.fill_rate():.3f} on the smoke "
        f"corpus; floor is {REPLAY_FILL_RATE_FLOOR} — lanes are being "
        f"ejected to the scalar path"
    )


@pytest.mark.perfsmoke
def test_batch_replay_smoke_corpus_stays_compiled(replay_stats):
    # These four programs are one-per-family representatives chosen
    # because they compile; a fallback here means the compiler lost a
    # construct it used to support.
    assert replay_stats.replay_fallback_programs == 0
    assert replay_stats.replay_scalar_packets == 0
    assert replay_stats.replay_compiled_programs == len(REPLAY_ROWS)


# ---------------------------------------------------------------------------
# Packet-length minimisation: on tna the 64-byte minimum defeats the
# "exactly the consumed bits" fast path on every test, so the minimum
# length is read off pkt_len's word-level domain and confirmed with one
# canonical query.  Measured: 2 canonical queries per emitted test (the
# per-test binary search it replaced needed 15).  Counters only.
# ---------------------------------------------------------------------------

TNA_QUERIES_PER_TEST_CEILING = 5


@pytest.mark.perfsmoke
def test_tna_canonical_queries_per_test_below_ceiling():
    config = TestGenConfig(seed=SEED, max_tests=80)
    result = TestGen(load_program("switch_lite"), target=get_target("tna"),
                     config=config).run()
    assert len(result.tests) == 80
    stats = result.stats
    per_test = (stats.cache_hits + stats.cache_misses) / len(result.tests)
    assert per_test <= TNA_QUERIES_PER_TEST_CEILING, (
        f"{per_test:.2f} canonical queries per emitted test on "
        f"switch_lite/tna; ceiling is {TNA_QUERIES_PER_TEST_CEILING} — "
        f"the packet-length search is bisecting again"
    )
