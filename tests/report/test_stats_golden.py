"""Stats lock: the run record's counters for fixed seeded runs.

Every counter the oracle reports is pinned here for four ``generate``
runs and one fuzz campaign, compared through
:func:`repro.report.normalized` (which strips wall times and the
process-global intern-pool and blast-cache counters).  A counter that
is dropped, renamed or counted twice changes these dicts; a change that
alters them on purpose must say why and record the new values.

Sharded runs re-explore branch prefixes in every shard, so ``jobs=2``
has its own (equally deterministic) totals.

The values were recorded before the counters moved into one run record
(:class:`repro.smt.RunStats`); that change kept every one of them and
added the per-plane split of ``sat_solves`` into
``feasibility_sat_solves`` and ``cache_solves``.
"""

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.fuzz import FuzzCampaignConfig, run_fuzz_campaign
from repro.report import Recorder, normalized
from repro.targets import Tna, V1Model


MIDDLEBLOCK = {
    "cache_hits": 278,
    "cache_misses": 158,
    "cache_solves": 158,
    "concolic_failures": 0,
    "elide_hits_model": 223,
    "elide_hits_rewrite": 3,
    "elide_hits_subsume": 0,
    "elide_misses": 195,
    "elide_model_evictions": 32,
    "elide_unsat_evictions": 0,
    "feasibility_cache_hits": 0,
    "feasibility_checks": 263,
    "feasibility_elided": 226,
    "feasibility_sat_solves": 37,
    "frame_cow_copies": 0,
    "inc_clauses_gced": 65,
    "inc_db_reductions": 0,
    "inc_heap_rebuilds": 0,
    "inc_learned_deleted": 0,
    "inc_learned_retained": 0,
    "inc_levels_assumed": 336,
    "inc_levels_popped": 72,
    "inc_levels_pushed": 80,
    "inc_levels_reused": 256,
    "inc_selectors_retired": 72,
    "inc_solves": 37,
    "path_cond_copies": 0,
    "paths_finished": 184,
    "paths_infeasible": 0,
    "paths_pruned": 0,
    "sat_solves": 195,
    "solver_checks": 699,
    "state_clones": 242,
    "steps": 3509,
    "tests_blocked": 0,
    "tests_emitted": 184,
}

MIDDLEBLOCK_JOBS2 = {
    "cache_hits": 274,
    "cache_misses": 162,
    "cache_solves": 162,
    "concolic_failures": 0,
    "elide_hits_model": 219,
    "elide_hits_rewrite": 2,
    "elide_hits_subsume": 0,
    "elide_misses": 204,
    "elide_model_evictions": 10,
    "elide_unsat_evictions": 0,
    "feasibility_cache_hits": 0,
    "feasibility_checks": 263,
    "feasibility_elided": 221,
    "feasibility_sat_solves": 42,
    "frame_cow_copies": 0,
    "inc_clauses_gced": 0,
    "inc_db_reductions": 0,
    "inc_heap_rebuilds": 0,
    "inc_learned_deleted": 0,
    "inc_learned_retained": 0,
    "inc_levels_assumed": 367,
    "inc_levels_popped": 61,
    "inc_levels_pushed": 128,
    "inc_levels_reused": 239,
    "inc_selectors_retired": 61,
    "inc_solves": 42,
    "path_cond_copies": 0,
    "paths_finished": 184,
    "paths_infeasible": 0,
    "paths_pruned": 0,
    "sat_solves": 204,
    "solver_checks": 699,
    "state_clones": 278,
    "steps": 3526,
    "tests_blocked": 0,
    "tests_emitted": 184,
}

SWITCH_LITE = {
    "cache_hits": 89,
    "cache_misses": 71,
    "cache_solves": 71,
    "concolic_failures": 0,
    "elide_hits_model": 179,
    "elide_hits_rewrite": 4,
    "elide_hits_subsume": 11,
    "elide_misses": 80,
    "elide_model_evictions": 0,
    "elide_unsat_evictions": 0,
    "feasibility_cache_hits": 0,
    "feasibility_checks": 203,
    "feasibility_elided": 194,
    "feasibility_sat_solves": 9,
    "frame_cow_copies": 0,
    "inc_clauses_gced": 0,
    "inc_db_reductions": 0,
    "inc_heap_rebuilds": 0,
    "inc_learned_deleted": 0,
    "inc_learned_retained": 0,
    "inc_levels_assumed": 88,
    "inc_levels_popped": 21,
    "inc_levels_pushed": 35,
    "inc_levels_reused": 35,
    "inc_selectors_retired": 21,
    "inc_solves": 9,
    "path_cond_copies": 0,
    "paths_finished": 106,
    "paths_infeasible": 0,
    "paths_pruned": 18,
    "sat_solves": 80,
    "solver_checks": 363,
    "state_clones": 199,
    "steps": 2436,
    "tests_blocked": 26,
    "tests_emitted": 80,
}

EARLY_STOP = {
    "cache_hits": 2,
    "cache_misses": 4,
    "cache_solves": 4,
    "concolic_failures": 0,
    "elide_hits_model": 8,
    "elide_hits_rewrite": 2,
    "elide_hits_subsume": 0,
    "elide_misses": 6,
    "elide_model_evictions": 0,
    "elide_unsat_evictions": 0,
    "feasibility_cache_hits": 0,
    "feasibility_checks": 12,
    "feasibility_elided": 10,
    "feasibility_sat_solves": 2,
    "frame_cow_copies": 0,
    "inc_clauses_gced": 0,
    "inc_db_reductions": 0,
    "inc_heap_rebuilds": 0,
    "inc_learned_deleted": 0,
    "inc_learned_retained": 0,
    "inc_levels_assumed": 11,
    "inc_levels_popped": 1,
    "inc_levels_pushed": 7,
    "inc_levels_reused": 4,
    "inc_selectors_retired": 1,
    "inc_solves": 2,
    "path_cond_copies": 0,
    "paths_finished": 3,
    "paths_infeasible": 0,
    "paths_pruned": 0,
    "sat_solves": 6,
    "solver_checks": 18,
    "state_clones": 11,
    "steps": 77,
    "tests_blocked": 0,
    "tests_emitted": 3,
}

CAMPAIGN = {
    "cache_hits": 29,
    "cache_misses": 35,
    "cache_solves": 35,
    "concolic_failures": 0,
    "elide_hits_model": 56,
    "elide_hits_rewrite": 5,
    "elide_hits_subsume": 0,
    "elide_misses": 47,
    "elide_model_evictions": 1,
    "elide_unsat_evictions": 0,
    "feasibility_cache_hits": 0,
    "feasibility_checks": 73,
    "feasibility_elided": 61,
    "feasibility_sat_solves": 12,
    "frame_cow_copies": 0,
    "inc_clauses_gced": 0,
    "inc_db_reductions": 0,
    "inc_heap_rebuilds": 0,
    "inc_learned_deleted": 0,
    "inc_learned_retained": 0,
    "inc_levels_assumed": 92,
    "inc_levels_popped": 16,
    "inc_levels_pushed": 37,
    "inc_levels_reused": 51,
    "inc_selectors_retired": 16,
    "inc_solves": 12,
    "path_cond_copies": 0,
    "paths_finished": 32,
    "paths_infeasible": 0,
    "paths_pruned": 1,
    "replay_batches": 2,
    "replay_compiled_programs": 2,
    "replay_ejected_lanes": 0,
    "replay_fallback_programs": 0,
    "replay_lanes": 32,
    "replay_packets": 32,
    "replay_scalar_packets": 0,
    "sat_solves": 47,
    "solver_checks": 137,
    "state_clones": 62,
    "steps": 582,
    "tests_blocked": 0,
    "tests_emitted": 32,
}


def _stats(run, num_tests=None):
    rec = Recorder("generate", seed=1)
    rec.record_program_run(run, num_tests=num_tests)
    return normalized(rec.report())["stats"]


def _generate(program, target, max_tests, jobs=1):
    gen = TestGen(load_program(program), target=target(),
                  config=TestGenConfig(seed=1, max_tests=max_tests,
                                       jobs=jobs))
    tests = list(gen.iter_tests())
    return _stats(gen.last_run, num_tests=len(tests))


@pytest.mark.parametrize("jobs,golden", [(1, MIDDLEBLOCK),
                                         (2, MIDDLEBLOCK_JOBS2)],
                         ids=["jobs1", "jobs2"])
def test_middleblock_stats(jobs, golden):
    assert _generate("middleblock", V1Model, None, jobs=jobs) == golden


def test_switch_lite_stats():
    assert _generate("switch_lite", Tna, 80) == SWITCH_LITE


def test_early_stopped_explorer_stats():
    # Stopping after three tests must leave the record current: the
    # counters the solvers and the explorer kept up to the third test.
    explorer = TestGen(load_program("middleblock"), target=V1Model(),
                       config=TestGenConfig(seed=1)).explorer()
    assert len(explorer.generate(3)) == 3
    assert _stats(explorer) == EARLY_STOP


def test_campaign_solver_stats(tmp_path):
    summary = run_fuzz_campaign(FuzzCampaignConfig(
        seed=0, count=2, targets=("v1model",), corpus_dir=str(tmp_path)))
    assert normalized(summary.solver_stats()) == CAMPAIGN
