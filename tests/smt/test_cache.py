"""Solve-cache behaviour: canonical keys, hits/misses, eviction, and
the cache-backed Solver mode."""

import pytest

from repro.smt import RunStats, SolveCache, Solver, terms as T
from repro.smt.cache import canonical_string


def _vars():
    a = T.bv_var("a", 8)
    b = T.bv_var("b", 8)
    return a, b


def _constraints():
    a, b = _vars()
    c1 = T.eq(a, T.bv_const(3, 8))
    c2 = T.ult(b, T.bv_const(7, 8))
    return c1, c2


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------

def test_canonical_string_is_structural():
    a, b = _vars()
    t1 = T.and_(T.eq(a, T.bv_const(1, 8)), T.eq(b, T.bv_const(2, 8)))
    t2 = T.and_(T.eq(a, T.bv_const(1, 8)), T.eq(b, T.bv_const(2, 8)))
    assert t1 is t2  # hash-consing
    assert canonical_string(t1) == canonical_string(t2)
    assert canonical_string(t1) != canonical_string(T.eq(a, b))


def test_key_is_order_insensitive_and_deduped():
    cache = SolveCache()
    c1, c2 = _constraints()
    assert cache.key_for([c1, c2]) == cache.key_for([c2, c1])
    assert cache.key_for([c1, c2, c1]) == cache.key_for([c1, c2])
    assert cache.key_for([c1]) != cache.key_for([c1, c2])


# ---------------------------------------------------------------------------
# Hit/miss accounting and invalidation by key
# ---------------------------------------------------------------------------

def test_cache_hit_on_repeat_and_miss_on_new_constraints():
    cache = SolveCache()
    solver = Solver(cache=cache)
    c1, c2 = _constraints()
    stats = cache.stats
    assert solver.check(c1, c2) == "sat"
    assert (stats.cache_hits, stats.cache_misses) == (0, 1)
    # Same set, different order: a hit.
    assert solver.check(c2, c1) == "sat"
    assert (stats.cache_hits, stats.cache_misses) == (1, 1)
    # A different constraint set never reuses the old entry.
    a, _b = _vars()
    c3 = T.eq(a, T.bv_const(9, 8))
    assert solver.check(c2, c3) == "sat"
    assert (stats.cache_hits, stats.cache_misses) == (1, 2)
    assert stats.cache_solves == 2
    assert len(cache) == 2


def test_hit_and_miss_produce_identical_models():
    c1, c2 = _constraints()
    cold = Solver(cache=SolveCache())
    assert cold.check(c1, c2) == "sat"
    cold_model = cold.model().as_dict()

    warm_cache = SolveCache()
    warm = Solver(cache=warm_cache)
    warm.check(c1, c2)
    assert warm.check(c1, c2) == "sat"  # second query: a hit
    assert warm_cache.stats.cache_hits == 1
    assert warm.model().as_dict() == cold_model


def test_cached_unsat_answers():
    a, _b = _vars()
    cache = SolveCache()
    solver = Solver(cache=cache)
    contradiction = [T.eq(a, T.bv_const(1, 8)), T.eq(a, T.bv_const(2, 8))]
    assert solver.check(*contradiction) == "unsat"
    assert solver.check(*contradiction) == "unsat"
    assert cache.stats.cache_hits == 1
    with pytest.raises(RuntimeError):
        solver.model()


def test_time_saved_accumulates_on_hits():
    cache = SolveCache()
    solver = Solver(cache=cache)
    c1, c2 = _constraints()
    solver.check(c1, c2)
    assert cache.stats.cache_time_saved_s == 0.0
    solver.check(c1, c2)
    # A hit is credited with what the original miss solve cost.
    assert cache.stats.cache_time_saved_s > 0.0
    assert cache.stats.cache_time_saved_s == cache.stats.cache_solve_time_s


# ---------------------------------------------------------------------------
# Capacity / eviction
# ---------------------------------------------------------------------------

def test_lru_eviction_invalidates_oldest():
    cache = SolveCache(capacity=1)
    solver = Solver(cache=cache)
    c1, c2 = _constraints()
    solver.check(c1)
    solver.check(c2)          # evicts the c1 entry
    assert cache.evictions == 1
    assert len(cache) == 1
    solver.check(c1)          # miss again: entry was invalidated
    assert cache.stats.cache_misses == 3 and cache.stats.cache_hits == 0


def test_capacity_zero_disables_storage_not_canonical_solving():
    cache = SolveCache(capacity=0)
    solver = Solver(cache=cache)
    c1, c2 = _constraints()
    assert solver.check(c1, c2) == "sat"
    first = solver.model().as_dict()
    assert solver.check(c1, c2) == "sat"
    assert cache.stats.cache_hits == 0 and cache.stats.cache_misses == 2
    assert len(cache) == 0
    # Pure canonical solves: the repeat answer is still identical.
    assert solver.model().as_dict() == first


def test_clear_empties_entries():
    cache = SolveCache()
    solver = Solver(cache=cache)
    c1, _c2 = _constraints()
    solver.check(c1)
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Cache-mode Solver keeps the incremental interface
# ---------------------------------------------------------------------------

def test_cache_mode_push_pop_scopes_assertions():
    cache = SolveCache()
    solver = Solver(cache=cache)
    a, _b = _vars()
    solver.add(T.ult(a, T.bv_const(10, 8)))
    solver.push()
    solver.add(T.eq(a, T.bv_const(4, 8)))
    assert solver.check() == "sat"
    assert solver.model()[a] == 4
    solver.pop()
    assert solver.assertions() == [T.ult(a, T.bv_const(10, 8))]
    assert solver.check() == "sat"


def test_solver_stats_expose_cache_counters():
    # The explorer hands its model solver and solve cache one record.
    record = RunStats()
    cache = SolveCache(stats=record)
    solver = Solver(cache=cache, stats=record)
    c1, c2 = _constraints()
    solver.check(c1, c2)
    solver.check(c2, c1)
    stats = record.as_dict()
    assert (stats["cache_hits"], stats["cache_misses"]) == (1, 1)
    assert stats["cache_solves"] == 1 and stats["solver_checks"] == 2
