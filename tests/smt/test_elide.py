"""Tests for the query-elision pipeline (model reuse, subsumption,
rewrite) and its wiring into both solver modes.

The load-bearing properties: every elided answer agrees with what a
real solve would have returned, elided SAT answers are confined to
solvers whose models never reach test output, and the stats counters
tell the truth about which layer answered.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import QueryElider, RunStats, SolveCache, Solver, terms as T

WIDTH = 8


def _v(name):
    return T.bv_var(f"el_{name}", WIDTH)


def _c(value):
    return T.bv_const(value, WIDTH)


def _hard_atom(x, y, value):
    """A conjunct the word-level rewrite cannot decide."""
    return T.eq(T.bv_add(x, y), _c(value))


# ---------------------------------------------------------------------------
# QueryElider in isolation
# ---------------------------------------------------------------------------

def test_model_reuse_answers_sat():
    stats = RunStats()
    elider = QueryElider(stats)
    x, y = _v("mr_x"), _v("mr_y")
    elider.note_model({x: 3, y: 4})
    status, witness = elider.try_answer([_hard_atom(x, y, 7)])
    assert status == "sat"
    assert witness == {x: 3, y: 4}
    assert stats.elide_hits_model == 1


def test_model_reuse_rejects_nonmatching_models():
    stats = RunStats()
    elider = QueryElider(stats)
    x, y = _v("mm_x"), _v("mm_y")
    elider.note_model({x: 3, y: 5})
    status, _ = elider.try_answer([_hard_atom(x, y, 7)])
    assert status != "sat"
    assert stats.elide_hits_model == 0


def test_subsumption_answers_unsat_for_supersets():
    stats = RunStats()
    elider = QueryElider(stats)
    x, y = _v("sub_x"), _v("sub_y")
    core = [_hard_atom(x, y, 1), T.not_(_hard_atom(x, y, 1))]
    elider.note_unsat(core)
    status, _ = elider.try_answer(core + [T.ult(x, _c(100))])
    assert status == "unsat"
    assert stats.elide_hits_subsume == 1
    # A subset of the core is NOT implied unsat.
    status, _ = elider.try_answer([core[0]])
    assert status != "unsat"


def test_rewrite_layer_decides_and_seeds_caches():
    stats = RunStats()
    elider = QueryElider(stats)
    x = _v("rw_x")
    status, witness = elider.try_answer([T.uge(x, _c(200))])
    assert status == "sat" and witness[x] >= 200
    assert stats.elide_hits_rewrite == 1
    # The rewrite witness entered the model cache: an immediately
    # compatible query now hits layer 1, not layer 3.
    status, _ = elider.try_answer([T.uge(x, _c(150))])
    assert status == "sat"
    assert stats.elide_hits_model == 1
    # Rewrite UNSAT seeds the subsumption cache.
    contradiction = [T.ult(x, _c(5)), T.uge(x, _c(10))]
    assert elider.try_answer(contradiction)[0] == "unsat"
    assert stats.elide_hits_rewrite == 2
    hard = _hard_atom(x, _v("rw_y"), 9)
    assert elider.try_answer(contradiction + [hard])[0] == "unsat"
    assert stats.elide_hits_subsume == 1


def test_sat_ok_false_blocks_sat_answers_only():
    stats = RunStats()
    elider = QueryElider(stats, sat_ok=False)
    x = _v("so_x")
    elider.note_model({x: 200})
    assert elider.try_answer([T.uge(x, _c(100))])[0] is None
    assert elider.try_answer([T.ult(x, _c(5)), T.uge(x, _c(10))])[0] == "unsat"


def test_eviction_counters():
    stats = RunStats()
    elider = QueryElider(stats, max_models=2, max_unsat=2)
    x = _v("ev_x")
    for i in range(3):
        elider.note_model({x: i})
        elider.note_unsat([T.eq(x, _c(i)), T.ne(x, _c(i))])
    assert stats.elide_model_evictions == 1
    assert stats.elide_unsat_evictions == 1


# ---------------------------------------------------------------------------
# Status-plane solver wiring (full elision)
# ---------------------------------------------------------------------------

def _sat_solves(solver):
    return solver._sat.stats["solves"]


def test_incremental_solver_elides_sibling_queries():
    solver = Solver(elide=True)
    x, y = _v("inc_x"), _v("inc_y")
    hard = _hard_atom(x, y, 7)
    assert solver.check(hard) == "sat"
    assert _sat_solves(solver) == 1
    # The solve's model answers the compatible sibling query for free.
    model = solver.model()
    sibling = T.eq(T.bv_add(x, y), _c((model[x] + model[y]) % 256))
    assert solver.check(hard, sibling) == "sat"
    assert _sat_solves(solver) == 1
    assert solver.stats.elide_hits_model == 1
    # model() after an elided check returns the witnessing assignment.
    m = solver.model()
    assert (m[x] + m[y]) % 256 == 7


def test_incremental_solver_elides_word_level_unsat():
    solver = Solver(elide=True)
    x = _v("wl_x")
    assert solver.check(T.ult(x, _c(5)), T.uge(x, _c(10))) == "unsat"
    assert _sat_solves(solver) == 0
    assert solver.stats.elide_hits_rewrite == 1


def test_incremental_elision_statuses_match_plain_solver():
    x, y = _v("st_x"), _v("st_y")
    queries = [
        [_hard_atom(x, y, 7)],
        [_hard_atom(x, y, 7), T.ult(x, _c(50))],
        [T.ult(x, _c(5)), T.uge(x, _c(10))],
        [_hard_atom(x, y, 3), T.eq(x, _c(1))],
        [T.eq(x, _c(1)), T.eq(y, _c(1)), _hard_atom(x, y, 9)],
    ]
    elided = Solver(elide=True)
    for q in queries:
        plain = Solver()
        assert elided.check(*q) == plain.check(*q)


# ---------------------------------------------------------------------------
# Canonical solver wiring (UNSAT-only elision)
# ---------------------------------------------------------------------------

def test_canonical_solver_elides_unsat_only():
    cache = SolveCache()
    solver = Solver(cache=cache, elide=True)
    x = _v("can_x")
    assert solver.check(T.ult(x, _c(5)), T.uge(x, _c(10))) == "unsat"
    assert cache.stats.cache_solves == 0
    assert cache.elided_stores == 1
    # SAT queries always reach a real canonical solve...
    assert solver.check(T.uge(x, _c(100))) == "sat"
    assert cache.stats.cache_solves == 1
    # ...so the model is exactly what a fresh canonical solver binds.
    fresh = Solver(cache=SolveCache())
    fresh.check(T.uge(x, _c(100)))
    assert solver.model().as_dict() == fresh.model().as_dict()


def test_canonical_elided_unsat_is_a_cache_entry():
    cache = SolveCache()
    solver = Solver(cache=cache, elide=True)
    x = _v("ce_x")
    contradiction = (T.ult(x, _c(5)), T.uge(x, _c(10)))
    solver.check(*contradiction)
    # The second ask is a plain cache hit; the elider is not consulted.
    before = solver.stats.elide_hits_rewrite
    assert solver.check(*contradiction) == "unsat"
    assert cache.stats.cache_hits == 1
    assert solver.stats.elide_hits_rewrite == before


# ---------------------------------------------------------------------------
# Property: elision never changes an answer
# ---------------------------------------------------------------------------

@st.composite
def _atoms(draw):
    kind = draw(st.sampled_from(
        ["eq_const", "ult_const", "uge_const", "eq_var", "eq_add"]))
    names = ("a", "b", "c")
    x = _v(names[draw(st.integers(0, 2))])
    y = _v(names[draw(st.integers(0, 2))])
    c = _c(draw(st.integers(0, 255)))
    if kind == "eq_const":
        return T.eq(x, c)
    if kind == "ult_const":
        return T.ult(x, c)
    if kind == "uge_const":
        return T.uge(x, c)
    if kind == "eq_var":
        return T.eq(x, y)
    return T.eq(T.bv_add(x, y), c)


@given(st.lists(st.lists(_atoms(), min_size=1, max_size=4),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_warm_elider_statuses_match_fresh_solvers(query_sequence):
    # One long-lived eliding solver sees the whole query sequence (so
    # its caches warm up); every answer must match a fresh plain solver.
    elided = Solver(elide=True)
    canonical = Solver(cache=SolveCache(), elide=True)
    for query in query_sequence:
        expected = Solver().check(*query)
        assert elided.check(*query) == expected
        assert canonical.check(*query) == expected
        if expected == "sat":
            # Elided or not, the incremental solver's model satisfies
            # the query; the canonical solver's equals a fresh solve.
            from repro.smt.evaluate import all_hold
            assert all_hold(query, elided.model().as_dict())
            fresh = Solver(cache=SolveCache())
            fresh.check(*query)
            assert canonical.model().as_dict() == fresh.model().as_dict()
