"""Integration tests for the Solver facade (bit-blast + CDCL)."""

import pytest

from repro.smt import RunStats, SolveCache, Solver, SolveResult, terms as T


def solve_one(*assertions):
    s = Solver()
    for a in assertions:
        s.add(a)
    return s, s.check()


def test_trivial_sat():
    s, status = solve_one(T.true())
    assert status == "sat"


def test_trivial_unsat():
    s, status = solve_one(T.false())
    assert status == "unsat"


def test_bv_equation():
    a = T.bv_var("a", 8)
    s, status = solve_one(T.eq(T.bv_add(a, T.bv_const(1, 8)), T.bv_const(0, 8)))
    assert status == "sat"
    m = s.model()
    assert m[a] == 255


def test_bv_unsat_equation():
    a = T.bv_var("a", 8)
    s, status = solve_one(
        T.eq(a, T.bv_const(1, 8)),
        T.eq(a, T.bv_const(2, 8)),
    )
    assert status == "unsat"


def test_multiplication():
    a = T.bv_var("a", 8)
    b = T.bv_var("b", 8)
    s, status = solve_one(
        T.eq(T.bv_mul(a, b), T.bv_const(35, 8)),
        T.ult(T.bv_const(1, 8), a),
        T.ult(T.bv_const(1, 8), b),
        T.ult(a, T.bv_const(35, 8)),
        T.ult(b, T.bv_const(35, 8)),
    )
    assert status == "sat"
    m = s.model()
    assert (m[a] * m[b]) % 256 == 35
    assert m[a] > 1 and m[b] > 1


def test_division_circuit():
    a = T.bv_var("a", 8)
    s, status = solve_one(
        T.eq(T.bv_udiv(a, T.bv_const(3, 8)), T.bv_const(5, 8)),
        T.eq(T.bv_urem(a, T.bv_const(3, 8)), T.bv_const(2, 8)),
    )
    assert status == "sat"
    assert s.model()[a] == 17


def test_division_by_zero_semantics():
    a = T.bv_var("a", 8)
    zero = T.bv_const(0, 8)
    # x udiv 0 == 0xFF per SMT-LIB; variable divisor forced to 0.
    d = T.bv_var("d", 8)
    s, status = solve_one(
        T.eq(d, zero),
        T.eq(T.bv_udiv(a, d), T.bv_const(0xFF, 8)),
        T.eq(a, T.bv_const(7, 8)),
    )
    assert status == "sat"


def test_symbolic_shift():
    a = T.bv_var("a", 8)
    n = T.bv_var("n", 8)
    s, status = solve_one(
        T.eq(T.bv_shl(a, n), T.bv_const(0x80, 8)),
        T.eq(a, T.bv_const(1, 8)),
    )
    assert status == "sat"
    assert s.model()[n] == 7


def test_shift_out_of_range():
    a = T.bv_var("a", 8)
    n = T.bv_var("n", 8)
    s, status = solve_one(
        T.eq(n, T.bv_const(9, 8)),
        T.ne(T.bv_shl(a, n), T.bv_const(0, 8)),
    )
    assert status == "unsat"


def test_signed_comparison():
    a = T.bv_var("a", 8)
    s, status = solve_one(
        T.slt(a, T.bv_const(0, 8)),
        T.ult(T.bv_const(0x7F, 8), a),  # consistent: negative = high unsigned
    )
    assert status == "sat"
    assert s.model()[a] >= 0x80


def test_push_pop():
    a = T.bv_var("a", 8)
    s = Solver()
    s.add(T.ult(a, T.bv_const(10, 8)))
    assert s.check() == "sat"
    s.push()
    s.add(T.eq(a, T.bv_const(20, 8)))
    assert s.check() == "unsat"
    s.pop()
    assert s.check() == "sat"
    assert s.model()[a] < 10


def test_nested_push_pop():
    a = T.bv_var("a", 4)
    s = Solver()
    s.push()
    s.add(T.ult(a, T.bv_const(8, 4)))
    s.push()
    s.add(T.uge(a, T.bv_const(8, 4)))
    assert s.check() == "unsat"
    s.pop()
    assert s.check() == "sat"
    s.pop()
    assert s.depth == 0


def test_one_shot_assumptions():
    a = T.bv_var("a", 8)
    s = Solver()
    s.add(T.ult(a, T.bv_const(100, 8)))
    assert s.check(T.eq(a, T.bv_const(200, 8))) == "unsat"
    # The assumption does not persist.
    assert s.check() == "sat"


def test_concat_extract_roundtrip():
    a = T.bv_var("a", 8)
    b = T.bv_var("b", 8)
    ab = T.concat(a, b)
    s, status = solve_one(
        T.eq(ab, T.bv_const(0xBEEF, 16)),
    )
    assert status == "sat"
    m = s.model()
    assert m[a] == 0xBE and m[b] == 0xEF


def test_ite():
    p = T.bool_var("p")
    a = T.bv_var("a", 8)
    s, status = solve_one(
        T.eq(T.ite_bv(p, T.bv_const(1, 8), T.bv_const(2, 8)), a),
        T.eq(a, T.bv_const(2, 8)),
    )
    assert status == "sat"
    assert s.model()[p] is False


def test_stats_accumulate():
    a = T.bv_var("a", 8)
    s = Solver(incremental=True)
    assert s.check_path([T.eq(a, T.bv_const(1, 8))]) == "sat"
    assert s.stats.feasibility_sat_solves == 1
    assert s.stats.feasibility_solve_time_s >= 0.0
    d = s.stats.as_dict()
    assert d["sat_solves"] == 1 and d["inc_solves"] == 1
    assert d["inc_levels_pushed"] == 1


def test_solvers_share_a_run_record():
    a = T.bv_var("a", 8)
    record = RunStats()
    pruning = Solver(incremental=True, stats=record)
    canonical = Solver(cache=SolveCache(stats=record), stats=record)
    pruning.check_path([T.ult(a, T.bv_const(9, 8))])
    canonical.check(T.eq(a, T.bv_const(3, 8)))
    canonical.check(T.eq(a, T.bv_const(3, 8)))
    stats = record.as_dict()
    assert (stats["feasibility_sat_solves"], stats["cache_solves"]) == (1, 1)
    assert (stats["cache_hits"], stats["cache_misses"]) == (1, 1)
    # Totals are derived from the plane counters, never counted twice.
    assert stats["sat_solves"] == 2
    assert stats["solver_checks"] == 2  # no feasibility_checks counted here
    assert stats["solve_time_s"] == (stats["feasibility_solve_time_s"]
                                     + stats["cache_solve_time_s"])
    # The canonical miss solve blasted through the shared blast cache.
    assert stats["blast_cache_hits"] + stats["blast_cache_misses"] >= 1


def test_non_boolean_assertion_rejected():
    s = Solver()
    with pytest.raises(TypeError):
        s.add(T.bv_var("a", 8))


def test_wide_bitvectors():
    # Packet-sized bitvectors (112 bits = Ethernet header) must work.
    pkt = T.bv_var("pkt", 112)
    dst = T.extract(pkt, 111, 64)
    typ = T.extract(pkt, 15, 0)
    s, status = solve_one(
        T.eq(typ, T.bv_const(0xBEEF, 16)),
        T.eq(dst, T.bv_const(0xBADC0FFEE0DD, 48)),
    )
    assert status == "sat"
    m = s.model()
    assert (m[pkt] & 0xFFFF) == 0xBEEF
    assert (m[pkt] >> 64) == 0xBADC0FFEE0DD


# ---------------------------------------------------------------------------
# SolveResult
# ---------------------------------------------------------------------------

def test_solve_result_is_its_status_string():
    s, res = solve_one(T.eq(T.bv_var("a", 8), T.bv_const(5, 8)))
    assert isinstance(res, SolveResult) and isinstance(res, str)
    assert res == "sat" and res != "unsat"
    assert res.status == "sat"
    assert {res: 1}["sat"] == 1  # usable as a dict key


def test_solve_result_is_immutable():
    res = SolveResult("sat")
    with pytest.raises(AttributeError):
        res.model = None


def test_check_and_model_attaches_model():
    a = T.bv_var("a", 8)
    s = Solver()
    s.add(T.eq(a, T.bv_const(5, 8)))
    res = s.check_and_model()
    assert res == "sat" and res.model[a] == 5
    s.add(T.eq(a, T.bv_const(6, 8)))
    res = s.check_and_model()
    assert res == "unsat" and res.model is None


def test_solve_result_pickles_without_stats():
    import pickle

    # A SolveResult is its status plus the model; no solver state rides
    # along, so it crosses a pickle whole.
    res = SolveResult("unsat")
    clone = pickle.loads(pickle.dumps(res))
    assert clone == "unsat" and clone.model is None
    assert not hasattr(clone, "stats")
