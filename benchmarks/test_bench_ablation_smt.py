"""Ablation: constructor-time term simplification in the SMT substrate.

An interesting negative-space result: our Tseitin gate layer already
constant-folds (an AND with a false input emits no clauses), so turning
the *term-level* simplifier off barely changes CNF size.  What the term
simplifier still buys, and what this benchmark measures on a real
generation run, is:

- constraints that fold to constants never reach the solver at all
  (``add_constraint`` prunes them), so the solver is called less often;
- the hash-consed term DAG stays roughly half the size;
- taint mitigation 1 ('tainted * 0 == 0', §5.3) only exists at the
  term level — the gate layer runs far too late to stop taint spread.
"""

from _util import once, report

from repro import TestGen, TestGenConfig, load_program
from repro.smt import terms as T
from repro.targets import V1Model


def _run():
    import time

    t0 = time.perf_counter()
    gen = TestGen(load_program("middleblock"), target=V1Model(),
                  config=TestGenConfig(seed=1, max_tests=60))
    explorer = gen.explorer()
    tests = list(explorer.run())
    return {
        "tests": len(tests),
        "wall_s": time.perf_counter() - t0,
        "checks": explorer.stats.solver_checks,
        "interned_terms": T.intern_pool_size(),
    }


def test_ablation_smt_simplifier(benchmark):
    def run():
        results = {}
        T.clear_intern_pool()
        T.set_simplify(True)
        results["simplify on"] = _run()
        T.clear_intern_pool()
        T.set_simplify(False)
        try:
            results["simplify off"] = _run()
        finally:
            T.set_simplify(True)
            T.clear_intern_pool()
        return results

    results = once(benchmark, run)
    lines = ["| Simplifier   | Tests | Solver checks | Term DAG | Wall time |"]
    for label, r in results.items():
        lines.append(
            f"| {label:12s} | {r['tests']:5d} | {r['checks']:13d} | "
            f"{r['interned_terms']:8d} | {r['wall_s']:8.2f}s |"
        )
    lines.append("")
    lines.append("note: the Tseitin layer constant-folds gates, so CNF size")
    lines.append("is insensitive; the simplifier's value is avoided solver")
    lines.append("calls, a smaller term DAG, and taint mitigation 1 (§5.3).")
    report("ablation_smt", lines)

    on, off = results["simplify on"], results["simplify off"]
    assert on["tests"] == off["tests"]  # semantics preserved
    assert on["checks"] <= off["checks"], (
        "the simplifier must not increase solver traffic"
    )
    assert on["interned_terms"] < off["interned_terms"], (
        "the simplifier should shrink the term DAG"
    )


def test_taint_mitigation_needs_term_simplifier(benchmark):
    """Mitigation 1 lives in the term layer: tainted*0 folds to a
    constant, which clears the taint mask; without simplification the
    taint sticks."""
    from repro.symex import taint as TT
    from repro.symex.value import SymVal

    def run():
        a = SymVal(T.bv_var("abl_a", 8), 0xFF)  # fully tainted
        zero = SymVal(T.bv_const(0, 8), 0)
        T.set_simplify(True)
        term_on = T.bv_mul(a.term, zero.term)
        taint_on = TT.binop_taint("*", a, zero, term_on)
        T.set_simplify(False)
        try:
            term_off = T.bv_mul(a.term, zero.term)
            taint_off = TT.binop_taint("*", a, zero, term_off)
        finally:
            T.set_simplify(True)
        return taint_on, taint_off

    taint_on, taint_off = once(benchmark, run)
    assert taint_on == 0, "simplifier clears taint of x*0"
    assert taint_off == 0xFF, "without it, taint spreads"
