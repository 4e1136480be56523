"""Property: the incremental status plane and a from-scratch solver
agree on every sat/unsat verdict.

Two drivers, mirroring the two ways the engine reaches the incremental
plane:

- ``push``/``add``/``pop``/``check`` in random stack orders (the
  generic facade API), and
- ``check_path`` over randomly evolving conjunct lists (the explorer's
  feasibility calls, where consecutive lists share DFS prefixes).

The reference is always a fresh one-shot :class:`Solver` built from
nothing for each query — no retained trail, no learned clauses, no
selectors — so any divergence pins the incremental machinery itself.
Models are deliberately *not* compared: incremental models are
history-dependent by design, which is exactly why emitted tests only
ever take models from the canonical plane (see DESIGN.md).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import Solver, terms as T

WIDTH = 8
NUM_VARS = 3


def _vars():
    return [T.bv_var(f"ip_{i}", WIDTH) for i in range(NUM_VARS)]


def _constraint(variables, code):
    kind, vi, value = code
    var = variables[vi]
    const = T.bv_const(value, WIDTH)
    if kind == 0:
        return T.eq(var, const)
    if kind == 1:
        return T.ne(var, const)
    if kind == 2:
        return T.ult(var, const)
    return T.uge(var, const)


constraint_codes = st.tuples(st.integers(0, 3),
                             st.integers(0, NUM_VARS - 1),
                             st.integers(0, 2 ** WIDTH - 1))

# An op is push-with-constraint, pop, or check.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), constraint_codes),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("check"), st.none()),
    ),
    min_size=1, max_size=24,
)


def _fresh_verdict(active):
    ref = Solver()
    for term in active:
        ref.add(term)
    return ref.check().status


@given(sequence=ops)
@settings(max_examples=60, deadline=None)
def test_incremental_stack_agrees_with_fresh_solver(sequence):
    variables = _vars()
    inc = Solver(incremental=True)
    stack: list = []
    for op, payload in sequence:
        if op == "push":
            term = _constraint(variables, payload)
            inc.push()
            inc.add(term)
            stack.append(term)
        elif op == "pop":
            if not stack:
                continue
            inc.pop()
            stack.pop()
        else:
            assert inc.check().status == _fresh_verdict(stack)
    # Final state must also agree, whatever the op tail was.
    assert inc.check().status == _fresh_verdict(stack)


# Conjunct-list evolution: extend, truncate to a random prefix (the
# DFS backtrack shape), or replace the tail (sibling branch shape).
path_ops = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), constraint_codes),
        st.tuples(st.just("truncate"), st.integers(0, 23)),
        st.tuples(st.just("sibling"), constraint_codes),
    ),
    min_size=1, max_size=20,
)


@given(sequence=path_ops)
@settings(max_examples=60, deadline=None)
def test_check_path_agrees_with_fresh_solver(sequence):
    variables = _vars()
    inc = Solver(incremental=True)
    conjuncts: list = []
    for op, payload in sequence:
        if op == "extend":
            conjuncts.append(_constraint(variables, payload))
        elif op == "truncate":
            conjuncts = conjuncts[:payload % (len(conjuncts) + 1)]
        else:
            term = _constraint(variables, payload)
            conjuncts = conjuncts[:-1] + [term] if conjuncts else [term]
        got = inc.check_path(list(conjuncts)).status
        assert got == _fresh_verdict(conjuncts), (
            f"diverged on {[str(c) for c in conjuncts]}"
        )


def test_check_path_on_a_one_shot_solver_keeps_no_state():
    # Without the incremental plane, check_path blasts the conjuncts as
    # one-shot assumptions: no level survives the call.
    x = _vars()[0]
    one, two = T.eq(x, T.bv_const(1, WIDTH)), T.eq(x, T.bv_const(2, WIDTH))
    solver = Solver()
    assert solver.check_path([one]) == "sat"
    assert solver.check_path([one, two]) == "unsat"
    assert solver.check_path([two]) == "sat"
    assert solver.depth == 0
    assert solver.stats.feasibility_sat_solves == 3
    assert solver.stats.inc_solves == 0
