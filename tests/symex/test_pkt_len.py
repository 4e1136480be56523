"""Packet-length minimisation: the domain bound agrees with bisection.

``Explorer._choose_pkt_len`` reads the least ``pkt_len`` off the path's
word-level domain (``smt.preprocess.var_domain``) and confirms it with
one canonical solve, bisecting only when the domain is imprecise.  The
reference below is the binary search it replaced, kept verbatim
(followed by the pin re-check the old ``_build_test`` issued), so the
property pins that the chosen length — and hence every emitted test —
is unchanged.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro import TestGenConfig, load_program
from repro.smt import Model, terms as T
from repro.smt.preprocess import var_domain
from repro.symex.explorer import Explorer, _model_eval
from repro.targets import V1Model

PKT_LEN = T.bv_var("pkt*len", 32)
PROGRAM = load_program("fig1a")


def _c(value):
    return T.bv_const(value, 32)


def _explorer():
    return Explorer(PROGRAM, V1Model(), config=TestGenConfig(seed=1))


def _state(input_bits):
    return SimpleNamespace(
        packet=SimpleNamespace(pkt_len=PKT_LEN, input_bits=input_bits))


def _reference(model_solver, state, assumptions, model):
    """The bisection ``_choose_pkt_len`` used before the domain bound,
    then the pin re-check; the chosen length, or None if infeasible."""
    pkt = state.packet
    want = pkt.input_bits
    # Fast path: exactly the consumed bits.
    if model_solver.check(
        *assumptions, T.eq(pkt.pkt_len, T.bv_const(want, 32))
    ) == "sat":
        return want
    # Otherwise binary-search the smallest feasible length in
    # [0, model value], reading the witness value from each SAT
    # model so the final answer is itself feasible.  (Too-short
    # branches and target minimum sizes land here.)
    best = _model_eval(pkt.pkt_len, model)
    lo = 0
    hi = best - 1
    for _ in range(34):
        if lo > hi:
            break
        mid = (lo + hi) // 2
        ok = model_solver.check(
            *assumptions,
            T.ule(pkt.pkt_len, T.bv_const(mid, 32)),
        ) == "sat"
        if ok:
            witness = _model_eval(pkt.pkt_len, model_solver.model())
            best = min(best, witness)
            hi = witness - 1
        else:
            lo = mid + 1
    pin = T.eq(pkt.pkt_len, T.bv_const(best, 32))
    if model_solver.check(*assumptions, pin) != "sat":
        return None
    return best


def _path_model(solver, assumptions, far=False):
    """A model of the path, as the explorer would hand in (zeros if
    infeasible).  ``far`` prefers a large ``pkt_len``, which leaves the
    bisection a wide range to search."""
    floors = (1 << 31, 1 << 14, 4200) if far else ()
    for floor in floors:
        if solver.check(*assumptions, T.uge(PKT_LEN, _c(floor))) == "sat":
            return solver.model()
    if solver.check(*assumptions) == "sat":
        return solver.model()
    return Model({})


_lower = st.sampled_from([0, 8, 64, 112, 512, 520]) | st.integers(0, 4096)
_upper = st.sampled_from([520, 12000, 1 << 31, (1 << 32) - 1]) | st.integers(
    0, 1 << 14)
_atoms = st.one_of(
    st.builds(lambda c: T.uge(PKT_LEN, _c(c)), _lower),
    st.builds(lambda c: T.ult(PKT_LEN, _c(c)), _upper),
    st.builds(lambda c: T.ule(PKT_LEN, _c(c)), _upper),
    st.just(T.eq(T.bv_and(PKT_LEN, _c(7)), _c(0))),
    st.builds(lambda c, flip: T.eq(_c(c), PKT_LEN) if flip
              else T.eq(PKT_LEN, _c(c)), _lower, st.booleans()),
    st.builds(lambda c: T.ne(PKT_LEN, _c(c)), _lower),
    # A too-short window, as ``too_short_constraint`` builds it.
    st.builds(lambda a, n: T.and_(T.uge(PKT_LEN, _c(a)),
                                  T.ult(PKT_LEN, _c(a + n))),
              st.integers(0, 4000), st.integers(1, 96)),
)


def _guard(k):
    """Not a single-variable atom, so invisible to the domain."""
    return T.ne(T.bv_lshr(PKT_LEN, _c(3)), _c(k))


@st.composite
def _conjunct_sets(draw):
    conjuncts = draw(st.lists(_atoms, min_size=1, max_size=4))
    if draw(st.booleans()):
        # A guard on the same byte as a lower bound: the domain's least
        # value is often infeasible, which forces the bisection.
        k = draw(st.integers(0, 520))
        low = 8 * k + draw(st.integers(0, 7))
        conjuncts += [T.uge(PKT_LEN, _c(low)), _guard(k)]
    return draw(st.permutations(conjuncts))


@settings(max_examples=150, deadline=None)
@given(conjuncts=_conjunct_sets(),
       input_bits=st.sampled_from([0, 112, 272, 512]),
       far=st.booleans())
def test_domain_minimum_matches_bisection(conjuncts, input_bits, far):
    state = _state(input_bits)
    reference = _explorer()
    model = _path_model(reference.model_solver, conjuncts, far)
    expected = _reference(reference.model_solver, state, conjuncts, model)
    explorer = _explorer()
    chosen = explorer._choose_pkt_len(state, conjuncts, model)
    if expected is None:
        assert chosen is None
        return
    assert chosen is not None
    length, pinned_model = chosen
    assert length == expected
    assert pinned_model[PKT_LEN] == expected


def _queries(explorer):
    stats = explorer.model_solver.stats
    return stats.cache_hits + stats.cache_misses


def test_precise_domain_needs_one_confirming_query():
    # Tofino's shape: byte-aligned, at least 64 bytes, at most 1500.
    conjuncts = [T.eq(T.bv_and(PKT_LEN, _c(7)), _c(0)),
                 T.ule(PKT_LEN, _c(12000)), T.uge(PKT_LEN, _c(512))]
    explorer = _explorer()
    model = _path_model(explorer.model_solver, conjuncts)
    before = _queries(explorer)
    length, _model = explorer._choose_pkt_len(_state(112), conjuncts, model)
    assert length == 512
    # 112 is below the domain, so the fast path is skipped outright.
    assert _queries(explorer) - before == 1


def test_imprecise_domain_falls_back_to_bisection():
    # The domain says 512, but ``pkt_len >> 3 != 64`` rules out
    # 512..519; the byte-aligned minimum is 520.
    conjuncts = [T.eq(T.bv_and(PKT_LEN, _c(7)), _c(0)),
                 T.uge(PKT_LEN, _c(512)),
                 _guard(64)]
    assert var_domain(conjuncts, PKT_LEN).pick() == 512
    explorer = _explorer()
    model = _path_model(explorer.model_solver, conjuncts)
    before = _queries(explorer)
    length, _model = explorer._choose_pkt_len(_state(0), conjuncts, model)
    assert length == 520
    # Failed confirm, at least one bisection step, then the pin.
    assert _queries(explorer) - before >= 3


def test_var_domain_folds_equalities_and_flattens_conjunctions():
    window = T.and_(T.uge(PKT_LEN, _c(100)), T.ult(PKT_LEN, _c(120)))
    domain = var_domain([window, T.ne(PKT_LEN, _c(100))], PKT_LEN)
    assert (domain.lo, domain.hi, domain.pick()) == (100, 119, 101)
    domain = var_domain([T.eq(_c(12000), PKT_LEN)], PKT_LEN)
    assert (domain.lo, domain.hi) == (12000, 12000)
    # Atoms over other variables are ignored; contradictions give None.
    other = T.bv_var("other", 32)
    assert var_domain([T.ult(other, _c(5))], PKT_LEN).pick() == 0
    assert var_domain([T.eq(PKT_LEN, _c(8)), T.eq(PKT_LEN, _c(16))],
                      PKT_LEN) is None
