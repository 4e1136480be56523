"""Property tests for the alpha-invariant solve cache.

Hypothesis generates random constraint sets, permutes them, and
consistently renames their variables; the cache key must be invariant
under both, and a cache hit must return exactly the model a fresh
canonical solve would have produced (rebound to the querying set's own
variables).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import SolveCache, Solver, terms as T
from repro.smt.cache import alpha_template, canonical_string

VAR_NAMES = ("a", "b", "c", "d")
WIDTH = 8


def _var(i):
    return T.bv_var(VAR_NAMES[i], WIDTH)


@st.composite
def atoms(draw):
    """One boolean constraint over up to four 8-bit variables."""
    kind = draw(st.sampled_from(["eq_const", "ult_const", "eq_var",
                                 "ult_var", "eq_add"]))
    x = _var(draw(st.integers(0, len(VAR_NAMES) - 1)))
    y = _var(draw(st.integers(0, len(VAR_NAMES) - 1)))
    c = T.bv_const(draw(st.integers(0, 255)), WIDTH)
    if kind == "eq_const":
        return T.eq(x, c)
    if kind == "ult_const":
        return T.ult(x, c)
    if kind == "eq_var":
        return T.eq(x, y)
    if kind == "ult_var":
        return T.ult(x, y)
    return T.eq(T.bv_add(x, y), c)


constraint_sets = st.lists(atoms(), min_size=1, max_size=5)

# a -> renamed_a, b -> renamed_b, ... (order-preserving, so each term's
# canonical_string tie-break order inside the key survives the rename).
RENAMING = {
    _var(i): T.bv_var(f"renamed_{name}", WIDTH)
    for i, name in enumerate(VAR_NAMES)
}


def _rename(term):
    return T.substitute(term, RENAMING)


# ---------------------------------------------------------------------------
# Key invariance
# ---------------------------------------------------------------------------

@given(constraint_sets, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_key_invariant_under_permutation(constraints, rng):
    cache = SolveCache()
    shuffled = list(constraints)
    rng.shuffle(shuffled)
    assert cache.key_for(constraints) == cache.key_for(shuffled)
    assert hash(cache.key_for(constraints)) == hash(cache.key_for(shuffled))
    # The ordered term tuple itself is set-pure, not just the hash.
    assert cache.key_for(constraints).terms == cache.key_for(shuffled).terms


@given(constraint_sets)
@settings(max_examples=60, deadline=None)
def test_key_invariant_under_consistent_renaming(constraints):
    cache = SolveCache()
    renamed = [_rename(t) for t in constraints]
    key, renamed_key = cache.key_for(constraints), cache.key_for(renamed)
    assert key == renamed_key
    assert hash(key) == hash(renamed_key)
    # ...and corresponding var_order slots hold renamed counterparts,
    # which is what makes cross-set model rebinding sound.
    for orig, twin in zip(key.var_order, renamed_key.var_order):
        assert RENAMING[orig] is twin


@given(constraint_sets)
@settings(max_examples=40, deadline=None)
def test_alpha_template_erases_names_canonical_string_keeps_them(constraints):
    for term in constraints:
        renamed = _rename(term)
        assert alpha_template(term)[0] == alpha_template(renamed)[0]
        if term is renamed:
            continue  # simplifier folded the atom to a constant
        assert canonical_string(term) != canonical_string(renamed)


# ---------------------------------------------------------------------------
# Hit models == fresh canonical solve
# ---------------------------------------------------------------------------

@given(constraint_sets, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_hit_model_equals_fresh_canonical_solve(constraints, rng):
    fresh = Solver(cache=SolveCache())
    fresh_status = fresh.check(*constraints)

    cache = SolveCache()
    warm = Solver(cache=cache)
    warm.check(*constraints)
    shuffled = list(constraints)
    rng.shuffle(shuffled)
    assert warm.check(*shuffled) == fresh_status
    assert cache.stats.cache_hits == 1
    if fresh_status == "sat":
        assert warm.model().as_dict() == fresh.model().as_dict()


@given(constraint_sets)
@settings(max_examples=40, deadline=None)
def test_renamed_hit_rebinds_model_to_new_variables(constraints):
    renamed = [_rename(t) for t in constraints]

    cache = SolveCache()
    solver = Solver(cache=cache)
    status = solver.check(*constraints)
    assert solver.check(*renamed) == status
    assert cache.stats.cache_hits == 1, "renamed twin set must hit the same entry"
    if status != "sat":
        return
    # The hit's model speaks about the *renamed* variables, carrying
    # the values of their originals...
    fresh = Solver(cache=SolveCache())
    fresh.check(*constraints)
    original = fresh.model().as_dict()
    hit_model = solver.model().as_dict()
    for var, value in original.items():
        assert hit_model[RENAMING[var]] == value
    # ...and satisfies the renamed constraints (replayed on a plain
    # incremental solver with the model pinned).
    replay = Solver()
    for t in renamed:
        replay.add(t)
    for var, value in hit_model.items():
        replay.add(T.eq(var, T.bv_const(value, var.width)))
    assert replay.check() == "sat"


# ---------------------------------------------------------------------------
# LRU eviction order under alpha-renamed keys
# ---------------------------------------------------------------------------

def _distinct_sets(n):
    """n constraint sets with pairwise-distinct canonical keys."""
    a = _var(0)
    return [[T.eq(a, T.bv_const(i, WIDTH))] for i in range(n)]


@given(
    capacity=st.integers(1, 4),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 5), st.booleans()),
        min_size=1, max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_lru_eviction_order_is_alpha_invariant(capacity, ops):
    """Randomized store/lookup sequences against a capacity-bounded
    cache, mirrored by a reference OrderedDict LRU.  Lookups go through
    *alpha-renamed twins* of the stored sets, so the test fails if
    recency bookkeeping (or eviction) ever keys on variable names
    instead of the canonical template.

    ``ops`` entries are ``(is_store, set_index, use_renamed)``.
    """
    from collections import OrderedDict

    sets = _distinct_sets(6)
    cache = SolveCache(capacity=capacity)
    reference = OrderedDict()  # canon -> None, most recent last
    evictions = 0
    for is_store, idx, use_renamed in ops:
        terms = sets[idx]
        if use_renamed:
            terms = [_rename(t) for t in terms]
        key = cache.key_for(terms)
        if is_store:
            if key.canon not in reference and len(reference) == capacity:
                reference.popitem(last=False)
                evictions += 1
            reference[key.canon] = None
            reference.move_to_end(key.canon)
            cache.store(key, cache.solve(key))
        else:
            hit = cache.lookup(key)
            assert (hit is not None) == (key.canon in reference), (
                f"cache and reference disagree on {idx} "
                f"(renamed={use_renamed})"
            )
            if hit is not None:
                reference.move_to_end(key.canon)
    # Same survivors, same LRU order, same eviction count.
    assert [k.canon for k in cache._entries] == list(reference)
    assert cache.evictions == evictions


@given(constraint_sets)
@settings(max_examples=30, deadline=None)
def test_model_values_keyed_by_index_not_name(constraints):
    # Store via the original set, look up via the renamed twin; the
    # entry is shared, so values must travel by canonical index.
    cache = SolveCache()
    key = cache.key_for(constraints)
    entry = cache.solve(key)
    cache.store(key, entry)

    twin_key = cache.key_for([_rename(t) for t in constraints])
    hit = cache.lookup(twin_key)
    assert hit is entry
    if entry.status == "sat":
        rebound = hit.model_values(twin_key)
        for i, var in enumerate(twin_key.var_order):
            assert rebound[var] == entry.values[i]
