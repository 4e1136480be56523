"""Property tests for the hash-consed intern pool (smt/terms.py).

The contract under test, in decreasing order of subtlety:

- building the same term twice yields the *same object* (structural
  equality collapses to identity);
- terms that straddle a pool clear still compare correctly (the
  generation counter prevents stale identity assumptions);
- the pool is weak: it retains nothing once the program lets go, so
  back-to-back Engine runs do not accumulate terms;
- the repr and substitute walkers stay linear on shared/deep DAGs.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import SolveCache, terms as T

WIDTH = 8

_leaf = st.one_of(
    st.tuples(st.just("var"), st.sampled_from("abcd")),
    st.tuples(st.just("const"), st.integers(0, 255)),
)
_recipe = st.recursive(
    _leaf,
    lambda r: st.one_of(
        st.tuples(st.just("add"), r, r),
        st.tuples(st.just("xor"), r, r),
        st.tuples(st.just("and"), r, r),
        st.tuples(st.just("ite"), r, r, r),
    ),
    max_leaves=12,
)


def _build(recipe):
    """Interpret a recipe tree into a bitvector term.

    Each call constructs every node afresh, so two interpretations of
    the same recipe are independent builds of one structural term.
    """
    tag = recipe[0]
    if tag == "var":
        return T.bv_var(recipe[1], WIDTH)
    if tag == "const":
        return T.bv_const(recipe[1], WIDTH)
    x = _build(recipe[1])
    y = _build(recipe[2])
    if tag == "add":
        return T.bv_add(x, y)
    if tag == "xor":
        return T.bv_xor(x, y)
    if tag == "and":
        return T.bv_and(x, y)
    return T.ite_bv(T.ult(x, y), x, _build(recipe[3]))


# ---------------------------------------------------------------------------
# Structural equality <=> identity
# ---------------------------------------------------------------------------


@given(_recipe)
@settings(max_examples=200)
def test_equal_structure_is_same_object_when_interning(recipe):
    a = _build(recipe)
    b = _build(recipe)
    assert a is b
    assert a == b and hash(a) == hash(b)
    assert a.tid == b.tid


@given(_recipe, _recipe)
@settings(max_examples=100)
def test_distinct_structures_never_compare_equal(r1, r2):
    a = _build(r1)
    b = _build(r2)
    if a is not b:
        # Interning makes identity complete for structural equality:
        # distinct interned objects are structurally distinct.
        assert a != b


@given(_recipe)
@settings(max_examples=50)
def test_pool_clear_preserves_equality(recipe):
    a = _build(recipe)
    T.clear_intern_pool()
    b = _build(recipe)
    # A cleared pool starts a new generation: b is a fresh intern, yet
    # the old term still compares structurally equal to it.
    assert a == b and hash(a) == hash(b)
    assert _build(recipe) is b


# ---------------------------------------------------------------------------
# Interning x alpha-invariant cache keys
# ---------------------------------------------------------------------------


def _rename(term, suffix):
    mapping = {v: T.bv_var(f"{v.payload}_{suffix}", v.width)
               for v in T.free_vars(term)}
    return T.substitute(term, mapping)


@given(st.lists(_recipe, min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_alpha_renamed_keys_collide_and_hit(recipes):
    cons = [t for t in (_build(r) for r in recipes) if t.op != "const"]
    constraints = [T.ult(t, T.bv_const(200, WIDTH)) for t in cons]
    if not constraints:
        return
    cache = SolveCache()
    key1 = cache.key_for(constraints)
    key2 = cache.key_for([_rename(c, "r") for c in constraints])
    assert key1 == key2 and hash(key1) == hash(key2)
    cache.store(key1, cache.solve(key1))
    entry = cache.lookup(key2)
    assert entry is not None
    if entry.status == "sat":
        model = entry.model_values(key2)
        # The rebound model speaks about the *renamed* variables.
        assert set(model) == set(key2.var_order)


# ---------------------------------------------------------------------------
# The pool is weak
# ---------------------------------------------------------------------------


def test_pool_releases_unreachable_terms():
    T.clear_intern_pool()
    gc.collect()
    base = T.intern_pool_size()
    held = [T.bv_add(T.bv_var(f"ephemeral_{i}", WIDTH), T.bv_const(i, WIDTH))
            for i in range(64)]
    assert T.intern_pool_size() >= base + 64
    del held
    gc.collect()
    # Everything unique to the comprehension is collectable; allow a
    # little slack for interpreter-held residue.
    assert T.intern_pool_size() <= base + 8


def test_pool_does_not_grow_across_engine_runs():
    from repro import TestGen, TestGenConfig, load_program
    from repro.targets import get_target

    def run_once():
        gen = TestGen(load_program("fig1a"), target=get_target("v1model"),
                      config=TestGenConfig(seed=3, max_tests=4))
        gen.run()
        del gen
        gc.collect()
        return T.intern_pool_size()

    first = run_once()
    for _ in range(2):
        last = run_once()
    # Steady state: repeated identical runs must not accumulate terms
    # (the pool is weak and per-run scopes free their variables).
    assert last <= first + 16


# ---------------------------------------------------------------------------
# Walkers stay linear (satellites: repr, substitute)
# ---------------------------------------------------------------------------


def test_repr_of_exponentially_shared_dag_is_small():
    t = T.bv_var("x", WIDTH)
    for _ in range(40):
        t = T.bv_add(t, t)  # 2**40 paths, 41 nodes
    text = repr(t)
    assert len(text) < 20_000
    assert "%0" in text  # shared nodes rendered via let-labels


def test_repr_of_huge_dag_summarizes():
    t = T.bv_var("x", WIDTH)
    for i in range(600):
        t = T.bv_add(t, T.bv_var(f"x{i}", WIDTH))
    assert "nodes" in repr(t)  # summary form past the node budget


def test_substitute_handles_deep_chains():
    t = T.bv_var("x", WIDTH)
    for i in range(6000):
        t = T.bv_add(t, T.bv_const((i % 255) + 1, WIDTH))
    out = T.substitute(t, {T.bv_var("x", WIDTH): T.bv_const(7, WIDTH)})
    assert out is not t  # no RecursionError, substitution applied
    assert not T.free_vars(out)


def test_free_vars_handles_deep_chains():
    t = T.bool_var("p")
    for i in range(6000):
        t = T.ite_bool(T.bool_var(f"q{i}"), t, T.bool_var("z"))
    assert len(T.free_vars(t)) == 6002
