"""Canonical solve cache (amortizing solver work across paths).

Path exploration re-solves heavily overlapping constraint sets: sibling
paths share their whole prefix, and finalization re-checks the same
assumptions with one extra pin.  :class:`SolveCache` memoizes complete
``check`` answers *and* models, keyed on the canonicalized constraint
set.

Three properties make the cache safe to share across exploration order
and — more importantly — across processes:

- **Canonical keys.**  A query's key is the deduplicated constraint
  set sorted by a structural serialization of the hash-consed term DAG.
  The serialization depends only on term structure, never on Python
  object hashes, so the same constraint set maps to the same key in
  every process.
- **Alpha-invariant keys.**  Variable *names* are anonymized out of the
  key: each variable becomes an index assigned by first occurrence in
  the canonically ordered set (:class:`CacheKey`).  Two constraint sets
  that differ only by a consistent renaming of variables share one
  entry, and a hit's model is rebound to the querying set's own
  variables through the key's ``var_order``.  Key equality implies the
  ordered sets are identical up to that index bijection, which is
  exactly the witness needed for the rebinding to be sound.
- **Pure solves.**  A cache miss is solved by a *fresh* throwaway
  solver that asserts the key's terms in key order and eagerly extracts
  a model for every free variable.  The answer is a pure function of
  the key, and the rebound model a pure function of the queried term
  set: whether a query hits or misses can change timing, never results.
  This is what makes ``jobs=N`` byte-identical to ``jobs=1`` — the
  incremental CDCL solver's models depend on query history, a canonical
  solve's do not.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict

from .stats import RunStats
from .terms import Term, free_vars

__all__ = ["SolveCache", "CacheEntry", "CacheKey", "canonical_string",
           "alpha_template"]

# Full canonical serializations, memoized per (hash-consed) term object.
# Weakly keyed so the memo never outlives the term: with the weak
# intern pool, a strong Term-keyed dict here would silently pin every
# canonicalized term (and its whole sub-DAG) for the process lifetime.
_CANON: "weakref.WeakKeyDictionary[Term, str]" = weakref.WeakKeyDictionary()
# Per-term alpha template: (name-free serialization, local var order).
_ALPHA: "weakref.WeakKeyDictionary[Term, tuple[str, tuple[Term, ...]]]" = (
    weakref.WeakKeyDictionary())


def canonical_string(term: Term) -> str:
    """A process-independent structural serialization of ``term``.

    Nodes are numbered in postorder over the DAG (children before
    parents, shared subterms once), so structurally identical terms —
    which hash-consing makes identical objects — always serialize
    identically, regardless of interpreter hash randomization.  Unlike
    :func:`alpha_template`, variable names are kept: this is the total
    order used to sort a key (and break ties between alpha-equivalent
    terms deterministically).
    """
    cached = _CANON.get(term)
    if cached is not None:
        return cached
    ids: dict[Term, int] = {}
    pieces: list[str] = []
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in ids:
            continue
        if not expanded:
            stack.append((node, True))
            for child in reversed(node.args):
                if child not in ids:
                    stack.append((child, False))
        else:
            arg_ids = ",".join(str(ids[a]) for a in node.args)
            pieces.append(f"{node.op}/{node.width}/{node.payload!r}/{arg_ids}")
            ids[node] = len(ids)
    out = ";".join(pieces)
    _CANON[term] = out
    return out


def alpha_template(term: Term) -> tuple[str, tuple[Term, ...]]:
    """Name-free serialization of ``term`` plus its variable order.

    Variables are replaced by indices assigned in first-occurrence
    postorder, so the string is invariant under any consistent renaming
    while still capturing intra-term variable sharing (``a == a`` and
    ``a == b`` template differently).  Memoized per hash-consed term.
    """
    cached = _ALPHA.get(term)
    if cached is not None:
        return cached
    ids: dict[Term, int] = {}
    var_ids: dict[Term, int] = {}
    pieces: list[str] = []
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in ids:
            continue
        if not expanded:
            stack.append((node, True))
            for child in reversed(node.args):
                if child not in ids:
                    stack.append((child, False))
        else:
            if node.op == "var":
                payload = f"@{var_ids.setdefault(node, len(var_ids))}"
            else:
                payload = repr(node.payload)
            arg_ids = ",".join(str(ids[a]) for a in node.args)
            pieces.append(f"{node.op}/{node.width}/{payload}/{arg_ids}")
            ids[node] = len(ids)
    out = (";".join(pieces), tuple(var_ids))
    _ALPHA[term] = out
    return out


class CacheKey:
    """Alpha-invariant canonical key for one constraint set.

    ``terms`` holds the querying set's actual terms in canonical order
    (iterate the key to assert them); ``var_order`` its variables in
    canonical index order.  Equality and hashing use only ``canon`` —
    the name-free serialization — so renamed-but-equivalent sets
    collide, and ``var_order[i]`` of any two equal keys denote
    corresponding variables.
    """

    __slots__ = ("terms", "canon", "var_order", "_hash")

    def __init__(self, terms: tuple[Term, ...], canon: str,
                 var_order: tuple[Term, ...]):
        self.terms = terms
        self.canon = canon
        self.var_order = var_order
        self._hash = hash(canon)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, CacheKey) and self.canon == other.canon

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CacheKey({len(self.terms)} terms, {len(self.var_order)} vars)"


class CacheEntry:
    """One memoized solve: status, eager model values by canonical
    variable index, and the time the original solve cost (credited as
    savings on every hit)."""

    __slots__ = ("status", "values", "solve_time")

    def __init__(self, status: str, values: tuple | None,
                 solve_time: float):
        self.status = status
        self.values = values
        self.solve_time = solve_time

    def model_values(self, key: CacheKey) -> dict[Term, int | bool]:
        """Rebind the stored model to ``key``'s own variable terms."""
        assert self.values is not None
        return dict(zip(key.var_order, self.values))


class SolveCache:
    """LRU map from canonical constraint sets to :class:`CacheEntry`.

    ``capacity=None`` is unbounded; ``capacity=0`` disables storage but
    keeps the canonical (pure, order-independent) solving discipline —
    useful for measuring cache effectiveness and for deterministic
    parallel runs that cannot afford the memory.

    Lookups and miss solves count into ``stats``, the run record (a
    fresh one unless the caller shares one): ``cache_hits``,
    ``cache_misses`` and ``cache_time_saved_s`` on lookup,
    ``cache_solves`` and ``cache_solve_time_s`` on solve, and — through
    the sub-solver — the shared blast cache's ``blast_cache_*``.
    """

    def __init__(self, capacity: int | None = None,
                 stats: RunStats | None = None):
        self.capacity = capacity
        self.stats = stats if stats is not None else RunStats()
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        self.evictions = 0
        self.elided_stores = 0

    def __len__(self) -> int:
        return len(self._entries)

    def key_for(self, terms) -> CacheKey:
        """Canonical key: dedupe (terms are hash-consed), sort by the
        alpha template (name-aware tie-break), and number variables by
        first occurrence in that order."""
        seen = set()
        uniq = []
        for t in terms:
            if t not in seen:
                seen.add(t)
                uniq.append(t)
        uniq.sort(key=lambda t: (alpha_template(t)[0], canonical_string(t)))
        var_index: dict[Term, int] = {}
        pieces = []
        for t in uniq:
            template, local_vars = alpha_template(t)
            binding = ",".join(
                str(var_index.setdefault(v, len(var_index)))
                for v in local_vars
            )
            pieces.append(f"{template}[{binding}]")
        return CacheKey(tuple(uniq), "|".join(pieces), tuple(var_index))

    def peek(self, key: CacheKey) -> CacheEntry | None:
        """Status-plane lookup: no hit/miss accounting, no LRU motion.

        The incremental feasibility plane peeks before riding its own
        SAT database — a canonical answer for the same constraint set
        (typically from a sibling path's finalization) settles the
        status for free.  Peeks stay out of the hit/miss counters so
        hit-rate reports keep describing canonical checks (the explorer
        counts a useful peek as a ``feasibility_cache_hits``).
        """
        return self._entries.get(key)

    def lookup(self, key: CacheKey) -> CacheEntry | None:
        entry = self._entries.get(key)
        stats = self.stats
        if entry is None:
            stats.cache_misses += 1
            return None
        self._entries.move_to_end(key)
        stats.cache_hits += 1
        stats.cache_time_saved_s += entry.solve_time
        return entry

    def store(self, key: CacheKey, entry: CacheEntry) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def store_elided(self, key: CacheKey, status: str) -> CacheEntry:
        """Store an answer proved by the elision layer without a solve.

        Only status-exact answers may go through here (in practice:
        UNSAT, which has no model to disagree about).  The entry records
        zero solve time, so later hits claim no phantom savings.
        """
        assert status == "unsat", "elided SAT answers must not enter the cache"
        entry = CacheEntry(status, None, 0.0)
        self.store(key, entry)
        self.elided_stores += 1
        return entry

    def solve(self, key: CacheKey) -> CacheEntry:
        """Solve a canonical key from scratch.

        Uses a fresh solver and asserts terms in key order, so the
        answer (including the model, stored by variable index) is a
        pure function of the key.  The fresh solver blasts through the
        process-wide shared blast cache: replayed CNF is bit-identical
        to cold blasting (see smt/bitblast.py), so warm and cold solves
        return the same entry — only faster.
        """
        from .bitblast import shared_blast_cache
        from .solver import Solver

        t0 = time.perf_counter()
        sub = Solver(blast_share=shared_blast_cache(), stats=self.stats)
        for t in key:
            sub.add(t)
        status = sub.check()
        values = None
        if status == "sat":
            variables: set[Term] = set()
            for t in key:
                variables |= free_vars(t)
            model = sub.model(variables)
            values = tuple(model[v] for v in key.var_order)
        took = time.perf_counter() - t0
        self.stats.cache_solves += 1
        self.stats.cache_solve_time_s += took
        return CacheEntry(status, values, took)

    def clear(self) -> None:
        self._entries.clear()
