"""Incremental solver facade — the stand-in for Z3 in this reproduction.

Follows the classic assumption-based incremental scheme: each ``push``
level gets a *selector* SAT variable; assertions at that level become
implications guarded by the selector, and ``check`` solves under the
active selectors as assumptions.  Popping a level simply drops its
selector (and permanently disables it), so the bit-blast cache and all
learned clauses survive across path exploration — mirroring the paper's
use of Z3 "configured with incremental solving" (§6).

The facade also keeps wall-clock statistics so the Fig. 7 benchmark can
report the fraction of CPU time spent in the solver.

Passing a :class:`repro.smt.cache.SolveCache` switches the solver into
*canonical* mode: every ``check`` is answered from the cache (or by a
pure, from-scratch canonical solve on a miss) instead of the
incremental SAT database.  Canonical mode trades incrementality for
memoization and — crucially — for history-independent models, which is
what makes parallel exploration reproduce sequential output exactly.
"""

from __future__ import annotations

import time

from .bitblast import BitBlaster
from .cnf import CnfBuilder
from .elide import QueryElider
from .sat import SAT, UNSAT, SatSolver
from .terms import Term, bool_const, free_vars

__all__ = ["Solver", "Model", "SolverStats", "SolveResult"]


class SolverStats:
    """Aggregate statistics across all checks issued to one Solver."""

    def __init__(self):
        self.checks = 0
        self.sat_answers = 0
        self.unsat_answers = 0
        self.solve_time = 0.0
        self.blast_time = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_time_saved = 0.0
        # Query elision (see smt/elide.py).  ``sat_solves`` counts the
        # checks that actually reached blast+CDCL; checks minus
        # cache_hits minus the three elide_hits_* buckets equals it.
        self.sat_solves = 0
        self.elide_hits_model = 0
        self.elide_hits_rewrite = 0
        self.elide_hits_subsume = 0
        self.elide_misses = 0
        self.rewrite_time_s = 0.0
        self.elide_model_evictions = 0
        self.elide_unsat_evictions = 0
        # Shared bit-blast cache (see smt/bitblast.py): roots answered
        # by replaying a recorded op stream instead of walking the DAG.
        self.blast_cache_hits = 0
        self.blast_cache_misses = 0
        self.blast_clauses_replayed = 0
        self.blast_time_saved_s = 0.0
        # Incremental status plane (incremental=True facades): stack
        # traffic, trail reuse, and clause-database hygiene, mirrored
        # from the underlying SatSolver after each check.
        self.inc_solves = 0
        self.inc_levels_pushed = 0
        self.inc_levels_popped = 0
        self.inc_levels_reused = 0
        self.inc_levels_assumed = 0
        self.inc_learned_retained = 0
        self.inc_learned_deleted = 0
        self.inc_clauses_gced = 0
        self.inc_db_reductions = 0
        self.inc_heap_rebuilds = 0
        self.inc_selectors_retired = 0

    @property
    def total_time(self) -> float:
        return self.solve_time + self.blast_time

    @property
    def elide_hits(self) -> int:
        return (self.elide_hits_model + self.elide_hits_rewrite
                + self.elide_hits_subsume)

    def as_dict(self) -> dict:
        return {
            "checks": self.checks,
            "sat": self.sat_answers,
            "unsat": self.unsat_answers,
            "solve_time_s": self.solve_time,
            "blast_time_s": self.blast_time,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_time_saved_s": self.cache_time_saved,
            "sat_solves": self.sat_solves,
            "elide_hits_model": self.elide_hits_model,
            "elide_hits_rewrite": self.elide_hits_rewrite,
            "elide_hits_subsume": self.elide_hits_subsume,
            "elide_misses": self.elide_misses,
            "rewrite_time_s": self.rewrite_time_s,
            "elide_model_evictions": self.elide_model_evictions,
            "elide_unsat_evictions": self.elide_unsat_evictions,
            "blast_cache_hits": self.blast_cache_hits,
            "blast_cache_misses": self.blast_cache_misses,
            "blast_clauses_replayed": self.blast_clauses_replayed,
            "blast_time_saved_s": self.blast_time_saved_s,
            "inc_solves": self.inc_solves,
            "inc_levels_pushed": self.inc_levels_pushed,
            "inc_levels_popped": self.inc_levels_popped,
            "inc_levels_reused": self.inc_levels_reused,
            "inc_levels_assumed": self.inc_levels_assumed,
            "inc_learned_retained": self.inc_learned_retained,
            "inc_learned_deleted": self.inc_learned_deleted,
            "inc_clauses_gced": self.inc_clauses_gced,
            "inc_db_reductions": self.inc_db_reductions,
            "inc_heap_rebuilds": self.inc_heap_rebuilds,
            "inc_selectors_retired": self.inc_selectors_retired,
        }


class SolveResult(str):
    """The answer to one ``check``: a status plus structured metadata.

    A :class:`SolveResult` *is* its status string (``"sat"`` or
    ``"unsat"``), so every existing comparison — ``res == "sat"``,
    ``res != "sat"``, dict keys, formatting — keeps working unchanged;
    the structured fields ride along:

    - ``status``: the plain status string.
    - ``model``: the :class:`Model` for ``check_and_model`` SAT
      answers; None from plain ``check`` (extract via ``Solver.model``).
    - ``stats``: the owning solver's :class:`SolverStats` at answer
      time.
    """

    __slots__ = ("model", "stats")

    def __new__(cls, status: str, model=None, stats=None):
        self = super().__new__(cls, status)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "stats", stats)
        return self

    @property
    def status(self) -> str:
        return str(self)

    def __setattr__(self, name, value):
        raise AttributeError("SolveResult is immutable")

    def __repr__(self) -> str:
        return f"SolveResult({str(self)!r}, model={self.model!r})"

    def __reduce__(self):
        # Stats hold live solver references; they don't cross pickles.
        return (SolveResult, (str(self), self.model, None))


class Model:
    """A satisfying assignment mapping variable terms to Python values."""

    def __init__(self, values: dict[Term, int | bool]):
        self._values = values

    def __getitem__(self, var: Term) -> int | bool:
        return self._values.get(var, False if var.width == 0 else 0)

    def get(self, var: Term, default=None):
        return self._values.get(var, default)

    def __contains__(self, var: Term) -> bool:
        return var in self._values

    def as_dict(self) -> dict[Term, int | bool]:
        return dict(self._values)

    def __repr__(self) -> str:
        items = ", ".join(
            f"{v.payload}={val:#x}" if isinstance(val, int) and not isinstance(val, bool) else f"{v.payload}={val}"
            for v, val in sorted(self._values.items(), key=lambda kv: str(kv[0].payload))
        )
        return f"Model({items})"


class Solver:
    """Incremental QF_BV solver with push/pop and model extraction."""

    def __init__(self, cache=None, elide: bool = False,
                 blast_share=None, incremental: bool = False):
        self._sat = SatSolver()
        self._builder = CnfBuilder(self._sat)
        self._blaster = BitBlaster(self._builder)
        # Incremental status plane: new clauses attach to the live SAT
        # trail, checks reuse the assumption-compatible trail prefix,
        # and pop() retires selectors instead of asserting them false —
        # so learned clauses and most of the trail survive across
        # sibling checks.  Status answers are identical either way;
        # models become history-dependent, so this mode is only for
        # callers that consume statuses (the explorer's feasibility
        # plane) and it is ignored in canonical (cache) mode.
        self.incremental = bool(incremental) and cache is None
        if self.incremental:
            self._sat.keep_trail_on_add = True
        # Shared blast cache (smt/bitblast.py): sound only while this
        # solver's op stream is a pure function of the base assertion
        # sequence, so the cursor detaches on push() or extras blasting.
        self._share = blast_share
        self._share_node = blast_share.root if blast_share is not None else None
        # Stack of (selector literal, asserted terms) per level; level 0
        # assertions are added as hard unit clauses.
        self._levels: list[tuple[int | None, list[Term]]] = []
        self._base_assertions: list[Term] = []
        self._last_assumptions: list[Term] = []
        # Canonical mode (see module docstring): answers come from the
        # SolveCache; the incremental SAT machinery stays idle.
        self.cache = cache
        self._cached_model: Model | None = None
        self.stats = SolverStats()
        # Query elision (smt/elide.py).  In canonical mode only UNSAT
        # answers may be elided (sat_ok=False): an elided SAT model is
        # whatever witness was cached, not the history-independent model
        # a canonical solve binds, and canonical models reach test
        # output.  The incremental solver consumes only the status, so
        # it gets the full pipeline.
        self.elider = None
        if elide:
            self.elider = QueryElider(self.stats, sat_ok=cache is None)
        self._elided_model: dict | None = None

    # ------------------------------------------------------------------
    # Assertion stack
    # ------------------------------------------------------------------

    def push(self) -> None:
        selector = None if self.cache is not None else self._sat.new_var()
        self._share_node = None  # selector vars desync the replay stream
        self._levels.append((selector, []))
        if self.incremental:
            self.stats.inc_levels_pushed += 1

    def pop(self, n: int = 1) -> None:
        for _ in range(n):
            if not self._levels:
                raise IndexError("pop from empty assertion stack")
            selector, _terms = self._levels.pop()
            # Permanently disable the selector so guarded clauses are
            # satisfied forever after.  The incremental plane retires it
            # (no unit clause, trail survives, clauses get GC'd); the
            # one-shot plane asserts it false at level 0.
            if selector is not None:
                if self.incremental:
                    self._sat.retire_selector(selector)
                    self.stats.inc_levels_popped += 1
                else:
                    self._sat.add_clause([-selector])

    @property
    def depth(self) -> int:
        return len(self._levels)

    def add(self, term: Term) -> None:
        """Assert a boolean term at the current level."""
        if term.width != 0:
            raise TypeError("assertions must be boolean terms")
        if self.cache is not None:
            # Canonical mode: record only; checks key on the term set.
            if self._levels:
                self._levels[-1][1].append(term)
            else:
                self._base_assertions.append(term)
            return
        t0 = time.perf_counter()
        share = self._share
        node = None
        if share is not None and self._share_node is not None:
            if self._levels:
                self._share_node = None  # guarded clauses break replay
            else:
                node = share.descend(self._share_node, term)
                self._share_node = node
        if node is not None:
            hits0 = share.hits
            replayed0 = share.clauses_replayed
            saved0 = share.time_saved_s
            lit = share.blast_assert(node, term, self._blaster)
            stats = self.stats
            if share.hits > hits0:
                stats.blast_cache_hits += 1
            else:
                stats.blast_cache_misses += 1
            stats.blast_clauses_replayed += share.clauses_replayed - replayed0
            stats.blast_time_saved_s += share.time_saved_s - saved0
        else:
            lit = self._blaster.blast_bool(term)
        self.stats.blast_time += time.perf_counter() - t0
        if self._levels:
            selector, terms = self._levels[-1]
            terms.append(term)
            self._sat.add_clause([-selector, lit])
        else:
            self._base_assertions.append(term)
            self._sat.add_clause([lit])

    def assertions(self) -> list[Term]:
        out = list(self._base_assertions)
        for _sel, terms in self._levels:
            out.extend(terms)
        return out

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def check(self, *extra: Term) -> "SolveResult":
        """Returns the :class:`SolveResult` for the current assertions
        (comparable to ``"sat"``/``"unsat"`` like the plain string it
        replaced).

        ``extra`` terms are treated as one-shot assumptions that do not
        persist after the call.
        """
        if self.cache is not None:
            return self._check_canonical(extra)
        # Solving can learn level-0 facts (and extras blast one-shot
        # gates), after which recorded op streams would no longer
        # reproduce this solver's state: stop record/replay here.  The
        # canonical sub-solver checks once, after all adds, so its
        # whole assertion sequence still goes through the share.
        self._share_node = None
        self._elided_model = None
        conjuncts = None
        if self.elider is not None:
            conjuncts = self.assertions() + list(extra)
            status, witness = self.elider.try_answer(conjuncts)
            if status is not None:
                self._last_assumptions = list(extra)
                self.stats.checks += 1
                if status == "sat":
                    self.stats.sat_answers += 1
                    self._elided_model = witness
                else:
                    self.stats.unsat_answers += 1
                return SolveResult(status, stats=self.stats)
        assumptions = [sel for sel, _terms in self._levels]
        t0 = time.perf_counter()
        for term in extra:
            lit = self._blaster.blast_bool(term)
            assumptions.append(lit)
        self.stats.blast_time += time.perf_counter() - t0
        self._last_assumptions = list(extra)

        t0 = time.perf_counter()
        res = self._sat.solve(assumptions, reuse_trail=self.incremental)
        self.stats.solve_time += time.perf_counter() - t0
        if self.incremental:
            self._sync_incremental_stats()
        self.stats.checks += 1
        self.stats.sat_solves += 1
        if res == SAT:
            self.stats.sat_answers += 1
        else:
            self.stats.unsat_answers += 1
        if self.elider is not None:
            # Feed the real answer back so future sibling queries elide.
            if res == SAT:
                self.elider.note_model(self.model().as_dict())
            else:
                self.elider.note_unsat(conjuncts)
        return SolveResult("sat" if res == SAT else "unsat", stats=self.stats)

    def try_elide_path(self, conjuncts: list[Term]) -> "SolveResult | None":
        """Elision-only attempt at a conjunct-list check (no blasting).

        The incremental status plane consults the elider *before*
        syncing its assertion stack, so conjuncts of elided checks are
        never blasted — matching the one-shot plane, where elision
        short-circuits ahead of the extras blast.  Returns None on an
        elider miss (no check is recorded; the caller follows up with
        :meth:`check_path` or answers from elsewhere).
        """
        if self.elider is None:
            return None
        status, witness = self.elider.try_answer(conjuncts)
        if status is None:
            return None
        self._elided_model = witness if status == "sat" else None
        self._last_assumptions = []
        self.stats.checks += 1
        if status == "sat":
            self.stats.sat_answers += 1
        else:
            self.stats.unsat_answers += 1
        return SolveResult(status, stats=self.stats)

    def check_path(self, conjuncts: list[Term]) -> "SolveResult":
        """Incremental-plane check of an explicit conjunct list.

        Syncs the assertion stack to ``conjuncts`` — pop the stale
        suffix (retiring those selectors), push one level per new
        conjunct — and solves under the active selectors, reusing the
        SAT trail prefix shared with the previous check.  Callers that
        want elision must try :meth:`try_elide_path` first; this method
        always reaches the SAT core.
        """
        if not self.incremental:
            raise RuntimeError("check_path requires an incremental solver")
        self._share_node = None
        self._elided_model = None
        common = 0
        for (_sel, terms), want in zip(self._levels, conjuncts):
            if len(terms) == 1 and (terms[0] is want or terms[0] == want):
                common += 1
            else:
                break
        if len(self._levels) > common:
            self.pop(len(self._levels) - common)
        for term in conjuncts[common:]:
            self.push()
            self.add(term)
        assumptions = [sel for sel, _terms in self._levels]
        self._last_assumptions = []
        t0 = time.perf_counter()
        res = self._sat.solve(assumptions, reuse_trail=True)
        self.stats.solve_time += time.perf_counter() - t0
        self._sync_incremental_stats()
        self.stats.checks += 1
        self.stats.sat_solves += 1
        if res == SAT:
            self.stats.sat_answers += 1
        else:
            self.stats.unsat_answers += 1
        if self.elider is not None:
            if res == SAT:
                self.elider.note_model(self.model().as_dict())
            else:
                self.elider.note_unsat(conjuncts)
        return SolveResult("sat" if res == SAT else "unsat", stats=self.stats)

    def _sync_incremental_stats(self) -> None:
        """Mirror the SatSolver's incremental counters (running totals)
        into this facade's stats after a native solve."""
        sat_stats = self._sat.stats
        st = self.stats
        st.inc_solves += 1
        st.inc_levels_reused = sat_stats["levels_reused"]
        st.inc_levels_assumed = sat_stats["levels_assumed"]
        st.inc_clauses_gced = sat_stats["clauses_gced"]
        st.inc_learned_deleted = sat_stats["learned_deleted"]
        st.inc_db_reductions = sat_stats["db_reductions"]
        st.inc_heap_rebuilds = sat_stats["heap_rebuilds"]
        st.inc_selectors_retired = sat_stats["selectors_retired"]
        st.inc_learned_retained = len(self._sat._learned)

    def _check_canonical(self, extra: tuple[Term, ...]) -> "SolveResult":
        """Canonical-mode check: answer from the SolveCache."""
        cache = self.cache
        self._last_assumptions = list(extra)
        self._elided_model = None
        key = cache.key_for(self.assertions() + list(extra))
        entry = cache.lookup(key)
        self.stats.checks += 1
        if entry is not None:
            self.stats.cache_hits += 1
            self.stats.cache_time_saved += entry.solve_time
        else:
            self.stats.cache_misses += 1
            entry = None
            if self.elider is not None:
                # UNSAT-only elision (sat_ok=False): an "unsat" verdict
                # is answer-identical to what a canonical solve would
                # return, so storing it keeps the cache history-free.
                status, _witness = self.elider.try_answer(key.terms)
                if status == "unsat":
                    entry = cache.store_elided(key, "unsat")
            if entry is None:
                t0 = time.perf_counter()
                entry = cache.solve(key)
                self.stats.solve_time += time.perf_counter() - t0
                self.stats.sat_solves += 1
                cache.store(key, entry)
                if self.elider is not None and entry.status == "unsat":
                    self.elider.note_unsat(key.terms)
        if entry.status == "sat":
            self.stats.sat_answers += 1
            # Rebind the index-keyed cached model to this query's own
            # variable terms (a hit may come from a renamed twin set).
            self._cached_model = Model(entry.model_values(key))
        else:
            self.stats.unsat_answers += 1
            self._cached_model = None
        return SolveResult(entry.status, stats=self.stats)

    def model(self, variables=None) -> Model:
        """Extract a model after a "sat" answer.

        ``variables``: iterable of variable terms to extract; defaults
        to every variable that appeared in any assertion or in the most
        recent ``check`` call's one-shot assumptions.
        """
        if self.cache is not None:
            m = self._cached_model
            if m is None:
                raise RuntimeError("model() requires a preceding sat check")
            if variables is None:
                return m
            return Model({v: m[v] for v in variables})
        if self._elided_model is not None:
            # The last check was answered by the elider; its witness is
            # the model (unmentioned variables read as zero/False, which
            # Model's lookup default already provides).
            m = Model(dict(self._elided_model))
            if variables is None:
                return m
            return Model({v: m[v] for v in variables})
        assignment = self._sat.model()
        if variables is None:
            variables = set()
            for term in self.assertions():
                variables |= free_vars(term)
            for term in self._last_assumptions:
                variables |= free_vars(term)
        values: dict[Term, int | bool] = {}
        for var in variables:
            if var.width == 0:
                lit = self._blaster.bool_var_lit(var)
                values[var] = assignment.get(abs(lit), False) ^ (lit < 0) if lit else False
            else:
                bits = self._blaster.var_bits(var)
                if bits is None:
                    values[var] = 0
                    continue
                v = 0
                for i, lit in enumerate(bits):
                    bit = assignment.get(abs(lit), False)
                    if lit < 0:
                        bit = not bit
                    if bit:
                        v |= 1 << i
                values[var] = v
        return Model(values)

    # Convenience ------------------------------------------------------

    def check_and_model(self, *extra: Term) -> "SolveResult":
        """One-shot check with the model attached to the result.

        Returns a :class:`SolveResult`; ``result.model`` is the
        :class:`Model` on SAT and None otherwise.
        """
        status = self.check(*extra)
        if status != "sat":
            return SolveResult(str(status), model=None, stats=self.stats)
        # NOTE: when extra assumptions were used the SAT trail already
        # reflects them at the moment of model extraction.
        return SolveResult(str(status), model=self.model(), stats=self.stats)


def quick_check(terms: list[Term]) -> tuple[str, Model | None]:
    """Solve a list of boolean terms with a throwaway solver."""
    s = Solver()
    for t in terms:
        s.add(t)
    status = s.check()
    return (status, s.model() if status == "sat" else None)
