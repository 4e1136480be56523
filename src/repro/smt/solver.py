"""Incremental solver facade — the stand-in for Z3 in this reproduction.

Follows the classic assumption-based incremental scheme: each ``push``
level gets a *selector* SAT variable; assertions at that level become
implications guarded by the selector, and ``check`` solves under the
active selectors as assumptions.  Popping a level simply drops its
selector (and permanently disables it), so the bit-blast cache and all
learned clauses survive across path exploration — mirroring the paper's
use of Z3 "configured with incremental solving" (§6).

Every solver counts into a :class:`repro.smt.stats.RunStats` record
(its own, unless the caller shares one), so the Fig. 7 benchmark can
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
from .stats import RunStats
from .terms import Term, bool_const, free_vars

__all__ = ["Solver", "Model", "SolveResult"]


class SolveResult(str):
    """The answer to one ``check``: a status plus the model.

    A :class:`SolveResult` *is* its status string (``"sat"`` or
    ``"unsat"``), so every existing comparison — ``res == "sat"``,
    ``res != "sat"``, dict keys, formatting — keeps working unchanged;
    the structured fields ride along:

    - ``status``: the plain status string.
    - ``model``: the :class:`Model` for ``check_and_model`` SAT
      answers; None from plain ``check`` (extract via ``Solver.model``).
    """

    __slots__ = ("model",)

    def __new__(cls, status: str, model=None):
        self = super().__new__(cls, status)
        object.__setattr__(self, "model", model)
        return self

    @property
    def status(self) -> str:
        return str(self)

    def __setattr__(self, name, value):
        raise AttributeError("SolveResult is immutable")

    def __repr__(self) -> str:
        return f"SolveResult({str(self)!r}, model={self.model!r})"

    def __reduce__(self):
        return (SolveResult, (str(self), self.model))


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
                 blast_share=None, incremental: bool = False,
                 stats: RunStats | None = None):
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
        # The run record this solver counts into (see smt/stats.py).
        self.stats = stats if stats is not None else RunStats()
        if self.incremental:
            self._sat.keep_trail_on_add = True
            self.stats.watch(self._database_totals)
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
        share = self._share
        node = None
        if share is not None and self._share_node is not None:
            if self._levels:
                self._share_node = None  # guarded clauses break replay
            else:
                node = share.descend(self._share_node, term)
                self._share_node = node
        if node is not None:
            lit = share.blast_assert(node, term, self._blaster, self.stats)
        else:
            lit = self._blaster.blast_bool(term)
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
                if status == "sat":
                    self._elided_model = witness
                return SolveResult(status)
        assumptions = [sel for sel, _terms in self._levels]
        for term in extra:
            assumptions.append(self._blaster.blast_bool(term))
        self._last_assumptions = list(extra)
        res = self._sat.solve(assumptions, reuse_trail=self.incremental)
        self._note_answer(res, conjuncts)
        return SolveResult("sat" if res == SAT else "unsat")

    def try_elide_path(self, conjuncts: list[Term]) -> "SolveResult | None":
        """Elision-only attempt at a conjunct-list check (no blasting).

        The feasibility plane consults the elider *before* syncing its
        assertion stack, so conjuncts of elided checks are never
        blasted.  Returns None on an elider miss (the caller follows up
        with :meth:`check_path` or answers from elsewhere).
        """
        if self.elider is None:
            return None
        status, witness = self.elider.try_answer(conjuncts)
        if status is None:
            return None
        self._elided_model = witness if status == "sat" else None
        self._last_assumptions = []
        return SolveResult(status)

    def check_path(self, conjuncts: list[Term]) -> "SolveResult":
        """Feasibility-plane check of an explicit conjunct list.

        An incremental solver syncs its assertion stack to
        ``conjuncts`` — pop the stale suffix (retiring those
        selectors), push one level per new conjunct — and solves under
        the active selectors, reusing the SAT trail prefix shared with
        the previous check.  A one-shot solver blasts ``conjuncts`` as
        one-shot assumptions.  Callers that want elision must try
        :meth:`try_elide_path` first; this method always reaches the
        SAT core, and counts the solve under ``feasibility_*``.
        """
        stats = self.stats
        self._share_node = None
        self._elided_model = None
        t0 = time.perf_counter()
        if self.incremental:
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
            self._last_assumptions = []
            assumptions = [sel for sel, _terms in self._levels]
        else:
            self._last_assumptions = list(conjuncts)
            assumptions = [sel for sel, _terms in self._levels]
            for term in conjuncts:
                assumptions.append(self._blaster.blast_bool(term))
            conjuncts = self.assertions() + self._last_assumptions
        t1 = time.perf_counter()
        res = self._sat.solve(assumptions, reuse_trail=self.incremental)
        stats.blast_time_s += t1 - t0
        stats.feasibility_solve_time_s += time.perf_counter() - t1
        stats.feasibility_sat_solves += 1
        if self.incremental:
            stats.inc_solves += 1
        self._note_answer(res, conjuncts)
        return SolveResult("sat" if res == SAT else "unsat")

    def _note_answer(self, res, conjuncts) -> None:
        """Feed a real answer back so future sibling queries elide."""
        if self.elider is None:
            return
        if res == SAT:
            self.elider.note_model(self.model().as_dict())
        else:
            self.elider.note_unsat(conjuncts)

    def _database_totals(self) -> dict:
        """The incremental SAT database's running totals, read by the
        run record (a watched reader, see smt/stats.py)."""
        sat_stats = self._sat.stats
        return {
            "inc_levels_reused": sat_stats["levels_reused"],
            "inc_levels_assumed": sat_stats["levels_assumed"],
            "inc_clauses_gced": sat_stats["clauses_gced"],
            "inc_learned_deleted": sat_stats["learned_deleted"],
            "inc_db_reductions": sat_stats["db_reductions"],
            "inc_heap_rebuilds": sat_stats["heap_rebuilds"],
            "inc_selectors_retired": sat_stats["selectors_retired"],
            "inc_learned_retained": len(self._sat._learned),
        }

    def _check_canonical(self, extra: tuple[Term, ...]) -> "SolveResult":
        """Canonical-mode check: answer from the SolveCache, which
        counts the hit, miss or solve in its run record."""
        cache = self.cache
        self._last_assumptions = list(extra)
        self._elided_model = None
        key = cache.key_for(self.assertions() + list(extra))
        entry = cache.lookup(key)
        if entry is None:
            if self.elider is not None:
                # UNSAT-only elision (sat_ok=False): an "unsat" verdict
                # is answer-identical to what a canonical solve would
                # return, so storing it keeps the cache history-free.
                status, _witness = self.elider.try_answer(key.terms)
                if status == "unsat":
                    entry = cache.store_elided(key, "unsat")
            if entry is None:
                entry = cache.solve(key)
                cache.store(key, entry)
                if self.elider is not None and entry.status == "unsat":
                    self.elider.note_unsat(key.terms)
        if entry.status == "sat":
            # Rebind the index-keyed cached model to this query's own
            # variable terms (a hit may come from a renamed twin set).
            self._cached_model = Model(entry.model_values(key))
        else:
            self._cached_model = None
        return SolveResult(entry.status)

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
            return SolveResult(str(status))
        # NOTE: when extra assumptions were used the SAT trail already
        # reflects them at the moment of model extraction.
        return SolveResult(str(status), model=self.model())


def quick_check(terms: list[Term]) -> tuple[str, Model | None]:
    """Solve a list of boolean terms with a throwaway solver."""
    s = Solver()
    for t in terms:
        s.add(t)
    status = s.check()
    return (status, s.model() if status == "sat" else None)
