"""Solver query elision (the layer in front of bit-blasting).

Most incremental feasibility checks issued during path exploration are
decidable without touching the SAT core: the answer is either witnessed
by a recently found model, implied by a previously proven UNSAT set, or
provable directly at the word level.  :class:`QueryElider` stacks the
three layers, cheapest first:

1. **Model reuse** — the last *K* satisfying assignments are kept; a
   new query is evaluated under each (short-circuiting, most recent
   first, newest conjuncts first so mismatches fail fast).  A hit
   answers SAT with a genuine model in zero blast/solve time.
2. **UNSAT subsumption** — every proven-UNSAT conjunct set is cached
   (the whole set is its own core); any new query that contains a
   cached core as a subset is UNSAT by monotonicity of conjunction.
3. **Word-level rewrite** — :func:`repro.smt.preprocess.\
preprocess_conjuncts` folds constants across conjuncts, propagates
   ``var == const`` equalities, and runs interval/bit-mask analysis.
   Its SAT verdicts come with verified witnesses, which also seed the
   model-reuse cache.

Soundness split (enforced by ``sat_ok``): elided **status** answers are
always exact, but an elided SAT *model* is history-dependent — it is
whatever witness happened to be cached, not the model a canonical solve
would bind.  Solvers whose models reach test output (the canonical,
cache-backed solver) therefore run with ``sat_ok=False`` and elide only
UNSAT answers; full elision is reserved for the incremental
feasibility-pruning solver, where only the status is ever consumed.

The elider counts into the owning solver's run record
(:class:`~repro.smt.stats.RunStats`: ``elide_hits_model`` /
``elide_hits_rewrite`` / ``elide_hits_subsume`` / ``elide_misses``,
``rewrite_time_s``, and eviction counts); both of an explorer's
eliders share that record.
"""

from __future__ import annotations

import time
from collections import OrderedDict

from .evaluate import all_hold
from .preprocess import preprocess_conjuncts

__all__ = ["QueryElider"]

DEFAULT_MODELS = 8
DEFAULT_UNSAT = 64


class QueryElider:
    """Answer solver checks from cached knowledge when sound.

    ``stats`` is the owning solver's :class:`~repro.smt.stats.\
RunStats`; ``max_models`` / ``max_unsat`` bound the two caches
    (0 disables a layer); ``sat_ok=False`` restricts the elider to
    UNSAT answers (see module docstring).
    """

    def __init__(self, stats, max_models: int = DEFAULT_MODELS,
                 max_unsat: int = DEFAULT_UNSAT, sat_ok: bool = True):
        self.stats = stats
        self.max_models = max_models
        self.max_unsat = max_unsat
        self.sat_ok = sat_ok
        self._models: list[dict] = []          # most recent first
        self._unsat_sets: OrderedDict = OrderedDict()  # insertion = age

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------

    def try_answer(self, conjuncts):
        """``("sat", witness)`` / ``("unsat", None)`` / ``(None, None)``.

        A ``"sat"`` answer's witness is a complete assignment the whole
        conjunct set evaluates true under (unmentioned variables are
        implicitly zero).  ``None`` means the caller must solve.
        """
        stats = self.stats
        conjuncts = list(conjuncts)
        if self.sat_ok and self._models:
            # Newest conjunct first: sibling queries share their prefix
            # and differ at the tail, so mismatches fail on conjunct #1.
            tail_first = conjuncts[::-1]
            for i, model in enumerate(self._models):
                if all_hold(tail_first, model):
                    if i:
                        self._models.insert(0, self._models.pop(i))
                    stats.elide_hits_model += 1
                    return "sat", model
        cset = frozenset(conjuncts)
        for core in self._unsat_sets:
            if core <= cset:
                stats.elide_hits_subsume += 1
                return "unsat", None
        t0 = time.perf_counter()
        result = preprocess_conjuncts(conjuncts)
        stats.rewrite_time_s += time.perf_counter() - t0
        if result.status == "unsat":
            stats.elide_hits_rewrite += 1
            self.note_unsat(cset)
            return "unsat", None
        if result.status == "sat" and self.sat_ok:
            stats.elide_hits_rewrite += 1
            self.note_model(result.witness)
            return "sat", result.witness
        stats.elide_misses += 1
        return None, None

    # ------------------------------------------------------------------
    # Feedback side (called after real solves)
    # ------------------------------------------------------------------

    def note_model(self, assignment) -> None:
        """Remember a satisfying assignment for future reuse."""
        if self.max_models <= 0 or assignment is None:
            return
        self._models.insert(0, dict(assignment))
        if len(self._models) > self.max_models:
            self._models.pop()
            self.stats.elide_model_evictions += 1

    def note_unsat(self, conjuncts) -> None:
        """Remember a proven-UNSAT conjunct set as a subsumption core."""
        if self.max_unsat <= 0:
            return
        cset = frozenset(conjuncts)
        if cset in self._unsat_sets:
            self._unsat_sets.move_to_end(cset)
            return
        self._unsat_sets[cset] = None
        if len(self._unsat_sets) > self.max_unsat:
            self._unsat_sets.popitem(last=False)
            self.stats.elide_unsat_evictions += 1
