"""QF_BV SMT solver substrate (stand-in for Z3, which the paper uses).

Public surface:

- :mod:`repro.smt.terms` — hash-consed bitvector/boolean term DAG with
  constructor-time simplification;
- :class:`repro.smt.solver.Solver` — incremental solver facade with
  push/pop, assumptions, and model extraction;
- :class:`repro.smt.cache.SolveCache` — canonical solve cache that
  memoizes check answers and models across overlapping queries;
- :class:`repro.smt.stats.RunStats` — the run record every solver and
  the explorer count into;
- :func:`repro.smt.evaluate.evaluate` — concrete big-step evaluation,
  used by the concolic loop and for cross-checking;
- :class:`repro.smt.elide.QueryElider` /
  :func:`repro.smt.preprocess.preprocess_conjuncts` — the query-elision
  pipeline that answers checks before they reach bit-blasting.
"""

from . import terms
from .bitblast import (SharedBlastCache, clear_shared_blast_cache,
                       shared_blast_cache)
from .cache import SolveCache
from .elide import QueryElider
from .evaluate import EvaluationError, all_hold, evaluate, holds
from .preprocess import PreprocessResult, preprocess_conjuncts
from .solver import Model, SolveResult, Solver
from .stats import RunStats
from .terms import clear_intern_pool, intern_stats, reset_intern_stats

__all__ = [
    "terms", "Solver", "Model", "RunStats", "SolveResult", "SolveCache",
    "evaluate", "holds", "all_hold", "EvaluationError",
    "QueryElider", "PreprocessResult", "preprocess_conjuncts",
    "SharedBlastCache", "shared_blast_cache", "clear_shared_blast_cache",
    "intern_stats", "reset_intern_stats", "clear_intern_pool",
]
