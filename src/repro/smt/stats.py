"""The run record: one place where every solver and exploration event
of a generation run is counted.

One :class:`RunStats` object per run is shared by everything that does
the run's work — the explorer, its pruning solver, its canonical model
solver, its :class:`~repro.smt.cache.SolveCache` and the sub-solvers
that cache spawns, and both solvers' query eliders.  Each writer
increments the record in place, under the key the run report prints,
so ``--stats-json`` shows the record as it was counted.

Counters are split by plane where the planes need telling apart:

- the **feasibility plane** (``feasibility_*``, ``blast_time_s``,
  ``inc_*``): ``Explorer._feasible`` and the pruning solver's
  ``check_path``;
- the **canonical plane** (``cache_*``, ``blast_cache_*``): the
  ``SolveCache`` lookups and miss solves behind every model.

Run totals (``solver_checks``, ``sat_solves``, ``solve_time_s``) are
never counted; :data:`TOTALS` derives them from the plane counters.

A few values are not events of this run but state owned elsewhere: the
pruning ``SatSolver``'s clause-database totals and the process-global
intern-pool and copy-on-write counters.  Their owners register a
reader with :meth:`RunStats.watch`; the record adds the readers'
values whenever it is read, and :meth:`RunStats.freeze` settles them
into the fields once the run is over.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Mapping

__all__ = ["RunStats", "TOTALS"]


@dataclass(eq=False)
class RunStats:
    """The counters of one run (see the module docstring)."""

    # -- exploration: symex/explorer.py ------------------------------------
    steps: int = 0
    paths_finished: int = 0
    paths_pruned: int = 0
    paths_infeasible: int = 0
    tests_emitted: int = 0
    tests_blocked: int = 0
    concolic_failures: int = 0
    step_time: float = 0.0
    finalize_time: float = 0.0
    # -- feasibility plane: Explorer._feasible, Solver.check_path ---------
    # A check is answered by the elider or by a SAT solve; a canonical
    # cache peek settles the status without a check.
    feasibility_checks: int = 0
    feasibility_elided: int = 0
    feasibility_cache_hits: int = 0
    feasibility_sat_solves: int = 0
    feasibility_solve_time_s: float = 0.0
    blast_time_s: float = 0.0
    inc_solves: int = 0
    inc_levels_pushed: int = 0
    inc_levels_popped: int = 0
    # -- canonical plane: SolveCache.lookup / SolveCache.solve ------------
    cache_hits: int = 0
    cache_misses: int = 0
    cache_time_saved_s: float = 0.0
    cache_solves: int = 0
    cache_solve_time_s: float = 0.0
    # Shared bit-blast cache (smt/bitblast.py), as seen by this run's
    # canonical solves.
    blast_cache_hits: int = 0
    blast_cache_misses: int = 0
    blast_clauses_replayed: int = 0
    blast_time_saved_s: float = 0.0
    # -- query elision, both solvers: smt/elide.py ------------------------
    elide_hits_model: int = 0
    elide_hits_rewrite: int = 0
    elide_hits_subsume: int = 0
    elide_misses: int = 0
    rewrite_time_s: float = 0.0
    elide_model_evictions: int = 0
    elide_unsat_evictions: int = 0
    # -- watched: read from their owners when the record is read ----------
    # The pruning SatSolver's incremental-database totals.
    inc_levels_reused: int = 0
    inc_levels_assumed: int = 0
    inc_learned_retained: int = 0
    inc_learned_deleted: int = 0
    inc_clauses_gced: int = 0
    inc_db_reductions: int = 0
    inc_heap_rebuilds: int = 0
    inc_selectors_retired: int = 0
    # Process-global hash-consing (smt/terms.py) and copy-on-write state
    # (symex/state.py) counters, as deltas since the run began.
    intern_hits: int = 0
    intern_misses: int = 0
    state_clones: int = 0
    path_cond_copies: int = 0
    frame_cow_copies: int = 0

    def __post_init__(self):
        self._watched: list[Callable[[], Mapping]] = []

    @classmethod
    def from_dict(cls, values: Mapping) -> "RunStats":
        """A record holding ``values`` (a report's ``stats`` block or
        any part of one); other keys are ignored."""
        run = cls()
        run.merge(values)
        return run

    def watch(self, read: Callable[[], Mapping]) -> None:
        """Add ``read()``'s values to the record whenever it is read."""
        self._watched.append(read)

    def freeze(self) -> None:
        """Settle the watched values into the fields and stop watching."""
        values = self.as_dict()
        self._watched = []
        for key in COUNTERS:
            setattr(self, key, values[key])

    def merge(self, values: Mapping) -> None:
        """Add another run's counters (a dict from :meth:`as_dict`, e.g.
        a worker shard's); derived totals follow from the sum."""
        for key in COUNTERS:
            setattr(self, key, getattr(self, key) + values.get(key, 0))

    def as_dict(self) -> dict:
        """Every counter, the watched values and the derived totals."""
        out = {key: getattr(self, key) for key in COUNTERS}
        for read in self._watched:
            for key, value in read().items():
                out[key] += value
        for total, parts in TOTALS.items():
            out[total] = sum(out[part] for part in parts)
        return out

    @property
    def solver_checks(self) -> int:
        return self.as_dict()["solver_checks"]

    @property
    def sat_solves(self) -> int:
        return self.as_dict()["sat_solves"]

    @property
    def solve_time_s(self) -> float:
        return self.as_dict()["solve_time_s"]

    @property
    def elide_hits(self) -> int:
        """Checks the elider answered, on either plane."""
        return (self.elide_hits_model + self.elide_hits_rewrite
                + self.elide_hits_subsume)


COUNTERS = tuple(f.name for f in fields(RunStats))

# Run totals and the plane counters that add up to them.  A canonical
# check is a cache hit or a cache miss.
TOTALS = {
    "solver_checks": ("feasibility_checks", "cache_hits", "cache_misses"),
    "sat_solves": ("feasibility_sat_solves", "cache_solves"),
    "solve_time_s": ("feasibility_solve_time_s", "cache_solve_time_s"),
}
