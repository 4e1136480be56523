"""Per-run report recording (the Test4DT-style measure half of the
coverage feedback loop).

Every ``generate``/``fuzz``/``bench`` run threads a :class:`Recorder`
through the engine: it captures per-phase wall time, the coverage curve
(coverage vs. tests emitted), the run record
(:class:`repro.smt.RunStats`) and the elision / intern / blast /
solve-cache hit rates derived from it — then serializes everything as
one stable JSON document validated against ``run_report.schema.json``.

Two invariants the tests pin:

- **Schema stability** — reports validate against the checked-in
  schema, so downstream tooling can rely on field names and types.
- **Determinism modulo wall time** — :func:`normalized` strips every
  wall-clock/memory field; what remains is byte-identical for a fixed
  seed at any ``--jobs`` value.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager

from ..smt import RunStats
from .schema import load_schema, validate

__all__ = ["Recorder", "cache_rates", "normalized", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

# Keys a determinism comparison must ignore, matched as substrings of
# the key name at any nesting depth:
#
# - wall-clock / host-load / memory readings ("timeouts" is
#   deliberately caught: external-solver timeouts are wall-dependent);
# - intern-pool and blast-cache counters — those caches are
#   process-global singletons (PR 4), so their hit counts depend on
#   what else already ran in the process, not on the run itself.
_VOLATILE_KEY = re.compile(
    r"time|elapsed|wall|rss|memory|timestamp|intern_|blast_", re.I)


def cache_rates(stats: dict) -> dict:
    """Derive the headline hit rates from a stats dict.

    Rates are plain fractions in [0, 1]; a dead layer (zero
    denominator) reports 0.0 rather than being omitted, so curve
    consumers get a fixed key set.
    """
    def rate(hits, total):
        return round(hits / total, 6) if total else 0.0

    hits = stats.get("cache_hits", 0)
    misses = stats.get("cache_misses", 0)
    elided = RunStats.from_dict(stats).elide_hits
    blast_hits = stats.get("blast_cache_hits", 0)
    blast_total = blast_hits + stats.get("blast_cache_misses", 0)
    intern_hits = stats.get("intern_hits", 0)
    intern_total = intern_hits + stats.get("intern_misses", 0)
    return {
        "solve_cache_hit_rate": rate(hits, hits + misses),
        "query_elision_rate": rate(elided, stats.get("solver_checks", 0)),
        "feasibility_elision_rate": rate(
            stats.get("feasibility_elided", 0),
            stats.get("feasibility_checks", 0)),
        "blast_cache_hit_rate": rate(blast_hits, blast_total),
        "intern_hit_rate": rate(intern_hits, intern_total),
        # Of the assumption levels the incremental feasibility plane
        # solved under, how many arrived pre-established on the reused
        # SAT trail (smt/sat.py reuse_trail)?
        "incremental_reuse_rate": rate(
            stats.get("inc_levels_reused", 0),
            stats.get("inc_levels_assumed", 0)),
    }


def normalized(report):
    """A deep copy of ``report`` with every volatile field removed
    (wall time, memory, process-global cache warmth).  Two runs of the
    same seeded workload must produce equal normalized reports — this
    is the comparison the determinism locks use."""
    if isinstance(report, dict):
        return {
            key: normalized(value)
            for key, value in report.items()
            if not (isinstance(key, str) and _VOLATILE_KEY.search(key))
        }
    if isinstance(report, list):
        return [normalized(item) for item in report]
    return report


class Recorder:
    """Accumulates one run's measurements into a schema-valid report.

    ::

        rec = Recorder("generate", seed=1, program="fig1a.p4",
                       target="v1model")
        with rec.phase("load"):
            program = load_program("fig1a")
        with rec.phase("generate"):
            tests = list(gen.iter_tests())
        rec.record_program_run(gen.last_run, num_tests=len(tests))
        rec.write("report.json")
    """

    def __init__(self, command: str, *, label: str | None = None,
                 seed: int | None = None, program: str | None = None,
                 target: str | None = None, config: dict | None = None):
        self.command = command
        self.label = label
        self.seed = seed
        self.program = program
        self.target = target
        self.config = dict(config) if config is not None else None
        self.num_tests = 0
        self.statement_coverage = 0.0
        self.coverage_curve: list = []
        self.stats: dict = {}
        self.extra: dict = {}
        self._phase_times: dict[str, float] = {}
        self._phase_order: list[str] = []

    # -- phases ---------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Time a phase; repeated phases accumulate."""
        import time

        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.add_phase_time(name, time.perf_counter() - t0)

    def add_phase_time(self, name: str, seconds: float) -> None:
        if name not in self._phase_times:
            self._phase_order.append(name)
            self._phase_times[name] = 0.0
        self._phase_times[name] += seconds

    # -- measurements ---------------------------------------------------

    def record_coverage_curve(self, curve) -> None:
        """Record a coverage curve (``CoverageTracker.curve()`` shape:
        ``[tests, covered, percent]`` points)."""
        self.coverage_curve = [list(point) for point in curve]
        if self.coverage_curve:
            self.statement_coverage = float(self.coverage_curve[-1][2])

    def record_stats(self, stats: dict) -> None:
        self.stats = dict(stats)

    def record_program_run(self, run, *, num_tests: int | None = None) -> None:
        """Capture a finished :class:`repro.engine.ProgramRun` (or any
        object with ``coverage`` and ``stats``): curve, final coverage,
        stats, and the solver-phase split already counted there."""
        self.record_coverage_curve(run.coverage.curve())
        self.statement_coverage = round(run.coverage.statement_percent, 4)
        stats = run.stats.as_dict() if hasattr(run.stats, "as_dict") \
            else dict(run.stats)
        self.record_stats(stats)
        if num_tests is not None:
            self.num_tests = num_tests
        else:
            self.num_tests = int(stats.get("tests_emitted", 0))
        for phase_key, stat_key in (("step", "step_time"),
                                    ("finalize", "finalize_time")):
            if stats.get(stat_key):
                self.add_phase_time(phase_key, float(stats[stat_key]))

    # -- output ---------------------------------------------------------

    def report(self) -> dict:
        """The complete report document (validated against the
        checked-in schema before it is returned)."""
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "run_report",
            "command": self.command,
            "label": self.label,
            "seed": self.seed,
            "program": self.program,
            "target": self.target,
            "config": self.config,
            "num_tests": int(self.num_tests),
            "statement_coverage": float(self.statement_coverage),
            "coverage_curve": self.coverage_curve,
            "phase_times_s": {
                name: round(self._phase_times[name], 6)
                for name in self._phase_order
            },
            "cache_rates": cache_rates(self.stats),
            "stats": self.stats,
        }
        if self.extra:
            doc.update(self.extra)
        validate(doc, load_schema())
        return doc

    def write(self, path) -> dict:
        """Serialize the report to ``path``; returns the report dict."""
        doc = self.report()
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        return doc
