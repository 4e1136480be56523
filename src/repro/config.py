"""Run configuration for test generation.

:class:`TestGenConfig` is the single, frozen description of how a test
generation run behaves.  It replaces the keyword arguments that used to
be duplicated (with drifting defaults) across ``TestGen.__init__``,
``TestGen.explorer()``, ``Explorer.__init__`` and the CLI: construct
one config, pass it anywhere.

::

    from repro import TestGen, TestGenConfig, load_program
    from repro.targets import V1Model

    cfg = TestGenConfig(seed=1, max_tests=10, jobs=4)
    gen = TestGen(load_program("fig1a"), target=V1Model(), config=cfg)
    for test in gen.iter_tests():
        ...
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace as _dc_replace

__all__ = ["TestGenConfig"]


@dataclass(frozen=True)
class TestGenConfig:
    """Immutable configuration for one test-generation run.

    Attributes:
        seed: RNG seed; also recorded in every emitted test.
        strategy: frontier policy — ``"dfs"`` (default), ``"random"``,
            or ``"greedy"``.  Only ``"dfs"`` supports ``jobs > 1`` when
            sharding a single program.
        prune_unsat: drop infeasible successors at branch points.
        randomize_values: prefer random (seeded) values for otherwise
            unconstrained control-plane arguments (§3).
        max_tests: stop after this many emitted tests (None = no limit).
        max_paths: stop after this many finished paths (None = no limit).
        stop_at_full_coverage: stop once every statement is covered.
        coverage_goal: stop once statement coverage reaches this
            percentage (None = no goal).  Like the other stop limits it
            is checked at iteration boundaries, so ``jobs > 1`` runs
            truncate on exactly the same test as ``jobs=1``.
        jobs: worker processes; 1 means fully in-process.
        max_steps: safety cap on symbolic-execution steps.  With
            ``jobs > 1`` this is enforced per process, not globally.
        concolic_enabled: resolve concolic placeholders (§5.4); off is
            the concolic ablation, where extern results stay
            unconstrained.
        cache_capacity: max cached solver entries (None = unbounded,
            0 = canonical solving without memoization).  Every model
            comes from a canonical solve either way, which is what
            makes models reproducible across processes.
        elide: enable the query-elision pipeline (word-level rewrite,
            model reuse, UNSAT subsumption — see ``smt/elide.py``) in
            front of the SAT core.  Elision never changes any answer or
            emitted test, only how many checks reach bit-blasting.
        incremental: run feasibility pruning on the incremental status
            plane — the pruning solver's assertion levels mirror the
            DFS stack, so learned clauses and most of the SAT trail
            survive across sibling checks (§6 "incremental solving").
            Only statuses ride the incremental database; models always
            come from canonical solves, so incremental on/off suites
            are byte-identical at any ``jobs``.
        batch_replay: replay generated suites through the lane-packed
            batch interpreter (``repro.interp.batch``) instead of one
            scalar simulator per test.  Classifications are identical
            either way; off disables only the fast path.
    """

    __test__ = False  # not a pytest class, despite the name

    seed: int | None = None
    strategy: str = "dfs"
    prune_unsat: bool = True
    randomize_values: bool = False
    max_tests: int | None = None
    max_paths: int | None = None
    stop_at_full_coverage: bool = False
    coverage_goal: float | None = None
    jobs: int = 1
    max_steps: int = 2_000_000
    concolic_enabled: bool = True
    cache_capacity: int | None = None
    elide: bool = True
    incremental: bool = True
    batch_replay: bool = True

    def replace(self, **overrides) -> "TestGenConfig":
        """A copy of this config with ``overrides`` applied."""
        return _dc_replace(self, **overrides)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values: dict) -> "TestGenConfig":
        return cls(**values)
