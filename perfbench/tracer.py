"""Span tracer that times the oracle's layers from outside.

The tracer patches the public entry points of each layer (module
functions and class methods) with thin wrappers.  Every call becomes a
span ``(id, parent, root, name, start, end)`` kept in memory; the
wrapper also folds it into per-name aggregates:

- ``calls``: number of spans with this name;
- ``total_s``: summed duration of the outermost spans with this name
  (a recursive call is not counted twice);
- ``self_s``: summed duration minus the time covered by child spans.

``root`` is the id of the outermost span, so the spans of one request
(one program run, one campaign, one suite replay) share it.  The same
function can report under different names depending on where it is
called from: ``Solver.add`` is canonical CNF construction under
``SolveCache.solve`` and feasibility-plane blasting under
``Solver.check_path``.

Nothing here imports ``repro`` at module import time; :meth:`install`
does, so the tracer stays inert until a traced sample asks for it.
Patches last for the rest of the process: every sample runs in a
fresh interpreter.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        # Calls whose result was not None (cache hits, elided checks).
        self.hits: dict[str, int] = {}
        self._stack: list[list] = []
        self._active: dict[str, int] = {}
        self._next_id = 1

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def _enter(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = self._next_id
        self._next_id = sid + 1
        # [id, name, start, child time, root id, parent frame]
        frame = [sid, name, 0.0, 0.0,
                 parent[4] if parent is not None else sid, parent]
        stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        sid, name, start, child, root, parent = frame
        self._stack.pop()
        depth = self._active[name] - 1
        self._active[name] = depth
        dur = end - start
        self.spans.append((sid, parent[0] if parent is not None else 0,
                           root, name, start, end))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if not depth:
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if parent is not None:
            parent[3] += dur

    def span(self, name_for, fn, count_hits: bool = False):
        """Wrap ``fn``; ``name_for(args)`` names each call's span."""
        enter = self._enter
        leave = self._exit
        hits = self.hits

        def wrapper(*args, **kwargs):
            name = name_for(args)
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if count_hits and result is not None:
                hits[name] = hits.get(name, 0) + 1
            return result

        return wrapper

    @contextmanager
    def region(self, name: str):
        """A span around a block of benchmark code (a root request)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def root_time(self) -> float:
        """Summed duration of spans with no parent."""
        return sum(end - start for _sid, parent, _root, _name, start, end
                   in self.spans if parent == 0)

    # ------------------------------------------------------------------
    # Patching the layers' public entry points
    # ------------------------------------------------------------------

    def patch(self, owner, attr: str, name_for, count_hits=False) -> None:
        """Replace ``owner.attr`` (a module function or a method) with
        a traced wrapper for the rest of the process."""
        setattr(owner, attr,
                self.span(name_for, getattr(owner, attr), count_hits))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import repro.ir as ir
        import repro.oracle.testgen as testgen
        import repro.symex.explorer as explorer
        import repro.testback.runner as runner
        import repro.fuzz.campaign as campaign
        from repro.interp.batch import BatchSimulator
        from repro.smt.cache import SolveCache
        from repro.smt.sat import SatSolver
        from repro.smt.solver import Solver
        from repro.testback import SuiteWriter

        def fixed(name):
            return lambda _args: name

        parent_name = self.parent_name

        def add_name(args):
            parent = parent_name()
            if parent == "smt.cache.solve":
                return "smt.canonical.add"
            if parent == "smt.feasibility.incremental":
                return "smt.feasibility.add"
            return "smt.solver.add"

        def check_name(args):
            if args[0].cache is not None:
                return "smt.query"          # a canonical (model) query
            if parent_name() == "smt.cache.solve":
                return "smt.canonical.check"
            return "smt.solver.check"

        # load_ir is imported by name into the oracle module as well.
        self.patch(ir, "load_ir", fixed("ir.load_ir"))
        self.patch(testgen, "load_ir", fixed("ir.load_ir"))
        self.patch(explorer, "step", fixed("symex.step"))
        self.patch(explorer, "resolve_concolics",
                   fixed("symex.resolve_concolics"))
        self.patch(Solver, "try_elide_path",
                   fixed("smt.feasibility.elide"), count_hits=True)
        self.patch(Solver, "check_path",
                   fixed("smt.feasibility.incremental"))
        self.patch(Solver, "add", add_name)
        self.patch(Solver, "check", check_name)
        self.patch(SolveCache, "key_for", fixed("smt.cache.key_for"))
        self.patch(SolveCache, "peek", fixed("smt.cache.peek"),
                   count_hits=True)
        self.patch(SolveCache, "lookup", fixed("smt.cache.lookup"),
                   count_hits=True)
        self.patch(SolveCache, "solve", fixed("smt.cache.solve"))
        self.patch(SatSolver, "solve", fixed("smt.sat.solve"))
        self.patch(SuiteWriter, "write", fixed("testback.emit"))
        self.patch(runner, "run_suite", fixed("testback.run_suite"))
        self.patch(BatchSimulator, "run_cases",
                   fixed("interp.batch.run_cases"))
        self.patch(campaign, "generate_spec", fixed("fuzz.generate_spec"))
        self.patch(campaign, "run_spec", fixed("fuzz.run_spec"))
        self.patch(campaign, "shrink_spec", fixed("fuzz.shrink_spec"))

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        names = sorted(self.calls)
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s.get(name, 0.0),
                "self_s": self.self_s.get(name, 0.0),
                "hits": self.hits.get(name, 0),
            }
            for name in names
        }

    def write(self, path) -> None:
        """Write every span, oldest first, as compact JSON."""
        doc = {
            "columns": ["id", "parent", "root", "name", "start_s", "end_s"],
            "spans": [list(s) for s in sorted(self.spans)],
            "summary": self.summary(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
