"""A CDCL SAT solver with two-watched-literal propagation.

This is the bottom layer of the solver substrate that stands in for Z3.
Features: 1-UIP conflict-clause learning, VSIDS-style activity decay,
phase saving, Luby restarts, and solving under assumptions (which is
how the :class:`repro.smt.solver.Solver` facade implements incremental
push/pop).

Two operating modes share this class:

- **One-shot** (default): every ``add_clause`` and ``solve`` resets the
  trail to decision level 0 first.  Canonical cache-miss solves and the
  blast-cache replay stream depend on this mode being a pure function
  of the clause sequence.
- **Incremental** (``keep_trail_on_add = True``, used by the facade's
  incremental status plane): new clauses attach to the *live* trail,
  ``solve`` keeps the longest prefix of decision levels whose decisions
  are assumptions of the new call, and popped selector variables are
  retired (:meth:`retire_selector`) instead of asserted false — so the
  learned-clause database and most of the trail survive across the
  sibling feasibility checks of a DFS exploration tree.  The long-lived
  database gets the hygiene one-shot solves never needed: clauses
  guarded by retired selectors are garbage-collected, the learned set
  is reduced by activity with a size/LBD keep heuristic, and the lazy
  VSIDS heap is rebuilt when duplicate entries pile up.

Literal encoding: variables are positive integers ``1..n``; a literal
is ``+v`` or ``-v`` (DIMACS convention).
"""

from __future__ import annotations

import heapq

__all__ = ["SatSolver", "SAT", "UNSAT"]

SAT = "sat"
UNSAT = "unsat"


def _luby(i: int) -> int:
    """The Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 1 1 2 ...

    Positions inside a sub-sequence recurse via modulo, not plain
    subtraction — the subtractive variant underflowed for i=4, 5, 8,
    ... (``1 << -1``) as soon as a solve reached its fourth restart.
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class SatSolver:
    """CDCL solver over clauses of DIMACS-style integer literals."""

    def __init__(self):
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        # watches[lit] -> clause indices watching lit (lit indexed by
        # its position in self._watch dict).
        self._watch: dict[int, list[int]] = {}
        self.assign: dict[int, bool] = {}
        self.level: dict[int, int] = {}
        self.reason: dict[int, int | None] = {}
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity: dict[int, float] = {}
        self.var_inc = 1.0
        self.var_decay = 0.95
        # Lazy max-heap of (-activity, var) for O(log n) decisions.
        self._order: list[tuple[float, int]] = []
        self.saved_phase: dict[int, bool] = {}
        self._qhead = 0
        self._ok = True
        # Incremental mode (see module docstring): clauses attach to
        # the live trail and solve() reuses the assumption-compatible
        # trail prefix instead of restarting from level 0.
        self.keep_trail_on_add = False
        # Selectors permanently disabled by the facade's pop(): never
        # decided again; clauses mentioning them are collected once
        # enough have accumulated since the last sweep.
        self._dead_sel: set[int] = set()
        self._dead_pending = 0
        self.gc_dead_threshold = 32
        # Learned-clause metadata for DB reduction: idx -> [activity,
        # lbd].  Metadata is kept in every mode (cheap); reduction only
        # triggers on long-lived incremental databases.
        self._learned: dict[int, list] = {}
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self.max_learned = 2000
        # statistics
        self.stats = {
            "decisions": 0,
            "propagations": 0,
            "conflicts": 0,
            "learned": 0,
            "restarts": 0,
            "solves": 0,
            "levels_reused": 0,
            "levels_assumed": 0,
            "selectors_retired": 0,
            "clauses_gced": 0,
            "learned_deleted": 0,
            "db_reductions": 0,
            "heap_rebuilds": 0,
        }

    # ------------------------------------------------------------------
    # Variable and clause management
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        v = self.num_vars
        self.activity[v] = 0.0
        heapq.heappush(self._order, (0.0, v))
        return v

    def _ensure_vars(self, clause) -> None:
        for lit in clause:
            v = abs(lit)
            while self.num_vars < v:
                self.new_var()

    def add_clause(self, clause: list[int]) -> bool:
        """Add a clause; returns False if the formula became trivially unsat."""
        if not self._ok:
            return False
        if self.trail_lim and not self.keep_trail_on_add:
            # A previous solve() may have left a partial assignment; new
            # clauses are always added at decision level 0.  Incremental
            # mode instead attaches to the live trail (_attach_live) so
            # the kept prefix survives sibling checks.
            self._backjump(0)
        self._ensure_vars(clause)
        # Deduplicate and detect tautology.
        seen: set[int] = set()
        out: list[int] = []
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            if -lit in seen:
                return True  # tautology, clause is vacuous
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if self.trail_lim:
            return self._attach_live(out)
        return self._attach_at_root(out)

    def _watch_new(self, out: list[int]) -> int:
        idx = len(self.clauses)
        self.clauses.append(out)
        self._watch.setdefault(out[0], []).append(idx)
        self._watch.setdefault(out[1], []).append(idx)
        return idx

    def _attach_at_root(self, out: list[int]) -> bool:
        """Add a deduplicated clause with the trail at decision level 0."""
        # Drop literals already false at level 0; satisfied at level 0 -> skip.
        filtered = []
        for lit in out:
            val = self._value(lit)
            if val is True:
                return True
            if val is None:
                filtered.append(lit)
        out = filtered
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            if self._value(out[0]) is False:
                self._ok = False
                return False
            if self._value(out[0]) is None:
                self._enqueue(out[0], None)
                if self._propagate() is not None:
                    self._ok = False
                    return False
            return True
        self._watch_new(out)
        return True

    def _attach_live(self, out: list[int]) -> bool:
        """Attach a clause without resetting the trail (incremental mode).

        The watch invariant requires both watched literals to be
        non-false at attach time (a watcher only wakes when its literal
        *becomes* false); when the live assignment leaves fewer than
        two, back off just far enough to release them instead of
        restarting the whole trail.
        """
        # Literals settled at level 0 are permanent: a true one
        # satisfies the clause forever, false ones can be dropped.
        filtered = []
        for lit in out:
            val = self._value(lit)
            if val is not None and self.level[abs(lit)] == 0:
                if val is True:
                    return True
                continue
            filtered.append(lit)
        out = filtered
        if not out:
            self._ok = False
            return False
        while True:
            if not self.trail_lim:
                return self._attach_at_root(out)
            if len(out) >= 2:
                nonfalse = [lit for lit in out
                            if self._value(lit) is not False]
                if len(nonfalse) >= 2:
                    first, second = nonfalse[0], nonfalse[1]
                    rest = [lit for lit in out
                            if lit != first and lit != second]
                    self._watch_new([first, second] + rest)
                    return True
                # Unit or conflicting under the live assignment: pop to
                # just below the highest falsifying level, which frees
                # at least one more literal, and re-evaluate.
                top = max(self.level[abs(lit)] for lit in out
                          if self._value(lit) is False)
                self._backjump(max(0, top - 1))
                continue
            # A genuine unit clause is a permanent fact; assert it at
            # the root (rare in this mode — Tseitin gate clauses always
            # carry a fresh output literal).
            self._backjump(0)

    # ------------------------------------------------------------------
    # Incremental-database hygiene
    # ------------------------------------------------------------------

    def retire_selector(self, v: int) -> None:
        """Permanently disable selector variable ``v`` (facade pop()).

        Unlike asserting the unit clause ``[-v]`` — which forces the
        trail back to level 0 — retirement unwinds only ``v``'s own
        decision level.  ``_decide`` never picks a dead selector again,
        so every clause guarded by ``v`` stays satisfiable via the
        untouched ``v = False`` phase; the clauses themselves are
        removed by the next :meth:`collect_garbage` sweep.  Sound for
        the status plane only because a retired selector is never
        assumed again.
        """
        if v in self.assign and self.level[v] > 0:
            self._backjump(self.level[v] - 1)
        self._dead_sel.add(v)
        self.saved_phase[v] = False
        self._dead_pending += 1
        self.stats["selectors_retired"] += 1

    def collect_garbage(self) -> int:
        """Drop every clause that mentions a retired selector.

        Equisatisfiable for all future queries: a dead selector is
        never assumed again, so each guarded clause is satisfiable by
        its selector's false phase, and learned clauses are always
        redundant.  Clauses currently locked as propagation reasons are
        skipped (they go on the next sweep).
        """
        dead = self._dead_sel
        self._dead_pending = 0
        if not dead:
            return 0
        locked = {rc for rc in self.reason.values() if rc is not None}
        drop = {idx for idx, clause in enumerate(self.clauses)
                if idx not in locked
                and any(abs(lit) in dead for lit in clause)}
        if drop:
            self._compact(drop)
            self.stats["clauses_gced"] += len(drop)
        return len(drop)

    def reduce_learned(self) -> int:
        """Activity-based learned-clause reduction.

        Keeps glue clauses (LBD <= 2), binary clauses, and clauses
        locked as reasons; of the rest, the cold half (lowest activity)
        is dropped.  The trigger threshold grows geometrically so the
        database still scales with genuinely hard instances.
        """
        learned = self._learned
        locked = {rc for rc in self.reason.values() if rc is not None}
        cands = [idx for idx, (_act, lbd) in learned.items()
                 if idx not in locked and lbd > 2
                 and len(self.clauses[idx]) > 2]
        if len(cands) < 2:
            return 0
        cands.sort(key=lambda idx: learned[idx][0])
        drop = set(cands[: len(cands) // 2])
        self._compact(drop)
        self.stats["db_reductions"] += 1
        self.stats["learned_deleted"] += len(drop)
        self.max_learned += self.max_learned // 2
        return len(drop)

    def _compact(self, drop: set[int]) -> None:
        """Remove ``drop`` clauses, remapping indices in watches,
        reasons and learned metadata.  Callers must not drop a clause
        that is some assigned variable's reason."""
        remap: dict[int, int] = {}
        clauses: list[list[int]] = []
        for idx, clause in enumerate(self.clauses):
            if idx in drop:
                continue
            remap[idx] = len(clauses)
            clauses.append(clause)
        self.clauses = clauses
        self._learned = {remap[idx]: meta
                         for idx, meta in self._learned.items()
                         if idx not in drop}
        for v, rc in self.reason.items():
            if rc is not None:
                self.reason[v] = remap[rc]
        watch: dict[int, list[int]] = {}
        for idx, clause in enumerate(clauses):
            watch.setdefault(clause[0], []).append(idx)
            watch.setdefault(clause[1], []).append(idx)
        self._watch = watch

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------

    def _value(self, lit: int):
        v = self.assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def _enqueue(self, lit: int, reason_clause: int | None) -> None:
        v = abs(lit)
        self.assign[v] = lit > 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_clause
        self.trail.append(lit)

    def _propagate(self) -> int | None:
        """Unit propagation; returns conflicting clause index or None."""
        while self._qhead < len(self.trail):
            lit = self.trail[self._qhead]
            self._qhead += 1
            false_lit = -lit
            watchers = self._watch.get(false_lit)
            if not watchers:
                continue
            new_watchers: list[int] = []
            i = 0
            n = len(watchers)
            while i < n:
                ci = watchers[i]
                i += 1
                clause = self.clauses[ci]
                # Ensure false_lit is at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    new_watchers.append(ci)
                    continue
                # Look for a new literal to watch.
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watch.setdefault(clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                new_watchers.append(ci)
                if self._value(first) is False:
                    # Conflict: restore remaining watchers.
                    new_watchers.extend(watchers[i:])
                    self._watch[false_lit] = new_watchers
                    self._qhead = len(self.trail)
                    return ci
                self.stats["propagations"] += 1
                self._enqueue(first, ci)
            self._watch[false_lit] = new_watchers
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _heap_push(self, v: int) -> None:
        heapq.heappush(self._order, (-self.activity.get(v, 0.0), v))
        # Duplicate entries accumulate — every bump and every unassign
        # push a fresh one.  Fine for one-shot solves, a leak for a
        # long-lived incremental database: rebuild once the heap
        # clearly outgrows the variable count.  Stale entries only ever
        # carry outdated (lower) priorities, so dropping them never
        # changes which variable _decide picks next.
        if len(self._order) > 2 * self.num_vars + 64:
            self._rebuild_order()

    def _rebuild_order(self) -> None:
        dead = self._dead_sel
        self._order = [(-self.activity.get(v, 0.0), v)
                       for v in range(1, self.num_vars + 1)
                       if v not in self.assign and v not in dead]
        heapq.heapify(self._order)
        self.stats["heap_rebuilds"] += 1

    def _bump(self, v: int) -> None:
        self.activity[v] = self.activity.get(v, 0.0) + self.var_inc
        if self.activity[v] > 1e100:
            for key in self.activity:
                self.activity[key] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order()
            return
        self._heap_push(v)

    def _bump_clause(self, idx: int) -> None:
        meta = self._learned.get(idx)
        if meta is None:
            return
        meta[0] += self.cla_inc
        if meta[0] > 1e20:
            for other in self._learned.values():
                other[0] *= 1e-20
            self.cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """1-UIP learning; returns (learned clause, backjump level)."""
        cur_level = len(self.trail_lim)
        learned: list[int] = [0]  # placeholder for asserting literal
        seen: set[int] = set()
        counter = 0
        p: int | None = None
        clause = self.clauses[conflict]
        self._bump_clause(conflict)
        idx = len(self.trail) - 1
        while True:
            for lit in clause:
                if p is not None and lit == p:
                    continue
                v = abs(lit)
                if v in seen or self.level.get(v, 0) == 0:
                    continue
                seen.add(v)
                self._bump(v)
                if self.level[v] == cur_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Find next literal on trail to resolve on.
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            v = abs(p)
            seen.discard(v)
            counter -= 1
            if counter == 0:
                learned[0] = -p
                break
            rc = self.reason[v]
            assert rc is not None, "reached a decision before the 1-UIP"
            clause = self.clauses[rc]
            self._bump_clause(rc)
        # Compute backjump level = max level of the other literals.
        if len(learned) == 1:
            bj = 0
        else:
            bj = max(self.level[abs(lit)] for lit in learned[1:])
        return learned, bj

    def _backjump(self, target_level: int) -> None:
        while len(self.trail_lim) > target_level:
            lim = self.trail_lim.pop()
            while len(self.trail) > lim:
                lit = self.trail.pop()
                v = abs(lit)
                self.saved_phase[v] = self.assign[v]
                del self.assign[v]
                del self.level[v]
                del self.reason[v]
                self._heap_push(v)
            self._qhead = min(self._qhead, len(self.trail))
        self._qhead = min(self._qhead, len(self.trail))

    # ------------------------------------------------------------------
    # Decision heuristics
    # ------------------------------------------------------------------

    def _decide(self) -> int | None:
        # Duplicate heap entries are pruned wholesale by _heap_push's
        # periodic rebuild; individual stale entries that surface here
        # are skipped like assigned variables.
        dead = self._dead_sel
        while self._order:
            _neg_act, v = heapq.heappop(self._order)
            if v not in self.assign and v not in dead:
                phase = self.saved_phase.get(v, False)
                return v if phase else -v
        # Heap exhausted: fall back to a linear scan (rare).
        for v in range(1, self.num_vars + 1):
            if v not in self.assign and v not in dead:
                phase = self.saved_phase.get(v, False)
                return v if phase else -v
        return None

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def _assumption_floor(self, aset: set[int]) -> int:
        """Longest prefix of decision levels whose decisions are all in
        ``aset`` — the deepest level a restart/reuse may keep while the
        UNSAT-by-falsified-assumption shortcut stays sound."""
        keep = 0
        for lim in self.trail_lim:
            if self.trail[lim] in aset:
                keep += 1
            else:
                break
        return keep

    def solve(self, assumptions: list[int] | None = None,
              reuse_trail: bool = False) -> str:
        """Solve under the given assumptions; returns ``SAT`` or ``UNSAT``.

        With ``reuse_trail`` the call keeps the longest prefix of
        decision levels whose decisions are assumptions of *this* call
        instead of restarting at level 0, and restarts back off only to
        that assumption floor.  Consecutive solves over assumption sets
        sharing a prefix (sibling feasibility checks in a DFS tree)
        then re-propagate only the suffix.  Status answers are
        unaffected; models may legally differ from a cold solve, which
        is why only the status-only query plane uses it.
        """
        if not self._ok:
            return UNSAT
        assumptions = list(assumptions or [])
        self.stats["solves"] += 1
        if self._dead_pending >= self.gc_dead_threshold:
            self.collect_garbage()
        if self.keep_trail_on_add and len(self._learned) > self.max_learned:
            self.reduce_learned()
        aset = set(assumptions)
        if reuse_trail and self.trail_lim:
            keep = self._assumption_floor(aset)
            self._backjump(keep)
            self.stats["levels_reused"] += keep
        else:
            self._backjump(0)
        if reuse_trail:
            self.stats["levels_assumed"] += len(assumptions)
        conflict = self._propagate()
        if conflict is not None:
            if not self.trail_lim:
                self._ok = False
                return UNSAT
            # A kept prefix propagated into a conflict (possible only
            # when clauses were attached mid-trail).  Make sure the
            # conflict involves the top decision level so 1-UIP
            # analysis is well-defined, then let the main loop have it.
            top = max((self.level[abs(lit)]
                       for lit in self.clauses[conflict]), default=0)
            if top < len(self.trail_lim):
                self._backjump(top)
            if not self.trail_lim:
                self._ok = False
                return UNSAT

        restart_count = 1
        conflicts_until_restart = 32 * _luby(restart_count)
        conflicts_this_restart = 0

        while True:
            if conflict is None:
                conflict = self._propagate()
            if conflict is not None:
                self.stats["conflicts"] += 1
                conflicts_this_restart += 1
                if not self.trail_lim:
                    return UNSAT
                # If the conflict is below the assumption levels we
                # cannot recover by learning alone when it involves only
                # assumptions; the analyze/backjump loop handles it by
                # backjumping into assumption territory and re-deciding.
                learned, bj = self._analyze(conflict)
                conflict = None
                lbd = len({self.level[abs(lit)] for lit in learned[1:]}) + 1
                self._backjump(bj)
                if len(learned) == 1:
                    if self._value(learned[0]) is False:
                        return UNSAT
                    if self._value(learned[0]) is None:
                        self._enqueue(learned[0], None)
                else:
                    idx = self._watch_new(learned)
                    self._learned[idx] = [self.cla_inc, lbd]
                    self.stats["learned"] += 1
                    self._enqueue(learned[0], idx)
                self.var_inc /= self.var_decay
                self.cla_inc /= self.cla_decay
                continue

            if conflicts_this_restart >= conflicts_until_restart:
                self.stats["restarts"] += 1
                restart_count += 1
                conflicts_until_restart = 32 * _luby(restart_count)
                conflicts_this_restart = 0
                # Restarting below the assumption floor would only
                # re-propagate the same assumptions; in reuse mode keep
                # them (one-shot callers keep the historical full reset).
                self._backjump(self._assumption_floor(aset)
                               if reuse_trail else 0)
                continue

            # Re-establish assumptions in order.
            all_assumed = True
            for a in assumptions:
                val = self._value(a)
                if val is True:
                    continue
                if val is False:
                    return UNSAT
                self.trail_lim.append(len(self.trail))
                self._enqueue(a, None)
                all_assumed = False
                break
            if not all_assumed:
                continue

            lit = self._decide()
            if lit is None:
                return SAT
            self.stats["decisions"] += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    def model(self) -> dict[int, bool]:
        """Assignment after a SAT answer (unassigned vars default False)."""
        out = {v: self.assign.get(v, False) for v in range(1, self.num_vars + 1)}
        return out
