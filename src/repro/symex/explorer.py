"""Path exploration and test finalization (paper §4 / §6).

The explorer drives :func:`repro.symex.stepper.step` over a frontier of
execution states.  Depth-first search is the default (§6 "Path
traversal"); random-backtracking and coverage-greedy strategies are
selectable for the exploration-strategy ablation.

Two solvers cooperate per run:

- an *incremental* solver for feasibility pruning, where only the
  sat/unsat status matters and push/pop reuse pays off;
- a *canonical* solver backed by a :class:`repro.smt.cache.SolveCache`
  for every model-producing query (concolic resolution, packet-length
  search, final test materialization).  Canonical solves are pure
  functions of the constraint set, which both amortizes repeated
  queries across sibling paths and makes models — and therefore emitted
  tests — independent of exploration order and process boundaries.

The explorer also records a per-iteration event log (which finished
paths appeared at which branch, and whether they finished immediately
at the branch) — the raw material :mod:`repro.engine` uses to merge
parallel shards back into exact sequential order.
"""

from __future__ import annotations

import random
import time

from ..config import TestGenConfig
from ..smt import RunStats, SolveCache, Solver, all_hold, evaluate, terms as T
from ..smt.preprocess import var_domain
from ..testback.spec import (
    AbstractTestCase,
    ExpectedPacket,
    PacketData,
    RegisterSpec,
    TableEntrySpec,
    ValueSetSpec,
)
from .concolic import ConcolicFailure, resolve_concolics
from .coverage import CoverageTracker
from .state import (
    ExecutionState,
    FrontierSnapshot,
    RegisterDecision,
    TableEntryDecision,
    ValueSetDecision,
    state_stats_snapshot,
)
from .stepper import step
from .value import MintScope

__all__ = ["Explorer", "IterationRecord", "ModelCertificateError",
           "PathEvent"]


class PathEvent:
    """One finished path: where it finished, whether it finished as an
    immediate successor of a branch, and the test it produced (None for
    blocked/infeasible paths)."""

    __slots__ = ("choice_path", "immediate", "test")

    def __init__(self, choice_path: tuple[int, ...], immediate: bool, test):
        self.choice_path = choice_path
        self.immediate = immediate
        self.test = test


class IterationRecord:
    """The finished-path events of one exploration iteration.  Stop
    limits are checked at iteration boundaries, so the engine's merge
    replays truncation at the same granularity."""

    __slots__ = ("iter_id", "events")

    def __init__(self, iter_id: int):
        self.iter_id = iter_id
        self.events: list[PathEvent] = []


def _process_counters():
    """A run-record reader for the process-global intern-pool and
    copy-on-write counters, as deltas since this call."""
    intern0 = T.intern_stats()
    state0 = state_stats_snapshot()

    def read():
        intern = T.intern_stats()
        state = state_stats_snapshot()
        return {
            "intern_hits": intern["hits"] - intern0["hits"],
            "intern_misses": intern["misses"] - intern0["misses"],
            **{key: state[key] - state0[key] for key in
               ("state_clones", "path_cond_copies", "frame_cow_copies")},
        }
    return read


def _model_eval(term, model):
    assignment = {}
    for var in T.free_vars(term):
        assignment[var] = model[var]
    return evaluate(term, assignment)


class ModelCertificateError(AssertionError):
    """A model about to be emitted violates its own path condition.

    Raised by the emission-time certificate: every path conjunct and
    every pin must evaluate true under the final model at the word
    level, independently of how the model was produced."""


class Explorer:
    def __init__(self, program, target, config: TestGenConfig | None = None):
        if config is None:
            config = TestGenConfig()
        self.config = config
        self.program = program
        self.target = target
        self.strategy = config.strategy
        self.rng = random.Random(config.seed)
        self.seed = config.seed
        self.prune_unsat = config.prune_unsat
        self.max_tests = config.max_tests
        self.max_paths = config.max_paths
        self.max_steps = config.max_steps
        self.stop_at_full_coverage = config.stop_at_full_coverage
        self.coverage_goal = config.coverage_goal
        self.concolic_enabled = config.concolic_enabled
        # §3: "the output port is chosen at random" — when enabled,
        # unconstrained control-plane values get random (seeded)
        # preferred assignments instead of the solver's defaults.
        self.randomize_values = config.randomize_values
        # The run record (smt/stats.py): the explorer, both solvers and
        # the solve cache all count into it in place.
        self.stats = RunStats()
        self.stats.watch(_process_counters())
        # Two solvers (see module docstring).  The pruning solver only
        # answers statuses, so it gets the full elision pipeline and the
        # incremental status plane, whose models are history-dependent;
        # every model comes from the canonical solver.  Statuses are
        # objective, so elide and incremental on/off suites are
        # byte-identical at any jobs.
        self.solver = Solver(elide=config.elide,
                             incremental=config.incremental,
                             stats=self.stats)
        self.solve_cache = SolveCache(capacity=config.cache_capacity,
                                      stats=self.stats)
        self.model_solver = Solver(cache=self.solve_cache, elide=config.elide,
                                   stats=self.stats)
        self.scope = MintScope()
        self.coverage = CoverageTracker(program)
        self.event_log: list[IterationRecord] = []
        self._iter_id = 0
        self._current_record: IterationRecord | None = None
        self._test_counter = 0

    # ------------------------------------------------------------------
    # Frontier policies
    # ------------------------------------------------------------------

    def _pick(self, frontier: list[ExecutionState]) -> ExecutionState:
        if self.strategy == "dfs":
            return frontier.pop()
        if self.strategy == "random":
            idx = self.rng.randrange(len(frontier))
            return frontier.pop(idx)
        if self.strategy == "greedy":
            # Prefer a state whose pending work contains uncovered
            # statements; fall back to random.
            best_idx, best_score = None, -1
            for idx, state in enumerate(frontier[-16:]):
                real_idx = len(frontier) - len(frontier[-16:]) + idx
                score = 0
                for item in state.work[-8:]:
                    sid = getattr(item, "stmt_id", None)
                    if sid is not None and sid not in self.coverage.covered:
                        score += 1
                if score > best_score:
                    best_idx, best_score = real_idx, score
            if best_idx is None or best_score == 0:
                best_idx = self.rng.randrange(len(frontier))
            return frontier.pop(best_idx)
        raise ValueError(f"unknown strategy {self.strategy!r}")

    # ------------------------------------------------------------------
    # Stepping under the mint scope
    # ------------------------------------------------------------------

    def _initial_state(self) -> ExecutionState:
        counts: dict[str, int] = {}
        with self.scope.minting(counts):
            initial = self.target.build_initial_state(self.program)
        initial.fresh_counts = counts
        return initial

    def _step_state(self, state: ExecutionState, *,
                    record: bool = True) -> list[ExecutionState]:
        """Step ``state`` with its own mint counters active; annotate
        branch successors with their choice index and hand every
        successor the end-of-step counters."""
        base_path = state.choice_path
        t0 = time.perf_counter()
        with self.scope.minting(state.fresh_counts):
            successors = step(state)
        dt = time.perf_counter() - t0
        if record:
            self.stats.step_time += dt
            self.stats.steps += 1
        if len(successors) > 1:
            for i, s in enumerate(successors):
                s.choice_path = base_path + (i,)
        final_counts = state.fresh_counts
        for s in successors:
            if s is not state:
                s.fresh_counts = dict(final_counts)
        return successors

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self):
        """Generate tests; yields AbstractTestCase objects."""
        yield from self._explore([self._initial_state()])

    def run_prefix(self, prefix: tuple[int, ...]):
        """Replay ``prefix`` branch choices from the initial state, then
        explore the subtree below it; yields AbstractTestCase objects.

        This is the worker-side half of parallel sharding: the prefix
        came from a :class:`FrontierSnapshot` taken in another process.
        Replay re-steps the lineage (cheap — no solver calls) so the
        subtree starts from bit-identical symbolic state.
        """
        state = self._initial_state()
        taken = 0
        while taken < len(prefix):
            if state.finished:
                raise RuntimeError(
                    f"prefix replay finished early at {state.choice_path}")
            successors = self._step_state(state, record=False)
            if not successors:
                raise RuntimeError(
                    f"prefix replay hit a dead end at {state.choice_path}")
            if len(successors) == 1:
                state = successors[0]
                continue
            choice = prefix[taken]
            if choice >= len(successors):
                raise RuntimeError(
                    f"prefix replay diverged: choice {choice} of "
                    f"{len(successors)} at {state.choice_path}")
            state = successors[choice]
            taken += 1
        yield from self._explore([state])

    def _explore(self, frontier: list[ExecutionState]):
        stats = self.stats
        try:
            while frontier:
                if self.max_tests is not None and stats.tests_emitted >= self.max_tests:
                    break
                if self.max_paths is not None and stats.paths_finished >= self.max_paths:
                    break
                if stats.steps >= self.max_steps:
                    break
                if self.stop_at_full_coverage and self.coverage.fully_covered:
                    break
                if (self.coverage_goal is not None
                        and self.coverage.statement_percent >= self.coverage_goal):
                    break
                state = self._pick(frontier)
                self._begin_iteration()
                successors = self._step_state(state)
                multi = len(successors) > 1
                if multi and self.prune_unsat:
                    successors = [s for s in successors if self._feasible(s)]
                for s in successors:
                    if s.finished:
                        test = self._handle_finished(s, multi)
                        if test is not None:
                            yield test
                    else:
                        frontier.append(s)
        finally:
            # The run is over (exhausted, stopped by a limit, or closed
            # by a consumer that stopped early): settle the watched
            # values so later reads don't see other runs' activity.
            stats.freeze()

    def split_frontier(self, min_states: int, max_iters: int):
        """Breadth-first expansion for parallel sharding.

        Expands the initial state until the frontier holds at least
        ``min_states`` entries (or ``max_iters`` iterations pass, or
        the program is exhausted).  Finished paths encountered on the
        way are finalized into the event log; the engine orders them
        against the shards afterwards, so no stop limits apply here.

        Returns ``(frontier_states, exhausted)``.
        """
        from collections import deque

        frontier = deque([self._initial_state()])
        iters = 0
        while frontier and len(frontier) < min_states and iters < max_iters:
            state = frontier.popleft()
            self._begin_iteration()
            successors = self._step_state(state)
            multi = len(successors) > 1
            if multi and self.prune_unsat:
                successors = [s for s in successors if self._feasible(s)]
            for s in successors:
                if s.finished:
                    self._handle_finished(s, multi)
                else:
                    frontier.append(s)
            iters += 1
        self.stats.freeze()
        return list(frontier), not frontier

    def frontier_snapshot(self, states) -> FrontierSnapshot:
        return FrontierSnapshot(
            program=self.program.source_name,
            target=self.target.name,
            prefixes=[s.choice_path for s in states],
        )

    def _begin_iteration(self) -> None:
        self._iter_id += 1
        self._current_record = None

    def _handle_finished(self, s: ExecutionState, immediate: bool):
        self.stats.paths_finished += 1
        test = self._finalize(s)
        if self._current_record is None:
            self._current_record = IterationRecord(self._iter_id)
            self.event_log.append(self._current_record)
        self._current_record.events.append(
            PathEvent(s.choice_path, immediate, test))
        if test is not None:
            self.stats.tests_emitted += 1
        return test

    def generate(self, n: int | None = None) -> list[AbstractTestCase]:
        """Convenience: collect up to ``n`` tests into a list."""
        out = []
        for test in self.run():
            out.append(test)
            if n is not None and len(out) >= n:
                break
        return out

    # ------------------------------------------------------------------
    # Feasibility pruning
    # ------------------------------------------------------------------

    def _feasible(self, state: ExecutionState) -> bool:
        """Status-only feasibility along the exploration tree.

        Three tiers, cheapest first.  The elider answers from witness
        reuse or UNSAT subsumption without blasting anything; on the
        incremental plane, a canonical-cache peek catches constraint
        sets a sibling path's finalization already solved.  What
        remains is a SAT solve (``Solver.check_path``): incrementally,
        the pruning solver's assertion stack is synced to the state's
        path condition, so the check re-propagates only the branch
        constraint that actually changed, on top of the whole retained
        clause database.  Only the *status* leaves this method; models
        always come from the canonical solver.
        """
        if not state.path_cond:
            return True
        conjuncts = list(state.path_cond)
        solver = self.solver
        stats = self.stats
        status = solver.try_elide_path(conjuncts)
        if status is not None:
            stats.feasibility_checks += 1
            stats.feasibility_elided += 1
        else:
            entry = None
            if solver.incremental:
                entry = self.solve_cache.peek(
                    self.solve_cache.key_for(conjuncts))
            if entry is not None:
                stats.feasibility_cache_hits += 1
                status = entry.status
            else:
                stats.feasibility_checks += 1
                status = solver.check_path(conjuncts)
        if status != "sat":
            stats.paths_pruned += 1
            return False
        return True

    # ------------------------------------------------------------------
    # Finalization: path -> concrete test
    # ------------------------------------------------------------------

    def _finalize(self, state: ExecutionState) -> AbstractTestCase | None:
        t0 = time.perf_counter()
        try:
            return self._finalize_inner(state)
        finally:
            self.stats.finalize_time += time.perf_counter() - t0

    def _finalize_inner(self, state: ExecutionState) -> AbstractTestCase | None:
        if state.blocked_reason is not None:
            # E.g. tainted output port: the test would be flaky (§5.3).
            self.stats.tests_blocked += 1
            return None
        assumptions = list(state.path_cond)
        if not self.concolic_enabled:
            # Ablation mode: concolic placeholders stay unconstrained,
            # so extern results in the emitted test are arbitrary.
            status = self.model_solver.check(*assumptions)
            if status != "sat":
                self.stats.paths_infeasible += 1
                return None
            return self._build_test(state, assumptions, self.model_solver.model())
        try:
            extra, model = resolve_concolics(
                state, self.model_solver, assumptions)
        except ConcolicFailure:
            self.stats.concolic_failures += 1
            self.stats.paths_infeasible += 1
            return None
        assumptions = assumptions + extra
        return self._build_test(state, assumptions, model)

    def _build_test(self, state, assumptions, model) -> AbstractTestCase | None:
        # --- input packet length -------------------------------------
        pkt = state.packet
        chosen = self._choose_pkt_len(state, assumptions, model)
        if chosen is None:
            self.stats.paths_infeasible += 1
            return None
        # Every value comes from the model with the length pinned.
        pkt_len, model = chosen
        pins = [T.eq(pkt.pkt_len, T.bv_const(pkt_len, 32))]

        if self.randomize_values:
            model, pins = self._randomize_model(state, assumptions, pins, model)

        # --- input packet content ------------------------------------
        content = 0
        for seg in pkt.input_segments:
            content = (content << seg.width) | _model_eval(seg.term, model)
        if pkt_len > pkt.input_bits:
            content <<= pkt_len - pkt.input_bits  # zero payload padding
        elif pkt_len < pkt.input_bits:
            content >>= pkt.input_bits - pkt_len  # truncated (too-short path)
        in_port = state.props.get("input_port_value")
        if in_port is None:
            term = state.props.get("input_port_term")
            in_port = _model_eval(term, model) if term is not None else 0
        input_packet = PacketData(bits=content, width=pkt_len, port=in_port)

        # --- expected outputs (target decides) -------------------------
        outputs, dropped = self.target.finalize_outputs(
            state, lambda term: _model_eval(term, model)
        )
        # Payload the parser never touched is forwarded verbatim by real
        # targets: append the (zero-chosen) tail beyond the parsed bits.
        extra_payload = pkt_len - pkt.input_bits
        if extra_payload > 0 and not state.props.get("truncated"):
            outputs = [
                (port, bits << extra_payload, width + extra_payload,
                 dont_care << extra_payload)
                for (port, bits, width, dont_care) in outputs
            ]
        expected = [
            ExpectedPacket(
                bits=bits, width=width, port=port, dont_care=dont_care
            )
            for (port, bits, width, dont_care) in outputs
        ]

        # --- control plane --------------------------------------------
        entries, value_sets, registers = self._concretize_cp(state, model)

        # --- certificate -----------------------------------------------
        # Whatever produced the model, the emitted test is only sound if
        # the model satisfies the path it claims to exercise.
        if not all_hold(assumptions + pins, model.as_dict()):
            raise ModelCertificateError(
                f"{self.program.source_name}: model violates the path "
                f"condition at choice path {state.choice_path}")

        self._test_counter += 1
        test = AbstractTestCase(
            test_id=self._test_counter,
            target=self.target.name,
            program=self.program.source_name,
            seed=self.seed,
            input_packet=input_packet,
            entries=entries,
            value_sets=value_sets,
            registers=registers,
            expected=expected,
            dropped=dropped,
            covered_statements=frozenset(state.coverage),
            trace=list(state.trace),
        )
        self.coverage.record(state.coverage)
        return test

    def _choose_pkt_len(self, state, assumptions, model):
        """Minimum input length consistent with the path (the paper's
        "minimum header size required to exercise the path").

        Returns ``(length, model)``, where ``model`` is the canonical
        model of the path with ``pkt_len`` pinned to ``length``, or None
        if the path is infeasible.
        """
        pkt_len = state.packet.pkt_len
        solver = self.model_solver

        def pinned(length):
            status = solver.check(
                *assumptions, T.eq(pkt_len, T.bv_const(length, 32)))
            return (length, solver.model()) if status == "sat" else None

        # Every value below the least one in pkt_len's word-level domain
        # violates a path conjunct, so if that value is feasible it is
        # the minimum.  (Target minimum sizes, fixed sizes and too-short
        # windows are all single-variable atoms.)
        domain = var_domain(assumptions, pkt_len)
        least = domain.pick() if domain is not None else None
        if least is ...:
            least = None
        # Fast path: exactly the consumed bits, unless the domain
        # already rules them out.
        want = state.packet.input_bits
        if least is None or least <= want:
            chosen = pinned(want)
            if chosen is not None:
                return chosen
        lo = domain.lo if domain is not None else 0
        if least is not None:
            if least != want:
                chosen = pinned(least)
                if chosen is not None:
                    return chosen
            lo = least + 1
        # The domain was imprecise: binary-search the smallest feasible
        # length in [lo, model value], reading the witness value from
        # each SAT model so the final answer is itself feasible.
        best = _model_eval(pkt_len, model)
        hi = best - 1
        for _ in range(34):
            if lo > hi:
                break
            mid = (lo + hi) // 2
            ok = solver.check(
                *assumptions, T.ule(pkt_len, T.bv_const(mid, 32))) == "sat"
            if ok:
                witness = _model_eval(pkt_len, solver.model())
                best = min(best, witness)
                hi = witness - 1
            else:
                lo = mid + 1
        return pinned(best)

    def _path_rng(self, state) -> random.Random:
        """Randomization RNG derived from (seed, choice path) so random
        preferences are reproducible per path regardless of exploration
        order or process."""
        return random.Random(f"{self.seed}|{state.choice_path}")

    def _randomize_model(self, state, assumptions, pins, model):
        """Prefer random values for control-plane argument variables and
        the input port; keep whatever stays satisfiable."""
        candidates = []
        port_term = state.props.get("input_port_term")
        if port_term is not None and port_term.is_var:
            candidates.append(port_term)
        for decision in state.cp_decisions:
            if isinstance(decision, TableEntryDecision):
                for _name, term in decision.args:
                    if term.is_var:
                        candidates.append(term)
        rng = self._path_rng(state)
        for var in candidates:
            value = rng.getrandbits(var.width)
            attempt = T.eq(var, T.bv_const(value, var.width))
            if self.model_solver.check(*assumptions, *pins, attempt) == "sat":
                pins = pins + [attempt]
                model = self.model_solver.model()
        if candidates and pins:
            status = self.model_solver.check(*assumptions, *pins)
            if status == "sat":
                model = self.model_solver.model()
        return model, pins

    def _concretize_cp(self, state, model):
        entries = []
        value_sets = []
        registers = []
        for decision in state.cp_decisions:
            if isinstance(decision, TableEntryDecision):
                keys = []
                for name, kind, roles in decision.key_fields:
                    keys.append(
                        (name, kind, {r: _model_eval(t, model) for r, t in roles.items()})
                    )
                args = [(n, _model_eval(t, model)) for n, t in decision.args]
                entries.append(
                    TableEntrySpec(
                        table=decision.table,
                        action=decision.action,
                        keys=keys,
                        action_args=args,
                        priority=decision.priority,
                    )
                )
            elif isinstance(decision, ValueSetDecision):
                value_sets.append(
                    ValueSetSpec(
                        value_set=decision.value_set,
                        member=_model_eval(decision.member, model),
                    )
                )
            elif isinstance(decision, RegisterDecision):
                registers.append(
                    RegisterSpec(
                        instance=decision.instance,
                        index=decision.index,
                        value=_model_eval(decision.var, model),
                    )
                )
        return entries, value_sets, registers
