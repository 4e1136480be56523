"""Word-level preprocessing of conjunct sets (query-elision layer 1).

Path constraints in P4 programs are overwhelmingly shallow bitvector
facts — header-field equalities from parser transitions, range guards
from length checks, mask tests from ternary matches (the observation
formalized by Petr4's and P4K's word-level semantics).  This module
decides such conjunct sets directly at the word level, so the common
feasibility checks never reach bit-blasting:

1. **Constant folding across conjuncts** — a conjunct that folds to
   ``false`` proves the whole set unsatisfiable; ``true`` conjuncts are
   dropped.
2. **Equality substitution** — every ``var == const`` conjunct becomes
   a binding that is propagated into the remaining conjuncts (through
   the simplifying smart constructors, which fold the results).  Two
   bindings of the same variable to different constants are an
   immediate contradiction.
3. **Interval / bit-mask analysis** — residual single-variable atoms
   (``var < c``, ``var >= c``, ``var != c``, ``var & m == c``) are
   folded into one per-variable domain.  An exactly-empty domain proves
   UNSAT; if *every* residual conjunct was absorbed into a domain and
   every domain yields a witness value, the set is SAT.

The same per-atom fold (:meth:`Domain.absorb`) backs :func:`var_domain`,
which reads one variable's domain straight off a conjunct set — there
``var == c`` folds too, as ``lo = hi = c``.  The explorer uses it to
find the minimum packet length a path admits without a search.

Soundness contract:

- ``"unsat"`` is returned only on a precise word-level argument: a
  constant-folded ``false`` conjunct, conflicting equality bindings,
  conflicting fixed bits, or a single-variable domain whose emptiness
  was decided exactly (never by a truncated search).
- ``"sat"`` is returned only together with a **verified witness**: the
  assembled assignment is re-evaluated against every original conjunct
  (via :func:`repro.smt.evaluate.all_hold`) before the verdict leaves
  this module.  A witness that fails verification downgrades the result to
  *undecided* instead of returning an unsound answer.
- ``None`` (undecided) is always safe: the caller falls through to a
  real solve.
"""

from __future__ import annotations

from .evaluate import all_hold
from .terms import Term, bool_const, substitute

__all__ = ["Domain", "PreprocessResult", "preprocess_conjuncts",
           "var_domain"]

# Equality propagation rounds before giving up on a fixpoint.  Most
# cascades (bind, substitute, fold, bind again) settle in two.
MAX_ROUNDS = 3
# Per-variable cap on tracked disequalities; beyond it the atom is
# treated as unparsed (blocks SAT claims, never causes a wrong UNSAT).
MAX_EXCLUDED = 64

_TRUE = None  # initialized lazily to avoid import-time construction
_FALSE = None


def _consts():
    global _TRUE, _FALSE
    if _TRUE is None:
        _TRUE, _FALSE = bool_const(True), bool_const(False)
    return _TRUE, _FALSE


class PreprocessResult:
    """Outcome of one word-level pass.

    Attributes:
        status: ``"sat"``, ``"unsat"``, or ``None`` (undecided).
        witness: verified satisfying assignment (``status == "sat"``
            only) mapping variable terms to concrete values.
        residual: the simplified, binding-free conjuncts left over.
        bindings: the ``var -> const-term`` equalities that were
            propagated out of the set.
    """

    __slots__ = ("status", "witness", "residual", "bindings")

    def __init__(self, status, witness, residual, bindings):
        self.status = status
        self.witness = witness
        self.residual = residual
        self.bindings = bindings

    def __repr__(self):
        return (f"PreprocessResult({self.status!r}, "
                f"{len(self.residual)} residual)")


def _as_binding(t: Term):
    """``(var, const-term)`` if ``t`` pins a variable, else None."""
    true_t, false_t = _consts()
    if t.op == "var" and t.width == 0:
        return t, true_t
    if t.op == "not" and t.args[0].op == "var":
        return t.args[0], false_t
    if t.op == "eq":
        a, b = t.args
        if a.op == "var" and b.op == "const":
            return a, b
        if b.op == "var" and a.op == "const":
            return b, a
    return None


class Domain:
    """Interval + fixed-bits + disequality facts for one variable."""

    __slots__ = ("width", "lo", "hi", "mask", "val", "excluded",
                 "overflow")

    def __init__(self, width: int):
        self.width = width
        self.lo = 0
        self.hi = (1 << width) - 1
        self.mask = 0   # bits pinned by bvand/eq facts
        self.val = 0    # their pinned values
        self.excluded: set[int] = set()
        self.overflow = False  # too many disequalities to track exactly

    def absorb(self, kind: str, payload) -> bool:
        """Fold one :func:`_parse_atom` fact in; False once the facts
        are exactly contradictory."""
        if kind == "lt":
            self.hi = min(self.hi, payload - 1)
        elif kind == "le":
            self.hi = min(self.hi, payload)
        elif kind == "gt":
            self.lo = max(self.lo, payload + 1)
        elif kind == "ge":
            self.lo = max(self.lo, payload)
        elif kind == "eq":
            self.lo = max(self.lo, payload)
            self.hi = min(self.hi, payload)
        elif kind == "ne":
            self.exclude(payload)
        elif not self.fix_bits(*payload):  # "mask"
            return False
        return self.lo <= self.hi

    def exclude(self, value: int) -> None:
        if len(self.excluded) >= MAX_EXCLUDED:
            self.overflow = True
            return
        self.excluded.add(value)

    def fix_bits(self, mask: int, value: int) -> bool:
        """Merge a ``var & mask == value`` fact; False on contradiction."""
        width_mask = (1 << self.width) - 1
        mask &= width_mask
        value &= width_mask
        if value & ~mask:
            return False  # bits outside the mask can never be set
        if (self.val ^ value) & (self.mask & mask):
            return False  # two facts disagree on a shared fixed bit
        self.mask |= mask
        self.val |= value
        return True

    # -- witness search ------------------------------------------------

    def pick(self):
        """A concrete in-domain value, ``None`` if the domain is
        *exactly* empty, or ``...`` (Ellipsis) when undecided."""
        if self.lo > self.hi:
            return None
        positions = [i for i in range(self.width)
                     if not (self.mask >> i) & 1]
        if not positions:
            v = self.val
            if self.lo <= v <= self.hi and v not in self.excluded:
                return v
            return None
        total = 1 << len(positions)
        lo_i = self._first_index_at_least(positions, total, self.lo)
        budget = len(self.excluded) + 1
        i = lo_i
        while i < total and budget > 0:
            cand = self.val | _deposit(i, positions)
            if cand > self.hi:
                return None  # scanned every in-range candidate
            if cand not in self.excluded:
                return cand
            i += 1
            budget -= 1
        if i >= total:
            return None
        return ...  # search budget exhausted without a decision

    def _first_index_at_least(self, positions, total, lo):
        """Smallest i with ``val | deposit(i) >= lo`` (monotone in i)."""
        lo_i, hi_i = 0, total  # hi_i exclusive
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            if self.val | _deposit(mid, positions) >= lo:
                hi_i = mid
            else:
                lo_i = mid + 1
        return lo_i


def _deposit(i: int, positions) -> int:
    """Scatter the low bits of ``i`` over ascending bit positions."""
    v = 0
    for b, p in enumerate(positions):
        if (i >> b) & 1:
            v |= 1 << p
    return v


def _parse_atom(t: Term):
    """``(var, kind, payload)`` for single-variable atoms, else None."""
    neg = False
    if t.op == "not":
        neg, t = True, t.args[0]
    if t.op == "ult":
        a, b = t.args
        if a.op == "var" and b.op == "const":
            # var < c, or (negated) var >= c
            return (a, "ge" if neg else "lt", b.payload)
        if a.op == "const" and b.op == "var":
            # c < var, or (negated) var <= c
            return (b, "le" if neg else "gt", a.payload)
        return None
    if t.op == "eq":
        a, b = t.args
        if a.op == "var" and b.op == "const":
            return (a, "ne" if neg else "eq", b.payload)
        if b.op == "var" and a.op == "const":
            return (b, "ne" if neg else "eq", a.payload)
        if neg:
            return None
        for x, y in ((a, b), (b, a)):
            if x.op == "bvand" and y.op == "const":
                u, m = x.args
                if u.op == "var" and m.op == "const":
                    return (u, "mask", (m.payload, y.payload))
                if m.op == "var" and u.op == "const":
                    return (m, "mask", (u.payload, y.payload))
    return None


def _domain_analysis(residual):
    """Returns ``(status, witness)`` for the residual conjuncts.

    ``status`` is ``"sat"`` (with a per-variable witness dict),
    ``"unsat"``, or ``None``.  UNSAT needs only the parsed facts of a
    single variable to be contradictory; SAT additionally requires that
    *every* residual conjunct was parsed.
    """
    if not residual:
        return "sat", {}
    doms: dict[Term, Domain] = {}
    unparsed = False
    for t in residual:
        fact = _parse_atom(t)
        if fact is None:
            unparsed = True
            continue
        var, kind, payload = fact
        d = doms.get(var)
        if d is None:
            d = doms[var] = Domain(var.width)
        if not d.absorb(kind, payload):
            return "unsat", None
    witness = {}
    undecided = unparsed
    for var, d in doms.items():
        v = d.pick()
        if v is None and not d.overflow:
            return "unsat", None
        if v is None or v is ...:
            undecided = True
            continue
        witness[var] = v
    if undecided:
        return None, None
    return "sat", witness


def var_domain(conjuncts, var: Term) -> Domain | None:
    """``var``'s domain under the single-variable atoms of ``conjuncts``
    (nested ``and``s flattened), or None if those atoms contradict.

    Every folded fact is a literal conjunct, so every value outside the
    domain violates one: ``pick()`` is a lower bound on ``var`` over the
    models of ``conjuncts``.  Atoms that are not single-variable facts
    are skipped, which only widens the domain.
    """
    d = Domain(var.width)
    stack = list(conjuncts)
    while stack:
        t = stack.pop()
        if t.op == "and":
            stack.extend(t.args)
            continue
        fact = _parse_atom(t)
        if fact is not None and fact[0] == var and not d.absorb(*fact[1:]):
            return None
    return d


def preprocess_conjuncts(conjuncts) -> PreprocessResult:
    """Run the full word-level pass over a conjunct set."""
    bindings: dict[Term, Term] = {}
    work = list(conjuncts)
    for _ in range(MAX_ROUNDS):
        changed = False
        nxt: list[Term] = []
        seen: set[Term] = set()
        queue = list(reversed(work))
        while queue:
            t = queue.pop()
            if bindings:
                sub = substitute(t, bindings)
                if sub is not t:
                    changed = True
                    t = sub
            if t.op == "and":
                queue.extend(reversed(t.args))
                changed = True
                continue
            if t.is_const:
                if t.payload:
                    changed = True
                    continue
                return PreprocessResult("unsat", None, [], bindings)
            pair = _as_binding(t)
            if pair is not None:
                var, const = pair
                prev = bindings.get(var)
                if prev is None:
                    bindings[var] = const
                    changed = True
                    continue
                if prev != const:  # structural: exact across pool generations
                    return PreprocessResult("unsat", None, [], bindings)
                changed = True
                continue
            if t not in seen:
                seen.add(t)
                nxt.append(t)
        work = nxt
        if not changed:
            break
    status, domain_witness = _domain_analysis(work)
    if status == "unsat":
        return PreprocessResult("unsat", None, work, bindings)
    witness = None
    if status == "sat":
        witness = {var: const.payload for var, const in bindings.items()}
        witness.update(domain_witness)
        # The final guard: a SAT verdict must carry a witness that the
        # original conjuncts actually evaluate true under (unmentioned
        # variables default to zero, which is part of the witness).
        if all_hold(conjuncts, witness):
            return PreprocessResult("sat", witness, work, bindings)
        status, witness = None, None
    return PreprocessResult(status, witness, work, bindings)
