"""Bit-blasting of bitvector terms to CNF.

Each bitvector term maps to a list of SAT literals, least significant
bit first; each boolean term maps to a single literal.  Results are
cached per term (terms are hash-consed), so shared subterms are blasted
exactly once — this is what makes the incremental solver facade cheap.

:class:`SharedBlastCache` extends that within-solver sharing to
*across* solver instances in one worker process.  Canonical cache-miss
solves (:meth:`repro.smt.cache.SolveCache.solve`) each spin up a fresh
solver and re-blast constraint sets that heavily overlap with previous
misses; the shared cache memoizes, per asserted root term, the **exact
sequence of SAT-solver operations** (``new_var``/``add_clause`` calls,
in order) plus the blaster/gate cache entries the blast produced.  A
later solver asserting the same root — after the same prefix of roots —
replays that recording verbatim instead of re-walking the term DAG.

Why a trie keyed by the assertion prefix, and why verbatim replay?
CDCL answers (and therefore models, and therefore emitted tests)
depend on variable numbering, clause order, and the level-0
normalization ``add_clause`` applies against the current assignment.
Replaying the recorded op sequence from an identical solver state
reproduces an *identical* solver state — so a warm hit is bit-for-bit
indistinguishable from cold blasting, and byte-identical suites are
preserved by construction.  The trie's path (the sequence of roots
asserted so far) is exactly the "identical prior state" precondition.
"""

from __future__ import annotations

import time
from itertools import islice

from .cnf import CnfBuilder
from .terms import Term

__all__ = ["BitBlaster", "SharedBlastCache", "shared_blast_cache",
           "clear_shared_blast_cache"]


class _TrieNode:
    """One prefix of asserted roots; ``delta`` is the recording for the
    last root on the path (None until recorded or if over budget)."""

    __slots__ = ("children", "delta")

    def __init__(self):
        self.children: dict[Term, _TrieNode] = {}
        self.delta: _BlastDelta | None = None


class _BlastDelta:
    """Everything one root's cold blast did to the solver stack.

    ``ops`` interleaves variable allocations (None) and clauses (tuples
    of literals, pre-normalization) in original call order; the
    ``*_items`` tuples are the cache entries appended during the blast,
    in insertion order, so merging them reproduces the cold caches.
    """

    __slots__ = ("ops", "root_lit", "n_clauses", "gate_items", "bool_items",
                 "bv_items", "varbit_items", "build_time")

    def __init__(self, ops, root_lit, gate_items, bool_items, bv_items,
                 varbit_items, build_time):
        self.ops = ops
        self.root_lit = root_lit
        self.n_clauses = sum(1 for op in ops if op is not None)
        self.gate_items = gate_items
        self.bool_items = bool_items
        self.bv_items = bv_items
        self.varbit_items = varbit_items
        self.build_time = build_time


class _RecordingSat:
    """Transparent SAT proxy that logs the op stream during a blast."""

    __slots__ = ("inner", "ops")

    def __init__(self, inner, ops: list):
        self.inner = inner
        self.ops = ops

    def new_var(self) -> int:
        self.ops.append(None)
        return self.inner.new_var()

    def add_clause(self, clause) -> None:
        self.ops.append(tuple(clause))
        self.inner.add_clause(clause)


class SharedBlastCache:
    """Process-wide replay trie shared by canonical sub-solvers.

    ``max_nodes`` bounds trie breadth (beyond it, new prefixes detach
    and fall back to cold blasting); ``max_ops`` bounds total recorded
    ops (beyond it, new deltas are not stored but replay of existing
    ones continues).  Neither bound affects results — only reuse.
    """

    def __init__(self, max_nodes: int = 65536, max_ops: int = 4_000_000):
        self.root = _TrieNode()
        self.max_nodes = max_nodes
        self.max_ops = max_ops
        self.nodes = 1
        self.ops_stored = 0
        self.hits = 0
        self.misses = 0
        self.clauses_replayed = 0
        self.time_saved_s = 0.0

    def descend(self, node: _TrieNode, term: Term) -> _TrieNode | None:
        """Child of ``node`` for ``term``; None when the trie is full
        (the caller detaches its cursor and cold-blasts from then on)."""
        child = node.children.get(term)
        if child is None:
            if self.nodes >= self.max_nodes:
                return None
            child = _TrieNode()
            node.children[term] = child
            self.nodes += 1
        return child

    def blast_assert(self, node: _TrieNode, term: Term,
                     blaster: "BitBlaster", stats) -> int:
        """Blast boolean ``term`` into ``blaster``'s solver, replaying
        the recording at ``node`` if present (recording it otherwise).
        Returns the root literal.  Requires that the blaster's solver
        reached this point through this node's exact prefix.  The hit
        or miss is also counted in ``stats``, the asserting solver's
        :class:`~repro.smt.stats.RunStats`."""
        builder = blaster.b
        delta = node.delta
        if delta is not None:
            self.hits += 1
            t0 = time.perf_counter()
            sat = builder.solver
            for op in delta.ops:
                if op is None:
                    sat.new_var()
                else:
                    sat.add_clause(list(op))
            builder._gate_cache.update(delta.gate_items)
            blaster._bool_cache.update(delta.bool_items)
            blaster._bv_cache.update(delta.bv_items)
            blaster._var_bits.update(delta.varbit_items)
            saved = max(0.0, delta.build_time - (time.perf_counter() - t0))
            self.clauses_replayed += delta.n_clauses
            self.time_saved_s += saved
            stats.blast_cache_hits += 1
            stats.blast_clauses_replayed += delta.n_clauses
            stats.blast_time_saved_s += saved
            return delta.root_lit
        self.misses += 1
        stats.blast_cache_misses += 1
        g0 = len(builder._gate_cache)
        b0 = len(blaster._bool_cache)
        v0 = len(blaster._bv_cache)
        vb0 = len(blaster._var_bits)
        ops: list = []
        orig = builder.solver
        builder.solver = _RecordingSat(orig, ops)
        t0 = time.perf_counter()
        try:
            lit = blaster.blast_bool(term)
        finally:
            builder.solver = orig
        build_time = time.perf_counter() - t0
        if self.ops_stored + len(ops) <= self.max_ops:
            node.delta = _BlastDelta(
                tuple(ops), lit,
                tuple(islice(builder._gate_cache.items(), g0, None)),
                tuple(islice(blaster._bool_cache.items(), b0, None)),
                tuple(islice(blaster._bv_cache.items(), v0, None)),
                tuple(islice(blaster._var_bits.items(), vb0, None)),
                build_time,
            )
            self.ops_stored += len(ops)
        return lit

    def stats_dict(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
            "nodes": self.nodes,
            "ops_stored": self.ops_stored,
            "clauses_replayed": self.clauses_replayed,
            "time_saved_s": self.time_saved_s,
        }


_SHARED: SharedBlastCache | None = None


def shared_blast_cache() -> SharedBlastCache:
    """The per-process shared blast cache (created on first use)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = SharedBlastCache()
    return _SHARED


def clear_shared_blast_cache() -> None:
    global _SHARED
    _SHARED = None


class BitBlaster:
    def __init__(self, builder: CnfBuilder):
        self.b = builder
        self._bv_cache: dict[Term, list[int]] = {}
        self._bool_cache: dict[Term, int] = {}
        self._var_bits: dict[Term, list[int]] = {}

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def blast_bool(self, t: Term) -> int:
        if t.width != 0:
            raise TypeError(f"expected boolean term, got bv<{t.width}>")
        lit = self._bool_cache.get(t)
        if lit is None:
            lit = self._blast_bool(t)
            self._bool_cache[t] = lit
        return lit

    def blast_bv(self, t: Term) -> list[int]:
        if t.width == 0:
            raise TypeError("expected bitvector term, got boolean")
        bits = self._bv_cache.get(t)
        if bits is None:
            bits = self._blast_bv(t)
            assert len(bits) == t.width, (t.op, t.width, len(bits))
            self._bv_cache[t] = bits
        return bits

    def var_bits(self, t: Term) -> list[int] | None:
        """SAT literals allocated for a BV variable (for model extraction)."""
        return self._var_bits.get(t)

    def bool_var_lit(self, t: Term) -> int | None:
        return self._bool_cache.get(t)

    # ------------------------------------------------------------------
    # Booleans
    # ------------------------------------------------------------------

    def _blast_bool(self, t: Term) -> int:
        b = self.b
        op = t.op
        if op == "const":
            return b.const(t.payload)
        if op == "var":
            return b.fresh()
        if op == "not":
            return -self.blast_bool(t.args[0])
        if op == "and":
            return b.and_many([self.blast_bool(a) for a in t.args])
        if op == "or":
            return b.or_many([self.blast_bool(a) for a in t.args])
        if op == "xor":
            return b.xor_(self.blast_bool(t.args[0]), self.blast_bool(t.args[1]))
        if op == "eq":
            x = self.blast_bv(t.args[0])
            y = self.blast_bv(t.args[1])
            return b.and_many([b.iff(i, j) for i, j in zip(x, y)])
        if op == "ult":
            x = self.blast_bv(t.args[0])
            y = self.blast_bv(t.args[1])
            return self._ult(x, y)
        if op == "slt":
            x = self.blast_bv(t.args[0])
            y = self.blast_bv(t.args[1])
            # signed: flip MSBs and compare unsigned
            x2 = x[:-1] + [-x[-1]]
            y2 = y[:-1] + [-y[-1]]
            return self._ult(x2, y2)
        raise ValueError(f"cannot blast boolean op {op}")

    def _ult(self, x: list[int], y: list[int]) -> int:
        """x < y unsigned via borrow chain, LSB first."""
        b = self.b
        lt = b.FALSE
        for xi, yi in zip(x, y):
            # From LSB to MSB: lt' = (~xi & yi) | (xi==yi & lt)
            bit_lt = b.and_(-xi, yi)
            same = b.iff(xi, yi)
            lt = b.or_(bit_lt, b.and_(same, lt))
        return lt

    # ------------------------------------------------------------------
    # Bitvectors
    # ------------------------------------------------------------------

    def _blast_bv(self, t: Term) -> list[int]:
        b = self.b
        op = t.op
        w = t.width
        if op == "const":
            return [b.const(bool((t.payload >> i) & 1)) for i in range(w)]
        if op == "var":
            bits = [b.fresh() for _ in range(w)]
            self._var_bits[t] = bits
            return bits
        if op == "bvnot":
            return [-x for x in self.blast_bv(t.args[0])]
        if op in ("bvand", "bvor", "bvxor"):
            x = self.blast_bv(t.args[0])
            y = self.blast_bv(t.args[1])
            gate = {"bvand": b.and_, "bvor": b.or_, "bvxor": b.xor_}[op]
            return [gate(i, j) for i, j in zip(x, y)]
        if op == "bvadd":
            x = self.blast_bv(t.args[0])
            y = self.blast_bv(t.args[1])
            return self._adder(x, y, b.FALSE)[0]
        if op == "bvsub":
            x = self.blast_bv(t.args[0])
            y = self.blast_bv(t.args[1])
            return self._adder(x, [-j for j in y], b.TRUE)[0]
        if op == "bvmul":
            x = self.blast_bv(t.args[0])
            y = self.blast_bv(t.args[1])
            return self._multiplier(x, y)
        if op in ("bvudiv", "bvurem"):
            x = self.blast_bv(t.args[0])
            y = self.blast_bv(t.args[1])
            q, r = self._divider(x, y)
            # SMT-LIB: division by zero -> all-ones quotient, remainder = x.
            y_is_zero = b.and_many([-j for j in y])
            if op == "bvudiv":
                return [b.ite(y_is_zero, b.TRUE, qi) for qi in q]
            return [b.ite(y_is_zero, xi, ri) for xi, ri in zip(x, r)]
        if op == "bvshl":
            return self._shifter(t, left=True, arith=False)
        if op == "bvlshr":
            return self._shifter(t, left=False, arith=False)
        if op == "bvashr":
            return self._shifter(t, left=False, arith=True)
        if op == "concat":
            bits: list[int] = []
            for child in reversed(t.args):  # last arg is least significant
                bits.extend(self.blast_bv(child))
            return bits
        if op == "extract":
            hi, lo = t.payload
            inner = self.blast_bv(t.args[0])
            return inner[lo : hi + 1]
        if op == "zext":
            inner = self.blast_bv(t.args[0])
            return inner + [b.FALSE] * (w - len(inner))
        if op == "sext":
            inner = self.blast_bv(t.args[0])
            return inner + [inner[-1]] * (w - len(inner))
        if op == "ite":
            c = self.blast_bool(t.args[0])
            x = self.blast_bv(t.args[1])
            y = self.blast_bv(t.args[2])
            return [b.ite(c, i, j) for i, j in zip(x, y)]
        raise ValueError(f"cannot blast bitvector op {op}")

    # -- circuits ---------------------------------------------------------

    def _adder(self, x: list[int], y: list[int], cin: int) -> tuple[list[int], int]:
        b = self.b
        out: list[int] = []
        c = cin
        for xi, yi in zip(x, y):
            s, c = b.full_adder(xi, yi, c)
            out.append(s)
        return out, c

    def _multiplier(self, x: list[int], y: list[int]) -> list[int]:
        b = self.b
        w = len(x)
        acc = [b.FALSE] * w
        for i in range(w):
            # Partial product: (x << i) & y[i]
            pp = [b.FALSE] * i + [b.and_(x[k], y[i]) for k in range(w - i)]
            acc, _ = self._adder(acc, pp, b.FALSE)
        return acc

    def _divider(self, x: list[int], y: list[int]) -> tuple[list[int], list[int]]:
        """Restoring division circuit; returns (quotient, remainder)."""
        b = self.b
        w = len(x)
        rem = [b.FALSE] * w
        quo = [b.FALSE] * w
        for i in range(w - 1, -1, -1):
            rem = [x[i]] + rem[:-1]  # shift left, bring in next dividend bit
            # ge = rem >= y  <=>  not (rem < y)
            ge = -self._ult(rem, y)
            diff, _ = self._adder(rem, [-j for j in y], b.TRUE)
            rem = [b.ite(ge, d, r) for d, r in zip(diff, rem)]
            quo[i] = ge
        return quo, rem

    def _shifter(self, t: Term, left: bool, arith: bool) -> list[int]:
        b = self.b
        x = self.blast_bv(t.args[0])
        y = self.blast_bv(t.args[1])
        w = len(x)
        fill_far = x[-1] if arith else b.FALSE
        # Barrel shifter over the bits of the shift amount that matter.
        stages = max(1, (w - 1).bit_length())
        bits = list(x)
        for s in range(stages):
            amt = 1 << s
            sel = y[s] if s < len(y) else b.FALSE
            shifted = []
            for i in range(w):
                src = i - amt if left else i + amt
                if 0 <= src < w:
                    shifted.append(bits[src])
                else:
                    shifted.append(b.FALSE if left else fill_far)
            bits = [b.ite(sel, sh, old) for sh, old in zip(shifted, bits)]
        # If any higher bit of the shift amount is set, the result is the
        # fully shifted-out value.
        high = b.or_many(y[stages:]) if len(y) > stages else b.FALSE
        far = [b.FALSE] * w if (left or not arith) else [fill_far] * w
        return [b.ite(high, f, v) for f, v in zip(far, bits)]
