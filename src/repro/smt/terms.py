"""Bitvector term language for the QF_BV solver substrate.

The paper's P4Testgen uses Z3 to solve path constraints.  Z3 is not
available in this environment, so we implement the fragment P4Testgen
actually needs: quantifier-free fixed-width bitvectors plus booleans.

Terms are immutable and hash-consed through a per-process **weak**
intern pool: structurally identical terms built in one pool generation
are the same Python object, which makes equality checks O(1), lets
``substitute``/``evaluate``/``preprocess`` memoize by the stored intern
id (:attr:`Term.tid`), and lets the bit-blaster cache per-term results.
The pool holds only weak references, so terms die with their last
external reference instead of accumulating across ``Engine`` runs.

``__hash__`` is the precomputed *structural* hash (emitted suites
depend on term-keyed set/dict order, which must not depend on object
identity), and ``__eq__`` falls back to an iterative structural walk
whenever the O(1) shortcuts don't apply — terms that survive
:func:`clear_intern_pool` still compare equal to their re-interned
twins.

Smart constructors perform algebraic simplification (constant folding,
identities) unless the module-level switch :data:`SIMPLIFY` is disabled
(used by the ablation benchmark).
"""

from __future__ import annotations

import weakref
from typing import Iterable, Optional

__all__ = [
    "Term",
    "BoolTerm",
    "BvTerm",
    "SIMPLIFY",
    "set_simplify",
    "simplification_enabled",
    "mk_term",
    "intern_stats",
    "reset_intern_stats",
    "clear_intern_pool",
    "intern_pool_size",
    "true",
    "false",
    "bool_const",
    "bool_var",
    "bv_const",
    "bv_var",
    "not_",
    "and_",
    "or_",
    "xor_",
    "implies",
    "ite_bool",
    "eq",
    "ne",
    "ult",
    "ule",
    "ugt",
    "uge",
    "slt",
    "sle",
    "bv_not",
    "bv_neg",
    "bv_and",
    "bv_or",
    "bv_xor",
    "bv_add",
    "bv_sub",
    "bv_mul",
    "bv_udiv",
    "bv_urem",
    "bv_shl",
    "bv_lshr",
    "bv_ashr",
    "concat",
    "extract",
    "zero_extend",
    "sign_extend",
    "ite_bv",
    "free_vars",
    "substitute",
]

# --------------------------------------------------------------------------
# Global switches (for the SMT ablation benchmarks).
# --------------------------------------------------------------------------

SIMPLIFY = True


def set_simplify(enabled: bool) -> None:
    """Enable or disable constructor-time algebraic simplification."""
    global SIMPLIFY
    SIMPLIFY = bool(enabled)


def simplification_enabled() -> bool:
    return SIMPLIFY


# --------------------------------------------------------------------------
# Term representation
# --------------------------------------------------------------------------

# Weak intern pool: key -> term, value refs are weak so a term (and its
# pool entry) dies with its last external reference.  The key tuple
# references the term's *children* — exactly the references the term
# itself holds — so the pool adds no retention beyond the DAG's own.
_POOL: "weakref.WeakValueDictionary[tuple, Term]" = weakref.WeakValueDictionary()
# Pool generation.  Two distinct live objects interned under the same
# generation are guaranteed structurally distinct (the pool enforced
# uniqueness while both were being created), which gives __eq__ an O(1)
# "False" shortcut.  clear_intern_pool() bumps the generation so terms
# surviving a clear never shortcut against newer interns.
_POOL_GEN = 1
_NEXT_TID = 0
_INTERN_HITS = 0
_INTERN_MISSES = 0


class Term:
    """A node in the hash-consed term DAG.

    Attributes:
        op: operator tag, e.g. ``"bvadd"``, ``"and"``, ``"const"``.
        args: child terms.
        width: bit width for bitvector terms, ``0`` for booleans.
        payload: operator-specific extra data (constant value, variable
            name, extract bounds).
        tid: process-unique intern id (monotonic).  Memo tables key on
            it: O(1), and never collides across pool generations.
    """

    __slots__ = ("op", "args", "width", "payload", "tid", "_hash", "_gen",
                 "__weakref__")

    def __init__(self, op: str, args: tuple, width: int, payload=None):
        global _NEXT_TID
        self.op = op
        self.args = args
        self.width = width
        self.payload = payload
        # Structural hash, not the intern id: set/dict iteration orders
        # — and therefore emitted suites — must not depend on which
        # object (or pool generation) a term happens to be.
        self._hash = hash((op, args, width, payload))
        _NEXT_TID += 1
        self.tid = _NEXT_TID
        self._gen = 0  # 0 = built outside the pool; else its generation

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not Term:
            return NotImplemented
        return _structurally_equal(self, other)

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __reduce__(self):
        # Re-intern on unpickle so terms crossing a process boundary
        # land in the receiving process's pool.
        return (_mk, (self.op, self.args, self.width, self.payload))

    # -- convenience predicates ------------------------------------------

    @property
    def is_bool(self) -> bool:
        return self.width == 0

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    @property
    def is_var(self) -> bool:
        return self.op == "var"

    @property
    def value(self):
        """Constant payload (int for BV, bool for boolean constants)."""
        if self.op != "const":
            raise ValueError(f"term {self.op} is not a constant")
        return self.payload

    @property
    def name(self) -> str:
        if self.op != "var":
            raise ValueError(f"term {self.op} is not a variable")
        return self.payload

    def __repr__(self) -> str:
        return _format(self)


# ``BoolTerm``/``BvTerm`` are documentation aliases; both are Term.
BoolTerm = Term
BvTerm = Term


def _structurally_equal(a: Term, b: Term) -> bool:
    """Iterative structural equality (across pool generations).

    Two distinct live objects from the same pool generation cannot be
    structurally equal, so the walk answers each
    pair in O(1) via the generation shortcut.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        gen = x._gen
        if gen and gen == y._gen:
            return False  # same live pool generation, distinct objects
        if (x._hash != y._hash or x.op != y.op or x.width != y.width
                or x.payload != y.payload or len(x.args) != len(y.args)):
            return False
        stack.extend(zip(x.args, y.args))
    return True


def _mk(op: str, args: tuple, width: int, payload=None) -> Term:
    global _INTERN_HITS, _INTERN_MISSES
    key = (op, args, width, payload)
    t = _POOL.get(key)
    if t is not None:
        _INTERN_HITS += 1
        return t
    _INTERN_MISSES += 1
    t = Term(op, args, width, payload)
    t._gen = _POOL_GEN
    _POOL[key] = t
    return t


#: Public constructor-level entry point (the raw node maker behind the
#: smart constructors); always interns.
mk_term = _mk


def intern_stats() -> dict:
    """Pool counters: hits/misses since the last reset, live size."""
    total = _INTERN_HITS + _INTERN_MISSES
    return {
        "hits": _INTERN_HITS,
        "misses": _INTERN_MISSES,
        "hit_rate": (_INTERN_HITS / total) if total else 0.0,
        "pool_size": len(_POOL),
        "generation": _POOL_GEN,
    }


def reset_intern_stats() -> None:
    global _INTERN_HITS, _INTERN_MISSES
    _INTERN_HITS = 0
    _INTERN_MISSES = 0


def intern_pool_size() -> int:
    return len(_POOL)


def clear_intern_pool() -> None:
    """Drop all pool entries and start a new generation.

    Surviving terms (still referenced elsewhere) keep working: their
    old generation never matches post-clear interns, so equality falls
    back to the structural walk instead of wrongly shortcutting.
    """
    global _POOL_GEN
    _POOL.clear()
    _POOL_GEN += 1


# --------------------------------------------------------------------------
# Printing (visit-once, let-labels for shared subterms)
# --------------------------------------------------------------------------

# Beyond this many distinct nodes repr degrades to a summary: a repr is
# for debugging, not serialization, and megaterm dumps help nobody.
_REPR_NODE_LIMIT = 512


def _format(root: Term) -> str:
    """Render a term DAG in O(nodes): every node prints once.

    Shared non-leaf nodes are bound to ``%k`` labels emitted in a
    leading ``let`` block, so heavily shared DAGs (the common case
    after interning) print in linear size instead of exponential.
    """
    counts: dict[int, int] = {}
    stack = [root]
    while stack:
        cur = stack.pop()
        seen = counts.get(cur.tid, 0)
        counts[cur.tid] = seen + 1
        if not seen:
            if len(counts) > _REPR_NODE_LIMIT:
                return f"<Term {root.op}/{root.width} >{_REPR_NODE_LIMIT} nodes>"
            stack.extend(cur.args)

    defs: list[str] = []
    rendered: dict[int, str] = {}
    stack = [root]
    while stack:
        cur = stack[-1]
        if cur.tid in rendered:
            stack.pop()
            continue
        if cur.op == "const":
            if cur.width == 0:
                rendered[cur.tid] = "true" if cur.payload else "false"
            else:
                rendered[cur.tid] = f"{cur.width}w{cur.payload:#x}"
            stack.pop()
            continue
        if cur.op == "var":
            rendered[cur.tid] = f"{cur.payload}:{cur.width or 'bool'}"
            stack.pop()
            continue
        missing = [a for a in cur.args if a.tid not in rendered]
        if missing:
            stack.extend(missing)
            continue
        inner = " ".join(rendered[a.tid] for a in cur.args)
        if cur.op == "extract":
            hi, lo = cur.payload
            text = f"(extract[{hi}:{lo}] {inner})"
        else:
            text = f"({cur.op} {inner})"
        if counts[cur.tid] > 1 and cur is not root:
            label = f"%{len(defs)}"
            defs.append(f"{label} := {text}")
            text = label
        rendered[cur.tid] = text
        stack.pop()
    body = rendered[root.tid]
    if defs:
        return "(let [" + "; ".join(defs) + "] " + body + ")"
    return body


# --------------------------------------------------------------------------
# Constructors: constants and variables
# --------------------------------------------------------------------------

def bool_const(v: bool) -> Term:
    return _mk("const", (), 0, bool(v))


def true() -> Term:
    return bool_const(True)


def false() -> Term:
    return bool_const(False)


def bool_var(name: str) -> Term:
    return _mk("var", (), 0, name)


def bv_const(value: int, width: int) -> Term:
    if width <= 0:
        raise ValueError(f"bitvector width must be positive, got {width}")
    return _mk("const", (), width, value & ((1 << width) - 1))


def bv_var(name: str, width: int) -> Term:
    if width <= 0:
        raise ValueError(f"bitvector width must be positive, got {width}")
    return _mk("var", (), width, name)


def _require_bv(t: Term, ctx: str) -> None:
    if t.width == 0:
        raise TypeError(f"{ctx}: expected bitvector, got boolean {t!r}")


def _require_bool(t: Term, ctx: str) -> None:
    if t.width != 0:
        raise TypeError(f"{ctx}: expected boolean, got bv<{t.width}> {t!r}")


def _require_same_width(a: Term, b: Term, ctx: str) -> None:
    if a.width != b.width:
        raise TypeError(f"{ctx}: width mismatch {a.width} vs {b.width}")


# --------------------------------------------------------------------------
# Boolean connectives
# --------------------------------------------------------------------------
#
# NOTE on equality in simplification guards: these use ``==`` rather
# than ``is`` so the rewrites fire identically with interning disabled
# (where structurally equal terms may be distinct objects).  With
# interning on, ``==`` costs the same as ``is`` — the identity fast
# path answers first.

def not_(a: Term) -> Term:
    _require_bool(a, "not")
    if SIMPLIFY:
        if a.is_const:
            return bool_const(not a.payload)
        if a.op == "not":
            return a.args[0]
    return _mk("not", (a,), 0)


def _flatten(op: str, args: Iterable[Term]):
    for a in args:
        if a.op == op:
            yield from a.args
        else:
            yield a


def and_(*args: Term) -> Term:
    terms = []
    for a in _flatten("and", args):
        _require_bool(a, "and")
        if SIMPLIFY and a.is_const:
            if not a.payload:
                return false()
            continue
        terms.append(a)
    if SIMPLIFY:
        seen: list[Term] = []
        for t in terms:
            if t in seen:
                continue
            if t.op == "not" and t.args[0] in seen:
                return false()
            if not_(t) in seen:
                return false()
            seen.append(t)
        terms = seen
    if not terms:
        return true()
    if len(terms) == 1:
        return terms[0]
    return _mk("and", tuple(terms), 0)


def or_(*args: Term) -> Term:
    terms = []
    for a in _flatten("or", args):
        _require_bool(a, "or")
        if SIMPLIFY and a.is_const:
            if a.payload:
                return true()
            continue
        terms.append(a)
    if SIMPLIFY:
        seen: list[Term] = []
        for t in terms:
            if t in seen:
                continue
            if t.op == "not" and t.args[0] in seen:
                return true()
            if not_(t) in seen:
                return true()
            seen.append(t)
        terms = seen
    if not terms:
        return false()
    if len(terms) == 1:
        return terms[0]
    return _mk("or", tuple(terms), 0)


def xor_(a: Term, b: Term) -> Term:
    _require_bool(a, "xor")
    _require_bool(b, "xor")
    if SIMPLIFY:
        if a.is_const and b.is_const:
            return bool_const(a.payload != b.payload)
        if a.is_const:
            return not_(b) if a.payload else b
        if b.is_const:
            return not_(a) if b.payload else a
        if a == b:
            return false()
    return _mk("xor", (a, b), 0)


def implies(a: Term, b: Term) -> Term:
    return or_(not_(a), b)


def ite_bool(c: Term, t: Term, e: Term) -> Term:
    _require_bool(c, "ite")
    _require_bool(t, "ite")
    _require_bool(e, "ite")
    if SIMPLIFY:
        if c.is_const:
            return t if c.payload else e
        if t == e:
            return t
    return and_(implies(c, t), implies(not_(c), e))


# --------------------------------------------------------------------------
# Comparisons
# --------------------------------------------------------------------------

def _to_signed(v: int, width: int) -> int:
    if v >= 1 << (width - 1):
        v -= 1 << width
    return v


def eq(a: Term, b: Term) -> Term:
    if a.width == 0 or b.width == 0:
        _require_bool(a, "eq")
        _require_bool(b, "eq")
        if SIMPLIFY:
            if a == b:
                return true()
            if a.is_const:
                return b if a.payload else not_(b)
            if b.is_const:
                return a if b.payload else not_(a)
        return not_(xor_(a, b))
    _require_same_width(a, b, "eq")
    if SIMPLIFY:
        if a == b:
            return true()
        if a.is_const and b.is_const:
            return bool_const(a.payload == b.payload)
    return _mk("eq", (a, b), 0)


def ne(a: Term, b: Term) -> Term:
    return not_(eq(a, b))


def ult(a: Term, b: Term) -> Term:
    _require_bv(a, "ult")
    _require_same_width(a, b, "ult")
    if SIMPLIFY:
        if a == b:
            return false()
        if a.is_const and b.is_const:
            return bool_const(a.payload < b.payload)
        if b.is_const and b.payload == 0:
            return false()
        if a.is_const and a.payload == (1 << a.width) - 1:
            return false()
    return _mk("ult", (a, b), 0)


def ule(a: Term, b: Term) -> Term:
    return not_(ult(b, a))


def ugt(a: Term, b: Term) -> Term:
    return ult(b, a)


def uge(a: Term, b: Term) -> Term:
    return not_(ult(a, b))


def slt(a: Term, b: Term) -> Term:
    _require_bv(a, "slt")
    _require_same_width(a, b, "slt")
    if SIMPLIFY:
        if a == b:
            return false()
        if a.is_const and b.is_const:
            return bool_const(
                _to_signed(a.payload, a.width) < _to_signed(b.payload, b.width)
            )
    return _mk("slt", (a, b), 0)


def sle(a: Term, b: Term) -> Term:
    return not_(slt(b, a))


# --------------------------------------------------------------------------
# Bitvector operators
# --------------------------------------------------------------------------

def bv_not(a: Term) -> Term:
    _require_bv(a, "bvnot")
    if SIMPLIFY:
        if a.is_const:
            return bv_const(~a.payload, a.width)
        if a.op == "bvnot":
            return a.args[0]
    return _mk("bvnot", (a,), a.width)


def bv_neg(a: Term) -> Term:
    _require_bv(a, "bvneg")
    if SIMPLIFY and a.is_const:
        return bv_const(-a.payload, a.width)
    return bv_add(bv_not(a), bv_const(1, a.width))


def bv_and(a: Term, b: Term) -> Term:
    _require_bv(a, "bvand")
    _require_same_width(a, b, "bvand")
    if SIMPLIFY:
        if a.is_const and b.is_const:
            return bv_const(a.payload & b.payload, a.width)
        ones = (1 << a.width) - 1
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.payload == 0:
                    return bv_const(0, a.width)
                if x.payload == ones:
                    return y
        if a == b:
            return a
    return _mk("bvand", (a, b), a.width)


def bv_or(a: Term, b: Term) -> Term:
    _require_bv(a, "bvor")
    _require_same_width(a, b, "bvor")
    if SIMPLIFY:
        if a.is_const and b.is_const:
            return bv_const(a.payload | b.payload, a.width)
        ones = (1 << a.width) - 1
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.payload == 0:
                    return y
                if x.payload == ones:
                    return bv_const(ones, a.width)
        if a == b:
            return a
    return _mk("bvor", (a, b), a.width)


def bv_xor(a: Term, b: Term) -> Term:
    _require_bv(a, "bvxor")
    _require_same_width(a, b, "bvxor")
    if SIMPLIFY:
        if a.is_const and b.is_const:
            return bv_const(a.payload ^ b.payload, a.width)
        for x, y in ((a, b), (b, a)):
            if x.is_const and x.payload == 0:
                return y
        if a == b:
            return bv_const(0, a.width)
    return _mk("bvxor", (a, b), a.width)


def bv_add(a: Term, b: Term) -> Term:
    _require_bv(a, "bvadd")
    _require_same_width(a, b, "bvadd")
    if SIMPLIFY:
        if a.is_const and b.is_const:
            return bv_const(a.payload + b.payload, a.width)
        for x, y in ((a, b), (b, a)):
            if x.is_const and x.payload == 0:
                return y
    return _mk("bvadd", (a, b), a.width)


def bv_sub(a: Term, b: Term) -> Term:
    _require_bv(a, "bvsub")
    _require_same_width(a, b, "bvsub")
    if SIMPLIFY:
        if a.is_const and b.is_const:
            return bv_const(a.payload - b.payload, a.width)
        if b.is_const and b.payload == 0:
            return a
        if a == b:
            return bv_const(0, a.width)
    return _mk("bvsub", (a, b), a.width)


def bv_mul(a: Term, b: Term) -> Term:
    _require_bv(a, "bvmul")
    _require_same_width(a, b, "bvmul")
    if SIMPLIFY:
        if a.is_const and b.is_const:
            return bv_const(a.payload * b.payload, a.width)
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.payload == 0:
                    # Taint mitigation #1 in the paper relies on this
                    # rewrite: tainted * 0 == 0.
                    return bv_const(0, a.width)
                if x.payload == 1:
                    return y
    return _mk("bvmul", (a, b), a.width)


def bv_udiv(a: Term, b: Term) -> Term:
    _require_bv(a, "bvudiv")
    _require_same_width(a, b, "bvudiv")
    if SIMPLIFY:
        if a.is_const and b.is_const:
            ones = (1 << a.width) - 1
            # SMT-LIB semantics: x udiv 0 == all-ones.
            return bv_const(ones if b.payload == 0 else a.payload // b.payload, a.width)
        if b.is_const and b.payload == 1:
            return a
    return _mk("bvudiv", (a, b), a.width)


def bv_urem(a: Term, b: Term) -> Term:
    _require_bv(a, "bvurem")
    _require_same_width(a, b, "bvurem")
    if SIMPLIFY:
        if a.is_const and b.is_const:
            # SMT-LIB semantics: x urem 0 == x.
            return bv_const(a.payload if b.payload == 0 else a.payload % b.payload, a.width)
        if b.is_const and b.payload == 1:
            return bv_const(0, a.width)
    return _mk("bvurem", (a, b), a.width)


def bv_shl(a: Term, b: Term) -> Term:
    _require_bv(a, "bvshl")
    _require_same_width(a, b, "bvshl")
    if SIMPLIFY:
        if b.is_const:
            sh = b.payload
            if sh == 0:
                return a
            if sh >= a.width:
                return bv_const(0, a.width)
            if a.is_const:
                return bv_const(a.payload << sh, a.width)
    return _mk("bvshl", (a, b), a.width)


def bv_lshr(a: Term, b: Term) -> Term:
    _require_bv(a, "bvlshr")
    _require_same_width(a, b, "bvlshr")
    if SIMPLIFY:
        if b.is_const:
            sh = b.payload
            if sh == 0:
                return a
            if sh >= a.width:
                return bv_const(0, a.width)
            if a.is_const:
                return bv_const(a.payload >> sh, a.width)
    return _mk("bvlshr", (a, b), a.width)


def bv_ashr(a: Term, b: Term) -> Term:
    _require_bv(a, "bvashr")
    _require_same_width(a, b, "bvashr")
    if SIMPLIFY:
        if b.is_const:
            sh = b.payload
            if sh == 0:
                return a
            if a.is_const:
                return bv_const(_to_signed(a.payload, a.width) >> min(sh, a.width - 1), a.width)
    return _mk("bvashr", (a, b), a.width)


def concat(*parts: Term) -> Term:
    """Concatenate bitvectors; ``parts[0]`` becomes the most significant."""
    flat: list[Term] = []
    for p in parts:
        _require_bv(p, "concat")
        if p.op == "concat":
            flat.extend(p.args)
        else:
            flat.append(p)
    if not flat:
        raise ValueError("concat of zero parts")
    if SIMPLIFY:
        merged: list[Term] = []
        for p in flat:
            if merged and merged[-1].is_const and p.is_const:
                prev = merged.pop()
                merged.append(
                    bv_const((prev.payload << p.width) | p.payload, prev.width + p.width)
                )
            else:
                merged.append(p)
        flat = merged
    if len(flat) == 1:
        return flat[0]
    width = sum(p.width for p in flat)
    return _mk("concat", tuple(flat), width)


def extract(a: Term, hi: int, lo: int) -> Term:
    """Bits ``hi..lo`` inclusive, result width ``hi - lo + 1``."""
    _require_bv(a, "extract")
    if not (0 <= lo <= hi < a.width):
        raise ValueError(f"extract[{hi}:{lo}] out of range for width {a.width}")
    width = hi - lo + 1
    if SIMPLIFY:
        if width == a.width:
            return a
        if a.is_const:
            return bv_const(a.payload >> lo, width)
        if a.op == "extract":
            ihi, ilo = a.payload
            return extract(a.args[0], ilo + hi, ilo + lo)
        if a.op == "concat":
            # Narrow the extraction to the covered children.
            pos = a.width
            picked: list[Term] = []
            for child in a.args:
                lo_c = pos - child.width
                hi_c = pos - 1
                pos = lo_c
                if hi_c < lo or lo_c > hi:
                    continue
                chi = min(hi, hi_c) - lo_c
                clo = max(lo, lo_c) - lo_c
                picked.append(extract(child, chi, clo))
            if len(picked) == 1:
                return picked[0]
            return concat(*picked)
        if a.op == "zext":
            inner = a.args[0]
            if hi < inner.width:
                return extract(inner, hi, lo)
            if lo >= inner.width:
                return bv_const(0, width)
    return _mk("extract", (a,), width, (hi, lo))


def zero_extend(a: Term, extra: int) -> Term:
    _require_bv(a, "zext")
    if extra < 0:
        raise ValueError("negative zero_extend")
    if extra == 0:
        return a
    if SIMPLIFY and a.is_const:
        return bv_const(a.payload, a.width + extra)
    return _mk("zext", (a,), a.width + extra)


def sign_extend(a: Term, extra: int) -> Term:
    _require_bv(a, "sext")
    if extra < 0:
        raise ValueError("negative sign_extend")
    if extra == 0:
        return a
    if SIMPLIFY and a.is_const:
        return bv_const(_to_signed(a.payload, a.width), a.width + extra)
    return _mk("sext", (a,), a.width + extra)


def ite_bv(c: Term, t: Term, e: Term) -> Term:
    _require_bool(c, "ite")
    _require_bv(t, "ite")
    _require_same_width(t, e, "ite")
    if SIMPLIFY:
        if c.is_const:
            return t if c.payload else e
        if t == e:
            return t
    return _mk("ite", (c, t, e), t.width)


# --------------------------------------------------------------------------
# Traversal utilities
# --------------------------------------------------------------------------

def free_vars(t: Term) -> set[Term]:
    """All variable terms occurring in ``t``."""
    out: set[Term] = set()
    seen: set[int] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur.tid in seen:
            continue
        seen.add(cur.tid)
        if cur.is_var:
            out.add(cur)
        stack.extend(cur.args)
    return out


def substitute(t: Term, mapping: dict[Term, Term]) -> Term:
    """Replace variable (or arbitrary subterm) occurrences per ``mapping``.

    Iterative (explicit stack) and memoized by intern id, so deep
    chains neither hit the recursion limit nor re-visit shared nodes.
    """
    if not mapping:
        return t
    done: dict[int, Term] = {}
    stack: list[Term] = [t]
    while stack:
        cur = stack[-1]
        if cur.tid in done:
            stack.pop()
            continue
        hit = mapping.get(cur)
        if hit is not None:
            done[cur.tid] = hit
            stack.pop()
            continue
        if not cur.args:
            done[cur.tid] = cur
            stack.pop()
            continue
        missing = [a for a in cur.args if a.tid not in done]
        if missing:
            stack.extend(missing)
            continue
        new_args = tuple(done[a.tid] for a in cur.args)
        if all(n is o for n, o in zip(new_args, cur.args)):
            done[cur.tid] = cur
        else:
            done[cur.tid] = _rebuild(cur, new_args)
        stack.pop()
    return done[t.tid]


def _rebuild(t: Term, args: tuple) -> Term:
    op = t.op
    if op == "not":
        return not_(args[0])
    if op == "and":
        return and_(*args)
    if op == "or":
        return or_(*args)
    if op == "xor":
        return xor_(args[0], args[1])
    if op == "eq":
        return eq(args[0], args[1])
    if op == "ult":
        return ult(args[0], args[1])
    if op == "slt":
        return slt(args[0], args[1])
    if op == "bvnot":
        return bv_not(args[0])
    if op == "bvand":
        return bv_and(args[0], args[1])
    if op == "bvor":
        return bv_or(args[0], args[1])
    if op == "bvxor":
        return bv_xor(args[0], args[1])
    if op == "bvadd":
        return bv_add(args[0], args[1])
    if op == "bvsub":
        return bv_sub(args[0], args[1])
    if op == "bvmul":
        return bv_mul(args[0], args[1])
    if op == "bvudiv":
        return bv_udiv(args[0], args[1])
    if op == "bvurem":
        return bv_urem(args[0], args[1])
    if op == "bvshl":
        return bv_shl(args[0], args[1])
    if op == "bvlshr":
        return bv_lshr(args[0], args[1])
    if op == "bvashr":
        return bv_ashr(args[0], args[1])
    if op == "concat":
        return concat(*args)
    if op == "extract":
        hi, lo = t.payload
        return extract(args[0], hi, lo)
    if op == "zext":
        return zero_extend(args[0], t.width - args[0].width)
    if op == "sext":
        return sign_extend(args[0], t.width - args[0].width)
    if op == "ite":
        return ite_bv(args[0], args[1], args[2])
    raise ValueError(f"cannot rebuild op {op}")
