"""Concrete (big-step) evaluation of SMT terms under a variable assignment.

Used by the concolic-execution loop to compute extern results, by model
validation after a SAT answer, by the query-elision layer's model-reuse
check, and by the property-based tests that cross-check the bit-blaster
against direct evaluation.

Two entry points with different laziness/strictness trade-offs:

- :func:`evaluate` — full-DAG evaluation, raises
  :class:`EvaluationError` on unbound variables.  The reference
  semantics.
- :func:`holds` / :func:`all_hold` — boolean satisfaction checks for
  the elision hot loop: AND/OR/NOT short-circuit (a failing conjunct
  stops evaluation immediately, so a non-matching cached model is
  rejected after one leaf), and unbound variables default to zero/False
  instead of raising, which makes any partial witness a total one.

Both paths are iterative (explicit work stacks), so arbitrarily deep
AND/OR chains and term DAGs evaluate without hitting the recursion
limit.
"""

from __future__ import annotations

from .terms import Term

__all__ = ["evaluate", "holds", "all_hold", "EvaluationError"]


class EvaluationError(Exception):
    """A term could not be evaluated (unbound variable)."""


def _to_signed(v: int, width: int) -> int:
    if v >= 1 << (width - 1):
        v -= 1 << width
    return v


def evaluate(term: Term, assignment: dict[Term, int] | None = None):
    """Evaluate ``term`` to an ``int`` (bitvector) or ``bool``.

    ``assignment`` maps variable terms to concrete values; booleans may
    be given as bool or 0/1.  Raises :class:`EvaluationError` for
    variables missing from the assignment.
    """
    return _evaluate_dag(term, assignment or {}, {}, strict=True)


def holds(term: Term, assignment: dict[Term, int] | None = None,
          cache: dict | None = None) -> bool:
    """Does the boolean ``term`` evaluate true under ``assignment``?

    Short-circuits through AND/OR/NOT structure; unbound variables
    default to ``0``/``False`` (so a witness over a variable subset is
    interpreted as its zero-completion).  ``cache`` may be shared
    across calls evaluating under the *same* assignment to reuse
    sub-term values.
    """
    return _holds(term, assignment or {}, {} if cache is None else cache)


def all_hold(terms, assignment: dict[Term, int] | None = None) -> bool:
    """Short-circuiting conjunction check with a shared sub-term cache."""
    assignment = assignment or {}
    cache: dict[int, int | bool] = {}  # keyed by Term.tid
    for t in terms:
        if not _holds(t, assignment, cache):
            return False
    return True


# ---------------------------------------------------------------------------
# Short-circuit boolean path
# ---------------------------------------------------------------------------

def _holds(root: Term, assignment, cache) -> bool:
    """Iterative short-circuit evaluation of a boolean term.

    Frames exist only for AND/OR nodes: ``(is_and, negated, args_iter)``.
    NOT chains are folded into the polarity bit on the way down; every
    other operator is a "leaf" handed to the strict DAG evaluator.
    """
    frames: list = []
    nxt = (root, False)        # (node, negated) scheduled for evaluation
    result = True              # last finished boolean (placeholder)
    while True:
        if nxt is not None:
            node, neg = nxt
            nxt = None
            while node.op == "not":
                node = node.args[0]
                neg = not neg
            op = node.op
            if op == "and" or op == "or":
                is_and = op == "and"
                frames.append((is_and, neg, iter(node.args)))
                result = is_and  # neutral element: descend into arg #1
            else:
                result = bool(_evaluate_dag(node, assignment, cache,
                                            strict=False)) != neg
            continue
        if not frames:
            return result
        is_and, neg, args_it = frames[-1]
        if result == is_and:   # non-deciding child: keep going
            arg = next(args_it, None)
            if arg is None:    # ran out of args: the neutral value wins
                frames.pop()
                result = is_and != neg
            else:
                nxt = (arg, False)
        else:                  # deciding child: short-circuit this frame
            frames.pop()
            result = (not is_and) != neg


# ---------------------------------------------------------------------------
# Strict full-DAG path
# ---------------------------------------------------------------------------

def _evaluate_dag(root: Term, assignment, cache, strict: bool):
    """Single-pass iterative postorder evaluation with memoization.

    Each node is visited at most twice: once to push its uncached
    children, once (when they have all resolved) to compute its own
    value.  The memo is keyed by intern id (:attr:`Term.tid`) — an O(1)
    int key that never collides, even across pool generations.
    ``strict`` controls unbound-variable behavior: raise (reference
    semantics) versus default to zero/False (witness completion).
    """
    if root.tid in cache:
        return cache[root.tid]
    stack = [root]
    while stack:
        t = stack[-1]
        if t.tid in cache:
            stack.pop()
            continue
        ready = True
        for a in t.args:
            if a.tid not in cache:
                stack.append(a)
                ready = False
        if not ready:
            continue
        stack.pop()
        cache[t.tid] = _apply(t, assignment, cache, strict)
    return cache[root.tid]


def _apply(t: Term, assignment, cache, strict):
    op = t.op
    if op == "const":
        return t.payload
    if op == "var":
        if t in assignment:
            v = assignment[t]
            if t.width == 0:
                return bool(v)
            return int(v) & ((1 << t.width) - 1)
        if strict:
            raise EvaluationError(f"unbound variable {t!r}")
        return False if t.width == 0 else 0
    args = [cache[a.tid] for a in t.args]
    mask = (1 << t.width) - 1 if t.width else 0
    if op == "not":
        return not args[0]
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    if op == "xor":
        return bool(args[0]) != bool(args[1])
    if op == "eq":
        return args[0] == args[1]
    if op == "ult":
        return args[0] < args[1]
    if op == "slt":
        w = t.args[0].width
        return _to_signed(args[0], w) < _to_signed(args[1], w)
    if op == "bvnot":
        return ~args[0] & mask
    if op == "bvand":
        return args[0] & args[1]
    if op == "bvor":
        return args[0] | args[1]
    if op == "bvxor":
        return args[0] ^ args[1]
    if op == "bvadd":
        return (args[0] + args[1]) & mask
    if op == "bvsub":
        return (args[0] - args[1]) & mask
    if op == "bvmul":
        return (args[0] * args[1]) & mask
    if op == "bvudiv":
        return mask if args[1] == 0 else args[0] // args[1]
    if op == "bvurem":
        return args[0] if args[1] == 0 else args[0] % args[1]
    if op == "bvshl":
        return (args[0] << args[1]) & mask if args[1] < t.width else 0
    if op == "bvlshr":
        return args[0] >> args[1] if args[1] < t.width else 0
    if op == "bvashr":
        w = t.width
        sh = min(args[1], w - 1)
        return (_to_signed(args[0], w) >> sh) & mask
    if op == "concat":
        out = 0
        for child, v in zip(t.args, args):
            out = (out << child.width) | v
        return out
    if op == "extract":
        hi, lo = t.payload
        return (args[0] >> lo) & ((1 << (hi - lo + 1)) - 1)
    if op == "zext":
        return args[0]
    if op == "sext":
        w0 = t.args[0].width
        return _to_signed(args[0], w0) & mask
    if op == "ite":
        return args[1] if args[0] else args[2]
    raise EvaluationError(f"unknown operator {op}")
