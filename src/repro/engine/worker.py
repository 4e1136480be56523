"""Worker-process entry points for the parallel engine.

Both entry points are module-level functions taking one picklable
``payload`` dict, so they cross the ``multiprocessing`` boundary under
any start method.  Programs travel as pre-pickled blobs: the parent
pickles the *lowered* :class:`~repro.ir.nodes.IrProgram` once (so
``stmt_id`` assignment — a process-global counter at lowering time —
happens exactly once, in the parent) and every worker unpickles the
identical object graph.  A per-process blob cache avoids re-unpickling
when one worker serves several shards of the same program.
"""

from __future__ import annotations

import hashlib
import pickle

__all__ = ["run_shard", "run_program"]

_PROGRAM_CACHE: dict[bytes, object] = {}


def _program_from_blob(blob: bytes):
    key = hashlib.sha1(blob).digest()
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = pickle.loads(blob)
        _PROGRAM_CACHE[key] = program
    return program


def run_shard(payload: dict) -> dict:
    """Explore one subtree of a program, identified by a branch-choice
    prefix, and return its finished paths grouped by iteration.

    Returns ``{"index", "blocks", "stats"}`` where ``blocks`` is a list
    of ``(n_finished, [tests...])`` pairs in the shard's own sequential
    DFS order — ready for :func:`repro.engine.sharding.merged_test_stream`.
    """
    from ..config import TestGenConfig
    from ..symex.explorer import Explorer

    program = _program_from_blob(payload["program_blob"])
    target = pickle.loads(payload["target_blob"])
    config = TestGenConfig.from_dict(payload["config"])
    explorer = Explorer(program, target, config=config)
    for _ in explorer.run_prefix(tuple(payload["prefix"])):
        pass
    blocks = [
        (len(rec.events), [ev.test for ev in rec.events if ev.test is not None])
        for rec in explorer.event_log
    ]
    return {
        "index": payload["index"],
        "blocks": blocks,
        "stats": explorer.stats.as_dict(),
    }


def run_program(payload: dict) -> dict:
    """Run a complete sequential generation job for one program (used by
    cross-program batch parallelism).

    With ``payload["capture_errors"]`` set, an exception anywhere in the
    job comes back as ``{"index", "error"}`` instead of propagating —
    the traceback is formatted worker-side so nothing unpicklable has to
    cross the process boundary.
    """
    from ..config import TestGenConfig
    from ..symex.explorer import Explorer

    try:
        program = _program_from_blob(payload["program_blob"])
        target = pickle.loads(payload["target_blob"])
        config = TestGenConfig.from_dict(payload["config"])
        explorer = Explorer(program, target, config=config)
        tests = list(explorer.run())
    except Exception as exc:
        if not payload.get("capture_errors"):
            raise
        import traceback

        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        return {"index": payload["index"], "error": detail}
    return {
        "index": payload["index"],
        "tests": tests,
        "stats": explorer.stats.as_dict(),
    }
