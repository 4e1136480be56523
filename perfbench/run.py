"""The oracle's benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oracle-v1model --seed 1 \\
        --seconds 25 --trace 0

For ``--seconds`` seconds the driver launches samples one after
another, each in a fresh interpreter (``sample.py``), so process-global
caches (the term intern pool, the shared blast cache, compiled replay
programs) cannot carry warmth from one sample into the next.  Every
sample repeats the same inputs, made from ``--seed``.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
samples, percentiles over the pooled per-test and per-case times).
With ``--trace 1`` it alternates traced and untraced samples and
reports the per-layer metrics of the traced ones, plus
``trace.overhead_ratio``: the traced median wall over the untraced
one, minus one.

The correctness checks fail the run (``"correct": false``, exit 1):

- every emitted test replays as a pass on the reference interpreter,
  and every fuzz case passes differential replay (a finding or a
  worker error is a failed operation);
- each suite's SHA-256 is identical in every sample of the invocation;
- statement and construct coverage are identical in every sample;
- the intern-pool and blast-cache sizes at the start of the measured
  window are identical in every sample (a leak would show here).

Human-readable lines go to stderr; the last stdout line is the JSON
result.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# A sample is launched only if it is expected to end inside the run's
# time; at least this many run regardless, so the cross-sample checks
# always compare something.
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _launch(workload: str, seed: int, trace: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--started", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=SAMPLE_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise RuntimeError(f"sample exited {proc.returncode}: "
                           + " | ".join(tail))
    return json.loads(lines[-1])


def _pct(values, q: int) -> float:
    """The q-th percentile (q in 1..99) of ``values``, interpolated
    between the closest ranks (defined for a single value too)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sample_end_to_end(s: dict) -> dict:
    wall = s["wall_s"]
    return {
        "setup_s": (s["setup_s"], "s"),
        "wall_s": (wall, "s"),
        "tests_per_s": (s["tests"] / wall, "1/s"),
        "test_gap_p50_ms": (_pct(s["gaps_ms"], 50), "ms"),
        "test_gap_p90_ms": (_pct(s["gaps_ms"], 90), "ms"),
        "statement_coverage_pct": (
            statistics.fmean(s["coverage"].values()), "%"),
        "programs_per_s": (s["programs"] / wall, "1/s"),
        "case_p50_ms": (_pct(s["cases_ms"], 50), "ms"),
        "case_p90_ms": (_pct(s["cases_ms"], 90), "ms"),
        "construct_coverage_pct": (100.0 * _ratio(*s["construct"]), "%"),
        "packets_per_s": (s["packets"] / s["replay_s"], "1/s"),
        "replay_pass_rate": (_ratio(s["replay_passed"], s["packets"]),
                             "ratio"),
        "peak_rss_mb": (s["peak_rss_mb"], "MB"),
    }


def _medians(rows: list) -> dict:
    """Per-metric median over the samples' ``{name: (value, unit)}``."""
    return {name: (statistics.median(r[name][0] for r in rows), unit)
            for name, (_value, unit) in rows[0].items()}


def end_to_end(samples: list) -> dict:
    return _medians([_sample_end_to_end(s) for s in samples])


def _layer(sample: dict, name: str, field: str) -> float:
    return sample["layers"].get(name, {}).get(field, 0)


def per_layer(traced: list, untraced: list) -> dict:
    def one(s: dict) -> dict:
        def calls(name):
            return _layer(s, name, "calls")

        def total(name):
            return _layer(s, name, "total_s")

        def self_(name):
            return _layer(s, name, "self_s")

        def hit_ratio(name):
            return _ratio(_layer(s, name, "hits"), calls(name))

        replay = s["replay"]
        blast = s["blast"]
        queries = calls("smt.query")
        self_sum = sum(v["self_s"] for v in s["layers"].values())
        residual = s["wall_s"] - s["root_s"]
        return {
            "smt.canonical.construct_s": (total("smt.canonical.add"), "s"),
            "smt.canonical.add.calls": (calls("smt.canonical.add"), "count"),
            "smt.sat.solve.self_s": (self_("smt.sat.solve"), "s"),
            "smt.sat.solve.calls": (calls("smt.sat.solve"), "count"),
            "smt.canonical.queries": (queries, "count"),
            "smt.canonical.queries_per_test": (
                _ratio(queries, s["tests"]), "ratio"),
            "smt.cache.solve.calls": (calls("smt.cache.solve"), "count"),
            "smt.cache.solve.total_s": (total("smt.cache.solve"), "s"),
            "smt.cache.hit_ratio": (hit_ratio("smt.cache.lookup"), "ratio"),
            "smt.cache.key_for.self_s": (self_("smt.cache.key_for"), "s"),
            "smt.blast.hit_ratio": (
                _ratio(blast["blast_hits"],
                       blast["blast_hits"] + blast["blast_misses"]), "ratio"),
            "smt.blast.clauses_replayed": (
                blast["blast_clauses_replayed"], "count"),
            "smt.feasibility.checks": (
                calls("smt.feasibility.elide"), "count"),
            "smt.feasibility.elided_ratio": (
                hit_ratio("smt.feasibility.elide"), "ratio"),
            "smt.feasibility.peek_hit_ratio": (
                hit_ratio("smt.cache.peek"), "ratio"),
            "smt.feasibility.incremental.calls": (
                calls("smt.feasibility.incremental"), "count"),
            "smt.feasibility.incremental.total_s": (
                total("smt.feasibility.incremental"), "s"),
            "smt.feasibility.incremental.self_s": (
                self_("smt.feasibility.incremental"), "s"),
            "symex.step.calls": (calls("symex.step"), "count"),
            "symex.step.self_s": (self_("symex.step"), "s"),
            "symex.resolve_concolics.calls": (
                calls("symex.resolve_concolics"), "count"),
            "symex.resolve_concolics.total_s": (
                total("symex.resolve_concolics"), "s"),
            "ir.load_ir.calls": (calls("ir.load_ir"), "count"),
            "ir.load_ir.self_s": (self_("ir.load_ir"), "s"),
            "fuzz.generate_spec.self_s": (self_("fuzz.generate_spec"), "s"),
            "fuzz.run_spec.total_s": (total("fuzz.run_spec"), "s"),
            "fuzz.shrink_spec.calls": (calls("fuzz.shrink_spec"), "count"),
            "fuzz.shrink_spec.total_s": (total("fuzz.shrink_spec"), "s"),
            "testback.run_suite.total_s": (
                total("testback.run_suite"), "s"),
            "interp.batch.run_cases.self_s": (
                self_("interp.batch.run_cases"), "s"),
            "interp.lane_fill_ratio": (s["fill_rate"], "ratio"),
            "interp.scalar_packets": (
                replay["replay_scalar_packets"], "count"),
            "interp.scalar_fallback_ratio": (
                _ratio(replay["replay_scalar_packets"],
                       replay["replay_packets"]), "ratio"),
            "testback.emit.calls": (calls("testback.emit"), "count"),
            "testback.emit.self_s": (self_("testback.emit"), "s"),
            "oracle.run.self_s": (self_("oracle.run"), "s"),
            "fuzz.campaign.self_s": (self_("fuzz.campaign"), "s"),
            "trace.wall_s": (s["wall_s"], "s"),
            "trace.layers_self_s": (self_sum, "s"),
            "trace.residual_s": (residual, "s"),
            "state.intern_pool_at_start": (
                s["start_sizes"]["intern_pool"], "count"),
            "state.blast_nodes_at_start": (
                s["start_sizes"]["blast_nodes"], "count"),
        }

    out = _medians([one(s) for s in traced])
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    plain_wall = statistics.median(s["wall_s"] for s in untraced) \
        if untraced else traced_wall
    out["trace.overhead_ratio"] = (traced_wall / plain_wall - 1.0, "ratio")
    return out


def check(samples: list) -> list:
    """Cross-sample correctness checks; returns failure messages."""
    problems = []
    for i, s in enumerate(samples):
        problems += [f"sample {i}: {e}" for e in s["errors"]]
        if s["attempted"] < 1:
            problems.append(f"sample {i}: attempted nothing")
        if s["traced"]:
            # Self times partition the root spans; with the residual
            # they must add up to the measured wall.
            self_sum = sum(v["self_s"] for v in s["layers"].values())
            if abs(self_sum - s["root_s"]) > 1e-6 * s["wall_s"]:
                problems.append(f"sample {i}: layer self times "
                                f"{self_sum:.6f}s do not add up to the "
                                f"root spans {s['root_s']:.6f}s")
    first = samples[0]
    for i, s in enumerate(samples[1:], start=1):
        for key, what in (("digests", "suite SHA-256"),
                          ("coverage", "statement coverage"),
                          ("construct", "construct coverage"),
                          ("start_sizes", "cache sizes at start")):
            if s[key] != first[key]:
                problems.append(f"sample {i}: {what} differs from "
                                f"sample 0: {s[key]} != {first[key]}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        _log("perfbench: run from the root of a repro checkout "
             "(src/repro not found)")
        return 2

    start = time.monotonic()
    samples, failures, durations = [], [], []
    while True:
        elapsed = time.monotonic() - start
        if len(samples) + len(failures) >= MIN_SAMPLES and durations and \
                elapsed + max(durations) > args.seconds:
            break
        # Traced runs alternate traced and untraced samples (traced
        # first), so the overhead ratio compares like with like.
        trace = args.trace and len(samples) % 2 == 0
        t0 = time.monotonic()
        try:
            sample = _launch(args.workload, args.seed, int(trace))
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as exc:
            failures.append(str(exc))
            _log(f"perfbench: sample failed: {exc}")
            if not samples:
                break
            continue
        finally:
            durations.append(time.monotonic() - t0)
        samples.append(sample)
        _log(f"perfbench: {args.workload} sample {len(samples)}"
             f"{' (traced)' if trace else ''}: wall {sample['wall_s']:.3f}s "
             f"setup {sample['setup_s']:.3f}s")

    if not samples:
        _log("perfbench: no sample completed")
        return 1
    problems = failures + check(samples)
    attempted = sum(s["attempted"] for s in samples) + len(failures)
    failed = sum(s["failed"] for s in samples) + len(failures)
    if args.trace:
        traced = [s for s in samples if s["traced"]]
        untraced = [s for s in samples if not s["traced"]]
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(samples)

    _log(f"perfbench: {args.workload} seed {args.seed}, {len(samples)} "
         f"samples in {time.monotonic() - start:.1f}s")
    for name, (value, unit) in metrics.items():
        _log(f"  {name:40s} {value:14.6g} {unit}")
    _log(f"  {'fail_ratio':40s} {_ratio(failed, attempted):14.6g} ratio "
         f"({failed} of {attempted})")
    for problem in problems:
        _log(f"perfbench: CHECK FAILED: {problem}")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
