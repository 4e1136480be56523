"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/sample.py --workload oracle-v1model --seed 1 \\
        --trace 0 --started <time.monotonic() before launch>

Prints one JSON object on its last stdout line: the raw observations
of :class:`workloads.Sample`, the set-up time measured from
``--started`` (so it includes interpreter start and imports), the
measured wall, peak RSS, the intern-pool and blast-cache sizes at the
start of the measured window (``run.py`` requires them to match across
samples; a difference means state leaked into a sample), and — with
``--trace 1`` — the per-layer span summary.  A traced sample also writes its spans to
``.perfbench/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Sample  # noqa: E402


def _cache_sizes() -> dict:
    from repro.smt.bitblast import shared_blast_cache
    from repro.smt.terms import intern_stats

    blast = shared_blast_cache().stats_dict()
    return {"intern_pool": intern_stats()["pool_size"],
            "blast_nodes": blast["nodes"],
            "blast_hits": blast["hits"],
            "blast_misses": blast["misses"],
            "blast_clauses_replayed": blast["clauses_replayed"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the launching process just "
                         "before it started this one")
    args = ap.parse_args(argv)

    from repro.interp.batch import ReplayStats

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.monotonic() - args.started

    start_sizes = _cache_sizes()
    tracer = Tracer()
    if args.trace:
        tracer.install()
    sample = Sample(replay=ReplayStats())
    t0 = time.perf_counter()
    workload.measure(inputs, sample, tracer)
    wall = time.perf_counter() - t0
    end_sizes = _cache_sizes()

    out = dataclasses.asdict(dataclasses.replace(sample, replay=None))
    out.update(
        setup_s=setup_s,
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        start_sizes=start_sizes,
        blast={key: end_sizes[key] - start_sizes[key]
               for key in ("blast_hits", "blast_misses",
                           "blast_clauses_replayed")},
        replay=sample.replay.as_dict(),
        fill_rate=sample.replay.fill_rate(),
        traced=bool(args.trace),
    )
    if args.trace:
        out["layers"] = tracer.summary()
        out["root_s"] = tracer.root_time()
        os.makedirs(".perfbench", exist_ok=True)
        tracer.write(os.path.join(".perfbench",
                                  f"trace-{args.workload}.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
