"""Table 4a: oracle statistics for the large representative programs.

Paper rows: middleblock.p4 (100% coverage, exhaustive), up4.p4 (95% —
the meter RED path needs control-plane meter support), switch.p4 on
tna (coverage plateaus well below 100% within any practical test cap
because paths explode).  We regenerate the same three rows on our
corpus analogues and assert the coverage *ordering*:

    middleblock (100%)  >  up4 (<100%, >=85%)  >  switch (partial)

Each row runs twice — defaults and query elision off — so the report
doubles as the acceptance measurement for the elision layer: the
ablation pass reproduces the pre-optimization code path on the same
machine, per-row tests and coverage must be identical in both (elision
may not change what comes out), and the default pass must finish the
campaign faster.  A separate tracemalloc pass on the first row records
its allocation peak (tracemalloc distorts timing, so it never wraps a
timed row).
"""

import time

from _util import RESULTS_DIR, once, peak_rss_mb, report, traced_peak_mb

from repro import TestGen, TestGenConfig, load_program
from repro.report import cache_rates
from repro.report.bench import append_point
from repro.targets import get_target

ROWS = [
    ("middleblock", "v1model", None),     # exhaustive
    ("up4", "v1model", None),             # exhaustive
    ("switch_lite", "tna", 80),           # capped (explodes)
]


def _row(name, target_name, cap, *, elide=True):
    config = TestGenConfig(seed=1, max_tests=cap, elide=elide)
    gen = TestGen(load_program(name), target=get_target(target_name),
                  config=config)
    t0 = time.perf_counter()
    result = gen.run()
    elapsed = time.perf_counter() - t0
    stats = result.stats
    return {
        "name": name,
        "arch": target_name,
        "tests": len(result.tests),
        "time_s": elapsed,
        "coverage": result.statement_coverage,
        "curve": gen.last_run.coverage.curve(),
        "cache_rates": cache_rates(stats.as_dict()),
        "blocked": stats.tests_blocked,
        "checks": stats.solver_checks,
        "sat_solves": stats.sat_solves,
        "feas_checks": stats.feasibility_checks,
        "feas_elided": stats.feasibility_elided,
        "intern_hits": stats.intern_hits,
        "intern_misses": stats.intern_misses,
        "blast_hits": stats.blast_cache_hits,
        "blast_misses": stats.blast_cache_misses,
        "rss_mb": peak_rss_mb(),
    }


def test_tbl4a_large_programs(benchmark):
    def run():
        out = {
            "on": [_row(*spec) for spec in ROWS],
            "elide_off": [_row(*spec, elide=False) for spec in ROWS],
        }
        # Memory pass (first row only): tracemalloc halves throughput,
        # so it gets its own untimed run.
        _, out["traced_on_mb"] = traced_peak_mb(lambda: _row(*ROWS[0]))
        return out

    rows = once(benchmark, run)
    lines = [
        "| P4 program    | Arch.   | Valid tests | Time (on) | "
        "Time (-elide) | Stmt. cov. | Feas. elided | "
        "Blast hits | Peak RSS |"
    ]
    for r_on, r_noel in zip(rows["on"], rows["elide_off"]):
        cap_note = "" if r_on["name"] != "switch_lite" else " (capped)"
        frac = (100.0 * r_on["feas_elided"] / r_on["feas_checks"]
                if r_on["feas_checks"] else 0.0)
        blasts = r_on["blast_hits"] + r_on["blast_misses"]
        brate = 100.0 * r_on["blast_hits"] / blasts if blasts else 0.0
        lines.append(
            f"| {r_on['name']:13s} | {r_on['arch']:7s} | "
            f"{r_on['tests']:11d} | {r_on['time_s']:8.1f}s | "
            f"{r_noel['time_s']:12.1f}s | "
            f"{r_on['coverage']:9.1f}% | "
            f"{r_on['feas_elided']:5d}/{r_on['feas_checks']:<5d} "
            f"({frac:4.1f}%) | {r_on['blast_hits']:5d} ({brate:4.1f}%) | "
            f"{r_on['rss_mb']:6.1f}M |{cap_note}"
        )
    wall_on = sum(r["time_s"] for r in rows["on"])
    wall_noel = sum(r["time_s"] for r in rows["elide_off"])
    feas_checks = sum(r["feas_checks"] for r in rows["on"])
    feas_elided = sum(r["feas_elided"] for r in rows["on"])
    intern_hits = sum(r["intern_hits"] for r in rows["on"])
    intern_total = intern_hits + sum(r["intern_misses"] for r in rows["on"])
    fraction = feas_elided / feas_checks if feas_checks else 0.0
    lines.append("")
    lines.append(
        f"query elision: {feas_elided}/{feas_checks} incremental "
        f"feasibility checks answered without a SAT solve "
        f"({100.0 * fraction:.1f}%)"
    )
    lines.append(
        f"interning: {intern_hits}/{intern_total} constructions pooled "
        f"({100.0 * intern_hits / intern_total if intern_total else 0.0:.1f}%); "
        f"end-to-end wall {wall_on:.2f}s (defaults) vs "
        f"{wall_noel:.2f}s (no elide)"
    )
    lines.append(
        f"tracemalloc peak, {ROWS[0][0]} row: {rows['traced_on_mb']:.1f} MiB; "
        f"process peak RSS {peak_rss_mb():.1f} MiB"
    )
    lines.append("")
    lines.append("paper: middleblock 100%, up4 95% (meter RED uncoverable),")
    lines.append("switch.p4 41% at the 1M-test cap — same ordering expected.")
    report("tbl4a_large_programs", lines)

    # Append the run to the BENCH trajectory (schema-validated): one
    # point per invocation, with the coverage curve and cache rates
    # per row — the longitudinal record ``repro bench`` also feeds.
    append_point(RESULTS_DIR, "tbl4a", {
        "label": "tbl4a",
        "timestamp_s": round(time.time(), 3),
        "seed": 1,
        "phase_times_s": {"oracle": round(wall_on, 6)},
        "cache_rates": cache_rates({
            "feasibility_checks": feas_checks,
            "feasibility_elided": feas_elided,
            "intern_hits": intern_hits,
            "intern_misses": intern_total - intern_hits,
            "blast_cache_hits": sum(r["blast_hits"] for r in rows["on"]),
            "blast_cache_misses": sum(r["blast_misses"]
                                      for r in rows["on"]),
        }),
        "rows": [
            {
                "program": r["name"],
                "target": r["arch"],
                "num_tests": r["tests"],
                "statement_coverage": round(r["coverage"], 4),
                "coverage_curve": r["curve"],
                "cache_rates": r["cache_rates"],
                "wall_s": round(r["time_s"], 6),
            }
            for r in rows["on"]
        ],
        "fuzz": None,
    })

    mb, up4, switch = rows["on"]
    assert mb["coverage"] == 100.0
    assert 85.0 <= up4["coverage"] < 100.0, (
        "up4 should stall below 100% on the meter RED branch"
    )
    assert switch["coverage"] < 100.0, (
        "switch_lite must not be exhaustible within the cap"
    )
    assert mb["tests"] > 100
    # The ablation may not change what comes out — only how fast.
    for r_on, r_noel in zip(rows["on"], rows["elide_off"]):
        assert r_on["tests"] == r_noel["tests"]
        assert r_on["coverage"] == r_noel["coverage"]
    # The PR-3 acceptance bar: >=40% of incremental feasibility checks
    # elided, and the whole campaign faster than the elide-off baseline.
    assert fraction >= 0.40, (
        f"only {100.0 * fraction:.1f}% of feasibility checks elided"
    )
    assert wall_on < wall_noel, (
        f"elision must pay for itself: {wall_on:.2f}s vs {wall_noel:.2f}s"
    )
    # The shared blast cache is live on every row.
    for r_on in rows["on"]:
        assert r_on["blast_hits"] > 0, f"blast cache dead on {r_on['name']}"
