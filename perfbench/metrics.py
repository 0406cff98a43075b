"""The benchmark's metric catalogue and its interaction map.

BENCHMARK.json holds the names, units, directions and regression bounds;
this module holds the same names plus what BENCHMARK.json has no key
for: which workload each per-layer metric belongs to and which end-to-end
metric it should move there. ``selftest.py`` checks that the two agree.

Every workload emits every metric. The end-to-end slots ``op_ms`` and
``aux_ms`` carry each workload's two user-facing timings (``NAMED`` gives
each its descriptive name, e.g. ``sweep_s`` on tables). A per-layer
metric is measured on every workload at that workload's own parameters, but
the interaction map speaks about its home workload.
"""

from __future__ import annotations

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_ms", "ms", "lower", 0.25),
    ("aux_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: per workload: end-to-end slot -> (descriptive name, unit, factor from ms, meaning)
NAMED = {
    "tables": {
        "op_ms": ("sweep_s", "s", 1e-3,
                  "one six-table sweep at 20000 reps through cli.main simulate defaults"),
        "aux_ms": ("sweep_serial_s", "s", 1e-3,
                   "the same sweep through risk_grid(workers=1), the single-thread baseline"),
    },
    "kernels": {
        "op_ms": ("grid_s", "s", 1e-3, "one 64-row, 8-column risk_grid at 5000 reps, workers=1"),
        "aux_ms": ("row_all_ms", "ms", 1.0,
                   "simulate_all of all 8 columns on one row's shared stream"),
    },
    "scalar": {
        "op_ms": ("report_us", "us", 1e3,
                  "one full report: select, 10 evaluates, classify, per observation"),
        "aux_ms": ("risk_point_ms", "ms", 1.0, "one exact shift-risk point"),
    },
    "cli": {
        "op_ms": ("cli_cold_start_s", "s", 1e-3,
                  "cold start of a subcommand, pooled over all four"),
        "aux_ms": ("cli_simulate_s", "s", 1e-3,
                   "cold start of simulate --table 7 --reps 2000, the one with a grid to run"),
    },
}

#: each also gets a printed and recorded cli_<subcommand>_s figure
CLI_SUBCOMMANDS = ("estimate", "admissibility", "analyze", "simulate")

COLUMNS = ("n1", "n2", "n3", "n4", "improved_n1", "improved_n2", "improved_n3", "improved_n4")
EVALUATE_KINDS = ("n1", "n2", "n3", "n4", "bayes", "shift", "improved")
IMPORT_MODULES = (
    "linexsel", "linexsel.core", "linexsel.selection", "linexsel.estimators",
    "linexsel.oracles", "linexsel.improvement", "linexsel.admissibility",
    "linexsel.risksim", "linexsel.analysis", "linexsel.cli",
    "numpy", "scipy.special", "scipy.integrate",
)


def _layer(name, unit, better, home, moves):
    return {"name": name, "unit": unit, "better": better, "home": home, "moves": moves}


#: per-layer metrics with the interaction map: home workload and the end-to-end metric moved
PER_LAYER = tuple(
    [
        _layer("core.rng_stream_us", "us", "lower", "kernels",
               "grid_s (op_ms) on kernels, ~7% of a small cell; hardly sweep_s"),
        _layer("core.sample_batch_ms", "ms", "lower", "tables",
               "sweep_serial_s (aux_ms) on tables; layout v1 is frozen, so only via parallelism"),
        _layer("core.sample_ns_per_normal", "ns", "lower", "tables",
               "sweep_serial_s (aux_ms) on tables"),
        _layer("core.normals_drawn", "count", "lower", "tables",
               "repeats exactly: 4 * reps * stream cells (4*20000*264 on tables)"),
        _layer("risksim.cell_ms.p50", "ms", "lower", "tables",
               "sweep_serial_s on tables and grid_s on kernels"),
        _layer("risksim.cell_ms.p90", "ms", "lower", "tables",
               "sweep_serial_s on tables and grid_s on kernels"),
        _layer("risksim.nonsample_ms", "ms", "lower", "kernels",
               "grid_s on kernels most; sweep_serial_s on tables about half as much"),
    ]
    + [
        _layer(f"risksim.column_ms.{c}", "ms", "lower", "kernels",
               "grid_s on kernels; sweep_s on tables 6, 7 and 9")
        for c in COLUMNS
    ]
    + [
        _layer("risksim.dispatch_s", "s", "lower", "kernels", "grid_s (op_ms) on kernels"),
        _layer("risksim.parallel_eff", "ratio", "higher", "tables",
               "sweep_s (op_ms) on tables once the CLI default uses the cores"),
        _layer("risksim.cells", "count", "lower", "tables", "repeats exactly: 264 on tables"),
        _layer("risksim.column_cells", "count", "lower", "tables",
               "repeats exactly: 407 on tables"),
        _layer("risksim.cell_peak_mb", "MB", "lower", "tables", "peak_rss_mb on tables"),
    ]
    + [
        _layer(f"improvement.fire_frac.{c}", "ratio", "higher", "kernels",
               "useful-work ratio of the clip; 0 at |rho| = 1, above 0 on kernels")
        for c in COLUMNS[4:]
    ]
    + [
        _layer(f"improvement.improve_us.{c}", "us", "lower", "scalar", "report_us (op_ms) on scalar")
        for c in COLUMNS[:4]
    ]
    + [
        _layer(f"estimators.evaluate_us.{k}", "us", "lower", "scalar", "report_us (op_ms) on scalar")
        for k in EVALUATE_KINDS
    ]
    + [
        _layer("selection.select_us", "us", "lower", "scalar", "report_us (op_ms) on scalar"),
        _layer("admissibility.classify_us", "us", "lower", "scalar", "report_us (op_ms) on scalar"),
        _layer("oracles.phi_bounds_us", "us", "lower", "scalar", "report_us (op_ms) on scalar"),
        _layer("oracles.shift_risk_quadrature_ms", "ms", "lower", "scalar",
               "risk_point_ms (aux_ms) on scalar"),
        _layer("analysis.load_fit_ms", "ms", "lower", "cli", "cli_analyze_s on cli"),
        _layer("analysis.analyze_us", "us", "lower", "cli", "cli_analyze_s on cli"),
        _layer("cli.import_ms", "ms", "lower", "cli",
               "every cli_*_s (op_ms, aux_ms) on cli and setup_s everywhere"),
    ]
    + [
        _layer(f"cli.import_ms.{m}", "ms", "lower", "cli",
               "cumulative import time; moves cli.import_ms and so every cli_*_s and setup_s")
        for m in IMPORT_MODULES
    ]
    + [
        _layer("cli.floor_ms", "ms", "lower", "cli",
               "bare interpreter plus numpy: the part no change can remove; should not move"),
        _layer("trace.overhead_frac", "ratio", "lower", "scalar",
               "traced over untraced op_ms, minus 1; the cost of the spans themselves"),
    ]
)


def benchmark_json() -> dict:
    """The BENCHMARK.json this catalogue implies (minus command, paths, workloads)."""
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": m["name"], "unit": m["unit"], "better": m["better"]} for m in PER_LAYER],
    }
