"""Per-layer measurements of the traced run.

Every call the probes make into linexsel goes through ``Tracer.call``, so
each per-layer figure is computed from spans. A workload hands over its
``Shape``: the grids it sweeps (spec, reps) and, optionally, its own scalar
observations; the probes then measure every layer at those parameters, so
every workload emits every per-layer metric.
"""

from __future__ import annotations

import math
import os
import re
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

from bench import Context, median, percentile, run_child
from metrics import COLUMNS, EVALUATE_KINDS, IMPORT_MODULES

#: select + improve calls spent on the fire fractions, spread over all rows
FIRE_DRAWS_TOTAL = 40000
#: observations per workload for the evaluate / classify / phi_bounds probe
SCALAR_PROBE_OBS = 3000
#: repetitions of the whole-grid serial and parallel sweeps
GRID_REPEATS = 2
#: fresh interpreters for cli.import_ms and cli.floor_ms
IMPORT_REPEATS = 3


@dataclass
class Shape:
    grids: list  # [(TableSpec, reps)]
    seed: int
    #: [(cov, a, [(x1, y1, x2, y2), ...])]; drawn from the grids when empty
    scalar_sets: list = field(default_factory=list)


def column_key(spec) -> str:
    if spec.kind == "Improved":
        return "improved_" + spec.base.kind.lower()
    return spec.kind.lower()


def _base_specs(est, c):
    return {"N1": est.n1(), "N2": est.n2(), "N3": est.n3(), "N4": est.n4(c)}


def probe_grids(tr, shape: Shape, nproc: int) -> tuple[dict, dict]:
    from linexsel.core import rng_stream, sample_batch
    from linexsel.estimators import EstimatorSpec
    from linexsel.risksim import SimConfig, risk_grid, simulate_all, simulate_risk, stream_group

    metrics: dict = {}
    record: dict = {}
    cells = column_cells = normals = 0
    rng_s, sample_s, per_normal, cell_s, nonsample_s = [], [], [], [], []
    column_s: dict = {c: [] for c in COLUMNS}
    serial_total = parallel_total = dispatch_total = 0.0
    peak_cell = None
    for spec, reps in shape.grids:
        serial = [_timed(tr, "risksim.risk_grid", risk_grid, spec, reps, shape.seed, 1)
                  for _ in range(GRID_REPEATS)]
        parallel = [_timed(tr, "risksim.risk_grid.parallel", risk_grid, spec, reps, shape.seed, nproc)
                    for _ in range(GRID_REPEATS)]
        serial_total += median(serial)
        parallel_total += median(parallel)
        groups: dict = {}
        for _, est in spec.columns:
            groups.setdefault(stream_group(est), []).append(est)
        spec_cells = 0.0
        for i, means in enumerate(spec.rows):
            for g in sorted(groups):
                key = (spec.table_id, i, g)
                t0 = time.perf_counter()
                rng = tr.call("core.rng_stream", rng_stream, shape.seed, *key)
                t1 = time.perf_counter()
                draws = tr.call("core.sample_batch", sample_batch, means, spec.cov, rng, reps)
                t2 = time.perf_counter()
                normals += 4 * len(draws[0])
                config = SimConfig(means=means, cov=spec.cov, a=spec.a, reps=reps,
                                   master_seed=shape.seed, estimators=tuple(groups[g]))
                cell = _timed(tr, "risksim.simulate_all", simulate_all, config)
                cells += 1
                column_cells += len(groups[g])
                spec_cells += cell
                rng_s.append(t1 - t0)
                sample_s.append(t2 - t1)
                per_normal.append((t2 - t1) / (4 * reps))
                cell_s.append(cell)
                nonsample_s.append(cell - (t2 - t0))
                # a column's marginal cost: its own simulate_risk minus the cell's draws;
                # every group holds one of N1..N4, so both it and its improved form run
                base = next((e.base if e.kind == "Improved" else e) for e in groups[g])
                for est in (base, EstimatorSpec.improved(base)):
                    cost = _timed(tr, "risksim.simulate_risk", simulate_risk, config, est, key)
                    column_s[column_key(est)].append(cost - (t2 - t0))
                if peak_cell is None or len(groups[g]) > peak_cell[1]:
                    peak_cell = (config, len(groups[g]))
        dispatch_total += median(serial) - spec_cells
    tracemalloc.start()
    tr.call("risksim.simulate_all.tracemalloc", simulate_all, peak_cell[0])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    metrics["core.rng_stream_us"] = median(rng_s) * 1e6
    metrics["core.sample_batch_ms"] = median(sample_s) * 1e3
    metrics["core.sample_ns_per_normal"] = median(per_normal) * 1e9
    metrics["core.normals_drawn"] = normals
    metrics["risksim.cell_ms.p50"] = median(cell_s) * 1e3
    metrics["risksim.cell_ms.p90"] = percentile(cell_s, 90) * 1e3
    metrics["risksim.nonsample_ms"] = median(nonsample_s) * 1e3
    for c in COLUMNS:
        metrics[f"risksim.column_ms.{c}"] = median(column_s[c]) * 1e3
    metrics["risksim.dispatch_s"] = dispatch_total
    metrics["risksim.parallel_eff"] = serial_total / (nproc * parallel_total)
    metrics["risksim.cells"] = cells
    metrics["risksim.column_cells"] = column_cells
    metrics["risksim.cell_peak_mb"] = peak / 2**20
    record["samples"] = {"cells": len(cell_s), "grid_repeats": GRID_REPEATS,
                         **{f"column_ms.{c}": len(column_s[c]) for c in COLUMNS}}
    record["serial_s"] = serial_total
    record["parallel_s"] = parallel_total
    record["nproc"] = nproc
    return metrics, record


def probe_fire(tr, shape: Shape) -> tuple[dict, dict, list]:
    """Share of a cell's draws where the clip changes the estimate.

    Draws come from the base's own stream (the grid's draws for that cell),
    through core.sample_batch, select and improve. Returns the draws too, so
    the scalar probe can reuse them.
    """
    from linexsel.core import ObservationPair, rng_stream, sample_batch
    from linexsel.estimators import EstimatorSpec
    from linexsel.improvement import improve
    from linexsel.risksim import stream_group
    from linexsel.selection import select

    rows = sum(len(spec.rows) for spec, _ in shape.grids)
    fired = {c: 0 for c in COLUMNS[4:]}
    drawn = {c: 0 for c in COLUMNS[4:]}
    per_table: dict = {}
    scalar_sets = []
    for spec, reps in shape.grids:
        m = max(20, min(reps, FIRE_DRAWS_TOTAL // (4 * rows)))
        obs_for_set = []
        table_fired = table_drawn = 0
        for i, means in enumerate(spec.rows):
            for kind, base in _base_specs(EstimatorSpec, spec.c).items():
                col = "improved_" + kind.lower()
                improved = EstimatorSpec.improved(base)
                rng = rng_stream(shape.seed, spec.table_id, i, stream_group(base))
                x1, y1, x2, y2 = (v[:m].tolist() for v in sample_batch(means, spec.cov, rng, reps))
                for k in range(m):
                    obs = (x1[k], y1[k], x2[k], y2[k])
                    if kind == "N1":
                        obs_for_set.append(obs)
                    s = tr.call("selection.select", select, ObservationPair(obs[:2], obs[2:]))
                    out = tr.call(f"improvement.improve.{kind.lower()}", improve, improved, s,
                                  spec.a, spec.cov)
                    hit = out.value != s.y_sel + out.base_phi
                    fired[col] += hit
                    table_fired += hit
                drawn[col] += m
                table_drawn += m
        per_table[str(spec.table_id)] = {"fired": table_fired, "drawn": table_drawn,
                                         "rho": spec.cov.rho, "a": spec.a.a}
        scalar_sets.append((spec.cov, spec.a, obs_for_set))
    metrics = {f"improvement.fire_frac.{c}": fired[c] / drawn[c] for c in fired}
    record = {"fired": fired, "drawn": drawn, "per_table": per_table}
    return metrics, record, scalar_sets


def scalar_specs(d: float = -1.0):
    """The report's estimators: N1..N4(c=1), Bayes(0, 0, 4), Shift(d), four Improved."""
    from linexsel.estimators import EstimatorSpec, PriorSpec

    bases = _base_specs(EstimatorSpec, 1.0)
    specs = [(k.lower(), s) for k, s in bases.items()]
    specs.append(("bayes", EstimatorSpec.bayes(PriorSpec(0.0, 0.0, 4.0))))
    specs.append(("shift", EstimatorSpec.shift(d)))
    specs += [("improved", EstimatorSpec.improved(s)) for s in bases.values()]
    return specs


def probe_scalar(tr, scalar_sets: list) -> tuple[dict, dict]:
    from linexsel.admissibility import classify
    from linexsel.core import ObservationPair, ThetaStar
    from linexsel.estimators import evaluate
    from linexsel.improvement import improve
    from linexsel.oracles import phi_bounds, shift_risk_quadrature
    from linexsel.selection import select

    specs = scalar_specs()
    per_set = max(1, SCALAR_PROBE_OBS // len(scalar_sets))
    for cov, a, observations in scalar_sets:
        usable = [(k, s) for k, s in specs if not (k == "bayes" and cov.is_singular)]
        for x1, y1, x2, y2 in observations[:per_set]:
            s = tr.call("selection.select", select, ObservationPair((x1, y1), (x2, y2)))
            for kind, spec in usable:
                tr.call(f"estimators.evaluate.{kind}", evaluate, spec, s, a, cov)
                if kind == "improved":
                    tr.call(f"improvement.improve.{spec.base.kind.lower()}", improve, spec, s, a, cov)
            tr.call("admissibility.classify", classify, -1.0, a, cov)
            tr.call("oracles.phi_bounds", phi_bounds, s.t1, s.t2, a, cov)
        for theta_x in (0.0, 0.7, 2.0):
            for d in (-1.5, -0.5, 0.5):
                tr.call("oracles.shift_risk_quadrature", shift_risk_quadrature, d,
                        ThetaStar(theta_x, 0.0), a, cov)
    # metric -> (span name, scale); the workload's own traced calls count too
    sources = {
        "selection.select_us": ("selection.select", 1e6),
        "admissibility.classify_us": ("admissibility.classify", 1e6),
        "oracles.phi_bounds_us": ("oracles.phi_bounds", 1e6),
        "oracles.shift_risk_quadrature_ms": ("oracles.shift_risk_quadrature", 1e3),
        **{f"estimators.evaluate_us.{k}": (f"estimators.evaluate.{k}", 1e6) for k in EVALUATE_KINDS},
        **{f"improvement.improve_us.{k}": (f"improvement.improve.{k}", 1e6) for k in COLUMNS[:4]},
    }
    metrics = {name: median(tr.durations(span)) * scale for name, (span, scale) in sources.items()}
    return metrics, {"samples": {name: len(tr.durations(span)) for name, (span, _) in sources.items()}}


def probe_analysis(tr) -> dict:
    from linexsel.analysis import analyze, bundled_dataset_path, fit, load_dataset
    from linexsel.core import LinexParams

    path = bundled_dataset_path()
    a = LinexParams(1.0)
    for _ in range(30):
        with tr.span("analysis.load_fit"):
            data = tr.call("analysis.load_dataset", load_dataset, path, clean=True)
            model = tr.call("analysis.fit", fit, data)
    for _ in range(300):
        tr.call("analysis.analyze", analyze, model, a)
    return {  # 30 and 300 samples
        "analysis.load_fit_ms": median(tr.durations("analysis.load_fit")) * 1e3,
        "analysis.analyze_us": median(tr.durations("analysis.analyze")) * 1e6,
    }


#: `-X importtime` lines: self us | cumulative us | module
_IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)")


def probe_imports(tr, ctx: Context) -> tuple[dict, dict]:
    py = sys.executable
    with tr.span("cli.import"):
        imp = [run_child([py, "-c", "import linexsel"], ctx) for _ in range(IMPORT_REPEATS)]
    with tr.span("cli.floor"):
        floor = [run_child([py, "-c", "import numpy"], ctx) for _ in range(IMPORT_REPEATS)]
    with tr.span("cli.importtime"):
        prof = run_child([py, "-X", "importtime", "-c", "import linexsel.cli"], ctx)
    failed = [r.code for r in imp + floor + [prof] if r.code != 0]
    cumulative = {}
    for line in prof.stdout.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-3
    metrics = {
        "cli.import_ms": median(r.wall_s for r in imp) * 1e3,
        "cli.floor_ms": median(r.wall_s for r in floor) * 1e3,
    }
    for mod in IMPORT_MODULES:
        # 0 once `import linexsel.cli` no longer imports the module
        metrics[f"cli.import_ms.{mod}"] = cumulative.get(mod, 0.0)
    return metrics, {"import_repeats": IMPORT_REPEATS, "child_failures": failed}


def _timed(tr, name, fn, *args):
    t0 = time.perf_counter()
    tr.call(name, fn, *args)
    return time.perf_counter() - t0


def measure(tr, ctx: Context, shape: Shape) -> tuple[dict, dict]:
    """Every per-layer metric except trace.overhead_frac, with a record of how."""
    nproc = os.cpu_count() or 1
    metrics, record = {}, {}
    with tr.span("probe.grids"):
        m, record["grids"] = probe_grids(tr, shape, nproc)
    metrics.update(m)
    with tr.span("probe.fire"):
        m, record["fire"], drawn_sets = probe_fire(tr, shape)
    metrics.update(m)
    with tr.span("probe.scalar"):
        m, record["scalar"] = probe_scalar(tr, shape.scalar_sets or drawn_sets)
    metrics.update(m)
    with tr.span("probe.analysis"):
        metrics.update(probe_analysis(tr))
    with tr.span("probe.imports"):
        m, record["imports"] = probe_imports(tr, ctx)
    metrics.update(m)
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        record["non_finite"] = bad
    return metrics, record
