#!/usr/bin/env python3
"""Benchmark of linexsel: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --smoke

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` runs
the workload half untraced and half with a span around every call it makes
into linexsel, then probes every layer at the workload's parameters, and
reports the per-layer metrics plus the tracing overhead. Spans are held in
memory and written at the end, next to the run record, under
``perfbench/_out/``. The last stdout line is the JSON result. Exit status is
0 when a result was printed (``correct`` says whether every output check
passed) and 2 when the benchmark cannot run, e.g. without ``src/linexsel``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import bench
import layers
import metrics

WORKLOADS = {"tables": "w_tables", "kernels": "w_kernels", "scalar": "w_scalar", "cli": "w_cli"}
#: spans a traced loop may hold in memory (the scalar loop makes ~13 per report)
MAX_SPANS = 100_000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="internal: set the workload up, print READY <monotonic ns>, exit")
    p.add_argument("--fault", choices=("csv-digit",), default=None,
                   help="self-test: corrupt one digit of a table CSV before it is checked")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _e2e(ctx, st, samples: bench.Samples, setup_samples) -> dict:
    peak = st.peak_child_mb if ctx.workload == "cli" else bench.self_peak_rss_mb()
    values = {
        "setup_s": bench.median(setup_samples),
        # 0 only when every timed call failed, and then the run is not correct anyway
        "op_ms": bench.median(samples.scaled["op_ms"] or [0.0]),
        "aux_ms": bench.median(samples.scaled["aux_ms"] or [0.0]),
        "peak_rss_mb": peak,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in metrics.END_TO_END}


def _named(ctx, st, samples, setup_samples, tally) -> dict:
    """This workload's figures under their descriptive names, with counts and tails."""
    named = {"setup_s": {**bench.summarize(setup_samples), "unit": "s"}}
    for slot, (name, unit, factor, meaning) in metrics.NAMED[ctx.workload].items():
        named[name] = {**bench.summarize(samples.raw[slot], factor), "unit": unit, "meaning": meaning}
    if ctx.workload == "cli":
        for sub, walls in st.per_sub.items():
            named[f"cli_{sub}_s"] = {**bench.summarize(walls), "unit": "s"}
    named["speed_probe_ms"] = {**bench.summarize(samples.speed_ms), "unit": "ms",
                               "reference": bench.SPEED_REF_MS[samples.probe]}
    named["failed_frac"] = {"median": tally.failed / max(tally.attempted, 1),
                            "n": tally.attempted, "unit": "ratio"}
    return named


def run_workload(ctx: bench.Context, mod) -> int:
    t_start = time.perf_counter()
    setup_samples = bench.measure_setup(ctx)
    st = mod.setup(ctx)
    mod.prepare(ctx, st)
    tally = bench.Tally()
    record = {"workload": ctx.workload, "seed": ctx.seed, "seconds": ctx.seconds,
              "trace": int(ctx.trace), "smoke": ctx.smoke, "environment": bench.environment(ctx)}
    samples = bench.Samples(mod.SPEED_PROBE, ctx)
    if not ctx.trace:
        mod.run(ctx, st, bench.NullTracer, time.perf_counter() + ctx.seconds, samples, tally)
        mod.finish(ctx, st, tally)
        result_metrics = _e2e(ctx, st, samples, setup_samples)
    else:
        half = ctx.seconds / 2.0
        mod.run(ctx, st, bench.NullTracer, time.perf_counter() + half, samples, tally)
        tr = bench.Tracer(f"{ctx.workload}-{ctx.seed}-{os.getpid()}")
        traced = bench.Samples(mod.SPEED_PROBE, ctx)
        ctx.max_spans = MAX_SPANS
        with tr.span("workload"):
            mod.run(ctx, st, tr, time.perf_counter() + half, traced, tally)
        mod.finish(ctx, st, tally)
        layer_values, record["layers"] = layers.measure(tr, ctx, mod.shape(ctx, st))
        layer_values["trace.overhead_frac"] = (
            bench.median(traced.scaled["op_ms"]) / bench.median(samples.scaled["op_ms"]) - 1.0)
        record["traced"] = {slot: bench.summarize(v) for slot, v in traced.raw.items()}
        result_metrics = {m["name"]: {"value": float(layer_values[m["name"]]), "unit": m["unit"]}
                          for m in metrics.PER_LAYER}
        record["spans"] = len(tr.spans)
        tr.write(ctx.out / "spans.jsonl")
    named = _named(ctx, st, samples, setup_samples, tally)
    record.update(named=named, metrics=result_metrics, wall_s=time.perf_counter() - t_start,
                  attempted=tally.attempted, failed=tally.failed,
                  failure_reasons=dict(sorted(tally.reasons.items(), key=lambda kv: -kv[1])[:20]))
    (ctx.out / "record.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {ctx.workload}  seed {ctx.seed}  trace {int(ctx.trace)}  "
          f"{tally.attempted} operations, {tally.failed} failed")
    for name, fig in named.items():
        extra = "".join(f"  {k}={v:.6g}" for k, v in fig.items() if k.startswith("p"))
        print(f"  {name:<22} {fig['median']:.6g} {fig['unit']}  (median, n={fig['n']}){extra}")
    for name, fig in result_metrics.items():
        print(f"  {name:<40} {fig['value']:.6g} {fig['unit']}")
    for reason, count in record["failure_reasons"].items():
        print(f"  FAILED x{count}: {reason}")
    print(f"record: {(ctx.out / 'record.json').relative_to(ctx.root)}")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": result_metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, fig in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = fig
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        bench.locate_program(root)
        if args.workload == "all":
            return run_all(args)
        ctx = bench.Context(root=root, workload=args.workload, seed=args.seed,
                            seconds=args.seconds, trace=bool(args.trace), smoke=args.smoke,
                            fault=args.fault)
        mod = importlib.import_module(WORKLOADS[args.workload])
        if args.setup_only:
            mod.setup(ctx)
            print(f"READY {time.monotonic_ns()}", flush=True)
            return 0
        return run_workload(ctx, mod)
    except bench.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
