"""Workload ``cli``: each subcommand cold-started in a fresh process.

One round runs ``python -m linexsel.cli`` four times with fixed arguments,
each into a fresh output directory: ``estimate`` (the worked example's
arguments), ``admissibility --cov 2,1,2 --a 1 --d -1.2``,
``analyze --clean --a 1`` and ``simulate --table 7 --reps 2000``. This is the
only workload that measures cold start and the ``analysis`` module.

Checks: every subcommand exits 0; estimate and analyze reproduce the worked
example to 5e-5 (N3 to 0.1, as the test suite holds it); admissibility
reports the in-process ``bounds``/``classify``; the simulate CSV is
byte-identical to the in-process ``risk_grid(7, ...).to_csv()``.
"""

from __future__ import annotations

import csv
import shutil
import sys
import time
from dataclasses import dataclass, field

from bench import Context, Samples, Tally, import_program, run_child
from layers import Shape
from metrics import CLI_SUBCOMMANDS

SIM_REPS, SMOKE_SIM_REPS = 2000, 200
SPEED_PROBE = "process"
WORKED_X, WORKED_Y = "59.0997,58.3516", "131.4569,195.7275"
WORKED_COV = "8.1645,40.0655,952.9425"
ADM_COV, ADM_D = "2,1,2", -1.2
#: the worked example at a = 1 on the cleaned data: value, tolerance
WORKED = {
    "N1": (131.4569, 5e-5), "N1_I1": (131.4569, 5e-5),
    "N2": (-345.0144, 5e-5), "N2_I2": (-345.0144, 5e-5),
    "N3": (194.9654, 0.1), "N3_I1": (194.9654, 0.1),
    "N4": (163.5922, 5e-5), "N4_I1": (163.5922, 5e-5),
}
ESTIMATE_ROWS = ("N1", "N2", "N4")


@dataclass
class State:
    reps: int
    argv: dict
    expected_csv: str = ""
    expected_bounds: tuple = ()
    expected_verdict: str = ""
    per_sub: dict = field(default_factory=lambda: {s: [] for s in CLI_SUBCOMMANDS})
    peak_child_mb: float = 0.0


def setup(ctx: Context) -> State:
    import_program(ctx.root)
    reps = SMOKE_SIM_REPS if ctx.smoke else SIM_REPS
    seed = str(ctx.seed)
    return State(reps=reps, argv={
        "estimate": ["estimate", "--x", WORKED_X, "--y", WORKED_Y, "--cov", WORKED_COV,
                     "--a", "1", "--seed", seed],
        "admissibility": ["admissibility", "--cov", ADM_COV, "--a", "1", "--d", str(ADM_D),
                          "--seed", seed],
        "analyze": ["analyze", "--clean", "--a", "1", "--seed", seed],
        "simulate": ["simulate", "--table", "7", "--reps", str(reps), "--seed", seed],
    })


def prepare(ctx: Context, st: State) -> None:
    from linexsel.admissibility import bounds, classify
    from linexsel.core import CovarianceSpec, LinexParams
    from linexsel.risksim import risk_grid

    st.expected_csv = risk_grid(7, reps=st.reps, master_seed=ctx.seed, workers=1).to_csv()
    sxx, sxy, syy = (float(v) for v in ADM_COV.split(","))
    cov, a = CovarianceSpec(sxx, syy, sxy), LinexParams(1.0)
    b = bounds(a, cov)
    st.expected_bounds = (b.d0, b.d1)
    st.expected_verdict = classify(ADM_D, a, cov)


def _value_rows(text: str) -> dict:
    """label -> value from `label value [note]` report lines."""
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            try:
                rows[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return rows


def _worked(values: dict, labels) -> list[str]:
    problems = []
    for label in labels:
        want, tol = WORKED[label]
        got = values.get(label)
        if got is None or not abs(got - want) <= tol:
            problems.append(f"{label} = {got}, worked example {want}")
    return problems


def output_problems(st: State, sub: str, outdir) -> list[str]:
    if sub == "estimate":
        return _worked(_value_rows((outdir / "estimate_report.txt").read_text()), ESTIMATE_ROWS)
    if sub == "analyze":
        with open(outdir / "analysis_estimates.csv", newline="") as fh:
            values = {row["estimator"]: float(row["estimate"]) for row in csv.DictReader(fh)}
        return _worked(values, WORKED)
    if sub == "admissibility":
        lines = (outdir / "admissibility_report.txt").read_text().splitlines()
        got = {ln.split(" = ")[0]: float(ln.split(" = ")[1]) for ln in lines[:2]}
        problems = [f"{k} = {got.get(k)}, bounds() gives {v:.7g}"
                    for k, v in zip(("d0", "d1"), st.expected_bounds)
                    if got.get(k) is None or not abs(got[k] - v) <= 1e-6 * (1 + abs(v))]
        if f"d = {ADM_D:g}: {st.expected_verdict}" not in lines:
            problems.append(f"classification differs from classify(): {st.expected_verdict}")
        return problems
    if (outdir / "table7.csv").read_text() != st.expected_csv:
        return ["simulate CSV differs from risk_grid(7, workers=1)"]
    return []


def run(ctx: Context, st: State, tr, deadline: float, samples: Samples, tally: Tally) -> None:
    k = 0
    while time.perf_counter() < deadline or k == 0:
        for sub in CLI_SUBCOMMANDS:
            outdir = ctx.out / f"round{k}-{sub}"
            cmd = [sys.executable, "-m", "linexsel.cli", *st.argv[sub], "--out", str(outdir)]
            child = tr.call(f"cli.{sub}", run_child, cmd, ctx)
            st.per_sub[sub].append(child.wall_s)
            samples.add("op_ms", child.wall_s * 1e3)
            st.peak_child_mb = max(st.peak_child_mb, child.maxrss_mb)
            if child.code != 0:
                problems = [f"{sub} exited {child.code}"]
            else:
                try:
                    problems = output_problems(st, sub, outdir)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems = [f"{sub} output unreadable: {type(exc).__name__}: {exc}"]
            tally.op(problems)
            shutil.rmtree(outdir, ignore_errors=True)
        samples.add("aux_ms", st.per_sub["simulate"][-1] * 1e3)
        samples.end_round()
        k += 1


def finish(ctx: Context, st: State, tally: Tally) -> None:
    pass


def shape(ctx: Context, st: State) -> Shape:
    from linexsel.risksim import TABLE_SPECS

    return Shape(grids=[(TABLE_SPECS[7], st.reps)], seed=ctx.seed)
