"""Workload ``tables``: the six published risk tables, as users run them.

Each round sweeps tables 5-10 once through ``cli.main(["simulate", ...])``
with the CLI's own defaults (no --workers flag) and once through
``risk_grid(..., workers=1)``. Checks: every CLI CSV is byte-identical to the
serial ``RiskTable.to_csv()`` at the same seed, and every well-posed cell lies
within BAND_SE standard errors of the frozen quadrature REFERENCE.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from dataclasses import dataclass

from bench import Context, Samples, Tally, import_program, load_reference_tables
from layers import Shape

TABLE_IDS = (5, 6, 7, 8, 9, 10)
SPEED_PROBE = "numpy"
REPS, SMOKE_REPS = 20000, 2000
#: The cells' LINEX losses are heavy-tailed (lognormal-like at sigma = 4), so the
#: t-statistic is skewed left: over 100 seeds the worst of 319 cells reached
#: -5.5 SE. At 8 SE a correct engine essentially never fails; a wrong rule
#: misses by tens to hundreds of SE.
BAND_SE = 8.0
#: REFERENCE is printed to 6 significant digits
REF_REL_ROUNDING = 5e-6


@dataclass
class State:
    cli: object
    risk_grid: object
    specs: dict
    reference: dict
    reps: int


def setup(ctx: Context) -> State:
    import_program(ctx.root)
    from linexsel import cli
    from linexsel.risksim import TABLE_SPECS, risk_grid

    return State(
        cli=cli,
        risk_grid=risk_grid,
        specs={t: TABLE_SPECS[t] for t in TABLE_IDS},
        reference=load_reference_tables(ctx.root).REFERENCE,
        reps=SMOKE_REPS if ctx.smoke else REPS,
    )


def prepare(ctx: Context, st: State) -> None:
    pass


def band_problems(table, reference_cols: dict) -> list[str]:
    labels = [label for label, _ in table.spec.columns]
    problems = []
    for label, values in reference_cols.items():
        if label not in labels:
            problems.append(f"table {table.spec.table_id}: column {label} missing")
            continue
        j = labels.index(label)
        for i, ref in enumerate(values):
            est = table.cell(i, j)
            tol = BAND_SE * (est.std_error or 0.0) + REF_REL_ROUNDING * abs(ref)
            if not abs(est.mean_risk - ref) <= tol:
                problems.append(f"table {table.spec.table_id}: {label} outside reference band")
    return problems


def _cli_sweep(ctx: Context, st: State, tr, outdir) -> dict:
    codes = {}
    sink = io.StringIO()
    for t in TABLE_IDS:
        argv = ["simulate", "--table", str(t), "--reps", str(st.reps),
                "--seed", str(ctx.seed), "--out", str(outdir)]
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes[t] = tr.call("cli.main", st.cli.main, argv)
    return codes


def _corrupt_one_digit(path) -> None:
    text = path.read_text()
    i = next(k for k in range(text.index("\n") + 1, len(text)) if text[k].isdigit())
    path.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])


def run(ctx: Context, st: State, tr, deadline: float, samples: Samples, tally: Tally) -> None:
    k = 0
    while time.perf_counter() < deadline or k == 0:
        outdir = ctx.out / f"round{k}"
        outdir.mkdir()
        with tr.span("round"):
            try:
                t0 = time.perf_counter()
                with tr.span("sweep.cli"):
                    codes = _cli_sweep(ctx, st, tr, outdir)
                t1 = time.perf_counter()
                with tr.span("sweep.serial"):
                    tables = {t: tr.call("risksim.risk_grid", st.risk_grid, t, st.reps, ctx.seed, 1)
                              for t in TABLE_IDS}
                t2 = time.perf_counter()
            except Exception as exc:  # one failed round counts all its operations
                for _ in range(2 * len(TABLE_IDS)):
                    tally.op([f"exception {type(exc).__name__}: {exc}"])
                shutil.rmtree(outdir)
                k += 1
                continue
        samples.add("op_ms", (t1 - t0) * 1e3)
        samples.add("aux_ms", (t2 - t1) * 1e3)
        if ctx.fault == "csv-digit":
            _corrupt_one_digit(outdir / f"table{TABLE_IDS[0]}.csv")
        for t in TABLE_IDS:
            csv_path = outdir / f"table{t}.csv"
            problems = []
            if codes[t] != 0:
                problems.append(f"cli simulate --table {t} exited {codes[t]}")
            elif not csv_path.is_file() or csv_path.read_text() != tables[t].to_csv():
                problems.append(f"table {t}: CLI CSV differs from risk_grid(workers=1)")
            tally.op(problems)
            tally.op(band_problems(tables[t], st.reference[t]))
        shutil.rmtree(outdir)
        samples.end_round(probes=5)
        k += 1


def finish(ctx: Context, st: State, tally: Tally) -> None:
    pass


def shape(ctx: Context, st: State) -> Shape:
    return Shape(grids=[(st.specs[t], st.reps) for t in TABLE_IDS], seed=ctx.seed)
