"""Workload ``kernels``: a custom grid where the estimator kernels dominate.

Sigma_xx = sigma_yy = 2, rho = 0.5, a = 1; all four bases plus their improved
columns (8 columns in 4 stream groups) over 64 seeded concordant rows
(population 1 has both larger means) at 5000 reps, ``workers=1``. Truncation
really fires here and the cells are small, so stream and config set-up show.

Checks: each grid's and each ``simulate_all``'s N1 and N2 cells lie within
BAND_SE standard errors of ``shift_risk_quadrature`` (computed once, untimed);
once per run, each improved column is no worse than its base within
PAIRED_SE paired standard errors of ``paired_risk_difference``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from bench import Context, Samples, Tally, import_program
from layers import Shape

ROWS, SMOKE_ROWS = 64, 8
SPEED_PROBE = "numpy"
REPS, SMOKE_REPS = 5000, 1000
BAND_SE = 8.0
PAIRED_SE = 5.0
#: simulate_all calls per round, cycling over the rows
ROWS_PER_ROUND = 8


@dataclass
class State:
    api: dict
    spec: object
    specs: tuple
    reps: int
    gaps: list
    refs: list = field(default_factory=list)  # per row: (N1 risk, N2 risk)
    next_row: int = 0


def setup(ctx: Context) -> State:
    import_program(ctx.root)
    from linexsel.core import CovarianceSpec, LinexParams, MeanVectorPair, ThetaStar
    from linexsel.oracles import shift_risk_quadrature
    from linexsel.risksim import (SimConfig, TableSpec, paired_risk_difference, risk_grid,
                                  simulate_all, stream_group, table_columns)

    rng = np.random.default_rng([ctx.seed, 2])
    n = SMOKE_ROWS if ctx.smoke else ROWS
    pop2 = rng.uniform(-1.0, 1.0, size=(n, 2))
    gaps = rng.uniform(0.05, 2.5, size=(n, 2))
    rows = tuple(
        MeanVectorPair((float(p[0] + g[0]), float(p[1] + g[1])), (float(p[0]), float(p[1])))
        for p, g in zip(pop2, gaps)
    )
    a = LinexParams(1.0)
    cov = CovarianceSpec.from_correlation(2.0, 2.0, 0.5)
    spec = TableSpec(table_id=0, a=a, cov=cov, rows=rows,
                     columns=table_columns(a.a, cov.rho, ("N1", "N2", "N3", "N4"), 1.0))
    return State(
        api=dict(SimConfig=SimConfig, risk_grid=risk_grid, simulate_all=simulate_all,
                 paired=paired_risk_difference, stream_group=stream_group,
                 quad=shift_risk_quadrature, ThetaStar=ThetaStar),
        spec=spec,
        specs=tuple(est for _, est in spec.columns),
        reps=SMOKE_REPS if ctx.smoke else REPS,
        gaps=[tuple(map(float, g)) for g in gaps],
    )


def prepare(ctx: Context, st: State) -> None:
    api, spec = st.api, st.spec
    n2_shift = -spec.a.a * spec.cov.sigma_yy / 2.0
    st.refs = [
        tuple(api["quad"](d, api["ThetaStar"](gx, gy), spec.a, spec.cov) for d in (0.0, n2_shift))
        for gx, gy in st.gaps
    ]


def _band(estimates: dict, ref: tuple, where: str) -> list[str]:
    problems = []
    for label, exact in zip(("N1", "N2"), ref):
        est = estimates[label]
        if not abs(est.mean_risk - exact) <= BAND_SE * est.std_error:
            problems.append(f"{where}: {label} outside the quadrature band")
    return problems


def run(ctx: Context, st: State, tr, deadline: float, samples: Samples, tally: Tally) -> None:
    api, spec = st.api, st.spec
    labels = [label for label, _ in spec.columns]
    k = 0
    while time.perf_counter() < deadline or k == 0:
        k += 1
        try:
            t0 = time.perf_counter()
            table = tr.call("risksim.risk_grid", api["risk_grid"], spec, st.reps, ctx.seed, 1)
            samples.add("op_ms", (time.perf_counter() - t0) * 1e3)
        except Exception as exc:  # counted, and the run goes on
            tally.op([f"exception {type(exc).__name__}: {exc}"])
            continue
        problems = []
        for i, ref in enumerate(st.refs):
            cells = {lab: table.cell(i, labels.index(lab)) for lab in ("N1", "N2")}
            problems += _band(cells, ref, f"grid row {i}")
        tally.op(problems)
        for _ in range(ROWS_PER_ROUND):
            i = st.next_row
            st.next_row = (i + 1) % len(spec.rows)
            config = api["SimConfig"](means=spec.rows[i], cov=spec.cov, a=spec.a, reps=st.reps,
                                      master_seed=ctx.seed, estimators=st.specs)
            try:
                t0 = time.perf_counter()
                result = tr.call("risksim.simulate_all", api["simulate_all"], config)
                samples.add("aux_ms", (time.perf_counter() - t0) * 1e3)
            except Exception as exc:
                tally.op([f"exception {type(exc).__name__}: {exc}"])
                continue
            tally.op(_band(result, st.refs[i], f"simulate_all row {i}"))
        samples.end_round()


def finish(ctx: Context, st: State, tally: Tally) -> None:
    """Improved no worse than its base, on the grid's own paired draws."""
    api, spec = st.api, st.spec
    for i, means in enumerate(spec.rows):
        config = api["SimConfig"](means=means, cov=spec.cov, a=spec.a, reps=st.reps,
                                  master_seed=ctx.seed)
        for est in st.specs:
            if est.kind != "Improved":
                continue
            key = (spec.table_id, i, api["stream_group"](est))
            try:
                diff, se = api["paired"](config, est, est.base, key)
            except Exception as exc:
                tally.op([f"exception {type(exc).__name__}: {exc}"])
                continue
            ok = diff <= PAIRED_SE * se + 1e-12
            tally.op([] if ok else [f"row {i}: {est.label} worse than its base"])


def shape(ctx: Context, st: State) -> Shape:
    return Shape(grids=[(st.spec, st.reps)], seed=ctx.seed)
