"""Workload ``scalar``: the per-observation API the risk sweep never touches.

20000 seeded observation pairs at sigma_xx = sigma_yy = 2, rho = 0.5, a = 1.
Each report is ``select``, then ``evaluate`` for N1, N2, N3, N4(c=1),
Bayes(0, 0, 4), Shift(-1) and the four Improved specs, then ``classify(-1)``.
Between report blocks it computes exact shift-risk points with
``shift_risk_quadrature`` on a seeded theta_x / d grid spanning [d0-1, d1+1],
with psi(theta*) inserted in each theta_x row.

Checks per report: N3 lies in [y_sel, y_sel + t2]; each improved value equals
its base or sits on the clip bound; ``classify`` agrees with ``bounds``. Per
risk row: the risk at psi(theta*) is the minimum among its grid neighbours.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from bench import Context, Samples, Tally, import_program
from layers import Shape, scalar_specs

N_OBS, SMOKE_OBS = 20000, 500
BLOCK = 250
SPEED_PROBE = "python"
THETA_ROWS, D_POINTS = 8, 12
SHIFT_D = -1.0
#: N4's improved value is y_sel + t2/2 while the base is (y_sel + y_other)/2
REL_TOL = 1e-12


@dataclass
class State:
    api: dict
    cov: object
    a: object
    specs: list
    observations: list
    risk_rows: list  # [(theta_x, [d...], index of psi)]
    expected_verdict: str
    next_obs: int = 0
    next_row: int = 0


def setup(ctx: Context) -> State:
    import_program(ctx.root)
    from linexsel.admissibility import bounds, classify, psi
    from linexsel.core import CovarianceSpec, LinexParams, ObservationPair, ThetaStar
    from linexsel.estimators import evaluate
    from linexsel.oracles import shift_risk_quadrature
    from linexsel.selection import select

    cov = CovarianceSpec.from_correlation(2.0, 2.0, 0.5)
    a = LinexParams(1.0)
    rng = np.random.default_rng([ctx.seed, 3])
    n = SMOKE_OBS if ctx.smoke else N_OBS
    means = rng.uniform(-2.0, 2.0, size=(n, 4))
    l_xx, l_yx, l_yy = math.sqrt(2.0), 0.5 * math.sqrt(2.0), math.sqrt(2.0 * 0.75)
    g = rng.standard_normal((n, 4))
    x1 = means[:, 0] + l_xx * g[:, 0]
    y1 = means[:, 1] + l_yx * g[:, 0] + l_yy * g[:, 1]
    x2 = means[:, 2] + l_xx * g[:, 2]
    y2 = means[:, 3] + l_yx * g[:, 2] + l_yy * g[:, 3]
    observations = list(zip(x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist()))

    b = bounds(a, cov)
    risk_rows = []
    for theta_x in np.sort(rng.uniform(0.0, 3.0, THETA_ROWS)).tolist():
        grid = np.sort(rng.uniform(b.d0 - 1.0, b.d1 + 1.0, D_POINTS)).tolist()
        best = psi(ThetaStar(theta_x, 0.0), a, cov)
        at = int(np.searchsorted(grid, best))
        risk_rows.append((theta_x, grid[:at] + [best] + grid[at:], at))
    if SHIFT_D < b.d0:
        verdict = "dominated_by_d0"
    elif SHIFT_D > b.d1:
        verdict = "dominated_by_d1"
    else:
        verdict = "admissible_in_class"
    return State(
        api=dict(ObservationPair=ObservationPair, select=select, evaluate=evaluate,
                 classify=classify, quad=shift_risk_quadrature, ThetaStar=ThetaStar),
        cov=cov, a=a, specs=scalar_specs(d=SHIFT_D), observations=observations,
        risk_rows=risk_rows, expected_verdict=verdict,
    )


def prepare(ctx: Context, st: State) -> None:
    pass


def _report(st: State, tr, obs):
    api, a, cov = st.api, st.a, st.cov
    s = tr.call("selection.select", api["select"], api["ObservationPair"](obs[:2], obs[2:]))
    values = [tr.call(f"estimators.evaluate.{kind}", api["evaluate"], spec, s, a, cov)
              for kind, spec in st.specs]
    verdict = tr.call("admissibility.classify", api["classify"], SHIFT_D, a, cov)
    return s, values, verdict


def _near(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * (1.0 + abs(x) + abs(y))


def report_problems(st: State, s, values, verdict) -> list[str]:
    problems = []
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite estimate")
    by_kind = dict(zip((k for k, _ in st.specs[:4]), values[:4]))
    lo, hi = sorted((s.y_sel, s.y_sel + s.t2))
    if not lo - REL_TOL * (1 + abs(lo)) <= by_kind["n3"] <= hi + REL_TOL * (1 + abs(hi)):
        problems.append("N3 outside [y_sel, y_sel + t2]")
    clip = s.y_sel + (s.t2 / 2.0 - st.a.a * st.cov.sigma_yy / 4.0)
    for (kind, spec), value in zip(st.specs[6:], values[6:]):
        base = by_kind[spec.base.kind.lower()]
        if not (_near(value, base) or _near(value, clip)):
            problems.append(f"improved {spec.base.kind} is neither its base nor the bound")
    if verdict != st.expected_verdict:
        problems.append(f"classify gave {verdict}, bounds imply {st.expected_verdict}")
    return problems


def _risk_row(st: State, tr, samples: Samples, tally: Tally) -> None:
    api = st.api
    theta_x, grid, at = st.risk_rows[st.next_row]
    st.next_row = (st.next_row + 1) % len(st.risk_rows)
    theta = api["ThetaStar"](theta_x, 0.0)
    risks = []
    for d in grid:
        try:
            t0 = time.perf_counter()
            r = tr.call("oracles.shift_risk_quadrature", api["quad"], d, theta, st.a, st.cov)
            samples.add("aux_ms", (time.perf_counter() - t0) * 1e3)
        except Exception as exc:
            tally.op([f"exception {type(exc).__name__}: {exc}"])
            r = math.nan
        risks.append(r)
    for i, r in enumerate(risks):
        problems = [] if math.isfinite(r) and r >= 0 else ["risk point not finite and >= 0"]
        if i == at:
            neighbours = [risks[j] for j in (at - 1, at + 1) if 0 <= j < len(risks)]
            if not all(r <= n * (1 + REL_TOL) for n in neighbours):
                problems.append("risk at psi(theta*) above a grid neighbour")
        if not math.isnan(r):
            tally.op(problems)


def run(ctx: Context, st: State, tr, deadline: float, samples: Samples, tally: Tally) -> None:
    k = 0
    while time.perf_counter() < deadline or k == 0:
        k += 1
        start = st.next_obs
        block = st.observations[start:start + BLOCK]
        st.next_obs = (start + BLOCK) % len(st.observations)
        try:
            t0 = time.perf_counter()
            with tr.span("report_block"):
                results = [_report(st, tr, obs) for obs in block]
            samples.add("op_ms", (time.perf_counter() - t0) * 1e3 / len(block))
        except Exception as exc:
            tally.op([f"exception {type(exc).__name__}: {exc}"])
            continue
        for s, values, verdict in results:
            tally.op(report_problems(st, s, values, verdict))
        _risk_row(st, tr, samples, tally)
        samples.end_round()
        if ctx.max_spans is not None and len(tr.spans) >= ctx.max_spans:
            break


def finish(ctx: Context, st: State, tally: Tally) -> None:
    pass


def shape(ctx: Context, st: State) -> Shape:
    from linexsel.core import MeanVectorPair
    from linexsel.risksim import TableSpec, table_columns

    one_row = TableSpec(table_id=0, a=st.a, cov=st.cov, rows=(MeanVectorPair((0.5, 0.5), (0.0, 0.0)),),
                        columns=table_columns(st.a.a, st.cov.rho, ("N1", "N2", "N3", "N4"), 1.0))
    return Shape(grids=[(one_row, 2000)], seed=ctx.seed,
                 scalar_sets=[(st.cov, st.a, st.observations)])
