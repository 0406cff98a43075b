"""Seeded Monte Carlo risk engine and the six-table grid sweeps.

Every cell of a grid draws from its own counter-based stream keyed by
(master seed, table id, row, column group), so results are bit-identical
for a fixed master seed no matter how many workers run the sweep or which
columns are added later. A column group is the base-estimator family; the
base and its truncation-improved variant share draws, which is exactly the
common-random-numbers pairing the dominance comparisons need.
"""

from __future__ import annotations

import io
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import (
    CovarianceSpec,
    InvalidParameterError,
    LinexParams,
    MeanVectorPair,
    Workspace,
    blend,
    linex_loss,
    rng_stream,
    sample_batch,
)
from .estimators import BASE_KINDS, EstimatorSpec, base_phi_batch, evaluate_batch
from .improvement import applicable_case, case_label
from .selection import select_batch

#: the 11 mean-vector configurations used by every published table
THETA_CONFIGS: tuple[MeanVectorPair, ...] = tuple(
    MeanVectorPair(t1, t2)
    for t1, t2 in [
        ((0.2, 2.0), (2.0, 0.2)),
        ((0.4, 1.8), (1.8, 0.4)),
        ((0.6, 1.6), (1.6, 0.6)),
        ((0.8, 1.4), (1.4, 0.8)),
        ((1.0, 1.2), (1.2, 1.0)),
        ((0.0, 0.0), (0.0, 0.0)),
        ((1.2, 1.0), (1.0, 1.2)),
        ((1.4, 0.8), (0.8, 1.4)),
        ((1.6, 0.6), (0.6, 1.6)),
        ((1.8, 0.4), (0.4, 1.8)),
        ((2.0, 0.2), (0.2, 2.0)),
    ]
)

_GROUP_IDS = {"N1": 0, "N2": 1, "N3": 2, "N4": 3, "Bayes": 4, "Shift": 5, "Improved": 6}


def stream_group(spec: EstimatorSpec) -> int:
    """Column-group index for stream derivation; improved shares its base's group."""
    kind = spec.base.kind if spec.kind == "Improved" else spec.kind
    return _GROUP_IDS[kind]


@dataclass(frozen=True)
class SimConfig:
    means: MeanVectorPair
    cov: CovarianceSpec
    a: LinexParams
    reps: int = 20000
    master_seed: int = 0
    estimators: tuple[EstimatorSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise InvalidParameterError(f"reps must be >= 1, got {self.reps}")


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo mean LINEX risk with its standard error and provenance."""

    mean_risk: float
    std_error: Optional[float]
    reps: int
    master_seed: int
    stream_key: tuple[int, ...] = ()


class CellWorkspace(Workspace):
    """The arrays of risk cells of `reps` draws, reused cell after cell.

    Beyond the kernels' scratch it holds the (4, reps) draw block and what
    lives through a cell: the selection mask, y_sel, t1, t2, the realized
    theta_y^S, the base phi (N3's or N4's; N1's and N2's are floats), and the
    column's estimate, which its loss then overwrites. One thread's alone;
    dropped when its sweep returns.
    """

    def __init__(self, reps: int):
        super().__init__(reps)
        self.draws = np.empty((4, reps))
        self.sel1 = np.empty(reps, bool)
        self.y_sel, self.t1, self.t2, self.theta_sel, self.phi, self.est = (
            np.empty(reps) for _ in range(6)
        )


def _cell_losses(
    config: SimConfig, specs: Sequence[EstimatorSpec], stream_key: tuple[int, ...],
    ws: CellWorkspace,
) -> Iterator[np.ndarray]:
    """Each column's losses on the cell's draws in turn, in `ws.est` until the next."""
    rng = rng_stream(config.master_seed, *stream_key)
    x1, y1, x2, y2 = sample_batch(config.means, config.cov, rng, config.reps, ws.draws, ws)
    s = select_batch(x1, y1, x2, y2, (ws.sel1, ws.y_sel, ws.t1, ws.t2), ws)
    theta_sel = blend(ws.sel1, config.means.theta1[1], config.means.theta2[1], ws.theta_sel, ws)
    a, cov = config.a, config.cov
    held = phi = None
    for spec in specs:
        if spec.kind == "Bayes" and s.x_max is None:
            # only Bayes reads x_max, so only a Bayes column builds it
            s = replace(s, x_max=np.maximum(x1, x2))
        # a base and its improved column share the draws, so they share one phi
        base = spec.base if spec.kind == "Improved" else spec
        if base != held and base.kind in BASE_KINDS:
            held, phi = base, base_phi_batch(base, s, a, cov, ws.phi, ws)
        estimate = evaluate_batch(spec, s, a, cov, phi if base == held else None, ws.est, ws)
        yield linex_loss(estimate, theta_sel, a, spec.label, ws.est, ws)


def _estimate_from_losses(
    losses: np.ndarray, config: SimConfig, stream_key: tuple[int, ...], ws: CellWorkspace
) -> RiskEstimate:
    # the ufuncs of losses.mean() and losses.std(ddof=1), so the bits match,
    # with the deviations in a borrowed array
    n = config.reps
    total = np.add.reduce(losses)
    se = None
    if n > 1:
        with ws.borrow(floats=1) as (dev,):
            np.subtract(losses, total / n, out=dev)
            np.square(dev, out=dev)
            se = float(np.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n))
    return RiskEstimate(
        mean_risk=float(total / n),
        std_error=se,
        reps=n,
        master_seed=config.master_seed,
        stream_key=stream_key,
    )


def _run_cell(
    config: SimConfig, specs: Sequence[EstimatorSpec], stream_key: tuple[int, ...],
    ws: CellWorkspace,
) -> list[RiskEstimate]:
    return [
        _estimate_from_losses(losses, config, stream_key, ws)
        for losses in _cell_losses(config, specs, stream_key, ws)
    ]


def simulate_risk(
    config: SimConfig, spec: EstimatorSpec, stream_key: tuple[int, ...] = ()
) -> RiskEstimate:
    """Monte Carlo LINEX risk of one estimator at the configured means.

    Each rep draws an observation pair, applies the selection rule, evaluates
    the estimator, and scores it against the realized theta_y^S. Deterministic
    for a fixed (master_seed, stream_key).
    """
    (est,) = _run_cell(config, [spec], stream_key, CellWorkspace(config.reps))
    return est


def simulate_all(config: SimConfig) -> dict[str, RiskEstimate]:
    """Evaluate config.estimators on one shared stream (common random numbers)."""
    if not config.estimators:
        raise InvalidParameterError("config.estimators must be nonempty")
    estimates = _run_cell(config, config.estimators, (), CellWorkspace(config.reps))
    return {spec.label: est for spec, est in zip(config.estimators, estimates)}


def paired_risk_difference(
    config: SimConfig,
    spec_a: EstimatorSpec,
    spec_b: EstimatorSpec,
    stream_key: tuple[int, ...] = (),
) -> tuple[float, float]:
    """mean(loss_a - loss_b) over identical draws, with the paired standard error (0 at one rep)."""
    ws = CellWorkspace(config.reps)
    losses = _cell_losses(config, [spec_a, spec_b], stream_key, ws)
    loss_a = next(losses).copy()
    np.subtract(loss_a, next(losses), out=loss_a)
    est = _estimate_from_losses(loss_a, config, stream_key, ws)
    return est.mean_risk, est.std_error or 0.0


@dataclass(frozen=True)
class TableSpec:
    """Config of one published risk table (or a custom grid shaped like one)."""

    table_id: int
    a: LinexParams
    cov: CovarianceSpec
    columns: tuple[tuple[str, EstimatorSpec], ...]
    rows: tuple[MeanVectorPair, ...] = THETA_CONFIGS
    c: float = 1.0


def table_columns(
    a: float, rho: float, improved_bases: Sequence[str], c: float
) -> tuple[tuple[str, EstimatorSpec], ...]:
    cols: list[tuple[str, EstimatorSpec]] = []
    for spec in (EstimatorSpec.n1(), EstimatorSpec.n2(), EstimatorSpec.n3(), EstimatorSpec.n4(c)):
        cols.append((spec.kind, spec))
        if spec.kind in improved_bases:
            case_id = applicable_case(spec.kind, a, rho)
            if case_id is None:
                raise InvalidParameterError(
                    f"no improvement case covers base {spec.kind} at a={a}, rho={rho}"
                )
            cols.append((case_label(case_id), EstimatorSpec.improved(spec)))
    return tuple(cols)


def _make_table(table_id: int, a: float, sigma: float, rho: float, improved: Sequence[str]) -> TableSpec:
    cov = CovarianceSpec.from_correlation(sigma, sigma, rho)
    return TableSpec(
        table_id=table_id,
        a=LinexParams(a),
        cov=cov,
        columns=table_columns(a, rho, improved, 1.0),
    )


#: the published grids: (a, sigma_xx = sigma_yy, rho, which bases carry an improved column)
TABLE_SPECS: dict[int, TableSpec] = {
    5: _make_table(5, 1.0, 2.0, 1.0, ("N1", "N2")),
    6: _make_table(6, 1.0, 2.0, -1.0, ("N1", "N2", "N3", "N4")),
    7: _make_table(7, 1.0, 2.0, 0.0, ("N3",)),
    8: _make_table(8, -1.0, 4.0, 1.0, ()),
    9: _make_table(9, -1.0, 4.0, -1.0, ("N1", "N2", "N3", "N4")),
    10: _make_table(10, -1.0, 4.0, 0.0, ("N1", "N4")),
}


@dataclass
class RiskTable:
    """Results of one grid sweep, in canonical row-major order."""

    spec: TableSpec
    reps: int
    master_seed: int
    estimates: dict[tuple[int, int], RiskEstimate] = field(default_factory=dict)

    def cell(self, row: int, col: int) -> RiskEstimate:
        return self.estimates[(row, col)]

    @property
    def flagged(self) -> list[tuple[int, str, float, float]]:
        """Cells whose standard error exceeds 5% of the mean (high variance)."""
        out = []
        for (i, j), est in sorted(self.estimates.items()):
            if est.std_error is not None and est.std_error > 0.05 * abs(est.mean_risk):
                out.append((i, self.spec.columns[j][0], est.mean_risk, est.std_error))
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("theta1_x,theta1_y,theta2_x,theta2_y,estimator,risk,std_error,reps,seed\n")
        for i, means in enumerate(self.spec.rows):
            for j, (label, _) in enumerate(self.spec.columns):
                est = self.estimates[(i, j)]
                se = "" if est.std_error is None else f"{est.std_error:.6g}"
                buf.write(
                    f"{means.theta1[0]:.6g},{means.theta1[1]:.6g},"
                    f"{means.theta2[0]:.6g},{means.theta2[1]:.6g},"
                    f"{label},{est.mean_risk:.6g},{se},{est.reps},{est.master_seed}\n"
                )
        return buf.getvalue()


def available_cpus() -> int:
    """Number of CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def risk_grid(
    table: int | TableSpec,
    reps: int = 20000,
    master_seed: int = 0,
    workers: Optional[int] = None,
) -> RiskTable:
    """Sweep a table's full factorial of mean configurations x estimator columns.

    Cells are independent tasks; draws for a cell come from the stream keyed
    (master_seed, table_id, row, column-group), so the output is byte-identical
    for any worker count and unchanged when columns from other groups are added.
    `workers` defaults to `available_cpus()`.
    """
    if isinstance(table, int):
        if table not in TABLE_SPECS:
            raise InvalidParameterError(
                f"table id must be one of {sorted(TABLE_SPECS)}, got {table}"
            )
        spec = TABLE_SPECS[table]
    else:
        spec = table
    if reps < 1:
        raise InvalidParameterError(f"reps must be >= 1, got {reps}")
    if workers is None:
        workers = available_cpus()
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")

    # one task per (row, column-group): all columns in a group share draws
    groups: dict[int, list[int]] = {}
    for j, (_, est_spec) in enumerate(spec.columns):
        groups.setdefault(stream_group(est_spec), []).append(j)

    table_result = RiskTable(spec=spec, reps=reps, master_seed=master_seed)
    # one workspace per thread of this call, made on its first cell
    local = threading.local()

    def run_cell(row_idx: int, group_id: int) -> list[tuple[tuple[int, int], RiskEstimate]]:
        config = SimConfig(
            means=spec.rows[row_idx],
            cov=spec.cov,
            a=spec.a,
            reps=reps,
            master_seed=master_seed,
        )
        key = (spec.table_id, row_idx, group_id)
        cols = groups[group_id]
        if not hasattr(local, "ws"):
            local.ws = CellWorkspace(reps)
        estimates = _run_cell(config, [spec.columns[j][1] for j in cols], key, local.ws)
        return [((row_idx, j), est) for j, est in zip(cols, estimates)]

    tasks = [(i, g) for i in range(len(spec.rows)) for g in sorted(groups)]
    # one worker runs the cells on this thread: a one-thread pool measured 2-26 %
    # slower on a 64-row, 8-column grid at 5000 reps
    if workers == 1:
        results = [run_cell(i, g) for i, g in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: run_cell(*t), tasks))
    for chunk in results:
        for key, est in chunk:
            table_result.estimates[key] = est
    return table_result
