"""Two-group dataset ingestion, model fitting, and the worked-example reports.

Fits per-group sample means and an equal-weight pooled covariance (n-1
denominators in each group), then treats the fitted mean vectors as the
observed pair and runs the selection rule and every applicable estimator,
reproducing the worked example's parameter and estimate tables.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .core import CovarianceSpec, LinexParams, ObservationPair
from .estimators import EstimatorSpec, PriorSpec, evaluate
from .improvement import applicable_case, improve
from .oracles import TRUNCATED_NONE
from .risksim import table_columns
from .selection import SelectionSummary, select

#: the one corrupt cholesterol value in the published data and its repair
OUTLIER_VALUE = 1745.46
OUTLIER_REPLACEMENT = 145.46

#: how `fit` pools the two groups' covariances
POOLING = "mean of per-group sample covariances, n-1 denominators"


class DatasetError(ValueError):
    """Malformed or structurally invalid input data."""


@dataclass(frozen=True)
class GroupedDataset:
    group1: tuple[tuple[float, float], ...]
    group2: tuple[tuple[float, float], ...]
    labels: tuple[str, str]
    cleaned: bool = False


@dataclass(frozen=True)
class FittedModel:
    theta_hat_1: tuple[float, float]
    theta_hat_2: tuple[float, float]
    cov_hat: CovarianceSpec
    labels: tuple[str, str]
    n_per_group: int
    cleaned: bool

    def parameter_rows(self) -> list[tuple[str, str, float, float, float]]:
        """Fitted-parameter table: one row per (population, measure)."""
        c = self.cov_hat
        return [
            (self.labels[0], "weight", self.theta_hat_1[0], c.sigma_xx, c.sigma_xy),
            (self.labels[0], "cholesterol", self.theta_hat_1[1], c.sigma_yy, c.sigma_xy),
            (self.labels[1], "weight", self.theta_hat_2[0], c.sigma_xx, c.sigma_xy),
            (self.labels[1], "cholesterol", self.theta_hat_2[1], c.sigma_yy, c.sigma_xy),
        ]

    def parameters_csv(self) -> str:
        lines = ["population,measure,mean,variance,covariance"]
        for pop, meas, mean, var, covv in self.parameter_rows():
            lines.append(f"{pop},{meas},{mean:.4f},{var:.4f},{covv:.4f}")
        return "\n".join(lines) + "\n"


def bundled_dataset_path() -> str:
    """Path of the packaged two-group poultry dataset."""
    return str(resources.files("linexsel").joinpath("data/poultry.csv"))


def load_dataset(path: str, clean: bool = False) -> GroupedDataset:
    """Read `group,weight,cholesterol` rows into two equal-size groups.

    Group labels are taken in order of first appearance; exactly two are
    required and both must have the same size. `clean` replaces the known
    corrupt value 1745.46 by 145.46 (off by a factor-of-10 digit slip; the
    raw value is kept verbatim otherwise).
    """
    groups: dict[str, list[tuple[float, float]]] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        if [h.strip().lower() for h in header] != ["group", "weight", "cholesterol"]:
            raise DatasetError(
                f"{path}: expected header 'group,weight,cholesterol', got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DatasetError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            label = row[0].strip()
            try:
                weight, chol = float(row[1]), float(row[2])
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from None
            if not (math.isfinite(weight) and math.isfinite(chol)):
                raise DatasetError(f"{path}:{lineno}: non-finite value")
            if clean and chol == OUTLIER_VALUE:
                chol = OUTLIER_REPLACEMENT
            if label not in groups:
                groups[label] = []
                order.append(label)
            groups[label].append((weight, chol))
    if len(order) != 2:
        raise DatasetError(f"{path}: expected exactly 2 groups, found {len(order)}: {order}")
    n1, n2 = len(groups[order[0]]), len(groups[order[1]])
    if n1 != n2:
        raise DatasetError(
            f"{path}: groups must have equal sizes for the pooled covariance, "
            f"got {order[0]}={n1}, {order[1]}={n2}"
        )
    return GroupedDataset(
        group1=tuple(groups[order[0]]),
        group2=tuple(groups[order[1]]),
        labels=(order[0], order[1]),
        cleaned=clean,
    )


def _moments(
    group: tuple[tuple[float, float], ...],
) -> tuple[tuple[float, float], tuple[float, float, float]]:
    """Sample means (x, y) and covariance (xx, yy, xy), n-1 denominators, of one group.

    Sums run left to right in plain floats, so the means are bit for bit
    numpy's `mean(axis=0)`; like `np.cov`, the cross products are scaled by
    1/(n-1).
    """
    n = len(group)
    sum_x = sum_y = 0.0
    for x, y in group:
        sum_x += x
        sum_y += y
    mean_x, mean_y = sum_x / n, sum_y / n
    sxx = syy = sxy = 0.0
    for x, y in group:
        dx, dy = x - mean_x, y - mean_y
        sxx += dx * dx
        syy += dy * dy
        sxy += dx * dy
    scale = 1.0 / (n - 1)
    return (mean_x, mean_y), (sxx * scale, syy * scale, sxy * scale)


def fit(data: GroupedDataset) -> FittedModel:
    """Per-group sample means and the pooled covariance."""
    if len(data.group1) < 2 or len(data.group2) < 2:
        raise DatasetError("each group needs at least 2 observations")
    m1, c1 = _moments(data.group1)
    m2, c2 = _moments(data.group2)
    sxx, syy, sxy = ((u + v) / 2.0 for u, v in zip(c1, c2))
    if sxx <= 0 or syy <= 0:
        raise DatasetError("zero variance in a column; covariance model is degenerate")
    return FittedModel(
        theta_hat_1=m1,
        theta_hat_2=m2,
        cov_hat=CovarianceSpec(sxx, syy, sxy),
        labels=data.labels,
        n_per_group=len(data.group1),
        cleaned=data.cleaned,
    )


@dataclass
class AnalysisReport:
    """Selection outcome and every applicable estimate at the fitted parameters."""

    model: FittedModel
    a: float
    c: float
    summary: SelectionSummary
    selected_label: str
    estimates: list[tuple[str, float, str]] = field(default_factory=list)  # label, value, note

    def to_text(self) -> str:
        m = self.model
        lines = [
            f"fitted parameters (n = {m.n_per_group} per group, "
            f"{'cleaned' if m.cleaned else 'raw'} data; pooled = {POOLING})",
        ]
        for pop, meas, mean, var, covv in m.parameter_rows():
            lines.append(f"  {pop:<12} {meas:<12} mean={mean:10.4f}  var={var:10.4f}  cov={covv:9.4f}")
        cov = m.cov_hat
        lines.append(f"  rho = {cov.rho:.4f}, xi = {cov.xi:.4f}")
        lines.append(
            f"selected population: {self.selected_label} "
            f"(x_max = {self.summary.x_max:.4f}, t1 = {self.summary.t1:.4f}, "
            f"t2 = {self.summary.t2:.4f})"
        )
        lines.append(f"estimates of the selected Y-mean (a = {self.a:g}, c = {self.c:g}):")
        for label, value, note in self.estimates:
            flag = f"  [{note}]" if note else ""
            lines.append(f"  {label:<8} {value:12.4f}{flag}")
        return "\n".join(lines) + "\n"


def estimate_rows(
    s: SelectionSummary,
    a: LinexParams,
    cov: CovarianceSpec,
    c: float = 1.0,
    prior: Optional[PriorSpec] = None,
    d: Optional[float] = None,
) -> list[tuple[str, float, str]]:
    """(label, value, truncation note) rows of an estimate report.

    The columns of a risk table (`risksim.table_columns`) with every improved
    column that applies at (a, rho); the note is empty unless the clip fired.
    The shift Y_[2] + d and the Bayes estimate come last when d or a prior is
    given.
    """
    bases = [k for k in ("N1", "N2", "N3", "N4") if applicable_case(k, a.a, cov.rho) is not None]
    rows = []
    for label, spec in table_columns(a.a, cov.rho, bases, c):
        if spec.kind == "Improved":
            outcome = improve(spec, s, a, cov)
            note = "" if outcome.truncated == TRUNCATED_NONE else outcome.truncated
            rows.append((label, outcome.value, note))
        else:
            rows.append((label, evaluate(spec, s, a, cov), ""))
    if d is not None:
        shift = EstimatorSpec.shift(d)
        rows.append((shift.label, evaluate(shift, s, a, cov), ""))
    if prior is not None:
        rows.append(("Bayes", evaluate(EstimatorSpec.bayes(prior), s, a, cov), ""))
    return rows


def estimates_csv(rows: list[tuple[str, float, str]]) -> str:
    """The `estimator,estimate,truncated` CSV of `estimate_rows` output."""
    lines = ["estimator,estimate,truncated"]
    lines += [f"{label},{value:.4f},{note}" for label, value, note in rows]
    return "\n".join(lines) + "\n"


def analyze(
    model: FittedModel,
    a: LinexParams,
    c: float = 1.0,
    prior: Optional[PriorSpec] = None,
) -> AnalysisReport:
    """Plug the fitted means in as the observed pair and evaluate everything.

    Mirrors the worked example: the fitted mean vectors are used directly as
    (X_i, Y_i), selection runs on them, and the report holds the
    `estimate_rows` at the fitted covariance (with Bayes when a prior is given).
    """
    s = select(ObservationPair(model.theta_hat_1, model.theta_hat_2))
    return AnalysisReport(
        model=model,
        a=a.a,
        c=c,
        summary=s,
        selected_label=model.labels[s.selected - 1],
        estimates=estimate_rows(s, a, model.cov_hat, c, prior),
    )
