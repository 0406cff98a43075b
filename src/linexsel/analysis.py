"""Two-group dataset ingestion, model fitting, and the worked-example reports.

Fits per-group sample means and an equal-weight pooled covariance (n-1
denominators in each group), then treats the fitted mean vectors as the
observed pair and runs the selection rule and every applicable estimator,
reproducing the worked example's parameter and estimate tables. The
estimate rows and the value format come from `improvement`, where the
`estimate` subcommand reads them without loading this module.
"""

from __future__ import annotations

import csv
import math
from importlib import resources
from typing import Optional

# DatasetError is defined in core, beside the other error types; it is read from here too
from .core import CovarianceSpec, DatasetError, LinexParams, ObservationPair, Record
from .estimators import PriorSpec
from .improvement import estimate_rows, format_value
from .selection import SelectionSummary, select

#: the one corrupt cholesterol value in the published data and its repair
OUTLIER_VALUE = 1745.46
OUTLIER_REPLACEMENT = 145.46

#: how `fit` pools the two groups' covariances
POOLING = "mean of per-group sample covariances, n-1 denominators"

class GroupedDataset(Record):
    def __init__(
        self,
        group1: tuple[tuple[float, float], ...],
        group2: tuple[tuple[float, float], ...],
        labels: tuple[str, str],
        cleaned: bool = False,
    ):
        self.__dict__.update(group1=group1, group2=group2, labels=labels, cleaned=cleaned)


class FittedModel(Record):
    def __init__(
        self,
        theta_hat_1: tuple[float, float],
        theta_hat_2: tuple[float, float],
        cov_hat: CovarianceSpec,
        labels: tuple[str, str],
        n_per_group: int,
        cleaned: bool,
    ):
        self.__dict__.update(
            theta_hat_1=theta_hat_1, theta_hat_2=theta_hat_2, cov_hat=cov_hat, labels=labels,
            n_per_group=n_per_group, cleaned=cleaned,
        )

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
            values = ",".join(format_value(v) for v in (mean, var, covv))
            lines.append(f"{pop},{meas},{values}")
        return "\n".join(lines) + "\n"


def bundled_dataset_path() -> str:
    """Path of the packaged two-group poultry dataset."""
    return str(resources.files("linexsel").joinpath("data/poultry.csv"))


def load_dataset(path: str, clean: bool = False) -> GroupedDataset:
    """Read `group,weight,cholesterol` rows of a UTF-8 file into two equal-size groups.

    A leading byte-order mark, which Excel's "CSV UTF-8" writes, is skipped.
    Group labels are taken in order of first appearance; exactly two are
    required and both must have the same size. `clean` replaces the known
    corrupt value 1745.46 by 145.46 (off by a factor-of-10 digit slip; the
    raw value is kept verbatim otherwise).
    """
    groups: dict[str, list[tuple[float, float]]] = {}
    order: list[str] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: empty file")
    header = rows[0]
    if [h.strip().lower() for h in header] != ["group", "weight", "cholesterol"]:
        raise DatasetError(
            f"{path}: expected header 'group,weight,cholesterol', got {','.join(header)!r}"
        )
    for lineno, row in enumerate(rows[1:], start=2):
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


class AnalysisReport(Record):
    """Selection outcome and every applicable estimate at the fitted parameters."""

    def __init__(
        self,
        model: FittedModel,
        a: float,
        c: float,
        summary: SelectionSummary,
        estimates: Optional[list[tuple[str, float, str]]] = None,  # label, value, note
    ):
        self.__dict__.update(
            model=model, a=a, c=c, summary=summary, estimates=[] if estimates is None else estimates
        )

    @property
    def selected_label(self) -> str:
        """The group label of the selected population."""
        return self.model.labels[self.summary.selected - 1]

    def to_text(self) -> str:
        m = self.model
        lines = [
            f"fitted parameters (n = {m.n_per_group} per group, "
            f"{'cleaned' if m.cleaned else 'raw'} data; pooled = {POOLING})",
        ]
        for pop, meas, mean, var, covv in m.parameter_rows():
            lines.append(
                f"  {pop:<12} {meas:<12} mean={format_value(mean):>10}  "
                f"var={format_value(var):>10}  cov={format_value(covv):>9}"
            )
        cov = m.cov_hat
        lines.append(f"  rho = {cov.rho:.4f}, xi = {format_value(cov.xi)}")
        lines.append(
            f"selected population: {self.selected_label} "
            f"(x_max = {format_value(self.summary.x_max)}, t1 = {format_value(self.summary.t1)}, "
            f"t2 = {format_value(self.summary.t2)})"
        )
        lines.append(f"estimates of the selected Y-mean (a = {self.a:g}, c = {self.c:g}):")
        for label, value, note in self.estimates:
            flag = f"  [{note}]" if note else ""
            lines.append(f"  {label:<8} {format_value(value):>12}{flag}")
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
        estimates=estimate_rows(s, a, model.cov_hat, c, prior),
    )
