"""Natural selection rule and the order-statistic/concomitant summary.

The rule picks the population with the larger observed X; ties go to
population 2 (the weak inequality branch of the rule). Every estimator
downstream consumes the summary produced here, for one observation pair
(`select`); its array twin over a risk cell's draws, `select_batch`, lives
in `kernels`.
"""

from __future__ import annotations

import math

from .core import InvalidParameterError, ObservationPair, Record


class SelectionSummary(Record):
    """Order statistics of X, their Y concomitants, and the differences.

    t1 = X_(1) - X_(2) <= 0 and t2 = Y_[1] - Y_[2]; y_sel is the concomitant
    of the larger X (the selected population's Y). From `select_batch`,
    y_sel, t1 and t2 are arrays with one entry per draw and the rest is None.
    """

    def __init__(
        self, selected: int, x_max: float, x_min: float, y_sel: float, y_other: float,
        t1: float, t2: float,
    ):
        self.__dict__.update(
            selected=selected, x_max=x_max, x_min=x_min, y_sel=y_sel, y_other=y_other,
            t1=t1, t2=t2,
        )


def select(obs: ObservationPair) -> SelectionSummary:
    """Apply the natural rule: population 1 iff x1 > x2, ties to population 2.

    Finite observations can still give an infinite difference (e.g. y values
    of +-1e308); such a summary is rejected rather than passed on.
    """
    (x1, y1), (x2, y2) = obs.z1, obs.z2
    if x1 > x2:
        selected, x_max, x_min, y_sel, y_other = 1, x1, x2, y1, y2
    else:
        selected, x_max, x_min, y_sel, y_other = 2, x2, x1, y2, y1
    t1 = x_min - x_max
    t2 = y_other - y_sel
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise InvalidParameterError(f"differences overflowed: t1 = {t1}, t2 = {t2}")
    return SelectionSummary(selected, x_max, x_min, y_sel, y_other, t1, t2)
