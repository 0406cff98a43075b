"""Natural selection rule and the order-statistic/concomitant summary.

The rule picks the population with the larger observed X; ties go to
population 2 (the weak inequality branch of the rule). Every estimator
downstream consumes the summary produced here, either for one observation
pair (`select`) or for arrays of draws (`select_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import InvalidParameterError, ObservationPair, Workspace, blend


@dataclass(frozen=True)
class SelectionSummary:
    """Order statistics of X, their Y concomitants, and the differences.

    t1 = X_(1) - X_(2) <= 0 and t2 = Y_[1] - Y_[2]; y_sel is the concomitant
    of the larger X (the selected population's Y). From `select_batch`,
    y_sel, t1 and t2 are arrays with one entry per draw and the rest is None.
    """

    selected: int
    x_max: float
    x_min: float
    y_sel: float
    y_other: float
    t1: float
    t2: float


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


def select_batch(x1, y1, x2, y2, out=None, work: Optional[Workspace] = None) -> SelectionSummary:
    """`select` over arrays of draws; the tie rule becomes the mask x1 > x2.

    Builds the mask and the three arrays the estimators read, y_sel, t1 and
    t2, and leaves selected, x_max, x_min and y_other None. With `out` =
    (sel1, y_sel, t1, t2), a bool array and three float arrays, they are
    written there. Borrows its temporaries from `work` if given.
    """
    import numpy as np

    sel1, y_sel, t1, t2 = (None,) * 4 if out is None else out
    sel1 = np.greater(x1, x2, out=sel1)
    y_sel = blend(sel1, y1, y2, y_sel, work)
    # x_min - x_max is -|x1 - x2|, and +0.0 (as 0.0 - 0.0) at a tie
    t1 = np.subtract(x1, x2, out=t1)
    np.abs(t1, out=t1)
    np.subtract(0.0, t1, out=t1)
    # t2 holds y_other until it becomes y_other - y_sel
    t2 = blend(sel1, y2, y1, t2, work)
    np.subtract(t2, y_sel, out=t2)
    return SelectionSummary(None, None, None, y_sel, None, t1, t2)
