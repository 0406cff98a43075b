"""Natural selection rule and the order-statistic/concomitant summary.

The rule picks the population with the larger observed X; ties go to
population 2 (the weak inequality branch of the rule). Every estimator
downstream consumes the summary produced here, either for one observation
pair (`select`) or for arrays of draws (`select_batch`).
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


def select_batch(x1, y1, x2, y2, out=None) -> SelectionSummary:
    """`select` over arrays of draws; the tie rule becomes the mask -(x1 > x2).

    Builds the mask, an int64 array with all bits set where population 1 is
    selected, and the three arrays the estimators read, y_sel, t1 and t2,
    and leaves selected, x_max, x_min and y_other None. Both concomitants
    come from one blend of bits: with d = (y1 ^ y2) & mask, y_sel = y2 ^ d and
    y_other = y1 ^ d. With `out` = (mask, y_sel, t1, t2), an int64 array and
    three float arrays, they are written there.
    """
    import numpy as np

    mask, y_sel, t1, t2 = (None,) * 4 if out is None else out
    shape = np.shape(x1)
    # the comparison itself: the sign of x2 - x1 would pick population 1 at (+0.0, -0.0)
    sel1 = np.greater(x1, x2)
    mask = np.negative(sel1.view(np.int8), out=np.empty(shape, np.int64) if mask is None else mask)
    y1_bits, y2_bits = y1.view(np.int64), y2.view(np.int64)
    y_sel = np.empty(shape) if y_sel is None else y_sel
    d = np.bitwise_xor(y1_bits, y2_bits, out=y_sel.view(np.int64))
    d &= mask
    # t2 holds y_other until it becomes y_other - y_sel
    t2 = np.empty(shape) if t2 is None else t2
    np.bitwise_xor(y1_bits, d, out=t2.view(np.int64))
    d ^= y2_bits
    # x_min - x_max is -|x1 - x2|, and +0.0 (as 0.0 - 0.0) at a tie
    t1 = np.subtract(x1, x2, out=t1)
    np.abs(t1, out=t1)
    np.subtract(0.0, t1, out=t1)
    np.subtract(t2, y_sel, out=t2)
    return SelectionSummary(None, None, None, y_sel, None, t1, t2)
