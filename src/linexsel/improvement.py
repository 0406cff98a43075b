"""Truncation improvement of equivariant estimators.

Any estimator of the form Y_[2] + phi(T1, T2) whose component exits the
band [phi_inf, phi_sup] with positive probability is dominated by the
version clipped into the band. The generic clip below is the single source
of truth, as a float form and an array form side by side (the weak
inequalities become masks). The fifteen named (base, a, rho) regions label
the improved rows in reports and tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CovarianceSpec, InvalidParameterError, LinexParams, Workspace, blend, borrow
from .estimators import EstimatorSpec, base_phi
from .oracles import clip_band
from .selection import SelectionSummary

TRUNCATED_NONE = "none"
TRUNCATED_LO = "clipped_to_phi_inf"
TRUNCATED_HI = "clipped_to_phi_sup"


@dataclass(frozen=True)
class ImprovementOutcome:
    value: float
    truncated: str
    base_phi: float


def improve(
    spec: EstimatorSpec, s: SelectionSummary, a: LinexParams, cov: CovarianceSpec
) -> ImprovementOutcome:
    """Clip the base component into [phi_inf, phi_sup] (see oracles.phi_bounds).

    Boundary ties use weak inequalities (clip at phi <= phi_inf and
    phi >= phi_sup); a tie clips formally but leaves the value unchanged.
    """
    if spec.kind != "Improved":
        raise InvalidParameterError("improve() expects an Improved spec")
    phi = base_phi(spec.base, s, a, cov)
    value, lo_set, hi_set = clip_band(s.t1, s.t2, a, cov)
    if lo_set and phi <= value:
        return ImprovementOutcome(value=s.y_sel + value, truncated=TRUNCATED_LO, base_phi=phi)
    if hi_set and phi >= value:
        return ImprovementOutcome(value=s.y_sel + value, truncated=TRUNCATED_HI, base_phi=phi)
    return ImprovementOutcome(value=s.y_sel + phi, truncated=TRUNCATED_NONE, base_phi=phi)


def improve_batch(
    s: SelectionSummary,
    a: LinexParams,
    cov: CovarianceSpec,
    phi: float | np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[Workspace] = None,
) -> np.ndarray:
    """`improve(...).value` over a `select_batch` summary, with the same weak clip.

    `phi` is the base estimator's component from `base_phi_batch` on the same
    draws, which a sweep has already computed for the base column; it must
    not be `out`. Writes into `out` if given and borrows its temporaries from
    `work` if given.
    """
    with borrow(work, floats=1, masks=3) as (value, lo_set, hi_set, clip):
        value, lo_set, hi_set = clip_band(s.t1, s.t2, a, cov, (value, lo_set, hi_set), work)
        # the two sets are disjoint and both clip to value, so one blend serves both
        clip = np.greater_equal(phi, value, out=clip)
        hi_set &= clip
        np.less_equal(phi, value, out=clip)
        clip &= lo_set
        clip |= hi_set
        out = blend(clip, value, phi, out, work)
    return np.add(s.y_sel, out, out=out)


# case id -> (base kind, label suffix used in reports, the (sign a, sign rho)
# pairs of the case's declared applicability region)
_CASES: dict[int, tuple[str, str, set[tuple[int, int]]]] = {
    1: ("N1", "I1", {(1, 1)}),
    2: ("N1", "I2", {(-1, -1)}),
    3: ("N1", "I3", {(1, -1), (-1, 1)}),
    4: ("N1", "I4", {(-1, 0)}),
    5: ("N2", "I1", {(1, -1)}),
    6: ("N2", "I2", {(1, 1), (-1, -1)}),
    7: ("N3", "I1", {(1, 1)}),
    8: ("N3", "I2", {(-1, 1)}),
    9: ("N3", "I3", {(1, -1), (-1, -1)}),
    10: ("N3", "I4", {(1, 0), (-1, 0)}),
    11: ("N4", "I1", {(1, 1)}),
    12: ("N4", "I2", {(1, -1)}),
    13: ("N4", "I3", {(-1, 1)}),
    14: ("N4", "I4", {(-1, -1)}),
    15: ("N4", "I5", {(-1, 0)}),
}


def case_base_kind(case_id: int) -> str:
    return _CASES[case_id][0]


def case_label(case_id: int) -> str:
    base, suffix, _ = _CASES[case_id]
    return f"{base}_{suffix}"


def case_in_region(case_id: int, a: float, rho: float) -> bool:
    """Whether (a, rho) lies in the named case's declared applicability region."""
    if case_id not in _CASES:
        raise InvalidParameterError(f"case_id must be 1..15, got {case_id}")
    signs = (int(a > 0) - int(a < 0), int(rho > 0) - int(rho < 0))
    return -1 <= rho <= 1 and signs in _CASES[case_id][2]


def applicable_case(base_kind: str, a: float, rho: float) -> int | None:
    """The named case covering (a, rho) for a base estimator, if any.

    None in the regions where the truncation argument provides no
    improvement (e.g. a > 0, rho = 0 for the plug-in estimator).
    """
    for case_id, (kind, _, _) in _CASES.items():
        if kind == base_kind and case_in_region(case_id, a, rho):
            return case_id
    return None
