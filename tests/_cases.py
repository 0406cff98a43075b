"""The fifteen transcribed piecewise improvement rules, as test fixtures.

The source states one rule per base estimator and (a, rho) region. The
library clips generically (`linexsel.improvement.improve`); these
transcriptions are kept only to show that the generic clip and the stated
rules agree.
"""

from __future__ import annotations

import math

from linexsel import CovarianceSpec, InvalidParameterError, LinexParams, SelectionSummary
from linexsel.estimators import n3_offset
from linexsel.improvement import case_base_kind, case_in_region
from linexsel.oracles import phi_bounds


class CaseRegionError(InvalidParameterError):
    """A named improvement rule was applied outside its declared (a, rho) region."""


def named_case_rule(
    case_id: int,
    s: SelectionSummary,
    a: LinexParams,
    cov: CovarianceSpec,
    c: float = 1.0,
) -> float:
    """Evaluate one of the fifteen transcribed piecewise rules.

    The rules for the log-estimator base (cases 7-10) carry their stated
    component-vs-bound condition as a pointwise guard; with it each rule
    agrees with improve() everywhere off the boundary sets where weak and
    strict inequalities differ.
    """
    if not case_in_region(case_id, a.a, cov.rho):
        raise CaseRegionError(
            f"case {case_id} does not apply at a={a.a:g}, rho={cov.rho:.6g}"
        )
    base_kind = case_base_kind(case_id)
    t1, t2 = s.t1, s.t2
    aa = a.a
    rho, xi = cov.rho, cov.xi
    syy = cov.sigma_yy
    half = aa * syy / 2.0
    gate = xi * rho * t1 - half * (1.0 - rho * rho)
    cut = -c * math.sqrt(2.0 * cov.sigma_xx)
    clipped_value = (s.y_sel + s.y_other) / 2.0 - aa * syy / 4.0

    if base_kind == "N3":
        phi3 = n3_offset(t1, t2, a, cov)
        lo, hi = phi_bounds(t1, t2, a, cov)
        guard = phi3 <= lo or phi3 >= hi
    else:
        guard = True

    if case_id == 1:
        fire = t1 > rho * t2 / xi and half >= t2 > gate
    elif case_id == 2:
        fire = t1 < rho * t2 / xi and half <= t2 < gate
    elif case_id == 3:
        fire = (t1 < rho * t2 / xi and half <= t2 < gate) or (
            t1 > rho * t2 / xi and half >= t2 > gate
        )
    elif case_id == 4:
        fire = half <= t2 < -half
    elif case_id == 5:
        fire = t1 < rho * t2 / xi and -half <= t2 < gate
    elif case_id == 6:
        fire = (t1 < rho * t2 / xi and -half <= t2 < gate) or (
            t1 > rho * t2 / xi and -half >= t2 > gate
        )
    elif case_id == 7:
        fire = (t1 < rho * t2 / xi and t2 < gate) or (t1 > rho * t2 / xi and t2 > gate)
    elif case_id == 8:
        fire = t1 < rho * t2 / xi and t2 < gate
    elif case_id == 9:
        fire = t2 < min(xi * t1 / rho, gate) or t2 > max(xi * t1 / rho, gate)
    elif case_id == 10:
        fire = t1 < 0 and t2 < -half
    elif case_id == 11:
        fire = (t1 > max(cut, rho * t2 / xi) and t2 > gate) or (
            rho * t2 / xi < t1 <= cut and half >= t2 > gate
        )
    elif case_id == 12:
        fire = (
            (t1 > max(cut, rho * t2 / xi) and t2 > gate)
            or (t1 < min(cut, rho * t2 / xi) and half <= t2 < gate)
            or (rho * t2 / xi < t1 <= cut and half >= t2 > gate)
        )
    elif case_id == 13:
        fire = (
            (cut < t1 < rho * t2 / xi and t2 < gate)
            or (t1 < min(cut, rho * t2 / xi) and half <= t2 < gate)
            or (rho * t2 / xi < t1 <= cut and half >= t2 > gate)
        )
    elif case_id == 14:
        fire = (cut < t1 < rho * t2 / xi and t2 < gate) or (
            t1 < min(cut, rho * t2 / xi) and half <= t2 < gate
        )
    elif case_id == 15:
        fire = (t1 > cut and t2 < -half) or (t1 <= cut and half <= t2 < -half)
    else:
        raise InvalidParameterError(f"case_id must be 1..15, got {case_id}")

    if fire and guard:
        return clipped_value

    if base_kind == "N1":
        return s.y_sel
    if base_kind == "N2":
        return s.y_sel - half
    if base_kind == "N3":
        return s.y_sel + phi3
    return (s.y_sel + s.y_other) / 2.0 if t1 > cut else s.y_sel
