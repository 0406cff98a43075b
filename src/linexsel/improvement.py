"""Truncation improvement of equivariant estimators.

Any estimator of the form Y_[2] + phi(T1, T2) whose component exits the
band [phi_inf, phi_sup] with positive probability is dominated by the
version clipped into the band. The clip itself lives in `oracles`, beside
the band; `improve` applies it to one observation and reports the side
that clipped. The fifteen named (base, a, rho) regions label the improved
rows in reports and tables, and `table_columns` lists the columns of a table
or an estimate report with those labels.
"""

from __future__ import annotations

from typing import Sequence

from .core import CovarianceSpec, InvalidParameterError, LinexParams, Record
from .estimators import EstimatorSpec, base_phi
from .oracles import clip_component
from .selection import SelectionSummary


class ImprovementOutcome(Record):
    def __init__(self, value: float, truncated: str, base_phi: float):
        self.__dict__.update(value=value, truncated=truncated, base_phi=base_phi)


def improve(
    spec: EstimatorSpec, s: SelectionSummary, a: LinexParams, cov: CovarianceSpec
) -> ImprovementOutcome:
    """Clip the base component into [phi_inf, phi_sup] by `oracles.clip_component`."""
    if spec.kind != "Improved":
        raise InvalidParameterError("improve() expects an Improved spec")
    phi = base_phi(spec.base, s, a, cov)
    component, truncated = clip_component(phi, s.t1, s.t2, a, cov)
    return ImprovementOutcome(value=s.y_sel + component, truncated=truncated, base_phi=phi)


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


def table_columns(
    a: float, rho: float, improved_bases: Sequence[str], c: float
) -> tuple[tuple[str, EstimatorSpec], ...]:
    """A table's columns: N1..N4(c), each base in `improved_bases` followed by its improved column.

    The improved column is labelled by the named case covering (a, rho);
    InvalidParameterError where no case covers it.
    """
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
