"""The parameter-free band [phi_inf, phi_sup] and the clip into it.

The paper's improvement result clips the equivariant component phi(T1, T2)
of an estimator Y_[2] + phi into a band whose edges need no parameter: each
edge is t2/2 - a*sigma_yy/4 on its own condition set of the observable
differences (T1, T2) and infinite elsewhere. The band and the weak clip
into it live here once, as float forms (`clip_band`, `clip_component`)
that `estimators` and `improvement` both take from here; their array twins
(`clip_band_batch`, `improve_batch`), where the condition sets become
masks, live in `kernels` and read the band's edges from `_band_edges`.
The exact shift-estimator risk lives with psi in `admissibility`; its
former name `shift_risk_quadrature` is still served here, importing
`admissibility` on first read, so loading this module does not load it.
The optimal local shift varphi that the band sandwiches, and the
conditional law of Y_[2] - theta_y^S given (T1, T2) that it comes from,
are test references in tests/reference.py; nothing here needs them.
"""

from __future__ import annotations

import math

from .core import CovarianceSpec, InvalidParameterError, LinexParams, remember_last

TRUNCATED_NONE = "none"
TRUNCATED_LO = "clipped_to_phi_inf"
TRUNCATED_HI = "clipped_to_phi_sup"


@remember_last
def _band_edges(a: LinexParams, cov: CovarianceSpec) -> tuple[float, float]:
    """The band's shift a*sigma_yy/4 and the condition margin -a*sigma_yy*(1-rho^2)/2.

    Remembered for the last (a, cov), which the float and array forms share.
    """
    rho = cov.rho
    return a.a * cov.sigma_yy / 4.0, -a.a * cov.sigma_yy * (1.0 - rho * rho) / 2.0


def clip_band(
    t1: float, t2: float, a: LinexParams, cov: CovarianceSpec
) -> tuple[float, bool, bool]:
    """The clip value t2/2 - a*sigma_yy/4 and the condition sets of the band.

    Returns (value, lo_set, hi_set): phi_inf equals value on lo_set and
    phi_sup equals value on hi_set; the two sets are disjoint. Arrays give
    the bits `clip_band_batch` gives, in fresh arrays.
    """
    rho, xi = cov.rho, cov.xi
    shift, margin = _band_edges(a, cov)
    value = t2 / 2.0 - shift
    side = t1 * xi - rho * t2
    gap = t2 - xi * rho * t1
    return value, (side < 0) & (gap < margin), (side > 0) & (gap > margin)


def phi_bounds(
    t1: float, t2: float, a: LinexParams, cov: CovarianceSpec
) -> tuple[float, float]:
    """Parameter-free sandwich (phi_inf, phi_sup) around the optimal local shift.

    Each bound equals t2/2 - a*sigma_yy/4 on its own condition set and is
    infinite otherwise; the two condition sets are disjoint, so at most one
    bound is finite for any (t1, t2). Both must be finite.
    """
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise InvalidParameterError(f"t1 and t2 must be finite, got ({t1!r}, {t2!r})")
    if t1 > 0:
        raise InvalidParameterError(f"t1 must be <= 0, got {t1}")
    value, lo_set, hi_set = clip_band(t1, t2, a, cov)
    return (value if lo_set else -math.inf), (value if hi_set else math.inf)


def clip_component(
    phi: float, t1: float, t2: float, a: LinexParams, cov: CovarianceSpec
) -> tuple[float, str]:
    """The base component phi clipped into the band, and the side that clipped.

    Boundary ties use weak inequalities (clip at phi <= phi_inf and
    phi >= phi_sup); a tie clips formally but leaves the value unchanged.
    """
    value, lo_set, hi_set = clip_band(t1, t2, a, cov)
    if lo_set and phi <= value:
        return value, TRUNCATED_LO
    if hi_set and phi >= value:
        return value, TRUNCATED_HI
    return phi, TRUNCATED_NONE


def __getattr__(name: str):
    # shift_risk_quadrature: the former name of admissibility.shift_risk, which
    # replaced the quadrature; the benchmark still reads it
    if name == "shift_risk_quadrature":
        from .admissibility import shift_risk

        return shift_risk
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
