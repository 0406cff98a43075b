"""Admissibility of constant-shift estimators Y_[2] + d.

Within the shift class, the risk at a parameter gap theta_x has a closed
form (`shift_risk`) and is minimized by a closed-form shift psi(theta*);
sweeping theta_x over [0, inf) sweeps psi over an interval [d0, d1], and
exactly the shifts inside that interval are admissible within the class.
Shifts outside are dominated by the nearer endpoint.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import (
    CovarianceSpec,
    InvalidParameterError,
    LinexOverflowError,
    LinexParams,
    ThetaStar,
    log_std_normal_cdf,
    log_sum_exp,
    std_normal_cdf,
    std_normal_pdf,
)

ADMISSIBLE_IN_CLASS = "admissible_in_class"
DOMINATED_BY_D0 = "dominated_by_d0"
DOMINATED_BY_D1 = "dominated_by_d1"


@dataclass(frozen=True)
class AdmissibilityBounds:
    """Endpoints of the admissible shift interval, with their inputs."""

    d0: float
    d1: float
    a: float
    cov: CovarianceSpec


def h_a(theta_x: float, a: LinexParams, cov: CovarianceSpec) -> float:
    """Phi((a*sxy + tx)/sqrt(2*sxx)) + Phi((a*sxy - tx)/sqrt(2*sxx)); in (0, 2)."""
    if theta_x < 0:
        raise InvalidParameterError("theta_x must be nonnegative")
    s = math.sqrt(2.0 * cov.sigma_xx)
    return std_normal_cdf((a.a * cov.sigma_xy + theta_x) / s) + std_normal_cdf(
        (a.a * cov.sigma_xy - theta_x) / s
    )


def psi(theta_star: ThetaStar, a: LinexParams, cov: CovarianceSpec) -> float:
    """The risk-minimizing shift at a fixed gap: -a*syy/2 - ln(h_a)/a.

    Depends on theta* only through theta_x. Where h_a is subnormal or 0 in
    doubles, ln(h_a) is the log-sum-exp of the two log Phi terms instead.
    """
    tx = theta_star.theta_x
    h = h_a(tx, a, cov)
    if h >= sys.float_info.min:
        log_h = math.log(h)
    else:
        s = math.sqrt(2.0 * cov.sigma_xx)
        log_h = log_sum_exp((
            log_std_normal_cdf((a.a * cov.sigma_xy + tx) / s),
            log_std_normal_cdf((a.a * cov.sigma_xy - tx) / s),
        ))
    return -a.a * cov.sigma_yy / 2.0 - log_h / a.a


def shift_risk(d: float, theta_star: ThetaStar, a: LinexParams, cov: CovarianceSpec) -> float:
    """Exact LINEX risk of the shift estimator Y_[2] + d.

    With W = Y_[2] - theta_y^S, R(d) = e^{ad} E[e^{aW}] - a(d + E[W]) - 1, where
    E[e^{aW}] = e^{a^2 syy/2} h_a(theta_x) and E[W] = 2 sxy phi(u)/sqrt(2 sxx) at
    u = theta_x/sqrt(2 sxx). psi is the minimizer of this closed form. Raises
    LinexOverflowError where e^{ad} E[e^{aW}] leaves the double range.
    """
    s = math.sqrt(2.0 * cov.sigma_xx)
    tx = theta_star.theta_x
    mean_w = 2.0 * cov.sigma_xy * std_normal_pdf(tx / s) / s
    exponent = a.a * d + a.a * a.a * cov.sigma_yy / 2.0
    h = h_a(tx, a, cov)
    try:
        tilt = math.exp(exponent) * h
    except OverflowError:
        raise LinexOverflowError(exponent, "shift_risk: e^{ad + a^2 syy/2}") from None
    if tilt == math.inf:
        # e^exponent is finite but h_a (up to 2) carries the product past the range
        raise LinexOverflowError(exponent + math.log(h), "shift_risk: e^{ad + a^2 syy/2} h_a")
    return tilt - a.a * (d + mean_w) - 1.0


def _end_correction(a: LinexParams, cov: CovarianceSpec) -> float:
    # -a*syy/2 - [ln 2 + ln Phi(a*sxy/sqrt(2*sxx))]/a, the theta_x -> 0 limit;
    # log Phi stays finite where Phi underflows to 0 (arg below about -38.5)
    arg = a.a * cov.sigma_xy / math.sqrt(2.0 * cov.sigma_xx)
    return -a.a * cov.sigma_yy / 2.0 - (math.log(2.0) + log_std_normal_cdf(arg)) / a.a


def _interval(a: LinexParams, cov: CovarianceSpec) -> tuple[float, float]:
    base = -a.a * cov.sigma_yy / 2.0
    if cov.sigma_xy > 0:
        return _end_correction(a, cov), base
    if cov.sigma_xy < 0:
        return base, _end_correction(a, cov)
    return base, base


def bounds(a: LinexParams, cov: CovarianceSpec) -> AdmissibilityBounds:
    """Closed-form [d0, d1], branching on the sign of sigma_xy.

    The interval collapses to the single point -a*sigma_yy/2 when sigma_xy = 0.
    """
    d0, d1 = _interval(a, cov)
    return AdmissibilityBounds(d0=d0, d1=d1, a=a.a, cov=cov)


def classify(d: float, a: LinexParams, cov: CovarianceSpec) -> str:
    """Place a shift relative to [d0, d1]; endpoints count as admissible."""
    if not math.isfinite(d):
        raise InvalidParameterError("shift constant d must be finite")
    d0, d1 = _interval(a, cov)
    if d < d0:
        return DOMINATED_BY_D0
    if d > d1:
        return DOMINATED_BY_D1
    return ADMISSIBLE_IN_CLASS
