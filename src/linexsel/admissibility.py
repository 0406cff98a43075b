"""Admissibility of constant-shift estimators Y_[2] + d.

Within the shift class, the risk at a parameter gap theta_x has a closed
form (`shift_risk`), minimized by a closed-form shift psi(theta*). As theta_x
sweeps [0, inf), psi sweeps [d0, d1], from its own value at a zero gap to its
limit -a*syy/2; exactly the shifts inside are admissible within the class,
and shifts outside are dominated by the nearer endpoint.
"""

from __future__ import annotations

import math
import sys

from .core import (
    CovarianceSpec,
    InvalidParameterError,
    LinexError,
    LinexOverflowError,
    LinexParams,
    Record,
    ThetaStar,
    log_std_normal_cdf,
    log_sum_exp,
    remember_last,
    std_normal_cdf,
    std_normal_pdf,
)

ADMISSIBLE_IN_CLASS = "admissible_in_class"
DOMINATED_BY_D0 = "dominated_by_d0"
DOMINATED_BY_D1 = "dominated_by_d1"


class AdmissibilityBounds(Record):
    """Endpoints of the admissible shift interval."""

    def __init__(self, d0: float, d1: float):
        self.__dict__.update(d0=d0, d1=d1)


def h_a(theta_x: float, a: LinexParams, cov: CovarianceSpec) -> float:
    """Phi((a*sxy + tx)/sqrt(2*sxx)) + Phi((a*sxy - tx)/sqrt(2*sxx)); in (0, 2)."""
    if not 0.0 <= theta_x < math.inf:  # one comparison on the common path; nan fails it
        if math.isfinite(theta_x):
            raise InvalidParameterError("theta_x must be nonnegative")
        raise InvalidParameterError(f"theta_x must be finite, got {theta_x!r}")
    s = cov.sd_dx
    return std_normal_cdf((a.a * cov.sigma_xy + theta_x) / s) + std_normal_cdf(
        (a.a * cov.sigma_xy - theta_x) / s
    )


def _log_h_a(theta_x: float, a: LinexParams, cov: CovarianceSpec) -> float:
    """ln h_a, finite where h_a underflows: then the log-sum-exp of its two log Phi terms.

    At theta_x = 0, h_a = 2 Phi(arg), arg = a*sxy/sqrt(2*sxx), where ln 2 +
    ln Phi(arg) cancels as arg -> 0 (d0 read -5e-17 for -0.28 at a = 1e-16),
    so |arg| < 1/4 takes ln(1 + erf(arg/sqrt 2)), within 4e-16, and 0.0 at
    sxy = 0 (-0.0 included, so the end is -a*syy/2 bit for bit); beyond, ln 2
    + log Phi is as accurate and finite where Phi underflows (arg < -38.5).
    """
    s = cov.sd_dx
    if theta_x == 0.0:
        arg = a.a * cov.sigma_xy / s
        if abs(arg) < 0.25:
            return math.log1p(math.erf(arg / math.sqrt(2.0))) if cov.sigma_xy else 0.0
        return math.log(2.0) + log_std_normal_cdf(arg)
    h = h_a(theta_x, a, cov)
    if h >= sys.float_info.min:
        return math.log(h)
    return log_sum_exp((
        log_std_normal_cdf((a.a * cov.sigma_xy + theta_x) / s),
        log_std_normal_cdf((a.a * cov.sigma_xy - theta_x) / s),
    ))


def psi(theta_star: ThetaStar, a: LinexParams, cov: CovarianceSpec) -> float:
    """The risk-minimizing shift at a fixed gap: -a*syy/2 - ln(h_a)/a.

    Depends on theta* only through theta_x; ln(h_a) stays finite where h_a
    underflows, and at a zero gap psi is the admissible interval's end, bit for bit.
    Raises LinexError naming a value that is not finite.
    """
    value = -a.a * cov.sigma_yy / 2.0 - _log_h_a(theta_star.theta_x, a, cov) / a.a
    if not math.isfinite(value):
        # a*syy/2 past the double range gives -inf, or nan against ln(h_a)/a
        raise LinexError(f"psi = {value} is not finite at a = {a.a:g}")
    return value


@remember_last
def _gap_terms(
    theta_star: ThetaStar, a: LinexParams, cov: CovarianceSpec
) -> tuple[float, float, float]:
    """`shift_risk`'s terms that do not depend on d: E[W], h_a(theta_x) and a^2 syy/2.

    Remembered for the last (theta*, a, cov), which a risk curve over d shares.
    """
    s = cov.sd_dx
    tx = theta_star.theta_x
    mean_w = 2.0 * cov.sigma_xy * std_normal_pdf(tx / s) / s
    return mean_w, h_a(tx, a, cov), a.a * a.a * cov.sigma_yy / 2.0


def shift_risk(d: float, theta_star: ThetaStar, a: LinexParams, cov: CovarianceSpec) -> float:
    """Exact LINEX risk of the shift estimator Y_[2] + d.

    With W = Y_[2] - theta_y^S, R(d) = e^{ad} E[e^{aW}] - a(d + E[W]) - 1, where
    E[e^{aW}] = e^{a^2 syy/2} h_a(theta_x) and E[W] = 2 sxy phi(u)/sqrt(2 sxx) at
    u = theta_x/sqrt(2 sxx). psi is the minimizer of this closed form. E[W],
    h_a and a^2 syy/2 are remembered for the last (theta*, a, cov), compared by
    identity, so a curve over d at one gap computes only e^{ad} and the sum.
    Where the product e^{ad} E[e^{aW}] overflows in doubles, it is taken as
    e^{ad + a^2 syy/2 + ln h_a}, so a tiny h_a can bring it back into range.
    Raises LinexOverflowError where even that leaves the double range, or
    where the risk is not finite for any other reason, and
    InvalidParameterError for a d that is not finite.
    """
    if not math.isfinite(d):
        raise InvalidParameterError("shift constant d must be finite")
    mean_w, h, half_var = _gap_terms(theta_star, a, cov)
    exponent = a.a * d + half_var
    try:
        tilt = math.exp(exponent) * h
    except OverflowError:
        tilt = math.inf
    if tilt == math.inf:
        # e^exponent overflows, or h_a (up to 2) carries the product past the range
        exponent += _log_h_a(theta_star.theta_x, a, cov)
        try:
            tilt = math.exp(exponent)
        except OverflowError:
            raise LinexOverflowError(exponent, "shift_risk: e^{ad + a^2 syy/2} h_a") from None
    linear = a.a * (d + mean_w)
    risk = tilt - linear - 1.0
    if not math.isfinite(risk):
        # math.exp passes an exponent of +-inf or nan (a*d or a^2 past the double
        # range) without raising; where e^{ad} E[e^{aW}] is finite (an exponent
        # of -inf gives 0), a*(d + E[W]) left the range, or took the sum out of it
        cause = (
            f"LINEX risk term a*(d + E[W]) = {linear:.6g} against "
            f"e^{{ad}} E[e^{{aW}}] = {tilt:.6g} leaves the double range"
        ) if math.isfinite(tilt) else ""
        raise LinexOverflowError(exponent, f"shift_risk: R(d) = {risk}", cause)
    return risk


@remember_last
def _interval(a: LinexParams, cov: CovarianceSpec) -> tuple[float, float]:
    """psi's range over theta_x in [0, inf): psi at a zero gap and its limit -a*syy/2, in order.

    Remembered for the last (a, cov), which `bounds` and `classify` share.
    """
    base = -a.a * cov.sigma_yy / 2.0
    end = base - _log_h_a(0.0, a, cov) / a.a
    # psi rises with theta_x where sxy > 0 and falls where sxy < 0; at sxy = 0, end is base
    d0, d1 = (end, base) if cov.sigma_xy > 0 else (base, end)
    # a*syy/2 past the double range gives an endpoint of +-inf (or nan), which
    # would classify every shift as dominated
    for name, value in (("d0", d0), ("d1", d1)):
        if not math.isfinite(value):
            raise LinexError(f"{name} = {value} is not finite at a = {a.a:g}")
    return d0, d1


def bounds(a: LinexParams, cov: CovarianceSpec) -> AdmissibilityBounds:
    """Closed-form [d0, d1], the range of psi; the single point -a*sigma_yy/2 when sigma_xy = 0.

    Raises LinexError naming an endpoint that is not finite.
    """
    return AdmissibilityBounds(*_interval(a, cov))


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
