"""Closed-form densities, conditional MGFs, and the clip-band machinery.

These are the analytic counterparts of the simulator: the density of
W = Y_[2] - theta_y^S, the conditional law of W given the observable
differences (T1, T2), the optimal local shift varphi it induces, and the
parameter-free band [phi_inf, phi_sup] that the improvement operator clips
into. The exact shift-estimator risk lives with psi in `admissibility`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .admissibility import shift_risk
from .core import (
    _HALF_LOG_2PI,
    CovarianceSpec,
    InvalidParameterError,
    LinexParams,
    ThetaStar,
    borrow,
    log_sum_exp,
    std_normal_cdf,
    std_normal_pdf,
)


def _log_std_normal_pdf(u: float) -> float:
    return -0.5 * u * u - _HALF_LOG_2PI


def _check_t1(t1: float) -> None:
    if t1 > 0:
        raise InvalidParameterError(f"t1 must be <= 0, got {t1}")


def w_pdf(w: float, theta_star: ThetaStar, cov: CovarianceSpec) -> float:
    """Density of W = Y_[2] - theta_y^S at w.

    (1/sqrt(syy)) * phi(w/sqrt(syy)) * {Phi((rho*w/sqrt(syy) + tx/sqrt(sxx)) / sqrt(2-rho^2))
    + Phi((.. - tx/sqrt(sxx)) / sqrt(2-rho^2))}. The sqrt(2-rho^2) denominator stays
    finite at |rho| = 1, so the formula extends to the degenerate case as written.
    """
    s = math.sqrt(cov.sigma_yy)
    r = math.sqrt(2.0 - cov.rho * cov.rho)
    u = cov.rho * w / s
    v = theta_star.theta_x / math.sqrt(cov.sigma_xx)
    bracket = std_normal_cdf((u + v) / r) + std_normal_cdf((u - v) / r)
    return std_normal_pdf(w / s) / s * bracket


@dataclass(frozen=True)
class ConditionalWeights:
    """The two branch weights in the conditional law of T3 given (T1, T2)."""

    d1_term: float
    d2_term: float


def _log_weights(
    t1: float, t2: float, theta_star: ThetaStar, cov: CovarianceSpec
) -> tuple[float, float]:
    _check_t1(t1)
    if cov.is_singular:
        raise InvalidParameterError("conditional weights require |rho| < 1")
    rho = cov.rho
    sy = math.sqrt(cov.sigma_yy)
    sx = math.sqrt(cov.sigma_xx)
    spread = math.sqrt(2.0 * (1.0 - rho * rho))
    ty, tx = theta_star.theta_y, theta_star.theta_x
    log_d1 = _log_std_normal_pdf((t2 - ty) / (math.sqrt(2.0) * sy)) + _log_std_normal_pdf(
        (rho * (t2 - ty) / sy - (t1 - tx) / sx) / spread
    )
    log_d2 = _log_std_normal_pdf((t2 + ty) / (math.sqrt(2.0) * sy)) + _log_std_normal_pdf(
        (rho * (t2 + ty) / sy - (t1 + tx) / sx) / spread
    )
    return log_d1, log_d2


def conditional_weights(
    t1: float, t2: float, theta_star: ThetaStar, cov: CovarianceSpec
) -> ConditionalWeights:
    """D1, D2 >= 0; equal when theta* = (0, 0).

    Both terms use the same inner scaling (t1 -+ theta_x)/sqrt(sigma_xx); the
    mixture consumers below work in the log domain so extreme inputs cannot
    zero both terms at once.
    """
    log_d1, log_d2 = _log_weights(t1, t2, theta_star, cov)
    return ConditionalWeights(math.exp(log_d1), math.exp(log_d2))


def _mix_log_weights(log_d1: float, log_d2: float) -> tuple[float, float]:
    norm = log_sum_exp((log_d1, log_d2))
    return log_d1 - norm, log_d2 - norm


def cond_t3_pdf(
    t3: float, t1: float, t2: float, theta_star: ThetaStar, cov: CovarianceSpec
) -> float:
    """Conditional density of T3 = Y_[2] - theta_y^S given (T1, T2).

    A two-component normal mixture with component variance sigma_yy/2,
    component means -(t2 - theta_y)/2 and -(t2 + theta_y)/2, and weights
    D1, D2 normalized.
    """
    log_d1, log_d2 = _log_weights(t1, t2, theta_star, cov)
    lw1, lw2 = _mix_log_weights(log_d1, log_d2)
    scale = math.sqrt(2.0 / cov.sigma_yy)
    k1 = scale * std_normal_pdf(scale * (t3 + (t2 - theta_star.theta_y) / 2.0))
    k2 = scale * std_normal_pdf(scale * (t3 + (t2 + theta_star.theta_y) / 2.0))
    return math.exp(lw1) * k1 + math.exp(lw2) * k2


def log_delta(t1: float, t2: float, theta_star: ThetaStar, a: LinexParams, cov: CovarianceSpec) -> float:
    """log of the weight factor Delta = (D1 e^{a ty/2} + D2 e^{-a ty/2}) / (D1 + D2)."""
    log_d1, log_d2 = _log_weights(t1, t2, theta_star, cov)
    lw1, lw2 = _mix_log_weights(log_d1, log_d2)
    half = a.a * theta_star.theta_y / 2.0
    return log_sum_exp((lw1 + half, lw2 - half))


def cond_t3_mgf(
    a: LinexParams, t1: float, t2: float, theta_star: ThetaStar, cov: CovarianceSpec
) -> float:
    """E[exp(a*T3) | T1 = t1, T2 = t2] = exp(a^2 syy/4 - a t2/2) * Delta."""
    return math.exp(
        a.a * a.a * cov.sigma_yy / 4.0 - a.a * t2 / 2.0 + log_delta(t1, t2, theta_star, a, cov)
    )


def varphi(
    t1: float, t2: float, theta_star: ThetaStar, a: LinexParams, cov: CovarianceSpec
) -> float:
    """Optimal local shift -(1/a) ln E[e^{aT3} | t1, t2] = t2/2 - a*syy/4 - ln(Delta)/a."""
    return (
        t2 / 2.0
        - a.a * cov.sigma_yy / 4.0
        - log_delta(t1, t2, theta_star, a, cov) / a.a
    )


def clip_band(t1, t2, a: LinexParams, cov: CovarianceSpec, out=None, work=None):
    """The clip value t2/2 - a*sigma_yy/4 and the condition sets of the band.

    Returns (value, lo_set, hi_set): phi_inf equals value on lo_set and
    phi_sup equals value on hi_set; the two sets are disjoint. Floats give
    floats; arrays give arrays, written into `out` = (value, lo_set, hi_set),
    a float and two bool arrays, if given, with one temporary borrowed from
    `work` if given.
    """
    rho, xi = cov.rho, cov.xi
    shift = a.a * cov.sigma_yy / 4.0
    margin = -a.a * cov.sigma_yy * (1.0 - rho * rho) / 2.0
    # an array means numpy is loaded already, so this test imports nothing
    np = sys.modules.get("numpy")
    if np is None or not isinstance(t1, np.ndarray):
        # plain float arithmetic: a ufunc on floats costs ~10x
        value = t2 / 2.0 - shift
        side = t1 * xi - rho * t2
        gap = t2 - xi * rho * t1
        return value, (side < 0) & (gap < margin), (side > 0) & (gap > margin)
    value, lo, hi = (None,) * 3 if out is None else out
    with borrow(work, floats=1, masks=1) as (tmp, cond):
        # side = t1*xi - rho*t2, with value holding rho*t2 for the moment
        value = np.multiply(rho, t2, out=value)
        side = tmp = np.multiply(t1, xi, out=tmp)
        side -= value
        lo = np.less(side, 0, out=lo)
        hi = np.greater(side, 0, out=hi)
        gap = np.multiply(xi * rho, t1, out=tmp)
        np.subtract(t2, gap, out=gap)
        cond = np.less(gap, margin, out=cond)
        lo &= cond
        np.greater(gap, margin, out=cond)
        hi &= cond
    np.divide(t2, 2.0, out=value)
    value -= shift
    return value, lo, hi


def phi_bounds(
    t1: float, t2: float, a: LinexParams, cov: CovarianceSpec
) -> tuple[float, float]:
    """Parameter-free sandwich (phi_inf, phi_sup) around varphi.

    Each bound equals t2/2 - a*sigma_yy/4 on its own condition set and is
    infinite otherwise; the two condition sets are disjoint, so at most one
    bound is finite for any (t1, t2).
    """
    _check_t1(t1)
    value, lo_set, hi_set = clip_band(t1, t2, a, cov)
    return (value if lo_set else -math.inf), (value if hi_set else math.inf)


#: former name of admissibility.shift_risk, which replaced the quadrature
shift_risk_quadrature = shift_risk
