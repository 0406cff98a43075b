"""Independent references used by the test suite.

The numerical oracles here are derived from first principles (joint normal
densities, grid quadrature, numeric posterior integration, a risk cell
built from fresh arrays) without reusing the package's closed-form
expressions, so agreement is evidence rather than tautology.

Beside them sit the paper's closed forms that the runtime never calls: the
density of W = Y_[2] - theta_y^S, the conditional law of T3 = Y_[2] -
theta_y^S given (T1, T2) with its MGF and the optimal local shift varphi,
and the Bayes estimator's posterior risk. The tests check each of them
against quadrature or simulation before leaning on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, simpson
from scipy.stats import norm

from linexsel import (
    CovarianceSpec,
    EstimatorSpec,
    InvalidParameterError,
    LinexParams,
    MeanVectorPair,
    PriorSpec,
    SelectionSummary,
    SimConfig,
    ThetaStar,
    bayes_posterior,
    est_bayes,
    linex_loss,
    log_sum_exp,
    rng_stream,
    std_normal_cdf,
    std_normal_pdf,
)
from linexsel.core import log_std_normal_cdf_tail
from linexsel.estimators import N3_LOG_SWITCH
from linexsel.kernels import std_normal_cdf_batch

QUAD_ABS_TOL = 1e-12
QUAD_HALF_WIDTH = 12.0  # integration half-width in component standard deviations
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_std_normal_pdf(u: float) -> float:
    return -0.5 * u * u - _HALF_LOG_2PI


def theta_star(means: MeanVectorPair) -> ThetaStar:
    """The component gaps |theta1 - theta2| of a mean-vector pair."""
    return ThetaStar(
        abs(means.theta1[0] - means.theta2[0]),
        abs(means.theta1[1] - means.theta2[1]),
    )


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
    if t1 > 0:
        raise InvalidParameterError(f"t1 must be <= 0, got {t1}")
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


def branch_density(t1: float, t2: float, means: MeanVectorPair, cov: CovarianceSpec, branch: int) -> float:
    """Joint density of (T1, T2) restricted to one selection branch.

    On the branch selecting population 1, (T1, T2) = Z2 - Z1 ~ N2(theta2 - theta1, 2*Sigma)
    on {t1 <= 0}; on the other branch the sign flips.
    """
    dx = means.theta1[0] - means.theta2[0]
    dy = means.theta1[1] - means.theta2[1]
    m1, m2 = (-dx, -dy) if branch == 1 else (dx, dy)
    s1 = math.sqrt(2.0 * cov.sigma_xx)
    s2 = math.sqrt(2.0 * cov.sigma_yy)
    rho = cov.rho
    u = (t1 - m1) / s1
    v = (t2 - m2) / s2
    r2 = 1.0 - rho * rho
    return math.exp(-(u * u - 2 * rho * u * v + v * v) / (2 * r2)) / (
        2 * math.pi * s1 * s2 * math.sqrt(r2)
    )


def risk_quadrature_general(phi_fn, means: MeanVectorPair, cov: CovarianceSpec, a: LinexParams,
                            n1: int = 2001, n2: int = 3001) -> float:
    """LINEX risk of Y_[2] + phi(T1, T2) by branch-decomposed grid quadrature.

    Within a branch, T3 = Y_[2] - theta_y^S given (T1, T2) is normal with
    variance sigma_yy/2 and mean -(t2 - m2)/2 where m2 is the branch mean of
    T2; the conditional expected loss is then closed form and only the
    (T1, T2) integral is numeric. Requires |rho| < 1; phi_fn must accept
    numpy arrays.
    """
    if cov.is_singular:
        raise ValueError("branch quadrature needs |rho| < 1")
    aa = a.a
    dx = means.theta1[0] - means.theta2[0]
    dy = means.theta1[1] - means.theta2[1]
    s1 = math.sqrt(2.0 * cov.sigma_xx)
    s2 = math.sqrt(2.0 * cov.sigma_yy)
    rho = cov.rho
    r2 = 1.0 - rho * rho
    total = 0.0
    for m1, m2 in [(-dx, -dy), (dx, dy)]:
        t1 = np.linspace(min(m1, 0.0) - 10 * s1, 0.0, n1)
        width = abs(aa) * cov.sigma_yy * 1.5 + 12 * s2
        t2 = np.linspace(m2 - width, m2 + width, n2)
        T1, T2 = np.meshgrid(t1, t2, indexing="ij")
        u = (T1 - m1) / s1
        v = (T2 - m2) / s2
        dens = np.exp(-(u * u - 2 * rho * u * v + v * v) / (2 * r2)) / (
            2 * math.pi * s1 * s2 * math.sqrt(r2)
        )
        arg = phi_fn(T1, T2) - (T2 - m2) / 2.0
        payoff = np.exp(aa * arg + aa * aa * cov.sigma_yy / 4.0) - aa * arg - 1.0
        total += float(simpson(simpson(dens * payoff, x=t2, axis=1), x=t1))
    return total


def posterior_numeric(z: tuple[float, float], prior: PriorSpec, cov: CovarianceSpec,
                      half_width: float = 12.0, n: int = 801) -> tuple[float, float]:
    """Posterior mean and variance of theta_y by direct 2-D integration.

    Integrates prior(theta) * likelihood(z | theta) on a grid around the data
    and the prior mean; no conjugacy formulas involved.
    """
    x, y = z
    sp = math.sqrt(prior.m)
    sxx, syy, sxy = cov.sigma_xx, cov.sigma_yy, cov.sigma_xy
    det = sxx * syy - sxy * sxy
    tx = np.linspace(min(x, prior.mu1) - half_width * sp, max(x, prior.mu1) + half_width * sp, n)
    ty = np.linspace(min(y, prior.mu2) - half_width * sp, max(y, prior.mu2) + half_width * sp, n)
    TX, TY = np.meshgrid(tx, ty, indexing="ij")
    prior_pdf = norm.pdf(TX, prior.mu1, sp) * norm.pdf(TY, prior.mu2, sp)
    rx = x - TX
    ry = y - TY
    quad_form = (syy * rx * rx - 2 * sxy * rx * ry + sxx * ry * ry) / det
    lik = np.exp(-quad_form / 2.0) / (2 * math.pi * math.sqrt(det))
    w = prior_pdf * lik
    z0 = simpson(simpson(w, x=ty, axis=1), x=tx)
    m1 = simpson(simpson(w * TY, x=ty, axis=1), x=tx) / z0
    m2 = simpson(simpson(w * TY * TY, x=ty, axis=1), x=tx) / z0
    return float(m1), float(m2 - m1 * m1)


def posterior_risk_constant(prior: PriorSpec, a: LinexParams, cov: CovarianceSpec) -> float:
    """Posterior (= Bayes) risk a^2 q*/2 of est_bayes; independent of the data."""
    _, q_star = bayes_posterior((0.0, 0.0), prior, cov)
    return 0.5 * a.a * a.a * q_star


def shift_risk_quadrature(
    d: float, theta_star: ThetaStar, a: LinexParams, cov: CovarianceSpec
) -> float:
    """Risk of the shift estimator Y_[2] + d by quadrature against w_pdf.

    Integrates linex_loss(w + d, 0) * f_W(w) over a window wide enough to
    cover both the density mass and the exp(a*w) tilt (whose product peaks
    near w = a*sigma_yy). The independent check of the closed-form
    `linexsel.shift_risk`; the density w_pdf it integrates is checked on its
    own in tests/test_oracles.py.
    """
    s = math.sqrt(cov.sigma_yy)
    lo = min(-QUAD_HALF_WIDTH * s, a.a * cov.sigma_yy - QUAD_HALF_WIDTH * s)
    hi = max(QUAD_HALF_WIDTH * s, a.a * cov.sigma_yy + QUAD_HALF_WIDTH * s)

    def integrand(w: float) -> float:
        return linex_loss(w + d, 0.0, a) * w_pdf(w, theta_star, cov)

    value, _ = quad(integrand, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=200)
    return value


def _n3_offset_plain(t1, t2, a: LinexParams, cov: CovarianceSpec) -> np.ndarray:
    """The batch N3 component with fancy indexing and fresh arrays throughout."""
    u = t1 / math.sqrt(2.0 * cov.sigma_xx)
    p = std_normal_cdf_batch(u)
    z = a.a * t2
    out = np.empty_like(t2)
    big = z > N3_LOG_SWITCH
    small = ~big
    out[small] = np.log1p(np.expm1(z[small]) * p[small]) / a.a
    if big.any():
        pb, zb = p[big], z[big]
        inner = pb + (1.0 - pb) * np.exp(-zb)
        with np.errstate(divide="ignore"):
            log_inner = np.log(inner)
        under = inner == 0
        if under.any():
            log_inner[under] = np.logaddexp(
                log_std_normal_cdf_tail(u[big][under]), np.log1p(-pb[under]) - zb[under]
            )
        out[big] = t2[big] + log_inner / a.a
    return out


def reference_cell(
    config: SimConfig, specs: list[EstimatorSpec], stream_key: tuple[int, ...]
) -> list[tuple[float, float | None]]:
    """(mean risk, standard error) of each column of one risk cell, computed the plain way.

    Fresh arrays for every step: the out-of-place transform of
    standard_normal((4, reps)), np.where selection, each N1..N4 component and
    its clip written out with np.where, `linex_loss`, and the reductions
    .mean() and .std(ddof=1). `linexsel.risksim` must match it bit for bit.
    Specs are N1..N4, their improved forms, Shift and Bayes; Bayes is the
    package's `est_bayes` at this cell's own x_max and y_sel arrays, so it
    checks the cell's plumbing, not the formula.
    """
    means, cov, a, reps = config.means, config.cov, config.a, config.reps
    l_xx, l_yx, l_yy = cov.cholesky_factors()
    g = rng_stream(config.master_seed, *stream_key).standard_normal((4, reps))
    x1 = means.theta1[0] + l_xx * g[0]
    y1 = means.theta1[1] + l_yx * g[0] + l_yy * g[1]
    x2 = means.theta2[0] + l_xx * g[2]
    y2 = means.theta2[1] + l_yx * g[2] + l_yy * g[3]
    sel1 = x1 > x2
    y_sel, y_other = np.where(sel1, y1, y2), np.where(sel1, y2, y1)
    t1, t2 = np.minimum(x1, x2) - np.maximum(x1, x2), y_other - y_sel
    theta_sel = np.where(sel1, means.theta1[1], means.theta2[1])

    def phi(base: EstimatorSpec) -> np.ndarray:
        if base.kind == "N1":
            return np.zeros_like(t2)
        if base.kind == "N2":
            return np.full_like(t2, -a.a * cov.sigma_yy / 2.0)
        if base.kind == "N3":
            return _n3_offset_plain(t1, t2, a, cov)
        return np.where(t1 > -base.c * math.sqrt(2.0 * cov.sigma_xx), t2 / 2.0, 0.0)

    def estimate(spec: EstimatorSpec) -> np.ndarray:
        if spec.kind == "Shift":
            return y_sel + spec.d
        if spec.kind == "Bayes":
            s = SelectionSummary(None, np.maximum(x1, x2), None, y_sel, None, t1, t2)
            return est_bayes(s, spec.prior, a, cov)
        if spec.kind != "Improved":
            return y_sel + phi(spec)
        base = phi(spec.base)
        rho, xi = cov.rho, cov.xi
        value = t2 / 2.0 - a.a * cov.sigma_yy / 4.0
        margin = -a.a * cov.sigma_yy * (1.0 - rho * rho) / 2.0
        side = t1 * xi - rho * t2
        gap = t2 - xi * rho * t1
        clipped = np.where((side < 0) & (gap < margin) & (base <= value), value, base)
        clipped = np.where((side > 0) & (gap > margin) & (base >= value), value, clipped)
        return y_sel + clipped

    out = []
    for spec in specs:
        losses = linex_loss(estimate(spec), theta_sel, a, spec.label)
        se = float(losses.std(ddof=1) / math.sqrt(reps)) if reps > 1 else None
        out.append((float(losses.mean()), se))
    return out
