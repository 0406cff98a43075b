"""Point estimators of the selected population's Y-mean.

Four natural estimators (the plug-in concomitant, the minimum-risk
equivariant shift, a log-transformed plug-in, and a hybrid that averages
the concomitants when the X's are close), the conjugate-prior Bayes
estimator, the constant-shift class, and a tagged-spec dispatcher.

Each rule lives here once: N1..N4 are Y_[2] plus `base_phi`, the Bayes rule
serves floats and arrays alike, and where a branch becomes a mask (N3's log
switch, N4's window) the float form and its `_batch` array twin sit side by
side. The float forms stay plain Python: size-1 arrays cost ~10x per call.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from .core import (
    CovarianceSpec,
    InvalidParameterError,
    LinexParams,
    Record,
    SingularCovarianceError,
    blend,
    log_std_normal_cdf,
    log_std_normal_cdf_tail,
    log_sum_exp,
    remember_last,
    std_normal_cdf,
    std_normal_cdf_batch,
)
from .oracles import clip_component, improve_batch
from .selection import SelectionSummary

if TYPE_CHECKING:
    import numpy as np

N3_LOG_SWITCH = 30.0  # switch the N3 component to the log-domain rearrangement


class PriorSpec(Record):
    """Conjugate normal prior N2((mu1, mu2), m * I) on each mean vector."""

    def __init__(self, mu1: float, mu2: float, m: float):
        if not (math.isfinite(mu1) and math.isfinite(mu2) and math.isfinite(m)):
            raise InvalidParameterError("prior parameters must be finite")
        if m <= 0:
            raise InvalidParameterError(f"prior variance scale m must be positive, got {m}")
        self.__dict__.update(mu1=mu1, mu2=mu2, m=m)


#: the kinds with an equivariant component, which an Improved spec can take as its base
BASE_KINDS = ("N1", "N2", "N3", "N4")
_KINDS = (*BASE_KINDS, "Bayes", "Shift", "Improved")


class EstimatorSpec(Record):
    """Tagged description of which estimator to evaluate.

    Exactly the fields relevant to `kind` may be set: c for N4, d for Shift,
    prior for Bayes, base (one of N1..N4) for Improved.
    """

    def __init__(
        self,
        kind: str,
        c: Optional[float] = None,
        d: Optional[float] = None,
        prior: Optional[PriorSpec] = None,
        base: Optional["EstimatorSpec"] = None,
    ):
        if kind not in _KINDS:
            raise InvalidParameterError(f"unknown estimator kind {kind!r}")
        wants = {"N4": "c", "Shift": "d", "Bayes": "prior", "Improved": "base"}.get(kind)
        for field_name, val in (("c", c), ("d", d), ("prior", prior), ("base", base)):
            if val is None:
                if wants == field_name:
                    raise InvalidParameterError(f"{kind} spec requires {field_name}")
            elif wants != field_name:
                raise InvalidParameterError(f"{kind} spec must not set {field_name}")
        if kind == "N4" and not (math.isfinite(c) and c >= 0):
            raise InvalidParameterError(f"hybrid threshold c must be finite and >= 0, got {c}")
        if kind == "Shift" and not math.isfinite(d):
            raise InvalidParameterError("shift constant d must be finite")
        if kind == "Improved" and base.kind not in BASE_KINDS:
            raise InvalidParameterError(f"Improved base must be one of N1..N4, got {base.kind!r}")
        self.__dict__.update(kind=kind, c=c, d=d, prior=prior, base=base)

    @classmethod
    def n1(cls) -> "EstimatorSpec":
        return cls("N1")

    @classmethod
    def n2(cls) -> "EstimatorSpec":
        return cls("N2")

    @classmethod
    def n3(cls) -> "EstimatorSpec":
        return cls("N3")

    @classmethod
    def n4(cls, c: float = 1.0) -> "EstimatorSpec":
        return cls("N4", c=c)

    @classmethod
    def bayes(cls, prior: PriorSpec) -> "EstimatorSpec":
        return cls("Bayes", prior=prior)

    @classmethod
    def shift(cls, d: float) -> "EstimatorSpec":
        return cls("Shift", d=d)

    @classmethod
    def improved(cls, base: "EstimatorSpec") -> "EstimatorSpec":
        return cls("Improved", base=base)

    @property
    def label(self) -> str:
        if self.kind == "N4":
            return f"N4(c={self.c:g})"
        if self.kind == "Shift":
            return f"Shift(d={self.d:g})"
        if self.kind == "Improved":
            return f"Improved[{self.base.label}]"
        return self.kind


def n3_offset(t1: float, t2: float, a: LinexParams, cov: CovarianceSpec) -> float:
    """The equivariant component of N3.

    (1/a) * ln[1 + (exp(a*t2) - 1) * Phi(t1 / sqrt(2*sigma_xx))], rearranged
    as t2 + (1/a) * ln[P + (1-P) * exp(-a*t2)] once a*t2 > 30 so the
    exponential never overflows (the worked dataset reaches a*t2 ~ 64). Where
    P and exp(-a*t2) both underflow to 0, that log is taken in the log domain.
    """
    u = t1 / cov.sd_dx
    p = std_normal_cdf(u)
    z = a.a * t2
    if z > N3_LOG_SWITCH:
        inner = p + (1.0 - p) * math.exp(-z)
        if inner > 0:
            return t2 + math.log(inner) / a.a
        return t2 + log_sum_exp((log_std_normal_cdf(u), math.log1p(-p) - z)) / a.a
    return math.log1p(math.expm1(z) * p) / a.a


def n3_offset_batch(
    t1, t2, a: LinexParams, cov: CovarianceSpec, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """`n3_offset` over arrays; the log switch becomes a mask. Writes into `out` if given."""
    import numpy as np

    u = np.divide(t1, cov.sd_dx)
    p = std_normal_cdf_batch(u)
    with np.errstate(over="ignore"):  # +-inf takes the branch the float form takes
        z = out = np.multiply(a.a, t2, out=out)
    big = np.greater(z, N3_LOG_SWITCH)
    any_big = big.any()
    # out holds z until the small branch overwrites it there
    small = np.logical_not(big) if any_big else True
    np.expm1(z, out=out, where=small)
    np.multiply(out, p, out=out, where=small)
    np.log1p(out, out=out, where=small)
    np.divide(out, a.a, out=out, where=small)
    if any_big:
        pb, zb = p[big], z[big]
        inner = pb + (1.0 - pb) * np.exp(-zb)
        with np.errstate(divide="ignore"):
            log_inner = np.log(inner)
        # inner is 0 only where Phi(u) underflowed, i.e. in the tail
        under = inner == 0
        if under.any():
            log_inner[under] = np.logaddexp(
                log_std_normal_cdf_tail(u[big][under]), np.log1p(-pb[under]) - zb[under]
            )
        out[big] = t2[big] + log_inner / a.a
    return out


def _n4_cut(c: float, cov: CovarianceSpec) -> float:
    # N4 averages the concomitants when t1 > -c*sqrt(2*sigma_xx); c = 0 never
    # does, because t1 <= 0 always
    return -c * cov.sd_dx


def base_phi(
    spec: EstimatorSpec, s: SelectionSummary, a: LinexParams, cov: CovarianceSpec
) -> float:
    """Equivariant component (estimate - Y_[2]) of a base estimator N1..N4.

    N1 is the plug-in Y_[2], N2 the minimum risk equivariant Y_[2] - a*sigma_yy/2,
    N3 the log-transformed plug-in (always between y_sel and y_sel + t2), and
    N4 the hybrid that moves to the concomitant average inside its window.
    """
    if spec.kind == "N1":
        return 0.0
    if spec.kind == "N2":
        return -a.a * cov.sigma_yy / 2.0
    if spec.kind == "N3":
        return n3_offset(s.t1, s.t2, a, cov)
    if spec.kind == "N4":
        return s.t2 / 2.0 if s.t1 > _n4_cut(spec.c, cov) else 0.0
    raise InvalidParameterError(
        f"no equivariant component for kind {spec.kind!r}; only N1..N4 have one"
    )


def base_phi_batch(
    spec: EstimatorSpec, s: SelectionSummary, a: LinexParams, cov: CovarianceSpec,
    out: Optional[np.ndarray] = None,
) -> float | np.ndarray:
    """`base_phi` over a `select_batch` summary; N4's window becomes a mask.

    N1's and N2's components are constants and come back as `base_phi`'s
    float, which ufuncs broadcast. N3's and N4's are written into `out` if
    given.
    """
    if spec.kind in ("N1", "N2"):
        return base_phi(spec, s, a, cov)
    if spec.kind == "N3":
        return n3_offset_batch(s.t1, s.t2, a, cov, out)
    if spec.kind == "N4":
        import numpy as np

        inside = np.greater(s.t1, _n4_cut(spec.c, cov))
        half = np.multiply(s.t2, 0.5, out=out)  # t2 / 2 bit for bit, at a third of the cost
        return blend(inside, half, 0.0, half)
    raise InvalidParameterError(
        f"no equivariant component for kind {spec.kind!r}; only N1..N4 have one"
    )


@remember_last
def _posterior_terms(prior: PriorSpec, cov: CovarianceSpec) -> tuple:
    """The terms of `bayes_posterior` that no observation enters, for the last (prior, cov).

    (mu2*(det + m*syy), m + sxx, m*sxy, denom, q*), each grouped as the
    posterior's formula groups it. Raises SingularCovarianceError, on every
    call, unless |Sigma| > 0.
    """
    det = cov.det
    if det <= 0:
        raise SingularCovarianceError("Bayes posterior needs a nonsingular covariance")
    m = prior.m
    denom = m * m + m * cov.sigma_xx + m * cov.sigma_yy + det
    return (
        prior.mu2 * (det + m * cov.sigma_yy),
        m + cov.sigma_xx,
        m * cov.sigma_xy,
        denom,
        (m * m * cov.sigma_yy + m * det) / denom,
    )


def bayes_posterior(z: tuple, prior: PriorSpec, cov: CovarianceSpec) -> tuple:
    """Posterior mean and variance (p*, q*) of theta_y given one observation.

    Closed form for the conjugate N2(mu, m*I) prior; q* is the (2,2) entry of
    the posterior covariance (Sigma^-1 + (m*I)^-1)^-1. Requires |Sigma| > 0.
    z = (x, y) may hold floats or arrays of draws.
    """
    prior_term, m_sxx, m_sxy, denom, q_star = _posterior_terms(prior, cov)
    x, y = z
    p_star = (prior_term + prior.m * y * m_sxx + m_sxy * (prior.mu1 - x)) / denom
    return p_star, q_star


def est_bayes(
    s: SelectionSummary, prior: PriorSpec, a: LinexParams, cov: CovarianceSpec
) -> float:
    """Bayes estimator under LINEX loss: p* - (a/2) q* at the selected observation.

    Equals -(1/a) * ln M(-a) for the normal posterior of theta_y, i.e. the
    unique minimizer of the posterior risk. Serves a `select` summary, and a
    `select_batch` summary once its x_max is set.
    """
    p_star, q_star = bayes_posterior((s.x_max, s.y_sel), prior, cov)
    return p_star - 0.5 * a.a * q_star


def evaluate(
    spec: EstimatorSpec, s: SelectionSummary, a: LinexParams, cov: CovarianceSpec
) -> float:
    """Dispatch on the spec tag."""
    if spec.kind in BASE_KINDS:
        return s.y_sel + base_phi(spec, s, a, cov)
    if spec.kind == "Shift":
        return s.y_sel + spec.d
    if spec.kind == "Bayes":
        return est_bayes(s, spec.prior, a, cov)
    phi = base_phi(spec.base, s, a, cov)
    return s.y_sel + clip_component(phi, s.t1, s.t2, a, cov)[0]


def evaluate_batch(
    spec: EstimatorSpec, s: SelectionSummary, a: LinexParams, cov: CovarianceSpec,
    phi: float | np.ndarray | None = None, out: Optional[np.ndarray] = None,
    band: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """`evaluate` over a `select_batch` summary: one estimate per draw.

    `phi` is the component `base_phi_batch` gives the spec (an improved
    spec's base) on these draws, and `band` the clip band `clip_band_batch`
    gives an improved spec on them, when the caller already has them;
    otherwise they are computed here. Writes into `out` if given; Bayes, in no
    published table, allocates and needs the summary's x_max set.
    """
    import numpy as np

    if spec.kind == "Shift":
        return np.add(s.y_sel, spec.d, out=out)
    if spec.kind == "Bayes":
        if s.x_max is None:
            raise InvalidParameterError(
                "a Bayes estimate needs the summary's x_max, which select_batch leaves None"
            )
        return est_bayes(s, spec.prior, a, cov)
    if phi is None:
        phi = base_phi_batch(spec.base if spec.kind == "Improved" else spec, s, a, cov)
    if spec.kind == "Improved":
        return improve_batch(s, a, cov, phi, out, band)
    return np.add(s.y_sel, phi, out=out)
