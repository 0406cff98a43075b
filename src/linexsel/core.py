"""Numeric kernels and shared domain types.

Everything downstream builds on the pieces here: the known 2x2 covariance
and its derived quantities, the LINEX loss, the standard normal cdf (erfc
for floats, a rational approximation for arrays) and its log (the
admissibility bounds and the hybrid log-estimator take logs of Phi, so both
need to be accurate in the tails), a stable log-sum-exp, counter-based
random streams for reproducible simulation, and the `Workspace` that batch
kernels borrow their temporaries from instead of allocating them. numpy is
the only dependency, and only the array kernels import it, on first use: the
scalar API runs without loading it.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# Phi(-t) = exp(-t^2/2) P(t) / Q(t) on t in [0, _CDF_T_MAX], coefficients in
# ascending powers, Q monic; fitted at 50 digits by tests/fit_normal_cdf.py.
# Largest relative error on a dense grid: 0.6 ulp in exact arithmetic, 4.3 ulp
# through the Horner scheme below.
_CDF_P = (
    142071.67722077604, 220452.7364414208, 169198.8533513047, 82502.57738009006,
    27891.83801585515, 6752.498101532131, 1170.5804045173982, 140.60685141494838,
    10.700896689414282, 0.3989422804003892,
)
_CDF_Q = (
    284143.3544415521, 667619.0684464886, 729008.976692989, 488431.826246843,
    223034.46395940785, 72795.03024415504, 17276.45188860044, 2961.0331069440426,
    353.44910941553724, 26.82317020504157, 1.0,
)
_CDF_T_MAX = 40.0  # exp(-_CDF_T_MAX^2/2) underflows to 0

# exp() overflows just above 709.78; keep a little headroom
EXP_OVERFLOW_LIMIT = 700.0


class LinexError(Exception):
    """Base error for this package."""


class InvalidParameterError(LinexError, ValueError):
    """Inputs violate a documented contract (domain, shape, finiteness)."""


class SingularCovarianceError(InvalidParameterError):
    """An operation that needs |Sigma| > 0 was given a degenerate covariance."""


class LinexOverflowError(LinexError, OverflowError):
    """exp(a * (delta - theta)) left the double range.

    Carries the offending exponent so simulation drivers can report which
    estimator/parameter combination diverged instead of averaging infinities.
    """

    def __init__(self, exponent: float, context: str = ""):
        self.exponent = exponent
        msg = f"LINEX loss exponent {exponent:.6g} exceeds exp() range (saturated)"
        if context:
            msg += f" [{context}]"
        super().__init__(msg)


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidParameterError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class CovarianceSpec:
    """The common known 2x2 variance-covariance matrix.

    rho and xi are always derived from (sigma_xx, sigma_yy, sigma_xy), once,
    at construction: plain attributes outside the fields, so equality, hash
    and repr see the three entries alone. Degenerate correlation |rho| = 1
    is accepted (the simulation tables use rho = +-1) but the Bayes path
    rejects it separately.
    """

    sigma_xx: float
    sigma_yy: float
    sigma_xy: float

    def __post_init__(self) -> None:
        _require_finite("covariance entries", self.sigma_xx, self.sigma_yy, self.sigma_xy)
        if self.sigma_xx <= 0 or self.sigma_yy <= 0:
            raise InvalidParameterError(
                f"variances must be positive, got sigma_xx={self.sigma_xx}, "
                f"sigma_yy={self.sigma_yy}"
            )
        bound = self.sigma_xx * self.sigma_yy
        # tiny relative slack so sigma_xy = sqrt(sigma_xx*sigma_yy) computed in
        # floats still validates as |rho| = 1
        if self.sigma_xy * self.sigma_xy > bound * (1.0 + 1e-12):
            raise InvalidParameterError(
                f"|sigma_xy| = {abs(self.sigma_xy)} exceeds sqrt(sigma_xx*sigma_yy) "
                f"= {math.sqrt(bound)}: correlation would leave [-1, 1]"
            )
        r = self.sigma_xy / math.sqrt(self.sigma_xx * self.sigma_yy)
        object.__setattr__(self, "rho", max(-1.0, min(1.0, r)))
        object.__setattr__(self, "xi", math.sqrt(self.sigma_yy / self.sigma_xx))

    @classmethod
    def from_correlation(cls, sigma_xx: float, sigma_yy: float, rho: float) -> "CovarianceSpec":
        if not -1.0 <= rho <= 1.0:
            raise InvalidParameterError(f"rho must lie in [-1, 1], got {rho}")
        return cls(sigma_xx, sigma_yy, rho * math.sqrt(sigma_xx * sigma_yy))

    @property
    def det(self) -> float:
        """|Sigma|; clamped at 0 for |rho| = 1 computed in floats."""
        return max(self.sigma_xx * self.sigma_yy - self.sigma_xy * self.sigma_xy, 0.0)

    @property
    def is_singular(self) -> bool:
        return abs(self.rho) == 1.0

    def cholesky_factors(self) -> tuple[float, float, float]:
        """Lower-triangular factor (l_xx, l_yx, l_yy) of Sigma.

        At |rho| = 1 the factor is built as (sqrt(sxx), sign(sxy)*sqrt(syy), 0)
        so that Y is an exact affine function of X; the algebraically equal
        sigma_xy/sqrt(sigma_xx) can be off by an ulp, which matters because
        the improvement operator compares strict inequalities that sit exactly
        on a boundary for the published parameter grids.
        """
        l_xx = math.sqrt(self.sigma_xx)
        if self.is_singular:
            return l_xx, math.copysign(math.sqrt(self.sigma_yy), self.sigma_xy), 0.0
        l_yx = self.sigma_xy / l_xx
        l_yy = math.sqrt(max(self.sigma_yy - l_yx * l_yx, 0.0))
        return l_xx, l_yx, l_yy


@dataclass(frozen=True)
class MeanVectorPair:
    """Mean vectors (theta_x, theta_y) of the two populations."""

    theta1: tuple[float, float]
    theta2: tuple[float, float]

    def __post_init__(self) -> None:
        _require_finite("mean components", *self.theta1, *self.theta2)

    @property
    def theta_star(self) -> "ThetaStar":
        return ThetaStar(
            abs(self.theta1[0] - self.theta2[0]),
            abs(self.theta1[1] - self.theta2[1]),
        )


@dataclass(frozen=True)
class ThetaStar:
    """Nonnegative component gaps (theta_x, theta_y) between the two means."""

    theta_x: float
    theta_y: float

    def __post_init__(self) -> None:
        _require_finite("theta gaps", self.theta_x, self.theta_y)
        if self.theta_x < 0 or self.theta_y < 0:
            raise InvalidParameterError(
                f"theta gaps must be nonnegative, got ({self.theta_x}, {self.theta_y})"
            )


@dataclass(frozen=True)
class LinexParams:
    """Shape/location parameter of the asymmetric loss; a = 0 is excluded."""

    a: float

    def __post_init__(self) -> None:
        _require_finite("a", self.a)
        if self.a == 0:
            raise InvalidParameterError("LINEX parameter a must be nonzero")


@dataclass(frozen=True)
class ObservationPair:
    """One observation (x, y) from each population."""

    z1: tuple[float, float]
    z2: tuple[float, float]

    def __post_init__(self) -> None:
        _require_finite("observations", *self.z1, *self.z2)


def std_normal_pdf(u: float) -> float:
    """phi(u) = exp(-u^2/2) / sqrt(2*pi)."""
    return math.exp(-0.5 * u * u) / _SQRT_2PI


def std_normal_cdf(u: float) -> float:
    """Phi(u) via the complementary error function (abs error ~1e-16); exact at +-inf."""
    return 0.5 * math.erfc(-u / _SQRT2)


def std_normal_cdf_batch(
    u: np.ndarray, out: Optional[np.ndarray] = None, work: Optional["Workspace"] = None
) -> np.ndarray:
    """Phi(u) over an array of u <= 0 (the batch N3 kernel's t1 is never positive).

    A Cody-style rational approximation: exp(-u^2/2) P(-u) / Q(-u) with one
    degree 9/10 rational fitted to exp(t^2/2) Phi(-t) over the whole range
    where Phi(-t) is nonzero, so no branch is needed. Relative error within
    about 4 ulp plus the u^2/4 ulp that rounding u^2 passes through exp;
    about 1 subnormal ulp absolute where Phi is subnormal, and 0 below about
    -38.5. Not defined for u > 0. Writes into `out` if given and borrows
    its two temporaries from `work` if given.
    """
    import numpy as np

    with borrow(work, floats=2) as (t, acc):
        t = np.negative(u, out=t)
        # beyond _CDF_T_MAX Phi(-t) is 0 all the same; the clip keeps t*t, P and Q
        # finite for any u, -inf included
        np.minimum(t, _CDF_T_MAX, out=t)
        out = np.multiply(t, t, out=out)
        out *= -0.5
        np.exp(out, out=out)
        acc = np.multiply(_CDF_P[-1], t, out=acc)
        acc += _CDF_P[-2]
        for c in _CDF_P[-3::-1]:
            acc *= t
            acc += c
        out *= acc
        acc = np.add(t, _CDF_Q[-2], out=acc)
        for c in _CDF_Q[-3::-1]:
            acc *= t
            acc += c
        out /= acc
    return out


def log_std_normal_cdf_tail(u):
    """log Phi(u) for u below about -37.5, where Phi(u) is subnormal or 0; floats or arrays.

    The asymptotic series of Abramowitz & Stegun 26.2.12,
    log Phi(u) = -u^2/2 - log(-u) - log(2 pi)/2 + log(1 - u^-2 + 3u^-4 - 15u^-6 + ...).
    Below -37.5, u^-2 < 7.2e-4, so the terms kept (to u^-14) leave an error
    below 2e-19 in the argument of the last logarithm. Floats take math's
    logarithms, so the scalar log Phi loads no numpy.
    """
    # an array means numpy is loaded already, so this test imports nothing
    np = sys.modules.get("numpy")
    if np is None or not isinstance(u, np.ndarray):
        log, log1p = math.log, math.log1p
    else:
        log, log1p = np.log, np.log1p
    r = 1.0 / (u * u)
    series = r * (-1.0 + r * (3.0 + r * (-15.0 + r * (105.0 + r * (
        -945.0 + r * (10395.0 - r * 135135.0))))))
    return -0.5 * u * u - log(-u) - _HALF_LOG_2PI + log1p(series)


def log_std_normal_cdf(u: float) -> float:
    """log Phi(u) to a few 1e-14 relative error over the whole real line.

    Equals math.log(std_normal_cdf(u)) wherever u <= 0 and Phi(u) is a normal
    double; above 0 it takes log1p(-Phi(-u)), because Phi(u) rounds towards 1
    and its log loses the relative accuracy (7 % at u = 8). Where Phi(u) is
    subnormal or 0 (u below about -37.5) it takes `log_std_normal_cdf_tail`.
    """
    if u > 0:
        return math.log1p(-std_normal_cdf(-u))
    p = std_normal_cdf(u)
    if p >= sys.float_info.min:
        return math.log(p)
    return float(log_std_normal_cdf_tail(u))


def log_sum_exp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) without overflow; -inf entries are ignored."""
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    m = max(vals)
    if m == math.inf:
        return math.inf
    return m + math.log(sum(math.exp(v - m) for v in vals))


def linex_loss(
    delta,
    theta,
    params: LinexParams,
    context: str = "",
    out: Optional[np.ndarray] = None,
    work: Optional["Workspace"] = None,
):
    """LINEX loss exp(a*(delta-theta)) - a*(delta-theta) - 1, over floats or arrays.

    Nonnegative, zero only at delta == theta. Rather than returning inf or nan
    silently it raises LinexOverflowError when the largest exponent would
    overflow exp() or is NaN, and InvalidParameterError when an exponent is
    -inf; both name the offending rep. `context` only labels the message.
    Writes into `out` if given (which may be `delta` itself) and borrows the
    exponent's array from `work` if given.
    """
    import numpy as np

    with borrow(work, floats=1) as (buf,):
        z = np.multiply(params.a, np.subtract(delta, theta, out=buf), out=buf)
        zmax = np.max(z)
        if not zmax <= EXP_OVERFLOW_LIMIT:
            raise LinexOverflowError(float(zmax), f"{context} rep={np.argmax(z)}".lstrip())
        if np.min(z) == -math.inf:
            raise InvalidParameterError(
                f"loss arguments must be finite, exponent -inf at rep={np.argmin(z)} {context}".rstrip()
            )
        return np.subtract(np.expm1(z, out=out), z, out=out)


def rng_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based stream from (master seed, stream key).

    Philox generators seeded through SeedSequence spawn keys: streams for
    distinct keys are independent and reproducible regardless of the order
    in which they are created or consumed.
    """
    import numpy as np

    if master_seed < 0:
        raise InvalidParameterError("master seed must be nonnegative")
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def sample_batch(
    means: MeanVectorPair,
    cov: CovarianceSpec,
    rng: np.random.Generator,
    n: int,
    out: Optional[np.ndarray] = None,
    work: Optional["Workspace"] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw Z1, Z2 independently, each N2(theta_i, Sigma), n times over.

    Returns the arrays (x1, y1, x2, y2). Uses the lower-triangular factor from
    CovarianceSpec.cholesky_factors(). Stream layout v1: one draw of
    standard_normal((4, n)) read row-major feeds the four components, filling
    `out`, a (4, n) array, if given; the four arrays are its rows, transformed
    in place, with one temporary borrowed from `work` if given. Each y is
    theta_y + l_yx*x + l_yy*y with its sums and products only commuted, never
    regrouped, so the bits match the out-of-place formula.

    Where l_yy is 0 (|rho| = 1) only the first three rows are drawn, the same
    3n normals that begin the four-row draw, and each y is theta_y + l_yx*x:
    l_yy*y is a signed zero there, and adding a signed zero leaves a sum's
    bits alone unless the sum is -0, which needs theta_y = -0.0, so a -0.0
    theta_y keeps the four-row draw. The generator then stops n normals
    short of the four-row draw; a risk cell draws once from its own stream,
    so nothing reads past it.
    """
    import numpy as np

    l_xx, l_yx, l_yy = cov.cholesky_factors()
    affine = l_yy == 0.0 and not any(
        theta_y == 0.0 and math.copysign(1.0, theta_y) < 0.0
        for theta_y in (means.theta1[1], means.theta2[1])
    )
    if out is None:
        out = np.empty((4, n))
    elif out.shape != (4, n):
        raise InvalidParameterError(f"out must have shape (4, {n}), got {out.shape}")
    rng.standard_normal(out=out[:3] if affine else out)
    x1, y1, x2, y2 = out
    with borrow(work, floats=1) as (t,):
        for x, y, (theta_x, theta_y) in ((x1, y1, means.theta1), (x2, y2, means.theta2)):
            if affine:
                np.multiply(l_yx, x, out=y)
                y += theta_y
            else:
                y *= l_yy
                t = np.multiply(l_yx, x, out=t)  # before x is overwritten
                t += theta_y
                y += t
            x *= l_xx
            x += theta_x
    return x1, y1, x2, y2


class Workspace:
    """Arrays of one length that batch kernels borrow instead of allocating.

    A kernel given a workspace as `work` takes its temporaries from here and
    hands them back before it returns, so a caller that runs batch after
    batch of n draws through one workspace allocates nothing per batch.
    Kernels calling kernels borrow further arrays; a workspace grows to the
    most any call needs at once. Not for sharing between threads.
    """

    def __init__(self, n: int):
        self.n = n
        self._floats: list[np.ndarray] = []
        self._masks: list[np.ndarray] = []

    def borrow(self, floats: int = 0, masks: int = 0) -> "_Loan":
        """Lend `floats` float arrays, then `masks` bool arrays, of length n until the `with` block ends."""
        lent = [self._floats.pop() if self._floats else _empty(self.n, float) for _ in range(floats)]
        lent += [self._masks.pop() if self._masks else _empty(self.n, bool) for _ in range(masks)]
        return _Loan(self, lent, floats)


def _empty(n: int, dtype: type) -> np.ndarray:
    # only a workspace's first loans allocate, so only they import numpy
    import numpy as np

    return np.empty(n, dtype)


class _Loan:
    __slots__ = ("work", "lent", "floats")

    def __init__(self, work: Workspace, lent: list[np.ndarray], floats: int):
        self.work, self.lent, self.floats = work, lent, floats

    def __enter__(self) -> list[np.ndarray]:
        return self.lent

    def __exit__(self, *exc) -> None:
        self.work._floats += self.lent[: self.floats]
        self.work._masks += self.lent[self.floats :]


def borrow(work: Optional[Workspace], floats: int = 0, masks: int = 0):
    """`work.borrow(floats, masks)`, or as many Nones when `work` is None.

    A kernel passes each borrowed array as a ufunc's `out`, so without a
    workspace the ufunc allocates, as it would have anyway.
    """
    if work is None:
        return nullcontext([None] * (floats + masks))
    return work.borrow(floats, masks)


def _bits(v) -> np.ndarray | np.int64:
    # an array's bits are read in place; a number (Python or numpy scalar) is
    # converted to float64 first, which alone needs numpy
    if getattr(v, "ndim", 0):
        return v.view("i8")
    import numpy as np

    return np.float64(v).view(np.int64)


def blend(
    cond: np.ndarray, a, b, out: Optional[np.ndarray] = None, work: Optional[Workspace] = None
) -> np.ndarray:
    """np.where(cond, a, b) bit for bit, written into `out` if given; `a` and `b` are floats or float arrays.

    It blends bit patterns, b ^ ((a ^ b) & -cond), rather than branch on each
    element: where cond is a coin toss, np.where and masked copies run 5-10x
    slower on mispredicted branches. `out` must not be `b`. Borrows the
    mask's array from `work` if given.
    """
    import numpy as np

    if out is None:
        out = np.empty(np.shape(cond))
    bits = out.view(np.int64)
    with borrow(work, floats=1) as (buf,):
        mask = np.negative(cond.view(np.int8), out=None if buf is None else buf.view(np.int64))
        np.bitwise_and(mask, np.bitwise_xor(_bits(a), _bits(b), out=bits), out=bits)
        bits ^= _bits(b)
    return out
