"""Shared domain types, the scalar numerics, and the random streams.

Everything downstream builds on the pieces here: the package's error types
(`DatasetError`, for malformed input data, among them), the `Record` base
of its records, the known 2x2 covariance and its derived quantities, the
standard normal pdf and cdf (erfc) and the cdf's log (the admissibility
bounds and the hybrid log-estimator take logs of Phi, so both need to be
accurate in the tails), a stable log-sum-exp, `remember_last`, which keeps
a per-model computation's value for the records of its last call, and the
counter-based random streams of stream layout v1 (`rng_stream`,
`sample_batch`, `sample_block`). Those three are the only numpy code here,
and each imports numpy on first use; the risk cell's other array kernels
live in `kernels`. This is the one package module that `cli` imports when
it loads, so every subcommand's start compiles it.
"""

from __future__ import annotations

import math
import sys
from functools import wraps
from operator import attrgetter, index
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, TypeVar

if TYPE_CHECKING:
    import numpy as np

_V = TypeVar("_V")

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

class LinexError(Exception):
    """Base error for this package."""


class InvalidParameterError(LinexError, ValueError):
    """Inputs violate a documented contract (domain, shape, finiteness)."""


class SingularCovarianceError(InvalidParameterError):
    """An operation that needs |Sigma| > 0 was given a degenerate covariance."""


class DatasetError(ValueError):
    """Malformed or structurally invalid input data."""


class LinexOverflowError(LinexError, OverflowError):
    """exp(a * (delta - theta)) left the double range, or a LINEX risk did.

    Carries the offending exponent so simulation drivers can report which
    estimator/parameter combination diverged instead of averaging infinities.
    Where a term other than the exponential left the range, `cause` names it
    and replaces the exponent in the message; `exponent` is still the one
    computed.
    """

    def __init__(self, exponent: float, context: str = "", cause: str = ""):
        self.exponent = exponent
        self._ctor_args = (exponent, context, cause)
        msg = cause or f"LINEX loss exponent {exponent:.6g} exceeds exp() range (saturated)"
        if context:
            msg += f" [{context}]"
        super().__init__(msg)

    def __reduce__(self):
        # the constructor's own arguments: the default passes the message as `exponent`
        return type(self), self._ctor_args


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidParameterError(f"{name} must be finite, got {v!r}")


def nonnegative_int(name: str, value: int, least: int = 0) -> int:
    """`value` as an int; InvalidParameterError unless it is an integer of at least `least`.

    The one check of seeds, table ids, stream key parts, reps and workers:
    numpy integers pass; a bool, which would pass as 0 or 1, and a float,
    which `int()` would truncate, do not.
    """
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    value = index(value)
    if value < least:
        bound = f">= {least}, got {value}" if least else "nonnegative"
        raise InvalidParameterError(f"{name} must be {bound}")
    return value


class Record:
    """Base of the package's records: equality, hash, repr and `replace` over their fields.

    A record's fields are the parameters of its `__init__`, in order; the
    `__init__` validates them and stores each in the instance's `__dict__`.
    Whatever else it stores there (CovarianceSpec's rho, xi and sd_dx) stays
    outside equality, hash and repr. A record equals only a record of its own
    class with equal fields and prints as `Name(field=value, ...)`. Records
    are frozen, refusing assignment and deletion, and hash by their fields
    where those hash (a dict or list field does not).
    """

    _fields: tuple[str, ...]
    #: reads the fields' values in C: a tuple of them, or the value of a lone field
    _key: attrgetter

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def remember_last(fn: Callable[..., _V]) -> Callable[..., _V]:
    """`fn(x, y)` or `fn(x, y, z)`, computed again only when a record is not
    the very record of the last call.

    For the constants a model derives from its records, such as the
    admissible interval from (a, Sigma): a scalar caller passes the same
    records call after call. Records are frozen, so the same records give
    the same value. They are compared by identity, not by equality, which
    would run their Python `__eq__` on every call; an equal but distinct
    record only costs one computation, of the same value. A function of two
    records leaves the third slot at its sentinel. The last records and
    value are one tuple, replaced whole, so a thread reads either the old
    entry or the new one; the entry keeps its records alive. A call that
    raises leaves the entry as it was, so it raises again on every call.
    """
    unset = object()
    last: tuple = (unset, unset, unset, None)

    @wraps(fn)
    def remembered(x, y, z=unset):
        nonlocal last
        last_x, last_y, last_z, value = last
        if last_x is x and last_y is y and last_z is z:
            return value
        value = fn(x, y) if z is unset else fn(x, y, z)
        last = (x, y, z, value)
        return value

    return remembered


def replace(record: Record, /, **changes) -> Record:
    """A record of `record`'s class with `changes` to its fields, validated as any new one is."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


class CovarianceSpec(Record):
    """The common known 2x2 variance-covariance matrix.

    rho, xi and sd_dx = sqrt(2*sigma_xx), the standard deviation of X1 - X2,
    are always derived from (sigma_xx, sigma_yy, sigma_xy), once, at
    construction: plain attributes outside the fields, so equality, hash and
    repr see the three entries alone. Degenerate correlation |rho| = 1
    is accepted (the simulation tables use rho = +-1) but the Bayes path
    rejects it separately.
    """

    def __init__(self, sigma_xx: float, sigma_yy: float, sigma_xy: float):
        _require_finite("covariance entries", sigma_xx, sigma_yy, sigma_xy)
        if sigma_xx <= 0 or sigma_yy <= 0:
            raise InvalidParameterError(
                f"variances must be positive, got sigma_xx={sigma_xx}, "
                f"sigma_yy={sigma_yy}"
            )
        bound = sigma_xx * sigma_yy
        # rho divides by sqrt(bound): a product that underflows to a subnormal or
        # 0, or overflows, leaves it meaningless
        if not sys.float_info.min <= bound <= sys.float_info.max:
            raise InvalidParameterError(
                f"sigma_xx*sigma_yy = {bound!r} is not a positive normal double "
                f"(sigma_xx={sigma_xx}, sigma_yy={sigma_yy})"
            )
        # tiny relative slack so sigma_xy = sqrt(sigma_xx*sigma_yy) computed in
        # floats still validates as |rho| = 1
        if sigma_xy * sigma_xy > bound * (1.0 + 1e-12):
            raise InvalidParameterError(
                f"|sigma_xy| = {abs(sigma_xy)} exceeds sqrt(sigma_xx*sigma_yy) "
                f"= {math.sqrt(bound)}: correlation would leave [-1, 1]"
            )
        r = sigma_xy / math.sqrt(sigma_xx * sigma_yy)
        self.__dict__.update(
            sigma_xx=sigma_xx, sigma_yy=sigma_yy, sigma_xy=sigma_xy,
            rho=max(-1.0, min(1.0, r)), xi=math.sqrt(sigma_yy / sigma_xx),
            sd_dx=math.sqrt(2.0 * sigma_xx),
        )

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


class MeanVectorPair(Record):
    """Mean vectors (theta_x, theta_y) of the two populations."""

    def __init__(self, theta1: tuple[float, float], theta2: tuple[float, float]):
        _require_finite("mean components", *theta1, *theta2)
        self.__dict__.update(theta1=theta1, theta2=theta2)


class ThetaStar(Record):
    """Nonnegative component gaps (theta_x, theta_y) between the two means."""

    def __init__(self, theta_x: float, theta_y: float):
        _require_finite("theta gaps", theta_x, theta_y)
        if theta_x < 0 or theta_y < 0:
            raise InvalidParameterError(
                f"theta gaps must be nonnegative, got ({theta_x}, {theta_y})"
            )
        self.__dict__.update(theta_x=theta_x, theta_y=theta_y)


class LinexParams(Record):
    """Shape/location parameter of the asymmetric loss; a = 0 is excluded."""

    def __init__(self, a: float):
        _require_finite("a", a)
        if a == 0:
            raise InvalidParameterError("LINEX parameter a must be nonzero")
        # a subnormal a loses its digits in a*sigma and a*t: d0 printed -0 for -0.282
        if abs(a) < sys.float_info.min:
            raise InvalidParameterError(f"LINEX parameter a must be a normal double, got {a!r}")
        self.__dict__.update(a=a)


class ObservationPair(Record):
    """One observation (x, y) from each population."""

    def __init__(self, z1: tuple[float, float], z2: tuple[float, float]):
        _require_finite("observations", *z1, *z2)
        self.__dict__.update(z1=z1, z2=z2)


def std_normal_pdf(u: float) -> float:
    """phi(u) = exp(-u^2/2) / sqrt(2*pi)."""
    return math.exp(-0.5 * u * u) / _SQRT_2PI


def std_normal_cdf(u: float) -> float:
    """Phi(u) via the complementary error function (abs error ~1e-16); exact at +-inf."""
    return 0.5 * math.erfc(-u / _SQRT2)


def _tail_series(u):
    """-u^-2 + 3u^-4 - ... to u^-14, log Phi's tail series: arithmetic alone, for floats or arrays."""
    r = 1.0 / (u * u)
    return r * (-1.0 + r * (3.0 + r * (-15.0 + r * (105.0 + r * (
        -945.0 + r * (10395.0 - r * 135135.0))))))


def log_std_normal_cdf_tail(u: float) -> float:
    """log Phi(u) for u below about -37.5, where Phi(u) is subnormal or 0.

    The asymptotic series of Abramowitz & Stegun 26.2.12,
    log Phi(u) = -u^2/2 - log(-u) - log(2 pi)/2 + log(1 + _tail_series(u)).
    Below -37.5, u^-2 < 7.2e-4, so the terms kept (to u^-14) leave an error
    below 2e-19 in the argument of the last logarithm.
    """
    return -0.5 * u * u - math.log(-u) - _HALF_LOG_2PI + math.log1p(_tail_series(u))


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


def rng_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based stream from (master seed, stream key).

    Philox generators seeded through SeedSequence spawn keys: streams for
    distinct keys are independent and reproducible regardless of the order
    in which they are created or consumed. The seed and each key part must
    be nonnegative integers (numpy's included, bools not).
    """
    import numpy as np

    key = tuple(nonnegative_int("stream key part", k) for k in key)
    ss = np.random.SeedSequence(nonnegative_int("master seed", master_seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def sample_batch(
    means: MeanVectorPair, cov: CovarianceSpec, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw Z1, Z2 independently, each N2(theta_i, Sigma), n times over.

    Returns the arrays (x1, y1, x2, y2): row 0 of `sample_block` for one row.
    """
    x1, y1, x2, y2 = sample_block((means,), cov, (rng,), n)
    return x1[0], y1[0], x2[0], y2[0]


def sample_block(
    means: Sequence[MeanVectorPair],
    cov: CovarianceSpec,
    rngs: Sequence[np.random.Generator],
    n: int,
    out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`sample_batch` for k rows at once: row i draws from `rngs[i]` at `means[i]`.

    Returns the (k, n) arrays (x1, y1, x2, y2). Uses the lower-triangular
    factor from CovarianceSpec.cholesky_factors(). Stream layout v1: each
    row's generator fills row i of `out`, a (k, 4, n) array, with one draw
    of standard_normal((4, n)) read row-major; the four arrays are views of
    `out`, transformed in place for all rows at once. Each y is theta_y + l_yx*x + l_yy*y with
    its sums and products only commuted, never regrouped, so the bits match
    the out-of-place formula.

    Where l_yy is 0 (|rho| = 1) each row draws only its first three rows,
    the same 3n normals that begin the four-row draw, and each y is
    theta_y + l_yx*x: l_yy*y is a signed zero there, and adding a signed
    zero leaves a sum's bits alone unless the sum is -0, which needs
    theta_y = -0.0. So a block with a -0.0 theta_y in any row draws four
    rows for every row, with the same bits in the others. A three-row
    generator stops n normals short of the four-row draw; a risk cell
    draws once from its own stream, so nothing reads past it.
    """
    import numpy as np

    l_xx, l_yx, l_yy = cov.cholesky_factors()
    k = len(means)
    if out is None:
        out = np.empty((k, 4, n))
    affine = l_yy == 0.0 and not any(
        theta_y == 0.0 and math.copysign(1.0, theta_y) < 0.0
        for m in means for theta_y in (m.theta1[1], m.theta2[1])
    )
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row[:3] if affine else row)
    x1, y1, x2, y2 = out.transpose(1, 0, 2)
    t = None
    for x, y, pop in ((x1, y1, 0), (x2, y2, 1)):
        # one mean per row, broadcast along the draws
        theta_x, theta_y = np.array([m.theta2 if pop else m.theta1 for m in means]).T[:, :, None]
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
