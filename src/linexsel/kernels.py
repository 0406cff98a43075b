"""The risk cell's array kernels, which only `risksim` imports.

Each is the array twin of a float form in its rule's module and gives that
form's bits draw for draw. The mask a branch becomes (the tie rule of
`selection.select`, N3's log switch and N4's window in `estimators`, the
band's condition sets in `oracles`) lives here; the constants and helpers
it reads are imported from there. Beside them are the batch normal cdf,
the LINEX loss and the bit blend that the kernels select with. A scalar
start (`estimate`, `admissibility`, `analyze`) neither loads nor compiles
this module, and loading it loads no numpy: each kernel imports numpy on
first use. An array kernel writes its result into `out` if given and takes
its temporaries from its own ufuncs; which arrays outlive a call is the
caller's to decide.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from .core import (
    CovarianceSpec,
    InvalidParameterError,
    LinexOverflowError,
    LinexParams,
    log_std_normal_cdf_tail,
)
from .estimators import N3_LOG_SWITCH, EstimatorSpec, _n4_cut, base_phi, est_bayes
from .oracles import _band_edges
from .selection import SelectionSummary

if TYPE_CHECKING:
    import numpy as np

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


def std_normal_cdf_batch(u: np.ndarray) -> np.ndarray:
    """Phi(u) over an array of u <= 0 (the batch N3 kernel's t1 is never positive).

    A Cody-style rational approximation: exp(-u^2/2) P(-u) / Q(-u) with one
    degree 9/10 rational fitted to exp(t^2/2) Phi(-t) over the whole range
    where Phi(-t) is nonzero, so no branch is needed. Relative error within
    about 4 ulp plus the u^2/4 ulp that rounding u^2 passes through exp;
    about 1 subnormal ulp absolute where Phi is subnormal, and 0 below about
    -38.5. Not defined for u > 0.
    """
    import numpy as np

    t = np.negative(u)
    # beyond _CDF_T_MAX Phi(-t) is 0 all the same; the clip keeps t*t, P and Q
    # finite for any u, -inf included
    np.minimum(t, _CDF_T_MAX, out=t)
    out = np.multiply(t, t)
    out *= -0.5
    np.exp(out, out=out)
    acc = np.multiply(_CDF_P[-1], t)
    acc += _CDF_P[-2]
    for c in _CDF_P[-3::-1]:
        acc *= t
        acc += c
    out *= acc
    np.add(t, _CDF_Q[-2], out=acc)
    for c in _CDF_Q[-3::-1]:
        acc *= t
        acc += c
    out /= acc
    return out


def linex_loss(
    delta,
    theta,
    params: LinexParams,
    context: str = "",
    out: Optional[np.ndarray] = None,
):
    """LINEX loss exp(a*(delta-theta)) - a*(delta-theta) - 1, over floats or arrays.

    Nonnegative, zero only at delta == theta. Rather than returning inf or nan
    silently it raises LinexOverflowError when the largest exponent would
    overflow exp() or is NaN, and InvalidParameterError when an exponent is
    -inf; both name the offending rep, its flat index in the array. `context`
    only labels the message. Writes into `out` if given (which may be `delta`
    itself). The exponent and its largest and least values take one pass each
    over the whole array, the loss one pass per slice of its first axis, so a
    (columns, rows, reps) stack keeps expm1's temporary one column long.
    """
    import numpy as np

    if out is None:
        out = np.empty(np.broadcast(delta, theta).shape)
    with np.errstate(over="ignore"):  # an exponent that overflows is refused below
        z = np.multiply(params.a, np.subtract(delta, theta, out=out), out=out)
    zmax = float(np.max(z))
    if not zmax <= EXP_OVERFLOW_LIMIT:
        raise LinexOverflowError(zmax, f"{context} rep={np.argmax(z)}".lstrip())
    if float(np.min(z)) == -math.inf:
        raise InvalidParameterError(
            f"loss arguments must be finite, exponent -inf at rep={np.argmin(z)} {context}".rstrip()
        )
    stack = z if z.ndim > 1 else z[np.newaxis]
    for j in range(len(stack)):
        column = stack[j, ...]  # a view, even of a column that is one number
        np.subtract(np.expm1(column), column, out=column)
    return out if out.ndim else out[()]


def _bits(v) -> np.ndarray | np.int64:
    # an array's bits are read in place; a number (Python or numpy scalar) is
    # converted to float64 first, which alone needs numpy
    if getattr(v, "ndim", 0):
        return v.view("i8")
    import numpy as np

    return np.float64(v).view(np.int64)


def blend(cond: np.ndarray, a, b, out: Optional[np.ndarray] = None) -> np.ndarray:
    """np.where(cond, a, b) bit for bit, written into `out` if given; `a` and `b` are floats or float arrays.

    It blends bit patterns, b ^ ((a ^ b) & -cond), rather than branch on each
    element: where cond is a coin toss, np.where and masked copies run 5-10x
    slower on mispredicted branches. `out` must not be `b`.
    """
    import numpy as np

    return mask_blend(np.negative(cond.view(np.int8)), a, b, out)


def mask_blend(mask: np.ndarray, a, b, out: Optional[np.ndarray] = None) -> np.ndarray:
    """`blend` by the mask -cond (all bits set where cond holds, none elsewhere) in place of cond.

    A caller that blends several pairs by one condition builds the mask once.
    """
    import numpy as np

    if out is None:
        out = np.empty(np.shape(mask))
    bits = out.view(np.int64)
    np.bitwise_and(mask, np.bitwise_xor(_bits(a), _bits(b), out=bits), out=bits)
    bits ^= _bits(b)
    return out


def select_batch(x1, y1, x2, y2, out=None) -> SelectionSummary:
    """`select` over arrays of draws; the tie rule becomes the mask -(x1 > x2).

    Builds the mask, an int64 array with all bits set where population 1 is
    selected, and the three arrays the estimators read, y_sel, t1 and t2,
    and leaves selected, x_max, x_min and y_other None. Both concomitants
    come from one blend of bits: with d = (y1 ^ y2) & mask, y_sel = y2 ^ d and
    y_other = y1 ^ d. With `out` = (mask, y_sel, t1, t2), an int64 array and
    three float arrays, they are written there.
    """
    import numpy as np

    mask, y_sel, t1, t2 = (None,) * 4 if out is None else out
    shape = np.shape(x1)
    # the comparison itself: the sign of x2 - x1 would pick population 1 at (+0.0, -0.0)
    sel1 = np.greater(x1, x2)
    mask = np.negative(sel1.view(np.int8), out=np.empty(shape, np.int64) if mask is None else mask)
    y1_bits, y2_bits = y1.view(np.int64), y2.view(np.int64)
    y_sel = np.empty(shape) if y_sel is None else y_sel
    d = np.bitwise_xor(y1_bits, y2_bits, out=y_sel.view(np.int64))
    d &= mask
    # t2 holds y_other until it becomes y_other - y_sel
    t2 = np.empty(shape) if t2 is None else t2
    np.bitwise_xor(y1_bits, d, out=t2.view(np.int64))
    d ^= y2_bits
    # x_min - x_max is -|x1 - x2|, and +0.0 (as 0.0 - 0.0) at a tie
    t1 = np.subtract(x1, x2, out=t1)
    np.abs(t1, out=t1)
    np.subtract(0.0, t1, out=t1)
    np.subtract(t2, y_sel, out=t2)
    return SelectionSummary(None, None, None, y_sel, None, t1, t2)


def clip_band_batch(t1, t2, a: LinexParams, cov: CovarianceSpec, out=None):
    """`clip_band` over arrays; the condition sets become masks. Writes into
    `out` = (value, lo_set, hi_set), a float and two bool arrays, if given."""
    import numpy as np

    rho, xi = cov.rho, cov.xi
    shift, margin = _band_edges(a, cov)
    value, lo, hi = (None,) * 3 if out is None else out
    # side = t1*xi - rho*t2, with value holding rho*t2 for the moment
    value = np.multiply(rho, t2, out=value)
    side = np.multiply(t1, xi)
    side -= value
    lo = np.less(side, 0, out=lo)
    hi = np.greater(side, 0, out=hi)
    gap = np.multiply(xi * rho, t1, out=side)
    np.subtract(t2, gap, out=gap)
    cond = np.less(gap, margin)
    lo &= cond
    np.greater(gap, margin, out=cond)
    hi &= cond
    np.multiply(t2, 0.5, out=value)  # t2 / 2 bit for bit, at a third of the cost
    value -= shift
    return value, lo, hi


def improve_batch(
    s: SelectionSummary,
    a: LinexParams,
    cov: CovarianceSpec,
    phi: float | np.ndarray,
    out: Optional[np.ndarray] = None,
    band: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """The clipped estimate Y_[2] + clip_component(phi, ...) over a `select_batch` summary.

    `phi` is the base estimator's component from `base_phi_batch` on the same
    draws, which a sweep has already computed for the base column; it must
    not be `out`. `band` is `clip_band_batch`'s (value, lo_set, hi_set) on these
    draws, left as it is, when the caller has it; otherwise it is built here.
    Writes into `out` if given.
    """
    import numpy as np

    value, lo_set, hi_set = clip_band_batch(s.t1, s.t2, a, cov) if band is None else band
    # the two sets are disjoint and both clip to value, so one blend serves both
    hi_clip = np.greater_equal(phi, value)
    hi_clip &= hi_set
    clip = np.less_equal(phi, value)
    clip &= lo_set
    clip |= hi_clip
    out = blend(clip, value, phi, out)
    return np.add(s.y_sel, out, out=out)


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
