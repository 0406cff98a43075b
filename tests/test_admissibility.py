import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import log_ndtr

from linexsel import (
    ADMISSIBLE_IN_CLASS,
    DOMINATED_BY_D0,
    DOMINATED_BY_D1,
    CovarianceSpec,
    EstimatorSpec,
    InvalidParameterError,
    LinexError,
    LinexOverflowError,
    LinexParams,
    MeanVectorPair,
    SimConfig,
    ThetaStar,
    bounds,
    classify,
    h_a,
    paired_risk_difference,
    psi,
    shift_risk,
)

from ._strategies import A, MEAN, PROPERTY, RHO, SCALE

A1 = LinexParams(1.0)
#: |a| small enough that ln 2 + ln Phi(arg) would cancel at a zero gap
TINY_A = st.sampled_from([1e-16, -1e-16, 1e-9, -1e-9])


def rand_cov(rng):
    return CovarianceSpec.from_correlation(
        rng.uniform(0.3, 4), rng.uniform(0.3, 4), rng.uniform(-0.99, 0.99)
    )


class TestHa:
    cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=1.0)

    def test_symmetric_at_zero_gap(self):
        from linexsel import std_normal_cdf

        expected = 2 * std_normal_cdf(self.cov.sigma_xy / math.sqrt(2 * self.cov.sigma_xx))
        assert h_a(0.0, A1, self.cov) == pytest.approx(expected, abs=1e-14)

    def test_limit_is_one(self):
        assert h_a(1e6, A1, self.cov) == pytest.approx(1.0, abs=1e-12)

    def test_derived_value(self):
        assert h_a(1.0, A1, self.cov) == pytest.approx(1.3413447, abs=1e-7)

    def test_negative_gap_refused(self):
        with pytest.raises(InvalidParameterError, match=r"^theta_x must be nonnegative$"):
            h_a(-0.5, A1, self.cov)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_refused(self, value):
        # unchecked, a nan or inf would come back as a nan or inf risk
        with pytest.raises(InvalidParameterError, match="must be finite"):
            h_a(value, A1, self.cov)
        with pytest.raises(InvalidParameterError, match="^shift constant d must be finite$"):
            shift_risk(value, ThetaStar(0.5, 0.0), A1, self.cov)

    def test_range(self, rng):
        for _ in range(200):
            cov = rand_cov(rng)
            a = LinexParams(rng.uniform(0.2, 3) * rng.choice([-1, 1]))
            v = h_a(rng.uniform(0, 10), a, cov)
            assert 0.0 < v < 2.0


class TestPsi:
    def test_independent_covariance_collapse(self):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=0.0)
        assert psi(ThetaStar(0.0, 0.0), A1, cov) == pytest.approx(-1.0, abs=1e-14)
        assert psi(ThetaStar(50.0, 0.0), A1, cov) == pytest.approx(-1.0, abs=1e-12)

    def test_derived_value(self):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=1.0)
        # -1 - ln(Phi(1) + Phi(0)) = -1.293672652... by 30-digit evaluation
        assert psi(ThetaStar(1.0, 0.0), A1, cov) == pytest.approx(-1.29367265259, abs=1e-9)

    def test_finite_where_h_a_underflows(self):
        # a*sxy/sqrt(2*sxx) = -42.4: both Phi terms of h_a are 0 in doubles
        cov = CovarianceSpec(sigma_xx=1.0, sigma_yy=1.0, sigma_xy=-1.0)
        a = LinexParams(60.0)
        u = a.a * cov.sigma_xy / math.sqrt(2.0 * cov.sigma_xx)
        expected = -a.a * cov.sigma_yy / 2.0 - float(np.logaddexp(log_ndtr(u), log_ndtr(u))) / a.a
        assert psi(ThetaStar(0.0, 0.0), a, cov) == pytest.approx(expected, rel=1e-12)

    def test_ignores_theta_y(self, rng):
        for _ in range(100):
            cov = rand_cov(rng)
            a = LinexParams(rng.uniform(0.2, 3) * rng.choice([-1, 1]))
            tx = rng.uniform(0, 4)
            vals = {psi(ThetaStar(tx, ty), a, cov) for ty in (0.0, 1.0, 7.7)}
            assert len(vals) == 1

    def test_monotone_in_theta_x(self, rng):
        grid = np.linspace(0, 8, 200)
        for _ in range(50):
            cov = rand_cov(rng)
            a = LinexParams(rng.uniform(0.2, 3) * rng.choice([-1, 1]))
            vals = [psi(ThetaStar(t, 0.0), a, cov) for t in grid]
            diffs = np.diff(vals)
            if cov.sigma_xy > 0:
                assert (diffs >= -1e-12).all()
            elif cov.sigma_xy < 0:
                assert (diffs <= 1e-12).all()
            else:
                assert np.allclose(diffs, 0.0, atol=1e-13)


class TestBounds:
    def test_collapses_without_covariance(self):
        cov = CovarianceSpec(sigma_xx=3.0, sigma_yy=2.0, sigma_xy=0.0)
        b = bounds(A1, cov)
        assert b.d0 == b.d1 == -1.0

    def test_derived_interval(self):
        from linexsel import std_normal_cdf

        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=1.0)
        b = bounds(A1, cov)
        assert b.d1 == -1.0
        assert b.d0 == pytest.approx(-1.0 - math.log(2 * std_normal_cdf(0.5)), abs=1e-12)
        # = -1.324200765... (ln(1.3829249) = 0.3242008)
        assert b.d0 == pytest.approx(-1.32420076527, abs=1e-9)

    def test_end_correction_at_tiny_a_against_mpmath(self):
        # ln 2 + ln Phi(arg) cancels as arg = a*sxy/sqrt(2*sxx) -> 0: d0 read -5e-17
        # for -0.2820948 at a = 1e-16 until small |arg| took ln(1 + erf(arg/sqrt 2)),
        # and psi at a zero gap read it until it took the same ln h_a;
        # |a| = 1 and 0.1 put |arg| on both sides of the switch at 1/4
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for sxx, syy, sxy in ((1.0, 1.0, 0.5), (2.0, 3.0, -1.5), (0.3, 4.0, 0.9)):
            cov = CovarianceSpec(sxx, syy, sxy)
            for sign in (1.0, -1.0):
                for a in (sign * 10.0**-k for k in range(17)):
                    arg = mp.mpf(a) * sxy / mp.sqrt(2 * mp.mpf(sxx))
                    end = -mp.mpf(a) * syy / 2 - mp.log(2 * mp.ncdf(arg)) / a
                    b = bounds(LinexParams(a), cov)
                    # relative to end, but for a last rounding of -a*syy/2 where
                    # the two terms cancel (d0 = 2 - 1.405 at a = -1)
                    tol = 4e-16 * (abs(end) + abs(a) * syy / 2)
                    assert abs((b.d0 if sxy > 0 else b.d1) - end) <= tol, (cov, a)
                    assert abs(psi(ThetaStar(0.0, 0.0), LinexParams(a), cov) - end) <= tol, (cov, a)

    @PROPERTY
    @given(a=st.one_of(A, TINY_A), sigma_xx=SCALE, sigma_yy=SCALE, rho=RHO,
           theta_y=st.floats(0.0, 20.0))
    def test_psi_at_a_zero_gap_is_the_interval_end(self, a, sigma_xx, sigma_yy, rho, theta_y):
        # the end is psi's own value, not a second formula that a fix can miss
        cov = CovarianceSpec.from_correlation(sigma_xx, sigma_yy, rho)
        b = bounds(LinexParams(a), cov)
        end = b.d0 if cov.sigma_xy > 0 else b.d1
        assert psi(ThetaStar(0.0, theta_y), LinexParams(a), cov).hex() == end.hex()

    def test_sign_flip_mirrors(self):
        from linexsel import std_normal_cdf

        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=-1.0)
        b = bounds(LinexParams(-1.0), cov)
        assert b.d0 == 1.0
        assert b.d1 == pytest.approx(1.0 + math.log(2 * std_normal_cdf(0.5)), abs=1e-12)

    def test_ordering_and_psi_sandwich(self, rng):
        for _ in range(200):
            cov = rand_cov(rng)
            a = LinexParams(rng.uniform(0.2, 3) * rng.choice([-1, 1]))
            b = bounds(a, cov)
            assert b.d0 <= b.d1 + 1e-15
            for tx in rng.uniform(0, 8, 20):
                v = psi(ThetaStar(tx, 0.0), a, cov)
                assert b.d0 - 1e-10 <= v <= b.d1 + 1e-10

    def test_matches_inf_sup_of_psi(self, rng):
        for _ in range(20):
            cov = rand_cov(rng)
            a = LinexParams(rng.uniform(0.2, 2.5) * rng.choice([-1, 1]))
            b = bounds(a, cov)
            hi = abs(a.a * cov.sigma_xy) + 6.5 * math.sqrt(2 * cov.sigma_xx)
            vals = [psi(ThetaStar(t, 0.0), a, cov) for t in np.linspace(0, hi, 4001)]
            assert min(vals) == pytest.approx(b.d0, abs=1e-6)
            assert max(vals) == pytest.approx(b.d1, abs=1e-6)


def test_psi_where_h_a_underflows_against_mpmath():
    # at a positive gap both Phi terms of h_a underflow to 0 (arguments -41.7 and
    # -43.1), so ln h_a is the log-sum-exp of their logarithms
    mp = pytest.importorskip("mpmath")
    a, cov, tx = LinexParams(60.0), CovarianceSpec(1.0, 1.0, -1.0), 1.0
    assert h_a(tx, a, cov) == 0.0
    with mp.workdps(50):
        s = mp.sqrt(2 * mp.mpf(cov.sigma_xx))
        h = mp.ncdf((mp.mpf(a.a) * cov.sigma_xy + tx) / s) + mp.ncdf((mp.mpf(a.a) * cov.sigma_xy - tx) / s)
        exact = -mp.mpf(a.a) * cov.sigma_yy / 2 - mp.log(h) / a.a
    value = psi(ThetaStar(tx, 0.0), a, cov)
    assert abs(value - exact) <= 4e-16 * abs(exact)
    assert value == -15.418325398142644


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: psi at a positive gap takes log(h_a) next to -a*syy/2 and loses "
    "precision as |a| -> 0 (relative error 6e-4 at a = 1e-12)"))
def test_psi_at_a_positive_gap_and_tiny_a_against_mpmath():
    mp = pytest.importorskip("mpmath")
    a, cov, tx = 1e-12, CovarianceSpec(1.0, 1.0, 0.5), 1.0
    with mp.workdps(50):
        s = mp.sqrt(2 * mp.mpf(cov.sigma_xx))
        h = mp.ncdf((mp.mpf(a) * cov.sigma_xy + tx) / s) + mp.ncdf((mp.mpf(a) * cov.sigma_xy - tx) / s)
        exact = float(-mp.mpf(a) * cov.sigma_yy / 2 - mp.log(h) / a)
    assert psi(ThetaStar(tx, 0.0), LinexParams(a), cov) == pytest.approx(exact, rel=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: shift_risk loses precision as |a| -> 0 and reads -1.1e-16, a negative "
    "LINEX risk, at a = 1e-12"))
def test_shift_risk_at_tiny_a_is_positive():
    cov = CovarianceSpec(1.0, 1.0, 0.5)
    assert shift_risk(-0.28, ThetaStar(0.0, 0.0), LinexParams(1e-12), cov) > 0


class TestNonFiniteResultsRefused:
    """Where a*d or a^2 leaves the double range, math.exp takes an exponent of
    +-inf or nan without raising; the result is refused, not returned."""

    gap = ThetaStar(0.5, 0.0)

    @pytest.mark.parametrize("d, a, cov", [
        (1e10, 1e300, (2.0, 2.0, 1.0)),  # was nan: inf - inf
        (1e10, -1e300, (2.0, 2.0, 1.0)),  # was nan: -inf + inf in the exponent
        (0.0, 1e160, (2.0, 2.0, 1.0)),  # was inf: a^2 overflows
        (-1e300, 1e10, (2.0, 4.0, 1.0)),  # was inf: e^{-inf} = 0, but a*d overflows
    ])
    def test_shift_risk(self, d, a, cov):
        with pytest.raises(LinexOverflowError, match=r"\[shift_risk: R\(d\) = (nan|inf)\]$"):
            shift_risk(d, self.gap, LinexParams(a), CovarianceSpec(*cov))

    @pytest.mark.parametrize("d, a, cov, cause", [
        (1e10, 1e300, (2.0, 2.0, 1.0), "LINEX loss exponent inf exceeds exp() range (saturated)"),
        (1e10, -1e300, (2.0, 2.0, 1.0), "LINEX loss exponent nan exceeds exp() range (saturated)"),
        (0.0, 1e160, (2.0, 2.0, 1.0), "LINEX loss exponent inf exceeds exp() range (saturated)"),
        # a*d = -inf, so e^{ad} E[e^{aW}] = 0 and only a*(d + E[W]) left the range
        (-1e300, 1e10, (2.0, 4.0, 1.0), "LINEX risk term a*(d + E[W]) = -inf against "
                                        "e^{ad} E[e^{aW}] = 0 leaves the double range"),
        (1e300, -1e10, (2.0, 4.0, 1.0), "LINEX risk term a*(d + E[W]) = -inf against "
                                        "e^{ad} E[e^{aW}] = 0 leaves the double range"),
    ])
    def test_shift_risk_names_the_term_that_overflowed(self, d, a, cov, cause):
        with pytest.raises(LinexOverflowError, match=f"^{re.escape(cause)} \\["):
            shift_risk(d, self.gap, LinexParams(a), CovarianceSpec(*cov))

    def test_psi(self):
        # was -inf: -a*syy/2 = -2e308
        with pytest.raises(LinexError, match=r"^psi = -inf is not finite at a = 1e\+308$"):
            psi(self.gap, LinexParams(1e308), CovarianceSpec(2.0, 4.0, 1.0))


class TestClassify:
    def test_mree_always_admissible(self, rng):
        for _ in range(100):
            cov = rand_cov(rng)
            a = LinexParams(rng.uniform(0.2, 3) * rng.choice([-1, 1]))
            assert classify(-a.a * cov.sigma_yy / 2, a, cov) == ADMISSIBLE_IN_CLASS

    def test_examples(self):
        cov0 = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=0.0)
        assert classify(0.0, A1, cov0) == DOMINATED_BY_D1
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=1.0)
        assert classify(-1.2, A1, cov) == ADMISSIBLE_IN_CLASS
        assert classify(-2.0, A1, cov) == DOMINATED_BY_D0

    @PROPERTY
    @given(a=A, sigma_xx=SCALE, sigma_yy=SCALE, rho=RHO, d=MEAN)
    def test_agrees_with_bounds(self, a, sigma_xx, sigma_yy, rho, d):
        # each endpoint, one ulp either side of it, and a free d; at rho = 0
        # the interval is one point
        a = LinexParams(a)
        cov = CovarianceSpec.from_correlation(sigma_xx, sigma_yy, rho)
        b = bounds(a, cov)
        assert b.d0 <= b.d1
        if rho == 0:
            assert b.d0 == b.d1
        ends = [(math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)) for e in (b.d0, b.d1)]
        for point in (*ends[0], *ends[1], d):
            if point < b.d0:
                want = DOMINATED_BY_D0
            elif point > b.d1:
                want = DOMINATED_BY_D1
            else:
                want = ADMISSIBLE_IN_CLASS
            assert classify(point, a, cov) == want

    def test_endpoints_admissible(self):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=1.0)
        b = bounds(A1, cov)
        assert classify(b.d0, A1, cov) == ADMISSIBLE_IN_CLASS
        assert classify(b.d1, A1, cov) == ADMISSIBLE_IN_CLASS

    @pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
    def test_non_finite_shift_refused(self, d):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=1.0)
        with pytest.raises(InvalidParameterError, match=r"^shift constant d must be finite$"):
            classify(d, A1, cov)


@pytest.mark.slow
def test_outside_interval_is_dominated_empirically(rng):
    """Shifts beyond d0/d1 lose to the endpoint shift at every gap tried."""
    cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=1.2)
    a = A1
    b = bounds(a, cov)
    for d_bad, d_dom in [(b.d0 - 0.8, b.d0), (b.d1 + 0.8, b.d1)]:
        for tx in (0.0, 0.7, 2.0):
            config = SimConfig(
                means=MeanVectorPair((tx, 0.0), (0.0, 0.0)),
                cov=cov,
                a=a,
                reps=20000,
                master_seed=99,
            )
            diff, se = paired_risk_difference(
                config, EstimatorSpec.shift(d_bad), EstimatorSpec.shift(d_dom)
            )
            assert diff >= -2 * se
