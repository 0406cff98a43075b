import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from linexsel import (
    CovarianceSpec,
    EstimatorSpec,
    InvalidParameterError,
    LinexParams,
    MeanVectorPair,
    ObservationPair,
    PriorSpec,
    SingularCovarianceError,
    bayes_posterior,
    est_bayes,
    evaluate,
    evaluate_batch,
    rng_stream,
    sample_batch,
    select,
    select_batch,
)
from linexsel.estimators import base_phi, n3_offset
from linexsel.kernels import base_phi_batch, n3_offset_batch

from ._strategies import A, MEAN, PROPERTY, RHO, SCALE, SEED
from .reference import posterior_numeric, posterior_risk_constant

A1 = LinexParams(1.0)
AM1 = LinexParams(-1.0)
N1, N2, N3 = EstimatorSpec.n1(), EstimatorSpec.n2(), EstimatorSpec.n3()

_A = st.builds(LinexParams, A)
_COV = st.builds(CovarianceSpec.from_correlation, SCALE, SCALE, RHO)
_MEANS = st.builds(MeanVectorPair, st.tuples(MEAN, MEAN), st.tuples(MEAN, MEAN))


def random_summary(rng, sx=2.0, sy=2.0):
    x = rng.normal(0, math.sqrt(sx), 2)
    y = rng.normal(0, math.sqrt(sy), 2)
    return select(ObservationPair((x[0], y[0]), (x[1], y[1])))


def sampled_pairs(means, cov, seed, n=16):
    """n observation pairs drawn from the model at (means, cov)."""
    x1, y1, x2, y2 = sample_batch(means, cov, rng_stream(seed), n)
    return [ObservationPair((x1[k], y1[k]), (x2[k], y2[k])) for k in range(n)]


class TestWorkedExample:
    """Estimates at the fitted poultry parameters."""

    def test_n1(self, poultry_summary, poultry_model):
        assert evaluate(N1, poultry_summary, A1, poultry_model.cov_hat) == pytest.approx(
            131.4569, abs=5e-5
        )

    def test_n2_both_signs(self, poultry_summary, poultry_model):
        cov = poultry_model.cov_hat
        assert evaluate(N2, poultry_summary, A1, cov) == pytest.approx(-345.0144, abs=5e-5)
        assert evaluate(N2, poultry_summary, AM1, cov) == pytest.approx(607.9281, abs=5e-5)

    def test_n3_within_published_band(self, poultry_summary, poultry_model):
        # published 194.9654 / 132.0856; recomputation from the rounded table
        # parameters gives 194.8755 / 132.0130, inside the documented 0.1 band
        cov = poultry_model.cov_hat
        assert evaluate(N3, poultry_summary, A1, cov) == pytest.approx(194.9654, abs=0.1)
        assert evaluate(N3, poultry_summary, A1, cov) == pytest.approx(194.8755, abs=5e-4)
        assert evaluate(N3, poultry_summary, AM1, cov) == pytest.approx(132.0856, abs=0.1)
        assert evaluate(N3, poultry_summary, AM1, cov) == pytest.approx(132.0130, abs=5e-4)

    def test_n4(self, poultry_summary, poultry_model):
        n4 = evaluate(EstimatorSpec.n4(1.0), poultry_summary, A1, poultry_model.cov_hat)
        assert n4 == pytest.approx(163.5922, abs=5e-5)


class TestN3:
    def test_zero_t2_returns_y_sel(self, rng):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=3.0, sigma_xy=0.5)
        for _ in range(20):
            s = random_summary(rng)
            s = type(s)(**{**s.__dict__, "t2": 0.0})
            assert evaluate(N3, s, A1, cov) == pytest.approx(s.y_sel, abs=1e-12)

    def test_distant_x_returns_y_sel(self):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=0.0)
        s = select(ObservationPair((100.0, 1.0), (0.0, 5.0)))
        assert evaluate(N3, s, A1, cov) == pytest.approx(s.y_sel, abs=1e-12)

    def test_stable_form_matches_direct_near_switch(self, rng):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=1.0)
        for a in (LinexParams(1.0), LinexParams(-1.0), LinexParams(0.7)):
            for t2 in (29.0 / a.a, 31.0 / a.a, 30.0001 / a.a):
                t1 = -0.8
                direct = math.log1p(
                    math.expm1(a.a * t2) * 0.5 * math.erfc(-t1 / math.sqrt(2) / math.sqrt(2 * cov.sigma_xx))
                ) / a.a
                assert n3_offset(t1, t2, a, cov) == pytest.approx(direct, rel=1e-12)

    def test_no_overflow_at_large_positive_exponent(self):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=0.0)
        s = select(ObservationPair((1.0, 0.0), (0.0, 900.0)))
        assert math.isfinite(evaluate(N3, s, A1, cov))

    def test_phi_and_tilt_both_underflow(self):
        # u = -100/sqrt(2) puts Phi(u) at 0 and a*t2 = 800 puts exp(-a*t2) at 0;
        # the offset is t2 + ln(Phi(u) + exp(-800)) = t2 - 800 + O(exp(-1700)) = 0
        cov = CovarianceSpec(sigma_xx=1.0, sigma_yy=1.0, sigma_xy=0.0)
        t1, t2 = np.array([-100.0, -1.0]), np.array([800.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = n3_offset_batch(t1, t2, A1, cov)
        scalar = [n3_offset(u, v, A1, cov) for u, v in zip(t1.tolist(), t2.tolist())]
        assert scalar[0] == pytest.approx(0.0, abs=1e-9)
        assert batch.tolist() == pytest.approx(scalar, rel=1e-12, abs=1e-12)

    def test_monotone_in_t2(self, rng):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=1.0)
        for a in (A1, AM1):
            t1 = -1.3
            values = [n3_offset(t1, t2, a, cov) for t2 in [-5 + 0.1 * k for k in range(100)]]
            assert all(b > a_ for a_, b in zip(values, values[1:]))

    @PROPERTY
    @given(a=_A, cov=_COV, means=_MEANS, seed=SEED)
    def test_between_concomitants(self, a, cov, means, seed):
        for pair in sampled_pairs(means, cov, seed):
            s = select(pair)
            est = evaluate(N3, s, a, cov)
            lo, hi = sorted((s.y_sel, s.y_sel + s.t2))
            assert lo - 1e-9 <= est <= hi + 1e-9


class TestN4:
    def test_c_zero_degenerates_to_n1(self, rng):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=0.0)
        for _ in range(100):
            s = random_summary(rng)
            assert evaluate(EstimatorSpec.n4(0.0), s, A1, cov) == evaluate(N1, s, A1, cov)

    def test_c_zero_never_averages_tied_xs(self):
        # a tie gives t1 = +0.0 and the cut -0.0*sqrt(2*sxx) = -0.0; +0.0 > -0.0 is false
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=0.0)
        spec = EstimatorSpec.n4(0.0)
        x, y1, y2 = np.array([0.0, 1.5, -2.25]), np.array([1.0, 2.0, 3.0]), np.array([4.0, -1.0, 0.5])
        batch = select_batch(x, y1, x, y2)
        assert (batch.t1 == 0.0).all() and not np.signbit(batch.t1).any()
        phi = base_phi_batch(spec, batch, A1, cov)
        for i in range(3):
            s = select(ObservationPair((x[i], y1[i]), (x[i], y2[i])))
            assert phi[i] == base_phi(spec, s, A1, cov) == 0.0

    def test_threshold_branch(self):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=0.0)
        s = select(ObservationPair((10.0, 3.0), (0.0, 5.0)))  # t1 = -10
        assert evaluate(EstimatorSpec.n4(1.0), s, A1, cov) == s.y_sel


@pytest.mark.parametrize("spec", [
    EstimatorSpec.shift(0.5), EstimatorSpec.bayes(PriorSpec(0.0, 0.0, 1.0)),
    EstimatorSpec.improved(N1),
], ids=lambda s: s.kind)
def test_base_phi_refuses_a_kind_with_no_component(spec):
    # the float form and its array twin refuse alike
    cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=0.5)
    message = f"^no equivariant component for kind '{spec.kind}'; only N1..N4 have one$"
    with pytest.raises(InvalidParameterError, match=message):
        base_phi(spec, select(ObservationPair((1.0, 2.0), (0.5, 3.0))), A1, cov)
    x1, y1, x2, y2 = (np.array(v) for v in ([1.0, 0.0], [2.0, 1.0], [0.5, 0.5], [3.0, 0.0]))
    batch = select_batch(x1, y1, x2, y2)
    with pytest.raises(InvalidParameterError, match=message):
        base_phi_batch(spec, batch, A1, cov)


class TestBayes:
    unit = CovarianceSpec(sigma_xx=1.0, sigma_yy=1.0, sigma_xy=0.0)
    prior = PriorSpec(mu1=0.0, mu2=0.0, m=1.0)

    @pytest.mark.parametrize("m", [0.0, -0.0, -1.0])
    def test_prior_scale_must_be_positive(self, m):
        with pytest.raises(InvalidParameterError, match="m must be positive"):
            PriorSpec(0.0, 0.0, m)

    def test_hand_example(self):
        p, q = bayes_posterior((1.0, 1.0), self.prior, self.unit)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_against_numeric_integration(self, rng):
        for _ in range(5):
            cov = CovarianceSpec.from_correlation(
                rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(-0.8, 0.8)
            )
            prior = PriorSpec(mu1=rng.normal(), mu2=rng.normal(), m=rng.uniform(0.5, 2))
            z = (rng.normal(), rng.normal())
            p, q = bayes_posterior(z, prior, cov)
            p_num, q_num = posterior_numeric(z, prior, cov)
            assert p == pytest.approx(p_num, abs=1e-6)
            assert q == pytest.approx(q_num, abs=1e-6)

    def test_flat_prior_limit(self):
        cov = CovarianceSpec(sigma_xx=1.5, sigma_yy=2.5, sigma_xy=0.7)
        prior = PriorSpec(mu1=3.0, mu2=-2.0, m=1e8)
        p, q = bayes_posterior((0.4, -1.1), prior, cov)
        assert p == pytest.approx(-1.1, abs=1e-3)
        assert q == pytest.approx(2.5, abs=1e-3)

    def test_prior_at_data_collapses(self):
        prior = PriorSpec(mu1=1.0, mu2=1.0, m=2.0)
        p, _ = bayes_posterior((1.0, 1.0), prior, self.unit)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_estimator_example(self):
        s = select(ObservationPair((1.0, 1.0), (0.0, 0.0)))
        assert est_bayes(s, self.prior, A1, self.unit) == pytest.approx(0.25, abs=1e-12)

    def test_sign_flip_mirrors_correction(self, rng):
        for _ in range(50):
            s = random_summary(rng)
            p, q = bayes_posterior((s.x_max, s.y_sel), self.prior, self.unit)
            up = est_bayes(s, self.prior, A1, self.unit)
            dn = est_bayes(s, self.prior, AM1, self.unit)
            assert up + dn == pytest.approx(2 * p, abs=1e-10)
            assert dn - up == pytest.approx(q, abs=1e-10)

    def test_limit_to_mree(self, rng):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=3.0, sigma_xy=1.0)
        gaps = []
        for m in (1e4, 1e6, 1e8):
            prior = PriorSpec(mu1=5.0, mu2=-5.0, m=m)
            worst = 0.0
            for _ in range(50):
                s = random_summary(rng)
                worst = max(worst, abs(est_bayes(s, prior, A1, cov) - evaluate(N2, s, A1, cov)))
            gaps.append(worst)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_singular_covariance_rejected(self):
        cov = CovarianceSpec.from_correlation(1.0, 1.0, 1.0)
        with pytest.raises(SingularCovarianceError):
            bayes_posterior((0.0, 0.0), self.prior, cov)

    def test_batch_without_x_max_is_refused(self):
        # select_batch leaves x_max None; only a risk cell with a Bayes column sets it
        x, y = np.array([0.5, -1.0]), np.array([1.0, 2.0])
        s = select_batch(x, y, -x, y)
        assert s.x_max is None
        with pytest.raises(InvalidParameterError, match="x_max"):
            evaluate_batch(EstimatorSpec.bayes(self.prior), s, A1, self.unit)

    def test_posterior_risk_values(self):
        assert posterior_risk_constant(self.prior, A1, self.unit) == pytest.approx(0.25)
        assert posterior_risk_constant(self.prior, LinexParams(2.0), self.unit) == pytest.approx(1.0)
        tiny = PriorSpec(mu1=0.0, mu2=0.0, m=1e-9)
        assert posterior_risk_constant(tiny, A1, self.unit) == pytest.approx(0.0, abs=1e-8)


class TestShiftAndDispatch:
    def test_shift_examples(self, rng):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=0.0)
        for _ in range(50):
            s = random_summary(rng)
            mree_shift = EstimatorSpec.shift(-A1.a * cov.sigma_yy / 2)
            assert evaluate(EstimatorSpec.shift(0.0), s, A1, cov) == evaluate(N1, s, A1, cov)
            assert evaluate(mree_shift, s, A1, cov) == evaluate(N2, s, A1, cov)
        s = select(ObservationPair((1.0, 131.4569), (0.0, 0.0)))
        assert evaluate(EstimatorSpec.shift(5.0), s, A1, cov) == pytest.approx(136.4569)

    def test_dispatch_matches_direct(self, rng, poultry_model, poultry_summary):
        cov = poultry_model.cov_hat
        assert evaluate(EstimatorSpec.n2(), poultry_summary, A1, cov) == pytest.approx(
            -345.0144, abs=5e-5
        )
        assert evaluate(
            EstimatorSpec.improved(EstimatorSpec.n1()), poultry_summary, AM1, cov
        ) == pytest.approx(401.8278, abs=5e-5)

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            EstimatorSpec("N4")  # missing c
        with pytest.raises(InvalidParameterError):
            EstimatorSpec("N1", d=1.0)
        with pytest.raises(InvalidParameterError):
            EstimatorSpec("Improved", base=EstimatorSpec.shift(0.0))
        with pytest.raises(InvalidParameterError):
            EstimatorSpec("Nope")
        for c in (math.nan, math.inf, -1.0):
            with pytest.raises(InvalidParameterError, match="threshold c"):
                EstimatorSpec.n4(c)
        for d in (math.inf, math.nan):
            with pytest.raises(InvalidParameterError, match=r"^shift constant d must be finite$"):
                EstimatorSpec.shift(d)


class TestEquivariance:
    @PROPERTY
    @given(a=_A, cov=_COV, means=_MEANS, seed=SEED, shift=st.tuples(MEAN, MEAN))
    def test_location_shift_adds_c2(self, a, cov, means, seed, shift):
        c1, c2 = shift
        specs = [
            EstimatorSpec.n1(),
            EstimatorSpec.n2(),
            EstimatorSpec.n3(),
            EstimatorSpec.n4(0.7),
            EstimatorSpec.shift(1.3),
        ]
        if cov.rho != -1.0:  # the knife edge: see the strict xfail below
            specs.append(EstimatorSpec.improved(EstimatorSpec.n3()))
        for pair in sampled_pairs(means, cov, seed):
            (x1, y1), (x2, y2) = pair.z1, pair.z2
            s = select(pair)
            t = select(ObservationPair((x1 + c1, y1 + c2), (x2 + c1, y2 + c2)))
            for spec in specs:
                assert evaluate(spec, t, a, cov) == pytest.approx(
                    evaluate(spec, s, a, cov) + c2, abs=1e-8
                )

    @pytest.mark.xfail(
        strict=True,
        reason="knife edge: at rho = -1 with equal means the clip condition "
        "t1*xi - rho*t2 is 0 in exact arithmetic, so rounding decides the clip",
    )
    def test_improved_location_shift_at_rho_minus_one(self):
        cov = CovarianceSpec.from_correlation(1.0, 1.0, -1.0)
        spec = EstimatorSpec.improved(EstimatorSpec.n3())
        means = MeanVectorPair((0.0, 0.0), (0.0, 0.0))
        for pair in sampled_pairs(means, cov, 0):
            (x1, y1), (x2, y2) = pair.z1, pair.z2
            t = select(ObservationPair((x1, y1 + 1.0), (x2, y2 + 1.0)))
            assert evaluate(spec, t, AM1, cov) == pytest.approx(
                evaluate(spec, select(pair), AM1, cov) + 1.0, abs=1e-8
            )

    def test_permutation_invariance(self, rng):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=-1.0)
        prior = PriorSpec(mu1=0.0, mu2=0.0, m=2.0)
        specs = [
            EstimatorSpec.n1(),
            EstimatorSpec.n2(),
            EstimatorSpec.n3(),
            EstimatorSpec.n4(1.0),
            EstimatorSpec.bayes(prior),
            EstimatorSpec.improved(EstimatorSpec.n4(1.0)),
        ]
        for _ in range(50):
            x = rng.normal(0, 2, 2)
            y = rng.normal(0, 2, 2)
            a = LinexParams(rng.uniform(0.3, 2) * rng.choice([-1, 1]))
            s = select(ObservationPair((x[0], y[0]), (x[1], y[1])))
            t = select(ObservationPair((x[1], y[1]), (x[0], y[0])))
            for spec in specs:
                assert evaluate(spec, s, a, cov) == evaluate(spec, t, a, cov)
