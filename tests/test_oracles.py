import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from linexsel import (
    CovarianceSpec,
    InvalidParameterError,
    LinexOverflowError,
    LinexParams,
    MeanVectorPair,
    ThetaStar,
    clip_band,
    h_a,
    improve_batch,
    phi_bounds,
    select_batch,
    shift_risk,
)
from linexsel.core import sample_batch, rng_stream, std_normal_cdf, std_normal_pdf
from linexsel.kernels import clip_band_batch
from linexsel.oracles import clip_component

from ._strategies import A, MEAN, PROPERTY, RHO, SCALE
from .reference import (
    branch_density,
    cond_t3_mgf,
    cond_t3_pdf,
    conditional_weights,
    shift_risk_quadrature,
    varphi,
    w_pdf,
)

A1 = LinexParams(1.0)


def rand_setup(rng, rho_lim=0.95):
    cov = CovarianceSpec.from_correlation(
        rng.uniform(0.4, 4), rng.uniform(0.4, 4), rng.uniform(-rho_lim, rho_lim)
    )
    ts = ThetaStar(rng.uniform(0, 3), rng.uniform(0, 3))
    a = LinexParams(rng.uniform(0.2, 2.5) * rng.choice([-1, 1]))
    return cov, ts, a


class TestWPdf:
    def test_reduces_to_normal_when_independent(self, rng):
        cov = CovarianceSpec(sigma_xx=1.0, sigma_yy=2.5, sigma_xy=0.0)
        for _ in range(50):
            w = rng.normal(0, 2)
            tx = rng.uniform(0, 5)
            direct = std_normal_pdf(w / math.sqrt(2.5)) / math.sqrt(2.5)
            assert w_pdf(w, ThetaStar(tx, 0.0), cov) == pytest.approx(direct, abs=1e-14)

    def test_normalizes(self, rng):
        for _ in range(20):
            cov, ts, _ = rand_setup(rng)
            s = math.sqrt(cov.sigma_yy)
            val, _ = quad(lambda w: w_pdf(w, ts, cov), -12 * s, 12 * s, limit=200)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_point_value(self):
        cov = CovarianceSpec.from_correlation(1.0, 1.0, 0.5)
        assert w_pdf(0.0, ThetaStar(0.0, 0.0), cov) == pytest.approx(0.3989423, abs=1e-7)

    def test_extends_to_degenerate_rho(self):
        cov = CovarianceSpec.from_correlation(2.0, 2.0, 1.0)
        s = math.sqrt(2.0)
        val, _ = quad(lambda w: w_pdf(w, ThetaStar(1.0, 1.0), cov), -12 * s, 12 * s, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_against_empirical_cdf(self):
        cov = CovarianceSpec.from_correlation(2.0, 3.0, 0.6)
        means = MeanVectorPair((1.5, 0.0), (0.0, 0.0))  # theta_x gap = 1.5
        ts = ThetaStar(1.5, 0.0)
        n = 200_000
        x1, y1, x2, y2 = sample_batch(means, cov, rng_stream(17), n)
        sel1 = x1 > x2
        w = np.where(sel1, y1, y2) - 0.0
        for q in (-2.0, 0.0, 1.5):
            emp = float((w <= q).mean())
            theo, _ = quad(lambda u: w_pdf(u, ts, cov), -12 * math.sqrt(3.0), q, limit=200)
            assert emp == pytest.approx(theo, abs=0.01)


class TestConditionalWeights:
    def test_symmetric_at_zero_gap(self, rng):
        for _ in range(50):
            cov, _, _ = rand_setup(rng)
            w = conditional_weights(-abs(rng.normal()), rng.normal(), ThetaStar(0.0, 0.0), cov)
            assert w.d1_term == pytest.approx(w.d2_term, rel=1e-12)

    def test_positive(self, rng):
        for _ in range(200):
            cov, ts, _ = rand_setup(rng)
            w = conditional_weights(-abs(rng.normal()), rng.normal(0, 2), ts, cov)
            assert w.d1_term > 0
            assert w.d2_term > 0

    def test_ratio_matches_branch_densities(self, rng):
        """The normalized weights equal the two branch joint densities of (T1, T2).

        Checked for the concordant configuration the conditional law is stated
        for: the better-X population also has the larger Y-mean.
        """
        for _ in range(50):
            cov, ts, _ = rand_setup(rng)
            means = MeanVectorPair((0.0, 0.0), (ts.theta_x, ts.theta_y))
            t1 = -abs(rng.normal(0, 1.5))
            t2 = rng.normal(0, 1.5)
            w = conditional_weights(t1, t2, ts, cov)
            n1 = branch_density(t1, t2, means, cov, branch=1)
            n2 = branch_density(t1, t2, means, cov, branch=2)
            assert w.d1_term / w.d2_term == pytest.approx(n1 / n2, rel=1e-9)

    def test_requires_nonpositive_t1(self):
        cov = CovarianceSpec.from_correlation(1.0, 1.0, 0.3)
        with pytest.raises(InvalidParameterError):
            conditional_weights(0.5, 0.0, ThetaStar(0.0, 0.0), cov)


class TestConditionalT3:
    def test_pdf_normalizes(self, rng):
        for _ in range(20):
            cov, ts, _ = rand_setup(rng)
            t1, t2 = -abs(rng.normal()), rng.normal(0, 2)
            s = math.sqrt(cov.sigma_yy / 2)
            ctr = -t2 / 2
            val, _ = quad(
                lambda t3: cond_t3_pdf(t3, t1, t2, ts, cov),
                ctr - 12 * s - ts.theta_y, ctr + 12 * s + ts.theta_y, limit=300,
            )
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_single_component_when_gap_zero(self, rng):
        cov = CovarianceSpec.from_correlation(2.0, 2.0, 0.5)
        ts = ThetaStar(1.0, 0.0)
        scale = math.sqrt(2.0 / cov.sigma_yy)
        for _ in range(30):
            t1, t2, t3 = -abs(rng.normal()), rng.normal(0, 2), rng.normal(0, 2)
            direct = scale * std_normal_pdf(scale * (t3 + t2 / 2))
            assert cond_t3_pdf(t3, t1, t2, ts, cov) == pytest.approx(direct, abs=1e-13)

    def test_mixture_mean_identity(self, rng):
        for _ in range(10):
            cov, ts, _ = rand_setup(rng)
            t1, t2 = -abs(rng.normal()), rng.normal(0, 2)
            w = conditional_weights(t1, t2, ts, cov)
            w1 = w.d1_term / (w.d1_term + w.d2_term)
            expected = -(t2 - ts.theta_y) / 2 * w1 - (t2 + ts.theta_y) / 2 * (1 - w1)
            s = math.sqrt(cov.sigma_yy / 2)
            val, _ = quad(
                lambda t3: t3 * cond_t3_pdf(t3, t1, t2, ts, cov),
                -t2 / 2 - 12 * s - ts.theta_y, -t2 / 2 + 12 * s + ts.theta_y, limit=300,
            )
            assert val == pytest.approx(expected, abs=1e-10)

    def test_mgf_closed_form_vs_quadrature(self, rng):
        for _ in range(30):
            cov, ts, a = rand_setup(rng)
            t1, t2 = -abs(rng.normal(0, 1.5)), rng.normal(0, 2)
            closed = cond_t3_mgf(a, t1, t2, ts, cov)
            s = math.sqrt(cov.sigma_yy / 2)
            lo = -t2 / 2 - ts.theta_y - 14 * s + min(0.0, a.a * cov.sigma_yy)
            hi = -t2 / 2 + ts.theta_y + 14 * s + max(0.0, a.a * cov.sigma_yy)
            val, _ = quad(
                lambda t3: math.exp(a.a * t3) * cond_t3_pdf(t3, t1, t2, ts, cov),
                lo, hi, limit=300,
            )
            assert val == pytest.approx(closed, rel=1e-8)

    def test_mgf_zero_gap(self, rng):
        cov = CovarianceSpec.from_correlation(1.5, 2.0, -0.4)
        ts = ThetaStar(2.0, 0.0)
        for _ in range(30):
            a = LinexParams(rng.uniform(0.2, 2) * rng.choice([-1, 1]))
            t1, t2 = -abs(rng.normal()), rng.normal(0, 2)
            direct = math.exp(a.a**2 * cov.sigma_yy / 4 - a.a * t2 / 2)
            assert cond_t3_mgf(a, t1, t2, ts, cov) == pytest.approx(direct, rel=1e-12)

    def test_mgf_swap_identity(self, rng):
        """(a, t2, D1, D2) -> (-a, -t2, D2, D1) leaves the closed form invariant."""
        for _ in range(30):
            cov, ts, a = rand_setup(rng)
            t1, t2 = -abs(rng.normal()), rng.normal(0, 2)
            w = conditional_weights(t1, t2, ts, cov)
            half = a.a * ts.theta_y / 2
            pre = math.exp(a.a**2 * cov.sigma_yy / 4 - a.a * t2 / 2)
            original = pre * (
                (w.d1_term * math.exp(half) + w.d2_term * math.exp(-half))
                / (w.d1_term + w.d2_term)
            )
            swapped = math.exp((-a.a) ** 2 * cov.sigma_yy / 4 - (-a.a) * (-t2) / 2) * (
                (w.d2_term * math.exp(-a.a * ts.theta_y / 2) + w.d1_term * math.exp(a.a * ts.theta_y / 2))
                / (w.d1_term + w.d2_term)
            )
            assert swapped == pytest.approx(original, rel=1e-12)

    def test_mc_conditional_binning(self):
        """Coarse guard on the transcription: bin (T1, T2) from simulation and
        compare the empirical conditional exp-moment with the closed form."""
        cov = CovarianceSpec.from_correlation(2.0, 2.0, 0.5)
        ts = ThetaStar(0.8, 0.6)
        means = MeanVectorPair((0.0, 0.0), (ts.theta_x, ts.theta_y))
        a = LinexParams(0.8)
        n = 2_000_000
        x1, y1, x2, y2 = sample_batch(means, cov, rng_stream(23), n)
        sel1 = x1 > x2
        y_sel = np.where(sel1, y1, y2)
        y_oth = np.where(sel1, y2, y1)
        t1 = np.minimum(x1, x2) - np.maximum(x1, x2)
        t2 = y_oth - y_sel
        t3 = y_sel - np.where(sel1, 0.0, ts.theta_y)
        width = 0.1
        for c1, c2 in [(-0.5, 0.0), (-1.0, 1.0), (-0.4, -0.8)]:
            mask = (np.abs(t1 - c1) < width) & (np.abs(t2 - c2) < width)
            assert mask.sum() > 2000
            emp = float(np.exp(a.a * t3[mask]).mean())
            assert emp == pytest.approx(cond_t3_mgf(a, c1, c2, ts, cov), rel=0.05)


class TestVarphiAndBounds:
    def test_varphi_zero_gap(self, rng):
        cov = CovarianceSpec.from_correlation(2.0, 2.0, 0.3)
        ts = ThetaStar(1.0, 0.0)
        for _ in range(30):
            a = LinexParams(rng.uniform(0.2, 2) * rng.choice([-1, 1]))
            t1, t2 = -abs(rng.normal()), rng.normal(0, 2)
            assert varphi(t1, t2, ts, a, cov) == pytest.approx(
                t2 / 2 - a.a * cov.sigma_yy / 4, abs=1e-12
            )
        assert varphi(-1.0, 0.0, ThetaStar(0.0, 0.0), A1, cov) == pytest.approx(
            -cov.sigma_yy / 4, abs=1e-12
        )

    @pytest.mark.parametrize("t1, t2", [
        (math.nan, 0.5), (-math.inf, 0.5), (-1.0, math.nan), (-1.0, math.inf), (-1.0, -math.inf),
    ])
    def test_non_finite_difference_refused(self, t1, t2):
        # unchecked, a nan leaves both condition sets empty: no band at all
        with pytest.raises(InvalidParameterError, match="^t1 and t2 must be finite"):
            phi_bounds(t1, t2, A1, CovarianceSpec(2.0, 2.0, 1.0))

    def test_bound_examples(self):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=0.0)
        lo, hi = phi_bounds(-1.0, 0.0, LinexParams(-1.0), cov)
        assert lo == pytest.approx(0.5)
        assert hi == math.inf
        lo, hi = phi_bounds(-1.0, 0.0, A1, cov)
        assert lo == -math.inf
        assert hi == math.inf

    def test_positive_t1_refused(self):
        # t1 = -|x1 - x2| is never positive
        with pytest.raises(InvalidParameterError, match=r"^t1 must be <= 0, got 0\.5$"):
            phi_bounds(0.5, 0.0, A1, CovarianceSpec(sigma_xx=2.0, sigma_yy=2.0, sigma_xy=0.0))

    def test_poultry_bounds(self, poultry_model, poultry_summary):
        lo, hi = phi_bounds(
            poultry_summary.t1, poultry_summary.t2, LinexParams(-1.0), poultry_model.cov_hat
        )
        assert lo == pytest.approx(270.3709, abs=5e-4)
        assert hi == math.inf

    @pytest.mark.parametrize(
        "number, types",
        [(float, (float, bool)), (int, (float, bool)), (np.float64, (np.float64, np.bool_))],
        ids=["float", "int", "float64"],
    )
    def test_numbers_give_numbers(self, number, types):
        # clip_band is plain arithmetic: every number gives scalars back, never 0-d arrays
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=3.0, sigma_xy=1.0)
        for (t1, t2), sets in [((-4, -5), (True, False)), ((0, -1), (False, True)),
                               ((-1, 3), (False, False))]:
            value, lo, hi = clip_band(number(t1), number(t2), A1, cov)
            assert (type(value), type(lo), type(hi)) == (types[0], types[1], types[1])
            assert (value, lo, hi) == (t2 / 2 - 0.75, *sets)
            bounds = phi_bounds(number(t1), number(t2), A1, cov)
            assert all(isinstance(b, float) for b in bounds)

    def test_at_most_one_bound_finite(self, rng):
        for _ in range(500):
            cov, _, a = rand_setup(rng)
            lo, hi = phi_bounds(-abs(rng.normal(0, 2)), rng.normal(0, 3), a, cov)
            assert lo == -math.inf or hi == math.inf

    def test_sandwich(self, rng):
        violations = 0
        for _ in range(1000):
            cov, ts, a = rand_setup(rng)
            t1, t2 = -abs(rng.normal(0, 2)), rng.normal(0, 3)
            v = varphi(t1, t2, ts, a, cov)
            lo, hi = phi_bounds(t1, t2, a, cov)
            if not (lo <= v <= hi):
                violations += 1
        assert violations == 0


class TestClipAtTheBandEdge:
    """The band's condition sets are strict: at side == 0 or gap == margin no edge is finite."""

    @pytest.mark.parametrize("phi, t1, t2, a, cov", [
        # side = t1*xi - rho*t2 = -1 < 0, gap = t2 - xi*rho*t1 = 0.5 = margin: phi_inf's edge
        (0.0, -1.0, 0.5, -1.0, (1.0, 1.0, 0.0)),
        # side = 0.75 > 0, gap = 3 = margin = -a*syy*(1 - rho^2)/2: phi_sup's edge
        (10.0, -1.0, 3.5, -8.0, (1.0, 1.0, -0.5)),
    ])
    def test_gap_equal_to_margin_leaves_phi_unclipped(self, phi, t1, t2, a, cov):
        a, cov = LinexParams(a), CovarianceSpec(*cov)
        assert clip_component(phi, t1, t2, a, cov) == (phi, "none")
        # population 1 selected with y_sel = 0, so the estimate is the clipped phi itself
        s = select_batch(np.zeros(1), np.zeros(1), np.array([t1]), np.array([t2]))
        assert (s.t1[0], s.t2[0], s.y_sel[0]) == (t1, t2, 0.0)
        assert improve_batch(s, a, cov, phi).tolist() == [phi]


    @pytest.mark.parametrize("a", [-1.0, 1.0])
    def test_side_zero_leaves_phi_unclipped(self, a):
        # rho = 0, syy = 1 and tied X's: side = t1*xi - rho*t2 = 0, so neither
        # set holds; gap = t2 = 0 is below margin = 0.5 at a = -1 and above
        # margin = -0.5 at a = 1, so a weak side test would clip N1's 0 to
        # value = a*syy/4 (0.25 at a = -1, -0.25 at a = 1)
        a, cov = LinexParams(a), CovarianceSpec(1.0, 1.0, 0.0)
        s = select_batch(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1))
        assert (_signed(s.t1[0]), s.t2[0], s.y_sel[0]) == ("+0.0", 0.0, 0.0)
        assert clip_component(0.0, s.t1[0], s.t2[0], a, cov) == (0.0, "none")
        assert improve_batch(s, a, cov, 0.0).tolist() == [0.0]


def _band_bits(band) -> tuple[list[str], list[bool], list[bool]]:
    value, lo, hi = band
    return [float(v).hex() for v in value], list(map(bool, lo)), list(map(bool, hi))


class TestBandForms:
    @PROPERTY
    @given(a=st.builds(LinexParams, A),
           cov=st.builds(CovarianceSpec.from_correlation, SCALE, SCALE, RHO),
           ts=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(-20.0, 0.0)), MEAN),
                       min_size=1, max_size=8))
    def test_float_and_array_forms_give_the_same_bits(self, a, cov, ts):
        t1, t2 = (np.array(column) for column in zip(*ts))
        elements = [clip_band(x, y, a, cov) for x, y in ts]
        expected = _band_bits(zip(*elements))
        out = (np.empty(len(ts)), np.empty(len(ts), bool), np.empty(len(ts), bool))
        written = clip_band_batch(t1, t2, a, cov, out)
        assert all(w is o for w, o in zip(written, out))
        assert _band_bits(written) == expected
        assert _band_bits(clip_band_batch(t1, t2, a, cov)) == expected
        assert _band_bits(clip_band(t1, t2, a, cov)) == expected


def _signed(zero):
    return ("-" if math.copysign(1.0, zero) < 0 else "+") + str(abs(float(zero)))


class TestShiftRiskQuadrature:
    def test_finite_value_bit_for_bit(self):
        # taken on the closed form before the overflow guard went in
        cov = CovarianceSpec(2.0, 2.0, 1.0)
        assert shift_risk(-0.5, ThetaStar(0.7, 0.0), A1, cov).hex() == "0x1.5ec850dbea46ap+0"

    def test_tilt_beyond_double_range_raises(self):
        # e^{a*d + a^2*syy/2} = e^800 overflows
        with pytest.raises(LinexOverflowError) as info:
            shift_risk(0.0, ThetaStar(1.8, 1.8), LinexParams(40.0), CovarianceSpec(1.0, 1.0, 0.0))
        assert info.value.exponent == 800.0

    def test_tilt_times_h_a_beyond_double_range_raises(self):
        # e^{709.5} is finite, but h_a = 2 Phi(1/sqrt(2)) = 1.52 carries the product past it
        a, cov = LinexParams(1.0), CovarianceSpec(1.0, 1.0, 1.0)
        with pytest.raises(LinexOverflowError) as info:
            shift_risk(709.0, ThetaStar(0.0, 0.0), a, cov)
        assert math.isfinite(math.exp(709.5))
        assert info.value.exponent == 709.5 + math.log(h_a(0.0, a, cov))
        assert info.value.exponent > math.log(sys.float_info.max)

    def test_tiny_h_a_brings_an_overflowing_tilt_back_into_range(self):
        # e^{a^2 syy/2} = e^800 overflows, but h_a = 2 Phi(-40/sqrt(2)) has
        # ln h_a = -403.5693, so the risk is e^{396.43} (mpmath at 40 digits)
        a, cov = LinexParams(40.0), CovarianceSpec(1.0, 1.0, -1.0)
        risk = shift_risk(0.0, ThetaStar(0.0, 0.0), a, cov)
        assert risk == pytest.approx(1.4711150798024403e172, rel=1e-12)

    def test_matches_exponential_moment_identity(self, rng):
        """R(d) = e^{ad} E e^{aW} - a(d + EW) - 1 with the moments computed
        from independent closed forms of the selected-concomitant law."""
        for _ in range(10):
            cov, ts, a = rand_setup(rng)
            d = rng.normal(0, 1)
            s2x = math.sqrt(2 * cov.sigma_xx)
            h = std_normal_cdf((a.a * cov.sigma_xy + ts.theta_x) / s2x) + std_normal_cdf(
                (a.a * cov.sigma_xy - ts.theta_x) / s2x
            )
            e_exp = math.exp(a.a**2 * cov.sigma_yy / 2) * h
            e_w = cov.rho * math.sqrt(2 * cov.sigma_yy) * std_normal_pdf(ts.theta_x / s2x)
            closed = math.exp(a.a * d) * e_exp - a.a * (e_w + d) - 1
            assert shift_risk_quadrature(d, ts, a, cov) == pytest.approx(closed, rel=1e-9)
            assert shift_risk(d, ts, a, cov) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("rho", [-1.0, -0.6, 0.0, 0.6, 1.0])
    def test_closed_form_matches_quadrature(self, rho):
        """The library's closed form against the quadrature oracle, |rho| = 1 included."""
        gen = np.random.default_rng(int(100 * (rho + 2)))
        for _ in range(12):
            cov = CovarianceSpec.from_correlation(gen.uniform(0.4, 4), gen.uniform(0.4, 4), rho)
            ts = ThetaStar(gen.uniform(0, 3), 0.0)
            a = LinexParams(gen.uniform(0.2, 2.5) * gen.choice([-1, 1]))
            d = gen.normal(0, 1.5)
            ref = shift_risk_quadrature(d, ts, a, cov)
            assert shift_risk(d, ts, a, cov) == pytest.approx(ref, rel=1e-9, abs=1e-12)
