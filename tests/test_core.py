import copy
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import log_ndtr

from linexsel import (
    CovarianceSpec,
    EstimatorSpec,
    InvalidParameterError,
    LinexError,
    LinexOverflowError,
    LinexParams,
    MeanVectorPair,
    ObservationPair,
    PriorSpec,
    ThetaStar,
    evaluate,
    linex_loss,
    log_std_normal_cdf,
    log_sum_exp,
    rng_stream,
    select,
    std_normal_cdf,
    std_normal_pdf,
)
from linexsel.core import log_std_normal_cdf_tail, replace, sample_batch, sample_block
from linexsel.kernels import (
    base_phi_batch,
    clip_band_batch,
    evaluate_batch,
    log_std_normal_cdf_tail_batch,
    select_batch,
    std_normal_cdf_batch,
)

from ._strategies import A, MEAN, PROPERTY, RHO, SCALE, SEED


class TestStdNormal:
    def test_pdf_values(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804, abs=1e-10)
        assert std_normal_pdf(1.0) == std_normal_pdf(-1.0)
        assert std_normal_pdf(2.0) == pytest.approx(0.05399096651, abs=1e-10)

    def test_cdf_values(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(0.5) == pytest.approx(0.6914624613, abs=1e-10)
        # 30-digit reference gives 0.42656353585 at this argument
        assert std_normal_cdf(-0.18513) == pytest.approx(0.42656353585, abs=1e-11)
        assert std_normal_cdf(math.inf) == 1.0
        assert std_normal_cdf(-math.inf) == 0.0

    def test_cdf_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for u in np.linspace(-8, 8, 81):
            exact = float(mp.ncdf(mp.mpf(float(u))))
            assert std_normal_cdf(float(u)) == pytest.approx(exact, abs=1e-12)

    def test_cdf_symmetry_property(self, rng):
        for u in rng.normal(0, 3, 300):
            assert std_normal_cdf(u) + std_normal_cdf(-u) == pytest.approx(1.0, abs=1e-14)

    def test_cdf_monotone(self):
        grid = np.linspace(-10, 10, 401)
        vals = [std_normal_cdf(u) for u in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_batch_cdf_against_mpmath_and_erfc(self):
        # relative error c (1 + u^2) eps, because rounding u^2 passes through
        # exp, plus one subnormal ulp where Phi is subnormal (u < -37.5)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        u = np.linspace(-38.5, 0.0, 3851)
        exact = np.array([float(mp.ncdf(mp.mpf(x))) for x in u.tolist()])
        erfc = np.array([std_normal_cdf(x) for x in u.tolist()])
        scale = (1.0 + u * u) * np.finfo(float).eps
        sub = 2.0**-1074
        got = std_normal_cdf_batch(u)
        assert (exact < np.finfo(float).tiny).sum() > 50
        assert np.all(np.abs(got - exact) <= 3.0 * scale * exact + sub)
        assert np.all(np.abs(got - erfc) <= 4.0 * scale * exact + 2 * sub)

    def test_batch_cdf_edges(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = std_normal_cdf_batch(np.array([0.0, -38.7, -1e200, -np.inf]))
        assert got.tolist() == [0.5, 0.0, 0.0, 0.0]
        assert np.isnan(std_normal_cdf_batch(np.array([np.nan]))[0])

    def test_log_cdf_tail_matches_log_ndtr(self):
        # the float form in core and its array twin in kernels read one series
        grid = np.linspace(-60.0, -37.0, 2301)
        arrays = log_std_normal_cdf_tail_batch(grid)
        np.testing.assert_allclose(arrays, log_ndtr(grid), rtol=1e-12, atol=0)
        floats = [log_std_normal_cdf_tail(u) for u in grid.tolist()]
        assert all(type(v) is float for v in floats)
        np.testing.assert_allclose(floats, log_ndtr(grid), rtol=1e-12, atol=0)
        np.testing.assert_allclose(arrays, floats, rtol=4e-16, atol=0)
        assert log_std_normal_cdf_tail(-math.inf) == -math.inf
        assert log_std_normal_cdf_tail_batch(np.array([-np.inf])).tolist() == [-np.inf]


    def test_log_cdf_matches_log_ndtr(self):
        # the second grid covers u in [-38.5, -37.5], where Phi is subnormal
        grid = np.concatenate([np.linspace(-60.0, 8.0, 6801), np.linspace(-38.6, -37.4, 121)])
        got = [log_std_normal_cdf(u) for u in grid.tolist()]
        np.testing.assert_allclose(got, log_ndtr(grid), rtol=1e-12, atol=0)

    def test_log_cdf_is_log_of_cdf_where_phi_is_normal(self):
        # bit for bit for u <= 0 down to the last normal Phi, and at the
        # admissibility golden points +-0.5, where log_ndtr gives the same bits
        for u in np.linspace(-37.5, 0.0, 3751).tolist():
            assert log_std_normal_cdf(u) == math.log(std_normal_cdf(u))
        for u in (0.5, -0.5):
            assert log_std_normal_cdf(u) == math.log(std_normal_cdf(u)) == float(log_ndtr(u))


class TestLinexLoss:
    def test_zero_at_truth(self):
        assert linex_loss(3.7, 3.7, LinexParams(2.5)) == 0.0

    def test_asymmetry(self):
        a = LinexParams(1.0)
        assert linex_loss(1.0, 0.0, a) == pytest.approx(math.e - 2, abs=1e-12)
        assert linex_loss(-1.0, 0.0, a) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_positive_off_truth(self, rng):
        for _ in range(500):
            a = LinexParams(rng.uniform(0.1, 4) * rng.choice([-1, 1]))
            delta, theta = rng.normal(0, 5, 2)
            if delta != theta:
                assert linex_loss(delta, theta, a) > 0

    def test_convex_in_estimate(self, rng):
        for _ in range(300):
            a = LinexParams(rng.uniform(0.1, 3) * rng.choice([-1, 1]))
            theta = rng.normal()
            d1, d2 = rng.normal(0, 4, 2)
            mid = linex_loss((d1 + d2) / 2, theta, a)
            avg = (linex_loss(d1, theta, a) + linex_loss(d2, theta, a)) / 2
            assert mid <= avg + 1e-12

    def test_overflow_is_reported(self):
        with pytest.raises(LinexOverflowError) as exc:
            linex_loss(800.0, 0.0, LinexParams(1.0))
        assert exc.value.exponent == pytest.approx(800.0)

    @pytest.mark.parametrize("args", [(800.0, "N1"), (12.5, "shift_risk: R(d) = inf", "a cause")],
                             ids=["exponent", "cause"])
    def test_overflow_error_survives_pickle_and_copy(self, args):
        exc = LinexOverflowError(*args)
        for twin in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
            assert type(twin) is LinexOverflowError
            assert (str(twin), twin.exponent) == (str(exc), exc.exponent)

    def test_nan_exponent_is_refused(self):
        with pytest.raises(LinexError, match=r"rep=1\b"):
            linex_loss(np.array([0.0, np.nan]), 0.0, LinexParams(1.0), "N1")

    @pytest.mark.parametrize("delta", [math.inf, -math.inf])
    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_infinite_argument_is_refused(self, delta, a):
        with pytest.raises(LinexError):
            linex_loss(delta, 0.0, LinexParams(a))

    def test_array_form_matches_float_form(self, rng):
        a = LinexParams(-1.5)
        delta, theta = rng.normal(0, 3, 50), rng.normal(0, 3, 50)
        losses = linex_loss(delta, theta, a)
        expected = [linex_loss(float(d), float(t), a) for d, t in zip(delta, theta)]
        assert losses.tolist() == pytest.approx(expected, rel=1e-14)

    def test_zero_a_rejected(self):
        with pytest.raises(InvalidParameterError):
            LinexParams(0.0)

    @pytest.mark.parametrize("a", [5e-324, -5e-324, 1e-310, -2.2e-308, math.ulp(0.0) * 2**51])
    def test_subnormal_a_rejected(self, a):
        # a*sigma and a*t lose their digits to underflow: d0 read -0 for -0.282
        with pytest.raises(InvalidParameterError, match="a must be a normal double"):
            LinexParams(a)

    @pytest.mark.parametrize("a", [sys.float_info.min, -sys.float_info.min, 1e-300])
    def test_smallest_normal_a_accepted(self, a):
        assert LinexParams(a).a == a


class TestCovarianceSpec:
    def test_derived_quantities(self):
        cov = CovarianceSpec(sigma_xx=8.0, sigma_yy=2.0, sigma_xy=2.0)
        assert cov.rho == pytest.approx(0.5)
        assert cov.xi == pytest.approx(0.5)
        assert cov.det == pytest.approx(12.0)

    def test_degenerate_allowed(self):
        cov = CovarianceSpec.from_correlation(2.0, 2.0, -1.0)
        assert cov.rho == -1.0
        assert cov.is_singular
        assert cov.det == 0.0

    @pytest.mark.parametrize(
        "sxx,syy,sxy",
        [(0.0, 1.0, 0.0), (1.0, -1.0, 0.0), (1.0, 1.0, 1.5), (1.0, 2.0, -2.0)],
    )
    def test_invalid_rejected(self, sxx, syy, sxy):
        with pytest.raises(InvalidParameterError):
            CovarianceSpec(sigma_xx=sxx, sigma_yy=syy, sigma_xy=sxy)

    @pytest.mark.parametrize("rho, shown", [(1.5, "1.5"), (-1.0000001, "-1.0000001"), (math.nan, "nan")])
    def test_correlation_outside_the_unit_interval_rejected(self, rho, shown):
        with pytest.raises(InvalidParameterError, match=rf"^rho must lie in \[-1, 1\], got {shown}$"):
            CovarianceSpec.from_correlation(2.0, 2.0, rho)

    def test_theta_star_nonnegative(self):
        with pytest.raises(InvalidParameterError):
            ThetaStar(-0.1, 0.0)


def test_log_sum_exp():
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2))
    assert log_sum_exp([-math.inf, 3.0]) == pytest.approx(3.0)
    assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2))
    assert log_sum_exp([-math.inf, -math.inf]) == -math.inf
    assert log_sum_exp([]) == -math.inf
    assert log_sum_exp([0.0, math.inf]) == math.inf


class _Fixed:
    """A generator whose draws are the rows of `g`, as many as `out` holds."""

    def __init__(self, g):
        self.g = g

    def standard_normal(self, out):
        out[...] = self.g[: len(out)]
        return out


class TestSampling:
    def test_degenerate_rho_is_exact(self):
        cov = CovarianceSpec.from_correlation(2.0, 2.0, 1.0)
        means = MeanVectorPair((0.0, 0.0), (0.0, 0.0))
        gen = rng_stream(7)
        for _ in range(200):
            x1, y1, x2, y2 = sample_batch(means, cov, gen, 1)
            assert y1[0] == x1[0]
            assert y2[0] == x2[0]

    @pytest.mark.parametrize("rho", [-1.0, -0.3, 0.0, 0.5, 1.0])
    def test_in_place_matches_the_formula_bit_for_bit(self, rho):
        # signed zeros included: at |rho| = 1, l_yy = 0, so l_yy * g is a signed
        # zero, and the first draws are zeros of both signs
        cov = CovarianceSpec.from_correlation(2.0, 3.0, rho)
        means = MeanVectorPair((0.0, 0.0), (-1.5, 0.25))
        l_xx, l_yx, l_yy = cov.cholesky_factors()
        g = rng_stream(5, 1).standard_normal((4, 1000))
        g[:, :4] = [[0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]] * 2
        expected = (
            means.theta1[0] + l_xx * g[0],
            means.theta1[1] + l_yx * g[0] + l_yy * g[1],
            means.theta2[0] + l_xx * g[2],
            means.theta2[1] + l_yx * g[2] + l_yy * g[3],
        )

        got = sample_batch(means, cov, _Fixed(g), 1000)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    @pytest.mark.parametrize("theta_y, rows", [(0.25, 3), (-0.0, 4)])
    def test_unit_correlation_reads_three_rows_of_the_stream(self, rho, theta_y, rows):
        # l_yy = 0, so the last row, the Y noise of population 2, is not read,
        # unless a theta_y is -0.0; what is read is the stream's own prefix
        cov = CovarianceSpec.from_correlation(2.0, 3.0, rho)
        means = MeanVectorPair((0.5, 0.0), (-1.5, theta_y))
        l_xx, l_yx, l_yy = cov.cholesky_factors()
        n = 1000
        gen, twin = rng_stream(5, 1), rng_stream(5, 1)
        g = rng_stream(5, 1).standard_normal((4, n))
        drawn = []

        class Recording:
            def standard_normal(self, out):
                gen.standard_normal(out=out)
                drawn.append(out.copy())
                return out

        got = sample_batch(means, cov, Recording(), n)
        twin.standard_normal((rows, n))
        np.testing.assert_equal(gen.bit_generator.state, twin.bit_generator.state)
        assert [d.shape for d in drawn] == [(rows, n)]
        assert np.array_equal(drawn[0], g[:rows])
        expected = (
            means.theta1[0] + l_xx * g[0],
            means.theta1[1] + l_yx * g[0] + l_yy * g[1],
            means.theta2[0] + l_xx * g[2],
            means.theta2[1] + l_yx * g[2] + l_yy * g[3],
        )
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    def test_negative_zero_theta_y_keeps_the_fourth_row(self, rho):
        # theta_y + l_yx*g is -0 where theta_y = -0.0 and l_yx*g = -0, and
        # adding l_yy*g = +0 turns it into +0: only the full draw gives the sign
        cov = CovarianceSpec.from_correlation(2.0, 3.0, rho)
        means = MeanVectorPair((0.0, -0.0), (-1.5, -0.0))
        l_xx, l_yx, l_yy = cov.cholesky_factors()
        g = rng_stream(5, 1).standard_normal((4, 1000))
        g[:, :4] = [[0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]] * 2

        x1, y1, x2, y2 = sample_batch(means, cov, _Fixed(g), 1000)
        for y, x_row, theta_y in ((y1, 0, means.theta1[1]), (y2, 2, means.theta2[1])):
            expected = theta_y + l_yx * g[x_row] + l_yy * g[x_row + 1]
            assert np.array_equal(y, expected)
            assert np.array_equal(np.signbit(y), np.signbit(expected))
            # the three-row shortcut would have kept a -0 here
            assert np.signbit(theta_y + l_yx * g[x_row]).sum() > np.signbit(expected).sum()

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    @pytest.mark.parametrize("theta_y, rows", [(0.25, 3), (-0.0, 4)])
    def test_a_block_decides_its_draw_once_with_each_row_alone_bits(self, rho, theta_y, rows):
        # a -0.0 theta_y in one row makes every row of the block draw four rows;
        # a row that alone draws three gets the same bits from four
        cov = CovarianceSpec.from_correlation(2.0, 3.0, rho)
        means = [MeanVectorPair((0.5, 1.0), (-1.5, 0.5)), MeanVectorPair((0.5, 0.0), (-1.5, theta_y))]
        drawn = []

        class Recording:
            def __init__(self, key):
                self.gen = rng_stream(5, key)

            def standard_normal(self, out):
                drawn.append(out.shape)
                return self.gen.standard_normal(out=out)

        block = sample_block(means, cov, [Recording(key) for key in (1, 2)], 257)
        assert drawn == [(rows, 257)] * 2
        for i, m in enumerate(means):
            alone = sample_batch(m, cov, rng_stream(5, i + 1), 257)
            for a, b in zip(block, alone):
                assert np.array_equal(a[i], b)
                assert np.array_equal(np.signbit(a[i]), np.signbit(b))

    def test_independent_case_correlation(self):
        cov = CovarianceSpec.from_correlation(2.0, 3.0, 0.0)
        means = MeanVectorPair((0.0, 0.0), (1.0, 1.0))
        x1, y1, _, _ = sample_batch(means, cov, rng_stream(11), 100_000)
        corr = np.corrcoef(x1, y1)[0, 1]
        assert abs(corr) < 0.01

    def test_moments_reproduced(self):
        cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=5.0, sigma_xy=-1.5)
        means = MeanVectorPair((0.3, -0.7), (2.0, 1.0))
        n = 100_000
        x1, y1, x2, y2 = sample_batch(means, cov, rng_stream(13), n)
        for sample, mean, var in [
            (x1, 0.3, 2.0), (y1, -0.7, 5.0), (x2, 2.0, 2.0), (y2, 1.0, 5.0),
        ]:
            assert sample.mean() == pytest.approx(mean, abs=4 * math.sqrt(var / n))
        emp = np.cov(np.vstack([x1, y1]), ddof=1)
        assert emp[0, 0] == pytest.approx(2.0, rel=0.05)
        assert emp[1, 1] == pytest.approx(5.0, rel=0.05)
        assert emp[0, 1] == pytest.approx(-1.5, rel=0.05)

    def test_streams_reproducible_and_independent(self):
        cov = CovarianceSpec(sigma_xx=1.0, sigma_yy=1.0, sigma_xy=0.5)
        means = MeanVectorPair((0.0, 0.0), (0.0, 0.0))

        def pairs(*key):
            return [np.ravel(sample_batch(means, cov, rng_stream(42, *key), 1)).tolist()
                    for _ in range(5)]

        seq1 = pairs(1, 2)
        seq2 = pairs(1, 2)
        assert seq1 == seq2
        other = pairs(1, 3)
        assert other != seq1

    @pytest.mark.parametrize("args, message", [
        ((1.5,), r"^master seed must be an integer, got 1\.5$"),
        ((True,), r"^master seed must be an integer, got True$"),
        ((-1,), r"^master seed must be nonnegative$"),
        ((0, 2.9), r"^stream key part must be an integer, got 2\.9$"),
        ((0, False), r"^stream key part must be an integer, got False$"),
        ((0, "3"), r"^stream key part must be an integer, got '3'$"),
        ((0, 1, -1), r"^stream key part must be nonnegative$"),
    ], ids=["seed-float", "seed-bool", "seed-negative", "key-float", "key-bool", "key-str",
            "key-negative"])
    def test_stream_seeds_and_keys_are_nonnegative_ints(self, args, message):
        # int() once truncated 2.9 to stream 2; a float seed failed in numpy with a TypeError
        with pytest.raises(InvalidParameterError, match=message):
            rng_stream(*args)

    def test_numpy_integers_key_the_same_stream(self):
        got = rng_stream(np.uint32(42), np.int64(1), np.int8(2)).standard_normal(4)
        assert np.array_equal(got, rng_stream(42, 1, 2).standard_normal(4))

    @PROPERTY
    @given(
        a=A,
        sxx=SCALE,
        syy=SCALE,
        rho=RHO,
        means=st.tuples(MEAN, MEAN, MEAN, MEAN),
        c=st.floats(0.0, 3.0),
        d=MEAN,
        prior=st.tuples(MEAN, MEAN, SCALE),
        seed=SEED,
    )
    def test_batch_estimates_match_scalar_evaluate(
        self, a, sxx, syy, rho, means, c, d, prior, seed
    ):
        """Every array kernel agrees with its float form, |rho| = 1 included."""
        cov = CovarianceSpec.from_correlation(sxx, syy, rho)
        a = LinexParams(a)
        n = 32
        pair = MeanVectorPair(means[:2], means[2:])
        x1, y1, x2, y2 = sample_batch(pair, cov, rng_stream(seed), n)
        batch = select_batch(x1, y1, x2, y2)
        summaries = [select(ObservationPair((x1[k], y1[k]), (x2[k], y2[k]))) for k in range(n)]
        for field in ("y_sel", "t1", "t2"):
            assert getattr(batch, field).tolist() == [getattr(s, field) for s in summaries]
        # select_batch leaves x_max to the one estimator that reads it, Bayes
        batch = replace(batch, x_max=np.maximum(x1, x2))
        assert batch.x_max.tolist() == [s.x_max for s in summaries]
        bases = [EstimatorSpec.n1(), EstimatorSpec.n2(), EstimatorSpec.n3(), EstimatorSpec.n4(c)]
        specs = bases + [EstimatorSpec.improved(b) for b in bases] + [EstimatorSpec.shift(d)]
        if not cov.is_singular:  # the Bayes estimator needs |rho| < 1
            specs.append(EstimatorSpec.bayes(PriorSpec(*prior)))
        # a base's component and the one clip band, as the risk cell computes them
        band = clip_band_batch(batch.t1, batch.t2, a, cov)
        for spec in specs:
            base = spec.base if spec.kind == "Improved" else spec
            phi = None if base.kind in ("Shift", "Bayes") else base_phi_batch(base, batch, a, cov)
            values = evaluate_batch(spec, batch, a, cov, phi, None, band)
            for k, s in enumerate(summaries):
                scalar = evaluate(spec, s, a, cov)
                assert values[k] == pytest.approx(scalar, rel=1e-12, abs=1e-12), spec.label
