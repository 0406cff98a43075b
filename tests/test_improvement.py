import math

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
    SimConfig,
    base_phi,
    base_phi_batch,
    clip_band,
    improve,
    paired_risk_difference,
    phi_bounds,
    select,
    select_batch,
)
from linexsel.core import rng_stream, sample_batch
from linexsel.improvement import applicable_case, case_in_region, case_label, table_columns

from ._cases import CaseRegionError, case_base_kind, named_case_rule
from ._strategies import A, MEAN, PROPERTY, RHO, SCALE, SEED

A1 = LinexParams(1.0)
AM1 = LinexParams(-1.0)


def random_summary(rng, cov):
    x = rng.normal(0, math.sqrt(cov.sigma_xx) * 1.4, 2)
    y = rng.normal(0, math.sqrt(cov.sigma_yy) * 1.4, 2)
    return select(ObservationPair((x[0], y[0]), (x[1], y[1])))


def draw_in_region(rng, case_id):
    for _ in range(1000):
        a = rng.uniform(0.2, 2.5) * rng.choice([-1, 1])
        rho = 0.0 if case_id in (4, 10, 15) else rng.uniform(-0.95, 0.95)
        if case_in_region(case_id, a, rho):
            return LinexParams(a), rho
    raise AssertionError("region sampling failed")


@pytest.mark.parametrize("spec", [EstimatorSpec.n1(), EstimatorSpec.shift(0.5)],
                         ids=lambda s: s.kind)
def test_improve_refuses_a_spec_that_is_not_improved(poultry_summary, poultry_model, spec):
    with pytest.raises(InvalidParameterError, match=r"^improve\(\) expects an Improved spec$"):
        improve(spec, poultry_summary, A1, poultry_model.cov_hat)


class TestBasePhi:
    def test_values(self, poultry_summary, poultry_model):
        cov = poultry_model.cov_hat
        assert base_phi(EstimatorSpec.n1(), poultry_summary, A1, cov) == 0.0
        assert base_phi(EstimatorSpec.n2(), poultry_summary, A1, cov) == pytest.approx(
            -476.4712, abs=5e-4
        )
        s = poultry_summary
        zero_t2 = type(s)(
            selected=s.selected, x_max=s.x_max, x_min=s.x_min,
            y_sel=s.y_sel, y_other=s.y_sel, t1=s.t1, t2=0.0,
        )
        assert base_phi(EstimatorSpec.n3(), zero_t2, A1, cov) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonequivariant(self, poultry_summary, poultry_model):
        from linexsel import PriorSpec

        spec = EstimatorSpec.bayes(PriorSpec(0.0, 0.0, 1.0))
        message = "^no equivariant component for kind 'Bayes'; only N1..N4 have one$"
        with pytest.raises(InvalidParameterError, match=message):
            base_phi(spec, poultry_summary, A1, poultry_model.cov_hat)


class TestImprove:
    def test_poultry_clip_to_lower(self, poultry_summary, poultry_model):
        out = improve(
            EstimatorSpec.improved(EstimatorSpec.n1()), poultry_summary, AM1, poultry_model.cov_hat
        )
        assert out.truncated == "clipped_to_phi_inf"
        assert out.value == pytest.approx(401.8278, abs=5e-5)
        # equals the concomitant midpoint plus sigma_yy/4
        mid = (poultry_summary.y_sel + poultry_summary.y_other) / 2
        assert out.value == pytest.approx(mid + poultry_model.cov_hat.sigma_yy / 4, abs=1e-9)

    def test_poultry_untouched_at_positive_a(self, poultry_summary, poultry_model):
        out = improve(
            EstimatorSpec.improved(EstimatorSpec.n1()), poultry_summary, A1, poultry_model.cov_hat
        )
        assert out.truncated == "none"
        assert out.value == pytest.approx(131.4569, abs=5e-5)

    def test_poultry_n4_at_positive_a(self, poultry_summary, poultry_model):
        out = improve(
            EstimatorSpec.improved(EstimatorSpec.n4(1.0)), poultry_summary, A1, poultry_model.cov_hat
        )
        assert out.truncated == "none"
        assert out.value == pytest.approx(163.5922, abs=5e-5)

    def test_tie_clips_formally(self):
        # rho = 0, a = -1, syy = 1, t1 = -1, t2 = -0.5: phi_inf = t2/2 - a*syy/4 = 0 = N1's phi
        cov = CovarianceSpec(1.0, 1.0, 0.0)
        s = select(ObservationPair((1.0, 0.5), (0.0, 0.0)))
        assert (s.t1, s.t2) == (-1.0, -0.5)
        assert phi_bounds(s.t1, s.t2, AM1, cov) == (0.0, math.inf)
        out = improve(EstimatorSpec.improved(EstimatorSpec.n1()), s, AM1, cov)
        assert out.truncated == "clipped_to_phi_inf"
        assert (out.value, out.base_phi) == (s.y_sel, 0.0)

    def test_hi_tie_clips_formally(self):
        # rho = -0.5, a = 1, syy = 1, t2 = 0.5: side = t1 + t2/2 > 0 and gap = t2 + t1/2 >
        # margin = -3/8, so phi_sup = t2/2 - a*syy/4 = 0 = N1's phi
        cov = CovarianceSpec(1.0, 1.0, -0.5)
        s = select(ObservationPair((1.0, 0.0), (0.9, 0.5)))
        assert s.t2 == 0.5 and -0.2 < s.t1 < 0
        assert phi_bounds(s.t1, s.t2, A1, cov) == (-math.inf, 0.0)
        out = improve(EstimatorSpec.improved(EstimatorSpec.n1()), s, A1, cov)
        assert out.truncated == "clipped_to_phi_sup"
        assert (out.value, out.base_phi) == (s.y_sel, 0.0)

    def test_clip_containment(self, rng):
        for _ in range(500):
            rho = rng.uniform(-0.95, 0.95)
            cov = CovarianceSpec.from_correlation(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rho)
            a = LinexParams(rng.uniform(0.2, 2.5) * rng.choice([-1, 1]))
            s = random_summary(rng, cov)
            base = rng.choice(["N1", "N2", "N3", "N4"])
            spec = {"N1": EstimatorSpec.n1(), "N2": EstimatorSpec.n2(),
                    "N3": EstimatorSpec.n3(), "N4": EstimatorSpec.n4(1.0)}[base]
            out = improve(EstimatorSpec.improved(spec), s, a, cov)
            lo, hi = phi_bounds(s.t1, s.t2, a, cov)
            star = out.value - s.y_sel  # round-trips through y_sel, so ulp slack
            ulp = 1e-12 * max(1.0, abs(star))
            assert lo - ulp <= star <= hi + ulp
            lo_b, hi_b = sorted((out.base_phi, star))
            assert lo_b - 1e-12 <= star <= hi_b + 1e-12
            if out.truncated == "none":
                # star goes through y_sel + phi - y_sel, so allow an ulp
                assert star == pytest.approx(out.base_phi, rel=1e-12, abs=1e-12)


class TestNoImprovementRegions:
    """Configurations where truncation provably never fires."""

    @pytest.mark.parametrize(
        "base,a,rho",
        [
            ("N1", 1.0, 0.0),
            ("N2", -1.0, 0.6),
            ("N2", 1.0, 0.0),
            ("N2", -1.0, 0.0),
            ("N4", 1.0, 0.0),
        ],
    )
    def test_never_truncates(self, base, a, rho):
        cov = CovarianceSpec.from_correlation(2.0, 2.0, rho)
        means = MeanVectorPair((0.3, 0.1), (0.0, 0.6))
        x1, y1, x2, y2 = sample_batch(means, cov, rng_stream(31), 100_000)
        spec = {"N1": EstimatorSpec.n1(), "N2": EstimatorSpec.n2(),
                "N4": EstimatorSpec.n4(1.0)}[base]
        a_p = LinexParams(a)
        # vectorized equivalent of improve(); keep the loop for a scalar spot check
        batch = select_batch(x1, y1, x2, y2)
        phi = base_phi_batch(spec, batch, a_p, cov)
        value, fin_lo, fin_hi = clip_band(batch.t1, batch.t2, a_p, cov)
        fired = int((fin_lo & (phi <= value)).sum() + (fin_hi & (phi >= value)).sum())
        assert fired == 0
        for k in range(0, 100_000, 9973):
            s = select(ObservationPair((x1[k], y1[k]), (x2[k], y2[k])))
            assert improve(EstimatorSpec.improved(spec), s, a_p, cov).truncated == "none"


class TestNamedCases:
    def test_regions(self):
        assert applicable_case("N1", 1.0, 0.5) == 1
        assert applicable_case("N1", -1.0, 0.5) == 3
        assert applicable_case("N1", 1.0, 0.0) is None
        assert applicable_case("N2", -1.0, 0.5) is None
        assert applicable_case("N3", 0.7, -0.2) == 9
        assert applicable_case("N4", -2.0, 0.0) == 15
        assert case_label(12) == "N4_I2"
        assert case_base_kind(7) == "N3"

    @pytest.mark.parametrize("case_id", [0, 16])
    def test_case_id_outside_the_fifteen_refused(self, case_id):
        with pytest.raises(InvalidParameterError, match=rf"^case_id must be 1\.\.15, got {case_id}$"):
            case_in_region(case_id, 1.0, 0.5)

    def test_table_columns_refuse_an_uncovered_base(self):
        # a > 0 at rho = 0 lies in none of the plug-in estimator's cases
        with pytest.raises(InvalidParameterError,
                           match=r"^no improvement case covers base N1 at a=1\.0, rho=0\.0$"):
            table_columns(1.0, 0.0, ("N1",), 1.0)

    def test_region_enforced(self, poultry_summary, poultry_model):
        with pytest.raises(CaseRegionError):
            named_case_rule(1, poultry_summary, AM1, poultry_model.cov_hat)

    def test_poultry_case_values(self, poultry_summary, poultry_model):
        cov = poultry_model.cov_hat
        assert named_case_rule(3, poultry_summary, AM1, cov) == pytest.approx(401.8278, abs=5e-5)
        assert named_case_rule(1, poultry_summary, A1, cov) == pytest.approx(131.4569, abs=5e-5)
        assert named_case_rule(13, poultry_summary, AM1, cov) == pytest.approx(401.8278, abs=5e-5)

    @pytest.mark.parametrize("case_id", range(1, 16))
    def test_matches_generic_clip(self, case_id, rng):
        base = case_base_kind(case_id)
        disagreements = boundary_hits = 0
        for _ in range(400):
            a, rho = draw_in_region(rng, case_id)
            cov = CovarianceSpec.from_correlation(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rho)
            c = rng.uniform(0.3, 1.8)
            spec = {"N1": EstimatorSpec.n1(), "N2": EstimatorSpec.n2(),
                    "N3": EstimatorSpec.n3(), "N4": EstimatorSpec.n4(c)}[base]
            s = random_summary(rng, cov)
            got = named_case_rule(case_id, s, a, cov, c=c)
            want = improve(EstimatorSpec.improved(spec), s, a, cov).value
            if got != pytest.approx(want, rel=1e-12, abs=1e-12):
                # weak/strict conventions may differ exactly on the boundary sets
                lo, hi = phi_bounds(s.t1, s.t2, a, cov)
                phi = base_phi(spec, s, a, cov)
                if phi in (lo, hi) or s.t1 == 0.0:
                    boundary_hits += 1
                else:
                    disagreements += 1
        assert disagreements == 0
        assert boundary_hits <= 2


@PROPERTY
@given(
    a=A,
    sxx=SCALE,
    syy=SCALE,
    rho=RHO,
    pop2=st.tuples(MEAN, MEAN),
    gaps=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
    c=st.floats(0.0, 3.0),
    reps=st.integers(2000, 5000),
    seed=SEED,
)
def test_improved_is_no_worse_than_its_base(a, sxx, syy, rho, pop2, gaps, c, reps, seed):
    """The improvement theorem over random concordant configurations.

    Population 1's means are population 2's plus gaps >= 0. Wherever a named
    case covers (a, rho), the clipped estimator's LINEX risk is at most its
    base's, so on common random numbers the paired difference base - improved
    stays above -3 paired standard errors.
    """
    cov = CovarianceSpec.from_correlation(sxx, syy, rho)
    means = MeanVectorPair((pop2[0] + gaps[0], pop2[1] + gaps[1]), pop2)
    config = SimConfig(means=means, cov=cov, a=LinexParams(a), reps=reps, master_seed=seed)
    for base in (EstimatorSpec.n1(), EstimatorSpec.n2(), EstimatorSpec.n3(), EstimatorSpec.n4(c)):
        if applicable_case(base.kind, a, cov.rho) is None:
            continue
        diff, se = paired_risk_difference(config, base, EstimatorSpec.improved(base))
        assert diff >= -3 * se, (base.label, diff, se)
