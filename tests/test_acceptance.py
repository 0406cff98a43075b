"""Acceptance suite: one section per criterion, with the stated tolerances.

Criteria that compare against published table values use the frozen data in
_tables.py. Where published cells are provably inconsistent with the model
itself (quantified there against quadrature references), the as-published
assertion is kept under xfail(strict=True) so the discrepancy stays visible
and cannot silently start "passing"; the reproducible remainder is asserted
outright, and the engine is held to the independent quadrature references.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from linexsel import (
    ADMISSIBLE_IN_CLASS,
    CovarianceSpec,
    EstimatorSpec,
    LinexParams,
    MeanVectorPair,
    PriorSpec,
    SimConfig,
    ThetaStar,
    analyze,
    bounds,
    bundled_dataset_path,
    classify,
    est_bayes,
    evaluate,
    fit,
    improve,
    load_dataset,
    paired_risk_difference,
    phi_bounds,
    psi,
    risk_grid,
    select,
    simulate_risk,
)
from linexsel.core import ObservationPair, rng_stream
from linexsel.estimators import base_phi
from linexsel.improvement import case_in_region
from linexsel.risksim import TABLE_SPECS, THETA_CONFIGS

from ._cases import case_base_kind, named_case_rule
from ._tables import (
    ACCEPTANCE_SEED,
    KNIFE_EDGE_COLUMNS,
    PRINTED,
    REFERENCE,
    UNREPRODUCIBLE_AT_SEED,
)
from .reference import (
    cond_t3_mgf,
    cond_t3_pdf,
    posterior_risk_constant,
    shift_risk_quadrature,
    theta_star,
    varphi,
    w_pdf,
)

REPS = 20000


# ---------------------------------------------------------------------------
# criterion 1: worked-example reproduction
# ---------------------------------------------------------------------------

TABLE3 = {  # a = 1, exact to 4 decimals except the documented N3 band
    "N1": 131.4569, "N1_I1": 131.4569, "N2": -345.0144, "N2_I2": -345.0144,
    "N3": 194.9654, "N3_I1": 194.9654, "N4": 163.5922, "N4_I1": 163.5922,
}
TABLE4 = {  # a = -1; N4_I3 handled separately (published value contradicts the operator)
    "N1": 131.4569, "N1_I3": 401.8278, "N2": 607.9281,
    "N3": 132.0856, "N3_I2": 401.8278, "N4": 163.5922,
}


@pytest.fixture(scope="module")
def worked_example():
    start = time.perf_counter()
    model = fit(load_dataset(bundled_dataset_path(), clean=True))
    rep_pos = analyze(model, LinexParams(1.0))
    rep_neg = analyze(model, LinexParams(-1.0))
    elapsed = time.perf_counter() - start
    return model, rep_pos, rep_neg, elapsed


def test_criterion1_worked_example(worked_example):
    model, rep_pos, rep_neg, elapsed = worked_example
    # parameter table: means within 0.01 absolute, covariances within 0.5% relative
    assert model.theta_hat_1[0] == pytest.approx(59.0997, abs=0.01)
    assert model.theta_hat_1[1] == pytest.approx(131.4569, abs=0.01)
    assert model.theta_hat_2[0] == pytest.approx(58.3516, abs=0.01)
    assert model.theta_hat_2[1] == pytest.approx(195.7275, abs=0.01)
    assert model.cov_hat.sigma_xx == pytest.approx(8.1645, rel=0.005)
    assert model.cov_hat.sigma_xy == pytest.approx(40.0655, rel=0.005)
    assert model.cov_hat.sigma_yy == pytest.approx(952.9425, rel=0.005)

    pos = {label: value for label, value, _ in rep_pos.estimates}
    for label, value in TABLE3.items():
        tol = 0.1 if label.startswith("N3") else 5e-5
        assert pos[label] == pytest.approx(value, abs=tol), label
    neg = {label: value for label, value, _ in rep_neg.estimates}
    for label, value in TABLE4.items():
        tol = 0.1 if label.startswith("N3") and label != "N3_I2" else 5e-5
        assert neg[label] == pytest.approx(value, abs=tol), label

    # the published N4_I3 cell (163.5922) contradicts the source's own
    # case-13 rule, which fires here and gives the clipped value
    s = select(ObservationPair(model.theta_hat_1, model.theta_hat_2))
    case13 = named_case_rule(13, s, LinexParams(-1.0), model.cov_hat, c=1.0)
    assert case13 == pytest.approx(401.8278, abs=5e-5)
    assert neg["N4_I3"] == pytest.approx(case13, abs=1e-9)

    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS (worked example reproduced in {elapsed * 1000:.0f} ms)")


@pytest.mark.xfail(
    strict=True,
    reason="the published estimate table prints delta_N4_I3 = 163.5922, but the "
    "truncation operator and the transcribed case-13 rule both give 401.8278 at "
    "the fitted parameters (the base component 32.135 lies below phi_inf = 270.371)",
)
def test_criterion1_published_n4_improved_cell(worked_example):
    _, _, rep_neg, _ = worked_example
    neg = {label: value for label, value, _ in rep_neg.estimates}
    assert neg["N4_I3"] == pytest.approx(163.5922, abs=5e-5)


# ---------------------------------------------------------------------------
# criterion 2: risk-table reproduction at published scale
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_runs():
    start = time.perf_counter()
    runs = {tid: risk_grid(tid, reps=REPS, master_seed=ACCEPTANCE_SEED) for tid in TABLE_SPECS}
    return runs, time.perf_counter() - start


def _required_cells(tid):
    """Cells criterion 2 checks: N1/N2/N4 and improved columns everywhere,
    plus Table 10's N3 column under its 3*SE-only rule."""
    for j, (label, _) in enumerate(TABLE_SPECS[tid].columns):
        if label == "N3" and tid != 10:
            continue
        se_only = label == "N3" and tid == 10
        for i in range(11):
            yield i, j, label, se_only


def _band(printed, se, se_only):
    return 3 * se if se_only else max(3 * se, 0.02 * abs(printed))


def test_criterion2_engine_matches_quadrature(table_runs):
    """The Monte Carlo engine agrees with the independent quadrature references
    on every well-posed cell (all columns, all tables)."""
    runs, _ = table_runs
    worst = 0.0
    checked = 0
    for tid, table in runs.items():
        for j, (label, _) in enumerate(table.spec.columns):
            if (tid, label) in KNIFE_EDGE_COLUMNS:
                continue
            for i in range(11):
                est = table.cell(i, j)
                z = abs(est.mean_risk - REFERENCE[tid][label][i]) / est.std_error
                worst = max(worst, z)
                checked += 1
                assert z < 4.5, (tid, i, label, z)
    assert checked == 319  # 407 cells minus the 8 boundary-degenerate improved columns
    print(f"criterion 2 (engine vs quadrature oracle): PASS ({checked} cells, max z = {worst:.2f})")


def test_criterion2_reproducible_cells(table_runs):
    runs, _ = table_runs
    skip = {tid: {(i, label) for i, label, *_ in rows} for tid, rows in UNREPRODUCIBLE_AT_SEED.items()}
    passed = skipped = 0
    for tid, table in runs.items():
        for i, j, label, se_only in _required_cells(tid):
            if (i, label) in skip[tid]:
                skipped += 1
                continue
            est = table.cell(i, j)
            printed = PRINTED[tid][label][i]
            assert abs(est.mean_risk - printed) <= _band(printed, est.std_error, se_only), (
                tid, i, label,
            )
            passed += 1
    print(
        f"criterion 2 (reproducible subset): PASS ({passed} cells at the stated band; "
        f"{skipped} published cells documented unreproducible, see tests/_tables.py)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the published risk tables 5-10 are partly inconsistent with the model "
    "they describe: tables 8-10 print values generated at sigma = 2 under sigma = 4 captions, "
    "rho = +-1 cells and all improved columns deviate from quadrature-exact risks by "
    "up to ~350 Monte Carlo standard errors, and Table 7's improved-N3 column violates "
    "gap-mirror symmetry; per-cell quantification in tests/_tables.py",
)
def test_criterion2_as_stated(table_runs):
    runs, _ = table_runs
    failures = []
    total = 0
    for tid, table in runs.items():
        for i, j, label, se_only in _required_cells(tid):
            est = table.cell(i, j)
            printed = PRINTED[tid][label][i]
            total += 1
            if abs(est.mean_risk - printed) > _band(printed, est.std_error, se_only):
                failures.append((tid, i, label))
    print(
        f"criterion 2 (as stated): FAIL — {len(failures)}/{total} published cells "
        f"outside the stated band (source-side defect, see README)"
    )
    assert not failures


def test_criterion2_runtime(table_runs):
    _, elapsed = table_runs
    assert elapsed < 300.0
    print(f"criterion 2 (runtime): PASS (six-table sweep in {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: quadrature-simulation agreement for shift estimators
# ---------------------------------------------------------------------------


def test_criterion3_quadrature_vs_simulation():
    gen = np.random.default_rng(314159)
    worst = 0.0
    for k in range(20):
        cov = CovarianceSpec.from_correlation(
            gen.uniform(0.5, 4.0), gen.uniform(0.5, 4.0), gen.uniform(-1.0, 1.0)
        )
        ts = ThetaStar(gen.uniform(0, 2.5), gen.uniform(0, 2.5))
        a = LinexParams(gen.uniform(0.3, 1.5) * gen.choice([-1.0, 1.0]))
        d = float(gen.normal(0, 1))
        config = SimConfig(
            means=MeanVectorPair((0.0, 0.0), (ts.theta_x, ts.theta_y)),
            cov=cov,
            a=a,
            reps=REPS,
            master_seed=ACCEPTANCE_SEED,
        )
        est = simulate_risk(config, EstimatorSpec.shift(d), stream_key=(3, k))
        ref = shift_risk_quadrature(d, ts, a, cov)
        z = abs(est.mean_risk - ref) / est.std_error
        worst = max(worst, z)
        assert z <= 3.0, (k, cov.rho, a.a, d, z)
    print(f"criterion 3: PASS (20 configurations, max |sim - quad| = {worst:.2f} SE)")


# ---------------------------------------------------------------------------
# criterion 4: dominance of the improved estimators
# ---------------------------------------------------------------------------

# one (a, rho) inside each case's declared region; rho = +-1 is excluded
# because no truncation condition can fire there (degenerate boundary)
CASE_PICKS = {
    1: (1.0, 0.5), 2: (-1.0, -0.5), 3: (-1.0, 0.5), 4: (-1.0, 0.0), 5: (1.0, -0.5),
    6: (-1.0, -0.5), 7: (1.0, 0.5), 8: (-1.0, 0.5), 9: (1.0, -0.5), 10: (-1.0, 0.0),
    11: (1.0, 0.5), 12: (1.0, -0.5), 13: (-1.0, 0.5), 14: (-1.0, -0.5), 15: (-1.0, 0.0),
}

_BASE_SPECS = {
    "N1": EstimatorSpec.n1(),
    "N2": EstimatorSpec.n2(),
    "N3": EstimatorSpec.n3(),
    "N4": EstimatorSpec.n4(1.0),
}


def test_criterion4_dominance_all_cases():
    worst_margin = math.inf
    for case_id, (a, rho) in CASE_PICKS.items():
        assert case_in_region(case_id, a, rho)
        base = _BASE_SPECS[case_base_kind(case_id)]
        cov = CovarianceSpec.from_correlation(2.0, 2.0, rho)
        strict = 0
        for i, mp in enumerate(THETA_CONFIGS):
            ts = theta_star(mp)
            config = SimConfig(
                means=MeanVectorPair((0.0, 0.0), (ts.theta_x, ts.theta_y)),
                cov=cov,
                a=LinexParams(a),
                reps=REPS,
                master_seed=ACCEPTANCE_SEED,
            )
            diff, se = paired_risk_difference(
                config, base, EstimatorSpec.improved(base), stream_key=(4, case_id, i)
            )
            assert diff >= -2 * se, (case_id, i, diff, se)
            worst_margin = min(worst_margin, diff + 2 * se)
            if se > 0 and diff > 2 * se:
                strict += 1
        assert strict >= 1, f"case {case_id}: no strictly positive improvement"
    print(f"criterion 4: PASS (15 cases x 11 gap configurations, min margin {worst_margin:+.4f})")


def test_criterion4_finding_discordant_configuration_breaks_dominance():
    """Documented finding, not a criterion: at the published tables' literal
    mean pairs (X-better population has the smaller Y-mean) the band of the
    truncation band no longer contains the conditional optimal shift, and
    the 'improved' N2 estimator is strictly worse than its base."""
    cov = CovarianceSpec.from_correlation(2.0, 2.0, -0.5)
    config = SimConfig(
        means=MeanVectorPair((0.2, 2.0), (2.0, 0.2)),  # discordant, gaps (1.8, 1.8)
        cov=cov,
        a=LinexParams(1.0),
        reps=200_000,
        master_seed=ACCEPTANCE_SEED,
    )
    base = EstimatorSpec.n2()
    diff, se = paired_risk_difference(config, base, EstimatorSpec.improved(base))
    assert diff < -2 * se  # base beats "improved": dominance fails off the band's domain


# ---------------------------------------------------------------------------
# criterion 5: identity suite
# ---------------------------------------------------------------------------


def _random_setup(gen, rho_lim=0.95):
    cov = CovarianceSpec.from_correlation(
        gen.uniform(0.4, 4.0), gen.uniform(0.4, 4.0), gen.uniform(-rho_lim, rho_lim)
    )
    ts = ThetaStar(gen.uniform(0, 3.0), gen.uniform(0, 3.0))
    a = LinexParams(gen.uniform(0.2, 2.5) * gen.choice([-1.0, 1.0]))
    return cov, ts, a


def test_criterion5_w_pdf_normalization():
    from scipy.integrate import quad

    gen = np.random.default_rng(5150)
    for _ in range(25):
        cov, ts, _ = _random_setup(gen, rho_lim=1.0)
        s = math.sqrt(cov.sigma_yy)
        val, _ = quad(lambda w: w_pdf(w, ts, cov), -12 * s, 12 * s, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)
    print("criterion 5a: PASS (w_pdf normalization within 1e-10)")


def test_criterion5_mgf_identity_1000_points():
    from scipy.integrate import quad

    gen = np.random.default_rng(5151)
    worst = 0.0
    for _ in range(1000):
        cov, ts, a = _random_setup(gen)
        t1 = -abs(gen.normal(0, 1.5))
        t2 = float(gen.normal(0, 2.0))
        closed = cond_t3_mgf(a, t1, t2, ts, cov)
        s = math.sqrt(cov.sigma_yy / 2)
        lo = -t2 / 2 - ts.theta_y - 14 * s + min(0.0, a.a * cov.sigma_yy)
        hi = -t2 / 2 + ts.theta_y + 14 * s + max(0.0, a.a * cov.sigma_yy)
        num, _ = quad(
            lambda t3: math.exp(a.a * t3) * cond_t3_pdf(t3, t1, t2, ts, cov), lo, hi, limit=300
        )
        rel = abs(num - closed) / abs(closed)
        worst = max(worst, rel)
        assert rel <= 1e-8
    print(f"criterion 5b: PASS (conditional MGF closed form vs quadrature, worst rel {worst:.2e})")


def test_criterion5_sandwich_1000_points():
    gen = np.random.default_rng(5152)
    violations = 0
    for _ in range(1000):
        cov, ts, a = _random_setup(gen)
        t1 = -abs(gen.normal(0, 2.0))
        t2 = float(gen.normal(0, 3.0))
        lo, hi = phi_bounds(t1, t2, a, cov)
        if not (lo <= varphi(t1, t2, ts, a, cov) <= hi):
            violations += 1
    assert violations == 0
    print("criterion 5c: PASS (phi sandwich, 0 violations in 1000 points)")


def test_criterion5_named_cases_match_clip_1000_points_each():
    gen = np.random.default_rng(5153)
    total_boundary = 0
    for case_id in range(1, 16):
        base_kind = case_base_kind(case_id)
        disagreements = 0
        for _ in range(1000):
            while True:
                a = float(gen.uniform(0.2, 2.5) * gen.choice([-1.0, 1.0]))
                rho = 0.0 if case_id in (4, 10, 15) else float(gen.uniform(-0.95, 0.95))
                if case_in_region(case_id, a, rho):
                    break
            cov = CovarianceSpec.from_correlation(
                gen.uniform(0.5, 3.0), gen.uniform(0.5, 3.0), rho
            )
            c = float(gen.uniform(0.3, 1.8))
            spec = _BASE_SPECS[base_kind] if base_kind != "N4" else EstimatorSpec.n4(c)
            x = gen.normal(0, math.sqrt(cov.sigma_xx) * 1.4, 2)
            y = gen.normal(0, math.sqrt(cov.sigma_yy) * 1.4, 2)
            s = select(ObservationPair((x[0], y[0]), (x[1], y[1])))
            a_p = LinexParams(a)
            got = named_case_rule(case_id, s, a_p, cov, c=c)
            want = improve(EstimatorSpec.improved(spec), s, a_p, cov).value
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
                lo, hi = phi_bounds(s.t1, s.t2, a_p, cov)
                phi = base_phi(spec, s, a_p, cov)
                if phi in (lo, hi) or s.t1 == 0.0:
                    total_boundary += 1
                else:
                    disagreements += 1
        assert disagreements == 0, f"case {case_id}"
    print(
        "criterion 5d: PASS (clip vs 15 named rules, 0 non-boundary disagreements; "
        f"{total_boundary} boundary ties)"
    )


# ---------------------------------------------------------------------------
# criterion 6: Bayes consistency
# ---------------------------------------------------------------------------


def test_criterion6_large_prior_variance_approaches_mree():
    gen = np.random.default_rng(616)
    cov = CovarianceSpec(sigma_xx=2.0, sigma_yy=3.0, sigma_xy=1.0)
    prior = PriorSpec(mu1=10.0, mu2=-10.0, m=1e8)
    for _ in range(100):
        x = gen.normal(0, 2, 2)
        y = gen.normal(0, 2, 2)
        a = LinexParams(float(gen.uniform(0.3, 2.0) * gen.choice([-1.0, 1.0])))
        s = select(ObservationPair((x[0], y[0]), (x[1], y[1])))
        mree = evaluate(EstimatorSpec.n2(), s, a, cov)
        assert est_bayes(s, prior, a, cov) == pytest.approx(mree, abs=1e-3)


@pytest.mark.parametrize(
    "m,cov_args,a",
    [
        (1.0, (1.0, 1.0, 0.0), 1.0),
        (4.0, (1.5, 2.5, 0.4), -0.8),
        (0.5, (2.0, 3.0, -0.6), 1.5),
    ],
)
def test_criterion6_bayes_risk_under_prior(m, cov_args, a):
    """Draw both means from the conjugate prior, then data, then loss; the
    average loss of the Bayes estimator must equal the closed-form constant."""
    cov = CovarianceSpec.from_correlation(cov_args[0], cov_args[1], cov_args[2])
    prior = PriorSpec(mu1=0.7, mu2=-0.3, m=m)
    a_p = LinexParams(a)
    reps = 400_000
    gen = rng_stream(ACCEPTANCE_SEED, 6, int(m * 10), int(a * 10) & 0xFFFF)
    sp = math.sqrt(m)
    th = gen.standard_normal((4, reps))
    th1x, th1y = prior.mu1 + sp * th[0], prior.mu2 + sp * th[1]
    th2x, th2y = prior.mu1 + sp * th[2], prior.mu2 + sp * th[3]
    l_xx, l_yx, l_yy = cov.cholesky_factors()
    g = gen.standard_normal((4, reps))
    x1 = th1x + l_xx * g[0]
    y1 = th1y + l_yx * g[0] + l_yy * g[1]
    x2 = th2x + l_xx * g[2]
    y2 = th2y + l_yx * g[2] + l_yy * g[3]
    sel1 = x1 > x2
    x_max = np.maximum(x1, x2)
    y_sel = np.where(sel1, y1, y2)
    theta_sel = np.where(sel1, th1y, th2y)
    det = cov.det
    denom = m * m + m * cov.sigma_xx + m * cov.sigma_yy + det
    p_star = (
        prior.mu2 * (det + m * cov.sigma_yy)
        + m * y_sel * (m + cov.sigma_xx)
        + m * cov.sigma_xy * (prior.mu1 - x_max)
    ) / denom
    q_star = (m * m * cov.sigma_yy + m * det) / denom
    est = p_star - 0.5 * a * q_star
    z = a * (est - theta_sel)
    losses = np.expm1(z) - z
    mean = float(losses.mean())
    se = float(losses.std(ddof=1) / math.sqrt(reps))
    expected = posterior_risk_constant(prior, a_p, cov)
    assert abs(mean - expected) <= 3 * se
    print(
        f"criterion 6 (m={m}, a={a}): PASS "
        f"(simulated Bayes risk {mean:.5f} vs constant {expected:.5f}, SE {se:.5f})"
    )


# ---------------------------------------------------------------------------
# criterion 7: admissibility bounds
# ---------------------------------------------------------------------------


def test_criterion7_bounds_match_grid_extrema():
    gen = np.random.default_rng(717)
    for _ in range(25):
        cov = CovarianceSpec.from_correlation(
            gen.uniform(0.4, 4.0), gen.uniform(0.4, 4.0), gen.uniform(-0.99, 0.99)
        )
        a = LinexParams(float(gen.uniform(0.25, 2.5) * gen.choice([-1.0, 1.0])))
        b = bounds(a, cov)
        span = abs(a.a * cov.sigma_xy) + 6.5 * math.sqrt(2 * cov.sigma_xx)
        values = [psi(ThetaStar(tx, 0.0), a, cov) for tx in np.linspace(0.0, span, 10_000)]
        assert min(values) == pytest.approx(b.d0, abs=1e-6)
        assert max(values) == pytest.approx(b.d1, abs=1e-6)
    print("criterion 7a: PASS (closed-form d0/d1 match inf/sup of psi on 1e4-point grids)")


def test_criterion7_mree_classified_admissible():
    gen = np.random.default_rng(718)
    for _ in range(100):
        cov = CovarianceSpec.from_correlation(
            gen.uniform(0.4, 4.0), gen.uniform(0.4, 4.0), gen.uniform(-1.0, 1.0)
        )
        a = LinexParams(float(gen.uniform(0.25, 2.5) * gen.choice([-1.0, 1.0])))
        assert classify(-a.a * cov.sigma_yy / 2, a, cov) == ADMISSIBLE_IN_CLASS
    print("criterion 7b: PASS (MREE shift admissible for 100 random configurations)")


# ---------------------------------------------------------------------------
# criterion 8: determinism
# ---------------------------------------------------------------------------


def test_criterion8_byte_identical_across_workers(tmp_path):
    from linexsel.cli import main

    outputs, manifests = [], []
    for name in ("r1", "r2"):  # the CLI sweeps on every CPU available to the process
        outdir = tmp_path / name
        code = main(
            ["simulate", "--table", "7", "--seed", "42", "--reps", str(REPS), "--out", str(outdir)]
        )
        assert code == 0
        outputs.append((outdir / "table7.csv").read_bytes())
        manifests.append((outdir / "simulate_manifest.json").read_bytes())
    for workers in (1, 8):
        outputs.append(risk_grid(7, REPS, 42, workers=workers).to_csv().encode())
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    assert manifests[0] == manifests[1]
    print("criterion 8: PASS (byte-identical CSVs across CLI reruns and 1 vs 8 workers)")
