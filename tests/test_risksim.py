import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linexsel import (
    CovarianceSpec,
    EstimatorSpec,
    InvalidParameterError,
    LinexOverflowError,
    LinexParams,
    MeanVectorPair,
    PriorSpec,
    SimConfig,
    TABLE_SPECS,
    ThetaStar,
    paired_risk_difference,
    risk_grid,
    simulate_all,
    simulate_risk,
)
from linexsel.risksim import THETA_CONFIGS, RiskEstimate, RiskTable, TableSpec, stream_group

from ._strategies import A, MEAN, PROPERTY, RHO, SCALE, SEED
from .reference import reference_cell, risk_quadrature_general

A1 = LinexParams(1.0)


def config(theta1=(0.0, 0.0), theta2=(0.0, 0.0), sxx=2.0, syy=2.0, rho=0.0,
           a=1.0, reps=20000, seed=7):
    return SimConfig(
        means=MeanVectorPair(theta1, theta2),
        cov=CovarianceSpec.from_correlation(sxx, syy, rho),
        a=LinexParams(a),
        reps=reps,
        master_seed=seed,
    )


class TestSimulateRisk:
    def test_deterministic(self):
        cfg = config()
        r1 = simulate_risk(cfg, EstimatorSpec.n1())
        r2 = simulate_risk(cfg, EstimatorSpec.n1())
        assert r1.mean_risk == r2.mean_risk
        assert r1.std_error == r2.std_error

    def test_published_anchor_cells(self):
        """Anchors from the published tables that the model reproduces."""
        # rho = 1 table at theta = 0: plug-in estimator
        cfg = config(rho=1.0, seed=42)
        est = simulate_risk(cfg, EstimatorSpec.n1())
        assert abs(est.mean_risk - 2.6445) <= 3 * est.std_error
        # rho = 0 table at theta = 0
        cfg0 = config(rho=0.0, seed=42)
        n1 = simulate_risk(cfg0, EstimatorSpec.n1())
        assert abs(n1.mean_risk - 1.7815) <= 3 * n1.std_error
        n2 = simulate_risk(cfg0, EstimatorSpec.n2())
        assert abs(n2.mean_risk - 0.9668) <= 3 * n2.std_error

    def test_exact_values_at_independence(self):
        # at rho = 0 the selected concomitant is N(0, syy): closed-form risks
        cfg = config(rho=0.0, reps=200_000, seed=3)
        n1 = simulate_risk(cfg, EstimatorSpec.n1())
        assert n1.mean_risk == pytest.approx(math.e - 1, abs=4 * n1.std_error)
        n2 = simulate_risk(cfg, EstimatorSpec.n2())
        assert n2.mean_risk == pytest.approx(1.0, abs=4 * n2.std_error)

    def test_matches_general_quadrature(self):
        cfg = config(theta1=(0.9, 0.4), theta2=(0.0, 1.3), sxx=1.5, syy=2.5,
                     rho=0.45, a=-0.8, reps=100_000, seed=11)
        for spec, phi_fn in [
            (EstimatorSpec.n1(), lambda t1, t2: np.zeros_like(t2)),
            (EstimatorSpec.shift(0.7), lambda t1, t2: np.full_like(t2, 0.7)),
            (EstimatorSpec.n4(1.0), lambda t1, t2: np.where(
                t1 > -math.sqrt(2 * 1.5), t2 / 2, 0.0)),
        ]:
            est = simulate_risk(cfg, spec)
            ref = risk_quadrature_general(phi_fn, cfg.means, cfg.cov, cfg.a)
            assert est.mean_risk == pytest.approx(ref, abs=3.5 * est.std_error)

    def test_se_scaling(self):
        # small sigma keeps the loss light-tailed so the SE estimate is stable
        ses = []
        for reps in (5000, 20000, 80000):
            cfg = config(reps=reps, sxx=0.25, syy=0.25, rho=0.5, seed=21)
            ses.append(simulate_risk(cfg, EstimatorSpec.n1()).std_error)
        assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.15)
        assert ses[1] / ses[2] == pytest.approx(2.0, rel=0.15)

    def test_reps_one_has_no_se(self):
        est = simulate_risk(config(reps=1), EstimatorSpec.n1())
        assert est.std_error is None
        assert est.reps == 1

    def test_overflow_aborts_with_diagnostic(self):
        cfg = config(reps=100)
        with pytest.raises(LinexOverflowError) as exc:
            simulate_risk(cfg, EstimatorSpec.shift(800.0))
        assert "rep=" in str(exc.value)

    def test_bayes_needs_nonsingular(self):
        cfg = config(rho=1.0)
        spec = EstimatorSpec.bayes(PriorSpec(0.0, 0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            simulate_risk(cfg, spec)

    def test_translation_invariance(self):
        base = config(theta1=(0.4, 1.2), theta2=(1.0, 0.2), rho=0.5, seed=5)
        (x1, y1), (x2, y2) = base.means.theta1, base.means.theta2
        c1, c2 = 13.0, -8.0
        shifted = SimConfig(
            means=MeanVectorPair((x1 + c1, y1 + c2), (x2 + c1, y2 + c2)), cov=base.cov, a=base.a,
            reps=base.reps, master_seed=base.master_seed,
        )
        for spec in (EstimatorSpec.n1(), EstimatorSpec.n3(),
                     EstimatorSpec.improved(EstimatorSpec.n2())):
            r0 = simulate_risk(base, spec)
            r1 = simulate_risk(shifted, spec)
            assert abs(r0.mean_risk - r1.mean_risk) <= 3 * math.hypot(r0.std_error, r1.std_error)

    def test_psi_shift_is_best(self):
        from linexsel import psi

        cfg = config(theta1=(1.0, 0.5), theta2=(0.0, 0.0), rho=0.6, a=1.0, seed=9)
        d_star = psi(ThetaStar(1.0, 0.5), cfg.a, cfg.cov)
        for d_other in (d_star - 0.5, d_star + 0.5, 0.0):
            diff, se = paired_risk_difference(
                cfg, EstimatorSpec.shift(d_star), EstimatorSpec.shift(d_other)
            )
            assert diff <= 2 * se


class TestPairedDifference:
    def test_identical_specs_gives_exact_zero(self):
        cfg = config(rho=0.5)
        diff, se = paired_risk_difference(cfg, EstimatorSpec.n2(), EstimatorSpec.n2())
        assert diff == 0.0
        assert se == 0.0

    def test_improvement_pairs_dominate(self):
        # concordant gap configuration, where the truncation band is valid
        cfg = config(theta1=(0.0, 0.0), theta2=(1.8, 1.8), rho=-0.5, a=1.0, seed=13)
        for base in (EstimatorSpec.n1(), EstimatorSpec.n2()):
            diff, se = paired_risk_difference(cfg, base, EstimatorSpec.improved(base))
            assert diff >= -2 * se

    def test_paired_dominance_at_negative_rho(self):
        cfg = config(theta1=(0.0, 0.0), theta2=(1.8, 1.8), rho=-1.0, a=1.0, seed=17)
        diff, se = paired_risk_difference(
            cfg, EstimatorSpec.n1(), EstimatorSpec.improved(EstimatorSpec.n1())
        )
        assert diff >= -2 * se


class TestRiskGrid:
    def test_shape_and_layout(self):
        table = risk_grid(5, reps=50, master_seed=1)
        assert len(table.spec.rows) == 11
        labels = [lab for lab, _ in table.spec.columns]
        assert labels == ["N1", "N1_I1", "N2", "N2_I2", "N3", "N4"]
        assert len(table.estimates) == 66

    def test_table_layouts_match_published_columns(self):
        expected = {
            5: ["N1", "N1_I1", "N2", "N2_I2", "N3", "N4"],
            6: ["N1", "N1_I3", "N2", "N2_I1", "N3", "N3_I3", "N4", "N4_I2"],
            7: ["N1", "N2", "N3", "N3_I4", "N4"],
            8: ["N1", "N2", "N3", "N4"],
            9: ["N1", "N1_I2", "N2", "N2_I2", "N3", "N3_I3", "N4", "N4_I4"],
            10: ["N1", "N1_I4", "N2", "N3", "N4", "N4_I5"],
        }
        for tid, cols in expected.items():
            assert [lab for lab, _ in TABLE_SPECS[tid].columns] == cols

    def test_csv_format(self):
        table = risk_grid(7, reps=60, master_seed=4)
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "theta1_x,theta1_y,theta2_x,theta2_y,estimator,risk,std_error,reps,seed"
        assert len(lines) == 1 + 11 * 5
        first = lines[1].split(",")
        assert first[:5] == ["0.2", "2", "2", "0.2", "N1"]
        assert first[7:] == ["60", "4"]

    def test_truncation_never_fires_at_rho_plus_one(self):
        # at rho = +1 the sampled (T1, T2) never leave the band, so table 5's
        # improved columns equal their bases exactly (unlike rho = -1, see
        # KNIFE_EDGE_COLUMNS in tests/_tables.py)
        table = risk_grid(5, reps=500, master_seed=42)
        col = {lab: j for j, (lab, _) in enumerate(table.spec.columns)}
        for i in range(len(table.spec.rows)):
            for base, improved in (("N1", "N1_I1"), ("N2", "N2_I2")):
                got, want = table.cell(i, col[improved]), table.cell(i, col[base])
                assert (got.mean_risk, got.std_error) == (want.mean_risk, want.std_error)

    def test_workers_do_not_change_bytes(self):
        a = risk_grid(7, reps=500, master_seed=42, workers=1).to_csv()
        b = risk_grid(7, reps=500, master_seed=42, workers=8).to_csv()
        assert a == b

    def test_adding_columns_keeps_existing_cells(self):
        # same stream key (table, row, group) regardless of which columns run
        full = risk_grid(6, reps=400, master_seed=2)
        spec = TABLE_SPECS[6]
        slim_spec = type(spec)(
            table_id=6, a=spec.a, cov=spec.cov,
            columns=tuple((lab, s) for lab, s in spec.columns if lab in ("N1", "N3")),
            rows=spec.rows, c=spec.c,
        )
        slim = risk_grid(slim_spec, reps=400, master_seed=2)
        full_cols = {lab: j for j, (lab, _) in enumerate(spec.columns)}
        for i in range(11):
            assert slim.cell(i, 0).mean_risk == full.cell(i, full_cols["N1"]).mean_risk
            assert slim.cell(i, 1).mean_risk == full.cell(i, full_cols["N3"]).mean_risk

    def test_mirror_rows_agree(self):
        # relabeled configurations (row i vs row 10-i) are equal in
        # distribution; 4 sigma absorbs the noisy SE estimates of the
        # heavy-tailed log-estimator columns
        table = risk_grid(7, reps=20000, master_seed=8)
        for j in range(5):
            for i, k in [(0, 10), (1, 9), (2, 8), (3, 7), (4, 6)]:
                a, b = table.cell(i, j), table.cell(k, j)
                tol = 4 * math.hypot(a.std_error, b.std_error)
                assert abs(a.mean_risk - b.mean_risk) <= tol

    def test_reps_one_emits_blank_se(self):
        table = risk_grid(8, reps=1, master_seed=3)
        line = table.to_csv().strip().split("\n")[1]
        fields = line.split(",")
        assert fields[6] == ""

    def test_high_variance_flagging(self):
        table = risk_grid(10, reps=2000, master_seed=5)
        flagged = table.flagged
        assert any(label == "N3" for _, label, _, _ in flagged)

    def test_flag_threshold_is_five_percent_strict(self):
        mean = 3.7
        at = 0.05 * abs(mean)
        table = RiskTable(TABLE_SPECS[7], reps=100, master_seed=1, estimates={
            (0, 0): RiskEstimate(mean, at, 100, 1),
            (0, 1): RiskEstimate(-mean, math.nextafter(at, math.inf), 100, 1),
        })
        assert table.flagged == [(0, TABLE_SPECS[7].columns[1][0], -mean, math.nextafter(at, math.inf))]

    def test_stream_groups(self):
        assert stream_group(EstimatorSpec.n1()) == stream_group(
            EstimatorSpec.improved(EstimatorSpec.n1())
        )
        assert stream_group(EstimatorSpec.n1()) != stream_group(EstimatorSpec.n2())


def test_simulate_all_shares_draws():
    cfg = SimConfig(
        means=MeanVectorPair((0.0, 0.0), (0.0, 0.0)),
        cov=CovarianceSpec.from_correlation(2.0, 2.0, 0.0),
        a=A1,
        reps=5000,
        master_seed=12,
        estimators=(EstimatorSpec.n1(), EstimatorSpec.shift(0.0)),
    )
    out = simulate_all(cfg)
    assert out["N1"].mean_risk == out["Shift(d=0)"].mean_risk


def test_theta_configs_are_the_published_grid():
    assert len(THETA_CONFIGS) == 11
    assert THETA_CONFIGS[5].theta1 == (0.0, 0.0)
    assert THETA_CONFIGS[0].theta1 == (0.2, 2.0)
    assert THETA_CONFIGS[0].theta2 == (2.0, 0.2)


def _bits(x):
    return None if x is None else float(x).hex()


class TestWorkspaceCells:
    """Cells run through one reused workspace give the plain reference's bits."""

    @PROPERTY
    @given(
        a=A,
        sxx=SCALE,
        syy=SCALE,
        rho=RHO,
        means=st.tuples(MEAN, MEAN, MEAN, MEAN),
        c=st.floats(0.0, 3.0),
        reps=st.sampled_from([1, 2, 3, 257, 5000]),
        seed=SEED,
    )
    # at |rho| = 1 the cell draws three rows where the reference draws four;
    # a -0.0 theta_y makes it draw all four
    @example(a=1.5, sxx=2.0, syy=3.0, rho=1.0, means=(0.5, -0.0, -0.5, 2.0), c=1.0, reps=5000, seed=7)
    @example(a=-1.0, sxx=2.0, syy=3.0, rho=1.0, means=(0.5, 0.0, 1.0, 0.0), c=0.5, reps=257, seed=8)
    @example(a=1.5, sxx=2.0, syy=3.0, rho=-1.0, means=(0.5, 1.0, -0.5, -0.0), c=1.0, reps=5000, seed=9)
    @example(a=-1.0, sxx=2.0, syy=3.0, rho=-1.0, means=(0.0, 0.0, 0.5, 2.0), c=0.5, reps=257, seed=10)
    def test_cells_match_the_reference_bit_for_bit(self, a, sxx, syy, rho, means, c, reps, seed):
        cov = CovarianceSpec.from_correlation(sxx, syy, rho)
        pair = MeanVectorPair(means[:2], means[2:])
        bases = [EstimatorSpec.n1(), EstimatorSpec.n2(), EstimatorSpec.n3(), EstimatorSpec.n4(c)]
        groups = [[base, EstimatorSpec.improved(base)] for base in bases]
        spec = TableSpec(table_id=3, a=LinexParams(a), cov=cov, rows=(pair,),
                         columns=tuple((e.label, e) for group in groups for e in group))
        config = SimConfig(means=pair, cov=cov, a=LinexParams(a), reps=reps, master_seed=seed)
        expected = [cell for g, group in enumerate(groups)
                    for cell in reference_cell(config, group, (3, 0, g))]
        # the four cells, one per stream group, run through one workspace in turn
        table = risk_grid(spec, reps, seed, workers=1)
        got = [table.cell(0, j) for j in range(len(spec.columns))]
        assert [(_bits(e.mean_risk), _bits(e.std_error)) for e in got] == [
            (_bits(m), _bits(se)) for m, se in expected
        ]

    @PROPERTY
    @given(
        a=A,
        sxx=SCALE,
        syy=SCALE,
        rho=st.one_of(st.just(0.0), st.floats(-0.99, 0.99)),
        means=st.tuples(MEAN, MEAN, MEAN, MEAN),
        d=MEAN,
        prior=st.tuples(MEAN, MEAN, SCALE),
        reps=st.sampled_from([1, 2, 3, 257, 5000]),
        seed=SEED,
    )
    def test_shift_and_bayes_columns_match_the_reference(
        self, a, sxx, syy, rho, means, d, prior, reps, seed
    ):
        """Shift and Bayes share a cell with N1 and its improved form, bit for bit."""
        cov = CovarianceSpec.from_correlation(sxx, syy, rho)
        specs = (EstimatorSpec.n1(), EstimatorSpec.improved(EstimatorSpec.n1()),
                 EstimatorSpec.shift(d), EstimatorSpec.bayes(PriorSpec(*prior)))
        config = SimConfig(means=MeanVectorPair(means[:2], means[2:]), cov=cov,
                           a=LinexParams(a), reps=reps, master_seed=seed, estimators=specs)
        got = simulate_all(config)
        assert [(_bits(got[e.label].mean_risk), _bits(got[e.label].std_error)) for e in specs] == [
            (_bits(m), _bits(se)) for m, se in reference_cell(config, list(specs), ())
        ]


def test_concurrent_sweeps_keep_their_own_workspaces():
    # two sweeps at once, four pool threads on the CPUs between them, switching
    # often: each still gives its serial bytes, so no workspace is shared
    tables = (6, 9)
    serial = {t: risk_grid(t, reps=2000, master_seed=42, workers=1).to_csv() for t in tables}
    start = threading.Barrier(len(tables))
    got = {}

    def sweep(t):
        start.wait()
        got[t] = risk_grid(t, reps=2000, master_seed=42, workers=2).to_csv()

    threads = [threading.Thread(target=sweep, args=(t,)) for t in tables]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == serial


def test_no_buffer_outlives_the_call():
    # a 20000-rep vector is 160 kB; nothing of that size stays behind
    cfg = config(reps=20000, rho=0.5)
    est = EstimatorSpec.improved(EstimatorSpec.n3())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        risk_grid(7, reps=20000, master_seed=1, workers=2)
        simulate_risk(cfg, est)
        simulate_all(SimConfig(cfg.means, cfg.cov, cfg.a, cfg.reps, 1, (est, EstimatorSpec.n1())))
        paired_risk_difference(cfg, est, est.base)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 50_000
