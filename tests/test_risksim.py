import itertools
import math
import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linexsel import (
    CovarianceSpec,
    EstimatorSpec,
    InvalidParameterError,
    LinexError,
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
from linexsel import risksim
from linexsel.core import replace
from linexsel.risksim import (
    THETA_CONFIGS, CellWorkspace, RiskEstimate, RiskTable, TableSpec, stream_group, table_columns,
)

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

    def test_threshold_is_the_n4_columns(self):
        # c is read off the grid's N4 column, so the two cannot disagree
        cov = CovarianceSpec.from_correlation(2.0, 2.0, 0.5)
        spec = TableSpec(table_id=0, a=A1, cov=cov, columns=table_columns(1.0, 0.5, (), 2.0))
        assert spec.c == 2.0
        assert TableSpec(table_id=0, a=A1, cov=cov, columns=spec.columns[:3]).c is None
        assert {t.c for t in TABLE_SPECS.values()} == {1.0}

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
            rows=spec.rows,
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
            (0, 0): RiskEstimate(mean, at),
            (0, 1): RiskEstimate(-mean, math.nextafter(at, math.inf)),
        })
        assert table.flagged == [(0, TABLE_SPECS[7].columns[1][0], -mean, math.nextafter(at, math.inf))]

    def test_stream_groups(self):
        assert stream_group(EstimatorSpec.n1()) == stream_group(
            EstimatorSpec.improved(EstimatorSpec.n1())
        )
        assert stream_group(EstimatorSpec.n1()) != stream_group(EstimatorSpec.n2())


class TestMemoryRefusal:
    """Every entry point weighs its threads' workspaces against physical memory first.

    A 4 MiB machine is faked, so nothing large is allocated.
    """

    @pytest.fixture(autouse=True)
    def small_machine(self, monkeypatch):
        pages = {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])

    @pytest.mark.parametrize("entry", [
        "risk_grid", "simulate_risk", "simulate_all", "paired_risk_difference",
    ])
    def test_sweep_too_large_is_refused_before_any_workspace(self, monkeypatch, entry):
        def built(*args, **kwargs):
            raise AssertionError("a workspace was built")

        monkeypatch.setattr(CellWorkspace, "__init__", built)
        # 100000 reps take about 11 MiB on one thread
        cfg = replace(config(reps=100000), estimators=(EstimatorSpec.n1(), EstimatorSpec.n2()))
        calls = {
            "risk_grid": lambda: risk_grid(7, reps=100000, master_seed=0, workers=1),
            "simulate_risk": lambda: simulate_risk(cfg, EstimatorSpec.n1()),
            "simulate_all": lambda: simulate_all(cfg),
            "paired_risk_difference": lambda: paired_risk_difference(
                cfg, EstimatorSpec.n1(), EstimatorSpec.n2()),
        }
        with pytest.raises(MemoryError, match="physical memory"):
            calls[entry]()

    def test_threads_are_counted_up_to_the_cells(self):
        # one cell runs on one thread whatever the worker count: one 2.4 MB
        # workspace fits, 64 of them would not
        spec = TableSpec(
            table_id=0, a=A1, cov=CovarianceSpec.from_correlation(2.0, 2.0, 0.5),
            columns=(("N1", EstimatorSpec.n1()),), rows=THETA_CONFIGS[:1],
        )
        table = risk_grid(spec, reps=20000, master_seed=0, workers=64)
        assert list(table.estimates) == [(0, 0)]
        assert math.isfinite(table.cell(0, 0).mean_risk)


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


def test_simulate_all_refuses_no_estimators():
    with pytest.raises(InvalidParameterError, match=r"^config\.estimators must be nonempty$"):
        simulate_all(config(reps=10))


def test_simulate_all_refuses_repeated_labels():
    # labels print c and d with :g, so close thresholds share one; a dict keyed
    # by label would keep only the last column of each
    cfg = replace(config(reps=10), estimators=(
        EstimatorSpec.n4(1.0), EstimatorSpec.n4(1.0000001),
        EstimatorSpec.shift(0.1), EstimatorSpec.shift(0.10000001),
    ))
    with pytest.raises(InvalidParameterError, match=r"repeat the label 'N4\(c=1\)'"):
        simulate_all(cfg)


@pytest.mark.parametrize("change, message", [
    ({"reps": 2.5}, r"^reps must be an integer, got 2\.5$"),
    ({"reps": True}, r"^reps must be an integer, got True$"),
    ({"reps": 0}, r"^reps must be >= 1, got 0$"),
    ({"master_seed": 1.5}, r"^master seed must be an integer, got 1\.5$"),
    ({"master_seed": False}, r"^master seed must be an integer, got False$"),
    ({"master_seed": -1}, r"^master seed must be nonnegative$"),
])
def test_config_refuses_reps_and_seeds_that_are_not_valid_ints(change, message):
    # a float once reached numpy's sampler or SeedSequence and failed there with a TypeError
    with pytest.raises(InvalidParameterError, match=message):
        replace(config(reps=10), **change)
    args = {"reps": 10, "master_seed": 0, **change}
    with pytest.raises(InvalidParameterError, match=message):
        risk_grid(7, args["reps"], args["master_seed"], workers=1)


@pytest.mark.parametrize("change, message", [
    ({"rows": ()}, r"^a grid needs rows and columns, got 0 rows and 5 columns$"),
    ({"columns": ()}, r"^a grid needs rows and columns, got 11 rows and 0 columns$"),
], ids=["rows", "columns"])
def test_an_empty_grid_is_refused(change, message):
    # an empty grid once reached the block height and divided by zero
    with pytest.raises(InvalidParameterError, match=message):
        replace(TABLE_SPECS[7], **change)


@pytest.mark.parametrize("table_id, message", [
    (1.5, r"^table id must be an integer, got 1\.5$"),
    (True, r"^table id must be an integer, got True$"),
    ("3", r"^table id must be an integer, got '3'$"),
    (-1, r"^table id must be nonnegative$"),
], ids=["float", "bool", "str", "negative"])
def test_a_grid_refuses_table_ids_that_are_not_nonnegative_ints(table_id, message):
    # the id keys every cell's stream: 1.5 and True once drew table 1's cells,
    # "3" table 3's, and -1 failed in numpy with a bare ValueError
    with pytest.raises(InvalidParameterError, match=message):
        replace(TABLE_SPECS[7], table_id=table_id)


def test_a_numpy_integer_table_id_is_its_int():
    spec = replace(TABLE_SPECS[7], table_id=np.int64(7))
    assert type(spec.table_id) is int and spec == TABLE_SPECS[7]


def test_a_grid_runs_a_numpy_integer_table_id():
    table = risk_grid(np.int64(7), reps=10, workers=1)
    assert table.spec is TABLE_SPECS[7]
    assert table.to_csv() == risk_grid(7, reps=10, workers=1).to_csv()


@pytest.mark.parametrize("table, message", [
    (7.0, r"^table id must be an integer, got 7\.0$"),
    ("7", r"^table id must be an integer, got '7'$"),
    (True, r"^table id must be an integer, got True$"),
    (None, r"^table id must be an integer, got None$"),
    (-1, r"^table id must be nonnegative$"),
    (np.int64(4), r"^table id must be one of \[5, 6, 7, 8, 9, 10\], got 4$"),
])
def test_a_grid_refuses_a_table_that_is_no_table_id(table, message):
    with pytest.raises(InvalidParameterError, match=message):
        risk_grid(table, reps=10, workers=1)


def test_a_grid_refuses_repeated_labels():
    # two N1 rows per mean row in the CSV, which `flagged` could not tell apart
    cols = TABLE_SPECS[7].columns
    with pytest.raises(InvalidParameterError, match=r"^columns repeat the label 'N1'$"):
        replace(TABLE_SPECS[7], columns=cols + cols[:1])


def test_a_stream_key_part_must_be_a_nonnegative_int():
    # 2.9 once drew stream (2,)
    cfg = config(reps=10)
    with pytest.raises(InvalidParameterError, match=r"^stream key part must be an integer, got 2\.9$"):
        simulate_risk(cfg, EstimatorSpec.n1(), (2.9,))
    assert simulate_risk(cfg, EstimatorSpec.n1(), (np.int64(2),)) == simulate_risk(
        cfg, EstimatorSpec.n1(), (2,)
    )


@pytest.mark.parametrize("workers, message", [
    (2.5, r"^workers must be an integer, got 2\.5$"),
    (True, r"^workers must be an integer, got True$"),
    ("2", r"^workers must be an integer, got '2'$"),
    (0, r"^workers must be >= 1, got 0$"),
], ids=["float", "bool", "str", "zero"])
def test_grid_refuses_workers_that_are_not_valid_ints(workers, message):
    # 2.5 once ran on a pool of max_workers=2.5, True as 1, and "2" failed comparing with 1
    with pytest.raises(InvalidParameterError, match=message):
        risk_grid(7, reps=10, master_seed=0, workers=workers)


def test_a_grid_runs_numpy_integer_reps_workers_and_seed():
    # reps and workers once had their own isinstance(..., int) check, which refused
    # np.int64(100), and the table kept an np.int64 seed, which json cannot write
    table = risk_grid(7, reps=np.int64(100), master_seed=np.int64(3), workers=np.int64(1))
    assert type(table.reps) is int and type(table.master_seed) is int
    assert table.to_csv() == risk_grid(7, reps=100, master_seed=3, workers=1).to_csv()


def test_config_takes_numpy_integer_reps_as_their_int():
    cfg = replace(config(reps=10), reps=np.int64(5))
    assert type(cfg.reps) is int and cfg == config(reps=5)


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


def _overflowing_grid() -> TableSpec:
    """Three rows: row 1 overflows in its improved N4 column alone, row 2 already in N4."""
    n4 = EstimatorSpec.n4(1.0)
    return TableSpec(
        table_id=0, a=LinexParams(2.0), cov=CovarianceSpec.from_correlation(1.0, 1.0, -0.5),
        columns=(("N1", EstimatorSpec.n1()), ("N4", n4), ("N4_I2", EstimatorSpec.improved(n4))),
        rows=(MeanVectorPair((0.0, 0.0), (0.0, 0.0)),
              MeanVectorPair((5000.0, 0.0), (0.0, 1000.0)),
              MeanVectorPair((0.0, 0.0), (0.0, 1000.0))),
    )


class TestBlocks:
    """A grid runs k rows of one column group at once, with the bits of each cell alone."""

    @PROPERTY
    @given(
        a=A,
        sxx=SCALE,
        syy=SCALE,
        rho=RHO,
        rows=st.lists(st.tuples(MEAN, MEAN, MEAN, MEAN), min_size=2, max_size=6),
        reps=st.sampled_from([1, 2, 257, 5000]),
        workers=st.sampled_from([1, 2, 3]),
        seed=SEED,
    )
    # 5000 reps: blocks of 4 rows on one thread (4 + 2), of 2 on two (2 + 2 + 1)
    @example(a=1.0, sxx=2.0, syy=2.0, rho=0.5, rows=[(0.5, 1.0, 0.0, 0.0)] * 6, reps=5000,
             workers=1, seed=1)
    @example(a=-1.0, sxx=4.0, syy=4.0, rho=-1.0, rows=[(0.0, -0.0, 1.0, 0.5), (0.3, 0.2, 0.0, 0.1),
             (0.0, 0.0, -0.0, -0.0), (1.0, 1.0, 0.0, 0.0), (2.0, 0.2, 0.2, 2.0)], reps=5000,
             workers=2, seed=2)
    def test_every_cell_matches_the_reference_bit_for_bit(
        self, a, sxx, syy, rho, rows, reps, workers, seed
    ):
        cov = CovarianceSpec.from_correlation(sxx, syy, rho)
        pairs = tuple(MeanVectorPair(m[:2], m[2:]) for m in rows)
        bases = [EstimatorSpec.n1(), EstimatorSpec.n2(), EstimatorSpec.n3(), EstimatorSpec.n4(1.0)]
        groups = [[base, EstimatorSpec.improved(base)] for base in bases]
        spec = TableSpec(table_id=4, a=LinexParams(a), cov=cov, rows=pairs,
                         columns=tuple((e.label, e) for group in groups for e in group))
        table = risk_grid(spec, reps, seed, workers)
        for i, pair in enumerate(pairs):
            config = SimConfig(means=pair, cov=cov, a=LinexParams(a), reps=reps, master_seed=seed)
            expected = [cell for g, group in enumerate(groups)
                        for cell in reference_cell(config, group, (4, i, g))]
            got = [table.cell(i, j) for j in range(len(spec.columns))]
            assert [(_bits(e.mean_risk), _bits(e.std_error)) for e in got] == [
                (_bits(m), _bits(se)) for m, se in expected
            ]

    @pytest.mark.parametrize("reps, workers, heights", [
        (20000, 1, {1}),  # a published-table cell fills the budget alone
        (2000, 2, {5, 1}),  # 20000 // (2000 * 2) = 5 rows: 5 + 5 + 1
        (100, 64, {11}),  # 11 cells on min(64, 11) threads: blocks of 18 hold every row
    ])
    def test_block_height_spends_the_rep_cell_budget(self, monkeypatch, reps, workers, heights):
        built = []
        init = CellWorkspace.__init__

        def recorded(self, rows, reps, columns):
            init(self, rows, reps, columns)
            built.append(rows)

        monkeypatch.setattr(CellWorkspace, "__init__", recorded)
        spec = TableSpec(table_id=0, a=A1, cov=CovarianceSpec.from_correlation(2.0, 2.0, 0.5),
                         columns=(("N1", EstimatorSpec.n1()),))
        risk_grid(spec, reps=reps, master_seed=0, workers=workers)
        assert set(built) == heights

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_thread_builds_one_workspace(self, monkeypatch, workers):
        # blocks of one row at 20000 reps: every thread reuses the one it built
        built = []
        init = CellWorkspace.__init__

        def recorded(self, rows, reps, columns):
            init(self, rows, reps, columns)
            built.append(threading.get_ident())

        monkeypatch.setattr(CellWorkspace, "__init__", recorded)
        risk_grid(7, reps=20000, master_seed=0, workers=workers)
        assert 1 <= len(built) == len(set(built)) <= workers
        # the calling thread works beside its helpers
        assert threading.get_ident() in built

    def test_a_thread_drops_its_workspace_before_building_another(self, monkeypatch):
        # 2000 reps on two threads: blocks of 5, 5 and 1 rows, so a thread that
        # goes on to a one-row block builds a second workspace
        live = {}  # thread ident -> its workspaces and their draw blocks, weakly
        alive_at_build = []
        init = CellWorkspace.__init__

        def counted(self, rows, reps, columns):
            workspaces, draw_blocks = live.setdefault(threading.get_ident(), (weakref.WeakSet(), []))
            alive_at_build.append(len(workspaces) + sum(ref() is not None for ref in draw_blocks))
            init(self, rows, reps, columns)
            workspaces.add(self)
            draw_blocks.append(weakref.ref(self.draws))

        monkeypatch.setattr(CellWorkspace, "__init__", counted)
        risk_grid(7, reps=2000, master_seed=0, workers=2)
        assert len(alive_at_build) > len(live)  # some thread built twice
        assert alive_at_build == [0] * len(alive_at_build)

    def test_row_reductions_match_one_row_at_a_time(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 8, 9, 127, 128, 129, 5000, 20001):
            block = rng.standard_exponential((3, n)) ** 3
            assert [_bits(x) for x in np.add.reduce(block, axis=-1)] == [
                _bits(np.add.reduce(row)) for row in block
            ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_error_is_the_first_a_cell_by_cell_run_meets(self, workers):
        # at 100 reps one block holds the N4 group's three rows: row 1 overflows
        # only in its improved column (x far apart, so N4 is y_sel, but the clip
        # to t2/2 - a*syy/4 lands near 500), row 2 already in N4 (inside the
        # window N4 averages y's 1000 apart); a block computes N4 for both rows
        # first, a cell-by-cell run meets row 1 first. At 20000 reps the blocks
        # hold one row each and take the same path.
        spec = _overflowing_grid()

        def cell_by_cell(reps):
            for i, means in enumerate(spec.rows):
                config = SimConfig(means, spec.cov, spec.a, reps, 5)
                for _, est in spec.columns:
                    try:
                        simulate_risk(config, est, (0, i, stream_group(est)))
                    except LinexError as exc:
                        return exc
            raise AssertionError("no cell failed")

        for reps in (100, 20000):
            expected = cell_by_cell(reps)
            assert isinstance(expected, LinexOverflowError)
            assert "[Improved[N4(c=1)] rep=" in str(expected)
            with pytest.raises(LinexError) as info:
                risk_grid(spec, reps=reps, master_seed=5, workers=workers)
            assert type(info.value) is type(expected)
            # the grid names the cell by its row and column, the lone cell by its label
            assert info.value.exponent == expected.exponent
            assert str(info.value) == str(expected).replace(
                "[Improved[N4(c=1)] rep=", "[row 1, column N4_I2 rep="
            )

    def test_a_non_finite_standard_error_names_its_row_and_column(self):
        # the CLI's two-rep example: rows 3 (N4) and 10 (N3) square deviations past
        # the double range while their means stay finite
        cov = CovarianceSpec(8742.683938965236, 16.789573969110535, 137.61638511179694)
        spec = TableSpec(table_id=0, a=LinexParams(37.0), cov=cov,
                         columns=table_columns(37.0, cov.rho, (), 1.0))
        for workers in (1, 2):
            with pytest.raises(LinexError, match=r"^row 3, column N4: .* standard error inf\)$"):
                risk_grid(spec, reps=2, master_seed=0, workers=workers)
        config = SimConfig(THETA_CONFIGS[10], cov, LinexParams(37.0), 2, 0)
        with pytest.raises(LinexError, match=r"^N3: the risk estimate left the double range"):
            simulate_risk(config, EstimatorSpec.n3(), (0, 10, 2))


def test_concurrent_sweeps_keep_their_own_workspaces():
    # two sweeps at once, four threads on the CPUs between them, switching
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


def test_one_row_blocks_on_two_threads_give_the_serial_bytes():
    # 10000 reps on two threads: blocks of one row, as the published tables run,
    # each thread's draw overlapping the other's turn, switching often
    serial = risk_grid(9, reps=10000, master_seed=42, workers=1).to_csv()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = risk_grid(9, reps=10000, master_seed=42, workers=2).to_csv()
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def _in_a_thread(sweep) -> dict:
    """What `sweep()` returned or raised, run in a thread that must end within a minute.

    Every thread the sweep started must have ended with it.
    """
    out = {}
    threads = threading.active_count()

    def target():
        try:
            out["result"] = sweep()
        except BaseException as exc:
            out["error"] = exc

    th = threading.Thread(target=target)
    th.start()
    th.join(timeout=60)
    assert not th.is_alive(), "a sweep's thread still waits for its turn"
    assert threading.active_count() == threads
    return out


class TestTurn:
    """A sweep's threads draw at once and take turns at the rest of a block."""

    def test_an_error_releases_the_turn(self, monkeypatch):
        serial = risk_grid(7, reps=2000, master_seed=3, workers=1).to_csv()
        kernel = risksim.evaluate_batch
        calls = itertools.count(1)

        def third_call_fails(*args):
            if next(calls) == 3:
                raise RuntimeError("a kernel failed")
            return kernel(*args)

        monkeypatch.setattr(risksim, "evaluate_batch", third_call_fails)
        out = _in_a_thread(lambda: risk_grid(7, reps=2000, master_seed=3, workers=2))
        assert str(out["error"]) == "a kernel failed"
        monkeypatch.undo()
        assert risk_grid(7, reps=2000, master_seed=3, workers=2).to_csv() == serial

    def test_an_error_stops_the_sweep_at_once(self, monkeypatch):
        # 12 blocks on two threads, the first kernel call fails and the rest would
        # not: only the block the other thread already holds may still draw
        kernel, draw = risksim.evaluate_batch, risksim.sample_block
        failed, late = threading.Event(), []

        def first_call_fails(*args):
            if not failed.is_set():
                failed.set()
                raise RuntimeError("a kernel failed")
            return kernel(*args)

        def counted(*args):
            if failed.is_set():
                late.append(threading.get_ident())
            return draw(*args)

        monkeypatch.setattr(risksim, "evaluate_batch", first_call_fails)
        monkeypatch.setattr(risksim, "sample_block", counted)
        out = _in_a_thread(lambda: risk_grid(7, reps=2000, master_seed=3, workers=2))
        assert str(out["error"]) == "a kernel failed"
        assert len(late) <= 1  # threads - 1

    def test_an_interrupt_on_the_calling_thread_propagates(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        kernel, caller, raised = risksim.evaluate_batch, [], []

        def interrupted(*args):
            if threading.get_ident() in caller:
                raised.append(Interrupt())
                raise raised[-1]
            return kernel(*args)

        def sweep():
            caller.append(threading.get_ident())
            return risk_grid(7, reps=2000, master_seed=3, workers=2)

        monkeypatch.setattr(risksim, "evaluate_batch", interrupted)
        # _in_a_thread also checks that no helper outlives the sweep
        out = _in_a_thread(sweep)
        assert len(raised) == 1
        assert out["error"] is raised[0]

    def test_a_loss_error_at_one_row_blocks_is_the_serial_one(self):
        # 10000 reps on two threads: 20000 // (10000 * 2) = 1 row a block
        spec = _overflowing_grid()
        with pytest.raises(LinexOverflowError) as serial:
            risk_grid(spec, reps=10000, master_seed=5, workers=1)
        out = _in_a_thread(lambda: risk_grid(spec, reps=10000, master_seed=5, workers=2))
        assert type(out["error"]) is LinexOverflowError
        assert str(out["error"]) == str(serial.value)
        assert "[row 1, column N4_I2 rep=" in str(serial.value)

    def test_draws_overlap(self, monkeypatch):
        # each thread's first draw waits for the other's: only draws taken
        # outside the turn can meet
        draw, both = risksim.sample_block, threading.Barrier(2, timeout=10)
        drawn = threading.local()

        def meet_first(*args):
            if not getattr(drawn, "once", False):
                drawn.once = True
                both.wait()
            return draw(*args)

        monkeypatch.setattr(risksim, "sample_block", meet_first)
        out = _in_a_thread(lambda: risk_grid(7, reps=2000, master_seed=3, workers=2))
        monkeypatch.undo()
        assert out["result"] == risk_grid(7, reps=2000, master_seed=3, workers=1)

    def test_kernel_passes_never_overlap(self, monkeypatch):
        # two blocks' passes would meet at the barrier; taking turns, the first
        # waits alone until it breaks
        select, both = risksim.select_batch, threading.Barrier(2, timeout=1)

        def meet(*args):
            both.wait()
            return select(*args)

        monkeypatch.setattr(risksim, "select_batch", meet)
        out = _in_a_thread(lambda: risk_grid(7, reps=2000, master_seed=3, workers=2))
        assert isinstance(out.get("error"), threading.BrokenBarrierError)


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


class TestStackedPass:
    """A block's columns share one selection mask, one clip band and one loss pass."""

    def test_an_earlier_mean_error_comes_before_a_later_overflow(self):
        # y's variance is tiny, so each shift column's exponent is about d at every
        # rep: at d = 600 every loss is finite but their squared deviations are
        # not, at d = 800 the exponent passes 700. Checked column by column, the
        # first column's standard error fails before the second column's loss does.
        cfg = SimConfig(MeanVectorPair((1.0, 0.0), (0.0, 0.0)),
                        CovarianceSpec.from_correlation(1.0, 1e-6, 0.0), A1, 50, 3)
        first, later = EstimatorSpec.shift(600.0), EstimatorSpec.shift(800.0)
        with pytest.raises(LinexError) as alone:
            simulate_all(replace(cfg, estimators=(first,)))
        assert type(alone.value) is LinexError
        assert str(alone.value).startswith("Shift(d=600): the risk estimate left the double range")
        assert str(alone.value).endswith("standard error inf)")
        with pytest.raises(LinexOverflowError):
            simulate_all(replace(cfg, estimators=(later,)))
        with pytest.raises(LinexError) as both:
            simulate_all(replace(cfg, estimators=(first, later)))
        assert type(both.value) is LinexError
        assert str(both.value) == str(alone.value)

    def test_an_earlier_overflow_is_raised_though_a_later_column_is_finite(self):
        # every column's loss is checked, not only the last one's
        cfg = config(reps=100)
        with pytest.raises(LinexOverflowError) as alone:
            simulate_risk(cfg, EstimatorSpec.shift(800.0))
        with pytest.raises(LinexOverflowError) as both:
            simulate_all(replace(cfg, estimators=(EstimatorSpec.shift(800.0), EstimatorSpec.n1())))
        assert str(both.value) == str(alone.value)
        assert "[Shift(d=800) rep=" in str(both.value)

    def test_an_exponent_past_the_limit_is_refused_though_its_loss_is_finite(self):
        # exp(705) is a double, so the mean and the loss pass; only the exponent
        # check of the first column, which is not the last, refuses it
        cfg = SimConfig(MeanVectorPair((1.0, 0.0), (0.0, 0.0)),
                        CovarianceSpec.from_correlation(1.0, 1e-6, 0.0), A1, 1, 3)
        shift = EstimatorSpec.shift(705.0)
        with pytest.raises(LinexOverflowError) as alone:
            simulate_risk(cfg, shift)
        with pytest.raises(LinexOverflowError) as both:
            simulate_all(replace(cfg, estimators=(shift, EstimatorSpec.n1())))
        assert str(both.value) == str(alone.value)
        assert "[Shift(d=705) rep=0]" in str(both.value)

    def test_a_failing_pair_raises_what_its_columns_raise_first(self):
        # Shift(600)'s standard error leaves the double range and Shift(800)'s
        # loss overflows; one pass over both meets the overflow first, the
        # columns run one by one meet Shift(600)'s error first
        cfg = SimConfig(MeanVectorPair((1.0, 0.0), (0.0, 0.0)),
                        CovarianceSpec.from_correlation(1.0, 1e-6, 0.0), A1, 50, 3)
        first, later = EstimatorSpec.shift(600.0), EstimatorSpec.shift(800.0)
        with pytest.raises(LinexError) as columns:
            simulate_all(replace(cfg, estimators=(first, later)))
        with pytest.raises(LinexError) as pair:
            paired_risk_difference(cfg, first, later)
        assert type(pair.value) is type(columns.value) is LinexError
        assert str(pair.value) == str(columns.value)
        assert str(pair.value).startswith("Shift(d=600): the risk estimate left the double range")

    def test_a_difference_can_leave_the_double_range_where_neither_column_does(self):
        # each loss is about e^354.6, below the exponent limit; alone, each
        # column's squared deviations are a quarter of a loss squared, while the
        # difference's are a whole one, and their sum overflows
        big = 1.05e154
        losses = np.array([[[big, 0.0]], [[0.0, big]]])
        for column, name in zip(losses.copy(), "AB"):
            [[alone]] = risksim._estimates(column[np.newaxis], name)
            assert alone == RiskEstimate(big / 2, big / 2)
        cell = risksim._Cell(config(reps=2), [EstimatorSpec.n1(), EstimatorSpec.n2()], (), ["A", "B"])
        with pytest.raises(LinexError) as refused:
            risksim._paired_difference(losses, [cell])
        assert type(refused.value) is LinexError
        assert str(refused.value) == "A - B: the risk estimate left the double range (mean 0, standard error inf)"

    def test_a_pair_whose_columns_pass_alone_raises_its_difference_error(self, monkeypatch):
        # the difference's reduction fails by hand, end to end; the columns
        # rerun alone and pass
        def failing(losses, block):
            raise LinexError("the difference failed")

        monkeypatch.setattr(risksim, "_paired_difference", failing)
        with pytest.raises(LinexError, match="^the difference failed$"):
            paired_risk_difference(config(reps=100), EstimatorSpec.n1(), EstimatorSpec.n2())

    def test_an_error_that_is_not_numerical_is_raised_as_it_is(self, monkeypatch):
        # the overflowing first column does not hide a later column's MemoryError
        cfg = replace(config(reps=100), estimators=(EstimatorSpec.shift(800.0), EstimatorSpec.n2()))
        evaluate = risksim.evaluate_batch

        def short_of_memory(spec, *args):
            if spec.kind == "N2":
                raise MemoryError("no room for N2")
            return evaluate(spec, *args)

        monkeypatch.setattr(risksim, "evaluate_batch", short_of_memory)
        with pytest.raises(MemoryError, match="no room for N2"):
            simulate_all(cfg)

    def test_an_estimate_error_comes_after_the_columns_before_it(self):
        # the Bayes column cannot be estimated at rho = 1, but the overflowing
        # column before it is checked first
        cfg = replace(config(rho=1.0, reps=100), estimators=(
            EstimatorSpec.shift(800.0), EstimatorSpec.bayes(PriorSpec(0.0, 0.0, 1.0))))
        with pytest.raises(LinexOverflowError):
            simulate_all(cfg)
        with pytest.raises(InvalidParameterError, match="nonsingular"):
            simulate_all(replace(cfg, estimators=(EstimatorSpec.n1(), cfg.estimators[1])))

    def test_four_improved_columns_build_one_band(self, monkeypatch):
        from linexsel import oracles

        cfg = replace(config(theta1=(1.0, 0.5), rho=0.5, reps=5000), estimators=tuple(
            spec for _, spec in table_columns(1.0, 0.5, ("N1", "N2", "N3", "N4"), 1.0)))
        expected = simulate_all(cfg)
        band, calls = oracles.clip_band_batch, []

        def counted(*args):
            calls.append(args)
            return band(*args)

        monkeypatch.setattr(risksim, "clip_band_batch", counted)
        monkeypatch.setattr(oracles, "clip_band_batch", counted)
        assert simulate_all(cfg) == expected
        assert len(calls) == 1
        # each column alone, building its own band, gives the bits it has beside the others
        for spec in cfg.estimators:
            assert simulate_risk(cfg, spec) == expected[spec.label], spec.label
        assert len(calls) == 1 + 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_groups_of_different_widths_share_a_thread_workspace(self, monkeypatch, workers):
        # groups of 1 (N1), 2 (N3 and its improved column) and 3 (the shifts)
        # columns, one row a block at 20000 reps: one workspace a thread, its
        # stack as wide as the widest group
        n3 = EstimatorSpec.n3()
        columns = (EstimatorSpec.n1(), EstimatorSpec.shift(0.0), EstimatorSpec.shift(-1.0),
                   EstimatorSpec.shift(-2.0), n3, EstimatorSpec.improved(n3))
        spec = TableSpec(table_id=0, a=A1, cov=CovarianceSpec.from_correlation(2.0, 2.0, 0.5),
                         columns=tuple((e.label, e) for e in columns), rows=THETA_CONFIGS[:3])
        serial = risk_grid(spec, reps=20000, master_seed=4, workers=1)
        built = []
        init = CellWorkspace.__init__

        def recorded(self, rows, reps, columns):
            init(self, rows, reps, columns)
            built.append((threading.get_ident(), self.stack.shape))

        monkeypatch.setattr(CellWorkspace, "__init__", recorded)
        assert risk_grid(spec, reps=20000, master_seed=4, workers=workers) == serial
        threads = [ident for ident, _ in built]
        assert 1 <= len(threads) == len(set(threads)) <= workers
        assert {shape for _, shape in built} == {(3, 1, 20000)}


class TestFallbacksWhereTheOsIsSilent:
    """The branches for an OS without an affinity mask or a physical-memory count."""

    @pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
    def test_available_cpus_without_an_affinity_mask(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert risksim.available_cpus() == expected

    @pytest.mark.parametrize("error", [OSError, ValueError, AttributeError])
    def test_sweep_runs_when_sysconf_raises(self, monkeypatch, error):
        expected = risk_grid(7, reps=200, master_seed=3, workers=2)
        asked = []

        def silent(name):
            asked.append(name)
            raise error(name)

        monkeypatch.setattr(os, "sysconf", silent)
        assert risk_grid(7, reps=200, master_seed=3, workers=2) == expected
        assert asked
