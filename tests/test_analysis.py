import pytest

from linexsel import (
    DatasetError,
    LinexParams,
    analyze,
    bundled_dataset_path,
    fit,
    load_dataset,
)
from linexsel.analysis import GroupedDataset, OUTLIER_VALUE
from linexsel.improvement import estimates_csv

A1 = LinexParams(1.0)
AM1 = LinexParams(-1.0)


class TestLoadDataset:
    def test_bundled_counts(self):
        data = load_dataset(bundled_dataset_path())
        assert data.labels == ("organic", "inorganic")
        assert len(data.group1) == 48
        assert len(data.group2) == 48

    def test_raw_keeps_outlier_verbatim(self):
        data = load_dataset(bundled_dataset_path())
        assert sum(1 for _, chol in data.group1 if chol == OUTLIER_VALUE) == 1

    def test_clean_replaces_outlier(self):
        data = load_dataset(bundled_dataset_path(), clean=True)
        values = [chol for _, chol in data.group1]
        assert OUTLIER_VALUE not in values
        assert values.count(145.46) == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(str(p))

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("group,weight,cholesterol\na,1.0,2.0\nb,oops,3.0\n")
        with pytest.raises(DatasetError, match=r":3:"):
            load_dataset(str(p))

    def test_unequal_sizes_report_counts(self, tmp_path):
        p = tmp_path / "uneq.csv"
        p.write_text("group,weight,cholesterol\na,1,2\na,2,3\nb,1,2\n")
        with pytest.raises(DatasetError, match="a=2, b=1"):
            load_dataset(str(p))


class TestFit:
    def test_reproduces_published_parameters(self, poultry_model):
        m = poultry_model
        assert m.theta_hat_1[0] == pytest.approx(59.0997, abs=0.01)
        assert m.theta_hat_1[1] == pytest.approx(131.4569, abs=0.01)
        assert m.theta_hat_2[0] == pytest.approx(58.3516, abs=0.01)
        assert m.theta_hat_2[1] == pytest.approx(195.7275, abs=0.01)
        assert m.cov_hat.sigma_xx == pytest.approx(8.1645, rel=0.005)
        assert m.cov_hat.sigma_xy == pytest.approx(40.0655, rel=0.005)
        assert m.cov_hat.sigma_yy == pytest.approx(952.9425, rel=0.005)

    def test_raw_mean_shifted_by_outlier(self):
        model = fit(load_dataset(bundled_dataset_path()))
        assert model.theta_hat_1[1] == pytest.approx(164.79, abs=0.01)

    def test_label_swap_is_stable(self):
        data = load_dataset(bundled_dataset_path(), clean=True)
        swapped = GroupedDataset(
            group1=data.group2, group2=data.group1,
            labels=(data.labels[1], data.labels[0]), cleaned=True,
        )
        m1 = fit(data)
        m2 = fit(swapped)
        assert m2.theta_hat_1 == m1.theta_hat_2
        assert m2.theta_hat_2 == m1.theta_hat_1
        assert m2.cov_hat.sigma_xy == pytest.approx(m1.cov_hat.sigma_xy, abs=1e-12)

    def test_identical_groups(self):
        data = load_dataset(bundled_dataset_path(), clean=True)
        doubled = GroupedDataset(group1=data.group1, group2=data.group1,
                                 labels=("a", "b"), cleaned=True)
        m = fit(doubled)
        import numpy as np

        own = np.cov(np.asarray(data.group1).T, ddof=1)
        assert m.cov_hat.sigma_xx == pytest.approx(own[0, 0], rel=1e-12)

    def test_zero_variance_rejected(self):
        flat = tuple((1.0, float(k)) for k in range(5))
        data = GroupedDataset(group1=flat, group2=flat, labels=("a", "b"))
        with pytest.raises(DatasetError, match="variance"):
            fit(data)


class TestAnalyze:
    def test_selects_first_group(self, poultry_model):
        report = analyze(poultry_model, A1)
        assert report.selected_label == "organic"

    def test_positive_a_row(self, poultry_model):
        report = analyze(poultry_model, A1)
        values = dict((label, val) for label, val, _ in report.estimates)
        assert values["N1"] == pytest.approx(131.4569, abs=5e-5)
        assert values["N1_I1"] == pytest.approx(131.4569, abs=5e-5)
        assert values["N2"] == pytest.approx(-345.0144, abs=5e-5)
        assert values["N2_I2"] == pytest.approx(-345.0144, abs=5e-5)
        assert values["N3"] == pytest.approx(194.9654, abs=0.1)
        assert values["N3_I1"] == pytest.approx(194.9654, abs=0.1)
        assert values["N4"] == pytest.approx(163.5922, abs=5e-5)
        assert values["N4_I1"] == pytest.approx(163.5922, abs=5e-5)

    def test_negative_a_row(self, poultry_model):
        report = analyze(poultry_model, AM1)
        values = dict((label, val) for label, val, _ in report.estimates)
        assert values["N1_I3"] == pytest.approx(401.8278, abs=5e-5)
        assert values["N2"] == pytest.approx(607.9281, abs=5e-5)
        assert values["N3"] == pytest.approx(132.0856, abs=0.1)
        assert values["N3_I2"] == pytest.approx(401.8278, abs=5e-5)
        assert values["N4"] == pytest.approx(163.5922, abs=5e-5)
        assert "N2_I" not in "".join(label for label, _, _ in report.estimates)

    def test_n2_symmetry_about_concomitant(self, poultry_model):
        up = dict((l, v) for l, v, _ in analyze(poultry_model, A1).estimates)
        dn = dict((l, v) for l, v, _ in analyze(poultry_model, AM1).estimates)
        assert up["N2"] + dn["N2"] == pytest.approx(2 * up["N1"], abs=1e-8)

    def test_deterministic(self, poultry_model):
        r1 = analyze(poultry_model, A1)
        r2 = analyze(poultry_model, A1)
        assert r1.estimates == r2.estimates
        assert r1.to_text() == r2.to_text()

    def test_report_renderings(self, poultry_model):
        report = analyze(poultry_model, A1)
        text = report.to_text()
        assert "organic" in text
        assert "131.4569" in text
        params = report.model.parameters_csv()
        assert params.splitlines()[0] == "population,measure,mean,variance,covariance"
        assert "952.9425" in params
        est = estimates_csv(report.estimates)
        assert est.splitlines()[0] == "estimator,estimate,truncated"
        assert any(line.startswith("N2,-345.0144") for line in est.splitlines())

    def test_bayes_requested(self, poultry_model):
        from linexsel import PriorSpec

        report = analyze(poultry_model, A1, prior=PriorSpec(59.0, 131.0, 100.0))
        labels = [label for label, _, _ in report.estimates]
        assert labels[-1] == "Bayes"
