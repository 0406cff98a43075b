import ast
import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import linexsel
from linexsel.cli import main

COV = "8.1645,40.0655,952.9425"

#: SHA-256 of the CSV from `simulate --table N --seed 42 --reps 2000`; any change
#: to the streams, the kernels or the CSV format shows up here
GOLDEN_TABLE_SHA256 = {
    5: "e454290194b800f08e0abae6ef760c45861ecf2d49404c30da39cc90f9d64b82",
    6: "ac01c05ea0b3c81536719b465c06d75cbefce9c62e1d3ac97091a115ec079af4",
    7: "145404b2f86394f42a41b9d644f37ff5d12e1c2c3fbaf82bc8348d1aa0908a10",
    8: "1ba3f44bdc7c2db7c31fb93f78da6ecaedc3c99dd6a5e88aa766de85cd911868",
    9: "2cc0a9ba4dc7f8fcb61ad341d1474c0bcc2c9561d4f67d731bfe566dd94190f5",
    10: "a489de3f515fc7515beaf98fb748d5bb5f934a6d14029628f2db3667daa722f9",
}

#: SHA-256 of simulate_manifest.json from `simulate --table 7 --seed 42 --reps 2000`
GOLDEN_TABLE7_MANIFEST_SHA256 = "8fa620687b656c6e4e73acf84231c4867ec2d3b2cfb779d8aaaa6d465863e8ad"

#: the worked example's observed pair and fitted covariance, plus a shift and a prior
WORKED = ("--x", "59.0997,58.3516", "--y", "131.4569,195.7275", "--cov", COV,
          "--d", "2", "--prior", "59,131,100")

#: subcommand arguments (before --a) of each pinned report
REPORT_ARGS = {
    "estimate": ("estimate", *WORKED),
    "analyze": ("analyze", "--clean"),
    "admissibility": ("admissibility", "--cov", "2,1,2", "--d", "0"),
}

#: SHA-256 of each report file, keyed (subcommand, a, --format, file); any change
#: to the estimates, the note rule or the layouts shows up here
GOLDEN_REPORT_SHA256 = {
    ("estimate", "1", "text", "estimate_report.txt"):
        "9f1aa24a15d74ea3ac742df0832dc7ab2458b08f9a69f7bebe1d082d0fe8a1bf",
    ("estimate", "1", "csv", "estimate_report.csv"):
        "50ce432fa0ac947ee55e8c1e0d78677f907b41d25bdd3681d93775f32e852d4d",
    ("estimate", "-1", "text", "estimate_report.txt"):
        "0f3da285755f2e69664f9606682625778d612725a0b1b778fae54d63f65eef0c",
    ("estimate", "-1", "csv", "estimate_report.csv"):
        "078ecbecba776d77fa8997d2640efdc71cb714af5a2af8e7ce38f74d1790fa5f",
    ("analyze", "1", "text", "analysis_report.txt"):
        "f4281e54e9ac5c0e393dbe0b1a22f8cebe442ba2f775cb4bc6be8a68ce57c924",
    ("analyze", "1", "text", "analysis_estimates.csv"):
        "9049a5f66c147a4ab96a2d14aa9a1248b07e16dc7613d91db3bccc3841b7b029",
    ("analyze", "1", "text", "analysis_parameters.csv"):
        "77b3f633c36d3edb78151f8a81fc2283c423d49fe7c7dc3166f23bcd5ad46267",
    ("analyze", "-1", "text", "analysis_report.txt"):
        "51bc028f2da354cf50a9660b59fd1eed6040377536585340faba4abc8abc1bc0",
    ("analyze", "-1", "text", "analysis_estimates.csv"):
        "2262c86c7edfdaa9280c5a30f71c053b34d95119f1a06cfd46570b1feb09df0e",
    ("analyze", "-1", "text", "analysis_parameters.csv"):
        "77b3f633c36d3edb78151f8a81fc2283c423d49fe7c7dc3166f23bcd5ad46267",
    ("admissibility", "1", "text", "admissibility_report.txt"):
        "03c59a76356d4910f77b69e2bdaf751f7560291f330f0ad0a708587d5b558483",
    ("admissibility", "1", "csv", "admissibility_report.csv"):
        "387cc17276cd47123245fc4b70996cecdf5be2a6e85f599480832cde3a18bb36",
    ("admissibility", "-1", "text", "admissibility_report.txt"):
        "1955454ae7263483340428d89b9a56482f5b003e46c9e75ea6e34b65ccaed958",
    ("admissibility", "-1", "csv", "admissibility_report.csv"):
        "0a4bc9d91e7c18e06df1018bb95e818108516d7dbb944d4ef73eb472c5b93cfd",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEstimate:
    def test_published_row(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "estimate",
            "--x", "59.0997,58.3516", "--y", "131.4569,195.7275",
            "--cov", COV, "--a", "1", "--out", str(tmp_path),
        )
        assert code == 0
        assert "selected population: 1" in out
        assert "-345.0144" in out
        assert "163.5922" in out
        assert (tmp_path / "estimate_report.txt").exists()
        manifest = json.loads((tmp_path / "estimate_manifest.json").read_text())
        assert manifest["outputs"] == ["estimate_report.txt"]

    def test_truncation_flag_shown(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "estimate",
            "--x", "59.0997,58.3516", "--y", "131.4569,195.7275",
            "--cov", COV, "--a", "-1", "--out", str(tmp_path),
        )
        assert code == 0
        assert "401.8278" in out
        assert "clipped_to_phi_inf" in out

    def test_zero_a_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "estimate", "--x", "0,1", "--y", "0,1",
            "--cov", "1,0,1", "--a", "0", "--out", str(tmp_path),
        )
        assert code == 2
        assert "a must be nonzero" in err

    @pytest.mark.parametrize("x, message", [
        ("0,1,2", "error: --x expects 2 comma-separated numbers, got '0,1,2'\n"),
        ("0,one", "error: --x: could not parse '0,one' as numbers\n"),
    ])
    def test_malformed_numbers_rejected(self, capsys, tmp_path, x, message):
        code, out, err = run(
            capsys, "estimate", "--x", x, "--y", "0,1", "--cov", "1,0,1", "--a", "1",
            "--out", str(tmp_path),
        )
        assert (code, out, err) == (2, "", message)
        assert list(tmp_path.iterdir()) == []

    def test_invalid_covariance_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "estimate", "--x", "0,1", "--y", "0,1",
            "--cov", "1,2,1", "--a", "1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "correlation" in err

    def test_csv_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "estimate",
            "--x", "59.0997,58.3516", "--y", "131.4569,195.7275",
            "--cov", COV, "--a", "-1", "--format", "csv", "--out", str(tmp_path),
        )
        assert code == 0
        assert out.splitlines()[0] == "estimator,estimate,truncated"
        assert "N1_I3,401.8278,clipped_to_phi_inf" in out
        assert (tmp_path / "estimate_report.csv").read_text() == out

    def test_bayes_with_singular_covariance_rejected(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "estimate", "--x", "0,1", "--y", "0,1", "--cov", "2,2,2", "--a", "1",
            "--prior", "0,0,1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "singular" in err
        assert out == ""
        assert not (tmp_path / "estimate_report.txt").exists()

    def test_non_finite_difference_rejected(self, capsys, tmp_path):
        # finite observations whose concomitant difference overflows to inf
        code, out, err = run(
            capsys, "estimate", "--x", "0,0.1", "--y", "1e308,-1e308",
            "--cov", "1,0.5,1", "--a", "1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "t2" in err and "inf" in err
        assert out == ""
        assert not (tmp_path / "estimate_report.txt").exists()

    def test_n3_where_phi_and_tilt_underflow(self, capsys, tmp_path):
        # Phi(t1/sqrt(2 sxx)) and exp(-a*t2) are both 0 in doubles; N3 -> y_sel
        code, out, _ = run(
            capsys, "estimate", "--x", "0,100", "--y", "800,0", "--cov", "1,0,1",
            "--a", "1", "--format", "csv", "--out", str(tmp_path),
        )
        assert code == 0
        rows = {line.split(",")[0]: float(line.split(",")[1]) for line in out.splitlines()[1:]}
        assert math.isfinite(rows["N3"])
        assert rows["N3"] == pytest.approx(rows["N1"], abs=1e-9)


@pytest.mark.parametrize("key", sorted(GOLDEN_REPORT_SHA256), ids="-".join)
def test_report_golden_digest(capsys, tmp_path, key):
    sub, a, fmt, name = key
    code, _, _ = run(capsys, *REPORT_ARGS[sub], "--a", a, "--format", fmt, "--out", str(tmp_path))
    assert code == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN_REPORT_SHA256[key]


@pytest.mark.parametrize("a", ["1", "-1"])
def test_estimate_and_analyze_csvs_agree(capsys, tmp_path, a):
    # both CSVs come from the same rows; only the estimates' last digits may
    # differ, because `estimate` gets the fitted values rounded to 4 places
    code_e, estimate_csv, _ = run(
        capsys, "estimate", *WORKED[:6], "--a", a, "--format", "csv", "--out", str(tmp_path / "e")
    )
    code_a, _, _ = run(capsys, "analyze", "--clean", "--a", a, "--out", str(tmp_path / "a"))
    assert code_e == code_a == 0
    analyze_csv = (tmp_path / "a" / "analysis_estimates.csv").read_text()

    def label_and_note(text):
        return [(row[0], row[2]) for row in (line.split(",") for line in text.splitlines())]

    assert label_and_note(estimate_csv) == label_and_note(analyze_csv)


#: each subcommand that takes the hybrid threshold --c, with its other arguments
C_ARGS = {
    "estimate": ("estimate", *WORKED[:6], "--a", "1"),
    "analyze": ("analyze", "--clean", "--a", "1"),
    "simulate": ("simulate", "--cov", "2,1,2", "--a", "1", "--reps", "10"),
}


@pytest.mark.parametrize("sub", sorted(C_ARGS))
@pytest.mark.parametrize("c", ["nan", "inf"])
def test_non_finite_threshold_rejected(capsys, tmp_path, sub, c):
    code, out, err = run(capsys, *C_ARGS[sub], "--c", c, "--out", str(tmp_path))
    assert code == 2
    assert "threshold c" in err
    assert not list(tmp_path.glob("*_manifest.json"))


@pytest.mark.parametrize("argv,quantity", [
    # a*syy/2 overflows, so both endpoints are -inf and every shift "dominated"
    (("admissibility", "--cov", "2,1,4", "--a", "1e308"), "d0 = -inf"),
    (("admissibility", "--cov", "2,1,4", "--a", "1e308", "--d", "0", "--format", "csv"),
     "d0 = -inf"),
    # N2's a*syy/2 overflows
    (("estimate", "--x", "1,2", "--y", "3,4", "--cov", "1,0,1e300", "--a", "1e10"),
     "N2 estimate is -inf"),
    (("analyze", "--clean", "--a", "1e306"), "N2 estimate is -inf"),
    # m^2 overflows in the posterior, which is then inf/inf
    (("estimate", "--x", "1,2", "--y", "3,4", "--cov", "1,0.5,1", "--a", "1",
      "--prior", "0,0,1e308"), "Bayes estimate is nan"),
], ids=["admissibility", "admissibility-classify", "estimate", "analyze", "estimate-bayes"])
def test_non_finite_report_exits_one(capsys, tmp_path, argv, quantity):
    # a report never prints inf or nan: the run names the quantity and writes nothing
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 1
    assert quantity in err and "not finite" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    # d0 printed -0 here, where the limit is -0.2820948
    ("admissibility", "--cov", "1,0.5,1"),
    # N3 printed 0.0000 here, where a = 1e-310 gives 0.3085
    ("estimate", "--x", "1,0", "--y", "0,1", "--cov", "2,1,2"),
    ("simulate", "--cov", "2,1,2", "--reps", "10"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("a", ["5e-324", "-1e-310"])
def test_subnormal_a_is_refused(capsys, tmp_path, argv, a):
    code, out, err = run(capsys, *argv, f"--a={a}", "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: LINEX parameter a must be a normal double, got {float(a)!r}\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("estimate", "--x", "1,2", "--y", "3,4"),
    ("admissibility",),
    ("simulate", "--reps", "10"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("cov", ["0.5,0.0,5e-324", "1e-160,0,1e-160", "1e200,0,1e200"])
def test_covariance_product_outside_the_normal_range_is_refused(capsys, tmp_path, argv, cov):
    # rho divides sigma_xy by sqrt(sigma_xx*sigma_yy); a product that underflows
    # (to 0, or to a subnormal) or overflows is refused as a usage error
    code, out, err = run(capsys, *argv, "--cov", cov, "--a", "1", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: --cov:") and "not a positive normal double" in err
    assert "Traceback" not in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_non_finite_standard_error_exits_one(capsys, tmp_path):
    # two cells' squared deviations overflow while their means stay finite
    # (rows 3 and 10); the run names the first and writes nothing
    code, out, err = run(capsys, "simulate", "--cov",
                         "8742.683938965236,137.61638511179694,16.789573969110535",
                         "--a", "37", "--reps", "2", "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("runtime error: row 3, column N4: the risk estimate left the double range")
    assert "standard error inf" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_huge_estimate_prints_in_exponent_form(capsys, tmp_path):
    # the Bayes estimate is about -2.7e288; printed to four decimals it took
    # about 290 characters
    argv = ("estimate", "--x", "4.354293685991805,3", "--y", "1e-300,-0.0",
            "--cov", "2246248.2147097047,0,1e-10", "--a", "-40", "--prior", "0,-1e300,37")
    for fmt in ("csv", "text"):
        code, out, _ = run(capsys, *argv, "--format", fmt, "--out", str(tmp_path / fmt))
        assert code == 0
        assert max(len(line) for line in out.splitlines()) <= 80
        bayes = out.splitlines()[-1].replace(",", " ").split()[1]
        assert bayes == "-2.702703e+288"


class TestAdmissibility:
    def test_collapsed_interval(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "admissibility", "--cov", "2,0,2", "--a", "1", "--out", str(tmp_path)
        )
        assert code == 0
        assert "d0 = -1" in out
        assert "d1 = -1" in out

    def test_classification(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "admissibility", "--cov", "2,1,2", "--a", "1",
            "--d", "-1.2", "--out", str(tmp_path),
        )
        assert code == 0
        assert "admissible_in_class" in out

    def test_dominated_with_dominating_shift(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "admissibility", "--cov", "2,1,2", "--a", "1",
            "--d", "0", "--out", str(tmp_path),
        )
        assert code == 0
        assert "dominated_by_d1" in out
        assert "dominating shift: d1 = -1" in out

    def test_csv_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "admissibility", "--cov", "2,0,2", "--a", "1",
            "--d", "0", "--format", "csv", "--out", str(tmp_path),
        )
        assert code == 0
        assert "d0,-1" in out
        assert "classification(0),dominated_by_d1" in out
        assert (tmp_path / "admissibility_report.csv").exists()

    def test_tiny_a_keeps_the_interval(self, capsys, tmp_path):
        # ln 2 + ln Phi(a*sxy/sqrt(2*sxx)) cancelled to d0 = -5e-17, which dominated -0.1
        code, out, _ = run(
            capsys, "admissibility", "--cov", "1,0.5,1", "--a", "1e-16",
            "--d", "-0.1", "--out", str(tmp_path),
        )
        assert code == 0
        assert "d0 = -0.2820948" in out
        assert "d = -0.1: admissible_in_class" in out

    def test_phi_underflow_gives_finite_bounds(self, capsys, tmp_path):
        # a*sxy/sqrt(2*sxx) = -42.4, where Phi underflows to 0 in doubles
        code, _, _ = run(
            capsys, "admissibility", "--cov", "1,-1,1", "--a", "60",
            "--format", "csv", "--out", str(tmp_path),
        )
        assert code == 0
        rows = dict(line.split(",") for line in
                    (tmp_path / "admissibility_report.csv").read_text().splitlines()[1:])
        d0, d1 = float(rows["d0"]), float(rows["d1"])
        assert math.isfinite(d0) and math.isfinite(d1)
        assert d0 < d1


class TestSimulate:
    def test_table_run_writes_csv_and_manifest(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "simulate", "--table", "7", "--reps", "200",
            "--seed", "42", "--out", str(tmp_path),
        )
        assert code == 0
        csv_path = tmp_path / "table7.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 1 + 11 * 5
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert manifest["master_seed"] == 42
        assert manifest["outputs"] == ["table7.csv"]
        params = manifest["parameters"]
        recorded = (params["a"], params["cov"], params["c"], params["improved"])
        assert recorded == (None, None, 1.0, [])

    @pytest.mark.parametrize(
        "flags",
        [("--cov", "1,0,1"), ("--a", "2"), ("--c", "1"), ("--improved", "N1"), ("--improved",)],
    )
    def test_custom_grid_flags_rejected_with_table(self, capsys, tmp_path, flags):
        code, _, err = run(
            capsys, "simulate", "--table", "5", "--reps", "10", *flags, "--out", str(tmp_path)
        )
        assert code == 2
        assert flags[0] in err
        assert not (tmp_path / "simulate_manifest.json").exists()

    @pytest.mark.parametrize("flags", [("--workers", "2"), ("--format", "csv")])
    def test_removed_flags_rejected(self, capsys, tmp_path, flags):
        code, _, err = run(
            capsys, "simulate", "--table", "7", "--reps", "10", *flags, "--out", str(tmp_path)
        )
        assert code == 2
        assert flags[0] in err
        assert not (tmp_path / "simulate_manifest.json").exists()

    @pytest.mark.parametrize("args", [("--table", "7"), ("--cov", "2,1,2", "--a", "1")])
    def test_manifest_records_only_output_parameters(self, capsys, tmp_path, args):
        code, _, _ = run(capsys, "simulate", *args, "--reps", "10", "--out", str(tmp_path))
        assert code == 0
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert sorted(manifest["parameters"]) == ["a", "c", "cov", "improved", "reps", "table"]

    def test_table_manifest_golden_digest(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "simulate", "--table", "7", "--seed", "42", "--reps", "2000",
            "--out", str(tmp_path),
        )
        assert code == 0
        digest = hashlib.sha256((tmp_path / "simulate_manifest.json").read_bytes()).hexdigest()
        assert digest == GOLDEN_TABLE7_MANIFEST_SHA256

    @pytest.mark.parametrize("table", sorted(GOLDEN_TABLE_SHA256))
    def test_table_csv_golden_digest(self, capsys, tmp_path, table):
        code, _, _ = run(
            capsys, "simulate", "--table", str(table), "--seed", "42", "--reps", "2000",
            "--out", str(tmp_path),
        )
        assert code == 0
        digest = hashlib.sha256((tmp_path / f"table{table}.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_TABLE_SHA256[table]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(capsys, "simulate", "--table", "7", "--reps", "300", "--seed", "42", "--out", str(a_dir))
        run(capsys, "simulate", "--table", "7", "--reps", "300", "--seed", "42", "--out", str(b_dir))
        assert (a_dir / "table7.csv").read_bytes() == (b_dir / "table7.csv").read_bytes()
        assert (a_dir / "simulate_manifest.json").read_bytes() == (
            b_dir / "simulate_manifest.json"
        ).read_bytes()

    def test_zero_reps_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--table", "5", "--reps", "0", "--out", str(tmp_path)
        )
        assert code == 2
        assert "reps" in err

    @pytest.mark.parametrize("flags", [(), ("--cov", "1,0,1"), ("--a", "1")])
    def test_custom_grid_needs_cov_and_a(self, capsys, tmp_path, flags):
        code, out, err = run(capsys, "simulate", *flags, "--reps", "10", "--out", str(tmp_path))
        message = "error: custom grids need --cov and --a (or use --table)\n"
        assert (code, out, err) == (2, "", message)
        assert list(tmp_path.iterdir()) == []

    def test_custom_grid(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "simulate", "--cov", "2,1,2", "--a", "1", "--reps", "100",
            "--improved", "N1", "--out", str(tmp_path),
        )
        assert code == 0
        header = (tmp_path / "custom_grid.csv").read_text().splitlines()
        assert len(header) == 1 + 11 * 5  # N1, N1_I1, N2, N3, N4


class TestAnalyze:
    def test_clean_positive_a(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "analyze", "--clean", "--a", "1", "--out", str(tmp_path)
        )
        assert code == 0
        assert "organic" in out
        est = (tmp_path / "analysis_estimates.csv").read_text()
        assert "N2,-345.0144" in est
        assert "N4,163.5922" in est
        params = (tmp_path / "analysis_parameters.csv").read_text()
        assert "organic,weight,59.0998,8.1645,40.0655" in params

    def test_clean_negative_a(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze", "--clean", "--a", "-1", "--out", str(tmp_path))
        assert code == 0
        est = (tmp_path / "analysis_estimates.csv").read_text()
        assert "N1_I3,401.8278,clipped_to_phi_inf" in est
        assert "N2,607.9281" in est

    def test_csv_format_to_stdout(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "analyze", "--clean", "--a", "1", "--format", "csv", "--out", str(tmp_path)
        )
        assert code == 0
        assert out.startswith("population,measure,mean,variance,covariance")

    def test_manifest_records_data_flag_as_given(self, capsys, tmp_path):
        run(capsys, "analyze", "--clean", "--a", "1", "--out", str(tmp_path / "bundled"))
        manifest = json.loads((tmp_path / "bundled" / "analyze_manifest.json").read_text())
        assert manifest["parameters"]["data"] is None

        data = tmp_path / "poultry.csv"
        data.write_bytes(Path(linexsel.bundled_dataset_path()).read_bytes())
        code, _, _ = run(
            capsys, "analyze", "--data", str(data), "--a", "1", "--out", str(tmp_path / "given")
        )
        assert code == 0
        manifest = json.loads((tmp_path / "given" / "analyze_manifest.json").read_text())
        assert manifest["parameters"]["data"] == str(data)

    def test_a_byte_order_marked_copy_writes_the_bundled_report(self, capsys, tmp_path):
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + Path(linexsel.bundled_dataset_path()).read_bytes())
        bundled = run(capsys, "analyze", "--clean", "--a", "1", "--out", str(tmp_path / "bundled"))
        bom = run(
            capsys, "analyze", "--data", str(data), "--clean", "--a", "1", "--out", str(tmp_path / "bom")
        )
        assert bom == bundled and bom[0] == 0
        for name in ("analysis_report.txt", "analysis_parameters.csv", "analysis_estimates.csv"):
            assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "bundled" / name).read_bytes()

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "analyze", "--data", str(tmp_path / "nope.csv"), "--a", "1",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "nope.csv" in err

    @pytest.mark.parametrize("content", [
        b"group,weight,cholesterol\n\xff,1,2\n",  # not UTF-8
        b"group,weight,cholesterol\n\"" + b"x" * 200000 + b"\",1,2\n",  # over the csv field limit
    ], ids=["not_utf8", "field_too_large"])
    def test_unreadable_file(self, capsys, tmp_path, content):
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "analyze", "--data", str(data), "--a", "1", "--out", str(out_dir))
        assert code == 2
        assert err.startswith(f"error: {data}: ")
        assert "Traceback" not in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(capsys, "analyze", "--clean", "--a", "1", "--out", str(a_dir))
        run(capsys, "analyze", "--clean", "--a", "1", "--out", str(b_dir))
        for name in ("analysis_estimates.csv", "analysis_parameters.csv",
                     "analysis_report.txt", "analyze_manifest.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_unknown_table_key(capsys, tmp_path):
    code, _, _ = run(capsys, "simulate", "--table", "4", "--out", str(tmp_path))
    assert code == 2


def test_numerical_overflow_exits_one(capsys, tmp_path):
    # huge a * sigma_yy drives the loss exponent past the double range;
    # the run must abort with a diagnostic instead of averaging infinities
    code, _, err = run(
        capsys, "simulate", "--cov", "2,0,2000", "--a", "30",
        "--reps", "50", "--out", str(tmp_path),
    )
    assert code == 1
    assert "exceeds exp() range" in err
    # a grid's loss error names its cell as a non-finite estimate does
    assert "[row 0, column N1 rep=" in err


def _checkout_env():
    """The environment of a new interpreter that imports this checkout."""
    src = str(Path(linexsel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _fresh_python(probe, *argv):
    """Run `python -c probe *argv` in a new interpreter that imports this checkout."""
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=_checkout_env(), capture_output=True, text=True,
        check=True,
    )
    return out.stdout.splitlines()[-1]


#: modules that no module of the package may import at module level: numpy is
#: loaded by the array kernels on first use, and no sweep needs a thread pool
COLD_PATH_BANNED = ("numpy", "concurrent.futures")


def _module_level_imports(tree):
    """(line, module) of each import run when the module is imported.

    Function bodies run later and `if TYPE_CHECKING:` blocks never, so
    neither is searched; class bodies and other blocks are.
    """
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            found += _module_level_imports(ast.Module(body=node.orelse, type_ignores=[]))
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        found += _module_level_imports(node)
    return found


def test_no_module_imports_numpy_or_the_thread_pool_at_module_level():
    package = Path(linexsel.__file__).resolve().parent
    offenders = [
        f"{path.name}:{line}: import {module}"
        for path in sorted(package.glob("*.py"))
        for line, module in _module_level_imports(ast.parse(path.read_text(), str(path)))
        if any(module == banned or module.startswith(banned + ".") for banned in COLD_PATH_BANNED)
    ]
    assert offenders == []


def test_cli_import_does_not_load_scipy_integrate(tmp_path):
    # the worked example's estimate, admissibility and analyze load no scipy
    # module, so none is left in sys.modules (test_runs_without_scipy adds
    # simulate with scipy made unimportable); nor do they, or importing the
    # package, load numpy, which only the array kernels import. The last run
    # takes log Phi's tail series (a*sigma_xy/sqrt(2 sigma_xx) = -250)
    runs = [
        [*argv, "--a", a, "--format", fmt, "--out", str(tmp_path / f"{argv[0]}{a}{fmt}")]
        for argv in (
            ["estimate", "--x", "59.0997,58.3516", "--y", "131.4569,195.7275", "--cov", COV],
            ["admissibility", "--cov", "2,1,2", "--d", "-1.2"],
            ["analyze", "--clean"],
        )
        for a in ("1", "-1")
        for fmt in ("text", "csv")
    ] + [["admissibility", "--cov", "2,-100,10000", "--a", "5", "--out", str(tmp_path / "tail")]]
    probe = (
        "import json, sys\n"
        "import linexsel\n"
        "numpy_on_package = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
        "import linexsel.cli\n"
        "numpy_on_cli = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
        "integrate = 'scipy.integrate' in sys.modules\n"
        "codes = [linexsel.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "numpy_on_runs = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
        "print(json.dumps([integrate, codes, sorted(m for m in sys.modules if m.startswith('scipy')),\n"
        "                  numpy_on_package, numpy_on_cli, numpy_on_runs]))"
    )
    integrate, codes, scipy_modules, *numpy_modules = json.loads(
        _fresh_python(probe, json.dumps(runs))
    )
    assert integrate is False
    assert codes == [0] * len(runs)
    assert scipy_modules == []
    assert numpy_modules == [[], [], []]


#: the package modules each subcommand loads, in a fresh interpreter that
#: imports `linexsel.cli` and runs it once
_ESTIMATORS = {"core", "selection", "oracles", "estimators", "improvement"}
SUBCOMMAND_MODULES = {
    "admissibility": {"core", "admissibility"},
    "estimate": _ESTIMATORS,
    "analyze": _ESTIMATORS | {"analysis"},
    "simulate": _ESTIMATORS | {"kernels", "risksim"},
}

#: the cold-start runs of the benchmark's `cli` workload, without --out
SUBCOMMAND_ARGS = {
    "admissibility": ["admissibility", "--cov", "2,1,2", "--a", "1", "--d", "-1.2"],
    "estimate": ["estimate", "--x", "59.0997,58.3516", "--y", "131.4569,195.7275", "--cov", COV,
                 "--a", "1"],
    "analyze": ["analyze", "--clean", "--a", "1"],
    "simulate": ["simulate", "--table", "7", "--reps", "200"],
}

#: `linexsel.__all__`: every name the lazy namespace must keep serving
PUBLIC_NAMES = [
    "ADMISSIBLE_IN_CLASS", "AdmissibilityBounds", "AnalysisReport", "CovarianceSpec",
    "DOMINATED_BY_D0", "DOMINATED_BY_D1", "DatasetError", "EstimatorSpec", "FittedModel",
    "GroupedDataset", "ImprovementOutcome", "InvalidParameterError", "LinexError",
    "LinexOverflowError", "LinexParams", "MeanVectorPair", "ObservationPair", "PriorSpec",
    "RiskEstimate", "RiskTable", "SelectionSummary", "SimConfig", "SingularCovarianceError",
    "TABLE_SPECS", "THETA_CONFIGS", "TableSpec", "ThetaStar", "admissibility", "analysis",
    "analyze", "applicable_case", "base_phi", "bounds", "bundled_dataset_path", "case_label",
    "classify", "core", "est_bayes", "estimate_rows", "estimates_csv", "estimators", "evaluate",
    "fit", "h_a", "improve", "improvement", "kernels", "linex_loss", "load_dataset",
    "log_std_normal_cdf", "log_sum_exp", "oracles", "paired_risk_difference", "phi_bounds", "psi",
    "risk_grid", "risksim", "rng_stream", "select", "selection", "shift_risk", "simulate_all",
    "simulate_risk", "std_normal_cdf", "std_normal_pdf",
]


#: standard-library modules that no start of a subcommand without numpy pays for:
#: `dataclasses` loads `inspect`, and `inspect` loads `ast`, `dis` and `tokenize`
#: (numpy loads `inspect` itself, so `simulate` loads it all the same)
SCALAR_START_BANNED = {"dataclasses", "inspect"}


def _loaded_modules(probe_tail, *argv):
    """The names in sys.modules after `probe_tail` runs in a new interpreter."""
    probe = "import json, sys\n" + probe_tail + "print(json.dumps(sorted(sys.modules)))"
    return set(json.loads(_fresh_python(probe, *argv)))


def _package_modules(modules):
    return {m for m in modules if m.split(".")[0] == "linexsel"}


@pytest.mark.parametrize("sub", sorted(SUBCOMMAND_MODULES))
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, sub):
    argv = [*SUBCOMMAND_ARGS[sub], "--out", str(tmp_path)]
    loaded = _loaded_modules(
        "import linexsel.cli\nassert linexsel.cli.main(json.loads(sys.argv[1])) == 0\n",
        json.dumps(argv),
    )
    expected = {"linexsel", "linexsel.cli"} | {f"linexsel.{m}" for m in SUBCOMMAND_MODULES[sub]}
    assert _package_modules(loaded) == expected
    if sub != "simulate":
        assert loaded.isdisjoint(SCALAR_START_BANNED)
    if sub == "estimate":  # the dataset reader's csv is analyze's alone
        assert "csv" not in loaded


def test_package_import_loads_no_submodule():
    assert _package_modules(_loaded_modules("import linexsel\n")) == {"linexsel"}


def test_oracles_load_admissibility_only_for_the_benchmark_alias():
    loaded = _loaded_modules("import linexsel.oracles\n")
    assert "linexsel.oracles" in loaded
    assert "linexsel.admissibility" not in loaded
    from linexsel import admissibility
    from linexsel.oracles import shift_risk_quadrature

    assert shift_risk_quadrature is admissibility.shift_risk
    with pytest.raises(AttributeError, match="module 'linexsel.oracles' has no attribute 'nope'"):
        linexsel.oracles.nope


def test_lazy_namespace_serves_every_public_name():
    assert linexsel.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(linexsel))
    for name in PUBLIC_NAMES:
        getattr(linexsel, name)  # AttributeError where a name lost its home module
    from linexsel.analysis import DatasetError
    from linexsel.risksim import table_columns

    assert DatasetError is linexsel.DatasetError
    assert table_columns is linexsel.improvement.table_columns
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        linexsel.nope


def test_parser_choices_match_the_modules_they_copy():
    from linexsel import cli, estimators, risksim

    assert list(cli.TABLE_IDS) == sorted(risksim.TABLE_SPECS)
    assert cli.BASE_KINDS == estimators.BASE_KINDS


def test_numpy_first_loaded_inside_the_pool():
    # numpy's first import can happen on two of a sweep's threads at once, as
    # the first cells start; the sweep still gives the golden CSV
    probe = (
        "import hashlib, sys\n"
        "from linexsel.risksim import risk_grid\n"
        "assert 'numpy' not in sys.modules\n"
        "csv = risk_grid(7, reps=2000, master_seed=42, workers=4).to_csv()\n"
        "print(hashlib.sha256(csv.encode()).hexdigest())"
    )
    assert _fresh_python(probe) == GOLDEN_TABLE_SHA256[7]


def test_threaded_sweep_loads_no_thread_pool():
    # a sweep's helpers are plain threads: neither concurrent.futures nor the
    # logging it pulls in is loaded
    probe = (
        "import hashlib, json, sys\n"
        "from linexsel.risksim import risk_grid\n"
        "csv = risk_grid(7, reps=2000, master_seed=42, workers=2).to_csv()\n"
        "loaded = [m for m in ('concurrent.futures', 'logging') if m in sys.modules]\n"
        "print(json.dumps([loaded, hashlib.sha256(csv.encode()).hexdigest()]))"
    )
    loaded, digest = json.loads(_fresh_python(probe))
    assert loaded == []
    assert digest == GOLDEN_TABLE_SHA256[7]


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable every
    # subcommand succeeds, and a sweep on four threads gives the golden CSV
    runs = [
        ["estimate", "--x", "59.0997,58.3516", "--y", "131.4569,195.7275", "--cov", COV,
         "--a", "1", "--out", str(tmp_path / "estimate")],
        ["admissibility", "--cov", "2,1,2", "--a", "1", "--d", "-1.2",
         "--out", str(tmp_path / "admissibility")],
        ["analyze", "--clean", "--a", "1", "--out", str(tmp_path / "analyze")],
        ["simulate", "--table", "7", "--seed", "42", "--reps", "2000",
         "--out", str(tmp_path / "simulate")],
    ]
    probe = (
        "import hashlib, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import linexsel.cli\n"
        "from linexsel.risksim import risk_grid\n"
        "codes = [linexsel.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "csv = risk_grid(7, reps=2000, master_seed=42, workers=4).to_csv()\n"
        "print(json.dumps([codes, hashlib.sha256(csv.encode()).hexdigest()]))"
    )
    codes, digest = json.loads(_fresh_python(probe, json.dumps(runs)))
    assert codes == [0, 0, 0, 0]
    assert digest == GOLDEN_TABLE_SHA256[7]
    written = (tmp_path / "simulate" / "table7.csv").read_bytes()
    assert hashlib.sha256(written).hexdigest() == GOLDEN_TABLE_SHA256[7]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_program_keeps_its_heap(tmp_path):
    # each sweep thread reuses one workspace, so the pages of a 20000-rep cell
    # are faulted in once per sweep rather than once per cell (~24k minor faults
    # for table 7, where glibc trims every cell's freed arrays away); the
    # kernels' short-lived temporaries, allocated call by call, bring the
    # sweep's own to ~3.4k, from ~2.1k while a workspace lent them
    probe = (
        "import resource, sys\n"
        "import linexsel.cli\n"
        "import numpy\n"  # its import faults are not the sweep's
        "sys.argv = ['linexsel', 'simulate', '--table', '7', '--reps', '20000', '--out', sys.argv[1]]\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "try:\n"
        "    linexsel.cli.run()\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    code, faults = map(int, _fresh_python(probe, str(tmp_path)).split())
    assert code == 0
    assert faults < 5000


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
@pytest.mark.parametrize("workers", [1, 2])
def test_library_sweep_keeps_its_heap(workers):
    # a library caller's fresh interpreter, with glibc's default thresholds and
    # no program entry point: ~2.2k minor faults on one worker and ~2.9k on two
    # (~1.2k and ~1.8k while a workspace lent the kernels their temporaries),
    # against ~24k and ~21k while each cell allocated its own arrays
    probe = (
        "import resource, sys\n"
        "from linexsel.risksim import risk_grid\n"
        "import numpy\n"  # its import faults are not the sweep's
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "risk_grid(7, 20000, 42, workers=int(sys.argv[1]))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    assert int(_fresh_python(probe, str(workers))) < 5000


#: a run of the program for each exit code: its arguments (before --out) and code
PROGRAM_RUNS = {
    "simulate": (["simulate", "--table", "7", "--seed", "42", "--reps", "2000"], 0),
    "estimate": (["estimate", *WORKED, "--a", "1"], 0),
    "overflow": (["simulate", "--cov", "2,0,2000", "--a", "30", "--reps", "50"], 1),
    "zero_a": (["estimate", "--x", "0,1", "--y", "0,1", "--cov", "1,0,1", "--a", "0"], 2),
}


@pytest.mark.parametrize("argv, code", [
    *((SUBCOMMAND_ARGS[sub], 0) for sub in sorted(SUBCOMMAND_ARGS)),
    PROGRAM_RUNS["overflow"],
    PROGRAM_RUNS["zero_a"],
], ids=[*sorted(SUBCOMMAND_ARGS), "overflow", "zero_a"])
def test_main_leaves_the_callers_collector_alone(capsys, tmp_path, monkeypatch, argv, code):
    # only the program's own process disables and freezes the collector and
    # defaults OPENBLAS_NUM_THREADS, in run(); in main, a freeze would pin every
    # object alive at its return, and the rest would change the environment, in
    # the test suite, in the benchmark's in-process sweeps and in any library caller
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = gc.isenabled(), gc.get_freeze_count(), os.environ.get("OPENBLAS_NUM_THREADS")
    assert run(capsys, *argv, "--out", str(tmp_path))[0] == code
    assert (gc.isenabled(), gc.get_freeze_count(), os.environ.get("OPENBLAS_NUM_THREADS")) == before


@pytest.mark.parametrize("case", sorted(PROGRAM_RUNS))
def test_program_exits_as_main_returns(capsysbinary, tmp_path, monkeypatch, case):
    # `python -m linexsel.cli` writes what main writes in process, byte for
    # byte, and exits with main's code; its collector is disabled and frozen by
    # then, and it still runs the atexit handlers that an exit through os._exit
    # skips. It ran with OPENBLAS_NUM_THREADS defaulted to 1, so numpy started
    # no BLAS worker thread, unless the caller set the variable itself
    argv, code = PROGRAM_RUNS[case]
    argv = [*argv, "--out", "out"]  # relative, so `wrote out/...` reads the same in both runs
    for side in ("main", "program"):
        (tmp_path / side).mkdir()
    monkeypatch.chdir(tmp_path / "main")
    expected = run(capsysbinary, *argv)
    program = subprocess.run([sys.executable, "-m", "linexsel.cli", *argv], cwd=tmp_path / "program",
                             env=_checkout_env(), capture_output=True)
    assert (program.returncode, program.stdout, program.stderr) == expected
    assert expected[0] == code and expected[1 if code == 0 else 2].endswith(b"\n")
    if case == "simulate":
        assert program.stderr.count(b"warning: ") == 46
    written = [{f.name: f.read_bytes() for f in (tmp_path / side / "out").glob("*")}
               for side in ("main", "program")]
    assert written[0] == written[1]
    probe = (
        "import atexit, gc, os, sys\n"
        "marker = sys.argv[1]\n"
        "def threads():\n"
        "    if not os.path.exists('/proc/self/status'):\n"
        "        return None\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(ln.split()[1]) for ln in status if ln.startswith('Threads:'))\n"
        "atexit.register(lambda: open(marker, 'w').write(repr((\n"
        "    gc.get_freeze_count() > 0, gc.isenabled(), os.environ.get('OPENBLAS_NUM_THREADS'), threads()))))\n"
        "import linexsel.cli\n"
        "sys.argv = ['linexsel', *sys.argv[2:]]\n"
        "linexsel.cli.run()\n"
    )
    marker = tmp_path / "atexit"
    env = {k: v for k, v in _checkout_env().items() if k != "OPENBLAS_NUM_THREADS"}
    for blas in ([None, "2"] if case == "simulate" else [None]):  # None: the caller set no value
        run_env = env if blas is None else {**env, "OPENBLAS_NUM_THREADS": blas}
        marker.unlink(missing_ok=True)
        exited = subprocess.run([sys.executable, "-c", probe, str(marker), *argv],
                                cwd=tmp_path / "program", env=run_env, capture_output=True)
        assert exited.returncode == code
        frozen, enabled, blas_threads, threads = ast.literal_eval(marker.read_text())
        assert (frozen, enabled, blas_threads) == (True, False, blas or "1")
        if blas is None and case == "simulate" and threads is not None:
            assert threads == 1  # numpy is loaded, and OpenBLAS runs on the main thread alone


@pytest.mark.parametrize("fails", ["workspace", "sweep"])
def test_out_of_memory_exits_one(capsys, tmp_path, monkeypatch, fails):
    # a MemoryError while building a cell's workspace or inside the sweep names
    # the grid and its reps instead of ending in a traceback
    from linexsel import risksim

    def no_memory(*args, **kwargs):
        raise MemoryError

    if fails == "workspace":
        monkeypatch.setattr(risksim.CellWorkspace, "__init__", no_memory)
    else:
        monkeypatch.setattr(risksim, "sample_block", no_memory)
    code, out, err = run(capsys, "simulate", "--table", "7", "--reps", "2000", "--out", str(tmp_path))
    assert code == 1
    assert "out of memory sweeping table 7 at 2000 reps" in err
    assert "Traceback" not in err
    assert not (tmp_path / "table7.csv").exists()


@pytest.mark.parametrize("grid", [
    *(("--table", str(t)) for t in range(5, 11)),
    ("--cov", "1,0.5,1", "--a", "1", "--improved", "N1", "N2", "N3", "N4"),
    ("--cov", "1,-0.5,1", "--a", "-1", "--improved", "N1", "N2", "N3", "N4"),
])
def test_workspace_stays_within_its_bytes_per_rep(capsys, tmp_path, monkeypatch, grid):
    # the memory pre-check weighs a sweep by CellWorkspace.size per thread, a
    # count per rep of a block's row and of each column, and one per row; the
    # sweep's traced peak, the workspaces, the kernels' temporaries and the
    # cells' Python objects together, must come to no more than that
    import tracemalloc

    from linexsel import risksim

    run_cells, swept = risksim._run_cells, []

    def traced(blocks, reps, workers, reduce):
        run_cells(blocks, reps, workers, reduce)  # a first sweep's imports are not the sweep's
        tracemalloc.start()
        try:
            results = run_cells(blocks, reps, workers, reduce)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows, columns = max(map(len, blocks)), max(len(block[0].specs) for block in blocks)
        swept.append((min(workers, len(blocks)), rows, reps, columns, peak))
        return results

    monkeypatch.setattr(risksim, "_run_cells", traced)
    # at 10 and 50 reps the cells' Python objects outweigh their arrays, at
    # 2000 the arrays hold nearly all of the peak; each leaves room for blocks
    # of several rows
    for reps in (10, 50, 2000):
        code, _, _ = run(capsys, "simulate", *grid, "--reps", str(reps), "--out", str(tmp_path))
        assert code == 0
        [(threads, rows, reps, columns, peak)] = swept
        swept.clear()
        assert rows > 1
        assert peak <= threads * risksim.CellWorkspace.size(rows, reps, columns), reps


@pytest.mark.parametrize("grid", ["table", "custom"])
def test_sweep_too_large_for_the_machine_exits_one(capsys, tmp_path, monkeypatch, grid):
    # the sweep's workspaces are weighed against physical memory before any is
    # built; a 4 MiB machine is faked, so nothing large is allocated (10 reps
    # fit on any CPU count, 100000 not even on one)
    from linexsel import risksim

    pages = {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    args = ("--table", "7") if grid == "table" else ("--cov", "2,1,2", "--a", "1")
    code, _, _ = run(capsys, "simulate", *args, "--reps", "10", "--out", str(tmp_path / "fits"))
    assert code == 0

    def built(*args, **kwargs):
        raise AssertionError("a workspace was built")

    monkeypatch.setattr(risksim.CellWorkspace, "__init__", built)
    code, _, err = run(capsys, "simulate", *args, "--reps", "100000", "--out", str(tmp_path))
    assert code == 1
    name = "table 7" if grid == "table" else "the custom grid"
    assert f"sweeping {name} at 100000 reps" in err
    assert "physical memory" in err
    assert list(tmp_path.glob("*.csv")) == []
