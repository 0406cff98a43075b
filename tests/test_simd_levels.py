"""CSV and manifest bytes are the same at every SIMD level numpy can be held to on this CPU.

numpy picks its exp, expm1, log and log1p code by CPU feature when it is
imported, and the paths of different levels can differ in a result's last
bit. A CSV prints each risk with `:.6g`, so those bits should not reach it.
Each level runs in a child process: numpy's default level, and each of two
levels below it that `NPY_DISABLE_CPU_FEATURES` gives. On an AVX-512 CPU
these are AVX2 (X86_V3), the level an AVX2-only host runs, and, with X86_V3
off as well, numpy's baseline (X86_V2 on an x86-64 wheel). A child sweeps
table 9 in process and runs one `simulate` of table 6 through the CLI; the
test compares each lower level's CSV and manifest bytes with the default
level's and prints how many float bits of the sweep's estimates differ,
without asserting on that count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: the features that, once disabled, leave an AVX-512 CPU at numpy's AVX2 level
BELOW_DEFAULT = "X86_V4 AVX512_ICL AVX512_SPR"
#: ... and, with AVX2 off too, at numpy's baseline level
BELOW_AVX2 = f"{BELOW_DEFAULT} X86_V3"

PROBE = """\
import json, struct, sys
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from linexsel import risk_grid
from linexsel.cli import main

grid = risk_grid(9, reps=500, master_seed=42, workers=1)
bits = [struct.pack("<dd", est.mean_risk, est.std_error).hex() for _, est in sorted(grid.estimates.items())]
code = main(["simulate", "--table", "6", "--reps", "500", "--seed", "42", "--out", sys.argv[1]])
print(json.dumps({"features": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
                  "csv": grid.to_csv(), "bits": bits, "code": code}))
"""


def _run_level(outdir: Path, disabled: str | None) -> tuple[subprocess.CompletedProcess, dict | None]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run([sys.executable, "-c", PROBE, str(outdir)], env=env, capture_output=True,
                          text=True, timeout=300)
    return proc, json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None


@pytest.fixture(scope="module")
def default_level(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("default")
    proc, level = _run_level(outdir, None)
    assert level is not None, proc.stderr
    return outdir, level


@pytest.mark.parametrize("disabled", [BELOW_DEFAULT, BELOW_AVX2], ids=["no_x86_v4", "no_x86_v3"])
def test_csv_and_manifest_bytes_hold_across_simd_levels(tmp_path, default_level, disabled):
    default_dir, default = default_level
    lower_proc, lower = _run_level(tmp_path, disabled)
    if lower is None:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={disabled!r}: "
                    f"{lower_proc.stderr.strip().splitlines()[-1]}")
    if lower["features"] == default["features"]:
        pytest.skip(f"disabling {disabled} leaves numpy at its default level "
                    f"({' '.join(default['features']) or 'baseline'})")
    assert default["code"] == lower["code"] == 0
    assert lower["csv"] == default["csv"]
    for name in ("table6.csv", "simulate_manifest.json"):
        assert (tmp_path / name).read_bytes() == (default_dir / name).read_bytes(), name
    differ = sum(a != b for a, b in zip(default["bits"], lower["bits"]))
    print(f"{' '.join(default['features'])} against {' '.join(lower['features']) or 'baseline'}: "
          f"{differ} of {len(default['bits'])} table-9 estimates differ in their float bits")
