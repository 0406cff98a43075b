"""CSV and manifest bytes are the same at every SIMD level numpy can be held to on this CPU.

numpy picks its exp, expm1, log and log1p code by CPU feature when it is
imported, and the paths of different levels can differ in a result's last
bit. A CSV prints each risk with `:.6g`, so those bits should not reach it.
Each level runs in a child process: numpy's default level, and the level
below it that `NPY_DISABLE_CPU_FEATURES` gives (AVX2 on an AVX-512 CPU), the
level an AVX2-only host runs. A child sweeps table 9 in process and runs one
`simulate` of table 6 through the CLI; the test compares their CSV and
manifest bytes and prints how many float bits of the sweep's estimates
differ, without asserting on that count.
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


def test_csv_and_manifest_bytes_hold_across_simd_levels(tmp_path):
    default_proc, default = _run_level(tmp_path / "default", None)
    assert default is not None, default_proc.stderr
    lower_proc, lower = _run_level(tmp_path / "lower", BELOW_DEFAULT)
    if lower is None:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={BELOW_DEFAULT!r}: "
                    f"{lower_proc.stderr.strip().splitlines()[-1]}")
    if lower["features"] == default["features"]:
        pytest.skip(f"disabling {BELOW_DEFAULT} leaves numpy at its default level "
                    f"({' '.join(default['features']) or 'baseline'})")
    assert default["code"] == lower["code"] == 0
    assert lower["csv"] == default["csv"]
    for name in ("table6.csv", "simulate_manifest.json"):
        assert (tmp_path / "lower" / name).read_bytes() == (tmp_path / "default" / name).read_bytes(), name
    differ = sum(a != b for a, b in zip(default["bits"], lower["bits"]))
    print(f"{' '.join(default['features'])} against {' '.join(lower['features']) or 'baseline'}: "
          f"{differ} of {len(default['bits'])} table-9 estimates differ in their float bits")
