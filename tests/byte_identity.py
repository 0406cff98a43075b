#!/usr/bin/env python3
"""Byte identity of the program's results: a named catalogue of probes, one SHA-256 each.

    python tests/byte_identity.py                 # this checkout, one line a probe
    python tests/byte_identity.py --against PATH  # this checkout and the one at PATH

A probe hashes what one part of the program gives on fixed inputs:

- `kernel.<name>`: the float bits (and bool bytes) that each array kernel of
  the risk cell returns over seeded draws, at |rho| = 1 and rho = 0, with
  signed zeros, ties and N3's log and tail branches among them. A kernel is
  looked up in `linexsel.kernels` or, in a checkout without that module, in
  the module it lived in, so the probe runs in both.
- `stream.philox_raw`, `stream.normals`: the raw Philox words of one
  stream key of layout v1, then its first normals, drawn as a risk cell
  draws them. They name what drifted if numpy changes underneath the
  layout.
- `grid.table<N>`: the float bits of every mean and standard error of
  `risk_grid(N, reps=2000, master_seed=42, workers=1)`.
- `scalar.reports`: the float bits of a report (select, every estimator,
  the band, the admissibility verdict) for 50 observations under each of
  20 models, taken in order and then switching model at every observation.
- `cli.<case>`: one `python -m linexsel.cli` run in an empty directory:
  its arguments, exit code, stdout, stderr and every file it writes. The
  cases are `simulate` of tables 5-10 at seed 42, two custom grids (exit 0
  and exit 1), the golden `estimate`, `admissibility` and `analyze` reports
  of tests/test_cli.py, and the usage errors that exit 2.

Every probe runs in a new interpreter with PYTHONPATH=<checkout>/src and
PYTHONDONTWRITEBYTECODE=1: the library probes in one, each CLI run in its
own. Without `--against` the script prints `<sha256>  <probe>` for each. With
it, it runs the catalogue in both checkouts on the same host, prints each probe
that differs and then `byte identity: N probes, K differ against PATH`,
and exits 1 when K > 0. Float bits hold on one host at one numpy build and
SIMD level, which the first line (`# numpy ...`) names; compare them only
there. Standard library and numpy only; about 6 s for both checkouts on
two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]

#: the worked example's observed pair and fitted covariance, plus a shift and a prior
WORKED = ("--x", "59.0997,58.3516", "--y", "131.4569,195.7275", "--cov", "8.1645,40.0655,952.9425",
          "--d", "2", "--prior", "59,131,100")

#: each CLI case: its arguments, before `--out out`
CLI_CASES: dict[str, tuple[str, ...]] = {
    **{f"simulate.table{t}": ("simulate", "--table", str(t), "--seed", "42", "--reps", "2000")
       for t in range(5, 11)},
    "simulate.custom": ("simulate", "--cov", "1,0.5,2", "--a", "-0.5", "--c", "0.5",
                        "--improved", "N1", "N3", "N4", "--reps", "500", "--seed", "7"),
    "simulate.custom_overflow": ("simulate", "--cov", "2,0,2000", "--a", "30", "--reps", "50"),
    **{f"estimate.a{a}.{fmt}": ("estimate", *WORKED, "--a", a, "--format", fmt)
       for a in ("1", "-1") for fmt in ("text", "csv")},
    "estimate.a1e-17": ("estimate", *WORKED, "--a", "1e-17"),
    **{f"admissibility.a{a}.{fmt}": ("admissibility", "--cov", "2,1,2", "--d", "0", "--a", a,
                                     "--format", fmt)
       for a in ("1", "-1") for fmt in ("text", "csv")},
    **{f"analyze.a{a}": ("analyze", "--clean", "--a", a) for a in ("1", "-1")},
    "exit2.estimate_zero_a": ("estimate", "--x", "0,1", "--y", "0,1", "--cov", "1,0,1", "--a", "0"),
    "exit2.estimate_three_x": ("estimate", "--x", "0,1,2", "--y", "0,1", "--cov", "1,0,1", "--a", "1"),
    "exit2.estimate_bad_number": ("estimate", "--x", "0,one", "--y", "0,1", "--cov", "1,0,1",
                                  "--a", "1"),
    "exit2.estimate_bad_cov": ("estimate", "--x", "0,1", "--y", "0,1", "--cov", "1,2,1", "--a", "1"),
    "exit2.estimate_singular_bayes": ("estimate", "--x", "0,1", "--y", "0,1", "--cov", "2,2,2",
                                      "--a", "1", "--prior", "0,0,1"),
    "exit2.estimate_inf_difference": ("estimate", "--x", "0,0.1", "--y", "1e308,-1e308",
                                      "--cov", "1,0.5,1", "--a", "1"),
    "exit2.simulate_zero_reps": ("simulate", "--table", "5", "--reps", "0"),
    "exit2.simulate_custom_without_a": ("simulate", "--cov", "1,0,1"),
    "exit2.simulate_table_and_cov": ("simulate", "--table", "5", "--cov", "1,0,1"),
}

#: where each kernel lived before the risk cell's kernels had one module
KERNEL_HOMES = ("kernels", "core", "selection", "estimators", "oracles")


def kernel(name: str) -> Callable:
    """The array kernel `name` from `linexsel.kernels`, or from its former module."""
    import importlib

    for module in KERNEL_HOMES:
        try:
            found = getattr(importlib.import_module(f"linexsel.{module}"), name, None)
        except ImportError:
            continue
        if found is not None:
            return found
    raise LookupError(f"no kernel {name!r} in linexsel")


class Digest:
    """A SHA-256 over floats, arrays and text, each fed with its type, shape and bytes."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values) -> "Digest":
        import numpy as np

        for v in values:
            if isinstance(v, (tuple, list)):
                self._h.update(b"(%d" % len(v))
                self.add(*v)
            elif isinstance(v, np.ndarray) or isinstance(v, np.generic):
                a = np.ascontiguousarray(v)
                self._h.update(f"{a.dtype.str}{a.shape}".encode())
                self._h.update(a.tobytes())
            elif isinstance(v, float):
                self._h.update(b"d" + struct.pack("<d", v))
            elif isinstance(v, (str, bytes)):
                data = v.encode() if isinstance(v, str) else v
                self._h.update(b"s%d:" % len(data) + data)
            elif v is None:
                self._h.update(b"N")
            else:
                self._h.update(f"{type(v).__name__}:{v!r}".encode())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _draws(seed: int, n: int = 4000):
    """(x1, y1, x2, y2) with ties, signed zeros and a tail far enough out for N3's branches."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x1, y1, x2, y2 = rng.standard_normal((4, n)) * np.array([[1.0], [3.0], [1.0], [3.0]])
    x2[::17] = x1[::17]  # ties go to population 2
    x1[5::31], x2[5::31] = 0.0, -0.0
    x1[7::31], x2[7::31] = -0.0, 0.0
    y1[3::29], y2[3::29] = -0.0, 0.0
    y2[13::41] += 60.0  # a*t2 past N3's log switch
    # Phi(t1 / sd) and exp(-a*t2) both underflow: N3's tail, for a > 0 and for a < 0
    x1[11::37] -= 120.0
    y1[11::74] += 1500.0
    y2[48::74] += 1500.0
    return x1, y1, x2, y2


#: the models of the kernel probes: (sigma_xx, sigma_yy, rho, a)
KERNEL_MODELS = ((2.0, 2.0, 1.0, 1.0), (2.0, 2.0, -1.0, 1.0), (4.0, 4.0, 0.0, -1.0),
                 (1.0, 2.5, 0.5, 2.5), (3.0, 0.5, -0.3, -0.7))


def _models():
    from linexsel import CovarianceSpec, LinexParams

    for sxx, syy, rho, a in KERNEL_MODELS:
        yield CovarianceSpec.from_correlation(sxx, syy, rho), LinexParams(a)


def _summary(seed: int):
    x1, y1, x2, y2 = _draws(seed)
    return kernel("select_batch")(x1, y1, x2, y2), (x1, y1, x2, y2)


def probe_std_normal_cdf_batch() -> str:
    import numpy as np

    u = -np.abs(np.random.default_rng(1).standard_normal(20000)) * 6.0
    u = np.concatenate([u, [0.0, -0.0, -37.5, -38.5, -38.7, -40.0, -41.0, -1e200, -np.inf]])
    return Digest().add(kernel("std_normal_cdf_batch")(u)).hexdigest()


def probe_linex_loss() -> str:
    import numpy as np

    from linexsel import LinexParams

    rng = np.random.default_rng(2)
    d = Digest()
    for a in (1.0, -1.0, 2.5, -0.3):
        delta, theta = rng.standard_normal((2, 3, 2, 500)) * 4.0
        d.add(kernel("linex_loss")(delta, theta, LinexParams(a)))
        d.add(kernel("linex_loss")(delta[0, 0], theta[0, 0], LinexParams(a)))
        d.add(float(kernel("linex_loss")(0.75, -0.25, LinexParams(a))))
    return d.hexdigest()


def probe_blend() -> str:
    import numpy as np

    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 5000))
    a[::13], b[::11] = -0.0, 0.0
    cond = rng.random(5000) < 0.5
    blend, mask_blend = kernel("blend"), kernel("mask_blend")
    mask = np.negative(cond.view(np.int8)).astype(np.int64)
    return Digest().add(
        blend(cond, a, b), blend(cond, a, 0.0), blend(cond, -0.0, b), blend(cond, a, b, np.empty(5000)),
        mask_blend(mask, a, b), mask_blend(mask, 1.5, b),
    ).hexdigest()


def probe_select_batch() -> str:
    s, _ = _summary(4)
    return Digest().add(s.y_sel, s.t1, s.t2, s.selected, s.x_max, s.x_min, s.y_other).hexdigest()


def probe_clip_band_batch() -> str:
    s, _ = _summary(5)
    d = Digest()
    for cov, a in _models():
        d.add(*kernel("clip_band_batch")(s.t1, s.t2, a, cov))
    return d.hexdigest()


def _base_specs():
    from linexsel import EstimatorSpec

    return (EstimatorSpec.n1(), EstimatorSpec.n2(), EstimatorSpec.n3(), EstimatorSpec.n4(1.0),
            EstimatorSpec.n4(0.0), EstimatorSpec.n4(2.5))


def probe_n3_offset_batch() -> str:
    s, _ = _summary(6)
    d = Digest()
    for cov, a in _models():
        d.add(kernel("n3_offset_batch")(s.t1, s.t2, a, cov))
    return d.hexdigest()


def probe_base_phi_batch() -> str:
    s, _ = _summary(7)
    d = Digest()
    for cov, a in _models():
        for spec in _base_specs():
            d.add(kernel("base_phi_batch")(spec, s, a, cov))
    return d.hexdigest()


def _estimate(spec, s, a, cov):
    """`evaluate_batch` of `spec`, handed a base's component and the clip band as the risk cell hands them."""
    base = spec.base if spec.kind == "Improved" else spec
    phi = None if base.kind in ("Shift", "Bayes") else kernel("base_phi_batch")(base, s, a, cov)
    band = kernel("clip_band_batch")(s.t1, s.t2, a, cov)
    return kernel("evaluate_batch")(spec, s, a, cov, phi, None, band)


def probe_improve_batch() -> str:
    from linexsel import EstimatorSpec

    # through evaluate_batch: its arguments are the same in each checkout compared, improve_batch's are not
    s, _ = _summary(8)
    d = Digest()
    for cov, a in _models():
        for spec in _base_specs():
            d.add(_estimate(EstimatorSpec.improved(spec), s, a, cov))
    return d.hexdigest()


def probe_evaluate_batch() -> str:
    import numpy as np

    from linexsel import EstimatorSpec, PriorSpec
    from linexsel.core import replace

    s, (x1, _, x2, _) = _summary(9)
    with_max = replace(s, x_max=np.maximum(x1, x2))
    specs = (*_base_specs(), EstimatorSpec.shift(-1.25), EstimatorSpec.shift(0.0),
             *(EstimatorSpec.improved(spec) for spec in _base_specs()))
    d = Digest()
    for cov, a in _models():
        for spec in specs:
            d.add(_estimate(spec, s, a, cov))
        if not cov.is_singular:
            d.add(kernel("evaluate_batch")(EstimatorSpec.bayes(PriorSpec(0.5, -0.5, 2.0)), with_max, a, cov))
    return d.hexdigest()


def probe_philox_raw() -> str:
    from linexsel import rng_stream

    return Digest().add(rng_stream(42, 7, 3, 2).bit_generator.random_raw(4096)).hexdigest()


def probe_normals() -> str:
    from linexsel import rng_stream

    return Digest().add(rng_stream(42, 7, 3, 2).standard_normal((4, 2000))).hexdigest()


def grid_digest(table: int, reps: int = 2000, workers: int = 1) -> str:
    """The float bits of each cell's mean and standard error in `risk_grid(table, reps, 42, workers)`."""
    from linexsel import risk_grid

    grid = risk_grid(table, reps=reps, master_seed=42, workers=workers)
    d = Digest()
    for (i, j), est in sorted(grid.estimates.items()):
        d.add(i, j, est.mean_risk, est.std_error)
    return d.hexdigest()


def probe_scalar_reports() -> str:
    import random

    from linexsel import (CovarianceSpec, EstimatorSpec, LinexError, LinexParams, ObservationPair,
                          PriorSpec, classify, evaluate, select)
    from linexsel.oracles import clip_band

    rng = random.Random(2024)
    models = []
    for _ in range(20):
        rho = rng.choice((1.0, -1.0, 0.0, rng.uniform(-0.95, 0.95)))
        cov = CovarianceSpec.from_correlation(rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0), rho)
        models.append((cov, LinexParams(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0))))
    observations = [ObservationPair((rng.gauss(0, 2), rng.gauss(0, 2)), (rng.gauss(0, 2), rng.gauss(0, 2)))
                    for _ in range(50)]
    bases = _base_specs()
    specs = (*bases, EstimatorSpec.shift(0.3), *(EstimatorSpec.improved(b) for b in bases))
    prior = PriorSpec(0.0, 0.0, 1.5)
    d = Digest()

    def report(cov, a, obs):
        s = select(obs)
        d.add(s.selected, s.t1, s.t2, *(evaluate(spec, s, a, cov) for spec in specs))
        if not cov.is_singular:
            d.add(evaluate(EstimatorSpec.bayes(prior), s, a, cov))
        d.add(*clip_band(s.t1, s.t2, a, cov))
        try:
            d.add(classify(s.t2 / 2.0, a, cov))
        except LinexError as exc:
            d.add(type(exc).__name__)

    for cov, a in models:  # one model at a time
        for obs in observations:
            report(cov, a, obs)
    for k, obs in enumerate(observations * 4):  # a new model at every observation
        report(*models[k % len(models)], obs)
    return d.hexdigest()


#: the probes that run in one interpreter, in order
LIBRARY_PROBES: dict[str, Callable[[], str]] = {
    "kernel.std_normal_cdf_batch": probe_std_normal_cdf_batch,
    "kernel.linex_loss": probe_linex_loss,
    "kernel.blend": probe_blend,
    "kernel.select_batch": probe_select_batch,
    "kernel.clip_band_batch": probe_clip_band_batch,
    "kernel.improve_batch": probe_improve_batch,
    "kernel.n3_offset_batch": probe_n3_offset_batch,
    "kernel.base_phi_batch": probe_base_phi_batch,
    "kernel.evaluate_batch": probe_evaluate_batch,
    "stream.philox_raw": probe_philox_raw,
    "stream.normals": probe_normals,
    **{f"grid.table{t}": partial(grid_digest, t) for t in range(5, 11)},
    "scalar.reports": probe_scalar_reports,
}


def probe_names() -> list[str]:
    """Every probe of the catalogue, in the order it runs."""
    return [*LIBRARY_PROBES, *(f"cli.{case}" for case in CLI_CASES)]


def _env(checkout: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return {**env, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def _cli_digest(checkout: Path, argv: tuple[str, ...]) -> str:
    with tempfile.TemporaryDirectory(prefix="linexsel-identity-") as tmp:
        cmd = [sys.executable, "-m", "linexsel.cli", *argv, "--out", "out"]
        proc = subprocess.run(cmd, cwd=tmp, env=_env(checkout), capture_output=True)
        d = Digest().add(list(argv), proc.returncode, proc.stdout, proc.stderr)
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                d.add(path.relative_to(tmp).as_posix(), path.read_bytes())
        return d.hexdigest()


def host_line() -> str:
    """`# numpy <version>, SIMD <the dispatched CPU features it runs>`."""
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    enabled = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return f"# numpy {np.__version__}, SIMD {' '.join(enabled) or 'baseline'}"


def run_catalogue(checkout: Path) -> tuple[str, dict[str, str]]:
    """(the host line, each probe's digest) for the checkout at `checkout`."""
    proc = subprocess.run([sys.executable, __file__, "--library"], env=_env(checkout),
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"library probes failed in {checkout}:\n{proc.stderr}")
    host, *lines = proc.stdout.splitlines()
    digests = dict(reversed(line.split("  ", 1)) for line in lines)
    for case, argv in CLI_CASES.items():
        digests[f"cli.{case}"] = _cli_digest(checkout, argv)
    return host, digests


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", type=Path, default=None, help="a second checkout to compare with")
    p.add_argument("--library", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.library:  # the child: the library probes of the checkout on PYTHONPATH
        print(host_line())
        for name, probe in LIBRARY_PROBES.items():
            print(f"{probe()}  {name}", flush=True)
        return 0
    host, here = run_catalogue(ROOT)
    print(host)
    if args.against is None:
        for name in probe_names():
            print(f"{here[name]}  {name}")
        return 0
    there_host, there = run_catalogue(args.against.resolve())
    if there_host != host:
        print(f"host lines differ: {there_host!r} against this checkout's {host!r}")
    differ = [name for name in probe_names() if here[name] != there[name]]
    for name in differ:
        print(f"differs: {name}")
    print(f"byte identity: {len(here)} probes, {len(differ)} differ against {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
