"""Random argument lists through `cli.main`, one property per subcommand.

Numbers come from a pool of extremes (signed zeros, the smallest subnormal,
1e-300, +-1e308, +-700 where exp overflows, +-inf, nan) and from random
doubles. Every run, in process, must:

- exit 0, 1 or 2, with no exception escaping `main`;
- at exit 0, print and write only finite numbers (its manifest included);
- at a non-zero exit, write no file and no manifest;
- at a non-zero exit, start stderr with `error:` or `runtime error:`, and
  at exit 0 write nothing to stderr but `warning:` lines.

`simulate` keeps --reps between 1 and 50, so each property takes seconds.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from linexsel.cli import BASE_KINDS, TABLE_IDS, main

from ._strategies import PROPERTY

EXTREMES = (0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e308, -1e308, 700.0, -700.0,
            math.inf, -math.inf, math.nan, 1.0, -1.0, 2.0)
NUMBER = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-10.0, 10.0))

#: a word that spells a non-finite number: Python's `inf`/`nan`, JSON's `Infinity`/`NaN`
NON_FINITE = re.compile(r"\b(?:inf|infinity|nan)\b", re.IGNORECASE)


def numbers(n):
    return st.lists(NUMBER, min_size=n, max_size=n).map(lambda xs: ",".join(map(repr, xs)))


#: sigma_xx, sigma_xy, sigma_yy: two times in three a matrix with positive
#: variances and |rho| <= 1 (the knife edges included), else any three numbers
SCALE = st.one_of(st.floats(1e-3, 1e3), st.sampled_from((5e-324, 1e-300, 1e-10, 700.0, 1e308)))
RHO = st.one_of(st.sampled_from((-1.0, 0.0, 1.0)), st.floats(-1.0, 1.0))
MATRIX = st.tuples(SCALE, RHO, SCALE).map(
    lambda t: f"{t[0]!r},{t[1] * math.sqrt(t[0]) * math.sqrt(t[2])!r},{t[2]!r}")
COV = st.one_of(MATRIX, MATRIX, numbers(3))


def flag(name, values):
    """`--name=value` (the `=` keeps a leading minus sign from reading as a flag), or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def args(*parts):
    return st.tuples(*parts).map(lambda lists: [a for part in lists for a in part])


FORMAT = st.sampled_from([[], ["--format=csv"], ["--format=text"]])
SCALAR = NUMBER.map(repr)
ESTIMATE = args(
    st.just(["estimate"]), numbers(2).map(lambda v: [f"--x={v}"]),
    numbers(2).map(lambda v: [f"--y={v}"]), COV.map(lambda v: [f"--cov={v}"]),
    SCALAR.map(lambda v: [f"--a={v}"]), flag("c", SCALAR), flag("d", SCALAR),
    flag("prior", numbers(3)), FORMAT,
)
ADMISSIBILITY = args(
    st.just(["admissibility"]), COV.map(lambda v: [f"--cov={v}"]),
    SCALAR.map(lambda v: [f"--a={v}"]), flag("d", SCALAR), FORMAT,
)
CUSTOM_GRID = args(
    COV.map(lambda v: [f"--cov={v}"]), SCALAR.map(lambda v: [f"--a={v}"]),
    flag("c", SCALAR),
    st.one_of(st.just([]), st.lists(st.sampled_from(BASE_KINDS), unique=True).map(
        lambda kinds: ["--improved", *kinds])),
)
SIMULATE = args(
    st.just(["simulate"]),
    st.one_of(st.sampled_from(TABLE_IDS).map(lambda t: [f"--table={t}"]), CUSTOM_GRID),
    st.integers(1, 50).map(lambda reps: [f"--reps={reps}"]),
    st.integers(0, 2**64 - 1).map(lambda seed: [f"--seed={seed}"]),
)
ANALYZE = args(
    st.just(["analyze"]), st.sampled_from([[], ["--clean"]]),
    SCALAR.map(lambda v: [f"--a={v}"]), flag("c", SCALAR), flag("prior", numbers(3)), FORMAT,
)
#: a two-group dataset of 2 to 4 rows per group, or None for the bundled one
DATASET = st.one_of(st.none(), st.integers(2, 4).flatmap(
    lambda n: st.lists(st.tuples(NUMBER, NUMBER), min_size=2 * n, max_size=2 * n)))


def check(argv, files=None):
    """Run `argv` in a fresh output directory and assert the four properties."""
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        for name, content in (files or {}).items():
            (Path(tmp) / name).write_text(content)
        argv = [a.replace("{tmp}", tmp) for a in argv] + ["--out", str(outdir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        out, err = stdout.getvalue(), stderr.getvalue()
        written = sorted(outdir.iterdir()) if outdir.exists() else []
        assert code in (0, 1, 2), (code, err)
        if code == 0:
            texts = [out.replace(str(outdir), "OUT")] + [p.read_text() for p in written]
            assert not any(NON_FINITE.search(text) for text in texts), texts
            assert all(line.startswith("warning: ") for line in err.splitlines()), err
        else:
            assert written == [], (code, err)
            assert err.startswith(("error: ", "runtime error: ")), err


COV_UNDERFLOW = "--cov=0.5,0.0,5e-324"


@PROPERTY
@given(ESTIMATE)
@example(["estimate", "--x=1,2", "--y=3,4", COV_UNDERFLOW, "--a=1"])
def test_estimate_arguments(argv):
    check(argv)


@PROPERTY
@given(ADMISSIBILITY)
@example(["admissibility", COV_UNDERFLOW, "--a=1"])
def test_admissibility_arguments(argv):
    check(argv)


@PROPERTY
@given(SIMULATE)
@example(["simulate", COV_UNDERFLOW, "--a=1", "--reps=10"])
# the squared deviations of two cells overflow while their means stay finite
@example(["simulate", "--cov=8742.683938965236,137.61638511179694,16.789573969110535",
          "--a=37", "--reps=2"])
# a * (estimate - theta) and N3's a * t2 overflow to inf: the run exits 1 naming
# the loss exponent, with no numpy warning on stderr before it
@example(["simulate", "--cov=1e-300,-1e-150,1.0", "--a=1e+308", "--reps=1"])
def test_simulate_arguments(argv):
    check(argv)


@PROPERTY
@given(ANALYZE, DATASET)
def test_analyze_arguments(argv, rows):
    if rows is None:
        check(argv)
        return
    half = len(rows) // 2
    lines = ["group,weight,cholesterol"] + [
        f"{'ab'[i >= half]},{x!r},{y!r}" for i, (x, y) in enumerate(rows)
    ]
    check([*argv, "--data={tmp}/data.csv"], {"data.csv": "\n".join(lines) + "\n"})
