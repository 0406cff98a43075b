"""Command-line front end.

Subcommands: estimate | admissibility | simulate | analyze. Every run
serializes a manifest next to its outputs naming the resolved parameters,
the master seed, and every file written; reruns with equal manifests
produce byte-identical outputs (nothing time-dependent is emitted).

Exit codes: 0 success, 2 usage error, 1 runtime/numerical error.

Only `core` (the error types, `DatasetError` included, and the parameter
records) and the standard library are imported when this module loads;
each subcommand imports the modules it runs, so `admissibility` never loads
the simulation engine and `simulate` never loads the dataset analysis. The
parser's `--table` and `--improved` choices are therefore copies of
`risksim.TABLE_SPECS`'s keys and `estimators.BASE_KINDS`, which a test keeps
equal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .core import (
    CovarianceSpec,
    DatasetError,
    InvalidParameterError,
    LinexError,
    LinexParams,
    ObservationPair,
)

if TYPE_CHECKING:
    from .estimators import PriorSpec

#: `simulate --table` and `--improved` choices
TABLE_IDS = (5, 6, 7, 8, 9, 10)
BASE_KINDS = ("N1", "N2", "N3", "N4")


class UsageError(Exception):
    pass


def _floats(text: str, n: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"{what} expects {n} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"{what}: could not parse {text!r} as numbers") from None


def _cov_from_flag(text: str) -> CovarianceSpec:
    sxx, sxy, syy = _floats(text, 3, "--cov")
    try:
        return CovarianceSpec(sigma_xx=sxx, sigma_yy=syy, sigma_xy=sxy)
    except InvalidParameterError as exc:
        raise UsageError(f"--cov: {exc}") from None


def _prior_from_flag(text: str) -> PriorSpec:
    from .estimators import PriorSpec

    mu1, mu2, m = _floats(text, 3, "--prior")
    try:
        return PriorSpec(mu1=mu1, mu2=mu2, m=m)
    except InvalidParameterError as exc:
        raise UsageError(f"--prior: {exc}") from None


def _write_outputs(args: argparse.Namespace, params: dict, files: dict[str, str]) -> Path:
    """Write each named file and the run's manifest into --out; returns that directory."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (outdir / name).write_text(content)
    manifest = {
        "subcommand": args.command,
        "parameters": params,
        "master_seed": args.seed,
        "version": __version__,
        "outputs": list(files),
    }
    path = outdir / f"{args.command}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return outdir


def cmd_estimate(args: argparse.Namespace) -> int:
    from .analysis import estimate_rows, estimates_csv, format_value
    from .selection import select

    x1, x2 = _floats(args.x, 2, "--x")
    y1, y2 = _floats(args.y, 2, "--y")
    cov = _cov_from_flag(args.cov)
    a = LinexParams(args.a)
    prior = _prior_from_flag(args.prior) if args.prior else None

    s = select(ObservationPair((x1, y1), (x2, y2)))
    rows = estimate_rows(s, a, cov, args.c, prior, args.d)

    if args.format == "csv":
        report = estimates_csv(rows)
    else:
        lines = [
            f"selected population: {s.selected}",
            f"y_sel = {s.y_sel:.6g}, y_other = {s.y_other:.6g}, "
            f"t1 = {s.t1:.6g}, t2 = {s.t2:.6g} (rho = {cov.rho:.4f})",
        ]
        for label, value, note in rows:
            flag = f"  [{note}]" if note else ""
            lines.append(f"{label:<12} {format_value(value):>14}{flag}")
        report = "\n".join(lines) + "\n"
    sys.stdout.write(report)

    name = "estimate_report.csv" if args.format == "csv" else "estimate_report.txt"
    _write_outputs(args, {
        "x": [x1, x2],
        "y": [y1, y2],
        "cov": [cov.sigma_xx, cov.sigma_xy, cov.sigma_yy],
        "a": args.a, "c": args.c, "d": args.d, "prior": args.prior,
        "format": args.format,
    }, {name: report})
    return 0


def cmd_admissibility(args: argparse.Namespace) -> int:
    from .admissibility import bounds, classify

    cov = _cov_from_flag(args.cov)
    a = LinexParams(args.a)
    b = bounds(a, cov)
    verdict = classify(args.d, a, cov) if args.d is not None else None
    if args.format == "csv":
        lines = ["quantity,value", f"d0,{b.d0:.7g}", f"d1,{b.d1:.7g}"]
        if verdict is not None:
            lines.append(f"classification({args.d:g}),{verdict}")
    else:
        lines = [f"d0 = {b.d0:.7g}", f"d1 = {b.d1:.7g}"]
        if verdict is not None:
            lines.append(f"d = {args.d:g}: {verdict}")
            if verdict == "dominated_by_d0":
                lines.append(f"dominating shift: d0 = {b.d0:.7g}")
            elif verdict == "dominated_by_d1":
                lines.append(f"dominating shift: d1 = {b.d1:.7g}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)

    name = "admissibility_report.csv" if args.format == "csv" else "admissibility_report.txt"
    _write_outputs(args, {
        "cov": [cov.sigma_xx, cov.sigma_xy, cov.sigma_yy],
        "a": args.a, "d": args.d, "format": args.format,
    }, {name: report})
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .risksim import TABLE_SPECS, TableSpec, risk_grid, table_columns

    # --c and --improved default to None so that an explicit flag is visible here
    c = 1.0 if args.c is None else args.c
    improved = tuple(args.improved or ())
    if args.table is not None:
        given = [f"--{n}" for n in ("cov", "a", "c", "improved") if getattr(args, n) is not None]
        if given:
            raise UsageError(f"{', '.join(given)}: custom-grid flags, not valid with --table")
        spec = TABLE_SPECS[args.table]
        name = f"table{args.table}.csv"
    else:
        if args.cov is None or args.a is None:
            raise UsageError("custom grids need --cov and --a (or use --table)")
        cov = _cov_from_flag(args.cov)
        a = LinexParams(args.a)
        spec = TableSpec(
            table_id=0,
            a=a,
            cov=cov,
            columns=table_columns(a.a, cov.rho, improved, c),
        )
        name = "custom_grid.csv"
    grid = "the custom grid" if args.table is None else f"table {args.table}"
    try:
        result = risk_grid(spec, reps=args.reps, master_seed=args.seed)
    except MemoryError as exc:
        # risk_grid's refusal of a sweep too large for the machine says why; a
        # MemoryError from an allocation says nothing
        detail = f": {exc}" if str(exc) else ""
        raise LinexError(f"out of memory sweeping {grid} at {args.reps} reps{detail}") from None

    # only what determines the CSV: equal manifests mean equal outputs on any machine
    outdir = _write_outputs(args, {
        "table": args.table, "cov": args.cov, "a": args.a, "c": c,
        "improved": list(improved), "reps": args.reps,
    }, {name: result.to_csv()})
    for row, label, mean, se in result.flagged:
        sys.stderr.write(
            f"warning: high-variance cell row={row} estimator={label}: "
            f"risk={mean:.6g} se={se:.6g} (se > 5% of mean)\n"
        )
    sys.stdout.write(f"wrote {outdir / name}\n")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze, bundled_dataset_path, estimates_csv, fit, load_dataset

    path = args.data if args.data else bundled_dataset_path()
    a = LinexParams(args.a)
    prior = _prior_from_flag(args.prior) if args.prior else None
    try:
        data = load_dataset(path, clean=args.clean)
    except FileNotFoundError:
        raise UsageError(f"{path}: no such file") from None
    model = fit(data)
    report = analyze(model, a, c=args.c, prior=prior)

    files = {
        "analysis_parameters.csv": model.parameters_csv(),
        "analysis_estimates.csv": estimates_csv(report.estimates),
        "analysis_report.txt": report.to_text(),
    }
    if args.format == "csv":
        sys.stdout.write(files["analysis_parameters.csv"] + files["analysis_estimates.csv"])
    else:
        sys.stdout.write(files["analysis_report.txt"])

    # the bundled dataset is recorded as null, not as its install path
    _write_outputs(args, {
        "data": args.data, "clean": args.clean, "a": args.a, "c": args.c,
        "prior": args.prior, "format": args.format,
    }, files)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linexsel",
        description="Estimation after selection from two bivariate normal populations "
        "under LINEX loss.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: bool = True) -> None:
        p.add_argument("--seed", type=int, default=0, help="master seed (u64)")
        p.add_argument("--out", default=".", help="output directory")
        if formats:
            p.add_argument("--format", choices=("csv", "text"), default="text")

    p = sub.add_parser("estimate", help="evaluate all estimators on one observation pair")
    p.add_argument("--x", required=True, help="x1,x2")
    p.add_argument("--y", required=True, help="y1,y2")
    p.add_argument("--cov", required=True, help="sigma_xx,sigma_xy,sigma_yy")
    p.add_argument("--a", type=float, required=True, help="LINEX shape parameter (nonzero)")
    p.add_argument("--c", type=float, default=1.0, help="hybrid threshold (default 1)")
    p.add_argument("--d", type=float, default=None, help="also evaluate the shift Y_[2] + d")
    p.add_argument("--prior", default=None, help="mu1,mu2,m for the Bayes estimate")
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("admissibility", help="admissible shift interval [d0, d1]")
    p.add_argument("--cov", required=True, help="sigma_xx,sigma_xy,sigma_yy")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=float, default=None, help="classify this shift")
    common(p)
    p.set_defaults(func=cmd_admissibility)

    p = sub.add_parser("simulate", help="Monte Carlo risk grid (published tables 5-10 or custom)")
    p.add_argument("--table", type=int, choices=TABLE_IDS, default=None)
    p.add_argument("--cov", default=None, help="custom grid: sigma_xx,sigma_xy,sigma_yy")
    p.add_argument("--a", type=float, default=None, help="custom grid: LINEX parameter")
    p.add_argument("--c", type=float, default=None,
                   help="custom grid: hybrid threshold (default 1)")
    p.add_argument(
        "--improved",
        nargs="*",
        default=None,
        choices=BASE_KINDS,
        help="custom grid: bases that also get their improved column",
    )
    p.add_argument("--reps", type=int, default=20000)
    common(p, formats=False)  # always CSV, swept on every CPU available to the process
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="fit the two-group dataset and reproduce the reports")
    p.add_argument("--data", default=None, help="CSV path (default: bundled poultry data)")
    p.add_argument("--clean", action="store_true", help="repair the known corrupt value")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--prior", default=None, help="mu1,mu2,m for a Bayes estimate")
    common(p)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, InvalidParameterError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LinexError, OSError, KeyError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The `linexsel` program: `main` on the command line, exiting with its code."""
    sys.exit(main())


if __name__ == "__main__":
    run()
