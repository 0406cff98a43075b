#!/usr/bin/env python3
"""The mutant catalogue: one-line faults that the tier-1 tests must kill.

Each mutant replaces one exact text in one file under src/linexsel by
another and names the test modules expected to fail on it. Run:

    python tests/mutants.py [FILE ...]

Given file names under src/linexsel (`admissibility.py core.py`), it runs
only those files' mutants. It copies the checkout to a temporary directory,
checks that the test modules of the mutants it runs pass there unmutated,
then applies each mutant in turn, runs
its modules (stopping at the first failure) and reports it killed or
survived with the time taken. It exits 1 when any mutant does not behave as
catalogued: a survivor not marked equivalent, an equivalent one killed, a
run over five minutes, or a text not found exactly once. Hypothesis runs
under the `verdict` profile of tests/conftest.py, without shrinking, so a
property a mutant breaks fails at its first counterexample. Standard library
only; about five minutes on two cores.

`tests/test_mutants.py` checks in tier-1 that every text still occurs
exactly once, so a refactor cannot turn a mutant into a no-op unseen.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    #: path under src/linexsel
    file: str
    old: str
    new: str
    #: test modules under tests/ that kill it
    tests: tuple[str, ...]
    #: why no test can kill it, for a mutant that changes no result
    equivalent: Optional[str] = None


MUTANTS: tuple[Mutant, ...] = (
    # selection, and its array twin in kernels
    Mutant("tie_selects_population_1", "selection.py",
           "    if x1 > x2:\n", "    if x1 >= x2:\n", ("test_selection.py",)),
    Mutant("batch_tie_selects_population_1", "kernels.py",
           "sel1 = np.greater(x1, x2)", "sel1 = np.greater_equal(x1, x2)",
           ("test_selection.py",)),
    Mutant("t1_is_minus_abs", "kernels.py",
           "np.subtract(0.0, t1, out=t1)", "np.negative(t1, out=t1)", ("test_selection.py",)),
    # core (sampling, log Phi) and kernels (the batch Phi, the loss, blend)
    Mutant("three_row_draw_ignores_negative_zero", "core.py",
           "theta_y == 0.0 and math.copysign(1.0, theta_y) < 0.0", "False", ("test_core.py",)),
    Mutant("theta_y_added_after_the_sum", "core.py",
           "            t += theta_y\n            y += t\n",
           "            y += t\n            y += theta_y\n", ("test_core.py",)),
    Mutant("cdf_unclipped", "kernels.py",
           "    np.minimum(t, _CDF_T_MAX, out=t)\n", "", ("test_core.py",)),
    Mutant("tail_series_first_term", "core.py",
           "    return r * (-1.0 + r * (3.0 + r * (-15.0 + r * (105.0 + r * (\n"
           "        -945.0 + r * (10395.0 - r * 135135.0))))))\n",
           "    return -r\n", ("test_core.py",)),
    Mutant("log_cdf_without_upper_branch", "core.py",
           "    if u > 0:\n        return math.log1p(-std_normal_cdf(-u))\n", "",
           ("test_core.py",)),
    Mutant("loss_checked_on_the_first_slice_only", "kernels.py",
           "zmax = float(np.max(z))", "zmax = float(np.max(z[:1]))", ("test_risksim.py",)),
    Mutant("loss_lets_nan_through", "kernels.py",
           "if not zmax <= EXP_OVERFLOW_LIMIT:", "if zmax > EXP_OVERFLOW_LIMIT:", ("test_core.py",)),
    Mutant("stream_key_parts_truncated", "core.py",
           'key = tuple(nonnegative_int("stream key part", k) for k in key)',
           "key = tuple(int(k) for k in key)", ("test_core.py",)),
    Mutant("loss_lets_minus_inf_through", "kernels.py",
           "if float(np.min(z)) == -math.inf:", "if False:", ("test_core.py",)),
    Mutant("blend_drops_every_7th_mask", "kernels.py",
           "    np.bitwise_and(mask, ",
           "    mask[::7] = 0\n    np.bitwise_and(mask, ",
           ("test_core.py", "test_estimators.py")),
    Mutant("core_imports_numpy_at_module_level", "core.py",
           "from operator import attrgetter, index\n",
           "from operator import attrgetter, index\n\nimport numpy\n", ("test_cli.py",)),
    # core: the remembered per-model constants, two mutants of the one wrapper's
    # comparison: a two-record helper keyed by its first record alone ...
    Mutant("remembered_by_the_first_record_alone", "core.py",
           "if last_x is x and last_y is y and last_z is z:", "if last_x is x and last_z is z:",
           ("test_scalar_path.py",)),
    # ... and shift_risk's gap terms, the one function of three records, keyed by theta* alone
    Mutant("gap_terms_remembered_by_the_gap_alone", "core.py",
           "if last_x is x and last_y is y and last_z is z:", "if last_x is x:",
           ("test_scalar_path.py",)),
    # core: the covariance's derived constants
    Mutant("sd_dx_drops_the_two", "core.py",
           "sd_dx=math.sqrt(2.0 * sigma_xx)", "sd_dx=math.sqrt(sigma_xx)", ("test_scalar_path.py",)),
    # core: the record base
    Mutant("record_equal_across_classes", "core.py",
           "if other.__class__ is not self.__class__:", "if not isinstance(other, Record):",
           ("test_records.py",)),
    # estimators, and their array twins in kernels
    Mutant("n3_log_switch_drops_t2", "estimators.py",
           "            return t2 + math.log(inner) / a.a\n",
           "            return math.log(inner) / a.a\n", ("test_estimators.py",)),
    Mutant("n3_batch_log_switch_drops_t2", "kernels.py",
           "out[big] = t2[big] + log_inner / a.a", "out[big] = log_inner / a.a",
           ("test_estimators.py", "test_core.py")),
    Mutant("n3_small_branch_unmasked", "kernels.py",
           "np.expm1(z, out=out, where=small)", "np.expm1(z, out=out)",
           ("test_estimators.py", "test_risksim.py")),
    Mutant("n4_window_weak_at_c_zero", "kernels.py",
           "inside = np.greater(s.t1, _n4_cut(spec.c, cov))",
           "inside = np.greater_equal(s.t1, _n4_cut(spec.c, cov))",
           ("test_estimators.py",)),
    Mutant("shift_regrouped", "kernels.py",
           "return np.add(s.y_sel, spec.d, out=out)",
           "return np.add(np.add(s.y_sel, spec.d / 3, out=out), 2 * spec.d / 3, out=out)",
           ("test_risksim.py",)),
    Mutant("prior_m_zero_accepted", "estimators.py",
           "if m <= 0:", "if m < 0:", ("test_estimators.py",)),
    Mutant("evaluate_imports_per_call", "estimators.py",
           "    phi = base_phi(spec.base, s, a, cov)\n",
           "    from . import improvement  # noqa: F401\n    phi = base_phi(spec.base, s, a, cov)\n",
           ("test_scalar_path.py",)),
    # oracles: the band and the clip, and their array twins in kernels
    Mutant("clip_band_lo_weak", "oracles.py",
           "(side < 0) & (gap < margin)", "(side < 0) & (gap <= margin)", ("test_oracles.py",)),
    Mutant("clip_band_hi_weak", "oracles.py",
           "(side > 0) & (gap > margin)", "(side > 0) & (gap >= margin)", ("test_oracles.py",)),
    Mutant("clip_band_batch_lo_weak", "kernels.py",
           "cond = np.less(gap, margin)", "cond = np.less_equal(gap, margin)",
           ("test_oracles.py",)),
    Mutant("clip_band_batch_hi_weak", "kernels.py",
           "np.greater(gap, margin, out=cond)", "np.greater_equal(gap, margin, out=cond)",
           ("test_oracles.py",)),
    Mutant("clip_band_batch_side_lo_weak", "kernels.py",
           "lo = np.less(side, 0, out=lo)", "lo = np.less_equal(side, 0, out=lo)",
           ("test_oracles.py",)),
    Mutant("clip_band_batch_side_hi_weak", "kernels.py",
           "hi = np.greater(side, 0, out=hi)", "hi = np.greater_equal(side, 0, out=hi)",
           ("test_oracles.py",)),
    Mutant("clip_tie_strict", "oracles.py",
           "if lo_set and phi <= value:", "if lo_set and phi < value:", ("test_improvement.py",)),
    Mutant("clip_hi_tie_strict", "oracles.py",
           "if hi_set and phi >= value:", "if hi_set and phi > value:", ("test_improvement.py",)),
    Mutant("improve_batch_tie_strict", "kernels.py",
           "np.less_equal(phi, value)", "np.less(phi, value)",
           ("test_improvement.py", "test_oracles.py", "test_estimators.py", "test_risksim.py",
            "test_acceptance.py"),
           equivalent="at a tie phi == value, so both sides give the same component and differ "
                      "at most in the sign of a zero, which no loss or risk sees"),
    Mutant("improve_batch_lo_clip_wrong_side", "kernels.py",
           "clip = np.less_equal(phi, value)",
           "clip = np.greater_equal(phi, value)", ("test_improvement.py",)),
    Mutant("improve_batch_hi_clip_wrong_side", "kernels.py",
           "hi_clip = np.greater_equal(phi, value)",
           "hi_clip = np.less_equal(phi, value)", ("test_risksim.py",)),
    Mutant("improve_batch_hi_clip_dropped", "kernels.py",
           "    clip |= hi_clip\n", "", ("test_risksim.py",)),
    Mutant("improve_batch_writes_the_band", "kernels.py",
           "    hi_clip &= hi_set\n", "    hi_set &= hi_clip\n    hi_clip = hi_set\n",
           ("test_risksim.py",)),
    Mutant("phi_bounds_takes_non_finite_differences", "oracles.py",
           "if not (math.isfinite(t1) and math.isfinite(t2)):", "if False:", ("test_oracles.py",)),
    Mutant("perfbench_alias_renamed", "oracles.py",
           'if name == "shift_risk_quadrature":', 'if name == "shift_risk_quadrature_old":',
           ("test_perfbench_api.py",)),
    # admissibility
    Mutant("classify_d0_dominated", "admissibility.py",
           "    if d < d0:\n", "    if d <= d0:\n", ("test_admissibility.py",)),
    Mutant("end_correction_cancels_at_small_arg", "admissibility.py",
           "        if abs(arg) < 0.25:\n", "        if False:\n", ("test_admissibility.py",)),
    Mutant("log_h_without_log_sum_exp", "admissibility.py",
           "    if h >= sys.float_info.min:\n        return math.log(h)\n",
           "    return math.log(h)\n", ("test_admissibility.py",)),
    Mutant("zero_gap_takes_log_h", "admissibility.py",
           "    if theta_x == 0.0:\n", "    if False:\n", ("test_admissibility.py",)),
    Mutant("shift_risk_takes_non_finite_d", "admissibility.py",
           '    if not math.isfinite(d):\n        raise InvalidParameterError("shift constant d must be finite")\n'
           "    mean_w",
           "    mean_w", ("test_admissibility.py",)),
    Mutant("shift_risk_returns_non_finite_risk", "admissibility.py",
           "    if not math.isfinite(risk):\n", "    if False:\n", ("test_admissibility.py",)),
    Mutant("h_a_takes_non_finite_gap", "admissibility.py",
           "0.0 <= theta_x < math.inf", "0.0 <= theta_x", ("test_admissibility.py",)),
    Mutant("interval_ends_swapped", "admissibility.py",
           "d0, d1 = (end, base) if cov.sigma_xy > 0 else (base, end)",
           "d0, d1 = (base, end) if cov.sigma_xy > 0 else (end, base)", ("test_admissibility.py",)),
    # risksim: reductions, flags, the cell runner
    Mutant("se_ddof_0", "risksim.py",
           "np.add.reduce(dev, axis=-1) / (n - 1)", "np.add.reduce(dev, axis=-1) / n",
           ("test_risksim.py",)),
    Mutant("se_sum_by_fsum", "risksim.py",
           "np.sqrt(np.add.reduce(dev, axis=-1) / (n - 1))",
           "np.sqrt(np.array([[math.fsum(row) for row in column] for column in dev]) / (n - 1))",
           ("test_risksim.py",)),
    Mutant("mean_times_reciprocal", "risksim.py",
           "means = np.add.reduce(losses, axis=-1) / n", "means = np.add.reduce(losses, axis=-1) * (1 / n)",
           ("test_risksim.py",)),
    Mutant("bayes_on_x_min", "risksim.py",
           "x_max=np.maximum(x1, x2)", "x_max=np.minimum(x1, x2)", ("test_risksim.py",)),
    Mutant("flag_threshold_ten_percent", "risksim.py",
           "est.std_error > 0.05 * abs(est.mean_risk)", "est.std_error > 0.10 * abs(est.mean_risk)",
           ("test_risksim.py",)),
    Mutant("flag_threshold_weak", "risksim.py",
           "est.std_error > 0.05 * abs(est.mean_risk)", "est.std_error >= 0.05 * abs(est.mean_risk)",
           ("test_risksim.py",)),
    Mutant("tablespec_c_removed", "risksim.py",
           "    def c(self) -> Optional[float]:", "    def c_old(self) -> Optional[float]:",
           ("test_perfbench_api.py",)),
    Mutant("threads_not_capped_by_cells", "risksim.py",
           "min(workers, len(spec.rows) * len(groups))", "workers", ("test_risksim.py",)),
    Mutant("memory_check_dropped", "risksim.py",
           "if 0 < have < need:", "if False:", ("test_risksim.py",)),
    Mutant("pool_shares_one_workspace", "risksim.py",
           "                    ws = CellWorkspace(len(block), reps, columns)\n",
           "                    ws = vars(work).get(len(block)) or vars(work).setdefault(\n"
           "                        len(block), CellWorkspace(len(block), reps, columns))\n",
           ("test_risksim.py",)),
    Mutant("draw_in_the_turn", "risksim.py",
           "                draws = sample_block(",
           "                with turn:\n                    draws = sample_block(", ("test_risksim.py",)),
    Mutant("turn_dropped", "risksim.py",
           "turn = threading.Lock()", "turn = threading.BoundedSemaphore(threads)",
           ("test_risksim.py",)),
    Mutant("workspace_per_cell", "risksim.py",
           "if ws is None or len(ws.draws) != len(block):", "if True:",
           ("test_risksim.py", "test_cli.py")),
    Mutant("block_error_not_rerun", "risksim.py",
           "if errors and all(isinstance(exc, LinexError) for exc in errors):", "if False:",
           ("test_risksim.py",)),
    Mutant("error_does_not_drain", "risksim.py",
           "            for _ in todo:\n                pass\n", "", ("test_risksim.py",)),
    Mutant("calling_thread_idles", "risksim.py",
           "range(threads - 1)]\n    for helper in helpers:\n        helper.start()\n    ws = work(todo, reduce)",
           "range(threads)]\n    for helper in helpers:\n        helper.start()\n    ws = None",
           ("test_risksim.py",)),
    Mutant("loss_error_drops_the_cell_name", "risksim.py",
           "linex_loss(stack, theta_sel, a, block[0].names[0], stack)",
           'linex_loss(stack, theta_sel, a, "", stack)', ("test_risksim.py",)),
    Mutant("band_built_once_a_grid", "risksim.py",
           "band = clip_band_batch(s.t1, s.t2, a, cov, ws.band)",
           'band = vars(ws).get("built") or vars(ws).setdefault("built", '
           'clip_band_batch(s.t1, s.t2, a, cov))',
           ("test_risksim.py",)),
    Mutant("band_rebuilt_per_column", "risksim.py",
           'if spec.kind == "Improved" and band is None:', 'if spec.kind == "Improved":',
           ("test_risksim.py",)),
    Mutant("rerun_by_whole_cells", "risksim.py",
           "work(enumerate(alone), _column_estimates)",
           "work(enumerate([[c] for c in cells]), _column_estimates)", ("test_risksim.py",)),
    Mutant("block_means_of_the_first_row", "risksim.py",
           "theta1_y, theta2_y = np.array([(m.theta1[1], m.theta2[1]) for m in means])",
           "theta1_y, theta2_y = np.array([(m.theta1[1], m.theta2[1]) for m in means[:1]])",
           ("test_risksim.py",)),
    Mutant("non_finite_se_kept", "risksim.py",
           "math.isfinite(est.std_error or 0.0)", "True", ("test_risksim.py",)),
    Mutant("pool_imported_at_module_level", "risksim.py",
           "import threading\n",
           "import threading\n\ntry:\n    import concurrent.futures\nexcept ImportError:\n    pass\n",
           ("test_cli.py",)),
    Mutant("repeated_labels_kept", "risksim.py",
           "if label in labels[:i]:", "if label in labels[:0]:", ("test_risksim.py",)),
    Mutant("grid_repeated_labels_kept", "risksim.py",
           '        _refuse_repeats([label for label, _ in columns], "columns")\n', "",
           ("test_risksim.py",)),
    Mutant("table_id_unchecked", "risksim.py",
           '        table_id = nonnegative_int("table id", table_id)\n', "", ("test_risksim.py",)),
    Mutant("grid_table_id_unchecked", "risksim.py",
           'table_id = nonnegative_int("table id", table)', "table_id = table",
           ("test_risksim.py",)),
    Mutant("empty_grid_accepted", "risksim.py",
           "if not rows or not columns:", "if False:", ("test_risksim.py",)),
    Mutant("workers_not_an_int", "risksim.py",
           'workers = nonnegative_int("workers", available_cpus() if workers is None else workers, least=1)',
           "workers = available_cpus() if workers is None else workers", ("test_risksim.py",)),
    Mutant("numpy_integer_reps_refused", "risksim.py",
           '        reps = nonnegative_int("reps", reps, least=1)\n        master_seed',
           '        reps = nonnegative_int("reps", reps if isinstance(reps, int) else float(reps), least=1)\n'
           "        master_seed", ("test_risksim.py",)),
    # the cold path: each subcommand loads only the modules it runs
    Mutant("cli_imports_risksim_eagerly", "cli.py",
           "if TYPE_CHECKING:\n    from .estimators import PriorSpec\n",
           "from .risksim import TABLE_SPECS  # noqa: F401\n\n"
           "if TYPE_CHECKING:\n    from .estimators import PriorSpec\n", ("test_cli.py",)),
    Mutant("estimate_loads_analysis", "cli.py",
           "    from .improvement import estimate_rows, estimates_csv, format_value\n",
           "    from .improvement import estimate_rows, estimates_csv, format_value\n"
           "    from . import analysis  # noqa: F401\n", ("test_cli.py",)),
    Mutant("oracles_import_admissibility_eagerly", "oracles.py",
           "from .core import CovarianceSpec, InvalidParameterError, LinexParams, remember_last\n",
           "from .core import CovarianceSpec, InvalidParameterError, LinexParams, remember_last\n"
           "from .admissibility import shift_risk  # noqa: F401\n", ("test_cli.py",)),
    Mutant("package_imports_a_submodule_eagerly", "__init__.py",
           '__version__ = "0.1.0"\n',
           '__version__ = "0.1.0"\n\nfrom . import risksim  # noqa: F401\n',
           ("test_cli.py",)),
    # the program's own process: run() alone defaults OPENBLAS_NUM_THREADS,
    # disables the collector and freezes it before a normal exit
    Mutant("freeze_in_main", "cli.py",
           "    code = main()\n    gc.freeze()\n    sys.exit(code)\n",
           "    sys.exit(main())\n\n\n_main = main\n\n\n"
           "def main(argv: list[str] | None = None) -> int:\n"
           "    try:\n        return _main(argv)\n    finally:\n        gc.freeze()\n",
           ("test_cli.py",)),
    Mutant("exit_skips_finalization", "cli.py",
           "    gc.freeze()\n    sys.exit(code)\n",
           "    gc.freeze()\n    sys.stdout.flush()\n    sys.stderr.flush()\n    os._exit(code)\n",
           ("test_cli.py",)),
    Mutant("blas_default_in_main", "cli.py",
           "    os.environ.setdefault(\"OPENBLAS_NUM_THREADS\", \"1\")\n    gc.disable()\n"
           "    code = main()\n    gc.freeze()\n    sys.exit(code)\n",
           "    gc.disable()\n    code = main()\n    gc.freeze()\n    sys.exit(code)\n\n\n"
           "_main = main\n\n\n"
           "def main(argv: list[str] | None = None) -> int:\n"
           "    os.environ.setdefault(\"OPENBLAS_NUM_THREADS\", \"1\")\n    return _main(argv)\n",
           ("test_cli.py",)),
    Mutant("blas_default_overrides_user", "cli.py",
           "os.environ.setdefault(\"OPENBLAS_NUM_THREADS\", \"1\")",
           "os.environ[\"OPENBLAS_NUM_THREADS\"] = \"1\"", ("test_cli.py",)),
    Mutant("collector_on_during_run", "cli.py",
           "    gc.disable()\n", "", ("test_cli.py",)),
    # the public boundary: the names the package serves, and what they refuse
    Mutant("kernel_served_by_namespace", "__init__.py",
           '"kernels": ("linex_loss",),', '"kernels": ("linex_loss", "select_batch"),',
           ("test_boundary.py", "test_cli.py")),
    Mutant("applicable_case_takes_nan", "improvement.py",
           "if not (math.isfinite(a) and -1.0 <= rho <= 1.0):", "if False:", ("test_boundary.py",)),
    # analysis
    Mutant("non_utf8_file_uncaught", "analysis.py",
           "except (UnicodeDecodeError, csv.Error) as exc:", "except csv.Error as exc:",
           ("test_cli.py",)),
    Mutant("oversized_csv_field_uncaught", "analysis.py",
           "except (UnicodeDecodeError, csv.Error) as exc:", "except UnicodeDecodeError as exc:",
           ("test_cli.py",)),
)


def select(files: Sequence[str] = ()) -> tuple[Mutant, ...]:
    """The mutants of `files`, names under src/linexsel, or all without any; ValueError for a file with none."""
    unknown = sorted(set(files) - {m.file for m in MUTANTS})
    if unknown:
        raise ValueError(f"no mutants in {', '.join(unknown)}")
    return tuple(m for m in MUTANTS if not files or m.file in files)


def source(mutant: Mutant, root: Path = ROOT) -> Path:
    return root / "src" / "linexsel" / mutant.file


def apply(mutant: Mutant, text: str) -> str:
    """`text` with the mutant's one occurrence replaced; ValueError unless there is exactly one."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: its text occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run_tests(root: Path, modules: tuple[str, ...]) -> tuple[Optional[bool], float]:
    """Whether `modules` pass in the checkout at `root` (None after 5 minutes), and the seconds taken."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-profile=verdict", *(f"tests/{m}" for m in modules)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=300)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    return proc.returncode == 0, time.perf_counter() - start


def main(files: Sequence[str] = ()) -> int:
    try:
        mutants = select(files)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "_out")
    with tempfile.TemporaryDirectory(prefix="linexsel-mutants-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=ignore)
        modules = tuple(sorted({m for mutant in mutants for m in mutant.tests}))
        passed, seconds = run_tests(root, modules)
        print(f"unmutated: {'pass' if passed else 'FAIL'} ({seconds:.1f} s)", flush=True)
        if not passed:
            return 1
        bad = 0
        for mutant in mutants:
            path = source(mutant, root)
            original = path.read_text()
            try:
                path.write_text(apply(mutant, original))
            except ValueError as exc:
                print(f"MISSING   {exc}", flush=True)
                bad += 1
                continue
            try:
                survived, seconds = run_tests(root, mutant.tests)
            finally:
                path.write_text(original)
            if survived is None:
                verdict, bad = "TIMED OUT", bad + 1
            elif survived and mutant.equivalent:
                verdict = f"survived  (equivalent: {mutant.equivalent})"
            elif survived:
                verdict, bad = "SURVIVED", bad + 1
            elif mutant.equivalent:
                verdict, bad = "killed    (listed as equivalent)", bad + 1
            else:
                verdict = "killed"
            print(f"{mutant.name:40s} {seconds:6.1f} s  {verdict}", flush=True)
        print(f"{len(mutants)} mutants, {bad} not as catalogued")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
