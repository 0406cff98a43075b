"""Estimation after selection from two bivariate normal populations under LINEX loss.

Given one observation from each of two bivariate normal populations with
known common covariance, the natural rule selects the population with the
larger X and the quantity of interest is the selected population's Y-mean.
This package implements the estimators of that random target, the
admissible shift interval and the exact risk of shift estimators, the
truncation improvement operator, and a seeded Monte Carlo risk engine.

The package namespace is lazy (PEP 562): `import linexsel` loads no
submodule, and each public name below is imported from its home module on
first access, so a caller pays only for the modules it uses. `DatasetError`
lives in `core` (`analysis` re-exports it), and `table_columns` and the
estimate report's `estimate_rows` and `estimates_csv` in `improvement`
(`risksim` re-exports `table_columns`).
"""

import importlib

__version__ = "0.1.0"

#: each submodule and the public names the package reads from it
_HOMES: dict[str, tuple[str, ...]] = {
    "admissibility": (
        "ADMISSIBLE_IN_CLASS", "DOMINATED_BY_D0", "DOMINATED_BY_D1", "AdmissibilityBounds",
        "bounds", "classify", "h_a", "psi", "shift_risk",
    ),
    "analysis": (
        "AnalysisReport", "FittedModel", "GroupedDataset", "analyze", "bundled_dataset_path", "fit",
        "load_dataset",
    ),
    "core": (
        "CovarianceSpec", "DatasetError", "InvalidParameterError", "LinexError",
        "LinexOverflowError", "LinexParams", "MeanVectorPair", "ObservationPair",
        "SingularCovarianceError", "ThetaStar", "log_std_normal_cdf", "log_sum_exp", "rng_stream",
        "sample_batch", "std_normal_cdf", "std_normal_pdf",
    ),
    "estimators": ("EstimatorSpec", "PriorSpec", "base_phi", "bayes_posterior", "est_bayes", "evaluate"),
    "improvement": (
        "ImprovementOutcome", "applicable_case", "case_label", "estimate_rows", "estimates_csv",
        "improve",
    ),
    "kernels": ("base_phi_batch", "evaluate_batch", "improve_batch", "linex_loss", "select_batch"),
    "oracles": ("clip_band", "phi_bounds"),
    "risksim": (
        "TABLE_SPECS", "THETA_CONFIGS", "RiskEstimate", "RiskTable", "SimConfig", "TableSpec",
        "paired_risk_difference", "risk_grid", "simulate_all", "simulate_risk",
    ),
    "selection": ("SelectionSummary", "select"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOMES, *_HOME])


def __getattr__(name: str):
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
