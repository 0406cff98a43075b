"""Estimation after selection from two bivariate normal populations under LINEX loss.

Given one observation from each of two bivariate normal populations with
known common covariance, the natural rule selects the population with the
larger X and the quantity of interest is the selected population's Y-mean.
This package implements the estimators of that random target, the
admissible shift interval and the exact risk of shift estimators, the
truncation improvement operator, and a seeded Monte Carlo risk engine.
"""

__version__ = "0.1.0"

from .admissibility import (
    ADMISSIBLE_IN_CLASS,
    DOMINATED_BY_D0,
    DOMINATED_BY_D1,
    AdmissibilityBounds,
    bounds,
    classify,
    h_a,
    psi,
    shift_risk,
)
from .analysis import (
    AnalysisReport,
    DatasetError,
    FittedModel,
    GroupedDataset,
    analyze,
    bundled_dataset_path,
    estimate_rows,
    estimates_csv,
    fit,
    load_dataset,
)
from .core import (
    CovarianceSpec,
    InvalidParameterError,
    LinexError,
    LinexOverflowError,
    LinexParams,
    MeanVectorPair,
    ObservationPair,
    SingularCovarianceError,
    ThetaStar,
    linex_loss,
    log_std_normal_cdf,
    log_sum_exp,
    rng_stream,
    sample_batch,
    std_normal_cdf,
    std_normal_cdf_batch,
    std_normal_pdf,
)
from .estimators import (
    EstimatorSpec,
    PriorSpec,
    base_phi,
    base_phi_batch,
    bayes_posterior,
    est_bayes,
    evaluate,
    evaluate_batch,
    posterior_risk_constant,
)
from .improvement import (
    ImprovementOutcome,
    applicable_case,
    case_label,
    improve,
    improve_batch,
)
from .oracles import (
    ConditionalWeights,
    clip_band,
    cond_t3_mgf,
    cond_t3_pdf,
    conditional_weights,
    phi_bounds,
    varphi,
    w_pdf,
)
from .risksim import (
    TABLE_SPECS,
    THETA_CONFIGS,
    RiskEstimate,
    RiskTable,
    SimConfig,
    TableSpec,
    paired_risk_difference,
    risk_grid,
    simulate_all,
    simulate_risk,
)
from .selection import SelectionSummary, realized_parameter, select, select_batch

__all__ = [name for name in dir() if not name.startswith("_")]
