"""Relative treatment effect estimation for paired right-censored survival data.

Paired outcomes are transformed into a competing-risks sample whose
Aalen-Johansen estimators yield the probability that the first treatment
outlasts the second (ties split evenly), together with asymptotic,
bootstrap, and within-pair randomization inference.
"""

from .errors import (
    BracketError,
    DegenerateRiskWarning,
    DegenerateVariance,
    EmptyDataset,
    InsufficientReplicates,
    InvalidParameter,
    JitterTooLarge,
    NonFiniteTime,
    NonMonotoneWarning,
    NonPositiveTau,
    NotFullyObserved,
    PairedRteError,
    ParseError,
    QuantileDomain,
    ScenarioError,
    ThetaOutOfDomain,
    ValidationError,
)
from .paired_data import (
    CompetingRisksRecord,
    Dataset,
    PairedObservation,
    PairedSample,
    break_censoring_ties,
    prepare_dataset,
    read_competing_csv,
    read_paired_csv,
    to_competing_risks,
    truncate_at_tau,
    write_competing_csv,
)
from .estimators import (
    CountingProcesses,
    RteCurves,
    RteEstimate,
    StepCurve,
    aalen_johansen,
    counting_processes,
    estimate_rte,
    ipcw_form,
    ipcw_identity_check,
    kaplan_meier_censoring,
    kaplan_meier_event,
    mann_whitney_fully_observed,
    nelson_aalen,
)
from .variance import (
    VarianceCurves,
    greenwood_curves,
    sigma_theta_cif_plugin,
    sigma_theta_plugin,
)
from .inference import (
    InferenceConfig,
    InferenceReport,
    ResampleDistribution,
    asymptotic_test,
    bootstrap_distribution,
    randomization_distribution,
    randomize_labels,
    run_inference,
    test_and_ci,
)
from .simulation import (
    CalibrationResult,
    ExperimentResult,
    Exponential,
    Gompertz,
    Mixture,
    Scenario,
    Uniform,
    apply_marginals_and_censoring,
    calibrate_null,
    draw_paired_sample,
    empirical_censoring_rates,
    load_calibrated_params,
    power_scenario,
    run_power_experiment,
    run_size_experiment,
    sample_clayton,
    sample_gumbel_hougaard,
    table1_scenario,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
