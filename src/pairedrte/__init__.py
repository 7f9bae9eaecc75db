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
    InferenceRefused,
    InsufficientReplicates,
    InvalidParameter,
    NonFiniteTime,
    NonPositiveTau,
    PairedRteError,
    ParseError,
    ScenarioError,
    ThetaOutOfDomain,
    ValidationError,
)
from .paired_data import (
    Dataset,
    PairedObservation,
    PairedSample,
    prepare_dataset,
    read_competing_csv,
    read_paired_csv,
    write_competing_csv,
)
from .estimators import RteEstimate, estimate_rte
from .inference import (
    InferenceConfig,
    InferenceReport,
    ResampleDistribution,
    bootstrap_distribution,
    randomization_distribution,
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
    calibrate_null,
    load_calibrated_params,
    power_scenario,
    run_power_experiment,
    run_size_experiment,
    table1_scenario,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
