from pathlib import Path

import pairedrte

ROOT = Path(__file__).resolve().parents[1]

# Adding or removing a public name is an edit to this list. The two copula
# samplers left it when they were folded into simulation.sample_copula.
# CountingProcesses and counting_processes left it when their callers took
# the event grid from _engine.event_grid; draw_paired_sample, which no package
# code calls, stays public in pairedrte.simulation only. InferenceRefused
# joined it as the one base of the three refusals, which the command line
# maps to exit 5 and the size harness counts as non-rejections.
# NonMonotoneWarning left it with the sampled calibration it warned for:
# calibrate_null bisects the exact effect by quadrature, and nothing raises it.
# JitterTooLarge left it with the random censoring-tie jitter it refused:
# prepare_dataset breaks such ties by rule, events first, and draws nothing.
PUBLIC_NAMES = [
    "BracketError",
    "CalibrationResult",
    "Dataset",
    "DegenerateRiskWarning",
    "DegenerateVariance",
    "EmptyDataset",
    "ExperimentResult",
    "Exponential",
    "Gompertz",
    "InferenceConfig",
    "InferenceRefused",
    "InferenceReport",
    "InsufficientReplicates",
    "InvalidParameter",
    "Mixture",
    "NonFiniteTime",
    "NonPositiveTau",
    "PairedObservation",
    "PairedRteError",
    "PairedSample",
    "ParseError",
    "ResampleDistribution",
    "RteEstimate",
    "Scenario",
    "ScenarioError",
    "ThetaOutOfDomain",
    "Uniform",
    "ValidationError",
    "bootstrap_distribution",
    "calibrate_null",
    "errors",
    "estimate_rte",
    "estimators",
    "inference",
    "load_calibrated_params",
    "paired_data",
    "power_scenario",
    "prepare_dataset",
    "randomization_distribution",
    "read_competing_csv",
    "read_paired_csv",
    "run_inference",
    "run_power_experiment",
    "run_size_experiment",
    "simulation",
    "table1_scenario",
    "test_and_ci",
    "write_competing_csv",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 48
    assert sorted(pairedrte.__all__) == PUBLIC_NAMES


def test_readme_quick_start_runs():
    # the block as README shows it, reading the bundled case-study pairs
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert '"pairs.csv"' in code
    diabetic = ROOT / "src" / "pairedrte" / "datasets" / "diabetic.csv"
    exec(code.replace('"pairs.csv"', repr(str(diabetic))), {})
