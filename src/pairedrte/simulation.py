"""Copula-based generation of dependent paired survival data and the
Monte Carlo harnesses for size and power studies.

Bivariate uniforms come from a Gumbel-Hougaard (positive-stable frailty) or
Clayton (conditional inversion) copula; marginal quantile transforms and
independent uniform censoring produce paired observations; experiments push
each synthetic sample through the full estimation and inference pipeline.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BracketError,
    DegenerateRiskWarning,
    InvalidParameter,
    NonMonotoneWarning,
    PairedRteError,
    QuantileDomain,
    ScenarioError,
)
from .estimators import estimate_rte
from .inference import InferenceConfig, resample_distribution, test_and_ci
from .paired_data import PairedSample, prepare_dataset

__all__ = [
    "Exponential",
    "Gompertz",
    "Uniform",
    "Mixture",
    "Scenario",
    "ExperimentResult",
    "CalibrationResult",
    "sample_gumbel_hougaard",
    "sample_clayton",
    "sample_copula",
    "apply_marginals_and_censoring",
    "draw_paired_sample",
    "calibrate_null",
    "run_size_experiment",
    "run_power_experiment",
    "empirical_censoring_rates",
    "scenario_from_dict",
    "scenario_to_dict",
    "marginal_from_dict",
    "load_calibrated_params",
    "table1_scenario",
    "power_scenario",
    "calibration_targets",
    "CENSORING_LEVELS",
]


# ---------------------------------------------------------------------------
# Marginal lifetime distributions


@dataclass(frozen=True)
class Exponential:
    """Exponential lifetime with the given hazard rate."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise InvalidParameter(f"exponential rate must be positive, got {self.rate}")

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, -np.expm1(-self.rate * t), 0.0)

    def quantile(self, p):
        return -np.log1p(-np.asarray(p, dtype=float)) / self.rate


@dataclass(frozen=True)
class Gompertz:
    """Gompertz lifetime: hazard ``rate * exp(shape * t)``.

    CDF ``1 - exp(-(rate/shape) (exp(shape t) - 1))``; the shape/rate naming
    follows the common statistical-package convention.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not self.shape > 0 or not self.rate > 0:
            raise InvalidParameter(
                f"Gompertz shape and rate must be positive, got {self.shape}, {self.rate}"
            )

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        a, b = self.shape, self.rate
        return np.where(t > 0, -np.expm1(-(b / a) * np.expm1(a * t)), 0.0)

    def quantile(self, p):
        a, b = self.shape, self.rate
        return np.log1p(-(a / b) * np.log1p(-np.asarray(p, dtype=float))) / a


@dataclass(frozen=True)
class Uniform:
    """Uniform lifetime on (0, upper)."""

    upper: float

    def __post_init__(self):
        if not self.upper > 0:
            raise InvalidParameter(f"uniform upper bound must be positive, got {self.upper}")

    def cdf(self, t):
        return np.clip(np.asarray(t, dtype=float) / self.upper, 0.0, 1.0)

    def quantile(self, p):
        return self.upper * np.asarray(p, dtype=float)


@dataclass(frozen=True)
class Mixture:
    """Two-component mixture; ``weight`` is the mass of ``first``.

    The quantile function is the true inverse of the mixture CDF (computed by
    bisection between the component quantiles), so transforming copula
    uniforms through it preserves the dependence structure exactly. The
    bisection stops once a step leaves both brackets unchanged: every later
    step would repeat it.
    """

    weight: float
    first: object
    second: object

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise InvalidParameter(f"mixture weight must be in [0, 1], got {self.weight}")

    def cdf(self, t):
        return self.weight * self.first.cdf(t) + (1.0 - self.weight) * self.second.cdf(t)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if self.weight == 1.0:
            return self.first.quantile(p)
        if self.weight == 0.0:
            return self.second.quantile(p)
        q1 = np.asarray(self.first.quantile(p), dtype=float)
        q2 = np.asarray(self.second.quantile(p), dtype=float)
        lo = np.minimum(q1, q2)
        hi = np.maximum(q1, q2)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < p
            new_lo = np.where(below, mid, lo)
            new_hi = np.where(below, hi, mid)
            if (new_lo == lo).all() and (new_hi == hi).all():
                break
            lo, hi = new_lo, new_hi
        return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Copula samplers


def _rng_of(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _positive_stable(alpha: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Positive stable variates with Laplace transform ``exp(-t**alpha)``.

    Chambers-Mallows-Stuck construction specialized to total positive skew:
    with ``theta ~ U(0, pi)`` and a unit exponential ``w``,
    ``sin(alpha theta) sin(theta)^(-1/alpha) (sin((1-alpha) theta)/w)^((1-alpha)/alpha)``.
    """
    theta = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(1.0, size)
    return (
        np.sin(alpha * theta)
        / np.sin(theta) ** (1.0 / alpha)
        * (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha)
    )


def _open_unit(u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Redraw entries that touched 0 or 1 so downstream transforms stay finite."""
    bad = ~((u > 0.0) & (u < 1.0))
    while bad.any():
        u[bad] = rng.random(int(bad.sum()))
        bad = ~((u > 0.0) & (u < 1.0))
    return u


def sample_gumbel_hougaard(param: float, n: int, seed) -> np.ndarray:
    """Draw ``n`` pairs from the Gumbel-Hougaard copula with parameter >= 1.

    Frailty construction: a positive stable variate ``V`` with index
    ``1/param`` and independent unit exponentials ``E_j`` give
    ``U_j = exp(-(E_j / V) ** (1/param))``. ``param == 1`` is independence.
    """
    if not param >= 1.0:
        raise InvalidParameter(f"Gumbel-Hougaard parameter must be >= 1, got {param}")
    rng = _rng_of(seed)
    if param == 1.0:
        return rng.random((n, 2))
    alpha = 1.0 / param
    v = _positive_stable(alpha, n, rng)
    e = rng.exponential(1.0, (n, 2))
    u = np.exp(-((e / v[:, None]) ** alpha))
    for j in (0, 1):
        u[:, j] = _open_unit(u[:, j], rng)
    return u


def sample_clayton(param: float, n: int, seed) -> np.ndarray:
    """Draw ``n`` pairs from the Clayton copula, parameter in [-1, inf) \\ {0}.

    Conditional inversion: with independent uniforms ``u, w``,
    ``v = ((w**(-param/(1+param)) - 1) u**(-param) + 1)**(-1/param)``.
    Negative parameters give negative dependence; ``param == -1`` is the
    countermonotone boundary ``v = 1 - u``.
    """
    if param == 0.0 or param < -1.0:
        raise InvalidParameter(
            f"Clayton parameter must be in [-1, inf) excluding 0, got {param}"
        )
    rng = _rng_of(seed)
    u = _open_unit(rng.random(n), rng)
    if param == -1.0:
        return np.column_stack([u, 1.0 - u])
    w = _open_unit(rng.random(n), rng)
    inner = (w ** (-param / (1.0 + param)) - 1.0) * u ** (-param) + 1.0
    v = inner ** (-1.0 / param)
    v = _open_unit(v, rng)
    return np.column_stack([u, v])


COPULAS = ("gumbel_hougaard", "clayton")


def sample_copula(name: str, param: float, n: int, seed) -> np.ndarray:
    if name == "gumbel_hougaard":
        return sample_gumbel_hougaard(param, n, seed)
    if name == "clayton":
        return sample_clayton(param, n, seed)
    raise InvalidParameter(f"unknown copula {name!r}; expected one of {COPULAS}")


# ---------------------------------------------------------------------------
# Scenarios


@dataclass(frozen=True)
class Scenario:
    """One data-generating configuration for the Monte Carlo studies."""

    copula: str
    copula_param: float
    marginal1: object
    marginal2: object
    censoring: Uniform
    tau: float
    n: int

    def __post_init__(self):
        if self.copula not in COPULAS:
            raise ScenarioError("copula", f"unknown copula {self.copula!r}")
        if self.copula == "gumbel_hougaard" and not self.copula_param >= 1.0:
            raise ScenarioError("copula_param", "Gumbel-Hougaard parameter must be >= 1")
        if self.copula == "clayton" and (self.copula_param == 0 or self.copula_param < -1):
            raise ScenarioError("copula_param", "Clayton parameter must be in [-1, inf) \\ {0}")
        if not self.tau > 0:
            raise ScenarioError("tau", "tau must be positive")
        if not self.n >= 1:
            raise ScenarioError("n", "n must be at least 1")


def apply_marginals_and_censoring(
    uniforms: np.ndarray, scenario: Scenario, seed
) -> PairedSample:
    """Turn copula uniforms into censored paired observations.

    Lifetimes are ``T_j = Q_j(1 - U_j)`` through each marginal's quantile
    function; censoring times are independent uniforms from the scenario's
    censoring law, shared in distribution by both margins. Uniforms that hit
    the quantile domain boundary are redrawn.
    """
    rng = _rng_of(seed)
    u = np.array(uniforms, dtype=float)
    if u.ndim != 2 or u.shape[1] != 2:
        raise QuantileDomain("uniforms must have shape (n, 2)")
    for j in (0, 1):
        u[:, j] = _open_unit(u[:, j], rng)
    t = np.column_stack([scenario.marginal1.quantile(1.0 - u[:, 0]),
                         scenario.marginal2.quantile(1.0 - u[:, 1])])
    # all first-margin censoring times are drawn before the second margin's
    c = rng.uniform(0.0, scenario.censoring.upper, (2, len(u))).T
    return PairedSample(np.minimum(t, c), t <= c)


def draw_paired_sample(scenario: Scenario, seed) -> PairedSample:
    """Sample one paired dataset of the scenario's size."""
    rng = _rng_of(seed)
    uv = sample_copula(scenario.copula, scenario.copula_param, scenario.n, rng)
    return apply_marginals_and_censoring(uv, scenario, rng)


# ---------------------------------------------------------------------------
# Calibration of the null scenarios


@dataclass(frozen=True)
class CalibrationResult:
    param: float
    theta: float
    iterations: int
    n_draws: int
    seed: int


def calibrate_null(
    make_scenario: Callable[[float], Scenario],
    bracket: tuple[float, float],
    *,
    target: float = 0.5,
    tol: float = 0.002,
    n_draws: int = 1_000_000,
    seed: int = 0,
    max_iter: int = 80,
) -> CalibrationResult:
    """Find the free marginal parameter that makes the effect hit the target.

    Stochastic bisection with common random numbers: one large uncensored
    copula sample is drawn once, and each candidate parameter is scored by
    the exact within-pair comparison of the horizon-truncated lifetimes.
    The map parameter -> effect must be monotone over the bracket (checked
    empirically; a violation only warns).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"invalid bracket {bracket}")
    probe = make_scenario(lo)
    rng = np.random.default_rng(seed)
    uv = sample_copula(probe.copula, probe.copula_param, n_draws, rng)
    u1 = _open_unit(uv[:, 0], rng)
    u2 = _open_unit(uv[:, 1], rng)

    def theta_of(param: float) -> float:
        s = make_scenario(param)
        if (s.copula, s.copula_param) != (probe.copula, probe.copula_param):
            raise BracketError("the copula must not depend on the calibrated parameter")
        m1 = np.minimum(np.asarray(s.marginal1.quantile(1.0 - u1)), s.tau)
        m2 = np.minimum(np.asarray(s.marginal2.quantile(1.0 - u2)), s.tau)
        return float(np.mean((m1 > m2) + 0.5 * (m1 == m2)))

    th_lo = theta_of(lo)
    th_hi = theta_of(hi)
    if (th_lo - target) * (th_hi - target) > 0:
        raise BracketError(
            f"no sign change over bracket: theta({lo})={th_lo:.4f}, theta({hi})={th_hi:.4f}"
        )
    th_mid0 = theta_of(0.5 * (lo + hi))
    if not (min(th_lo, th_hi) <= th_mid0 <= max(th_lo, th_hi)):
        warnings.warn(
            "effect does not look monotone over the calibration bracket",
            NonMonotoneWarning,
            stacklevel=2,
        )

    increasing = th_hi > th_lo
    best_param, best_theta = lo, th_lo
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        th = theta_of(mid)
        if abs(th - target) < abs(best_theta - target):
            best_param, best_theta = mid, th
        if abs(th - target) <= tol and iterations >= 10:
            break
        if (th < target) == increasing:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, abs(hi)):
            break
    return CalibrationResult(
        param=best_param, theta=best_theta, iterations=iterations, n_draws=n_draws, seed=seed
    )


# ---------------------------------------------------------------------------
# Size and power experiments


def _censored_margins(sample: PairedSample, tau: float) -> np.ndarray:
    """Margins censored in the analysis: right-censored, or truncated at ``tau``."""
    return (sample.delta == 0) | (sample.x >= tau)


@dataclass(frozen=True)
class ExperimentResult:
    """Rejection counts of one scenario under the requested test variants."""

    scenario: Scenario
    label: str
    r: int
    b: int
    alpha: float
    sided: str
    seed: int
    rejections: dict[tuple[str, str], int]
    failures: tuple[tuple[int, str], ...]
    censoring_rate_margins: float
    censoring_rate_pairs: float

    @property
    def errors(self) -> int:
        """Number of failed replicates; ``failures`` holds their ``(rep, error class)``."""
        return len(self.failures)

    def rate(self, method: str, transform: str) -> float:
        return self.rejections[(method, transform)] / self.r

    def mc_se(self, method: str, transform: str) -> float:
        p = self.rate(method, transform)
        return math.sqrt(p * (1.0 - p) / self.r)

    def to_rows(self) -> list[dict]:
        rows = []
        for (method, transform), count in sorted(self.rejections.items()):
            rows.append(
                {
                    "label": self.label,
                    "copula": self.scenario.copula,
                    "copula_param": self.scenario.copula_param,
                    "n": self.scenario.n,
                    "tau": self.scenario.tau,
                    "censoring_upper": self.scenario.censoring.upper,
                    "method": method,
                    "transform": transform,
                    "sided": self.sided,
                    "alpha": self.alpha,
                    "r": self.r,
                    "b": self.b,
                    "rejections": count,
                    "rate": self.rate(method, transform),
                    "mc_se": self.mc_se(method, transform),
                    "censoring_rate_margins": self.censoring_rate_margins,
                    "censoring_rate_pairs": self.censoring_rate_pairs,
                    "errors": self.errors,
                    "seed": self.seed,
                }
            )
        return rows


def run_size_experiment(
    scenario: Scenario,
    *,
    methods: Sequence[str] = ("asymptotic", "bootstrap", "randomization"),
    transforms: Sequence[str] = ("linear", "loglog"),
    r: int = 1000,
    b: int = 500,
    alpha: float = 0.05,
    sided: str = "right",
    seed: int = 0,
    workers: int = 1,
    label: str = "",
) -> ExperimentResult:
    """Monte Carlo rejection rates of the requested tests under the scenario.

    Each of the ``r`` replications draws a fresh paired sample, transforms it,
    and runs every method/transform combination at level ``alpha``. Replicate
    RNG streams derive from ``(seed, replicate)``, so results are independent
    of scheduling. Truncation at the horizon counts as censoring in the
    reported censoring rates. Per-replicate analysis failures are recorded as
    ``(rep, error class name)`` and tolerated up to 1% of ``r``.
    """
    rejections = {(m, t): 0 for m in methods for t in transforms}
    failures = []
    margins_censored = 0
    pairs_censored = 0
    for rep in range(r):
        rng = np.random.default_rng([seed, rep])
        obs = draw_paired_sample(scenario, rng)
        margins_censored += int(_censored_margins(obs, scenario.tau).sum())
        try:
            data = prepare_dataset(obs, scenario.tau, seed=rep)
            pairs_censored += int((data.epsilon == 0).sum())
            with warnings.catch_warnings():
                # flat-tail replicates are routine at small n; the flag is
                # for interactive use, not for the harness
                warnings.simplefilter("ignore", DegenerateRiskWarning)
                est = estimate_rte(data)
            for method in methods:
                cfg = InferenceConfig(
                    method=method, sided=sided, alpha=alpha, b=b,
                    seed=(seed, rep), workers=workers,
                )
                dist = resample_distribution(data, cfg)
                for transform in transforms:
                    report = test_and_ci(est, dist, replace(cfg, transform=transform))
                    if report.reject:
                        rejections[(method, transform)] += 1
        except PairedRteError as exc:
            failures.append((rep, type(exc).__name__))
            if len(failures) > max(1, 0.01 * r):
                raise
    return ExperimentResult(
        scenario=scenario,
        label=label,
        r=r,
        b=b,
        alpha=alpha,
        sided=sided,
        seed=seed,
        rejections=rejections,
        failures=tuple(failures),
        censoring_rate_margins=margins_censored / (2.0 * r * scenario.n),
        censoring_rate_pairs=pairs_censored / (r * scenario.n),
    )


def run_power_experiment(
    grid: Sequence[tuple[str, Scenario]],
    *,
    methods: Sequence[str] = ("randomization",),
    transforms: Sequence[str] = ("linear",),
    r: int = 500,
    b: int = 500,
    alpha: float = 0.05,
    sided: str = "right",
    seed: int = 0,
    workers: int = 1,
) -> list[ExperimentResult]:
    """Rejection-rate curve along a grid of scenarios (departure axis)."""
    results = []
    for idx, (label, scenario) in enumerate(grid):
        results.append(
            run_size_experiment(
                scenario,
                methods=methods,
                transforms=transforms,
                r=r,
                b=b,
                alpha=alpha,
                sided=sided,
                seed=int(np.random.SeedSequence([seed, idx]).generate_state(1)[0]),
                workers=workers,
                label=label,
            )
        )
    return results


def empirical_censoring_rates(scenario: Scenario, n_draws: int, seed) -> tuple[float, float]:
    """Margin-level and pair-level censoring rates (truncation counts as censoring)."""
    big = replace(scenario, n=n_draws)
    obs = draw_paired_sample(big, seed)
    data = prepare_dataset(obs, scenario.tau, seed=0)
    return float(_censored_margins(obs, scenario.tau).mean()), float((data.epsilon == 0).mean())


# ---------------------------------------------------------------------------
# Scenario (de)serialization


_MARGINALS = {"exponential", "gompertz", "uniform", "mixture"}


def marginal_from_dict(d: dict, path: str):
    if not isinstance(d, dict) or "name" not in d:
        raise ScenarioError(path, "expected an object with a 'name' key")
    name = d["name"]
    try:
        if name == "exponential":
            return Exponential(rate=float(d["rate"]))
        if name == "gompertz":
            return Gompertz(shape=float(d["shape"]), rate=float(d["rate"]))
        if name == "uniform":
            return Uniform(upper=float(d["upper"]))
        if name == "mixture":
            return Mixture(
                weight=float(d["weight"]),
                first=marginal_from_dict(d["first"], f"{path}.first"),
                second=marginal_from_dict(d["second"], f"{path}.second"),
            )
    except KeyError as exc:
        raise ScenarioError(f"{path}.{exc.args[0]}", "missing field") from None
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path, str(exc)) from None
    except InvalidParameter as exc:
        raise ScenarioError(path, str(exc)) from None
    raise ScenarioError(f"{path}.name", f"unknown marginal {name!r}; expected one of {sorted(_MARGINALS)}")


def marginal_to_dict(m) -> dict:
    if isinstance(m, Exponential):
        return {"name": "exponential", "rate": m.rate}
    if isinstance(m, Gompertz):
        return {"name": "gompertz", "shape": m.shape, "rate": m.rate}
    if isinstance(m, Uniform):
        return {"name": "uniform", "upper": m.upper}
    if isinstance(m, Mixture):
        return {
            "name": "mixture",
            "weight": m.weight,
            "first": marginal_to_dict(m.first),
            "second": marginal_to_dict(m.second),
        }
    raise TypeError(f"not a marginal: {m!r}")


def scenario_from_dict(d: dict) -> Scenario:
    for key in ("copula", "copula_param", "marginal1", "marginal2", "censoring", "tau", "n"):
        if key not in d:
            raise ScenarioError(key, "missing field")
    if d["copula"] not in COPULAS:
        raise ScenarioError("copula", f"unknown copula {d['copula']!r}; expected one of {COPULAS}")
    cens = d["censoring"]
    if not isinstance(cens, dict) or cens.get("name", "uniform") != "uniform":
        raise ScenarioError("censoring.name", "censoring must be a uniform law")
    try:
        censoring = Uniform(upper=float(cens["upper"]))
    except KeyError:
        raise ScenarioError("censoring.upper", "missing field") from None
    return Scenario(
        copula=d["copula"],
        copula_param=float(d["copula_param"]),
        marginal1=marginal_from_dict(d["marginal1"], "marginal1"),
        marginal2=marginal_from_dict(d["marginal2"], "marginal2"),
        censoring=censoring,
        tau=float(d["tau"]),
        n=int(d["n"]),
    )


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "copula": s.copula,
        "copula_param": s.copula_param,
        "marginal1": marginal_to_dict(s.marginal1),
        "marginal2": marginal_to_dict(s.marginal2),
        "censoring": {"name": "uniform", "upper": s.censoring.upper},
        "tau": s.tau,
        "n": s.n,
    }


# ---------------------------------------------------------------------------
# The calibrated null scenarios of the size study

# Censoring levels, resolved empirically against the reported rate bands
# (light 17-27%, medium 27-34%, strong 38-42% at the margin level): the
# larger the censoring support, the lighter the censoring.
CENSORING_LEVELS = {
    "exp_mix": {"light": 2.7, "medium": 1.6, "strong": 1.1},
    "gompertz_exp": {"light": 1.75, "medium": 1.0, "strong": 0.7},
}

_TAUS = {"exp_mix": 1.0, "gompertz_exp": 0.6}

_COPULA_PARAMS = {"gumbel_hougaard": 5.0, "clayton": -0.6}


def _null_marginals(family: str, param: float):
    if family == "exp_mix":
        return Exponential(2.0), Mixture(0.5, Exponential(3.0), Exponential(param))
    if family == "gompertz_exp":
        return Gompertz(0.6, param), Exponential(3.0)
    raise ScenarioError("family", f"unknown marginal family {family!r}")


def _null_scenario(copula: str, family: str, param: float, censoring_upper: float, n: int) -> Scenario:
    m1, m2 = _null_marginals(family, param)
    return Scenario(
        copula=copula,
        copula_param=_COPULA_PARAMS[copula],
        marginal1=m1,
        marginal2=m2,
        censoring=Uniform(censoring_upper),
        tau=_TAUS[family],
        n=n,
    )


def calibration_targets() -> dict[str, dict]:
    """The four null calibrations: free parameter, bracket, scenario builder."""
    out = {}
    for copula in COPULAS:
        for family, bracket in (("exp_mix", (0.05, 2.5)), ("gompertz_exp", (0.5, 6.0))):
            key = f"{copula}__{family}"
            out[key] = {
                "copula": copula,
                "family": family,
                "bracket": bracket,
                "builder": (
                    lambda p, _c=copula, _f=family: _null_scenario(
                        _c, _f, p, CENSORING_LEVELS[_f]["light"], 100
                    )
                ),
            }
    return out


def load_calibrated_params() -> dict:
    """Null-scenario parameters pinned at build time (regenerate via the CLI)."""
    path = resources.files("pairedrte").joinpath("datasets/calibrated_params.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def table1_scenario(
    copula: str,
    family: str,
    censoring: str,
    n: int,
    params: dict | None = None,
) -> Scenario:
    """A calibrated null scenario of the size study."""
    if params is None:
        params = load_calibrated_params()
    key = f"{copula}__{family}"
    if key not in params:
        raise ScenarioError("scenario", f"no calibrated parameter for {key!r}")
    if censoring not in CENSORING_LEVELS[family]:
        raise ScenarioError("censoring", f"unknown censoring level {censoring!r}")
    return _null_scenario(
        copula, family, params[key]["param"], CENSORING_LEVELS[family][censoring], n
    )


def power_scenario(family: int, copula: str, value: float, n: int) -> Scenario:
    """Power-study scenarios: the departure axis is a mixing weight or scale.

    Family 1 mixes a U(0, 2) component into an Exp(2) margin (weight
    ``value``), family 2 mixes a Gompertz(0.1, 2) component (weight
    ``value``), family 3 scales the first margin to Exp(2 / value). The
    second margin is always Exp(2); ``value`` at 0 (families 1, 2) or 1
    (family 3) is the exchangeable null.
    """
    base = Exponential(2.0)
    if family == 1:
        m1 = Mixture(value, Uniform(2.0), base) if value > 0 else base
        cens, tau = Uniform(2.5), 1.9
    elif family == 2:
        m1 = Mixture(value, Gompertz(0.1, 2.0), base) if value > 0 else base
        cens, tau = Uniform(2.5), 1.8
    elif family == 3:
        if not value >= 1.0:
            raise ScenarioError("value", "family 3 needs a scale k >= 1")
        m1 = Exponential(2.0 / value)
        cens, tau = Uniform(2.0), 1.3
    else:
        raise ScenarioError("family", f"unknown power family {family!r}")
    return Scenario(
        copula=copula,
        copula_param=_COPULA_PARAMS[copula],
        marginal1=m1,
        marginal2=base,
        censoring=cens,
        tau=tau,
        n=n,
    )
