"""Copula-based generation of dependent paired survival data and the
Monte Carlo harnesses for size and power studies.

Bivariate uniforms come from a Gumbel-Hougaard (positive-stable frailty) or
Clayton (conditional inversion) copula; marginal quantile transforms and
independent uniform censoring produce paired observations; experiments push
blocks of synthetic samples through the estimation and inference pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from . import _engine
from .errors import (
    BracketError,
    InferenceRefused,
    InvalidParameter,
    ScenarioError,
    ValidationError,
)
from .estimators import _estimates_from_counts
from ._streams import grid_seed, is_integer, rng_of, rngs_of
from .inference import InferenceConfig, _decisions, _distinct, resample_distribution
from .paired_data import Dataset, PairedSample, _plain_ints, _prepare_rows

__all__ = [
    "Exponential",
    "Gompertz",
    "Uniform",
    "Mixture",
    "Scenario",
    "ExperimentResult",
    "CalibrationResult",
    "sample_copula",
    "draw_paired_sample",
    "calibrate_null",
    "run_size_experiment",
    "run_power_experiment",
    "scenario_from_dict",
    "marginal_from_dict",
    "settings_from_dict",
    "grid_from_dict",
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
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise InvalidParameter(f"exponential rate must be positive and finite, got {self.rate}")

    def cdf(self, t):
        return -np.expm1(-self.rate * np.maximum(t, 0.0))

    def quantile(self, p):
        with np.errstate(divide="ignore"):  # p = 1 maps to inf
            return -np.log1p(-np.asarray(p, dtype=float)) / self.rate

    def _density(self, t):
        return self.rate * np.exp(-self.rate * t)


@dataclass(frozen=True)
class Gompertz:
    """Gompertz lifetime: hazard ``rate * exp(shape * t)``.

    CDF ``1 - exp(-(rate/shape) (exp(shape t) - 1))``; the shape/rate naming
    follows the common statistical-package convention.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not all(p > 0 and math.isfinite(p) for p in (self.shape, self.rate)):
            raise InvalidParameter(
                f"Gompertz shape and rate must be positive and finite, got {self.shape}, {self.rate}"
            )

    def cdf(self, t):
        a, b = self.shape, self.rate
        return -np.expm1(-(b / a) * np.expm1(a * np.maximum(t, 0.0)))

    def quantile(self, p):
        a, b = self.shape, self.rate
        with np.errstate(divide="ignore"):  # p = 1 maps to inf
            return np.log1p(-(a / b) * np.log1p(-np.asarray(p, dtype=float))) / a

    def _density(self, t):
        a, b = self.shape, self.rate  # one exp, so 0 far out, not inf * 0
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(t < np.inf, b * np.exp(a * t - (b / a) * np.expm1(a * t)), 0.0)


@dataclass(frozen=True)
class Uniform:
    """Uniform lifetime on (0, upper)."""

    upper: float

    def __post_init__(self):
        if not (self.upper > 0 and math.isfinite(self.upper)):
            raise InvalidParameter(
                f"uniform upper bound must be positive and finite, got {self.upper}")

    def cdf(self, t):
        return np.clip(np.asarray(t, dtype=float) / self.upper, 0.0, 1.0)

    def quantile(self, p):
        return self.upper * np.asarray(p, dtype=float)

    def _density(self, t):
        return np.where(t < self.upper, 1.0 / self.upper, 0.0)


@dataclass(frozen=True)
class Mixture:
    """Two-component mixture; ``weight`` is the mass of ``first``.

    The quantile function is the true inverse of the mixture CDF, so
    transforming copula uniforms through it preserves the dependence structure
    exactly. It is the bisection between the component quantiles that stops
    once a step changes no bracket, run from narrower brackets that straddle
    ``p``: the CDF is nondecreasing in floating point, so each ends at the same
    neighbouring doubles and the result is the same bit for bit.
    """

    weight: float
    first: object
    second: object

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise InvalidParameter(f"mixture weight must be in [0, 1], got {self.weight}")

    def cdf(self, t):
        return self.weight * self.first.cdf(t) + (1.0 - self.weight) * self.second.cdf(t)

    def _density(self, t):
        return self.weight * self.first._density(t) + (1.0 - self.weight) * self.second._density(t)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if self.weight == 1.0:
            return self.first.quantile(p)
        if self.weight == 0.0:
            return self.second.quantile(p)
        a, b = self._bracket(p.ravel())
        return self._bisect(p, a.reshape(p.shape), b.reshape(p.shape))

    def _bracket(self, p):
        """Brackets that straddle the flat ``p``: about Newton points, widened 16-fold until they do."""
        lo, hi = self.first.quantile(p), self.second.quantile(p)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        with np.errstate(all="ignore"):
            y, x = np.log1p(-p), 0.5 * (lo + hi)
            for _ in range(8):
                f, d = self.cdf(x), self._density(x)
                lo, hi = np.where(f < p, x, lo), np.where(f < p, hi, x)
                t = x + (np.log1p(-f) - y) * (1.0 - f) / d
                t = np.where((lo < t) & (t < hi) | (t == x), t, 0.5 * (lo + hi))
                x, moved = t, np.abs(t - x) > 1e-7 * x
                if not moved.any():
                    break
            h = 2.0 * (np.spacing(p) / d + np.spacing(x))
            a, b = np.fmax(lo, x - h), np.fmin(hi, x + h)
            wide = bad = np.flatnonzero((a > lo) & (self.cdf(a) >= p) | (b < hi) & (self.cdf(b) < p))
            while bad.size:
                h[bad] *= 16.0
                a[bad], b[bad] = np.fmax(lo[bad], x[bad] - h[bad]), np.fmin(hi[bad], x[bad] + h[bad])
                fa, fb = self.cdf(np.stack([a[bad], b[bad]]))
                bad = bad[(a[bad] > lo[bad]) & (fa >= p[bad]) | (b[bad] < hi[bad]) & (fb < p[bad])]
        a[wide] = b[wide] = self._bisect(p[wide], a[wide], b[wide])
        return a, b

    def _bisect(self, p, lo, hi):
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < p
            # the midpoint lies in the bracket, so a step moves an end iff the
            # midpoint is strictly inside; a NaN bracket, as of a NaN p, never moves
            if not ((below & (mid > lo)).any() or (~below & (mid < hi)).any()):
                break
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Copula samplers


COPULAS = ("gumbel_hougaard", "clayton")


def _copula_problem(copula: str, param: float):
    """``(field, reason)`` if the copula is unknown or the parameter outside its domain, else None."""
    if copula not in COPULAS:
        return "copula", f"unknown copula {copula!r}; expected one of {COPULAS}"
    if not math.isfinite(param):
        return "copula_param", "the copula parameter must be finite"
    if copula == "gumbel_hougaard" and not param >= 1.0:
        return "copula_param", "Gumbel-Hougaard parameter must be >= 1"
    if copula == "clayton" and (param == 0 or param < -1):
        return "copula_param", "Clayton parameter must be in [-1, inf) \\ {0}"
    return None


def _draw_rows(copula: str, param: float, n: int, upper: float, rngs, rows: int):
    """Copula uniforms and censoring times, each (rows, n, 2), one row per generator of ``rngs``.

    Also returns whether each row lies strictly inside (0, 1). Each generator
    makes its row's raw calls into block arrays before the next is taken:
    Gumbel-Hougaard's angles ``theta ~ U(0, pi)``, unit exponentials ``w``
    and the pairs' unit exponentials ``e``, then the censoring times. Its
    uniforms are ``exp(-(e / V) ** alpha)``, ``alpha = 1/param``, of the
    positive stable ``V`` with Laplace transform ``exp(-t**alpha)``: the
    Chambers-Mallows-Stuck construction specialized to total positive skew,
    ``sin(alpha theta) sin(theta)^(-1/alpha) (sin((1-alpha) theta)/w)^((1-alpha)/alpha)``.
    Independence and Clayton read their uniforms and then the censoring
    times in one ``random`` call, since ``uniform(0, upper)`` is ``upper *
    random()`` for a finite ``upper``: independence its pairs, Clayton ``u``
    and ``w``, whose partner is by inversion
    ``v = ((w**(-param/(1+param)) - 1) u**(-param) + 1)**(-1/param)``, or
    ``1 - u`` alone at the countermonotone -1. The copula transform then runs
    once on the block. Clayton's ``w`` must lie inside (0, 1) too, since a 0
    there can give a ``v`` inside. A draw that overflows ends outside, so it
    does not warn.
    """
    def inside(a):
        return ((a > 0.0) & (a < 1.0)).reshape(rows, -1).all(axis=1)

    if copula == "gumbel_hougaard" and param != 1.0:
        theta, w, e = np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n, 2))
        c = np.empty((rows, 2, n))
        for i, rng in enumerate(rngs):
            theta[i], w[i] = rng.uniform(0.0, np.pi, n), rng.exponential(1.0, n)
            e[i], c[i] = rng.exponential(1.0, (n, 2)), rng.uniform(0.0, upper, (2, n))
        alpha = 1.0 / param
        with np.errstate(all="ignore"):
            v = (np.sin(alpha * theta) / np.sin(theta) ** (1.0 / alpha)
                 * (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha))
            u = np.exp(-((e / v[..., None]) ** alpha))
        ok = inside(u)
    else:
        width = n if param == -1.0 else 2 * n
        raw = np.empty((rows, width + 2 * n))
        for i, rng in enumerate(rngs):
            rng.random(out=raw[i])
        c = upper * raw[:, width:].reshape(rows, 2, n)
        if copula == "gumbel_hougaard":
            u = raw[:, :width].reshape(rows, n, 2).copy()
        else:
            u, w = raw[:, :n], raw[:, n:width]
            with np.errstate(all="ignore"):
                v = 1.0 - u if param == -1.0 else (
                    ((w ** (-param / (1.0 + param)) - 1.0) * u ** (-param) + 1.0) ** (-1.0 / param))
            u = np.stack([u, v], -1)
        ok = inside(u) & inside(raw[:, n:width])
    return u, c.transpose(0, 2, 1), ok


def _draw_row(copula: str, param: float, n: int, upper: float, rng: np.random.Generator):
    """The one-row case of :func:`_draw_rows`: ``rng``'s row, drawn whole until inside (0, 1).

    A redraw makes the same calls again, continuing ``rng``, so it samples
    the copula conditioned to the open unit square.
    """
    while True:
        u, c, ok = _draw_rows(copula, param, n, upper, [rng], 1)
        if ok[0]:
            return u[0], c[0]


def sample_copula(name: str, param: float, n: int, seed) -> np.ndarray:
    """Draw ``n`` pairs from the named copula, each uniform strictly inside (0, 1).

    Gumbel-Hougaard (parameter >= 1, independence at 1) by a positive stable
    frailty, Clayton (parameter in [-1, inf) excluding 0) by conditional
    inversion, as :func:`_draw_rows` draws them. These are the uniforms
    :func:`draw_paired_sample` draws from ``seed`` for ``n`` pairs: the
    censoring times are drawn and dropped. A copula or parameter
    :class:`Scenario` refuses is an :class:`InvalidParameter`.
    """
    problem = _copula_problem(name, param)
    if problem is not None:
        raise InvalidParameter(problem[1])
    return _draw_row(name, param, n, 1.0, rng_of(seed))[0]


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
        problem = _copula_problem(self.copula, self.copula_param)
        if problem is not None:
            raise ScenarioError(*problem)
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ScenarioError("tau", "tau must be a positive finite number")
        if not (is_integer(self.n) and self.n >= 1):
            raise ScenarioError("n", f"n must be an integer at least 1, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))


def _observe(u: np.ndarray, c: np.ndarray, scenario: Scenario):
    """Times and indicators of uniforms ``u`` and censoring times ``c`` of shape (..., 2).

    Lifetimes are ``T_j = Q_j(1 - U_j)``; the quantile transforms draw nothing.
    """
    t = np.stack([scenario.marginal1.quantile(1.0 - u[..., 0]),
                  scenario.marginal2.quantile(1.0 - u[..., 1])], axis=-1)
    return np.minimum(t, c), (t <= c).astype(np.int64)


def draw_paired_sample(scenario: Scenario, seed) -> PairedSample:
    """Sample one paired dataset of the scenario's size: the one-row case of the harness draw."""
    x, delta = _observe(*_draw_row(scenario.copula, scenario.copula_param, scenario.n,
                                   scenario.censoring.upper, rng_of(seed)), scenario)
    return PairedSample(x, delta)


def _draw_block(scenario: Scenario, seed: int, reps: range):
    """Times and indicators, each (R, n, 2), of replicates ``reps``.

    Replicate ``rep`` draws :func:`draw_paired_sample`'s stream from
    ``rng_of((seed, rep))``, whose generator ``rngs_of`` seeds with the rest
    of the block's, in one call of :func:`_draw_rows`. A row that touched 0
    or 1 is drawn again as the one-row case, from a fresh generator of its
    seed words, so its stream continues past that first draw.
    """
    sampler = (scenario.copula, scenario.copula_param, scenario.n, scenario.censoring.upper)
    u, c, ok = _draw_rows(*sampler, rngs_of(seed, reps), len(reps))
    for i in np.flatnonzero(~ok):
        u[i], c[i] = _draw_row(*sampler, rng_of((seed, reps[i])))
    return _observe(u, c, scenario)


# ---------------------------------------------------------------------------
# The exact effect of a scenario, and calibration of the null scenarios


def _copula_and_d2(copula: str, param: float, u, v):
    """The copula ``C(u, v)`` and its partial derivative in ``v``, elementwise on [0, 1]."""
    with np.errstate(all="ignore"):
        if copula == "clayton":
            base = np.maximum(u ** -param + v ** -param - 1.0, 0.0)
            d2 = np.where(base > 0, base ** (-1.0 / param - 1.0) * v ** (-param - 1.0), 0.0)
            return base ** (-1.0 / param), d2
        y = -np.log(v)
        a = (-np.log(u)) ** param + y ** param
        c = np.exp(-a ** (1.0 / param))
        return c, np.where(c > 0, c * a ** (1.0 / param - 1.0) * y ** (param - 1.0) / v, 0.0)


# Times of the quadrature grid on [0, tau]; twice as many move no package
# scenario's effect by 1e-7.
_NODES = 20_001


def _theta_of(scenario: Scenario) -> float:
    """The effect of the scenario's lifetimes truncated at ``tau``, by quadrature.

    Lifetimes are ``T_j = Q_j(1 - U_j)``, so ``U_j = S_j(T_j)`` and the copula
    ``C`` is the survival copula of ``(T1, T2)``. With continuous margins the
    effect is ``int_{S2(tau)}^1 d2C(S1(S2^-1(v)), v) dv + C(S1(tau), S2(tau)) / 2``.
    The integral is a midpoint rule over :data:`_NODES` equally spaced times on
    [0, tau]: each cell weighs ``d2C`` at the mean of its end survivals by its
    mass of ``T2``, so the rule calls the marginals' ``cdf`` only. It is
    second order where ``d2C`` is smooth. Clayton at -1 has a step ``d2C``,
    and there the rule is first order: with equal exponential margins it
    misses the null by 2.4e-5 at 20,001 nodes.
    """
    t = np.linspace(0.0, scenario.tau, _NODES)
    s1 = 1.0 - np.asarray(scenario.marginal1.cdf(t), dtype=float)
    f2 = np.asarray(scenario.marginal2.cdf(t), dtype=float)
    s2 = 1.0 - f2
    _, d2 = _copula_and_d2(scenario.copula, scenario.copula_param,
                           0.5 * (s1[1:] + s1[:-1]), 0.5 * (s2[1:] + s2[:-1]))
    both_survive, _ = _copula_and_d2(scenario.copula, scenario.copula_param, s1[-1], s2[-1])
    mass = np.diff(f2)  # past a bounded support, where both survivals may be 0, it is 0
    return float(np.where(mass > 0, d2, 0.0) @ mass + 0.5 * both_survive)


@dataclass(frozen=True)
class CalibrationResult:
    param: float
    theta: float
    iterations: int


def calibrate_null(
    make_scenario: Callable[[float], Scenario],
    bracket: tuple[float, float],
) -> CalibrationResult:
    """Find the free marginal parameter that makes the effect one half, the null.

    Bisection on the exact effect of :func:`_theta_of`, until the midpoint
    of the bracket equals one of its ends; the end whose effect is nearer one
    half is returned. The effect must cross one half strictly over the
    bracket, else :class:`BracketError`: an effect equal at both ends, as
    when the parameter moves nothing, does not.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"invalid bracket {bracket}")
    th_lo, th_hi = _theta_of(make_scenario(lo)), _theta_of(make_scenario(hi))
    if not min(th_lo, th_hi) < 0.5 < max(th_lo, th_hi):
        raise BracketError(
            f"no sign change over bracket: theta({lo})={th_lo:.7f}, theta({hi})={th_hi:.7f}"
        )
    increasing = th_hi > th_lo
    iterations = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        iterations += 1
        th = _theta_of(make_scenario(mid))
        if (th < 0.5) == increasing:
            lo, th_lo = mid, th
        else:
            hi, th_hi = mid, th
    param, theta = min((lo, th_lo), (hi, th_hi), key=lambda end: abs(end[1] - 0.5))
    return CalibrationResult(param=param, theta=theta, iterations=iterations)


# ---------------------------------------------------------------------------
# Size and power experiments


def _censored_margins(x: np.ndarray, delta: np.ndarray, tau: float) -> np.ndarray:
    """Margins censored in the analysis: right-censored, or truncated at ``tau``."""
    return (delta == 0) | (x >= tau)


@dataclass(frozen=True)
class ExperimentResult:
    """Rejection counts of one scenario under the requested test variants.

    ``refused`` counts per test the replicates it refused, ``failures`` holds
    the ``(rep, error class)`` of those that could not be prepared, and
    ``risk_exhausted`` counts the analysed replicates whose risk set ends
    before the horizon while survival mass remains (the condition
    :class:`DegenerateRiskWarning` flags in :func:`estimate_rte`).
    """

    scenario: Scenario
    label: str
    r: int
    b: int
    alpha: float
    sided: str
    seed: int
    rejections: dict[tuple[str, str], int]
    refused: dict[tuple[str, str], int]
    failures: tuple[tuple[int, str], ...]
    censoring_rate_margins: float
    censoring_rate_pairs: float
    risk_exhausted: int

    @property
    def errors(self) -> int:
        """Number of replicates that could not be prepared."""
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
                    "refused": self.refused[(method, transform)],
                    "rate": self.rate(method, transform),
                    "mc_se": self.mc_se(method, transform),
                    "censoring_rate_margins": self.censoring_rate_margins,
                    "censoring_rate_pairs": self.censoring_rate_pairs,
                    "errors": self.errors,
                    "seed": self.seed,
                    "risk_exhausted": self.risk_exhausted,
                }
            )
        return rows


def _estimate_block(scenario: Scenario, seed: int, reps: range):
    """Draw, prepare and estimate the harness replicates ``reps`` in one array pass.

    Returns the number of censored margins, the records ``z, eps`` of shape
    (R, n), the preparation errors by row, and per replicate the estimate and
    variance that :func:`estimate_rte` reports and whether its risk set ends
    before the horizon while survival mass remains. Rows that failed to
    prepare hold placeholder values.
    """
    tau = float(scenario.tau)
    x, delta = _draw_block(scenario, seed, reps)
    censored = int(_censored_margins(x, delta, tau).sum())
    z, eps, errors = _prepare_rows(x, delta, tau)
    _, at_risk, dn = _engine.sorted_grid(z, eps)
    theta, sigma2, exhausted = _estimates_from_counts(
        at_risk, dn, scenario.n, tau, z.max(axis=-1)
    )
    return censored, z, eps, errors, theta, sigma2, exhausted


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
    label: str = "",
) -> ExperimentResult:
    """Monte Carlo rejection rates of the requested tests under the scenario.

    Replicate ``rep`` draws a paired sample from ``default_rng([seed, rep])``,
    prepares it as :func:`prepare_dataset` does, and runs every
    method/transform combination at level ``alpha``; its resampling methods
    use ``seed=(seed, rep)``. Results are therefore independent of
    scheduling. Replicates run in blocks of at most ``_engine.BLOCK_CELLS //
    n``: the quantile transforms, the preparation, the estimates and the
    asymptotic test are one array pass per block. Resampled distributions are
    drawn one replicate at a time and decided per block, ``BLOCK_CELLS // b``
    replicates per array pass. Truncation at the horizon counts as censoring in
    the reported censoring rates. Each test of a prepared replicate rejects,
    does not, or is refused (:class:`InferenceRefused`): a non-rejection
    counted in ``refused``, which leaves the replicate's other tests as they
    are. A replicate that cannot be prepared is recorded as ``(rep, error
    class name)`` in ``failures``; past 1% of ``r`` its error is raised.
    Invalid test settings (``b`` and ``seed`` included), ``r < 1``, an empty
    or repeated method or transform, and a bootstrap of one pair raise before
    any replicate runs.
    """
    if not is_integer(r):
        raise ValidationError(f"r must be an integer, got {r!r}")
    if not r >= 1:
        raise ValidationError(f"r must be at least 1, got {r}")
    methods, transforms = _distinct("methods", methods), _distinct("transforms", transforms)
    for method in methods:  # a bad setting raises here, not on a replicate
        InferenceConfig(method=method, sided=sided, alpha=alpha, b=b, seed=seed)
    if "bootstrap" in methods and scenario.n < 2:
        raise ValidationError("bootstrap needs at least two records")
    r, b, seed = int(r), int(b), _plain_ints(seed)
    n, tau = scenario.n, float(scenario.tau)
    rejections = {(m, t): 0 for m in methods for t in transforms}
    refused = dict(rejections)
    failures = []
    margins_censored = pairs_censored = risk_exhausted = 0

    def replicates(method, rows, z, eps, reps):
        """The NaN-padded distributions of ``method`` on ``rows``; a refused one stays NaN."""
        refs, thetas = np.full(len(rows), np.nan), np.full((len(rows), b), np.nan)
        sigmas2 = thetas.copy()
        for j, i in enumerate(rows):
            cfg = InferenceConfig(method=method, sided=sided, alpha=alpha, b=b,
                                  seed=(seed, reps[i]))
            try:
                dist = resample_distribution(Dataset(z=z[i], epsilon=eps[i], tau=tau), cfg)
            except InferenceRefused:
                continue
            m = len(dist.thetas)
            refs[j], thetas[j, :m], sigmas2[j, :m] = dist.theta_ref, dist.thetas, dist.sigmas2
        return refs, thetas, sigmas2

    step = max(1, _engine.BLOCK_CELLS // n)
    for start in range(0, r, step):
        reps = range(start, min(r, start + step))
        censored, z, eps, errors, theta, sigma2, exhausted = _estimate_block(scenario, seed, reps)
        for i in sorted(errors):
            failures.append((reps[i], type(errors[i]).__name__))
            if len(failures) > max(1, 0.01 * r):
                raise errors[i]
        prepared = np.ones(len(reps), dtype=bool)
        prepared[list(errors)] = False
        margins_censored += censored
        pairs_censored += int((eps[prepared] == 0).sum())
        risk_exhausted += int((prepared & exhausted).sum())
        ready = np.flatnonzero(prepared)
        for method in methods:
            size = len(reps) if method == "asymptotic" else max(1, _engine.BLOCK_CELLS // b)
            for rows in (ready[k:k + size] for k in range(0, len(ready), size)):
                block = None if method == "asymptotic" else replicates(method, rows, z, eps, reps)
                for t in transforms:
                    refusal, _, (*_, reject, _) = _decisions(theta[rows], sigma2[rows], n, t,
                                                             sided, alpha, block)
                    rejections[(method, t)] += int(reject.sum())
                    refused[(method, t)] += int((refusal >= 0).sum())
    return ExperimentResult(
        scenario=scenario,
        label=label,
        r=r,
        b=b,
        alpha=alpha,
        sided=sided,
        seed=seed,
        rejections=rejections,
        refused=refused,
        failures=tuple(failures),
        censoring_rate_margins=margins_censored / (2.0 * r * n),
        censoring_rate_pairs=pairs_censored / (r * n),
        risk_exhausted=risk_exhausted,
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
                seed=grid_seed(seed, idx),
                label=label,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Scenario parsing


_MARGINALS = {"exponential", "gompertz", "uniform", "mixture"}


def marginal_from_dict(d: dict, path: str):
    if not isinstance(d, dict) or "name" not in d:
        raise ScenarioError(path, "expected an object with a 'name' key")
    name = d["name"]
    try:
        if name == "exponential":
            return Exponential(rate=_number(path, d["rate"]))
        if name == "gompertz":
            return Gompertz(shape=_number(path, d["shape"]), rate=_number(path, d["rate"]))
        if name == "uniform":
            return Uniform(upper=_number(path, d["upper"]))
        if name == "mixture":
            return Mixture(
                weight=_number(path, d["weight"]),
                first=marginal_from_dict(d["first"], f"{path}.first"),
                second=marginal_from_dict(d["second"], f"{path}.second"),
            )
    except KeyError as exc:
        raise ScenarioError(f"{path}.{exc.args[0]}", "missing field") from None
    except InvalidParameter as exc:
        raise ScenarioError(path, str(exc)) from None
    raise ScenarioError(f"{path}.name", f"unknown marginal {name!r}; expected one of {sorted(_MARGINALS)}")


def _number(field: str, value) -> float:
    """A scenario field's value as a finite float; anything else, a bool too, is a ScenarioError."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ScenarioError(field, f"expected a finite number, got {value!r}")


def _integer(field: str, value) -> int:
    """A scenario field's value as an int; a non-integral number is a :class:`ScenarioError`."""
    if not _number(field, value).is_integer():
        raise ScenarioError(field, f"expected an integer, got {value!r}")
    return int(value) if isinstance(value, int) else int(float(value))


def scenario_from_dict(d: dict) -> Scenario:
    for key in ("copula", "copula_param", "marginal1", "marginal2", "censoring", "tau", "n"):
        if key not in d:
            raise ScenarioError(key, "missing field")
    cens = d["censoring"]
    if not isinstance(cens, dict) or cens.get("name", "uniform") != "uniform":
        raise ScenarioError("censoring.name", "censoring must be a uniform law")
    return Scenario(
        copula=d["copula"],
        copula_param=_number("copula_param", d["copula_param"]),
        marginal1=marginal_from_dict(d["marginal1"], "marginal1"),
        marginal2=marginal_from_dict(d["marginal2"], "marginal2"),
        censoring=marginal_from_dict(dict(cens, name="uniform"), "censoring"),
        tau=_number("tau", d["tau"]),
        n=_integer("n", d["n"]),
    )


def _names(field: str, value) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ScenarioError(field, f"expected a list of names, got {value!r}")
    return value


# The harness settings an experiment file may hold besides its scenarios, with their casts.
_SETTINGS = {"r": _integer, "b": _integer, "alpha": _number, "seed": _integer,
             "sided": lambda field, value: value, "label": lambda field, value: value,
             "methods": _names, "transforms": _names}


def settings_from_dict(d: dict) -> tuple[dict, dict]:
    """The harness settings of an experiment file's object ``d``, cast, and the rest of ``d``."""
    if not isinstance(d, dict):
        raise ScenarioError("scenario", f"expected a JSON object, got {type(d).__name__}")
    settings = {key: cast(key, d[key]) for key, cast in _SETTINGS.items() if key in d}
    return settings, {key: value for key, value in d.items() if key not in _SETTINGS}


def grid_from_dict(d: dict) -> list[tuple[str, Scenario]]:
    """The ``(label, Scenario)`` points of a power file's explicit ``grid`` or ``power_family``."""
    if "grid" in d:
        items = d["grid"]
        if not (isinstance(items, list) and items and all(isinstance(it, dict) for it in items)):
            raise ScenarioError("grid", "expected a nonempty list of scenario objects")
        grid = []
        for i, item in enumerate(items):
            try:
                grid.append((str(item.get("label", f"point{i}")), scenario_from_dict(item)))
            except ScenarioError as exc:
                raise ScenarioError(f"grid[{i}].{exc.field}", exc.reason) from None
        return grid
    if "power_family" in d:
        family = _integer("power_family", d["power_family"])
        copula = d.get("copula", "gumbel_hougaard")
        n = _integer("n", d.get("n", 50))
        values = d.get("values")
        if not isinstance(values, list) or not values:
            raise ScenarioError("values", "expected a nonempty list")
        return [(f"value={v}", power_scenario(family, copula, _number(f"values[{i}]", v), n))
                for i, v in enumerate(values)]
    raise ScenarioError("grid", "expected 'grid' or 'power_family'")


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
    """The margins of a null family; callers pass only the keys of ``_TAUS``."""
    if family == "exp_mix":
        return Exponential(2.0), Mixture(0.5, Exponential(3.0), Exponential(param))
    return Gompertz(0.6, param), Exponential(3.0)


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


def table1_scenario(copula: str, family: str, censoring: str, n: int) -> Scenario:
    """A calibrated null scenario of the size study, from the pinned parameters."""
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
    if family in (1, 2) and not 0.0 <= value <= 1.0:
        raise ScenarioError("value", f"family {family} needs a mixing weight in [0, 1]")
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
        # an unknown copula, a non-string one too, has no parameter, and
        # Scenario refuses it first
        copula_param=_COPULA_PARAMS.get(copula) if isinstance(copula, str) else None,
        marginal1=m1,
        marginal2=base,
        censoring=cens,
        tau=tau,
        n=n,
    )
