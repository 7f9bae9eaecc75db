"""Tests and confidence intervals for the relative treatment effect.

Three routes to critical values: the normal limit, bootstrap resampling of
competing-risks records, and within-pair treatment relabeling. All routes
studentize by default, so their critical values are quantile-comparable, and
all support an optional log-log transformation whose intervals stay inside
(0, 1).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from statistics import NormalDist
from typing import Iterable

import numpy as np

from . import _engine
from .errors import (
    DegenerateVariance,
    InsufficientReplicates,
    ThetaOutOfDomain,
    ValidationError,
)
from .estimators import RteEstimate, counting_processes, estimate_rte
from .paired_data import Dataset

__all__ = [
    "InferenceConfig",
    "InferenceReport",
    "ResampleDistribution",
    "asymptotic_test",
    "bootstrap_distribution",
    "randomize_labels",
    "randomization_distribution",
    "resample_distribution",
    "test_and_ci",
    "run_inference",
]

METHODS = ("asymptotic", "bootstrap", "randomization")
SIDES = ("right", "left", "two")
TRANSFORMS = ("linear", "loglog")

# Replicates are generated in fixed-size chunks with chunk-derived RNG
# streams, so results do not depend on the worker count.
_CHUNK = 512

_NORMAL = NormalDist()


def _seed_entropy(seed) -> list[int]:
    """Flatten an int or tuple-of-ints seed into RNG entropy words."""
    if isinstance(seed, (tuple, list)):
        return [int(s) for s in seed]
    return [int(seed)]


@dataclass(frozen=True)
class InferenceConfig:
    """How to test: method, sidedness, level, transform, replication, seed.

    ``studentize=False`` switches the bootstrap to the plain normalized
    replicates ``sqrt(n) (theta* - theta_hat)``; the default studentizes so
    critical values are quantile-comparable across all three methods.
    """

    method: str
    sided: str = "two"
    alpha: float = 0.05
    transform: str = "linear"
    b: int = 2000
    seed: int | tuple = 0
    workers: int = 1
    studentize: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.sided not in SIDES:
            raise ValidationError(f"sided must be one of {SIDES}, got {self.sided!r}")
        if self.transform not in TRANSFORMS:
            raise ValidationError(
                f"transform must be one of {TRANSFORMS}, got {self.transform!r}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.method != "asymptotic" and self.b < 1:
            raise ValidationError("resampling methods need b >= 1")
        if not self.studentize and (self.method != "bootstrap" or self.transform != "linear"):
            raise ValidationError(
                "the unstudentized variant exists only for the linear bootstrap"
            )


@dataclass(frozen=True)
class InferenceReport:
    """Outcome of one test: statistic, critical values, p-value, interval."""

    method: str
    transform: str
    sided: str
    alpha: float
    n: int
    tau: float
    theta_hat: float
    sigma_hat: float
    statistic: float
    critical_values: tuple
    p_value: float
    ci_lower: float
    ci_upper: float
    reject: bool
    b: int | None = None
    seed: int | None = None
    skipped: int = 0

    def to_dict(self) -> dict:
        """The fields in declaration order; ``b``, ``seed``, ``skipped`` only when resampled."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["critical_values"] = list(self.critical_values)
        if self.b is None:
            for key in ("b", "seed", "skipped"):
                del out[key]
        return out


@dataclass(frozen=True)
class ResampleDistribution:
    """Replicate estimates and studentized statistics from one resampling run.

    ``thetas``/``sigmas2`` hold the replicates whose variance estimate was
    positive; degenerate replicates are counted in ``skipped``. ``values``
    are the studentized statistics on the linear scale; ``statistics`` also
    provides the log-log-transformed version. For bootstrap runs ``wstar``
    retains the unstudentized ``sqrt(n) (theta* - theta_hat)`` diagnostics.
    """

    kind: str
    thetas: np.ndarray
    sigmas2: np.ndarray
    n: int
    theta_ref: float
    b_requested: int
    skipped: int
    seed: int
    wstar: np.ndarray | None = field(default=None, repr=False)

    @property
    def values(self) -> np.ndarray:
        vals, _ = self.statistics("linear")
        return vals

    def statistics(self, transform: str) -> tuple[np.ndarray, int]:
        """Studentized replicate statistics and the count excluded for the transform."""
        psi, dpsi, _ = _transform_funcs(transform)
        se = np.sqrt(self.sigmas2 / self.n)
        if transform == "linear":
            return (self.thetas - self.theta_ref) / se, 0
        usable = (self.thetas > 0.0) & (self.thetas < 1.0)
        th = self.thetas[usable]
        vals = (psi(th) - psi(self.theta_ref)) / (dpsi(th) * se[usable])
        return vals, int((~usable).sum())


def _transform_funcs(transform: str):
    if transform == "linear":
        return (lambda t: t), (lambda t: np.ones_like(np.asarray(t, dtype=float))), (lambda y: y)
    # log(-log t): strictly decreasing on (0, 1), derivative 1 / (t log t) < 0.
    return (
        lambda t: np.log(-np.log(t)),
        lambda t: 1.0 / (t * np.log(t)),
        lambda y: np.exp(-np.exp(y)),
    )


def _normal_sf(x: float) -> float:
    """Standard normal upper tail; erfc keeps the far tail accurate."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _normal_pvalue(t_obs: float, sided: str) -> float:
    if sided == "right":
        return _normal_sf(t_obs)
    if sided == "left":
        return _normal_sf(-t_obs)
    return 2.0 * _normal_sf(abs(t_obs))


def asymptotic_test(est: RteEstimate, cfg: InferenceConfig) -> InferenceReport:
    """Wald test and interval from the normal limit of the studentized estimator."""
    return test_and_ci(est, None, cfg)


def _collect_replicates(make_counts, b: int, workers: int, n: int):
    """Effect and variance replicates from the counts ``make_counts(chunk, size)`` returns."""

    def chunk(job):
        y, dn1, dn2, dn3 = make_counts(*job)
        return (
            _engine.theta_from_counts(y, dn1, dn2, dn3),
            _engine.sigma2_cif_from_counts(y, dn1, dn2, dn3, n),
        )

    jobs = [(c, min(_CHUNK, b - start)) for c, start in enumerate(range(0, b, _CHUNK))]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk, jobs))
    else:
        parts = [chunk(job) for job in jobs]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _finalize_distribution(kind, thetas, sigmas2, n, theta_ref, b, seed, wstar=None):
    valid = sigmas2 > 0
    skipped = int((~valid).sum())
    if skipped > 0.1 * b:
        raise DegenerateVariance(
            f"{skipped} of {b} replicates had a degenerate variance estimate"
        )
    return ResampleDistribution(
        kind=kind,
        thetas=thetas[valid],
        sigmas2=sigmas2[valid],
        n=n,
        theta_ref=theta_ref,
        b_requested=b,
        skipped=skipped,
        seed=seed,
        wstar=wstar,
    )


def bootstrap_distribution(data: Dataset, cfg: InferenceConfig) -> ResampleDistribution:
    """Studentized bootstrap replicates: resample records with replacement.

    Each replicate recomputes the effect and its plug-in variance on the
    resampled records through the same counting-process kernels as the
    original estimate. Deterministic given ``cfg.seed``.
    """
    if data.n < 2:
        raise ValidationError("bootstrap needs at least two records")
    cp = counting_processes(data)
    theta_hat = float(_engine.theta_from_counts(cp.at_risk, *cp.dn))

    def make_counts(c, size):
        rng = np.random.default_rng([*_seed_entropy(cfg.seed), 7, c])
        return _engine.bootstrap_counts(data.z, data.epsilon, cp.event_times, rng, size)

    thetas, sigmas2 = _collect_replicates(make_counts, cfg.b, cfg.workers, data.n)
    wstar = np.sqrt(data.n) * (thetas - theta_hat)
    return _finalize_distribution(
        "bootstrap", thetas, sigmas2, data.n, theta_hat, cfg.b, cfg.seed, wstar
    )


def randomize_labels(data: Dataset, seed: int) -> Dataset:
    """One within-pair relabeling: each type-1/2 record flips to 1 or 2 fairly.

    Times and type-0/3 records are untouched. Deterministic given ``seed``.
    """
    rng = np.random.default_rng(seed)
    eps = data.epsilon.copy()
    flip = (eps == 1) | (eps == 2)
    coins = rng.random(int(flip.sum())) < 0.5
    eps[flip] = np.where(coins, 1, 2)
    return Dataset(z=data.z.copy(), epsilon=eps, tau=data.tau)


def randomization_distribution(data: Dataset, cfg: InferenceConfig) -> ResampleDistribution:
    """Studentized replicates under within-pair treatment relabeling.

    The relabeled samples share the original times, at-risk process, and
    type-3 events; each replicate's effect targets one half by construction,
    so the studentized statistics are centered there. Estimates and variances
    are recomputed per replicate through the shared kernels.
    """
    cp = counting_processes(data)

    def make_counts(c, size):
        rng = np.random.default_rng([*_seed_entropy(cfg.seed), 13, c])
        dn1, dn2, dn3 = _engine.relabel_counts(cp.dn, rng, size)
        return np.broadcast_to(cp.at_risk, dn1.shape), dn1, dn2, dn3

    thetas, sigmas2 = _collect_replicates(make_counts, cfg.b, cfg.workers, data.n)
    return _finalize_distribution(
        "randomization", thetas, sigmas2, data.n, 0.5, cfg.b, cfg.seed
    )


def _resample_pvalue(values: np.ndarray, t_obs: float, sided: str) -> float:
    b = len(values)
    if sided == "right":
        count = int((values >= t_obs).sum())
    elif sided == "left":
        count = int((values <= t_obs).sum())
    else:
        count = int((np.abs(values) >= abs(t_obs)).sum())
    return (1 + count) / (b + 1)


def test_and_ci(
    est: RteEstimate, dist: ResampleDistribution | None, cfg: InferenceConfig
) -> InferenceReport:
    """Test ``theta = 1/2`` and build the dual confidence interval.

    ``dist=None`` uses standard normal quantiles (the Wald route); otherwise
    the empirical quantiles of the studentized replicates (linear
    interpolation between order statistics). Interval endpoints invert the
    studentized statistic on the transform scale and are mapped back, so the
    rejection decision and the interval are exact duals by construction.
    ``cfg.studentize=False`` is the linear case with ``se = 1/sqrt(n)``
    against the bootstrap's ``W* = sqrt(n)(theta* - theta_hat)``.
    """
    psi, dpsi, psi_inv = _transform_funcs(cfg.transform)
    if cfg.studentize:
        if cfg.transform == "loglog" and not 0.0 < est.theta_hat < 1.0:
            raise ThetaOutOfDomain(
                f"log-log transform needs theta_hat in (0, 1), got {est.theta_hat}"
            )
        if est.sigma2_hat <= 0:
            raise DegenerateVariance(
                "variance estimate is zero; too few events to studentize"
            )
        se = est.se
    else:
        if dist is None or dist.wstar is None:
            raise ValidationError("unstudentized inference needs a bootstrap distribution")
        se = 1.0 / math.sqrt(est.n)
    t_obs = float((psi(est.theta_hat) - psi(0.5)) / (dpsi(est.theta_hat) * se))
    alpha = cfg.alpha

    if dist is None:
        method, b_eff, seed, skipped = "asymptotic", None, None, 0
        quantile = _NORMAL.inv_cdf
        p_value = _normal_pvalue(t_obs, cfg.sided)
    else:
        if cfg.studentize:
            values, excluded = dist.statistics(cfg.transform)
            method, skipped = cfg.method, dist.skipped + excluded
        else:
            values, method, skipped = dist.wstar, "bootstrap-unstudentized", 0
        if len(values) < 20:
            raise InsufficientReplicates(
                f"{len(values)} usable replicates; need at least 20 for quantiles"
            )
        b_eff, seed = dist.b_requested, cfg.seed

        def quantile(q):
            return float(np.quantile(values, q))

        p_value = _resample_pvalue(values, t_obs, cfg.sided)

    def endpoint(c):
        raw = psi_inv(psi(est.theta_hat) - dpsi(est.theta_hat) * se * c)
        return float(min(max(raw, 0.0), 1.0))

    if cfg.sided == "right":
        c_hi = quantile(1.0 - alpha)
        ci_lower, ci_upper = endpoint(c_hi), 1.0
        critical = (c_hi,)
    elif cfg.sided == "left":
        c_lo = quantile(alpha)
        ci_lower, ci_upper = 0.0, endpoint(c_lo)
        critical = (c_lo,)
    else:
        c_lo, c_hi = quantile(alpha / 2.0), quantile(1.0 - alpha / 2.0)
        lo, hi = endpoint(c_hi), endpoint(c_lo)
        ci_lower, ci_upper = min(lo, hi), max(lo, hi)
        critical = (c_lo, c_hi)

    return InferenceReport(
        method=method,
        transform=cfg.transform,
        sided=cfg.sided,
        alpha=alpha,
        n=est.n,
        tau=est.tau,
        theta_hat=est.theta_hat,
        sigma_hat=float(np.sqrt(est.sigma2_hat)),
        statistic=t_obs,
        critical_values=critical,
        p_value=p_value,
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        reject=not (ci_lower <= 0.5 <= ci_upper),
        b=b_eff,
        seed=seed,
        skipped=skipped,
    )


def resample_distribution(data: Dataset, cfg: InferenceConfig) -> ResampleDistribution | None:
    """The replicate distribution ``cfg.method`` tests against; ``None`` for the normal limit."""
    if cfg.method == "asymptotic":
        return None
    if cfg.method == "bootstrap":
        return bootstrap_distribution(data, cfg)
    return randomization_distribution(data, cfg)


def run_inference(
    data: Dataset,
    methods: Iterable[str],
    transforms: Iterable[str],
    *,
    sided: str = "two",
    alpha: float = 0.05,
    b: int = 2000,
    seed: int = 0,
    workers: int = 1,
    est: RteEstimate | None = None,
) -> list[InferenceReport]:
    """Run every requested method/transform combination on one sample.

    Resampling distributions are generated once per method and shared across
    transforms, mirroring how a single analysis would be reported.
    """
    if est is None:
        est = estimate_rte(data)
    reports = []
    for method in methods:
        cfg = InferenceConfig(
            method=method, sided=sided, alpha=alpha, b=b, seed=seed, workers=workers
        )
        dist = resample_distribution(data, cfg)
        for transform in transforms:
            reports.append(test_and_ci(est, dist, replace(cfg, transform=transform)))
    return reports
