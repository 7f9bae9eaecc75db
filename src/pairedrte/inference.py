"""Tests and confidence intervals for the relative treatment effect.

Three routes to critical values: the normal limit, bootstrap resampling of
competing-risks records, and within-pair treatment relabeling. All routes
studentize, so their critical values are quantile-comparable, and all support
an optional log-log transformation whose intervals stay inside (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from statistics import NormalDist
from typing import Iterable

import numpy as np

from . import _engine, _streams
from .errors import (
    DegenerateVariance,
    InsufficientReplicates,
    ThetaOutOfDomain,
    ValidationError,
)
from ._streams import is_integer, seed_words
from .estimators import RteEstimate, _estimates_from_counts, estimate_rte
from .paired_data import Dataset, _plain_ints

__all__ = [
    "InferenceConfig",
    "InferenceReport",
    "ResampleDistribution",
    "bootstrap_distribution",
    "randomization_distribution",
    "resample_distribution",
    "test_and_ci",
    "run_inference",
]

METHODS = ("asymptotic", "bootstrap", "randomization")
SIDES = ("right", "left", "two")
TRANSFORMS = ("linear", "loglog")

_NORMAL = NormalDist()

# Studentized statistics this close, relative to the larger of 1 and their
# size, are ties: far above the round-off of a statistic (about 1e-14), far
# below the gaps between the distinct statistics of a sample. P-values count
# such ties, and a critical value that ties the statistic does not reject.
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class InferenceConfig:
    """How to test: method, sidedness, level, transform, replication, seed.

    ``b`` and ``seed`` matter only to resampling but are checked for every method.
    """

    method: str
    sided: str = "two"
    alpha: float = 0.05
    transform: str = "linear"
    b: int = 2000
    seed: int | tuple = 0

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
        if not (is_integer(self.b) and self.b >= 1):
            raise ValidationError(f"b must be an integer at least 1, got {self.b!r}")
        seed_words(self.seed)
        object.__setattr__(self, "b", _plain_ints(self.b))
        object.__setattr__(self, "seed", _plain_ints(self.seed))


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
    are the studentized statistics on the linear scale. Replicates center on
    ``theta_ref``: the estimate for the bootstrap, one half for relabeling.
    """

    kind: str
    thetas: np.ndarray
    sigmas2: np.ndarray
    n: int
    theta_ref: float
    b_requested: int
    skipped: int

    @property
    def values(self) -> np.ndarray:
        return _studentize(self.thetas, self.theta_ref, np.sqrt(self.sigmas2 / self.n), "linear")


def _transform_funcs(transform: str):
    if transform == "linear":
        return (lambda t: t), (lambda t: np.ones_like(np.asarray(t, dtype=float))), (lambda y: y)
    # log(-log t): strictly decreasing on (0, 1), derivative 1 / (t log t) < 0.
    return (
        lambda t: np.log(-np.log(t)),
        lambda t: 1.0 / (t * np.log(t)),
        # exp(y) may overflow far out; exp(-inf) is then the inverse's limit, 0
        np.errstate(over="ignore")(lambda y: np.exp(-np.exp(y))),
    )


def _studentize(theta, ref: float, se, transform: str):
    """``(psi(theta) - psi(ref)) / (psi'(theta) se)`` on the transform's scale."""
    psi, dpsi, _ = _transform_funcs(transform)
    return (psi(theta) - psi(ref)) / (dpsi(theta) * se)


def _normal_pvalue(t_obs, sided: str):
    """Standard normal tail beyond each statistic; erfc keeps the far tail accurate."""
    x = {"right": t_obs, "left": -t_obs, "two": np.abs(t_obs)}[sided] / math.sqrt(2.0)
    tail = 0.5 * np.array([math.erfc(v) for v in x.tolist()])
    return 2.0 * tail if sided == "two" else tail


def _replicate_distribution(kind: str, kernel, width: int, n: int, theta_ref: float,
                            cfg: InferenceConfig) -> ResampleDistribution:
    """The ``cfg.b`` replicates of a ``(draw, evaluate)`` kernel, less those without variance.

    Each chunk of :func:`pairedrte._streams.chunks` is drawn and evaluated in
    row blocks of at most ``BLOCK_CELLS // width`` rows; ``width`` is the cells
    a draw spends per row. The count generators fill rows in order, so the
    blocking changes no value; it bounds the temporaries of the draws and of
    the kernel alike. Skipping more than 10 % of the replicates is a
    :class:`DegenerateVariance`.
    """
    (draw, evaluate), b = kernel, cfg.b
    step = max(1, _engine.BLOCK_CELLS // max(1, width))
    parts = []
    for rng, size in _streams.chunks(kind, cfg.seed, b):
        parts += [evaluate(*draw(rng, min(step, size - s))) for s in range(0, size, step)]
    thetas, sigmas2 = (np.concatenate(column) for column in zip(*parts))
    valid = sigmas2 > 0
    skipped = int((~valid).sum())
    if skipped > 0.1 * b:
        raise DegenerateVariance(f"{skipped} of {b} replicates had a degenerate variance estimate")
    return ResampleDistribution(kind, thetas[valid], sigmas2[valid], n, theta_ref, b, skipped)


def bootstrap_distribution(data: Dataset, cfg: InferenceConfig) -> ResampleDistribution:
    """Studentized bootstrap replicates: resample records with replacement.

    Each replicate recomputes the effect and its plug-in variance on the
    resampled records through the same fused kernel as the original
    estimate; :func:`pairedrte._engine.bootstrap_kernel` builds the sample's
    invariants once and draws the counts of each row block from them. Row
    blocks are sized by the draw, which spends one cell per record and row.
    Deterministic given ``cfg.seed``.
    """
    if data.n < 2:
        raise ValidationError("bootstrap needs at least two records")
    times, at_risk, dn = _engine.event_grid(data.z, data.epsilon)
    theta_hat = float(_estimates_from_counts(at_risk, dn, data.n, data.tau, data.z.max())[0])

    kernel = _engine.bootstrap_kernel(data.z, data.epsilon, times, data.n)
    return _replicate_distribution("bootstrap", kernel, data.n, data.n, theta_hat, cfg)


def randomization_distribution(data: Dataset, cfg: InferenceConfig) -> ResampleDistribution:
    """Studentized replicates under within-pair treatment relabeling.

    The relabeled samples share the original times, at-risk process, and
    type-3 events; each replicate's effect targets one half by construction,
    so the studentized statistics are centered there. Only the type-2 counts
    of a replicate are drawn, and :func:`pairedrte._engine.relabel_kernel`
    evaluates them against the invariants of the sample, built once.
    """
    times, at_risk, dn = _engine.event_grid(data.z, data.epsilon)
    kernel = _engine.relabel_kernel(at_risk, dn, data.n)
    return _replicate_distribution("randomization", kernel, len(times), data.n, 0.5, cfg)


def _tie_tolerance(t):
    """Distance within which a studentized statistic ties ``t``."""
    return _TIE_TOL * np.maximum(1.0, np.abs(t))


def _resample_pvalue(rows, counts, t_obs, sided: str):
    """``(1 + count) / (counts + 1)``, per row the replicates at least as extreme as ``t_obs``.

    ``rows`` hold each estimate's studentized replicates, padded with NaN,
    which compares false and so counts on no side. A replicate within
    :func:`_tie_tolerance` of ``t_obs`` counts as a tie: its statistic equals
    ``t_obs`` in exact arithmetic and differs only by the round-off of its
    own evaluation.
    """
    t, tol = t_obs[:, None], _tie_tolerance(t_obs)[:, None]
    if sided == "right":
        hits = rows >= t - tol
    elif sided == "left":
        hits = rows <= t + tol
    else:
        hits = np.abs(rows) >= np.abs(t) - tol
    return (1 + np.count_nonzero(hits, axis=-1)) / (counts + 1)


_REFUSALS = (ThetaOutOfDomain, DegenerateVariance, InsufficientReplicates)


def _decisions(theta, sigma2, n: int, transform: str, sided: str, alpha: float,
               replicates=None):
    """The tests of ``theta = 1/2`` of arrays of estimates from samples of size ``n``.

    ``replicates`` is ``None`` for the normal limit, else ``(refs, thetas,
    sigmas2)``: per estimate the ``theta_ref``, ``thetas`` and ``sigmas2`` of
    its :class:`ResampleDistribution`, the rows padded with NaN (all NaN for
    a refused distribution). Each row is studentized, log-log exclusions
    masked, and sorted once, the NaN last; its critical values are
    ``np.quantile`` of its usable replicates, one call per usable count.
    Interval endpoints invert the studentized statistic on the transform
    scale and are mapped back, so the decision and the interval are exact
    duals. A critical value that ties the statistic, as
    :func:`_resample_pvalue` counts ties, puts its endpoint on 1/2 exactly,
    where exact arithmetic puts it, so round-off cannot turn such a tie into
    a rejection.

    Returns ``(refusal, counts, decided)``. ``refusal`` indexes
    :data:`_REFUSALS`, or is -1 for a decided estimate, checked in order:
    log-log with ``theta`` outside (0, 1), a variance of zero or below, fewer
    than 20 usable replicates. ``counts`` holds each row's usable replicates
    (0 for the normal limit). ``decided`` is ``(statistic, critical,
    ci_lower, ci_upper, reject, rows)`` of the decided estimates, in order,
    ``critical`` a tuple of arrays and ``rows`` their sorted studentized
    replicates (``None`` for the normal limit). No p-value is computed here:
    :func:`test_and_ci` computes the one its report holds.
    """
    loglog = transform == "loglog"
    refusal = np.full(theta.shape, -1)  # checked last to first: the first failed check stays
    counts = np.zeros(theta.shape, dtype=int)
    if replicates is not None:
        refs, thetas, sigmas2 = replicates
        if loglog:
            thetas = np.where((thetas > 0.0) & (thetas < 1.0), thetas, np.nan)
        values = _studentize(thetas, refs[:, None], np.sqrt(sigmas2 / n), transform)
        counts = np.count_nonzero(~np.isnan(values), axis=-1)
        refusal[counts < 20] = 2
    refusal[sigma2 <= 0] = 1
    if loglog:
        refusal[~((theta > 0.0) & (theta < 1.0))] = 0
    decided = refusal < 0
    theta, se = theta[decided], np.sqrt(sigma2[decided] / n)
    q = {"right": (1.0 - alpha,), "left": (alpha,), "two": (alpha / 2.0, 1.0 - alpha / 2.0)}[sided]
    if replicates is None:
        rows, critical = None, tuple(np.full(se.shape, _NORMAL.inv_cdf(p)) for p in q)
    else:
        rows, used = np.sort(values[decided], axis=-1), counts[decided]
        critical = np.empty((len(q), len(rows)))
        for m in np.unique(used):  # the fancy index copies: the sorted rows stay
            sel = used == m
            critical[:, sel] = np.quantile(rows[sel, :m], q, axis=-1, overwrite_input=True)
        critical = tuple(critical)
    psi, dpsi, psi_inv = _transform_funcs(transform)
    t_obs = _studentize(theta, 0.5, se, transform)

    def endpoint(c):
        inverted = np.minimum(np.maximum(psi_inv(psi(theta) - dpsi(theta) * se * c), 0.0), 1.0)
        return np.where(np.abs(c - t_obs) <= _tie_tolerance(t_obs), 0.5, inverted)

    if sided == "right":
        ci_lower, ci_upper = endpoint(critical[0]), np.ones_like(t_obs)
    elif sided == "left":
        ci_lower, ci_upper = np.zeros_like(t_obs), endpoint(critical[0])
    else:
        lo, hi = endpoint(critical[1]), endpoint(critical[0])
        ci_lower, ci_upper = np.minimum(lo, hi), np.maximum(lo, hi)
    reject = np.logical_not((ci_lower <= 0.5) & (0.5 <= ci_upper))
    return refusal, counts, (t_obs, critical, ci_lower, ci_upper, reject, rows)


def test_and_ci(
    est: RteEstimate, dist: ResampleDistribution | None, cfg: InferenceConfig
) -> InferenceReport:
    """Test ``theta = 1/2`` and build the dual confidence interval.

    The one-row case of :func:`_decisions`: ``dist=None`` uses standard
    normal quantiles (the Wald route), otherwise the empirical quantiles of
    the studentized replicates, of which at least 20 must be usable. A
    refused estimate raises :class:`ThetaOutOfDomain` (log-log with
    ``theta_hat`` outside (0, 1)), :class:`DegenerateVariance` (a variance of
    zero) or :class:`InsufficientReplicates`. An estimate and replicates
    from samples of different sizes are a :class:`ValidationError`.
    """
    replicates = None
    if dist is not None:
        if dist.n != est.n:
            raise ValidationError(f"estimate of n={est.n} tested against replicates of n={dist.n}")
        replicates = np.array([dist.theta_ref]), dist.thetas[None], dist.sigmas2[None]
    refusal, counts, (t_obs, critical, ci_lower, ci_upper, reject, rows) = _decisions(
        np.array([est.theta_hat]), np.array([est.sigma2_hat]), est.n, cfg.transform,
        cfg.sided, cfg.alpha, replicates,
    )
    if refusal[0] >= 0:
        messages = (f"log-log transform needs theta_hat in (0, 1), got {est.theta_hat}",
                    "variance estimate is zero; too few events to studentize",
                    f"{counts[0]} usable replicates; need at least 20 for quantiles")
        raise _REFUSALS[refusal[0]](messages[refusal[0]])
    if dist is None:
        method, b_eff, seed, skipped = "asymptotic", None, None, 0
        p_value = _normal_pvalue(t_obs, cfg.sided)
    else:
        method, b_eff, seed = cfg.method, dist.b_requested, cfg.seed
        skipped = dist.skipped + len(dist.thetas) - int(counts[0])
        p_value = _resample_pvalue(rows, counts, t_obs, cfg.sided)

    return InferenceReport(
        method=method,
        transform=cfg.transform,
        sided=cfg.sided,
        alpha=cfg.alpha,
        n=est.n,
        tau=est.tau,
        theta_hat=est.theta_hat,
        sigma_hat=float(np.sqrt(est.sigma2_hat)),
        statistic=float(t_obs[0]),
        critical_values=tuple(float(c[0]) for c in critical),
        p_value=float(p_value[0]),
        ci_lower=float(ci_lower[0]),
        ci_upper=float(ci_upper[0]),
        reject=bool(reject[0]),
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


def _distinct(field: str, names: Iterable[str]) -> tuple:
    """``names`` as a tuple; none, or one named twice, is a :class:`ValidationError`."""
    names = tuple(names)
    if not names or len(set(names)) < len(names):
        raise ValidationError(f"{field} must be nonempty and distinct, got {list(names)}")
    return names


def run_inference(
    data: Dataset,
    methods: Iterable[str],
    transforms: Iterable[str],
    *,
    sided: str = "two",
    alpha: float = 0.05,
    b: int = 2000,
    seed: int = 0,
    est: RteEstimate | None = None,
) -> list[InferenceReport]:
    """Run every requested method/transform combination on one sample.

    Resampling distributions are generated once per method and shared across
    transforms, mirroring how a single analysis would be reported. Empty or
    repeated ``methods`` or ``transforms`` raise :class:`ValidationError`.
    """
    methods, transforms = _distinct("methods", methods), _distinct("transforms", transforms)
    est = estimate_rte(data) if est is None else est
    reports = []
    for method in methods:
        cfg = InferenceConfig(method=method, sided=sided, alpha=alpha, b=b, seed=seed)
        dist = resample_distribution(data, cfg)
        reports += [test_and_ci(est, dist, replace(cfg, transform=t)) for t in transforms]
    return reports
