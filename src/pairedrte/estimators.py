"""Nonparametric estimators on the competing-risks sample.

The chain runs: counting/at-risk processes -> cause-specific Nelson-Aalen
cumulative hazards -> product-limit survival (event and censoring versions)
-> Aalen-Johansen cumulative incidence -> the relative treatment effect
``theta_hat = F2(tau) + F3(tau)/2``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from . import _engine
from .errors import DegenerateRiskWarning, DegenerateVariance, EmptyDataset, NotFullyObserved
from .paired_data import Dataset, PairedObservation, PairedSample

__all__ = [
    "StepCurve",
    "CountingProcesses",
    "RteCurves",
    "RteEstimate",
    "counting_processes",
    "nelson_aalen",
    "kaplan_meier_event",
    "kaplan_meier_censoring",
    "aalen_johansen",
    "estimate_rte",
    "mann_whitney_fully_observed",
    "ipcw_identity_check",
    "ipcw_form",
]


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous piecewise-constant function.

    ``values[i]`` is the value on ``[times[i], times[i+1])``; ``initial`` is
    the value on ``[0, times[0])``. Evaluation uses binary search, so curves
    are stored sparsely at their jump times only.
    """

    times: np.ndarray
    values: np.ndarray
    initial: float = 0.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be aligned one-dimensional arrays")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("jump times must be strictly increasing")

    def at(self, t):
        """Value at time ``t`` (right-continuous)."""
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self._pick(idx)

    def at_left(self, t):
        """Left limit at time ``t``."""
        idx = np.searchsorted(self.times, t, side="left") - 1
        return self._pick(idx)

    def _pick(self, idx):
        idx = np.asarray(idx)
        padded = np.concatenate(([self.initial], self.values))
        out = padded[idx + 1]
        return float(out) if out.ndim == 0 else out

    def __call__(self, t):
        return self.at(t)

    def to_text(self) -> str:
        """Two-column time/value listing for plotting, including the origin."""
        lines = [f"{0.0:.17g}\t{self.initial:.17g}"]
        lines += [f"{t:.17g}\t{v:.17g}" for t, v in zip(self.times, self.values)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CountingProcesses:
    """Tie-aware event counts and at-risk sizes on the event-time grid."""

    event_times: np.ndarray
    at_risk: np.ndarray
    dn: np.ndarray  # shape (3, k): causes 1, 2, 3
    n: int

    def dn_cause(self, cause: int) -> np.ndarray:
        if cause not in (1, 2, 3):
            raise ValueError(f"cause must be 1, 2, or 3, got {cause}")
        return self.dn[cause - 1]

    @property
    def dn_total(self) -> np.ndarray:
        return self.dn.sum(axis=0)


@dataclass(frozen=True)
class RteCurves:
    """All step curves backing a relative treatment effect estimate."""

    survival: StepCurve
    censoring_survival: StepCurve
    cif: tuple[StepCurve, StepCurve, StepCurve]
    hazard: tuple[StepCurve, StepCurve, StepCurve]
    cp: CountingProcesses = field(repr=False)


@dataclass(frozen=True)
class RteEstimate:
    """Point estimate of the relative treatment effect with its variance.

    The step curves behind the estimate are built from ``data`` on first
    access to :attr:`curves`; the estimate itself needs only the counts.
    """

    theta_hat: float
    sigma2_hat: float
    n: int
    tau: float
    data: Dataset = field(compare=False, repr=False)

    @property
    def se(self) -> float:
        """Standard error of theta_hat: sqrt(sigma2_hat / n)."""
        return float(np.sqrt(self.sigma2_hat / self.n))

    @cached_property
    def curves(self) -> RteCurves:
        """Step curves behind the estimate, built from ``data`` on first access."""
        cp = counting_processes(self.data)
        return RteCurves(
            survival=kaplan_meier_event(cp),
            censoring_survival=kaplan_meier_censoring(self.data),
            cif=tuple(aalen_johansen(cp, j) for j in (1, 2, 3)),
            hazard=tuple(nelson_aalen(cp, j) for j in (1, 2, 3)),
            cp=cp,
        )


def counting_processes(data: Dataset) -> CountingProcesses:
    """Exact tie-aware counting and at-risk processes of the sample."""
    if data.n == 0:
        raise EmptyDataset("counting processes need at least one record")
    times, at_risk, dn = _engine.event_grid(data.z, data.epsilon)
    return CountingProcesses(event_times=times, at_risk=at_risk, dn=dn, n=data.n)


def nelson_aalen(cp: CountingProcesses, cause: int) -> StepCurve:
    """Cause-specific Nelson-Aalen cumulative hazard ``sum dN_j(u) / Y(u)``."""
    increments = cp.dn_cause(cause) / cp.at_risk
    return StepCurve(times=cp.event_times, values=np.cumsum(increments), initial=0.0)


def _survival_values(cp: CountingProcesses) -> np.ndarray:
    return np.cumprod(1.0 - cp.dn_total / cp.at_risk)


def kaplan_meier_event(cp: CountingProcesses) -> StepCurve:
    """Product-limit estimator of the pair-minimum survival function."""
    return StepCurve(times=cp.event_times, values=_survival_values(cp), initial=1.0)


def kaplan_meier_censoring(data: Dataset) -> StepCurve:
    """Product-limit estimator of the censoring survival function.

    Roles are reversed: censorings (``epsilon == 0``) are the events. At tied
    times the true events are ranked first, so the censoring risk set at ``u``
    excludes records with an observed event at ``u``.
    """
    if data.n == 0:
        raise EmptyDataset("censoring estimator needs at least one record")
    z_cens = data.z[data.epsilon == 0]
    times = np.unique(z_cens)
    dn0 = np.bincount(np.searchsorted(times, z_cens), minlength=len(times))
    # records beyond u plus those censored at u; dn0 >= 1 keeps it positive
    risk = data.n - np.searchsorted(np.sort(data.z), times, side="right") + dn0
    return StepCurve(times=times, values=np.cumprod(1.0 - dn0 / risk), initial=1.0)


def aalen_johansen(cp: CountingProcesses, cause: int) -> StepCurve:
    """Aalen-Johansen cumulative incidence ``sum S(u-) dN_j(u) / Y(u)``."""
    dn = cp.dn_cause(cause)
    dA_dot = cp.dn_total / cp.at_risk
    s_left = _engine.survival_left(dA_dot)
    increments = s_left * dn / cp.at_risk
    return StepCurve(times=cp.event_times, values=np.cumsum(increments), initial=0.0)


def estimate_rte(data: Dataset) -> RteEstimate:
    """Estimate the relative treatment effect at the sample's horizon.

    ``theta_hat = F2(tau) + F3(tau) / 2`` from the Aalen-Johansen estimators,
    evaluated on the counting processes alone. The attached variance is the
    incidence-level Greenwood plug-in (see
    :func:`pairedrte.variance.sigma_theta_cif_plugin`; the hazard-level
    expansion is available separately). When the sample carries no variance
    information the estimate is still returned, with ``sigma2_hat = 0``, and
    inference refuses later. Flags, without failing, samples whose risk set
    is exhausted strictly before ``tau`` while survival mass remains.
    """
    if data.n == 0:
        raise EmptyDataset("estimation needs at least one record")
    cp = counting_processes(data)
    theta = float(_engine.theta_from_counts(cp.at_risk, *cp.dn))
    theta = min(max(theta, 0.0), 1.0)

    # every event time is <= the largest record time, so the survival curve
    # there is its last product-limit value
    last_observed = float(np.max(data.z))
    survival_last = _survival_values(cp)[-1] if len(cp.event_times) else 1.0
    if last_observed < data.tau and survival_last > 0:
        warnings.warn(
            "at-risk set exhausted before tau; curves are flat beyond "
            f"t={last_observed:g}",
            DegenerateRiskWarning,
            stacklevel=2,
        )

    from .variance import sigma_theta_cif_plugin

    try:
        sigma2 = sigma_theta_cif_plugin(cp, data.tau)
    except DegenerateVariance:
        sigma2 = 0.0
    return RteEstimate(theta_hat=theta, sigma2_hat=sigma2, n=data.n, tau=data.tau, data=data)


def mann_whitney_fully_observed(data: PairedSample | Iterable[PairedObservation]) -> float:
    """Cross-pair comparison estimate for fully observed samples.

    Averages ``1{x1_i > x2_k} + 1{x1_i = x2_k}/2`` over all n^2 ordered
    combinations, the Mann-Whitney statistic on the two margins. Defined only
    when every margin is an observed event.
    """
    sample = PairedSample.of(data)
    if np.any(sample.delta == 0):
        raise NotFullyObserved("cross-pair comparison requires fully observed data")
    if len(sample) == 0:
        raise EmptyDataset("no observations")
    diff = sample.x[:, 0, None] - sample.x[None, :, 1]
    wins = (diff > 0).sum() + 0.5 * (diff == 0).sum()
    return float(wins) / len(sample) ** 2


def ipcw_identity_check(data: Dataset) -> tuple[float, float]:
    """Both sides of the identity ``1 - 2 theta_hat = F1(tau) - F2(tau)``.

    Returns ``(lhs, rhs)`` with the right side computed from the
    Aalen-Johansen curves. The inverse-probability-of-censoring-weighted form
    ``sum (dN1(u) - dN2(u)) / (n * G(u-))`` coincides with ``rhs`` exactly
    under the events-before-censorings tie ranking; equality of ``lhs`` and
    ``rhs`` additionally requires the survival estimate to vanish at ``tau``
    (their gap equals ``S_hat(tau)`` exactly).
    """
    est = estimate_rte(data)
    f1 = est.curves.cif[0].at(data.tau)
    f2 = est.curves.cif[1].at(data.tau)
    lhs = 1.0 - 2.0 * est.theta_hat
    rhs = float(f1 - f2)
    return lhs, rhs


def ipcw_form(data: Dataset) -> float:
    """IPCW evaluation of ``F1(tau) - F2(tau)``: increments weighted by 1/G(u-)."""
    cp = counting_processes(data)
    g_curve = kaplan_meier_censoring(data)
    g_left = np.asarray(g_curve.at_left(cp.event_times), dtype=float)
    diff = cp.dn_cause(1) - cp.dn_cause(2)
    ok = g_left > 0
    return float(np.sum(diff[ok] / (cp.n * g_left[ok])))
