"""Greenwood-type variance machinery for the relative treatment effect.

The cause-specific cumulative hazard estimators have Greenwood-type variance
and covariance curves built from the counting processes alone (the product
``S(u-) G(u-)`` is replaced by ``Y(u)/n``, which is an exact identity for the
product-limit estimators under the events-before-censorings tie ranking).
These curves combine into the plug-in estimate of the asymptotic variance of
``sqrt(n) (theta_hat - theta)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _engine
from .errors import DegenerateVariance
from .estimators import CountingProcesses, RteCurves, StepCurve

__all__ = [
    "VarianceCurves",
    "greenwood_curves",
    "sigma_theta_plugin",
    "sigma_theta_cif_plugin",
]

# Clamp threshold per unit of n: values in (-1e-12 * n, 0] are round-off.
CLAMP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class VarianceCurves:
    """Variance/covariance curves of the cause-specific hazard estimators.

    ``sigma2[j]`` estimates the variance function of cause ``j``'s estimator,
    ``sigma_cross[(j, l)]`` the (nonpositive, nonincreasing) covariance for
    ``j != l``, ``sigma2_all`` the all-cause variance function, and ``a_all``
    the all-cause cumulative hazard whose increments enter the plug-in sums.
    """

    sigma2: dict[int, StepCurve]
    sigma_cross: dict[tuple[int, int], StepCurve]
    sigma2_all: StepCurve
    a_all: StepCurve
    cp: CountingProcesses = field(repr=False)


def greenwood_curves(cp: CountingProcesses) -> VarianceCurves:
    """Greenwood-type plug-in variance and covariance curves.

    Increments: ``n dN_j (Y - dN_j) / Y^3`` for the variances and
    ``-n dN_j dN_l / Y^3`` for the covariances; the covariances vanish on
    tie-free data since they need two event types at the same time.
    """
    y = cp.at_risk
    times = cp.event_times

    def curve(increments):
        return StepCurve(times=times, values=np.cumsum(increments), initial=0.0)

    var, cov, var_all = _engine.greenwood_increments(y, *cp.dn, cp.n)
    sigma2 = {j: curve(var[j - 1]) for j in (1, 2, 3)}
    sigma_cross = {pair: curve(c) for pair, c in zip(((1, 2), (1, 3), (2, 3)), cov)}
    sigma2_all = curve(var_all)
    a_all = curve(cp.dn_total / y)
    return VarianceCurves(
        sigma2=sigma2, sigma_cross=sigma_cross, sigma2_all=sigma2_all, a_all=a_all, cp=cp
    )


def sigma_theta_plugin(curves: RteCurves, variance_curves: VarianceCurves, tau: float) -> float:
    """Plug-in estimate of the asymptotic variance of the effect estimator.

    Discretizes the double time integral of the asymptotic variance over the
    event grid up to ``tau``; inner accumulations scaled by ``1/(1 - dA.)``
    use an exclusive upper limit at ``min(u, v)``, the remaining combination
    an inclusive one. Negative round-off is clamped to zero; a value that is
    negative beyond round-off, or a grid without any event, signals that
    there is nothing to studentize.
    """
    cp = variance_curves.cp
    if curves.cp is not cp and not np.array_equal(curves.cp.event_times, cp.event_times):
        raise ValueError("estimator and variance curves come from different datasets")
    y, dn = _counts_to_tau(cp, tau)
    if np.any(1.0 - dn.sum(axis=0) / y <= 0) and len(y) < len(cp.event_times):
        # Unreachable for real samples (a saturated risk set ends the grid),
        # kept as a guard for hand-built counting processes.
        warnings.warn("all-cause hazard increment of 1 before the last event time; "
                      "the affected increments are skipped", stacklevel=2)
    value = float(_engine.sigma2_from_counts(y, dn[0], dn[1], dn[2], cp.n))
    return _clamp_policy(value, cp.n)


def sigma_theta_cif_plugin(cp: CountingProcesses, tau: float) -> float:
    """Plug-in variance from the incidence-estimator covariance recursion.

    Same asymptotic target as :func:`sigma_theta_plugin`, but discretized at
    the level of the cumulative-incidence estimators rather than the
    cause-specific hazards. In finite samples this version agrees with the
    classical Greenwood-type recursion of reference survival tooling (for
    fully observed data it collapses to the exact multinomial variance), so
    it is the estimator the inference layer studentizes with.
    """
    y, dn = _counts_to_tau(cp, tau)
    value = float(_engine.sigma2_cif_from_counts(y, dn[0], dn[1], dn[2], cp.n))
    return _clamp_policy(value, cp.n)


def _counts_to_tau(cp: CountingProcesses, tau: float):
    keep = int(np.searchsorted(cp.event_times, tau, side="right"))
    if keep == 0:
        raise DegenerateVariance("no events at or before tau")
    return cp.at_risk[:keep], cp.dn[:, :keep]


def _clamp_policy(value: float, n: int) -> float:
    if value <= 0:
        if value < -CLAMP_TOLERANCE * n:
            raise DegenerateVariance(
                f"variance estimate {value} is negative beyond round-off"
            )
        return 0.0
    return value
