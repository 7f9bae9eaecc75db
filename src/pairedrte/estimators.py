"""The relative treatment effect estimate of the competing-risks sample.

The estimate is its counts: the tie-aware event counts and at-risk sizes on
the event-time grid go straight into the fused kernel
:func:`pairedrte._engine.theta_sigma2_cif_from_counts`, which returns the
Aalen-Johansen effect ``theta_hat = F2(tau) + F3(tau)/2`` and its
incidence-level variance plug-in in one pass. No curve is built on the way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _engine
from .errors import DegenerateRiskWarning
from .paired_data import Dataset

__all__ = ["RteEstimate", "estimate_rte"]


@dataclass(frozen=True)
class RteEstimate:
    """Point estimate of the relative treatment effect with its variance."""

    theta_hat: float
    sigma2_hat: float
    n: int
    tau: float

    @property
    def se(self) -> float:
        """Standard error of theta_hat: sqrt(sigma2_hat / n)."""
        return float(np.sqrt(self.sigma2_hat / self.n))


def _estimates_from_counts(at_risk, dn, n: int, tau: float, last_time):
    """``(theta, sigma2, exhausted)`` of samples of ``n`` records from their counts.

    ``at_risk`` (shape ``(..., k)``) and ``dn`` (shape ``(3, ..., k)``) are
    counts on a grid whose cells all have ``at_risk > 0``, so cells without
    events change nothing; ``last_time`` is each sample's largest time. The
    effect is clamped into [0, 1]: where all events are of type 2, or of types
    2 and 3, the counts can overshoot 1 by round-off. A variance plug-in of
    zero or below becomes 0, which inference refuses. ``exhausted`` marks risk
    sets that end strictly before ``tau`` while survival mass remains.
    """
    theta, sigma2 = _engine.theta_sigma2_cif_from_counts(at_risk, *dn, n)
    theta = np.minimum(np.maximum(theta, 0.0), 1.0)
    sigma2 = np.where(sigma2 <= 0, 0.0, sigma2)
    survival_last = np.prod(1.0 - dn.sum(axis=0) / at_risk, axis=-1)
    return theta, sigma2, (last_time < tau) & (survival_last > 0)


def estimate_rte(data: Dataset) -> RteEstimate:
    """Estimate the relative treatment effect at the sample's horizon.

    ``theta_hat = F2(tau) + F3(tau) / 2`` from the Aalen-Johansen estimators,
    evaluated on the counting processes alone. The attached variance is the
    incidence-level Greenwood plug-in of
    :func:`pairedrte._engine.theta_sigma2_cif_from_counts`, the package's one
    variance estimate. When the sample carries no variance information the
    estimate is still returned, with ``sigma2_hat = 0``, and inference refuses
    later. Flags, without failing, samples whose risk set
    is exhausted strictly before ``tau`` while survival mass remains.
    """
    _, at_risk, dn = _engine.event_grid(data.z, data.epsilon)
    # every event time is <= the largest record time, so the survival curve
    # there is its last product-limit value
    last_observed = float(np.max(data.z))
    theta, sigma2, exhausted = _estimates_from_counts(
        at_risk, dn, data.n, data.tau, last_observed
    )
    if exhausted:
        warnings.warn(
            "at-risk set exhausted before tau; the estimate is held at its value at "
            f"t={last_observed:g}",
            DegenerateRiskWarning,
            stacklevel=2,
        )
    return RteEstimate(theta_hat=float(theta), sigma2_hat=float(sigma2), n=data.n, tau=data.tau)
