"""Array kernels shared by the estimator, variance, and resampling code paths.

All kernels operate on counting-process arrays over the event-time grid:
``Y`` (at-risk counts) and ``dN1, dN2, dN3`` (cause-specific event counts),
each of shape ``(..., k)`` where leading axes enumerate resampling replicates.
A cell with ``Y == 0`` must also have ``dN == 0``; such cells contribute
nothing (they occur in bootstrap replicates that miss late records).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "event_grid",
    "survival_left",
    "greenwood_increments",
    "theta_from_counts",
    "sigma2_from_counts",
    "sigma2_cif_from_counts",
    "bootstrap_counts",
    "relabel_counts",
]


def event_grid(z: np.ndarray, eps: np.ndarray):
    """Sorted unique event times with at-risk and cause-specific counts.

    Returns ``(times, Y, dN)`` where ``dN`` has shape ``(3, k)`` for causes
    1, 2, 3. ``Y(u)`` counts records with ``z >= u``.
    """
    z = np.asarray(z, dtype=float)
    eps = np.asarray(eps)
    times = np.unique(z[eps > 0])
    k = len(times)
    at_risk = len(z) - np.searchsorted(np.sort(z), times, side="left")
    events = eps > 0
    cells = (eps[events].astype(np.int64) - 1) * k + np.searchsorted(times, z[events])
    dN = np.bincount(cells, minlength=3 * k).reshape(3, k).astype(float)
    return times, at_risk.astype(float), dN


def survival_left(dA_dot: np.ndarray) -> np.ndarray:
    """Left limits S(u-) of the product-limit estimator along the last axis."""
    one_minus = 1.0 - dA_dot
    s_left = np.ones_like(one_minus)
    if one_minus.shape[-1] > 1:
        s_left[..., 1:] = np.cumprod(one_minus[..., :-1], axis=-1)
    return s_left


def _hazard_increments(Y, dN1, dN2, dN3):
    safe_y = np.where(Y > 0, Y, 1.0)
    dA1 = dN1 / safe_y
    dA2 = dN2 / safe_y
    dA3 = dN3 / safe_y
    return dA1, dA2, dA3, dA1 + dA2 + dA3


def greenwood_increments(Y, dN1, dN2, dN3, n: int):
    """Greenwood-type variance and covariance increments of the hazard estimators.

    Returns ``(var, cov, var_all)``: ``var`` holds ``n dN_j (Y - dN_j) / Y^3``
    for causes 1, 2, 3, ``cov`` holds ``-n dN_j dN_l / Y^3`` for the cause
    pairs (1, 2), (1, 3), (2, 3), and ``var_all`` is the all-cause variance
    increment. Cells with ``Y == 0`` contribute zero.
    """
    Y = np.asarray(Y, dtype=float)
    inv3 = np.where(Y > 0, n / np.where(Y > 0, Y, 1.0) ** 3, 0.0)
    dN = (dN1, dN2, dN3)
    var = tuple(d * (Y - d) * inv3 for d in dN)
    cov = tuple(-dN[j] * dN[l] * inv3 for j, l in ((0, 1), (0, 2), (1, 2)))
    dN_dot = dN1 + dN2 + dN3
    return var, cov, dN_dot * (Y - dN_dot) * inv3


def theta_from_counts(Y, dN1, dN2, dN3) -> np.ndarray:
    """Relative treatment effect estimate from counting-process arrays."""
    _, dA2, dA3, dA_dot = _hazard_increments(Y, dN1, dN2, dN3)
    s_left = survival_left(dA_dot)
    return np.sum(s_left * (dA2 + 0.5 * dA3), axis=-1)


def sigma2_from_counts(Y, dN1, dN2, dN3, n: int) -> np.ndarray:
    """Plug-in estimate of the asymptotic variance of sqrt(n) * (theta_hat - theta).

    Evaluates the double sum over event times ``u, v`` of
    ``S(u-) S(v-) [ I1(min(u,v)-) dB(u) dB(v)
                    - 2 I2(min(u,v)-) dB(u) dA.(v)
                    + K(min(u,v)) dA.(u) dA.(v) ]``
    where ``dB = dA2 + dA3/2``, ``dA.`` is the all-cause hazard increment,
    ``I1``/``I2`` accumulate the Greenwood-type variance/covariance increments
    scaled by 1/(1 - dA.) with an exclusive upper limit, and ``K`` is the
    cumulative variance combination for the targeted causes (inclusive limit).
    The double sum collapses to a single pass over the grid by splitting on
    ``min(u, v)`` and using suffix sums. Returned unclamped; callers decide
    how to treat nonpositive values.
    """
    Y = np.asarray(Y, dtype=float)
    dA1, dA2, dA3, dA_dot = _hazard_increments(Y, dN1, dN2, dN3)
    s_left = survival_left(dA_dot)
    dB = dA2 + 0.5 * dA3

    (_, ds2_2, ds2_3), (dc12, dc13, dc23), ds2_dot = greenwood_increments(Y, dN1, dN2, dN3, n)

    # 1 - dA. == 0 only at the final grid point; its increment never feeds the
    # exclusive inner sums, so masking it changes nothing beyond avoiding 0/0.
    one_minus = 1.0 - dA_dot
    ok = one_minus > 0
    safe = np.where(ok, one_minus, 1.0)
    c1 = np.where(ok, ds2_dot / safe, 0.0)
    c2 = np.where(ok, (dc12 + 0.5 * dc13 + ds2_2 + 1.5 * dc23 + 0.5 * ds2_3) / safe, 0.0)
    kc = ds2_2 + dc23 + 0.25 * ds2_3

    i1_ex = np.cumsum(c1, axis=-1) - c1
    i2_ex = np.cumsum(c2, axis=-1) - c2
    k_in = np.cumsum(kc, axis=-1)

    g = s_left * dB
    h = s_left * dA_dot
    g_suf = np.flip(np.cumsum(np.flip(g, -1), -1), -1)
    h_suf = np.flip(np.cumsum(np.flip(h, -1), -1), -1)

    t1 = np.sum(i1_ex * g * (2.0 * g_suf - g), axis=-1)
    t2 = np.sum(i2_ex * (g * h_suf + h * (g_suf - g)), axis=-1)
    t3 = np.sum(k_in * h * (2.0 * h_suf - h), axis=-1)
    return t1 - 2.0 * t2 + t3


def sigma2_cif_from_counts(Y, dN1, dN2, dN3, n: int) -> np.ndarray:
    """Variance plug-in built on the incidence-estimator covariance recursion.

    Per event time ``w`` the estimator's increment is a four-cell multinomial
    over (stay, cause 1, cause 2, cause 3); weighting each cell by the
    estimated contribution of that transition to ``F2(tau) + F3(tau)/2`` and
    accumulating the multinomial quadratic forms gives the Greenwood-type
    variance of the targeted combination. This is the standard recursion for
    product-limit transition estimators, so it matches reference survival
    tooling; :func:`sigma2_from_counts` is the hazard-level expansion of the
    same asymptotic quantity and differs from it in finite samples.
    """
    Y = np.asarray(Y, dtype=float)
    safe_y = np.where(Y > 0, Y, 1.0)
    dA1, dA2, dA3, dA_dot = _hazard_increments(Y, dN1, dN2, dN3)
    s_left = survival_left(dA_dot)
    incr = s_left * (dA2 + 0.5 * dA3)
    b_tau = np.sum(incr, axis=-1, keepdims=True)
    b_at = np.cumsum(incr, axis=-1)
    one_minus = 1.0 - dA_dot
    ok = one_minus > 0
    # remaining credit, scaled through the atom at w; zero when the risk set
    # is wiped out (no mass can remain beyond that point)
    q = np.where(ok, (b_tau - b_at) / np.where(ok, one_minus, 1.0), 0.0)
    psi1 = -q
    psi2 = s_left - q
    psi3 = 0.5 * s_left - q
    lin = psi1 * dN1 + psi2 * dN2 + psi3 * dN3
    quad = psi1**2 * dN1 + psi2**2 * dN2 + psi3**2 * dN3
    return n * np.sum(quad / safe_y**2 - lin**2 / safe_y**3, axis=-1)


def relabel_counts(dN, rng: np.random.Generator, b: int):
    """Counting arrays for ``b`` within-pair relabelings of type-1/2 events.

    Each type-1/2 event flips to type 1 or 2 with probability one half,
    independently across events and replicates; type-3 events and the at-risk
    process are untouched. Uses one uniform draw per (replicate, event) in
    grid order so a record-level relabeling with the same draws agrees exactly.
    """
    m = (dN[0] + dN[1]).astype(np.int64)
    k = len(m)
    flip_slots = np.repeat(np.arange(k), m)
    coins = rng.random((b, len(flip_slots))) < 0.5
    cells = np.arange(b)[:, None] * k + flip_slots[None, :]
    dN1_new = np.bincount(cells.ravel(), weights=coins.ravel(), minlength=b * k).reshape(b, k)
    return dN1_new, m - dN1_new, np.broadcast_to(dN[2], (b, k)).copy()


def bootstrap_counts(z, eps, times, rng: np.random.Generator, b: int):
    """Counting arrays for ``b`` bootstrap resamples of the records.

    Each replicate draws ``n`` records with replacement; its at-risk and
    cause-specific counts live on the original event-time grid (times missing
    from a resample simply carry zero counts). Event counts are bincounts over
    the cells ``(replicate, cause, slot)`` weighted by the resampling counts,
    so memory stays linear in ``b * n``.
    """
    z = np.asarray(z, dtype=float)
    eps = np.asarray(eps)
    n = len(z)
    counts = rng.multinomial(n, np.full(n, 1.0 / n), size=b).astype(float)

    order = np.argsort(z, kind="stable")
    z_sorted = z[order]
    suffix = np.flip(np.cumsum(np.flip(counts[:, order], -1), -1), -1)
    pos = np.searchsorted(z_sorted, times, side="left")
    at_risk = np.where(pos[None, :] < n, suffix[:, np.minimum(pos, n - 1)], 0.0)

    k = len(times)
    events = eps > 0
    slots = (eps[events].astype(np.int64) - 1) * k + np.searchsorted(times, z[events])
    cells = np.arange(b)[:, None] * (3 * k) + slots[None, :]
    dN = np.bincount(cells.ravel(), weights=counts[:, events].ravel(), minlength=3 * b * k)
    dN = dN.reshape(b, 3, k)
    return at_risk, dN[:, 0], dN[:, 1], dN[:, 2]
