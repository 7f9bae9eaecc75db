"""Array kernels shared by the estimator and resampling code paths.

All kernels operate on counting-process arrays over the event-time grid:
``Y`` (at-risk counts) and ``dN1, dN2, dN3`` (cause-specific event counts),
each of shape ``(..., k)`` where leading axes enumerate replicates. A cell
whose event counts are all zero contributes nothing, whatever its ``Y``; a
cell with ``Y == 0`` must be such a cell. Bootstrap replicates that miss late
records have them, and :func:`sorted_grid` pads every tie run with them.

Estimates and bootstrap replicates go through the fused kernel
:func:`theta_sigma2_cif_from_counts`. Each resampling route builds a sample's
invariants once per distribution and returns them as a ``(draw, evaluate)``
pair: ``draw(rng, rows)`` gives the counts of ``rows`` replicates as a tuple,
and ``evaluate`` of that tuple gives their effects and variances. Each pair
owns one workspace, allocated at its first row block and reused by the
later ones, so a one-block distribution allocates no more than its block.
:func:`bootstrap_kernel` maps each record to its cell of the record-slot
counts (cause by at-risk slot), so :func:`bootstrap_counts` is one draw of
record indices and one bincount per block, and the fused kernel runs in the
workspace; its blocks are sized by the draw's ``n`` cells per replicate.
Relabeling replicates change only how type-1/2 events split, so the draw of
:func:`relabel_kernel` is :func:`relabel_counts`, just their type-2 counts,
written into the workspace from coins made in place, and its evaluator works
from the sample's invariants.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BLOCK_CELLS",
    "sorted_grid",
    "event_grid",
    "theta_sigma2_cif_from_counts",
    "bootstrap_kernel",
    "bootstrap_counts",
    "relabel_counts",
    "relabel_kernel",
]

# Cells one block covers at most: the Monte Carlo harness sizes its replicate
# blocks and the resampling code its row blocks by it (per record for the
# bootstrap draw, per grid time for relabeling), so the temporaries of the
# draws and the kernels stay linear in n and bounded per block.
BLOCK_CELLS = 2**16

# Share of its nonnegative part at or below which :func:`relabel_kernel`
# takes a variance plug-in for zero. On random samples of up to 3,000 records
# and near-degenerate ones of up to 20,000, the round-off of variances that
# are zero in exact arithmetic stayed below 3e-16 of that part, and the
# smallest nonzero variance found was about 1/(2n) of it.
ZERO_VARIANCE_RTOL = 1e-12


def sorted_grid(z: np.ndarray, eps: np.ndarray):
    """Counting processes on each row's own sorted record times.

    ``z`` and ``eps`` have shape ``(..., n)``. Returns ``(times, Y, dN)``:
    ``times`` holds each row's times in ascending order, ``Y`` the at-risk
    count at each of them and ``dN`` of shape ``(3, ..., n)`` the events of
    causes 1, 2, 3. All events of a run of equal times sit in the run's first
    cell, so every other cell is inert.
    """
    z = np.asarray(z, dtype=float)
    eps = np.asarray(eps)
    n = z.shape[-1]
    order = np.argsort(z, axis=-1)
    times = np.take_along_axis(z, order, -1)
    causes = np.take_along_axis(eps, order, -1).astype(np.int64)
    run_start = np.ones(times.shape, dtype=bool)
    run_start[..., 1:] = times[..., 1:] != times[..., :-1]
    first = np.maximum.accumulate(np.where(run_start, np.arange(n), 0), axis=-1)
    rows = math.prod(times.shape[:-1])
    row = np.arange(rows).reshape(times.shape[:-1] + (1,))
    events = causes > 0
    cells = (((causes - 1) * rows + row) * n + first)[events]
    dN = np.bincount(cells, minlength=3 * rows * n).reshape((3,) + times.shape)
    return times, (n - first).astype(float), dN.astype(float)


def event_grid(z: np.ndarray, eps: np.ndarray):
    """Sorted unique event times with at-risk and cause-specific counts.

    Returns ``(times, Y, dN)`` where ``dN`` has shape ``(3, k)`` for causes
    1, 2, 3. ``Y(u)`` counts records with ``z >= u``. These are the cells of
    :func:`sorted_grid` that hold events.
    """
    times, at_risk, dN = sorted_grid(z, eps)
    keep = dN.any(axis=0)
    return times[keep], at_risk[keep], dN[:, keep]


def _workspace(shape):
    """Temporaries of :func:`theta_sigma2_cif_from_counts` for counts of ``shape``."""
    return np.empty((6,) + shape), np.empty(shape, dtype=bool)


def theta_sigma2_cif_from_counts(Y, dN1, dN2, dN3, n: int, work=None):
    """Effect estimate and incidence-level variance plug-in from one pass.

    Returns ``(theta, sigma2)``: ``theta = sum S(u-) (dA2 + dA3/2)`` is the
    recursion's total credit ``b_tau``, and ``sigma2``, returned unclamped,
    is built on the incidence-estimator covariance recursion. Per event time
    ``w`` the estimator's increment is a four-cell multinomial over (stay,
    cause 1, cause 2, cause 3); weighting each cell by the estimated
    contribution of that transition to ``F2(tau) + F3(tau)/2`` and
    accumulating the multinomial quadratic forms gives the Greenwood-type
    variance of the targeted combination. This is the standard recursion for
    product-limit transition estimators, so it matches reference survival
    tooling.

    The temporaries go into ``work``, the arrays :func:`_workspace` makes for
    the broadcast shape of the counts; a caller evaluating block after block
    passes the same arrays (or leading-row slices of them) each time, so the
    kernel allocates nothing of their size. Without ``work`` it allocates
    them. The arithmetic is the same either way.

    ``Y`` holds counts, each 0 or at least 1, so the safe divisor is
    ``max(Y, 1)``. ``Y^3`` is formed as ``Y^2 * Y``, which equals
    ``Y**3`` bit for bit while ``Y^3 < 2^53``, that is for every count up to
    208,063.
    """
    Y = np.asarray(Y)
    shape = np.broadcast_shapes(Y.shape, np.shape(dN1), np.shape(dN2), np.shape(dN3))
    if work is None:
        work = _workspace(shape)
    (safe_y, w1, w2, w3, w4, w5), mask = work
    # each step below is one operation of the formulas, in their order, with
    # its result in a buffer whose earlier content is no longer needed
    np.maximum(Y, 1.0, out=safe_y)  # counts are 0 or at least 1
    dA2 = np.divide(dN2, safe_y, out=w1)
    dA3 = np.divide(dN3, safe_y, out=w2)
    dA_dot = np.divide(dN1, safe_y, out=w3)
    dA_dot += dA2
    dA_dot += dA3
    one_minus = np.subtract(1.0, dA_dot, out=w4)
    # S(u-), the product of the earlier cells' 1 - dA_dot
    s_left = w5
    s_left[..., :1] = 1.0
    np.cumprod(one_minus[..., :-1], axis=-1, out=s_left[..., 1:])
    # credit increments S(u-) (dA2 + dA3/2)
    dA3 *= 0.5
    dA2 += dA3
    incr = np.multiply(s_left, dA2, out=w1)
    b_tau = np.sum(incr, axis=-1, keepdims=True)
    # remaining credit, scaled through the atom at w; zero when the risk set
    # is wiped out (no mass can remain beyond that point)
    q = np.cumsum(incr, axis=-1, out=w2)
    np.subtract(b_tau, q, out=q)
    wiped = np.logical_not(np.greater(one_minus, 0, out=mask), out=mask)
    np.copyto(one_minus, 1.0, where=wiped)
    q /= one_minus
    np.copyto(q, 0.0, where=wiped)
    # cell weights (psi1, psi2, psi3) = (-q, S(u-) - q, S(u-)/2 - q)
    psi2 = np.subtract(s_left, q, out=w1)
    psi3 = np.multiply(0.5, s_left, out=w5)
    psi3 -= q
    psi1 = np.negative(q, out=w2)
    # lin = sum_j psi_j dN_j, quad = sum_j psi_j^2 dN_j
    lin = np.multiply(psi1, dN1, out=w3)
    term = np.multiply(psi2, dN2, out=w4)
    lin += term
    lin += np.multiply(psi3, dN3, out=term)
    quad = np.square(psi1, out=psi1)
    quad *= dN1
    np.square(psi2, out=psi2)
    psi2 *= dN2
    quad += psi2
    np.square(psi3, out=psi3)
    psi3 *= dN3
    quad += psi3
    # n sum (quad / Y^2 - lin^2 / Y^3)
    y_power = np.square(safe_y, out=term)
    quad /= y_power
    np.square(lin, out=lin)
    y_power *= safe_y
    lin /= y_power
    quad -= lin
    return b_tau[..., 0], n * np.sum(quad, axis=-1)


def relabel_counts(dN, rng: np.random.Generator, b: int, out=None) -> np.ndarray:
    """Type-2 counts of ``b`` within-pair relabelings of type-1/2 events, shape ``(b, k)``.

    Each type-1/2 event flips to type 1 or 2 with probability one half,
    independently across events and replicates; type-3 events and the at-risk
    process are untouched, and the type-1 counts are ``dN1 + dN2`` minus the
    returned rows. Uses one uniform draw per (replicate, event) in grid order,
    a draw below one half making the event type 1, so a record-level
    relabeling with the same draws agrees exactly.

    The uniforms become 0/1 coins in place. Each grid time's first coin is
    taken into its column and the further coins of tied times are added once
    per tie depth, a loop as long as the deepest tie; sums of 0/1 coins are
    exact in any order, so the rows equal a bincount of the coins. Given
    ``out``, a C-contiguous ``(b, k)`` float array, the rows go there; on a
    grid without ties the call then allocates only the uniforms.
    """
    m = (dN[0] + dN[1]).astype(np.int64)
    first = np.cumsum(m) - m
    coins = rng.random((b, int(m.sum())))
    np.greater_equal(coins, 0.5, out=coins)
    out = np.empty((b, len(m))) if out is None else out
    if coins.size:
        # clipped indices skip the copy a bounds-checked take makes of out; a
        # trailing time without type-1/2 events clips to the last coin, and
        # every such time's column is cleared next
        np.take(coins, first, axis=1, out=out, mode="clip")
    out[:, m == 0] = 0.0
    for depth in range(1, m.max(initial=1)):
        tied = np.flatnonzero(m > depth)
        out[:, tied] += coins[:, first[tied] + depth]
    return out


def relabel_kernel(Y, dN, n: int):
    """Effect and variance plug-in of relabeled samples from their invariants.

    ``Y`` (shape ``(k,)``) and ``dN`` (shape ``(3, k)``) are the counts of
    the observed sample on its event grid. Relabeling moves only how type-1/2
    events split, so ``Y``, ``dN. = dN1 + dN2 + dN3``, ``dN3``, ``S(u-)`` and
    ``1 - dA.`` are the same for every replicate, and the kernel of
    :func:`theta_sigma2_cif_from_counts` reduces to a function of the type-2
    row ``dN2`` alone. With ``g = dN2 + dN3/2`` its credit increments are
    ``(S(u-)/Y) g``, ``b`` their cumulative sum and ``q = (b_tau - b) /
    (1 - dA.)`` (zero where ``1 - dA. = 0``), so ``theta = b_tau`` and, since
    the multinomial cells' weights are ``(-q, S(u-) - q, S(u-)/2 - q)``::

        sigma2 = n sum [alpha q^2 - 2 beta q g - delta g^2 + gamma (dN2 + dN3/4)]

    with ``alpha = dN. (Y - dN.) / Y^3``, ``beta = S(u-) (Y - dN.) / Y^3``,
    ``delta = S(u-)^2 / Y^3`` and ``gamma = S(u-)^2 / Y^2``. These per-cell
    vectors are built here once; a replicate then costs one cumulative sum and
    four weighted reductions, and ``dN1`` is never formed.

    Returns ``(draw, evaluate)``. ``draw(rng, rows)`` is ``(dn2,)``, the
    :func:`relabel_counts` of ``rows`` relabelings; ``evaluate(dn2) -> (theta,
    sigma2)`` takes type-2 rows of shape ``(rows, k)``. Both work in one
    workspace, the type-2 rows, ``g`` and the cumulative credits, sized by
    the first, largest, block and reused for every later one, so a drawn
    ``dn2`` is valid until the next draw. The terms ``alpha q^2`` and
    ``gamma (dN2 + dN3/4)`` are nonnegative and the other two nonpositive. A
    variance at most :data:`ZERO_VARIANCE_RTOL` times its nonnegative part is
    zero in exact arithmetic, for instance when every type-1/2 event is
    relabeled type 2 and the last event time empties the risk set; it is
    returned as exactly 0, as the variance of an all-type-1 relabeling is, so
    such a replicate is skipped whatever the sign of its round-off.
    """
    Y = np.asarray(Y, dtype=float)
    dN = np.asarray(dN, dtype=float)
    safe_y = np.where(Y > 0, Y, 1.0)
    dn_dot = dN.sum(axis=0)
    dA_dot = dn_dot / safe_y
    stay = 1.0 - dA_dot
    s_left = np.ones_like(stay)  # S(u-)
    s_left[..., 1:] = np.cumprod(stay[..., :-1], axis=-1)
    inv_stay = np.where(stay > 0, 1.0 / np.where(stay > 0, stay, 1.0), 0.0)
    weight = s_left / safe_y
    half3 = 0.5 * dN[2]
    y3 = safe_y**3
    # q = (b_tau - b) * inv_stay; its factors fold into the weights of q^2 and q g
    alpha = n * dn_dot * (Y - dn_dot) / y3 * inv_stay**2
    beta2 = 2.0 * n * s_left * (Y - dn_dot) / y3 * inv_stay
    delta = n * s_left**2 / y3
    gamma = n * weight**2
    gamma_type3 = float(np.sum(gamma * 0.25 * dN[2]))

    work = []  # the type-2 rows, g and the cumulative credits

    def buffers(rows):
        if not work:
            # one allocation: three separate ones were returned to the system
            # and faulted in again by nearly every harness replicate
            work.extend(np.empty((3, rows, len(Y))))
        return [a[:rows] for a in work]

    def draw(rng, rows):
        return (relabel_counts(dN, rng, rows, buffers(rows)[0]),)

    def evaluate(dn2):
        _, g, b = buffers(len(dn2))
        np.add(dn2, half3, out=g)
        np.multiply(g, weight, out=b)
        np.cumsum(b, axis=-1, out=b)
        theta = b[..., -1:].sum(axis=-1)  # 0 on an empty grid
        rest = np.subtract(theta[..., None], b, out=b)
        positive = (np.einsum("...k,...k,k->...", rest, rest, alpha)
                    + np.einsum("...k,k->...", dn2, gamma) + gamma_type3)
        sigma2 = positive - (np.einsum("...k,...k,k->...", rest, g, beta2)
                             + np.einsum("...k,...k,k->...", g, g, delta))
        return theta, np.where(sigma2 <= ZERO_VARIANCE_RTOL * positive, 0.0, sigma2)

    return draw, evaluate


def bootstrap_kernel(z, eps, times, n: int):
    """Draw and evaluate bootstrap resamples of the ``n`` records ``(z, eps)``.

    The invariants of the sample are built once: each record's at-risk slot
    on the ``k``-time grid ``times``, the last grid time at or before its
    time (``-1`` before the first), and its cause (0 if censored) name the
    one cell of a replicate's ``(4, k + 1)`` record-slot counts the record
    falls in. Returns ``(draw, evaluate)``. ``draw(rng, rows)`` is
    :func:`bootstrap_counts` on these cells, giving ``(Y, dN1, dN2, dN3)`` of
    ``rows`` resamples, each ``(rows, k)``. ``evaluate`` of those counts is
    :func:`theta_sigma2_cif_from_counts`, run in one workspace sized by the
    first, largest, block and reused for every later one; the counts stay
    integers, which the kernel's arithmetic converts exactly.
    """
    slot = np.searchsorted(times, np.asarray(z, dtype=float), side="right") - 1
    cells = np.asarray(eps).astype(np.int64) * (len(times) + 1) + slot + 1
    work = []

    def draw(rng, rows):
        return bootstrap_counts(rng, cells, times, rows)

    def evaluate(Y, dN1, dN2, dN3):
        if not work:
            work.extend(_workspace(Y.shape))
        rows = len(Y)
        return theta_sigma2_cif_from_counts(
            Y, dN1, dN2, dN3, n, (work[0][:, :rows], work[1][:rows]))

    return draw, evaluate


def bootstrap_counts(rng: np.random.Generator, cells, times, rows: int):
    """Integer counts ``(Y, dN1, dN2, dN3)`` of ``rows`` bootstrap resamples, each ``(rows, k)``.

    Each resample draws ``n = len(cells)`` record indices with replacement,
    one row of ``rng.integers(0, n, (rows, n))``; the rows are drawn in
    order, so the draw does not depend on how a chunk is split into blocks.
    Record ``i`` falls in cell ``cells[i]`` of a replicate's ``(4, k + 1)``
    record-slot counts, ``k = len(times)``: row ``j`` holds the records of
    cause ``j`` (0 for censored), column ``s + 1`` those whose last grid time
    at or before their time is ``times[s]``, and column 0 those before the
    first. One unweighted bincount of the drawn records' cells over a
    cause-major ``(4, rows, k + 1)`` tally gives them all, so each returned
    array is a view of one cause's ``(rows, k + 1)`` block, its rows
    contiguous. Causes 1 to 3 are the event counts; the records of a column
    summed over the four causes, cumulated from the last column down, are the
    at-risk counts (times missing from a resample carry zero counts). Memory
    is linear in ``rows * (n + k)``.
    """
    n, width = len(cells), len(times) + 1
    # cause * width + slot becomes cause * rows * width + slot; each row adds row * width
    cells = cells + cells // width * ((rows - 1) * width)
    flat = cells[rng.integers(0, n, (rows, n))]
    flat += np.arange(0, rows * width, width)[:, None]
    tally = np.bincount(flat.ravel(), minlength=4 * rows * width).reshape(4, rows, width)
    at_risk = tally[0]
    for cause in (1, 2, 3):
        at_risk += tally[cause]
    suffix = at_risk[:, ::-1]
    np.cumsum(suffix, axis=-1, out=suffix)
    return tally[0, :, 1:], tally[1, :, 1:], tally[2, :, 1:], tally[3, :, 1:]
