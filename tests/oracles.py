"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here is written straight from first principles with plain loops,
deliberately ignoring the package's optimized kernels, so that agreement is
meaningful. The exceptions are :func:`reference_size_experiment`, the size
harness one replicate at a time through the package's single-sample
estimate and distributions and :func:`reference_test`, which is the
reference for the batched harness;
:func:`reference_draw_block`, the harness draws one sample at a time, whose
lifetimes come from the package's quantile transforms;
:func:`monte_carlo_theta`, a scenario's effect scored on the package's
copula sampler, which checks the exact effect of the quadrature;
:func:`reference_bootstrap_counts`, :func:`reference_relabel_counts` and
:func:`reference_theta_sigma2_cif`, the earlier array formulations of the
bootstrap counts, the relabeling counts and the fused kernel, which the
record-slot counts, the in-place coin draw and the in-place kernel must
reproduce bit for bit.
"""

import math
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from statistics import NormalDist

import numpy as np

import pairedrte as prt


def naive_curves(z, eps, tau):
    """Recompute-from-scratch product-limit curves over the event grid.

    Returns ``(grid, s, f)``: the event times up to ``tau``, the survival
    ``s`` and the Aalen-Johansen incidences ``f[j]`` of causes 1-3. Each
    curve's first entry is its value before the first event time and entry
    ``i + 1`` its value at ``grid[i]``, so the last entry is the value at
    ``tau``.
    """
    z = np.asarray(z, float)
    eps = np.asarray(eps)
    grid = sorted(set(z[(eps > 0) & (z <= tau)]))
    s = 1.0
    out_s, out_f = [1.0], {1: [0.0], 2: [0.0], 3: [0.0]}
    f = {1: 0.0, 2: 0.0, 3: 0.0}
    for u in grid:
        y = float(np.sum(z >= u))
        d = {j: float(np.sum((z == u) & (eps == j))) for j in (1, 2, 3)}
        for j in (1, 2, 3):
            f[j] += s * d[j] / y
            out_f[j].append(f[j])
        s *= 1.0 - (d[1] + d[2] + d[3]) / y
        out_s.append(s)
    return grid, out_s, out_f


def naive_sigma2_cif(z, eps, n):
    """Loop oracle for the incidence-level variance plug-in that inference studentizes with.

    Per event time ``w``: the at-risk count Y, the events dN_j of each cause,
    the survival S(w-) just before ``w``, and the credit q of all later event
    times towards F2 + F3/2, scaled through the atom at ``w`` (zero once the
    risk set is wiped out). The increment at ``w`` is a multinomial over
    (stay, cause 1, cause 2, cause 3) whose cells contribute
    (0, -q, S(w-) - q, S(w-)/2 - q); the quadratic form
    ``sum_j psi_j^2 dN_j / Y^2 - (sum_j psi_j dN_j)^2 / Y^3``, summed over the
    event times and times ``n``, is the plug-in. Returned unclamped.
    """
    return _cif_loops(z, eps, n, float)[1]


def exact_theta_sigma2_cif(z, eps):
    """``(theta, sigma2)`` of :func:`naive_sigma2_cif`'s loops in exact rational arithmetic."""
    return _cif_loops(z, eps, len(z), Fraction)


def _cif_loops(z, eps, n, num):
    z = np.asarray(z, float).tolist()
    counts = Counter(zip(z, np.asarray(eps).tolist()))
    grid = sorted({u for u, e in counts if e > 0})
    y, dn, s_left = [], [], []
    s = num(1)
    for u in grid:
        y.append(num(sum(1 for t in z if t >= u)))
        dn.append({j: counts[(u, j)] for j in (1, 2, 3)})
        s_left.append(s)
        s *= 1 - (dn[-1][1] + dn[-1][2] + dn[-1][3]) / y[-1]
    half = num(1) / 2
    credit = [s_left[i] * (dn[i][2] + half * dn[i][3]) / y[i] for i in range(len(grid))]
    total = num(0)
    for i in range(len(grid)):
        stay = 1 - (dn[i][1] + dn[i][2] + dn[i][3]) / y[i]
        q = sum(credit[i + 1:], num(0)) / stay if stay > 0 else num(0)
        psi = {1: -q, 2: s_left[i] - q, 3: half * s_left[i] - q}
        lin = sum(psi[j] * dn[i][j] for j in (1, 2, 3))
        quad = sum(psi[j] ** 2 * dn[i][j] for j in (1, 2, 3))
        total += quad / y[i] ** 2 - lin ** 2 / y[i] ** 3
    return sum(credit, num(0)), n * total


def relabeling_pvalues(data, b, seed):
    """Randomization p-values of each side from explicitly relabeled records, in exact arithmetic.

    Chunk ``c`` of the ``b`` relabelings draws ``default_rng([*seed, 13,
    c]).random((size, m)) < 0.5``: one coin per type-1/2 record in ascending
    time order, True making it type 1. Each relabeled sample's effect and
    variance come from :func:`exact_theta_sigma2_cif`; those with variance 0
    are skipped. Statistics are compared through the sign-preserving square
    ``(theta - 1/2) |theta - 1/2| / sigma2``, which orders them as the
    studentized statistics, so ties are ties in exact arithmetic. The observed
    sample must have a positive variance. Returns ``{"right": p, "left": p,
    "two": p}``, or raises the error inference raises:
    :class:`DegenerateVariance` past 10 % skipped replicates,
    :class:`InsufficientReplicates` below 20 usable ones.
    """
    seed = list(seed) if isinstance(seed, (tuple, list)) else [seed]
    z, eps = data.z, data.epsilon
    flip_records = [i for i in np.argsort(z, kind="stable") if eps[i] in (1, 2)]
    memo = {}

    def signed_square(labels):
        key = tuple(sorted(zip(z.tolist(), labels.tolist())))
        if key not in memo:
            theta, sigma2 = exact_theta_sigma2_cif(z, labels)
            half = Fraction(1, 2)
            memo[key] = None if sigma2 == 0 else (theta - half) * abs(theta - half) / sigma2
        return memo[key]

    stats = []
    for c, start in enumerate(range(0, b, 512)):
        rng = np.random.default_rng([*seed, 13, c])
        for row in rng.random((min(512, b - start), len(flip_records))) < 0.5:
            labels = eps.copy()
            labels[flip_records] = np.where(row, 1, 2)
            stats.append(signed_square(labels))
    usable = [v for v in stats if v is not None]
    if len(stats) - len(usable) > 0.1 * b:
        raise prt.DegenerateVariance("too many degenerate relabelings")
    if len(usable) < 20:
        raise prt.InsufficientReplicates("too few usable relabelings")
    t = signed_square(eps)
    counts = {
        "right": sum(v >= t for v in usable),
        "left": sum(v <= t for v in usable),
        "two": sum(abs(v) >= abs(t) for v in usable),
    }
    return {side: (1 + count) / (len(usable) + 1) for side, count in counts.items()}


def randomize_labels(data, seed):
    """One within-pair relabeling of the records: each type-1/2 record flips to 1 or 2 fairly.

    One uniform per type-1/2 record in record order, below one half making it
    type 1; times and type-0/3 records are untouched. On records sorted by
    time these are the draws of ``_engine.relabel_counts`` for one replicate.
    """
    rng = np.random.default_rng(seed)
    eps = data.epsilon.copy()
    flip = (eps == 1) | (eps == 2)
    coins = rng.random(int(flip.sum())) < 0.5
    eps[flip] = np.where(coins, 1, 2)
    return prt.Dataset(z=data.z.copy(), epsilon=eps, tau=data.tau)


def ipcw_form(data):
    """IPCW evaluation of ``F1(tau) - F2(tau)``: ``sum (dN1(u) - dN2(u)) / (n G(u-))``.

    ``G`` is the censoring product-limit curve, with censorings as the events:
    at a censoring time ``c`` it falls by the factor ``1 - d0 / r0``, where
    ``d0`` records are censored at ``c`` and ``r0`` are those beyond ``c``
    plus those censored at it. True events at ``c`` are ranked first, so they
    are out of that risk set. Event times where ``G(u-) = 0`` add nothing.
    """
    z, eps = data.z.tolist(), data.epsilon.tolist()
    total, g = 0.0, 1.0
    for u in sorted(set(z)):
        d = Counter(e for t, e in zip(z, eps) if t == u)
        if g > 0:
            total += (d[1] - d[2]) / (data.n * g)
        if d[0]:
            g *= 1.0 - d[0] / (sum(1 for t in z if t > u) + d[0])
    return total


def cross_pair_comparison(rows):
    """Mean of ``1{x1_i > x2_k} + 1{x1_i = x2_k} / 2`` over all ordered pairs ``(i, k)``.

    The Mann-Whitney statistic of the two margins of fully observed pairs, by
    double loop.
    """
    rows = list(rows)
    wins = sum((a.x1 > b.x2) + 0.5 * (a.x1 == b.x2) for a in rows for b in rows)
    return wins / len(rows) ** 2


def naive_competing_risks(rows, tau):
    """Competing-risks records ``(z, epsilon)`` of paired rows, from the definitions.

    A margin at or beyond ``tau`` becomes an event at ``tau``. Then ``z`` is
    the smaller time and ``epsilon`` is 1 (2) when the first (second) margin
    is an event before the other, an event coming before a censoring at the
    same time; 3 when both are events at the same time; and 0 otherwise.
    """
    zs, labels = [], []
    for r in rows:
        x1, d1 = (tau, 1) if r.x1 >= tau else (r.x1, r.delta1)
        x2, d2 = (tau, 1) if r.x2 >= tau else (r.x2, r.delta2)
        if x1 == x2 and d1 == 1 and d2 == 1:
            eps = 3
        elif d1 == 1 and (x1 < x2 or (x1 == x2 and d2 == 0)):
            eps = 1
        elif d2 == 1 and (x2 < x1 or (x1 == x2 and d1 == 0)):
            eps = 2
        else:
            eps = 0
        zs.append(float(min(x1, x2)))
        labels.append(eps)
    return np.array(zs), np.array(labels)


def reference_jittered_dataset(rows, tau, seed=0):
    """The ``Dataset`` of paired ``rows`` under the random censoring-tie jitter the rule replaced.

    When some censoring time equals some event time, every censored time
    gains a uniform draw from (0, w), w = 1e-9 times the largest time: one
    scalar draw from ``default_rng(seed)`` per censored margin, pair by pair
    and x1 before x2. Then :func:`naive_competing_risks` truncates and labels.
    The jitter is refused with a ``ValidationError`` when w is 0, or when w is
    not below the smallest positive distance from a censoring time to the
    last event time below it or to the first at or above it. Like the jitter,
    that check misses an event just above a censoring time equal to an event.
    """
    times = [(x, d) for r in rows for x, d in ((r.x1, r.delta1), (r.x2, r.delta2))]
    events = sorted({x for x, d in times if d == 1})
    censorings = sorted({x for x, d in times if d == 0})
    if not set(events) & set(censorings):
        return prt.Dataset(*naive_competing_risks(rows, tau), tau=tau)
    width = 1e-9 * max(x for x, _ in times)
    if width == 0:
        raise prt.ValidationError("every time is 0, so the jitter has no width")
    gaps = []
    for c in censorings:
        below, above = [e for e in events if e < c], [e for e in events if e >= c]
        if below:
            gaps.append(c - below[-1])
        if above:
            gaps.append(above[0] - c)
    if width >= min([g for g in gaps if g > 0], default=math.inf):
        raise prt.ValidationError("the jitter is not below the smallest event/censoring gap")
    rng = np.random.default_rng(seed)
    jittered = [replace(r, x1=r.x1 + (rng.uniform(0.0, width) if r.delta1 == 0 else 0.0),
                        x2=r.x2 + (rng.uniform(0.0, width) if r.delta2 == 0 else 0.0))
                for r in rows]
    return prt.Dataset(*naive_competing_risks(jittered, tau), tau=tau)


def unique_event_grid(z, eps):
    """Event grid from the unique event times: ``(times, Y, dN)`` with ``dN`` of shape (3, k)."""
    z = np.asarray(z, dtype=float)
    eps = np.asarray(eps)
    times = np.unique(z[eps > 0])
    k = len(times)
    at_risk = len(z) - np.searchsorted(np.sort(z), times, side="left")
    events = eps > 0
    cells = (eps[events].astype(np.int64) - 1) * k + np.searchsorted(times, z[events])
    dN = np.bincount(cells, minlength=3 * k).reshape(3, k).astype(float)
    return times, at_risk.astype(float), dN


def reference_bootstrap_counts(z, eps, times, rng, b):
    """``(Y, dN1, dN2, dN3)`` of ``b`` bootstrap resamples by suffix sums over sorted records.

    Draws the record indices ``rng.integers(0, n, (b, n))`` as the package
    does and counts each record's draws per replicate. The at-risk count at
    each grid time is the suffix sum of the counts of the records sorted by
    time, read at the first record not before it; the event counts are
    bincounts over the cells ``(replicate, cause, slot)``.
    """
    z = np.asarray(z, dtype=float)
    eps = np.asarray(eps)
    n = len(z)
    idx = rng.integers(0, n, (b, n))
    counts = np.array([np.bincount(row, minlength=n) for row in idx], dtype=float)
    order = np.argsort(z, kind="stable")
    suffix = np.flip(np.cumsum(np.flip(counts[:, order], -1), -1), -1)
    pos = np.searchsorted(z[order], times, side="left")
    at_risk = np.where(pos[None, :] < n, suffix[:, np.minimum(pos, n - 1)], 0.0)
    k = len(times)
    events = eps > 0
    slots = (eps[events].astype(np.int64) - 1) * k + np.searchsorted(times, z[events])
    cells = np.arange(b)[:, None] * (3 * k) + slots[None, :]
    dN = np.bincount(cells.ravel(), weights=counts[:, events].ravel(), minlength=3 * b * k)
    dN = dN.reshape(b, 3, k)
    return at_risk, dN[:, 0], dN[:, 1], dN[:, 2]


def reference_relabel_counts(dN, rng, b):
    """Type-2 counts ``(b, k)`` of ``b`` relabelings by one weighted bincount.

    Draws ``rng.random((b, M)) >= 0.5`` for the ``M`` type-1/2 events in grid
    order, as the package does, and bincounts each coin into its
    ``(replicate, time)`` cell.
    """
    m = (dN[0] + dN[1]).astype(np.int64)
    k = len(m)
    flip_slots = np.repeat(np.arange(k), m)
    type2 = rng.random((b, len(flip_slots))) >= 0.5
    cells = np.arange(b)[:, None] * k + flip_slots[None, :]
    return np.bincount(cells.ravel(), weights=type2.ravel(), minlength=b * k).reshape(b, k)


def reference_theta_sigma2_cif(Y, dN1, dN2, dN3, n):
    """``(theta, sigma2)`` of the fused kernel, one fresh array per operation."""
    Y = np.asarray(Y, dtype=float)
    safe_y = np.where(Y > 0, Y, 1.0)
    dA2 = dN2 / safe_y
    dA3 = dN3 / safe_y
    dA_dot = dN1 / safe_y + dA2 + dA3
    one_minus = 1.0 - dA_dot
    s_left = np.ones_like(one_minus)
    s_left[..., 1:] = np.cumprod(one_minus[..., :-1], axis=-1)
    incr = s_left * (dA2 + 0.5 * dA3)
    b_tau = np.sum(incr, axis=-1, keepdims=True)
    b_at = np.cumsum(incr, axis=-1)
    ok = one_minus > 0
    q = np.where(ok, (b_tau - b_at) / np.where(ok, one_minus, 1.0), 0.0)
    psi1 = -q
    psi2 = s_left - q
    psi3 = 0.5 * s_left - q
    lin = psi1 * dN1 + psi2 * dN2 + psi3 * dN3
    quad = psi1**2 * dN1 + psi2**2 * dN2 + psi3**2 * dN3
    return b_tau[..., 0], n * np.sum(quad / safe_y**2 - lin**2 / safe_y**3, axis=-1)


def reference_draw(scenario, rng):
    """One draw of a sample from ``rng``: copula uniforms and censoring times, each (n, 2).

    Also returns whether the draw lies inside (0, 1). The raw calls are the
    sampler's: Gumbel-Hougaard away from independence draws the angles, the
    frailty exponentials, the pairs' exponentials and then the censoring
    times; independence and Clayton draw their uniforms and then the
    censoring times as one call of ``random``. Clayton's ``w`` must lie inside
    (0, 1) as well as its pairs.
    """
    n, param, upper = scenario.n, scenario.copula_param, scenario.censoring.upper
    with np.errstate(all="ignore"):
        if scenario.copula == "gumbel_hougaard" and param != 1.0:
            theta, w = rng.uniform(0.0, np.pi, n), rng.exponential(1.0, n)
            e, c = rng.exponential(1.0, (n, 2)), rng.uniform(0.0, upper, (2, n)).T
            alpha = 1.0 / param
            frailty = (np.sin(alpha * theta) / np.sin(theta) ** (1.0 / alpha)
                       * (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha))
            u = np.exp(-((e / frailty[:, None]) ** alpha))
            return u, c, bool(np.all((u > 0) & (u < 1)))
        k = n if param == -1.0 else 2 * n
        raw = rng.random(k + 2 * n)
        c = upper * raw[k:].reshape(2, n).T
        if scenario.copula == "gumbel_hougaard":
            u = raw[:k].reshape(n, 2)
        elif param == -1.0:
            u = np.column_stack([raw[:n], 1.0 - raw[:n]])
        else:
            x, w = raw[:n], raw[n:k]
            v = ((w ** (-param / (1.0 + param)) - 1.0) * x ** (-param) + 1.0) ** (-1.0 / param)
            u = np.column_stack([x, v])
        return u, c, bool(np.all((u > 0) & (u < 1)) and np.all((raw[:k] > 0) & (raw[:k] < 1)))


def reference_draw_block(scenario, seeds):
    """Times and indicators, each (R, n, 2), of one sample per seed, drawn one sample at a time.

    A seed is a generator or the words of ``default_rng``. A draw that
    touched 0 or 1 is drawn again whole, continuing its generator, until one
    lies inside (0, 1); the package's quantile transforms then run on the
    stacked draws.
    """
    u, c = [], []
    for seed in seeds:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(list(seed))
        inside = False
        while not inside:
            sample, censoring, inside = reference_draw(scenario, rng)
        u.append(sample)
        c.append(censoring)
    return prt.simulation._observe(np.array(u), np.array(c), scenario)


def monte_carlo_theta(scenario, n_draws, seed):
    """Monte Carlo effect of the scenario's lifetimes truncated at ``tau``, with its standard error.

    One uncensored copula sample of ``n_draws`` pairs; each pair scores 1 if
    the first truncated lifetime is the longer, 1/2 on a tie and 0 otherwise.
    """
    u1, u2 = prt.simulation.sample_copula(scenario.copula, scenario.copula_param, n_draws,
                                          seed).T
    m1 = np.minimum(np.asarray(scenario.marginal1.quantile(1.0 - u1)), scenario.tau)
    m2 = np.minimum(np.asarray(scenario.marginal2.quantile(1.0 - u2)), scenario.tau)
    score = (m1 > m2) + 0.5 * (m1 == m2)
    return float(score.mean()), float(score.std(ddof=1) / np.sqrt(n_draws))


TIE_TOL = 1e-9


def reference_test(est, dist, cfg):
    """The test of ``theta = 1/2`` written out on scalar floats, one replicate at a time.

    Refuses as the package does, raising its ``InferenceRefused`` classes, in
    this order: log-log with ``theta_hat`` outside (0, 1), a variance of zero
    or below, fewer than 20 usable replicates (for log-log, those with an
    estimate inside (0, 1)). Each replicate is studentized on its own with
    ``math``; resampled critical values are ``np.quantile`` of the list of
    statistics, normal ones ``NormalDist().inv_cdf``. The p-value counts the
    replicates at least as extreme as the statistic, one within ``TIE_TOL``
    (relative) of it counting as a tie; the normal one is ``erfc``'s tail.
    Interval endpoints invert the statistic on the transform scale; one whose
    critical value ties the statistic sits on 1/2. Returns the report's
    ``statistic``, ``critical_values``, ``ci_lower``, ``ci_upper``,
    ``reject``, ``p_value`` and ``skipped`` as a dict.
    """
    loglog = cfg.transform == "loglog"

    def psi(x):
        return math.log(-math.log(x)) if loglog else x

    def dpsi(x):
        return 1.0 / (x * math.log(x)) if loglog else 1.0

    def psi_inv(y):
        if not loglog:
            return y
        try:
            return math.exp(-math.exp(y))
        except OverflowError:
            return 0.0

    def studentize(x, ref, sigma2):
        return (psi(x) - psi(ref)) / (dpsi(x) * math.sqrt(sigma2 / est.n))

    theta, sigma2 = est.theta_hat, est.sigma2_hat
    if loglog and not 0.0 < theta < 1.0:
        raise prt.ThetaOutOfDomain(f"theta_hat {theta}")
    if sigma2 <= 0:
        raise prt.DegenerateVariance(f"sigma2_hat {sigma2}")
    t = studentize(theta, 0.5, sigma2)
    tol = TIE_TOL * max(1.0, abs(t))
    if dist is None:
        quantile, skipped = NormalDist().inv_cdf, 0
        x = {"right": t, "left": -t, "two": abs(t)}[cfg.sided] / math.sqrt(2.0)
        p_value = (2.0 if cfg.sided == "two" else 1.0) * (0.5 * math.erfc(x))
    else:
        values = [studentize(x, dist.theta_ref, s2)
                  for x, s2 in zip(dist.thetas.tolist(), dist.sigmas2.tolist())
                  if not loglog or 0.0 < x < 1.0]
        if len(values) < 20:
            raise prt.InsufficientReplicates(f"{len(values)} usable replicates")
        skipped = dist.skipped + len(dist.thetas) - len(values)

        def quantile(q):
            return float(np.quantile(values, q))

        if cfg.sided == "right":
            count = sum(v >= t - tol for v in values)
        elif cfg.sided == "left":
            count = sum(v <= t + tol for v in values)
        else:
            count = sum(abs(v) >= abs(t) - tol for v in values)
        p_value = (1 + count) / (len(values) + 1)

    def endpoint(c):
        if abs(c - t) <= tol:
            return 0.5
        return min(max(psi_inv(psi(theta) - dpsi(theta) * math.sqrt(sigma2 / est.n) * c), 0.0),
                   1.0)

    alpha = cfg.alpha
    if cfg.sided == "right":
        critical = (quantile(1.0 - alpha),)
        lower, upper = endpoint(critical[0]), 1.0
    elif cfg.sided == "left":
        critical = (quantile(alpha),)
        lower, upper = 0.0, endpoint(critical[0])
    else:
        critical = (quantile(alpha / 2.0), quantile(1.0 - alpha / 2.0))
        ends = endpoint(critical[1]), endpoint(critical[0])
        lower, upper = min(ends), max(ends)
    return {"statistic": t, "critical_values": critical, "ci_lower": lower, "ci_upper": upper,
            "reject": not lower <= 0.5 <= upper, "p_value": p_value, "skipped": skipped}


def reference_size_experiment(scenario, *, methods, transforms, r, b=500, alpha=0.05,
                              sided="right", seed=0):
    """The size harness one replicate at a time.

    Replicate ``rep`` draws from ``default_rng([seed, rep])``, is prepared
    by ``prepare_dataset`` and estimated by ``estimate_rte``; each
    method's distribution, at ``seed=(seed, rep)``, and each transform's
    :func:`reference_test` is then tried on its own. A test that raises
    ``InferenceRefused`` is a non-rejection counted in ``refused``; a
    replicate that fails to prepare goes to ``failures``, which may hold at
    most 1 % of ``r``. Returns the fields the harness reports.
    """
    rejections = {(m, t): 0 for m in methods for t in transforms}
    refused = dict(rejections)
    failures = []
    margins_censored = pairs_censored = risk_exhausted = 0
    for rep in range(r):
        obs = prt.simulation.draw_paired_sample(scenario, np.random.default_rng([seed, rep]))
        margins_censored += int(((obs.delta == 0) | (obs.x >= scenario.tau)).sum())
        try:
            data = prt.prepare_dataset(obs, scenario.tau)
        except prt.PairedRteError as exc:
            failures.append((rep, type(exc).__name__))
            if len(failures) > max(1, 0.01 * r):
                raise
            continue
        pairs_censored += int((data.epsilon == 0).sum())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", prt.DegenerateRiskWarning)
            est = prt.estimate_rte(data)
        risk_exhausted += sum(w.category is prt.DegenerateRiskWarning for w in caught)
        for method in methods:
            cfg = prt.InferenceConfig(method=method, sided=sided, alpha=alpha, b=b,
                                      seed=(seed, rep))
            for transform in transforms:
                try:
                    dist = prt.inference.resample_distribution(data, cfg)
                    test = reference_test(est, dist, replace(cfg, transform=transform))
                except prt.InferenceRefused:
                    refused[(method, transform)] += 1
                else:
                    rejections[(method, transform)] += int(test["reject"])
    return {
        "rejections": rejections,
        "refused": refused,
        "failures": tuple(failures),
        "censoring_rate_margins": margins_censored / (2.0 * r * scenario.n),
        "censoring_rate_pairs": pairs_censored / (r * scenario.n),
        "risk_exhausted": risk_exhausted,
    }
