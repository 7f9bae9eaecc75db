"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here is written straight from first principles with plain loops,
deliberately ignoring the package's optimized kernels, so that agreement is
meaningful.
"""

import numpy as np


def naive_curves(z, eps, tau):
    """Recompute-from-scratch product-limit curves over the event grid."""
    z = np.asarray(z, float)
    eps = np.asarray(eps)
    grid = sorted(set(z[(eps > 0) & (z <= tau)]))
    s = 1.0
    out_s, out_f = [], {1: [], 2: [], 3: []}
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


def naive_sigma2(z, eps, n, tau):
    """Direct nested-sum oracle for the hazard-level variance plug-in.

    Triple loops over the event grid; exclusive upper limit for the inner
    accumulations weighted by 1/(1 - dA.) at min(u, v), inclusive for the
    remaining combination. O(k^3) on purpose.
    """
    z = np.asarray(z, float)
    eps = np.asarray(eps)
    grid = sorted(set(z[(eps > 0) & (z <= tau)]))
    k = len(grid)
    if k == 0:
        return 0.0
    y = [float(np.sum(z >= u)) for u in grid]
    dn = {j: [float(np.sum((z == u) & (eps == j))) for u in grid] for j in (1, 2, 3)}
    da = {j: [dn[j][i] / y[i] for i in range(k)] for j in (1, 2, 3)}
    da_dot = [da[1][i] + da[2][i] + da[3][i] for i in range(k)]
    s_left = [1.0]
    for i in range(1, k):
        s_left.append(s_left[-1] * (1.0 - da_dot[i - 1]))
    ds2 = {j: [dn[j][i] * (y[i] - dn[j][i]) * n / y[i] ** 3 for i in range(k)] for j in (1, 2, 3)}
    dc = {
        (a, b): [-dn[a][i] * dn[b][i] * n / y[i] ** 3 for i in range(k)]
        for a, b in ((1, 2), (1, 3), (2, 3))
    }
    dn_dot = [dn[1][i] + dn[2][i] + dn[3][i] for i in range(k)]
    ds2_dot = [dn_dot[i] * (y[i] - dn_dot[i]) * n / y[i] ** 3 for i in range(k)]
    db = [da[2][i] + 0.5 * da[3][i] for i in range(k)]

    total = 0.0
    for i in range(k):
        for j in range(k):
            m = min(i, j)
            inner1 = 0.0
            inner2 = 0.0
            for w in range(m):  # strictly before min(u, v)
                denom = 1.0 - da_dot[w]
                if denom <= 0:
                    continue
                inner1 += ds2_dot[w] / denom
                inner2 += (
                    dc[(1, 2)][w]
                    + 0.5 * dc[(1, 3)][w]
                    + ds2[2][w]
                    + 1.5 * dc[(2, 3)][w]
                    + 0.5 * ds2[3][w]
                ) / denom
            inner3 = 0.0
            for w in range(m + 1):  # up to and including min(u, v)
                inner3 += ds2[2][w] + dc[(2, 3)][w] + 0.25 * ds2[3][w]
            total += s_left[i] * s_left[j] * (
                inner1 * db[i] * db[j]
                - 2.0 * inner2 * db[i] * da_dot[j]
                + inner3 * da_dot[i] * da_dot[j]
            )
    return total


def naive_competing_risks(rows, tau):
    """Competing-risks records ``(z, epsilon)`` of paired rows, from the definitions.

    A margin at or beyond ``tau`` becomes an event at ``tau``. Then ``z`` is
    the smaller time and ``epsilon`` is 1 (2) when the first (second) margin
    is an event strictly before the other, 3 when both are events at the same
    time, and 0 otherwise.
    """
    zs, labels = [], []
    for r in rows:
        x1, d1 = (tau, 1) if r.x1 >= tau else (r.x1, r.delta1)
        x2, d2 = (tau, 1) if r.x2 >= tau else (r.x2, r.delta2)
        if x1 < x2 and d1 == 1:
            eps = 1
        elif x2 < x1 and d2 == 1:
            eps = 2
        elif x1 == x2 and d1 == 1 and d2 == 1:
            eps = 3
        else:
            eps = 0
        zs.append(float(min(x1, x2)))
        labels.append(eps)
    return np.array(zs), np.array(labels)
