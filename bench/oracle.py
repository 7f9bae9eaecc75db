"""Independent oracle for the relative treatment effect.

Recomputes ``theta_hat = F2(tau) + F3(tau) / 2`` from raw pairs with plain
Python: horizon truncation, the competing-risks transformation, the event
grid, at-risk counts and the Aalen-Johansen sums. It uses neither pairedrte
nor numpy, so agreement with the package is meaningful.
"""

from __future__ import annotations

import bisect
import csv


def competing_record(x1: float, d1: int, x2: float, d2: int, tau: float):
    """Map one pair to its competing-risks record ``(z, epsilon)``.

    A margin at or beyond ``tau`` becomes an event at ``tau``. A censored
    margin tied with the other margin's event ranks after it, which is the
    order the package's tie-breaking jitter produces.
    """
    if x1 >= tau:
        x1, d1 = tau, 1
    if x2 >= tau:
        x2, d2 = tau, 1
    z = min(x1, x2)
    if d1 and d2 and x1 == x2:
        return z, 3
    key1 = (x1, 0 if d1 else 1)
    key2 = (x2, 0 if d2 else 1)
    if key1 < key2:
        return z, 1 if d1 else 0
    if key2 < key1:
        return z, 2 if d2 else 0
    return z, 0


def theta_and_survival(pairs, tau: float) -> tuple[float, float]:
    """``(theta_hat, S_hat(tau))`` of ``(x1, delta1, x2, delta2)`` pairs."""
    records = [competing_record(x1, d1, x2, d2, tau) for x1, d1, x2, d2 in pairs]
    n = len(records)
    z_sorted = sorted(z for z, _ in records)
    counts: dict[float, list[int]] = {}
    for z, eps in records:
        if eps > 0 and z <= tau:
            counts.setdefault(z, [0, 0, 0, 0])[eps] += 1
    survival = 1.0
    theta = 0.0
    for u in sorted(counts):
        at_risk = n - bisect.bisect_left(z_sorted, u)
        d = counts[u]
        theta += survival * (d[2] + 0.5 * d[3]) / at_risk
        survival *= 1.0 - (d[1] + d[2] + d[3]) / at_risk
    return theta, survival


def read_pairs_by_group(path: str) -> dict[str, list[tuple[float, int, float, int]]]:
    """Rows of a paired CSV (``x1,delta1,x2,delta2,group``) keyed by group."""
    groups: dict[str, list[tuple[float, int, float, int]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            pair = (float(row["x1"]), int(row["delta1"]), float(row["x2"]), int(row["delta2"]))
            groups.setdefault(row["group"].strip(), []).append(pair)
    return groups
