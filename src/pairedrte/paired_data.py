"""Paired right-censored survival data: ingestion, truncation, tie handling,
and the transformation into a competing-risks sample.

A matched pair contributes one record ``(z, epsilon)`` to the competing-risks
sample: ``z`` is the smallest of the pair's observed times and ``epsilon``
encodes which member was observed to fail first (1 or 2), whether both failed
simultaneously (3), or whether the pair minimum is a censoring time (0).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyDataset,
    JitterTooLarge,
    NonFiniteTime,
    NonPositiveTau,
    ParseError,
    ValidationError,
)

__all__ = [
    "PairedObservation",
    "CompetingRisksRecord",
    "Dataset",
    "truncate_at_tau",
    "to_competing_risks",
    "break_censoring_ties",
    "read_paired_csv",
    "read_competing_csv",
    "write_competing_csv",
    "prepare_dataset",
    "DEFAULT_JITTER_FRACTION",
]

# Default tie-breaking jitter, as a fraction of the largest observed time.
DEFAULT_JITTER_FRACTION = 1e-9


@dataclass(frozen=True)
class PairedObservation:
    """One matched pair's censored outcomes ``(x1, delta1, x2, delta2)``.

    ``delta_j = 1`` marks an observed event, ``0`` a right-censored time.
    ``group`` is an optional label used for subgroup analyses.
    """

    x1: float
    delta1: int
    x2: float
    delta2: int
    group: str | None = None

    def __post_init__(self):
        for name, x in (("x1", self.x1), ("x2", self.x2)):
            if x < 0:
                raise ValidationError(f"{name} must be nonnegative, got {x}")
        for name, d in (("delta1", self.delta1), ("delta2", self.delta2)):
            if d not in (0, 1):
                raise ValidationError(f"{name} must be 0 or 1, got {d}")


@dataclass(frozen=True)
class CompetingRisksRecord:
    """Transformed pair: time ``z`` and cause label ``epsilon`` in {0, 1, 2, 3}."""

    z: float
    epsilon: int

    def __post_init__(self):
        if self.z < 0:
            raise ValidationError(f"z must be nonnegative, got {self.z}")
        if self.epsilon not in (0, 1, 2, 3):
            raise ValidationError(f"epsilon must be in {{0,1,2,3}}, got {self.epsilon}")


@dataclass(frozen=True)
class Dataset:
    """Competing-risks sample: times ``z``, cause labels ``epsilon``, horizon ``tau``."""

    z: np.ndarray
    epsilon: np.ndarray
    tau: float
    groups: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        eps = np.asarray(self.epsilon, dtype=np.int64)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "epsilon", eps)
        if z.ndim != 1 or eps.shape != z.shape:
            raise ValidationError("z and epsilon must be one-dimensional and aligned")
        if len(z) == 0:
            raise EmptyDataset("dataset must contain at least one record")
        if not np.all(np.isfinite(z)):
            raise NonFiniteTime("all record times must be finite")
        if np.any(z > self.tau):
            raise ValidationError("all record times must be <= tau")
        if not np.all(np.isin(eps, (0, 1, 2, 3))):
            raise ValidationError("epsilon labels must be in {0,1,2,3}")

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def records(self) -> tuple[CompetingRisksRecord, ...]:
        return tuple(
            CompetingRisksRecord(float(z), int(e)) for z, e in zip(self.z, self.epsilon)
        )

    @classmethod
    def from_records(cls, records: Iterable[CompetingRisksRecord], tau: float) -> "Dataset":
        recs = list(records)
        return cls(
            z=np.array([r.z for r in recs], dtype=float),
            epsilon=np.array([r.epsilon for r in recs], dtype=np.int64),
            tau=float(tau),
        )


def truncate_at_tau(obs: PairedObservation, tau: float) -> PairedObservation:
    """Truncate both margins at the horizon: ``x_j >= tau`` becomes ``(tau, 1)``.

    A time equal to the horizon is treated as an observed event so that the
    tie mass at ``tau`` is credited to both treatments.
    """
    if not math.isfinite(tau) or tau <= 0:
        raise NonPositiveTau(f"tau must be a positive finite number, got {tau}")
    for name, x in (("x1", obs.x1), ("x2", obs.x2)):
        if not math.isfinite(x):
            raise NonFiniteTime(f"{name} is not finite: {x}")
    x1, d1 = (tau, 1) if obs.x1 >= tau else (obs.x1, obs.delta1)
    x2, d2 = (tau, 1) if obs.x2 >= tau else (obs.x2, obs.delta2)
    return replace(obs, x1=x1, delta1=d1, x2=x2, delta2=d2)


def to_competing_risks(obs: PairedObservation) -> CompetingRisksRecord:
    """Map a truncated pair to its competing-risks record ``(z, epsilon)``.

    ``epsilon`` is 1 (2) when the first (second) margin is observed to fail
    strictly before the other, 3 when both are observed to fail at the same
    time, and 0 otherwise. The ambiguous pattern ``x1 == x2`` with exactly one
    event is classified as censored here; upstream censoring-tie jitter removes
    the pattern before it reaches this function in the analysis pipeline.
    """
    z = min(obs.x1, obs.x2)
    if obs.x1 < obs.x2 and obs.delta1 == 1:
        eps = 1
    elif obs.x2 < obs.x1 and obs.delta2 == 1:
        eps = 2
    elif obs.x1 == obs.x2 and obs.delta1 == 1 and obs.delta2 == 1:
        eps = 3
    else:
        eps = 0
    return CompetingRisksRecord(z=z, epsilon=eps)


def _split_times(data: Sequence[PairedObservation]) -> tuple[np.ndarray, np.ndarray]:
    xs = np.array([[o.x1, o.x2] for o in data], dtype=float).reshape(-1)
    ds = np.array([[o.delta1, o.delta2] for o in data], dtype=np.int64).reshape(-1)
    return xs[ds == 1], xs[ds == 0]


def _min_positive_gap(events: np.ndarray, censorings: np.ndarray) -> float:
    """Smallest positive distance between an event time and a censoring time."""
    if len(events) == 0 or len(censorings) == 0:
        return math.inf
    ev = np.unique(events)
    ce = np.unique(censorings)
    # For each censoring time look at its sorted neighbours among event times.
    idx = np.searchsorted(ev, ce)
    gaps = []
    left = idx - 1
    ok = left >= 0
    gaps.append(np.abs(ce[ok] - ev[left[ok]]))
    ok = idx < len(ev)
    gaps.append(np.abs(ev[idx[ok]] - ce[ok]))
    allgaps = np.concatenate(gaps)
    allgaps = allgaps[allgaps > 0]
    return float(allgaps.min()) if len(allgaps) else math.inf


def break_censoring_ties(
    data: Sequence[PairedObservation], jitter: float, seed: int
) -> list[PairedObservation]:
    """Add independent uniform(0, jitter) increments to every censored time.

    Event times are untouched, so after jittering every censoring time tied
    with an event time lies strictly above it, and no event/censoring ordering
    is altered elsewhere. Deterministic given ``seed``.
    """
    if not (jitter > 0):
        raise ValidationError(f"jitter must be positive, got {jitter}")
    events, censorings = _split_times(data)
    gap = _min_positive_gap(events, censorings)
    if jitter >= gap:
        raise JitterTooLarge(
            f"jitter {jitter} is not smaller than the minimum event/censoring gap {gap}"
        )
    rng = np.random.default_rng(seed)
    out = []
    for obs in data:
        x1, x2 = obs.x1, obs.x2
        if obs.delta1 == 0:
            x1 = x1 + rng.uniform(0.0, jitter)
        if obs.delta2 == 0:
            x2 = x2 + rng.uniform(0.0, jitter)
        out.append(replace(obs, x1=x1, x2=x2))
    return out


def _has_event_censoring_tie(data: Sequence[PairedObservation]) -> bool:
    events, censorings = _split_times(data)
    if len(events) == 0 or len(censorings) == 0:
        return False
    return bool(np.isin(censorings, events).any())


def prepare_dataset(
    data: Sequence[PairedObservation],
    tau: float,
    *,
    jitter: float | str | None = "auto",
    seed: int = 0,
) -> Dataset:
    """Run the analysis pipeline: tie-break censored times, truncate, transform.

    ``jitter="auto"`` applies :func:`break_censoring_ties` with the default
    scale (1e-9 times the largest observed time) only when some censoring time
    exactly equals an event time; ``jitter=None`` disables tie breaking; a
    float forces that jitter width. Jitter precedes truncation so that no
    perturbed time can exceed the horizon.
    """
    data = list(data)
    if len(data) == 0:
        raise ValidationError("empty dataset")
    if jitter == "auto":
        if _has_event_censoring_tie(data):
            max_t = max(max(o.x1, o.x2) for o in data)
            data = break_censoring_ties(data, DEFAULT_JITTER_FRACTION * max_t, seed)
    elif jitter is not None:
        data = break_censoring_ties(data, float(jitter), seed)
    truncated = [truncate_at_tau(o, tau) for o in data]
    records = [to_competing_risks(o) for o in truncated]
    ds = Dataset.from_records(records, tau)
    groups = tuple(o.group for o in data)
    return replace(ds, groups=groups if any(g is not None for g in groups) else None)


_PAIRED_HEADER = ("x1", "delta1", "x2", "delta2")


def _parse_time(raw: str, row: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(row, column, f"not a decimal literal: {raw!r}") from None


def _parse_delta(raw: str, row: int, column: str) -> int:
    if raw not in ("0", "1"):
        try:
            val = float(raw)
        except ValueError:
            raise ParseError(row, column, f"not a 0/1 indicator: {raw!r}") from None
        if val not in (0.0, 1.0):
            raise ValidationError(
                f"row {row}, column {column!r}: indicator must be 0 or 1, got {raw}"
            )
        return int(val)
    return int(raw)


def read_paired_csv(path) -> list[PairedObservation]:
    """Read paired observations from a CSV with header ``x1,delta1,x2,delta2[,group]``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if tuple(header[:4]) != _PAIRED_HEADER or len(header) > 5:
            raise ParseError(1, ",".join(header), "expected header x1,delta1,x2,delta2[,group]")
        has_group = len(header) == 5
        out = []
        for i, cells in enumerate(reader, start=2):
            if not cells or all(not c.strip() for c in cells):
                continue
            if len(cells) != len(header):
                raise ParseError(i, "*", f"expected {len(header)} cells, got {len(cells)}")
            x1 = _parse_time(cells[0].strip(), i, "x1")
            d1 = _parse_delta(cells[1].strip(), i, "delta1")
            x2 = _parse_time(cells[2].strip(), i, "x2")
            d2 = _parse_delta(cells[3].strip(), i, "delta2")
            group = cells[4].strip() if has_group and cells[4].strip() else None
            for name, x in (("x1", x1), ("x2", x2)):
                if math.isnan(x) or x < 0:
                    raise ValidationError(f"row {i}: {name} must be a nonnegative time, got {x}")
            out.append(PairedObservation(x1=x1, delta1=d1, x2=x2, delta2=d2, group=group))
    if not out:
        raise ValidationError(f"{path}: empty dataset")
    return out


def read_competing_csv(path, tau: float) -> Dataset:
    """Read an already-transformed competing-risks sample (header ``z,epsilon``)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if header[:2] != ["z", "epsilon"]:
            raise ParseError(1, ",".join(header), "expected header z,epsilon")
        zs, eps = [], []
        for i, cells in enumerate(reader, start=2):
            if not cells or all(not c.strip() for c in cells):
                continue
            zs.append(_parse_time(cells[0].strip(), i, "z"))
            raw = cells[1].strip()
            if raw not in ("0", "1", "2", "3"):
                raise ValidationError(f"row {i}: epsilon must be in {{0,1,2,3}}, got {raw!r}")
            eps.append(int(raw))
    if not zs:
        raise ValidationError(f"{path}: empty dataset")
    return Dataset(z=np.array(zs), epsilon=np.array(eps), tau=tau)


def write_competing_csv(target, dataset: Dataset) -> None:
    """Write a competing-risks sample as ``z,epsilon`` rows to a path or an open text stream."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_competing_csv(fh, dataset)
        return
    writer = csv.writer(target)
    writer.writerow(["z", "epsilon"])
    for z, e in zip(dataset.z, dataset.epsilon):
        writer.writerow([repr(float(z)), int(e)])
