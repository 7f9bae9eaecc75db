"""Paired right-censored survival data: ingestion, truncation, tie handling,
and the transformation into a competing-risks sample.

A matched pair contributes one record ``(z, epsilon)`` to the competing-risks
sample: ``z`` is the smallest of the pair's observed times and ``epsilon``
encodes which member was observed to fail first (1 or 2), whether both failed
simultaneously (3), or whether the pair minimum is a censoring time (0).

A :class:`PairedSample` carries the pairs as columns from ingest to
:func:`prepare_dataset`; :class:`PairedObservation` is its row view.
"""

from __future__ import annotations

import csv
import math
import operator
import os
from dataclasses import dataclass
from typing import Iterable

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
    "PairedSample",
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


class PairedSample:
    """Matched pairs as columns: times ``x`` and indicators ``delta``, both (n, 2).

    ``group`` holds optional per-pair labels. Validation raises the error
    :class:`PairedObservation` raises for the first offending row. Length,
    integer indexing and iteration give :class:`PairedObservation` rows.
    """

    def __init__(self, x, delta, group=None):
        x = np.asarray(x, dtype=float)
        delta = np.asarray(delta)
        if x.ndim != 2 or x.shape[1] != 2 or delta.shape != x.shape:
            raise ValidationError("x and delta must be aligned arrays of shape (n, 2)")
        for i in np.flatnonzero((x < 0).any(axis=1) | ~np.isin(delta, (0, 1)).all(axis=1))[:1]:
            # the first offending row raises its own typed error
            PairedObservation(x[i, 0], delta[i, 0].item(), x[i, 1], delta[i, 1].item())
        if group is not None:
            group = np.asarray(group, dtype=object)
            if group.shape != (len(x),):
                raise ValidationError("group must hold one label per pair")
        self.x = x
        self.delta = delta.astype(np.int64)
        self.group = group

    @classmethod
    def of(cls, data: "PairedSample | Iterable[PairedObservation]") -> "PairedSample":
        """``data`` itself when it is a sample, otherwise its rows gathered into one."""
        if isinstance(data, cls):
            return data
        rows = list(data)
        groups = [o.group for o in rows]
        return cls(
            np.array([(o.x1, o.x2) for o in rows], dtype=float).reshape(-1, 2),
            np.array([(o.delta1, o.delta2) for o in rows], dtype=np.int64).reshape(-1, 2),
            groups if any(g is not None for g in groups) else None,
        )

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i) -> PairedObservation:
        i = operator.index(i)
        (x1, x2), (d1, d2) = self.x[i].tolist(), self.delta[i].tolist()
        return PairedObservation(x1, d1, x2, d2, None if self.group is None else self.group[i])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


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


def _truncate(x: np.ndarray, delta: np.ndarray, tau: float):
    """Truncation at the horizon on columns: ``x >= tau`` becomes ``(tau, 1)``."""
    if not math.isfinite(tau) or tau <= 0:
        raise NonPositiveTau(f"tau must be a positive finite number, got {tau}")
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise NonFiniteTime(f"{('x1', 'x2')[bad[0] % 2]} is not finite: {x.flat[bad[0]]}")
    over = x >= tau
    return np.where(over, tau, x), np.where(over, 1, delta)


def _classify(x: np.ndarray, delta: np.ndarray):
    """Competing-risks records ``(z, epsilon)`` of truncated pairs, on columns."""
    x1, x2 = x[:, 0], x[:, 1]
    e1, e2 = delta[:, 0] == 1, delta[:, 1] == 1
    eps = np.select([(x1 < x2) & e1, (x2 < x1) & e2, (x1 == x2) & e1 & e2], [1, 2, 3], 0)
    return np.minimum(x1, x2), eps


def _event_censoring_gaps(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Distances from each censoring time to its neighbouring event times, ends clamped."""
    ev, ce = np.unique(x[delta == 1]), np.unique(x[delta == 0])
    if len(ev) == 0:
        return np.empty(0)
    idx = np.searchsorted(ev, ce)
    near = np.concatenate([ev[np.maximum(idx - 1, 0)], ev[np.minimum(idx, len(ev) - 1)]])
    return np.abs(np.concatenate([ce, ce]) - near)


def _has_event_censoring_tie(sample: PairedSample) -> bool:
    return bool(np.any(_event_censoring_gaps(sample.x, sample.delta) == 0))


def _jitter_censored(x: np.ndarray, delta: np.ndarray, jitter: float, seed: int) -> np.ndarray:
    """Censoring-tie jitter on columns.

    One draw per censored cell in C order (pair 1 x1, pair 1 x2, pair 2 x1,
    ...), which is the stream a row-by-row loop draws.
    """
    if not (jitter > 0):
        raise ValidationError(f"jitter must be positive, got {jitter}")
    gaps = _event_censoring_gaps(x, delta)
    gap = float(gaps[gaps > 0].min(initial=math.inf))
    if jitter >= gap:
        raise JitterTooLarge(
            f"jitter {jitter} is not smaller than the minimum event/censoring gap {gap}"
        )
    censored = delta == 0
    out = x.copy()
    out[censored] += np.random.default_rng(seed).uniform(0.0, jitter, int(censored.sum()))
    return out


def truncate_at_tau(obs: PairedObservation, tau: float) -> PairedObservation:
    """Truncate both margins at the horizon: ``x_j >= tau`` becomes ``(tau, 1)``.

    A time equal to the horizon is treated as an observed event so that the
    tie mass at ``tau`` is credited to both treatments.
    """
    row = PairedSample.of([obs])
    return PairedSample(*_truncate(row.x, row.delta, tau), row.group)[0]


def to_competing_risks(obs: PairedObservation) -> CompetingRisksRecord:
    """Map a truncated pair to its competing-risks record ``(z, epsilon)``.

    ``epsilon`` is 1 (2) when the first (second) margin is observed to fail
    strictly before the other, 3 when both are observed to fail at the same
    time, and 0 otherwise. The ambiguous pattern ``x1 == x2`` with exactly one
    event is classified as censored here; upstream censoring-tie jitter removes
    the pattern before it reaches this function in the analysis pipeline.
    """
    row = PairedSample.of([obs])
    z, eps = _classify(row.x, row.delta)
    return CompetingRisksRecord(z=float(z[0]), epsilon=int(eps[0]))


def break_censoring_ties(
    data: Iterable[PairedObservation], jitter: float, seed: int
) -> list[PairedObservation]:
    """Add independent uniform(0, jitter) increments to every censored time.

    Event times are untouched, so after jittering every censoring time tied
    with an event time lies strictly above it, and no event/censoring ordering
    is altered elsewhere. Deterministic given ``seed``.
    """
    sample = PairedSample.of(data)
    x = _jitter_censored(sample.x, sample.delta, jitter, seed)
    return list(PairedSample(x, sample.delta, sample.group))


def prepare_dataset(
    data: PairedSample | Iterable[PairedObservation],
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
    sample = PairedSample.of(data)
    if len(sample) == 0:
        raise ValidationError("empty dataset")
    x, delta = sample.x, sample.delta
    if jitter == "auto":
        jitter = DEFAULT_JITTER_FRACTION * x.max() if _has_event_censoring_tie(sample) else None
    if jitter is not None:
        x = _jitter_censored(x, delta, float(jitter), seed)
    z, eps = _classify(*_truncate(x, delta, tau))
    return Dataset(z=z, epsilon=eps, tau=float(tau))


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


def read_paired_csv(path) -> PairedSample:
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
        xs, ds, groups = [], [], []
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
            xs.append((x1, x2))
            ds.append((d1, d2))
            groups.append(group)
    if not xs:
        raise ValidationError(f"{path}: empty dataset")
    return PairedSample(xs, ds, groups if has_group else None)


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
