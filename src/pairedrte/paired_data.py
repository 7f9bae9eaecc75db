"""Paired right-censored survival data: ingestion, truncation, and the
transformation into a competing-risks sample.

A matched pair contributes one record ``(z, epsilon)`` to the competing-risks
sample: ``z`` is the smallest of the pair's observed times and ``epsilon``
encodes which member was observed to fail first (1 or 2), whether both failed
simultaneously (3), or whether the pair minimum is a censoring time (0). An
event precedes a censoring at the same time.

A :class:`PairedSample` carries the pairs as columns from ingest to
:func:`prepare_dataset`, which returns the records as the columns of a
:class:`Dataset`; :class:`PairedObservation` is the pairs' row view.
"""

from __future__ import annotations

import csv
import math
import operator
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    EmptyDataset,
    NonFiniteTime,
    NonPositiveTau,
    ParseError,
    ValidationError,
)
from ._streams import is_integer

__all__ = [
    "PairedObservation",
    "PairedSample",
    "Dataset",
    "read_paired_csv",
    "read_competing_csv",
    "write_competing_csv",
    "prepare_dataset",
]


def _plain_ints(value):
    """``value`` with each int or numpy integer, alone or in a tuple or list, a Python int.

    Stored counts and seeds are made plain so that results serialize to JSON.
    """
    if isinstance(value, (tuple, list)):
        return type(value)(_plain_ints(w) for w in value)
    return int(value) if is_integer(value) else value


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
class Dataset:
    """Competing-risks sample: times ``z``, cause labels ``epsilon``, horizon ``tau``.

    Each record is one pair's smallest observed time ``z`` in ``[0, tau]``
    and its label in {0, 1, 2, 3}; ``tau`` is a positive finite number.
    """

    z: np.ndarray
    epsilon: np.ndarray
    tau: float

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        eps = np.asarray(self.epsilon)
        object.__setattr__(self, "z", z)
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise NonPositiveTau(f"tau must be a positive finite number, got {self.tau}")
        if z.ndim != 1 or eps.shape != z.shape:
            raise ValidationError("z and epsilon must be one-dimensional and aligned")
        if len(z) == 0:
            raise EmptyDataset("dataset must contain at least one record")
        if not np.all(np.isfinite(z)):
            raise NonFiniteTime("all record times must be finite")
        if np.any(z < 0):
            raise ValidationError(f"z must be nonnegative, got {z[z < 0][0]}")
        if np.any(z > self.tau):
            raise ValidationError("all record times must be <= tau")
        # a label like 1.5, NaN or inf does not survive the integer cast unchanged
        with np.errstate(invalid="ignore"):
            labels = eps.astype(np.int64, copy=False) if eps.dtype.kind in "biuf" else None
        if labels is None or not ((labels == eps) & (labels >= 0) & (labels <= 3)).all():
            raise ValidationError("epsilon labels must be in {0,1,2,3}")
        object.__setattr__(self, "epsilon", labels)

    @property
    def n(self) -> int:
        return len(self.z)


def _classify(x: np.ndarray, delta: np.ndarray):
    """Competing-risks records ``(z, epsilon)`` of truncated pairs of shape ``(..., 2)``.

    ``epsilon`` is 1 (2) when the first (second) margin is observed to fail
    before the other, 3 when both are observed to fail at the same time, and
    0 otherwise. An event precedes a censoring at the same time, so the pair
    ``x1 == x2`` with exactly one event takes that event's label.
    """
    x1, x2 = x[..., 0], x[..., 1]
    e1, e2 = delta[..., 0] == 1, delta[..., 1] == 1
    tie = x1 == x2
    first1 = e1 & ((x1 < x2) | (tie & ~e2))
    first2 = e2 & ((x2 < x1) | (tie & ~e1))
    eps = np.select([first1, first2, tie & e1 & e2], [1, 2, 3], 0)
    return np.minimum(x1, x2), eps


def prepare_dataset(
    data: PairedSample | Iterable[PairedObservation],
    tau: float,
    *,
    seed=None,
) -> Dataset:
    """Run the analysis pipeline: truncate at the horizon, then transform.

    At a time where a censoring equals an event, the event comes first
    (Kalbfleisch & Prentice 2002): a censored record stays at risk at that
    event, and :func:`_classify` gives a pair's tie of one event and one
    censoring the event's label. Nothing is drawn. This is the one-sample
    case of :func:`_prepare_rows`, so an invalid ``tau`` is reported before
    any error of the data; a sample without a pair then raises
    :class:`EmptyDataset` from :class:`Dataset`.

    ``seed`` is ignored, and passing it is deprecated. It stays only until
    the benchmark's call sites stop passing it (ROADMAP item 8 (a)).
    """
    if seed is not None:
        warnings.warn("prepare_dataset draws nothing, so its seed is ignored",
                      DeprecationWarning, stacklevel=2)
    sample = PairedSample.of(data)
    z, eps, errors = _prepare_rows(sample.x[None], sample.delta[None], tau)
    if errors:
        raise errors[0]
    return Dataset(z=z[0], epsilon=eps[0], tau=float(tau))


def _prepare_rows(x: np.ndarray, delta: np.ndarray, tau: float):
    """Competing-risks records of samples of shape ``(R, n, 2)``, prepared as one block.

    ``tau`` is checked first. A time at or beyond the horizon becomes an
    observed event at ``tau``, so that the tie mass at ``tau`` is credited to
    both treatments. Returns the records ``z, eps`` of shape ``(R, n)`` and a
    dict from each sample with a non-finite time to its error; such a
    sample's records are zeros.
    """
    if not math.isfinite(tau) or tau <= 0:
        raise NonPositiveTau(f"tau must be a positive finite number, got {tau}")
    finite = np.isfinite(x)
    errors = {}
    for i in np.flatnonzero(~finite.all(axis=(-2, -1))):
        j = np.flatnonzero(~finite[i])[0]
        errors[i] = NonFiniteTime(f"{('x1', 'x2')[j % 2]} is not finite: {x[i].flat[j]}")
    over = x >= tau
    z, eps = _classify(np.where(over, tau, x), np.where(over, 1, delta))
    for i in errors:
        z[i], eps[i] = 0.0, 0
    return z, eps, errors


_PAIRED_HEADER = ("x1", "delta1", "x2", "delta2")


def _parse_time(raw: str, row: int, column: str) -> float:
    """The nonnegative time that ``raw`` writes; an infinite one is left to the finiteness check."""
    try:
        val = float(raw)
    except ValueError:
        raise ParseError(row, column, f"not a decimal literal: {raw!r}") from None
    if not val >= 0:  # NaN fails too
        raise ValidationError(f"row {row}, column {column!r}: not a nonnegative time: {raw!r}")
    return val


def _parse_label(raw: str, row: int, column: str, top: int) -> int:
    """The label in ``0..top`` that ``raw`` writes as an integer or an integral decimal."""
    try:
        val = float(raw)
    except ValueError:
        raise ParseError(row, column, f"not a number: {raw!r}") from None
    if not (val.is_integer() and 0 <= val <= top):
        raise ValidationError(f"row {row}, column {column!r}: not an integer in 0..{top}: {raw!r}")
    return int(val)


@contextmanager
def _csv_rows(path):
    """The open CSV as its lower-cased header and its non-blank ``(row number, cells)``.

    Cells are stripped and a byte-order mark dropped. An empty file or a data
    section without a row raises :class:`EmptyDataset`; a row whose cell count
    is not the header's, :class:`ParseError`.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise EmptyDataset(f"{path}: empty file") from None

        def rows():
            empty = True
            for i, cells in enumerate(reader, start=2):
                cells = [c.strip() for c in cells]
                if not any(cells):
                    continue
                if len(cells) != len(header):
                    raise ParseError(i, "*", f"expected {len(header)} cells, got {len(cells)}")
                empty = False
                yield i, cells
            if empty:
                raise EmptyDataset(f"{path}: empty dataset")

        yield header, rows()


def read_paired_csv(path) -> PairedSample:
    """Read paired observations from a CSV with header ``x1,delta1,x2,delta2[,group]``."""
    xs, ds, groups = [], [], []
    with _csv_rows(path) as (header, rows):
        if tuple(header) not in (_PAIRED_HEADER, (*_PAIRED_HEADER, "group")):
            raise ParseError(1, ",".join(header), "expected header x1,delta1,x2,delta2[,group]")
        for i, cells in rows:
            x1 = _parse_time(cells[0], i, "x1")
            d1 = _parse_label(cells[1], i, "delta1", 1)
            x2 = _parse_time(cells[2], i, "x2")
            d2 = _parse_label(cells[3], i, "delta2", 1)
            xs.append((x1, x2))
            ds.append((d1, d2))
            groups += [g or None for g in cells[4:]]  # the optional group label
    return PairedSample(xs, ds, groups or None)


def read_competing_csv(path, tau: float) -> Dataset:
    """Read an already-transformed competing-risks sample (header ``z,epsilon``)."""
    zs, eps = [], []
    with _csv_rows(path) as (header, rows):
        if header != ["z", "epsilon"]:
            raise ParseError(1, ",".join(header), "expected header z,epsilon")
        for i, cells in rows:
            zs.append(_parse_time(cells[0], i, "z"))
            eps.append(_parse_label(cells[1], i, "epsilon", 3))
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
