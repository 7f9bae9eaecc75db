"""Opt-in per-layer tracing of pairedrte, installed from outside the package.

``Tracer.install`` replaces each layer-boundary function with a wrapper that
records a span, both in its home module and in every pairedrte module that
imported it under the same name, so internal callers are traced too. Spans
stay in memory while the benchmark runs and are written out at the end.
Nothing is wrapped unless ``install`` is called.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import prod

# Home module -> traced public functions. Span names are "<module>.<function>".
LAYERS = {
    "paired_data": ("read_paired_csv", "prepare_dataset"),
    "estimators": ("estimate_rte", "counting_processes"),
    "variance": ("sigma_theta_cif_plugin",),
    "inference": (
        "run_inference",
        "test_and_ci",
        "bootstrap_distribution",
        "randomization_distribution",
    ),
    "_engine": (
        "event_grid",
        "theta_from_counts",
        "sigma2_cif_from_counts",
        "relabel_counts",
        "bootstrap_counts",
    ),
    "simulation": (
        "run_size_experiment",
        "draw_paired_sample",
        "sample_copula",
        "apply_marginals_and_censoring",
    ),
}


def _count_records(args, kwargs, result):
    return {"paired_data.records": result.n}


def _count_grid(args, kwargs, result):
    return {"estimators.grid_k_sum": len(result.event_times)}


def _count_replicates(args, kwargs, result):
    return {"inference.replicates": result.b_requested, "inference.skipped": result.skipped}


def _count_cells(args, kwargs, result):
    return {"engine.kernel_cells": prod(getattr(args[1], "shape", ()))}


def _count_onehot(args, kwargs, result):
    eps, times = args[1], args[2]
    k = len(times)
    return {"engine.onehot_bytes": sum(int((eps == j).sum()) * k * 8 for j in (1, 2, 3))}


COUNTERS = {
    "paired_data.prepare_dataset": _count_records,
    "estimators.counting_processes": _count_grid,
    "inference.bootstrap_distribution": _count_replicates,
    "inference.randomization_distribution": _count_replicates,
    "_engine.theta_from_counts": _count_cells,
    "_engine.bootstrap_counts": _count_onehot,
}


class Tracer:
    """Records spans ``(op, name, parent, start, end)`` while ``active``."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [self.op, name_id, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        traced.__bench_traced__ = True
        return traced

    def _patch(self, owner, attr: str, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, package) -> None:
        """Wrap every traced function wherever a pairedrte module binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for home, names in LAYERS.items():
            home_mod = sys.modules.get(f"{package.__name__}.{home}")
            for fname in names:
                # A layer the package no longer has reads 0 rather than failing.
                original = getattr(home_mod, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{home}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        mixture = sys.modules[f"{package.__name__}.simulation"].Mixture
        self._patch(mixture, "quantile", self._wrap("simulation.mixture_quantile",
                                                    mixture.quantile))
        cli = sys.modules.get(f"{package.__name__}.cli")
        if cli is not None:
            self._patch(cli.analyze, "callback", self._wrap("cli.analyze", cli.analyze.callback))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Inclusive seconds, self seconds and calls per span name."""
        child = [0.0] * len(self.spans)
        for op, name_id, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in self.names}
        for i, (op, name_id, parent, start, end) in enumerate(self.spans):
            row = totals[self.names[name_id]]
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
            row["calls"] += 1
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["op", "name", "parent", "start", "end"],
                       "spans": self.spans, "counts": self.counts}, fh)


def installed_wrappers(package) -> list[str]:
    """Names bound to a trace wrapper in pairedrte modules, ``Mixture`` and the CLI."""
    owners = [(key, mod) for key, mod in list(sys.modules.items())
              if key == package.__name__ or key.startswith(package.__name__ + ".")]
    simulation = sys.modules.get(f"{package.__name__}.simulation")
    if simulation is not None:
        owners.append(("Mixture", simulation.Mixture))
    cli = sys.modules.get(f"{package.__name__}.cli")
    if cli is not None:
        owners.append(("cli.analyze", cli.analyze))
    return [f"{key}.{attr}" for key, owner in owners for attr, value in vars(owner).items()
            if getattr(value, "__bench_traced__", False)]
