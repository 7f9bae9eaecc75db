"""Command-line entry points: analyze, transform, simulate-size,
simulate-power, and calibrate."""

from __future__ import annotations

import csv
import io
import json
import os
import sys

import click
import numpy as np

from .errors import (
    DegenerateVariance,
    PairedRteError,
    ParseError,
    ScenarioError,
    ValidationError,
)
from .estimators import estimate_rte
from .inference import run_inference
from .paired_data import (
    PairedSample,
    _has_event_censoring_tie,
    prepare_dataset,
    read_competing_csv,
    read_paired_csv,
    write_competing_csv,
)
from . import simulation as sim

EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_DEGENERATE = 5

_METHOD_NAMES = {"asy": "asymptotic", "boot": "bootstrap", "rand": "randomization"}
_TRANSFORM_NAMES = {"lin": "linear", "loglog": "loglog"}


def _workers_default() -> int:
    raw = os.environ.get("PAIREDRTE_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _fail(exc: Exception) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, DegenerateVariance):
        return EXIT_DEGENERATE
    if isinstance(exc, (ValidationError, ScenarioError)):
        return EXIT_VALIDATION
    return 1


def _guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PairedRteError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_fail(exc))


def _format_table(rows: list[dict], columns: list[str]) -> str:
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    head = "  ".join(c.ljust(widths[c]) for c in columns)
    sep = "  ".join("-" * widths[c] for c in columns)
    body = [
        "  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns) for r in rows
    ]
    return "\n".join([head, sep, *body])


@click.group()
def main():
    """Relative treatment effect analysis for paired right-censored data."""


def _load_input(input_path: str, tau: float):
    """Paired CSV or already-transformed competing-risks CSV, by header."""
    with open(input_path, encoding="utf-8") as fh:
        header = fh.readline().strip().lower()
    if header.startswith("z,"):
        return None, read_competing_csv(input_path, tau)
    return read_paired_csv(input_path), None


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--tau", required=True, type=float, help="Follow-up horizon.")
@click.option("--alpha", default=0.05, show_default=True)
@click.option("--sided", type=click.Choice(["left", "right", "two"]), default="two",
              show_default=True)
@click.option("--method", type=click.Choice(["asy", "boot", "rand", "all"]), default="all",
              show_default=True)
@click.option("--transform", "transform_", type=click.Choice(["lin", "loglog", "both"]),
              default="both", show_default=True)
@click.option("--B", "b", default=2000, show_default=True, help="Resampling iterations.")
@click.option("--seed", default=0, show_default=True)
@click.option("--group-by", is_flag=True, help="Analyze each group label separately.")
@click.option("--no-jitter", is_flag=True, help="Skip censoring-tie jitter.")
@click.option("--output", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table",
              show_default=True)
def analyze(input_path, tau, alpha, sided, method, transform_, b, seed, group_by,
            no_jitter, output, fmt):
    """Estimate the relative treatment effect and run the requested tests."""
    methods = list(_METHOD_NAMES.values()) if method == "all" else [_METHOD_NAMES[method]]
    transforms = (
        list(_TRANSFORM_NAMES.values()) if transform_ == "both" else [_TRANSFORM_NAMES[transform_]]
    )
    workers = _workers_default()

    obs, ready = _guard(_load_input, input_path, tau)
    if group_by:
        if obs is None:
            click.echo("error: --group-by needs a paired input with a group column", err=True)
            sys.exit(EXIT_VALIDATION)
        labels = obs.group
        if labels is None or any(lbl is None for lbl in labels):
            click.echo("error: --group-by requires a group label on every row", err=True)
            sys.exit(EXIT_VALIDATION)
        partitions = []
        for lbl in dict.fromkeys(labels):
            rows = labels == lbl
            partitions.append((lbl, PairedSample(obs.x[rows], obs.delta[rows], labels[rows])))
    else:
        partitions = [("all", obs)]

    doc = {"input": input_path, "tau": tau, "alpha": alpha, "sided": sided,
           "b": b, "seed": seed, "groups": []}
    degenerate = False
    for label, group_obs in partitions:
        data_plain = None
        if ready is not None:
            data = ready
        else:
            data = _guard(prepare_dataset, group_obs, tau,
                          jitter=None if no_jitter else "auto", seed=seed)
            # a jitter-free copy can differ only where auto jitter fired
            if not no_jitter and _has_event_censoring_tie(group_obs):
                data_plain = _guard(prepare_dataset, group_obs, tau, jitter=None, seed=seed)
        est = _guard(estimate_rte, data)
        entry = {
            "group": label,
            "n": est.n,
            "theta_hat": est.theta_hat,
            "sigma_hat": float(np.sqrt(est.sigma2_hat)),
            "reports": [],
        }
        if data_plain is not None and not np.array_equal(data_plain.epsilon, data.epsilon):
            entry["theta_hat_unjittered"] = estimate_rte(data_plain).theta_hat
        try:
            reports = run_inference(
                data, methods, transforms, sided=sided, alpha=alpha, b=b, seed=seed,
                workers=workers, est=est,
            )
        except DegenerateVariance as exc:
            entry["inference"] = f"refused: {exc}"
            degenerate = True
        else:
            entry["reports"] = [r.to_dict() for r in reports]
        doc["groups"].append(entry)

    if fmt == "json":
        text = json.dumps(doc, indent=2)
    else:
        lines = []
        for entry in doc["groups"]:
            theta_extra = (
                f"  (unjittered: {entry['theta_hat_unjittered']:.4f})"
                if "theta_hat_unjittered" in entry
                else ""
            )
            lines.append(
                f"group={entry['group']}  n={entry['n']}  "
                f"theta_hat={entry['theta_hat']:.4f}  sigma_hat={entry['sigma_hat']:.4f}"
                + theta_extra
            )
            if entry["reports"]:
                rows = [
                    {
                        "method": r["method"],
                        "transform": r["transform"],
                        "ci_lower": f"{r['ci_lower']:.4f}",
                        "ci_upper": f"{r['ci_upper']:.4f}",
                        "p_value": f"{r['p_value']:.4g}",
                        "reject": r["reject"],
                    }
                    for r in entry["reports"]
                ]
                lines.append(_format_table(
                    rows, ["method", "transform", "ci_lower", "ci_upper", "p_value", "reject"]
                ))
            if "inference" in entry:
                lines.append(f"inference {entry['inference']}")
            lines.append("")
        text = "\n".join(lines).rstrip() + "\n"

    click.echo(text)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    if degenerate:
        sys.exit(EXIT_DEGENERATE)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--tau", required=True, type=float)
@click.option("--seed", default=0, show_default=True)
@click.option("--no-jitter", is_flag=True)
@click.option("--output", type=click.Path(), default=None,
              help="Competing-risks CSV destination (stdout if omitted).")
def transform(input_path, tau, seed, no_jitter, output):
    """Write the competing-risks transformation of a paired CSV."""
    obs = _guard(read_paired_csv, input_path)
    data = _guard(prepare_dataset, obs, tau, jitter=None if no_jitter else "auto", seed=seed)
    counts = {j: int((data.epsilon == j).sum()) for j in (0, 1, 2, 3)}
    summary = (
        f"n={data.n}  eps0={counts[0]}  eps1={counts[1]}  eps2={counts[2]}  "
        f"eps3={counts[3]}  censored_fraction={counts[0] / data.n:.4f}"
    )
    if output:
        write_competing_csv(output, data)
        click.echo(summary)
    else:
        write_competing_csv(sys.stdout, data)
        click.echo(summary, err=True)


def _experiment_options(raw: dict):
    keys = {
        "r": int, "b": int, "alpha": float, "seed": int, "sided": str, "label": str,
        "methods": list, "transforms": list,
    }
    opts = {}
    scenario_part = dict(raw)
    for key, cast in keys.items():
        if key in scenario_part:
            value = scenario_part.pop(key)
            opts[key] = cast(value) if cast in (int, float) else value
    return opts, scenario_part


def _harness_kwargs(opts: dict, given: dict, **defaults) -> dict:
    """Harness arguments: command-line values, else the scenario file's, else ``defaults``."""
    defaults = dict(b=500, alpha=0.05, sided="right", seed=0, **defaults)
    kwargs = {key: opts.get(key, value) for key, value in defaults.items()}
    kwargs.update({key: value for key, value in given.items() if value is not None})
    return dict(kwargs, workers=_workers_default())


def _write_rows(rows: list[dict], output: str | None):
    if not rows:
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    if output:
        with open(output, "w", newline="", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        click.echo(f"wrote {len(rows)} rows to {output}")
    else:
        click.echo(buf.getvalue().rstrip("\n"))


def _load_scenario_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, "json", exc.msg) from None


@main.command("simulate-size")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--R", "r", type=int, default=None, help="Override replication count.")
@click.option("--B", "b", type=int, default=None, help="Override resampling iterations.")
@click.option("--alpha", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--output", type=click.Path(), default=None)
def simulate_size(scenario_path, r, b, alpha, seed, output):
    """Empirical size of the tests under a scenario file."""
    raw = _guard(_load_scenario_file, scenario_path)
    opts, scenario_part = _experiment_options(raw)
    scenario = _guard(sim.scenario_from_dict, scenario_part)
    kwargs = _harness_kwargs(opts, dict(r=r, b=b, alpha=alpha, seed=seed), r=1000,
                             methods=["asymptotic", "bootstrap", "randomization"],
                             transforms=["linear", "loglog"])
    result = _guard(sim.run_size_experiment, scenario, label=opts.get("label", ""), **kwargs)
    _write_rows(result.to_rows(), output)


@main.command("simulate-power")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--R", "r", type=int, default=None)
@click.option("--B", "b", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--output", type=click.Path(), default=None)
def simulate_power(scenario_path, r, b, alpha, seed, output):
    """Power curve along a grid of scenarios.

    The scenario file either enumerates the grid explicitly
    ({"grid": [{"label": ..., <scenario fields>}, ...]}) or names a built-in
    power family ({"power_family": 1|2|3, "copula": ..., "values": [...],
    "n": ...}).
    """
    raw = _guard(_load_scenario_file, scenario_path)
    opts, rest = _experiment_options(raw)

    def build_grid():
        if "grid" in rest:
            grid = []
            for i, item in enumerate(rest["grid"]):
                entry = dict(item)
                label = str(entry.pop("label", f"point{i}"))
                grid.append((label, sim.scenario_from_dict(entry)))
            return grid
        if "power_family" in rest:
            family = int(rest["power_family"])
            copula = rest.get("copula", "gumbel_hougaard")
            n = int(rest.get("n", 50))
            values = rest.get("values")
            if not isinstance(values, list) or not values:
                raise ScenarioError("values", "expected a nonempty list")
            return [
                (f"value={v}", sim.power_scenario(family, copula, float(v), n))
                for v in values
            ]
        raise ScenarioError("grid", "expected 'grid' or 'power_family'")

    grid = _guard(build_grid)
    kwargs = _harness_kwargs(opts, dict(r=r, b=b, alpha=alpha, seed=seed), r=500,
                             methods=["randomization"], transforms=["linear"])
    results = _guard(sim.run_power_experiment, grid, **kwargs)
    rows = [row for res in results for row in res.to_rows()]
    _write_rows(rows, output)


@main.command()
@click.option("--n-draws", default=1_000_000, show_default=True)
@click.option("--tol", default=0.002, show_default=True)
@click.option("--seed", default=20260809, show_default=True)
@click.option("--output", type=click.Path(), default=None,
              help="Write the calibrated-parameter JSON here (stdout if omitted).")
def calibrate(n_draws, tol, seed, output):
    """Recompute the null-scenario marginal parameters (theta = 1/2)."""
    results = {}
    for key, target in sim.calibration_targets().items():
        res = _guard(
            sim.calibrate_null,
            target["builder"],
            target["bracket"],
            tol=tol,
            n_draws=n_draws,
            seed=seed,
        )
        results[key] = {
            "param": res.param,
            "theta": res.theta,
            "n_draws": res.n_draws,
            "seed": res.seed,
            "iterations": res.iterations,
        }
        click.echo(f"{key}: param={res.param:.6f} theta={res.theta:.5f}", err=True)
    text = json.dumps(results, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
