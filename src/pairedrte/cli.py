"""Command-line entry points: analyze, transform, simulate-size,
simulate-power, and calibrate."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys

import click
import numpy as np

from .errors import InferenceRefused, PairedRteError, ParseError, ValidationError
from .estimators import estimate_rte
from .inference import run_inference
from .paired_data import (
    Dataset,
    PairedSample,
    _csv_rows,
    prepare_dataset,
    read_competing_csv,
    read_paired_csv,
    write_competing_csv,
)
from . import simulation as sim

EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_DEGENERATE = 5


class _OutputPath(click.Path):
    """A file path whose directory exists."""

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            self.fail(f"Directory of {path!r} does not exist.", param, ctx)
        return path


# Paths name files: a directory, a missing input or output directory is exit 2.
_INPUT = click.Path(exists=True, dir_okay=False)
_OUTPUT = _OutputPath(dir_okay=False)

_METHOD_NAMES = {"asy": "asymptotic", "boot": "bootstrap", "rand": "randomization"}
_TRANSFORM_NAMES = {"lin": "linear", "loglog": "loglog"}


def _fail(exc: Exception) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, InferenceRefused):
        return EXIT_DEGENERATE
    if isinstance(exc, ValidationError):
        return EXIT_VALIDATION
    return 1


def _format_table(rows: list[dict], columns: list[str]) -> str:
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    head = "  ".join(c.ljust(widths[c]) for c in columns)
    sep = "  ".join("-" * widths[c] for c in columns)
    body = [
        "  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns) for r in rows
    ]
    return "\n".join([head, sep, *body])


class _Main(click.Group):
    """The command group; a package error of any command exits with its code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PairedRteError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_fail(exc))


@click.group(cls=_Main)
def main():
    """Relative treatment effect analysis for paired right-censored data."""


def _samples(input_path: str, tau: float, group_by: bool) -> list[tuple[str, Dataset]]:
    """The ``(group label, records)`` that ``analyze`` reports on.

    A CSV whose first header name is ``z`` holds records, taken as they are;
    any other holds pairs, prepared whole or, with ``group_by``, per group.
    """
    with _csv_rows(input_path) as (header, _):
        competing = header[:1] == ["z"]
    if competing:
        data = read_competing_csv(input_path, tau)
        if group_by:
            raise ValidationError("--group-by needs a paired input with a group column")
        return [("all", data)]
    obs = read_paired_csv(input_path)
    if not group_by:
        return [("all", prepare_dataset(obs, tau))]
    labels = obs.group
    if labels is None or any(lbl is None for lbl in labels):
        raise ValidationError("--group-by requires a group label on every row")
    samples = []
    for lbl in dict.fromkeys(labels):
        rows = labels == lbl
        samples.append((lbl, prepare_dataset(PairedSample(obs.x[rows], obs.delta[rows]), tau)))
    return samples


@main.command()
@click.option("--input", "input_path", required=True, type=_INPUT)
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
@click.option("--output", type=_OUTPUT, default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table",
              show_default=True)
def analyze(input_path, tau, alpha, sided, method, transform_, b, seed, group_by,
            output, fmt):
    """Estimate the relative treatment effect and run the requested tests."""
    methods = list(_METHOD_NAMES.values()) if method == "all" else [_METHOD_NAMES[method]]
    transforms = (
        list(_TRANSFORM_NAMES.values()) if transform_ == "both" else [_TRANSFORM_NAMES[transform_]]
    )

    doc = {"input": input_path, "tau": tau, "alpha": alpha, "sided": sided,
           "b": b, "seed": seed, "groups": []}
    refused = False
    for label, data in _samples(input_path, tau, group_by):
        est = estimate_rte(data)
        entry = {
            "group": label,
            "n": est.n,
            "theta_hat": est.theta_hat,
            "sigma_hat": float(np.sqrt(est.sigma2_hat)),
            "reports": [],
        }
        try:
            reports = run_inference(
                data, methods, transforms, sided=sided, alpha=alpha, b=b, seed=seed, est=est,
            )
        except InferenceRefused as exc:
            entry["inference"] = f"refused: {exc}"
            refused = True
        else:
            entry["reports"] = [r.to_dict() for r in reports]
        doc["groups"].append(entry)

    if fmt == "json":
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        lines = []
        for entry in doc["groups"]:
            lines.append(
                f"group={entry['group']}  n={entry['n']}  "
                f"theta_hat={entry['theta_hat']:.4f}  sigma_hat={entry['sigma_hat']:.4f}"
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

    click.echo(text, nl=False)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if refused:
        sys.exit(EXIT_DEGENERATE)


@main.command()
@click.option("--input", "input_path", required=True, type=_INPUT)
@click.option("--tau", required=True, type=float)
@click.option("--output", type=_OUTPUT, default=None,
              help="Competing-risks CSV destination (stdout if omitted).")
def transform(input_path, tau, output):
    """Write the competing-risks transformation of a paired CSV."""
    data = prepare_dataset(read_paired_csv(input_path), tau)
    counts = {j: int((data.epsilon == j).sum()) for j in (0, 1, 2, 3)}
    summary = (
        f"n={data.n}  eps0={counts[0]}  eps1={counts[1]}  eps2={counts[2]}  "
        f"eps3={counts[3]}  censored_fraction={counts[0] / data.n:.4f}"
    )
    write_competing_csv(output or sys.stdout, data)
    click.echo(summary, err=not output)  # stdout holds the records when there is no file


def _write_rows(rows: list[dict], output: str | None):
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


def _experiment_command(name: str):
    """A command that writes the rows ``body(settings, rest)`` makes of its ``--scenario`` file.

    A setting is its flag's value, else the file's, else the harness default.
    """
    def decorate(body):
        @main.command(name, help=body.__doc__)
        @click.option("--scenario", "scenario_path", required=True, type=_INPUT)
        @click.option("--R", "r", type=int, default=None, help="Override replication count.")
        @click.option("--B", "b", type=int, default=None, help="Override resampling iterations.")
        @click.option("--alpha", type=float, default=None)
        @click.option("--seed", type=int, default=None)
        @click.option("--output", type=_OUTPUT, default=None)
        def command(scenario_path, output, **given):
            with open(scenario_path, encoding="utf-8-sig") as fh:
                try:
                    doc = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ParseError(exc.lineno, "json", exc.msg) from None
            settings, rest = sim.settings_from_dict(doc)
            given = {key: value for key, value in given.items() if value is not None}
            _write_rows(body(settings | given, rest), output)
        return command
    return decorate


@_experiment_command("simulate-size")
def simulate_size(settings, rest):
    """Empirical size of the tests under a scenario file."""
    return sim.run_size_experiment(sim.scenario_from_dict(rest), **settings).to_rows()


@_experiment_command("simulate-power")
def simulate_power(settings, rest):
    """Power curve along a grid of scenarios.

    The scenario file either enumerates the grid explicitly
    ({"grid": [{"label": ..., <scenario fields>}, ...]}) or names a built-in
    power family ({"power_family": 1|2|3, "copula": ..., "values": [...],
    "n": ...}).
    """
    settings.pop("label", None)
    results = sim.run_power_experiment(sim.grid_from_dict(rest), **settings)
    return [row for res in results for row in res.to_rows()]


@main.command()
@click.option("--output", type=_OUTPUT, default=None,
              help="Write the calibrated-parameter JSON here (stdout if omitted).")
def calibrate(output):
    """Recompute the null-scenario marginal parameters (theta = 1/2).

    Each parameter is bisected on the scenario's exact effect, a quadrature
    over the marginal distribution functions, so the result is deterministic
    and there is nothing to draw, seed or tune.
    """
    results = {}
    for key, target in sim.calibration_targets().items():
        res = sim.calibrate_null(target["builder"], target["bracket"])
        results[key] = dataclasses.asdict(res)
        click.echo(f"{key}: param={res.param:.7f} theta={res.theta:.9f}", err=True)
    text = json.dumps(results, indent=2, allow_nan=False)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
