#!/usr/bin/env python3
"""Benchmark of pairedrte: one workload, one seed, one fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; the package is imported from
``src/``. The run first starts a few set-up probes, fresh interpreters that
import the package and build the inputs, and takes the median of their
start-to-ready times as ``setup_s``. It then sets up in its own process, runs
an untimed warm-up round, and times whole rounds of ops until ``--seconds``
of op time have passed; ``ops_per_s`` is the lower quartile of the
throughput of the timed calls. Every output is checked outside the timed
section.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics from wrapped layer calls with
``--trace 1``. ``--quick`` runs each workload at a tiny size as a smoke test.
Run records and span dumps go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3
WALL_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PAIREDRTE_WORKERS")

# Per-layer metrics: (name, unit, span, field). Span fields are summed over the
# timed ops and divided by their number; "counts" fields come from counters.
# Metric names start with a letter or digit, so the ``_engine`` module's
# layer reports as ``engine.*``.
PER_LAYER = [
    ("cli.analyze.self_s", "s/op", "cli.analyze", "self_s"),
    ("paired_data.read_paired_csv.s", "s/op", "paired_data.read_paired_csv", "s"),
    ("paired_data.prepare_dataset.s", "s/op", "paired_data.prepare_dataset", "s"),
    ("paired_data.prepare_dataset.calls", "calls/op", "paired_data.prepare_dataset", "calls"),
    ("paired_data.records", "count/op", None, "paired_data.records"),
    ("estimators.estimate_rte.self_s", "s/op", "estimators.estimate_rte", "self_s"),
    ("estimators.estimate_rte.calls", "calls/op", "estimators.estimate_rte", "calls"),
    ("estimators.counting_processes.s", "s/op", "estimators.counting_processes", "s"),
    ("variance.sigma_theta_cif_plugin.s", "s/op", "variance.sigma_theta_cif_plugin", "s"),
    ("inference.test_and_ci.s", "s/op", "inference.test_and_ci", "s"),
    ("inference.test_and_ci.calls", "calls/op", "inference.test_and_ci", "calls"),
    ("inference.bootstrap_distribution.self_s", "s/op",
     "inference.bootstrap_distribution", "self_s"),
    ("inference.randomization_distribution.self_s", "s/op",
     "inference.randomization_distribution", "self_s"),
    ("inference.replicates", "count/op", None, "inference.replicates"),
    ("inference.skipped", "count/op", None, "inference.skipped"),
    ("engine.event_grid.s", "s/op", "_engine.event_grid", "s"),
    ("engine.theta_from_counts.s", "s/op", "_engine.theta_from_counts", "s"),
    ("engine.sigma2_cif_from_counts.s", "s/op", "_engine.sigma2_cif_from_counts", "s"),
    ("engine.kernel_cells", "count/op", None, "engine.kernel_cells"),
    ("engine.relabel_counts.s", "s/op", "_engine.relabel_counts", "s"),
    ("engine.bootstrap_counts.s", "s/op", "_engine.bootstrap_counts", "s"),
    ("engine.onehot_bytes", "B/op", None, "engine.onehot_bytes"),
    ("simulation.run_size_experiment.self_s", "s/op", "simulation.run_size_experiment",
     "self_s"),
    ("simulation.draw_paired_sample.s", "s/op", "simulation.draw_paired_sample", "s"),
    ("simulation.sample_copula.s", "s/op", "simulation.sample_copula", "s"),
    ("simulation.apply_marginals_and_censoring.s", "s/op",
     "simulation.apply_marginals_and_censoring", "s"),
    ("simulation.mixture_quantile.s", "s/op", "simulation.mixture_quantile", "s"),
    ("simulation.mixture_quantile.calls", "calls/op", "simulation.mixture_quantile", "calls"),
]


def throughput(rates) -> float:
    """Ops per second that three in four timed calls reach: their lower quartile.

    On the 2-vCPU reference machine (bench/README.md) the speed swings
    between two levels over tens of seconds, and other tenants now and then
    halve it for a few seconds. Across runs the lower quartile moved least:
    the median follows the share of time spent at the fast level, and the
    lower decile follows the slow bursts.
    """
    return statistics.quantiles(rates, n=4, method="inclusive")[0]


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny sizes, for a smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def make_workload(args, checks):
    import workloads

    factory = workloads.WORKLOADS.get(args.workload)
    if factory is None:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    return factory(args.seed, args.quick, checks)


def set_up(workload) -> dict:
    """Import the program and build the inputs; the set-up every process pays."""
    t0 = time.perf_counter()
    package = workload.import_program()
    t1 = time.perf_counter()
    workload.make_inputs(SRC)
    t2 = time.perf_counter()
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        fail(f"pairedrte was imported from {package.__file__}, not from {SRC}")
    return {"package": package, "import_s": t1 - t0, "inputs_s": t2 - t1}


def setup_probe(args) -> None:
    from workloads import Checks

    times = set_up(make_workload(args, Checks()))
    print(json.dumps({"import_s": times["import_s"], "inputs_s": times["inputs_s"]}), flush=True)


def run_setup_probes(args, count: int) -> list[dict]:
    """Start fresh interpreters and time each from spawn until its inputs are ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    probes = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or not line.strip():
            fail(f"set-up probe exited with code {code}", 1)
        probe = json.loads(line)
        probe["setup_s"] = ready
        probes.append(probe)
    return probes


def measure(workload, seconds: float, quick: bool, tracer) -> dict:
    """Warm-up round, then timed rounds until ``seconds`` of op time have passed.

    Returns the throughput of every timed call along with the op counts.
    """
    start = time.perf_counter()
    rates, errors, attempted, failed, timed_ops, busy = [], [], 0, 0, 0, 0.0
    index = 0
    while True:
        timed = index > 0
        for fn, ops, key in workload.calls(index):
            attempted += ops
            if tracer is not None and timed:
                tracer.op, tracer.active = timed_ops, True
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # a failed op is counted and reported, not fatal
                failed += ops
                errors.append(f"{workload.name} call {key}: {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            workload.check(index, key, result)
            if timed:
                rates.append(ops / elapsed)
                timed_ops += ops
                busy += elapsed
        index += 1
        enough = index > 2 if quick else (busy >= seconds and index > 2)
        if enough or time.perf_counter() - start > WALL_LIMIT_S:
            break
    workload.finish()
    return {"rates": rates, "errors": errors, "attempted": attempted, "failed": failed,
            "timed_ops": timed_ops, "busy_s": busy, "rounds": index - 1}


def openblas_runtime():
    """Runtime OpenBLAS configuration and thread count, where the library exposes them."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    info["config"] = get_config().decode()
                    info["threads"] = get_threads()
                    return info
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_runtime": openblas_runtime(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def per_layer_metrics(tracer, probes, timed_ops: int, rates) -> dict:
    totals = tracer.layer_totals()
    counts = tracer.counts
    metrics = {
        "setup.import_s": {"value": statistics.median(p["import_s"] for p in probes), "unit": "s"},
        "setup.inputs_s": {"value": statistics.median(p["inputs_s"] for p in probes), "unit": "s"},
    }
    for name, unit, span, field in PER_LAYER:
        total = totals.get(span, {}).get(field, 0) if span else counts.get(field, 0)
        metrics[name] = {"value": total / timed_ops, "unit": unit}
    grid_calls = totals.get("estimators.counting_processes", {}).get("calls", 0)
    metrics["estimators.grid_k"] = {
        "value": counts.get("estimators.grid_k_sum", 0) / grid_calls if grid_calls else 0.0,
        "unit": "count"}
    metrics["traced.ops_per_s"] = {"value": throughput(rates), "unit": "1/s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pairedrte", "__init__.py")):
        fail(f"no pairedrte sources under {SRC}; run from the root of a source checkout")
    # The program runs with its defaults: no worker count from the environment.
    os.environ.pop("PAIREDRTE_WORKERS", None)
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args)
        return 0

    probes = run_setup_probes(args, 1 if args.quick else SETUP_PROBES)
    import tracing
    from workloads import Checks

    checks = Checks()
    workload = make_workload(args, checks)
    own_setup = set_up(workload)
    package = own_setup["package"]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(package)
    run = measure(workload, args.seconds, args.quick, tracer)
    if tracer is None:
        stray = tracing.installed_wrappers(package)
        checks.require(not stray, f"untraced run found trace wrappers: {stray}")
    else:
        tracer.uninstall()

    if len(run["rates"]) < 2:
        checks.require(False, "fewer than two timed calls completed")
        metrics = {}
    elif tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"},
            "ops_per_s": {"value": throughput(run["rates"]), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        metrics = per_layer_metrics(tracer, probes, run["timed_ops"], run["rates"])

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    os.makedirs(OUT, exist_ok=True)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"{tag}-spans.json"))
    result = {"correct": checks.correct, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    record = {"args": vars(args), "environment": env, "probes": probes,
              "own_setup": {k: own_setup[k] for k in ("import_s", "inputs_s")},
              "rounds": run["rounds"], "call_rates": run["rates"], "busy_s": run["busy_s"],
              "op_errors": run["errors"], "check_failures": checks.failures, "result": result}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for message in run["errors"][:5] + checks.failures[:20]:
        print(f"bench: {message}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
