"""The four benchmark workloads: inputs, operations and output checks.

A workload imports the program, builds its inputs from the seed, and then
hands the runner rounds of calls. Each call does a known number of ops. The
runner times the calls; it calls ``check`` on every result outside the timed
section and ``finish`` once at the end. Round 0 is an untimed warm-up that
runs the expensive checks. Nothing here imports numpy or pairedrte at module
level, so the set-up timing includes those imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import warnings

import oracle

ALL_METHODS = ["asymptotic", "bootstrap", "randomization"]
BOTH_TRANSFORMS = ["linear", "loglog"]


class Checks:
    """Collects failed output checks; the run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def correct(self) -> bool:
        return not self.failures


def _base_seed(seed: int, salt: str) -> int:
    """Base of a workload's per-call seeds, derived from the run seed."""
    return random.Random(f"{salt}:{seed}").randrange(1, 2**31 - 2**20)


def _duality(checks: Checks, where: str, reports) -> None:
    for r in reports:
        outside = not (r["ci_lower"] <= 0.5 <= r["ci_upper"])
        checks.require(r["reject"] == outside,
                       f"{where} {r['method']}/{r['transform']}: reject={r['reject']} "
                       f"but CI=[{r['ci_lower']}, {r['ci_upper']}]")


# ---------------------------------------------------------------------------
# case_study: the analyze command on the bundled diabetic data

# Paper's Table 2 (95% two-sided intervals) and the acceptance-02 tolerances.
TABLE2 = {
    "juvenile": {
        ("asymptotic", "linear"): (0.517, 0.678),
        ("asymptotic", "loglog"): (0.513, 0.673),
        ("bootstrap", "linear"): (0.514, 0.680),
        ("bootstrap", "loglog"): (0.517, 0.677),
        ("randomization", "linear"): (0.515, 0.680),
        ("randomization", "loglog"): (0.515, 0.676),
    },
    "adult": {
        ("asymptotic", "linear"): (0.655, 0.807),
        ("asymptotic", "loglog"): (0.646, 0.798),
        ("bootstrap", "linear"): (0.652, 0.802),
        ("bootstrap", "loglog"): (0.655, 0.800),
        ("randomization", "linear"): (0.654, 0.809),
        ("randomization", "loglog"): (0.651, 0.801),
    },
}
CI_TOL = {"asymptotic": 0.010, "bootstrap": 0.015, "randomization": 0.015}
PAPER_THETA = {"juvenile": 0.598, "adult": 0.731}
# p-value bands of the paper; resampling p-values get 3 Monte Carlo SE at B
P_BANDS = {"juvenile": (0.008, 0.035), "adult": (0.0, 0.001)}


def _two_sided_quantiles(values, alpha: float = 0.05) -> list[float]:
    """Critical values a two-sided report takes from these replicates."""
    import numpy as np

    return [float(np.quantile(values, q)) for q in (alpha / 2.0, 1.0 - alpha / 2.0)]


def _mc_se(p: float, count: int) -> float:
    return math.sqrt(p * (1.0 - p) / count)


class CaseStudy:
    name = "case_study"
    tau = 60.0
    b = 2000

    def __init__(self, seed: int, quick: bool, checks: Checks):
        base = _base_seed(seed, self.name)
        self.seeds = [base + i for i in range(2 if quick else 4)]
        self.checks = checks
        self.first_output: dict[int, str] = {}

    def import_program(self):
        import pairedrte
        import pairedrte.cli  # brings in click

        self.prt = pairedrte
        return pairedrte

    def make_inputs(self, src: str) -> None:
        self.csv_path = os.path.join(src, "pairedrte", "datasets", "diabetic.csv")
        self.pairs = oracle.read_pairs_by_group(self.csv_path)
        self.args = ["analyze", "--input", self.csv_path, "--tau", "60", "--group-by",
                     "--method", "all", "--transform", "both", "--B", str(self.b),
                     "--format", "json"]

    def _analyze(self, seed: int) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.prt.cli.main.main(args=[*self.args, "--seed", str(seed)],
                                   prog_name="pairedrte", standalone_mode=False)
        return buf.getvalue()

    def calls(self, index: int):
        return [(lambda s=s: self._analyze(s), 1, s) for s in self.seeds]

    def check(self, index: int, seed: int, text: str) -> None:
        if seed in self.first_output:
            self.checks.require(text == self.first_output[seed],
                                f"analyze --seed {seed}: output changed on repeat")
            return
        self.first_output[seed] = text
        doc = json.loads(text)
        groups = {g["group"]: g for g in doc["groups"]}
        self.checks.require(sorted(groups) == ["adult", "juvenile"], f"groups {sorted(groups)}")
        for label, entry in groups.items():
            self._check_group(seed, label, entry)

    def _check_group(self, seed: int, label: str, entry: dict) -> None:
        c = self.checks
        where = f"case_study seed={seed} {label}"
        theta_ref, s_tau = oracle.theta_and_survival(self.pairs[label], self.tau)
        theta = entry["theta_hat"]
        c.require(abs(theta - theta_ref) <= 1e-12, f"{where}: theta {theta} vs oracle {theta_ref}")
        c.require(abs(theta - PAPER_THETA[label]) <= 0.002, f"{where}: theta {theta} vs paper")
        reports = entry["reports"]
        c.require(len(reports) == 6, f"{where}: {len(reports)} reports")
        _duality(c, where, reports)
        lo_p, hi_p = P_BANDS[label]
        for r in reports:
            key = (r["method"], r["transform"])
            lo, hi = TABLE2[label][key]
            tol = CI_TOL[r["method"]]
            c.require(abs(r["ci_lower"] - lo) <= tol and abs(r["ci_upper"] - hi) <= tol,
                      f"{where} {key}: CI [{r['ci_lower']}, {r['ci_upper']}] vs [{lo}, {hi}]")
            slack_lo = slack_hi = 0.0
            if r["method"] != "asymptotic":
                slack_lo = 3.0 * _mc_se(lo_p, self.b)
                slack_hi = 3.0 * _mc_se(hi_p, self.b)
            c.require(lo_p - slack_lo <= r["p_value"] <= hi_p + slack_hi,
                      f"{where} {key}: p={r['p_value']} outside [{lo_p}, {hi_p}]")
            if r["transform"] == "loglog":
                c.require(0.0 < r["ci_lower"] and r["ci_upper"] < 1.0,
                          f"{where} {key}: log-log CI leaves (0, 1)")
        self._check_randomization_mean(seed, label, reports, s_tau, where)

    def _check_randomization_mean(self, seed, label, reports, s_tau, where) -> None:
        """Relabeling keeps S_hat and splits types 1/2 evenly: E theta* = (1 - S(tau))/2."""
        import numpy as np

        prt = self.prt
        obs = [o for o in prt.read_paired_csv(self.csv_path) if o.group == label]
        data = prt.prepare_dataset(obs, self.tau, seed=seed)
        dist = prt.randomization_distribution(
            data, prt.InferenceConfig(method="randomization", b=self.b, seed=seed))
        rep = next(r for r in reports
                   if (r["method"], r["transform"]) == ("randomization", "linear"))
        self.checks.require(rep["critical_values"] == _two_sided_quantiles(dist.values),
                            f"{where}: randomization replicates differ from the report's")
        mean = float(np.mean(dist.thetas))
        mc_se = float(np.std(dist.thetas, ddof=1)) / math.sqrt(len(dist.thetas))
        target = (1.0 - s_tau) / 2.0
        self.checks.require(abs(mean - target) <= 4.0 * mc_se,
                            f"{where}: mean theta* {mean} vs {target} (MC SE {mc_se})")

    def finish(self) -> None:
        self.checks.require(len(self.first_output) == len(self.seeds), "not every seed ran")


# ---------------------------------------------------------------------------
# size_asymptotic / size_randomization: Monte Carlo replicates of the harness

CENSORING_BANDS = {"strong": (0.38, 0.42), "medium": (0.27, 0.34)}


class SizeCell:
    """Replicates of ``run_size_experiment`` on one acceptance-06 cell.

    One call runs ``r`` replicates at its own seed; one op is one replicate.
    """

    def __init__(self, seed: int, quick: bool, checks: Checks, *, name, copula, family,
                 censoring, n, method, b, r, r_quick, paper_size, band):
        self.name = name
        self.cell = (copula, family, censoring, n)
        self.censoring = censoring
        self.method = method
        self.b = b
        self.r = r_quick if quick else r
        self.paper_size, self.band = paper_size, band
        self.base = _base_seed(seed, name)
        self.checks = checks
        self.reps = self.rejections = self.errors = 0
        self.margins_censored = 0.0

    def import_program(self):
        import pairedrte

        self.prt = pairedrte
        return pairedrte

    def make_inputs(self, src: str) -> None:
        self.scenario = self.prt.simulation.table1_scenario(*self.cell)

    def _run(self, seed: int):
        return self.prt.simulation.run_size_experiment(
            self.scenario, methods=[self.method], transforms=["linear"],
            r=self.r, b=self.b, alpha=0.05, seed=seed)

    def calls(self, index: int):
        seed = self.base + index
        return [(lambda: self._run(seed), self.r, seed)]

    def check(self, index: int, seed: int, result) -> None:
        self.errors += result.errors
        self.reps += result.r
        self.rejections += result.rejections[(self.method, "linear")]
        self.margins_censored += result.censoring_rate_margins * result.r
        self._check_first_replicate(seed)

    def _check_first_replicate(self, seed: int) -> None:
        """theta_hat of the call's first replicate against the oracle."""
        import numpy as np

        prt, s = self.prt, self.scenario
        obs = prt.simulation.draw_paired_sample(s, np.random.default_rng([seed, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", prt.DegenerateRiskWarning)
            theta = prt.estimate_rte(prt.prepare_dataset(obs, s.tau, seed=0)).theta_hat
        ref, _ = oracle.theta_and_survival([(o.x1, o.delta1, o.x2, o.delta2) for o in obs], s.tau)
        self.checks.require(abs(theta - ref) <= 1e-12,
                            f"{self.name} seed={seed}: theta {theta} vs oracle {ref}")

    def finish(self) -> None:
        c = self.checks
        # A replicate whose events are all of one type has theta_hat at 0 or 1
        # and no variance; the harness counts it as an error. That happens in
        # about 1 of 20000 replicates of the n=25 cell, so zero errors cannot
        # be required of every run; a tenth of a percent can.
        c.require(self.errors <= max(1, 0.001 * self.reps),
                  f"{self.name}: {self.errors} harness errors in {self.reps} replicates")
        # The paper's band is widened by the run's Monte Carlo error, as the
        # censoring band is below. The program's asymptotic size at cell 06(b)
        # is 0.064 (10000 replicates), at the band's lower edge of 0.063, so
        # the band alone would fail about a third of the runs.
        rate = self.rejections / self.reps
        tol = self.band + 3.0 * _mc_se(self.paper_size, self.reps)
        c.require(abs(rate - self.paper_size) <= tol,
                  f"{self.name}: size {rate:.4f} over R={self.reps} vs "
                  f"{self.paper_size} +/- {tol:.4f}")
        cens = self.margins_censored / self.reps
        lo, hi = CENSORING_BANDS[self.censoring]
        slack = 3.0 * _mc_se(cens, self.reps * self.scenario.n)
        c.require(lo - slack <= cens <= hi + slack,
                  f"{self.name}: margin censoring {cens:.4f} outside [{lo}, {hi}] +/- {slack:.4f}")


def size_asymptotic(seed, quick, checks):
    return SizeCell(seed, quick, checks, name="size_asymptotic", copula="clayton",
                    family="gompertz_exp", censoring="strong", n=25, method="asymptotic",
                    b=1, r=100, r_quick=20, paper_size=0.083, band=0.020)


def size_randomization(seed, quick, checks):
    return SizeCell(seed, quick, checks, name="size_randomization", copula="gumbel_hougaard",
                    family="exp_mix", censoring="medium", n=100, method="randomization",
                    b=500, r=10, r_quick=2, paper_size=0.052, band=0.017)


# ---------------------------------------------------------------------------
# large_n: all tests on one calibrated-null sample of a few thousand pairs


class LargeN:
    name = "large_n"

    def __init__(self, seed: int, quick: bool, checks: Checks):
        self.seed = seed
        self.n = 400 if quick else 3000
        self.b = 512
        self.base = _base_seed(seed, self.name)
        self.checks = checks
        self.theta_ref = None

    def import_program(self):
        import pairedrte

        self.prt = pairedrte
        return pairedrte

    def make_inputs(self, src: str) -> None:
        sim = self.prt.simulation
        self.scenario = sim.table1_scenario("gumbel_hougaard", "exp_mix", "light", n=self.n)
        self.obs = sim.draw_paired_sample(self.scenario, self.seed)
        self.data = self.prt.prepare_dataset(self.obs, self.scenario.tau, seed=self.seed)

    def calls(self, index: int):
        seed = self.base + index
        op = lambda: self.prt.run_inference(self.data, ALL_METHODS, BOTH_TRANSFORMS,
                                            b=self.b, seed=seed)
        return [(op, 1, seed)]

    def check(self, index: int, seed: int, reports) -> None:
        c = self.checks
        where = f"large_n op seed={seed}"
        if self.theta_ref is None:
            pairs = [(o.x1, o.delta1, o.x2, o.delta2) for o in self.obs]
            self.theta_ref, _ = oracle.theta_and_survival(pairs, self.scenario.tau)
        docs = [r.to_dict() for r in reports]
        c.require(len(docs) == 6, f"{where}: {len(docs)} reports")
        theta = docs[0]["theta_hat"]
        se = docs[0]["sigma_hat"] / math.sqrt(self.n)
        c.require(abs(theta - self.theta_ref) <= 1e-10,
                  f"{where}: theta {theta} vs oracle {self.theta_ref}")
        c.require(abs(theta - 0.5) <= 4.0 * se + 0.002, f"{where}: theta {theta}, se {se}")
        _duality(c, where, docs)
        for d in docs:
            if d["method"] != "asymptotic":
                c.require(d["skipped"] <= 0.1 * self.b, f"{where}: {d['skipped']} skipped")
        if index == 0:
            self._check_bootstrap_spread(seed, docs, se, where)

    def _check_bootstrap_spread(self, seed, docs, se, where) -> None:
        import numpy as np

        prt = self.prt
        dist = prt.bootstrap_distribution(
            self.data, prt.InferenceConfig(method="bootstrap", b=self.b, seed=seed))
        rep = next(d for d in docs if (d["method"], d["transform"]) == ("bootstrap", "linear"))
        self.checks.require(rep["critical_values"] == _two_sided_quantiles(dist.values),
                            f"{where}: bootstrap replicates differ from the report's")
        sd = float(np.std(dist.thetas, ddof=1))
        self.checks.require(abs(sd / se - 1.0) <= 0.15, f"{where}: bootstrap SD {sd} vs se {se}")

    def finish(self) -> None:
        self.checks.require(self.theta_ref is not None, "large_n: no op was checked")


WORKLOADS = {
    "case_study": CaseStudy,
    "size_asymptotic": size_asymptotic,
    "size_randomization": size_randomization,
    "large_n": LargeN,
}
