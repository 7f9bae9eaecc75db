"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Monte Carlo criteria use pinned seeds; their tolerances cover
the replication noise at the prescribed run sizes.
"""

import time
from importlib import resources

import numpy as np
from scipy.stats import kendalltau, kstest

from oracles import cross_pair_comparison, naive_curves, naive_sigma2_cif

import pairedrte.simulation as sim
from pairedrte import _engine
from pairedrte import (
    Dataset,
    InferenceConfig,
    PairedObservation,
    bootstrap_distribution,
    estimate_rte,
    prepare_dataset,
    randomization_distribution,
    read_paired_csv,
    run_inference,
    test_and_ci as make_report,
)

DATA = resources.files("pairedrte").joinpath("datasets")

# Case-study reference values (95% two-sided intervals and p-values).
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


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def load_group(label):
    obs = read_paired_csv(str(DATA / "diabetic.csv"))
    return [o for o in obs if o.group == label]


def test_01_worked_example_golden_values():
    t0 = time.perf_counter()
    table1 = read_paired_csv(str(DATA / "example1_table1.csv"))
    table2 = read_paired_csv(str(DATA / "example1_table2.csv"))

    theta1 = estimate_rte(prepare_dataset(table1, 1e6)).theta_hat
    theta2 = estimate_rte(prepare_dataset(table2, 1e6)).theta_hat
    mw1 = cross_pair_comparison(table1)
    mw2_sub = {
        g: cross_pair_comparison([o for o in table2 if o.group == g])
        for g in ("1", "2")
    }

    # whole-sample cross-pair value for the second table, by brute force
    brute = 0.0
    for a in table2:
        for b in table2:
            brute += (a.x1 > b.x2) + 0.5 * (a.x1 == b.x2)
    brute /= len(table2) ** 2
    mw2 = cross_pair_comparison(table2)

    elapsed = time.perf_counter() - t0
    ok = (
        theta1 == 1.0
        and theta2 == 0.75
        and mw1 == 10 / 16
        and mw2_sub["1"] == 3 / 4
        and mw2_sub["2"] == 1 / 2
        and mw2 == brute
        and elapsed < 1.0
    )
    report(
        1,
        "worked-example golden values",
        ok,
        f"theta={theta1:g},{theta2:g} mw={mw1:g} sub={mw2_sub['1']:g},{mw2_sub['2']:g} "
        f"whole-sample brute force={brute:g} (source text quotes 7/16; enumeration "
        f"gives 9/16, asserted against the oracle) [{elapsed:.2f}s]",
    )


def test_02_case_study_reproduction():
    t0 = time.perf_counter()
    details = []
    ok = True
    for label, target_theta in (("juvenile", 0.598), ("adult", 0.731)):
        data = prepare_dataset(load_group(label), 60.0)
        est = estimate_rte(data)
        ok &= abs(est.theta_hat - target_theta) <= 0.002
        details.append(f"{label}: theta={est.theta_hat:.4f}")
        reports = run_inference(
            data,
            ["asymptotic", "bootstrap", "randomization"],
            ["linear", "loglog"],
            sided="two",
            alpha=0.05,
            b=2000,
            seed=1,
            est=est,
        )
        for rep in reports:
            lo, hi = TABLE2[label][(rep.method, rep.transform)]
            tol = CI_TOL[rep.method]
            ci_ok = abs(rep.ci_lower - lo) <= tol and abs(rep.ci_upper - hi) <= tol
            if label == "adult":
                p_ok = rep.p_value < 0.001
            else:
                p_ok = 0.008 <= rep.p_value <= 0.035
            ok &= ci_ok and p_ok
            if not (ci_ok and p_ok):
                details.append(
                    f"{label} {rep.method}/{rep.transform}: CI=[{rep.ci_lower:.4f},"
                    f"{rep.ci_upper:.4f}] vs [{lo},{hi}] p={rep.p_value:.4f}"
                )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(2, "case-study reproduction", ok, "; ".join(details) + f" [{elapsed:.1f}s]")


def test_03_variance_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 40))
        z = rng.integers(1, 11, n).astype(float)
        eps = rng.integers(0, 4, n)
        if not (eps > 0).any():
            eps[0] = 2
        data = Dataset(z=z, epsilon=eps, tau=float(z.max()) + 1.0)
        got = estimate_rte(data).sigma2_hat
        want = max(naive_sigma2_cif(z, eps, n), 0.0)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    report(3, "nested-sum oracle equivalence", ok, f"worst |diff|={worst:.2e} [{elapsed:.1f}s]")


def test_04_sign_test_reduction():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 120))
        x1 = rng.exponential(1.0, n)
        x2 = rng.exponential(0.8, n)
        obs = [PairedObservation(a, 1, b, 1) for a, b in zip(x1, x2)]
        est = estimate_rte(prepare_dataset(obs, 1e9))
        worst = max(worst, abs(est.theta_hat - float(np.mean(x1 > x2))))
    # n = 1000: plug-in variance against the binomial sign-statistic variance
    x1 = rng.exponential(1.0, 1000)
    x2 = rng.exponential(1.3, 1000)
    obs = [PairedObservation(a, 1, b, 1) for a, b in zip(x1, x2)]
    est = estimate_rte(prepare_dataset(obs, 1e9))
    var_gap = abs(est.sigma2_hat - est.theta_hat * (1.0 - est.theta_hat))
    ok = worst <= 1e-12 and var_gap <= 0.02
    report(
        4,
        "sign-test reduction",
        ok,
        f"worst theta gap={worst:.2e} (exact up to double rounding), variance gap={var_gap:.4f}",
    )


def test_05_variance_consistency_under_simulation():
    t0 = time.perf_counter()
    scenario = sim.table1_scenario("gumbel_hougaard", "exp_mix", "light", n=200)
    # replicate rep is drawn from default_rng([505, rep]), prepared and
    # estimated as prepare_dataset and estimate_rte do, a block at a time
    step = _engine.BLOCK_CELLS // scenario.n
    blocks = [sim._estimate_block(scenario, 505, range(start, min(2000, start + step)))
              for start in range(0, 2000, step)]
    assert all(block[3] == {} for block in blocks)
    thetas = np.concatenate([block[4] for block in blocks])
    sig2 = np.concatenate([block[5] for block in blocks])
    emp = scenario.n * float(np.var(thetas, ddof=1))
    mean_plugin = float(np.mean(sig2))
    elapsed = time.perf_counter() - t0
    ok = abs(mean_plugin - emp) <= 0.10 * emp and elapsed < 300.0
    report(
        5,
        "variance consistency (n=200, R=2000)",
        ok,
        f"mean plug-in={mean_plugin:.4f} empirical={emp:.4f} "
        f"ratio={mean_plugin / emp:.3f} [{elapsed:.1f}s]",
    )


def test_06_size_study_cells():
    t0 = time.perf_counter()
    s_a = sim.table1_scenario("gumbel_hougaard", "exp_mix", "medium", n=100)
    res_a = sim.run_size_experiment(
        s_a, methods=["randomization"], transforms=["linear"],
        r=1000, b=500, alpha=0.05, seed=107,
    )
    rate_a = res_a.rate("randomization", "linear")

    s_b = sim.table1_scenario("clayton", "gompertz_exp", "strong", n=25)
    res_b = sim.run_size_experiment(
        s_b, methods=["asymptotic"], transforms=["linear"],
        r=1000, b=1, alpha=0.05, seed=107,
    )
    rate_b = res_b.rate("asymptotic", "linear")

    elapsed = time.perf_counter() - t0
    ok_a = abs(rate_a - 0.052) <= 0.017
    ok_b = abs(rate_b - 0.083) <= 0.020
    ok = ok_a and ok_b and elapsed < 900.0
    report(
        6,
        "size-study cell reproduction",
        ok,
        f"(a) randomization/linear={rate_a:.4f} vs 0.052+/-0.017; "
        f"(b) asymptotic/linear={rate_b:.4f} vs 0.083+/-0.020 [{elapsed:.1f}s]",
    )


def test_07_finite_exactness_under_exchangeability():
    t0 = time.perf_counter()
    scenario = sim.Scenario(
        copula="gumbel_hougaard",
        copula_param=5.0,
        marginal1=sim.Exponential(2.0),
        marginal2=sim.Exponential(2.0),
        censoring=sim.Uniform(2.7),
        tau=1.0,
        n=50,
    )
    res = sim.run_size_experiment(
        scenario, methods=["randomization"], transforms=["linear"],
        r=2000, b=500, alpha=0.05, seed=107,
    )
    rate = res.rate("randomization", "linear")
    elapsed = time.perf_counter() - t0
    ok = 0.035 <= rate <= 0.065
    report(
        7,
        "finite exactness under exchangeability",
        ok,
        f"size={rate:.4f} in [0.035, 0.065] [{elapsed:.1f}s]",
    )


def test_08_copula_samplers():
    n = 100_000
    u_gh = sim.sample_copula("gumbel_hougaard", 5.0, n, seed=88)
    u_cl = sim.sample_copula("clayton", -0.6, n, seed=89)
    tau_gh = kendalltau(u_gh[:, 0], u_gh[:, 1]).statistic
    tau_cl = kendalltau(u_cl[:, 0], u_cl[:, 1]).statistic
    ks = [kstest(u[:, j], "uniform").statistic for u in (u_gh, u_cl) for j in (0, 1)]
    # lifetime marginals of the two null-study families
    rng = np.random.default_rng(90)
    m_exp = sim.Exponential(2.0)
    params = sim.load_calibrated_params()
    m_mix = sim.Mixture(0.5, sim.Exponential(3.0),
                        sim.Exponential(params["gumbel_hougaard__exp_mix"]["param"]))
    ks_life = [
        kstest(np.asarray(m.quantile(1.0 - rng.random(n))), m.cdf).statistic
        for m in (m_exp, m_mix)
    ]
    ok = (
        abs(tau_gh - 0.8) <= 0.01
        and abs(tau_cl - (-0.6 / 1.4)) <= 0.01
        and max(ks) < 0.01
        and max(ks_life) < 0.01
    )
    report(
        8,
        "copula samplers",
        ok,
        f"tau(GH5)={tau_gh:.4f} tau(Clayton-0.6)={tau_cl:.4f} "
        f"max KS uniform={max(ks):.4f} max KS lifetime={max(ks_life):.4f}",
    )


def test_09_identity_suite():
    rng = np.random.default_rng(99)
    worst_diff = 0.0
    worst_add = 0.0
    worst_theta = 0.0
    # tie-free fully observed: the incidence difference identity is exact
    for _ in range(50):
        n = int(rng.integers(2, 80))
        x1 = rng.exponential(1.0, n)
        x2 = rng.exponential(1.1, n)
        obs = [PairedObservation(a, 1, b, 1) for a, b in zip(x1, x2)]
        data = prepare_dataset(obs, 1e9)
        _, _, f = naive_curves(data.z, data.epsilon, data.tau)
        lhs, rhs = 1.0 - 2.0 * estimate_rte(data).theta_hat, f[1][-1] - f[2][-1]
        worst_diff = max(worst_diff, abs(lhs - rhs))
    # additivity on arbitrary censored data with ties, where the estimate is
    # the curves' F2 + F3/2
    for _ in range(50):
        n = int(rng.integers(1, 60))
        z = rng.integers(1, 9, n).astype(float)
        eps = rng.integers(0, 4, n)
        data = Dataset(z=z, epsilon=eps, tau=float(z.max()) + 1.0)
        _, s, f = naive_curves(z, eps, data.tau)
        total = f[1][-1] + f[2][-1] + f[3][-1] + s[-1]
        worst_add = max(worst_add, abs(total - 1.0))
        theta = f[2][-1] + f[3][-1] / 2
        worst_theta = max(worst_theta, abs(estimate_rte(data).theta_hat - theta))
    # duality on every analyzed dataset
    duality_ok = True
    checked = 0
    for label in ("juvenile", "adult"):
        data = prepare_dataset(load_group(label), 60.0)
        est = estimate_rte(data)
        for method in ("asymptotic", "bootstrap", "randomization"):
            cfg0 = InferenceConfig(method=method, b=300, seed=9)
            if method == "asymptotic":
                dist = None
            elif method == "bootstrap":
                dist = bootstrap_distribution(data, cfg0)
            else:
                dist = randomization_distribution(data, cfg0)
            for transform in ("linear", "loglog"):
                for sided in ("right", "left", "two"):
                    rep = make_report(
                        est, dist,
                        InferenceConfig(method=method, sided=sided, transform=transform,
                                        alpha=0.05, b=300, seed=9),
                    )
                    duality_ok &= rep.reject == (not rep.ci_lower <= 0.5 <= rep.ci_upper)
                    checked += 1
    ok = worst_diff <= 1e-12 and worst_add <= 1e-12 and worst_theta <= 1e-12 and duality_ok
    report(
        9,
        "identity suite",
        ok,
        f"incidence-difference |gap|={worst_diff:.2e}, additivity |gap|={worst_add:.2e}, "
        f"theta_hat vs F2 + F3/2 |gap|={worst_theta:.2e}, "
        f"duality holds on {checked} reports",
    )


def test_10_power_curve_properties():
    t0 = time.perf_counter()
    ks = (1.0, 1.5, 2.0)
    ns = (25, 100)
    grid = [
        (f"k={k},n={n}", sim.power_scenario(3, "gumbel_hougaard", k, n))
        for n in ns
        for k in ks
    ]
    results = sim.run_power_experiment(
        grid, methods=["randomization"], transforms=["linear"],
        r=400, b=300, alpha=0.05, seed=31,
    )
    power = {res.label: res.rate("randomization", "linear") for res in results}
    se = {res.label: res.mc_se("randomization", "linear") for res in results}

    def comb(a, b):
        return 2.0 * float(np.hypot(se[a], se[b]))

    ok = True
    # monotone in the departure parameter for each n
    for n in ns:
        for k0, k1 in zip(ks, ks[1:]):
            a, b = f"k={k0},n={n}", f"k={k1},n={n}"
            ok &= power[b] >= power[a] - comb(a, b)
    # monotone in n at each grid point
    for k in ks:
        a, b = f"k={k},n=25", f"k={k},n=100"
        ok &= power[b] >= power[a] - comb(a, b)
    # null endpoint: conservative-or-exact at n=25, equal to alpha at n=100
    null_small, null_big = "k=1.0,n=25", "k=1.0,n=100"
    ok &= power[null_small] <= 0.05 + 2.0 * se[null_small]
    ok &= abs(power[null_big] - 0.05) <= 2.0 * max(se[null_big], 0.011)
    elapsed = time.perf_counter() - t0
    report(
        10,
        "power curve properties",
        ok,
        "; ".join(f"{lbl}={power[lbl]:.3f}" for lbl in power) + f" [{elapsed:.1f}s]",
    )
