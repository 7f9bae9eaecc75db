import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import pairedrte

from pairedrte import (
    Dataset,
    DegenerateVariance,
    InferenceConfig,
    InsufficientReplicates,
    PairedObservation,
    ThetaOutOfDomain,
    ValidationError,
    asymptotic_test,
    bootstrap_distribution,
    estimate_rte,
    prepare_dataset,
    randomization_distribution,
    randomize_labels,
    test_and_ci as make_report,
)
from pairedrte.inference import resample_distribution
from pairedrte import _engine
from pairedrte.estimators import counting_processes


def censored_sample(seed=0, n=80, rate2=1.3, cens=2.5, tau=1.8):
    rng = np.random.default_rng(seed)
    t1 = rng.exponential(1.0, n)
    t2 = rng.exponential(1.0 / rate2, n) * rate2  # same law, independent draw
    c1 = rng.uniform(0, cens, n)
    c2 = rng.uniform(0, cens, n)
    obs = [
        PairedObservation(min(a, b), int(a <= b), min(c, d), int(c <= d))
        for a, b, c, d in zip(t1, c1, t2, c2)
    ]
    return prepare_dataset(obs, tau)


@pytest.fixture(scope="module")
def sample():
    return censored_sample()


@pytest.fixture(scope="module")
def est(sample):
    return estimate_rte(sample)


class TestAsymptoticTest:
    def test_centered_estimate_gives_null_statistic(self):
        # Two balanced event types: theta_hat lands exactly on 1/2.
        data = Dataset(z=[1, 2, 3, 4], epsilon=[1, 2, 1, 2], tau=5.0)
        est = estimate_rte(data)
        assert est.theta_hat == pytest.approx(0.5, abs=1e-15)
        rep = asymptotic_test(est, InferenceConfig(method="asymptotic", sided="right"))
        assert rep.statistic == pytest.approx(0.0, abs=1e-12)
        assert rep.p_value == pytest.approx(0.5, abs=1e-12)
        assert not rep.reject

    def test_two_sided_wald_interval(self, est):
        rep = asymptotic_test(est, InferenceConfig(method="asymptotic", sided="two", alpha=0.05))
        z = norm.ppf(0.975)
        lo = max(est.theta_hat - z * est.se, 0.0)
        hi = min(est.theta_hat + z * est.se, 1.0)
        assert rep.ci_lower == pytest.approx(lo, abs=1e-12)
        assert rep.ci_upper == pytest.approx(hi, abs=1e-12)
        assert rep.ci_lower <= est.theta_hat <= rep.ci_upper

    def test_degenerate_variance_refused(self):
        data = Dataset(z=[2.0], epsilon=[2], tau=3.0)
        est = estimate_rte(data)
        with pytest.raises(DegenerateVariance):
            asymptotic_test(est, InferenceConfig(method="asymptotic"))

    def test_loglog_domain_error(self):
        obs = [PairedObservation(2, 1, 1, 1), PairedObservation(4, 1, 3, 1)]
        est = estimate_rte(prepare_dataset(obs, 100.0))
        assert est.theta_hat == 1.0
        with pytest.raises(ThetaOutOfDomain):
            asymptotic_test(est, InferenceConfig(method="asymptotic", transform="loglog"))

    def test_loglog_matches_delta_method_formula(self, est):
        rep = asymptotic_test(
            est, InferenceConfig(method="asymptotic", sided="right", transform="loglog")
        )
        th = est.theta_hat
        expected = (np.log(-np.log(th)) - np.log(-np.log(0.5))) / (
            1.0 / (th * np.log(th)) * est.se
        )
        assert rep.statistic == pytest.approx(expected, rel=1e-12)


class TestNormalRoute:
    def test_far_tail_pvalue_matches_reference(self, est):
        # |t| = 9: the p-value is about 1e-19, not the 0 of 1 - cdf
        far = replace(est, theta_hat=0.5 + 9.0 * est.se)
        for sided, t_sign in (("right", 1.0), ("left", -1.0), ("two", 1.0)):
            e = far if t_sign > 0 else replace(est, theta_hat=0.5 - 9.0 * est.se)
            rep = asymptotic_test(e, InferenceConfig(method="asymptotic", sided=sided))
            assert abs(rep.statistic) == pytest.approx(9.0, rel=1e-12)
            ref = norm.sf(abs(rep.statistic)) * (2.0 if sided == "two" else 1.0)
            assert rep.p_value > 0.0
            assert rep.p_value == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("level", [0.005, 0.025, 0.05, 0.1])
    def test_critical_values_match_reference(self, est, level):
        right = asymptotic_test(est, InferenceConfig(method="asymptotic", sided="right",
                                                     alpha=level))
        left = asymptotic_test(est, InferenceConfig(method="asymptotic", sided="left",
                                                    alpha=level))
        two = asymptotic_test(est, InferenceConfig(method="asymptotic", sided="two",
                                                   alpha=2 * level))
        for got, q in ((right.critical_values[0], 1 - level), (left.critical_values[0], level),
                       (two.critical_values[0], level), (two.critical_values[1], 1 - level)):
            ref = norm.ppf(q)
            assert abs(got - ref) <= 4 * np.spacing(abs(ref)), (q, got, ref)

    def test_import_leaves_scipy_out(self):
        src = str(Path(pairedrte.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        code = "import sys, pairedrte, pairedrte.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_resample_distribution_dispatch(self, sample):
        assert resample_distribution(sample, InferenceConfig(method="asymptotic")) is None
        for method, direct in (("bootstrap", bootstrap_distribution),
                               ("randomization", randomization_distribution)):
            cfg = InferenceConfig(method=method, b=60, seed=4)
            dist = resample_distribution(sample, cfg)
            assert dist.kind == method
            np.testing.assert_array_equal(dist.thetas, direct(sample, cfg).thetas)


class TestBootstrapDistribution:
    def test_single_replicate_deterministic(self, sample):
        cfg = InferenceConfig(method="bootstrap", b=1, seed=42)
        d1 = bootstrap_distribution(sample, cfg)
        d2 = bootstrap_distribution(sample, cfg)
        np.testing.assert_array_equal(d1.thetas, d2.thetas)
        np.testing.assert_array_equal(d1.sigmas2, d2.sigmas2)

    def test_replicates_match_explicit_resampling(self, sample):
        # The batched kernel must agree with literally rebuilding each
        # bootstrap dataset and running the single-sample code path.
        cfg = InferenceConfig(method="bootstrap", b=6, seed=3)
        dist = bootstrap_distribution(sample, cfg)
        rng = np.random.default_rng([3, 7, 0])
        counts = rng.multinomial(sample.n, np.full(sample.n, 1 / sample.n), size=6)
        for b in range(6):
            idx = np.repeat(np.arange(sample.n), counts[b])
            ds = Dataset(z=sample.z[idx], epsilon=sample.epsilon[idx], tau=sample.tau)
            est_b = estimate_rte(ds)
            assert dist.thetas[b] == pytest.approx(est_b.theta_hat, abs=1e-12)
            assert dist.sigmas2[b] == pytest.approx(est_b.sigma2_hat, abs=1e-12)

    def test_counts_match_brute_force_recount(self):
        # Ties within and across all three causes and censorings; each
        # replicate's records are rebuilt and recounted on the original grid.
        rng = np.random.default_rng(17)
        z = rng.integers(1, 9, 40).astype(float)
        eps = rng.integers(0, 4, 40)
        times = counting_processes(Dataset(z=z, epsilon=eps, tau=10.0)).event_times
        b = 25
        y, *dn = _engine.bootstrap_counts(z, eps, times, np.random.default_rng(8), b)
        counts = np.random.default_rng(8).multinomial(40, np.full(40, 1 / 40), size=b)
        for r in range(b):
            z_r, eps_r = np.repeat(z, counts[r]), np.repeat(eps, counts[r])
            np.testing.assert_array_equal(y[r], [np.sum(z_r >= u) for u in times])
            for j in (1, 2, 3):
                recount = [np.sum((z_r == u) & (eps_r == j)) for u in times]
                np.testing.assert_array_equal(dn[j - 1][r], recount)

    def test_identical_records_degenerate(self):
        data = Dataset(z=[5.0] * 12, epsilon=[2] * 12, tau=6.0)
        with pytest.raises(DegenerateVariance):
            bootstrap_distribution(data, InferenceConfig(method="bootstrap", b=50, seed=0))

    def test_needs_two_records(self):
        data = Dataset(z=[1.0], epsilon=[1], tau=2.0)
        with pytest.raises(ValidationError):
            bootstrap_distribution(data, InferenceConfig(method="bootstrap", b=5))

    def test_worker_count_does_not_change_results(self, sample):
        a = bootstrap_distribution(sample, InferenceConfig(method="bootstrap", b=700, seed=9))
        b = bootstrap_distribution(
            sample, InferenceConfig(method="bootstrap", b=700, seed=9, workers=4)
        )
        np.testing.assert_array_equal(a.thetas, b.thetas)


class TestRandomizeLabels:
    def test_only_types_0_and_3_unchanged(self):
        data = Dataset(z=[1, 2, 3], epsilon=[0, 3, 0], tau=4.0)
        out = randomize_labels(data, seed=1)
        np.testing.assert_array_equal(out.epsilon, data.epsilon)
        np.testing.assert_array_equal(out.z, data.z)

    def test_fair_coin(self):
        data = Dataset(z=[1.0], epsilon=[1], tau=2.0)
        flips = [randomize_labels(data, seed=s).epsilon[0] for s in range(10_000)]
        frac = np.mean(np.asarray(flips) == 2)
        assert abs(frac - 0.5) <= 0.015

    def test_randomized_estimate_centers_at_half(self):
        rng = np.random.default_rng(1)
        x1 = rng.exponential(1.0, 60)
        x2 = rng.exponential(0.6, 60)
        obs = [PairedObservation(a, 1, b, 1) for a, b in zip(x1, x2)]
        data = prepare_dataset(obs, 1e9)
        thetas = [
            estimate_rte(randomize_labels(data, seed=s)).theta_hat for s in range(2000)
        ]
        mc_se = np.std(thetas, ddof=1) / np.sqrt(len(thetas))
        assert abs(np.mean(thetas) - 0.5) <= 3 * mc_se


class TestRandomizationDistribution:
    def test_deterministic(self, sample):
        cfg = InferenceConfig(method="randomization", b=5, seed=7)
        d1 = randomization_distribution(sample, cfg)
        d2 = randomization_distribution(sample, cfg)
        np.testing.assert_array_equal(d1.values, d2.values)

    def test_replicates_match_explicit_relabeling(self, sample):
        # Rebuild each relabeled dataset from the same grid-ordered coins and
        # push it through the single-sample estimator and variance paths.
        cfg = InferenceConfig(method="randomization", b=5, seed=11)
        dist = randomization_distribution(sample, cfg)
        cp = counting_processes(sample)
        m = (cp.dn[0] + cp.dn[1]).astype(int)
        flip_slots = np.repeat(np.arange(len(m)), m)
        coins = np.random.default_rng([11, 13, 0]).random((5, len(flip_slots))) < 0.5
        order = np.argsort(sample.z, kind="stable")
        flip_records = [
            i for i in order if sample.epsilon[i] in (1, 2)
        ]  # grid order = ascending z
        for b in range(5):
            eps = sample.epsilon.copy()
            for rec, coin in zip(flip_records, coins[b]):
                eps[rec] = 1 if coin else 2
            ds = Dataset(z=sample.z, epsilon=eps, tau=sample.tau)
            est_b = estimate_rte(ds)
            assert dist.thetas[b] == pytest.approx(est_b.theta_hat, abs=1e-12)
            assert dist.sigmas2[b] == pytest.approx(est_b.sigma2_hat, abs=1e-12)

    def test_at_risk_and_type3_preserved(self, sample):
        cfg = InferenceConfig(method="randomization", b=64, seed=2)
        dist = randomization_distribution(sample, cfg)
        assert dist.kind == "randomization"
        assert dist.theta_ref == 0.5
        out = randomize_labels(sample, seed=5)
        assert int((out.epsilon == 3).sum()) == int((sample.epsilon == 3).sum())
        assert int((out.epsilon == 0).sum()) == int((sample.epsilon == 0).sum())


class TestReportConstruction:
    def test_normal_path_reproduces_asymptotic(self, est):
        for sided in ("right", "left", "two"):
            for transform in ("linear", "loglog"):
                cfg = InferenceConfig(method="asymptotic", sided=sided, transform=transform)
                assert make_report(est, None, cfg) == asymptotic_test(est, cfg)

    def test_insufficient_replicates(self, sample, est):
        cfg = InferenceConfig(method="randomization", b=10, seed=1)
        dist = randomization_distribution(sample, cfg)
        with pytest.raises(InsufficientReplicates):
            make_report(est, dist, cfg)

    def test_pvalue_convention(self, sample, est):
        cfg = InferenceConfig(method="randomization", sided="right", b=199, seed=4)
        dist = randomization_distribution(sample, cfg)
        rep = make_report(est, dist, cfg)
        count = int((dist.values >= rep.statistic).sum())
        assert rep.p_value == pytest.approx((1 + count) / (len(dist.values) + 1))
        assert 0.0 < rep.p_value <= 1.0

    @pytest.mark.parametrize("method", ["asymptotic", "bootstrap", "randomization"])
    @pytest.mark.parametrize("transform", ["linear", "loglog"])
    @pytest.mark.parametrize("sided", ["right", "left", "two"])
    def test_duality_reject_iff_half_outside_ci(self, sample, est, method, transform, sided):
        cfg = InferenceConfig(
            method=method, sided=sided, transform=transform, alpha=0.07, b=300, seed=5
        )
        if method == "asymptotic":
            dist = None
        elif method == "bootstrap":
            dist = bootstrap_distribution(sample, cfg)
        else:
            dist = randomization_distribution(sample, cfg)
        rep = make_report(est, dist, cfg)
        assert rep.reject == (not rep.ci_lower <= 0.5 <= rep.ci_upper)

    def test_monotone_in_alpha(self, sample, est):
        # Smaller alpha -> wider interval: the CIs are nested.
        cfg = InferenceConfig(method="randomization", b=500, seed=6)
        dist = randomization_distribution(sample, cfg)
        prev = None
        for alpha in (0.2, 0.1, 0.05, 0.01):
            rep = make_report(est, dist, InferenceConfig(
                method="randomization", sided="two", alpha=alpha, b=500, seed=6))
            assert rep.ci_lower <= rep.ci_upper
            if prev is not None:
                assert rep.ci_lower <= prev[0] + 1e-12
                assert rep.ci_upper >= prev[1] - 1e-12
            prev = (rep.ci_lower, rep.ci_upper)

    def test_loglog_interval_inside_unit_and_ordered(self, sample, est):
        for method in ("asymptotic", "randomization"):
            cfg = InferenceConfig(method=method, sided="two", transform="loglog", b=400, seed=8)
            dist = None if method == "asymptotic" else randomization_distribution(sample, cfg)
            rep = make_report(est, dist, cfg)
            assert 0.0 < rep.ci_lower <= rep.ci_upper < 1.0

    def test_unstudentized_bootstrap_variant(self, sample, est):
        cfg = InferenceConfig(method="bootstrap", sided="two", b=400, seed=9, studentize=False)
        dist = bootstrap_distribution(sample, cfg)
        rep = make_report(est, dist, cfg)
        assert rep.method == "bootstrap-unstudentized"
        assert rep.statistic == pytest.approx(np.sqrt(est.n) * (est.theta_hat - 0.5))
        lo = est.theta_hat - np.quantile(dist.wstar, 0.975) / np.sqrt(est.n)
        assert rep.ci_lower == pytest.approx(max(lo, 0.0), abs=1e-12)
        assert rep.skipped == 0
        assert rep.b == 400
        with pytest.raises(ValidationError):
            make_report(est, None, cfg)
        with pytest.raises(ValidationError):
            make_report(est, randomization_distribution(sample, replace(cfg, method="randomization",
                                                                        studentize=True)), cfg)
        with pytest.raises(ValidationError):
            InferenceConfig(method="randomization", studentize=False)
        with pytest.raises(ValidationError):
            InferenceConfig(method="bootstrap", transform="loglog", studentize=False)

    def test_report_serializes(self, est):
        rep = asymptotic_test(est, InferenceConfig(method="asymptotic"))
        d = rep.to_dict()
        assert d["method"] == "asymptotic"
        assert set(d) >= {"theta_hat", "statistic", "p_value", "ci_lower", "ci_upper", "reject"}


class TestReplicateSeedDerivation:
    def test_tuple_seeds_are_flattened(self, sample):
        cfg = InferenceConfig(method="randomization", b=40, seed=(3, 5))
        dist = randomization_distribution(sample, cfg)
        rng = np.random.default_rng([3, 5, 13, 0])
        cp = counting_processes(sample)
        dn1, dn2, dn3 = _engine.relabel_counts(cp.dn, rng, 40)
        y = np.broadcast_to(cp.at_risk, dn1.shape)
        np.testing.assert_allclose(dist.thetas, _engine.theta_from_counts(y, dn1, dn2, dn3))
