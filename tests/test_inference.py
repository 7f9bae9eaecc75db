import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import pairedrte
from oracles import (exact_theta_sigma2_cif, randomize_labels, reference_bootstrap_counts,
                     reference_relabel_counts, reference_test, reference_theta_sigma2_cif,
                     relabeling_pvalues)

from pairedrte import (
    Dataset,
    DegenerateVariance,
    InferenceConfig,
    InsufficientReplicates,
    PairedObservation,
    ThetaOutOfDomain,
    ValidationError,
    bootstrap_distribution,
    estimate_rte,
    prepare_dataset,
    randomization_distribution,
    run_inference,
    test_and_ci as make_report,
)
from pairedrte.inference import resample_distribution
from pairedrte import _engine


def event_grid(data):
    return _engine.event_grid(data.z, data.epsilon)


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


def lattice_sample(rng):
    """6 to 13 records on the times 1 to 4, where relabelings often tie in exact arithmetic."""
    n = int(rng.integers(6, 14))
    return Dataset(z=rng.integers(1, 5, n).astype(float),
                   epsilon=rng.choice(4, n, p=[0.2, 0.3, 0.3, 0.2]), tau=10.0)


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
        rep = make_report(est, None, InferenceConfig(method="asymptotic", sided="right"))
        assert rep.statistic == pytest.approx(0.0, abs=1e-12)
        assert rep.p_value == pytest.approx(0.5, abs=1e-12)
        assert not rep.reject

    def test_two_sided_wald_interval(self, est):
        cfg = InferenceConfig(method="asymptotic", sided="two", alpha=0.05)
        rep = make_report(est, None, cfg)
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
            make_report(est, None, InferenceConfig(method="asymptotic"))

    @pytest.mark.parametrize("refusal", ["DegenerateVariance", "InsufficientReplicates",
                                         "ThetaOutOfDomain"])
    def test_refusals_share_one_base(self, refusal):
        # the command line exits 5 and the size harness counts a non-rejection
        # on this one base class
        assert issubclass(getattr(pairedrte, refusal), pairedrte.InferenceRefused)
        assert issubclass(pairedrte.InferenceRefused, pairedrte.PairedRteError)
        assert not issubclass(pairedrte.InferenceRefused, pairedrte.ValidationError)

    def test_loglog_domain_error(self):
        obs = [PairedObservation(2, 1, 1, 1), PairedObservation(4, 1, 3, 1)]
        est = estimate_rte(prepare_dataset(obs, 100.0))
        assert est.theta_hat == 1.0
        with pytest.raises(ThetaOutOfDomain):
            make_report(est, None, InferenceConfig(method="asymptotic", transform="loglog"))

    def test_loglog_matches_delta_method_formula(self, est):
        rep = make_report(
            est, None, InferenceConfig(method="asymptotic", sided="right", transform="loglog")
        )
        th = est.theta_hat
        expected = (np.log(-np.log(th)) - np.log(-np.log(0.5))) / (
            1.0 / (th * np.log(th)) * est.se
        )
        assert rep.statistic == pytest.approx(expected, rel=1e-12)


class TestInferenceConfig:
    @pytest.mark.parametrize("setting, message", [
        (dict(method="jackknife"), "method must be one of"),
        (dict(method="asymptotic", transform="logit"), "transform must be one of"),
    ])
    def test_unknown_method_or_transform(self, setting, message):
        with pytest.raises(ValidationError, match=message):
            InferenceConfig(**setting)


class TestNormalRoute:
    def test_far_tail_pvalue_matches_reference(self, est):
        # |t| = 9: the p-value is about 1e-19, not the 0 of 1 - cdf
        far = replace(est, theta_hat=0.5 + 9.0 * est.se)
        for sided, t_sign in (("right", 1.0), ("left", -1.0), ("two", 1.0)):
            e = far if t_sign > 0 else replace(est, theta_hat=0.5 - 9.0 * est.se)
            rep = make_report(e, None, InferenceConfig(method="asymptotic", sided=sided))
            assert abs(rep.statistic) == pytest.approx(9.0, rel=1e-12)
            ref = norm.sf(abs(rep.statistic)) * (2.0 if sided == "two" else 1.0)
            assert rep.p_value > 0.0
            assert rep.p_value == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("level", [0.005, 0.025, 0.05, 0.1])
    def test_critical_values_match_reference(self, est, level):
        right = make_report(est, None, InferenceConfig(method="asymptotic", sided="right",
                                                       alpha=level))
        left = make_report(est, None, InferenceConfig(method="asymptotic", sided="left",
                                                      alpha=level))
        two = make_report(est, None, InferenceConfig(method="asymptotic", sided="two",
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
        idx = np.random.default_rng([3, 7, 0]).integers(0, sample.n, (6, sample.n))
        for b in range(6):
            ds = Dataset(z=sample.z[idx[b]], epsilon=sample.epsilon[idx[b]], tau=sample.tau)
            est_b = estimate_rte(ds)
            assert dist.thetas[b] == pytest.approx(est_b.theta_hat, abs=1e-12)
            assert dist.sigmas2[b] == pytest.approx(est_b.sigma2_hat, abs=1e-12)

    def test_counts_match_brute_force_recount(self):
        # Ties within and across all three causes and censorings; each
        # replicate's records are rebuilt and recounted on the original grid.
        rng = np.random.default_rng(17)
        z = rng.integers(1, 9, 40).astype(float)
        eps = rng.integers(0, 4, 40)
        times = event_grid(Dataset(z=z, epsilon=eps, tau=10.0))[0]
        b = 25
        draw, _ = _engine.bootstrap_kernel(z, eps, times, 40)
        y, *dn = draw(np.random.default_rng(8), b)
        idx = np.random.default_rng(8).integers(0, 40, (b, 40))
        for r in range(b):
            z_r, eps_r = z[idx[r]], eps[idx[r]]
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


class TestBootstrapDraw:
    def test_record_counts_have_multinomial_moments(self):
        # Every record has a grid time of its own and is an event, so a
        # column's three event counts are the draws of one record. Across
        # replicates these counts are Multinomial(n, 1/n): mean 1, variance
        # (n - 1)/n, covariance -1/n. Each sample moment must lie within 4 of
        # its Monte Carlo standard errors, estimated from the same draws.
        n, reps = 8, 40_000
        z = np.arange(1.0, n + 1)
        eps = np.arange(n) % 3 + 1
        draw, _ = _engine.bootstrap_kernel(z, eps, z, n)
        _, *dn = draw(np.random.default_rng(26), reps)
        counts = sum(dn)
        np.testing.assert_array_equal(counts.sum(axis=1), n)
        dev = counts - 1.0
        i, j = np.triu_indices(n, 1)
        moments = [(counts, 1.0), (dev**2, (n - 1) / n), (dev[:, i] * dev[:, j], -1 / n)]
        for values, want in moments:
            se = values.std(axis=0) / math.sqrt(reps)
            assert np.all(np.abs(values.mean(axis=0) - want) <= 4 * se)


class TestBootstrapKernel:
    SAMPLES = {
        # ties within and across causes, censorings among them
        "ties": ([1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6], [1, 1, 2, 0, 3, 2, 0, 1, 3, 2, 2, 0]),
        # records censored before the first event time have no at-risk slot
        "early_censoring": ([0.5, 0.2, 1.0, 2.0, 2.0, 3.0, 0.7], [0, 0, 2, 1, 0, 3, 0]),
        "one_time": ([1.0, 2.0, 2.0, 3.0, 0.5], [0, 2, 1, 0, 0]),
        "all_censored": ([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0]),
        "two_records": ([1.0, 2.0], [2, 1]),
        "all_type_2": ([1.0, 2.0, 2.0, 3.0, 4.0], [2, 2, 2, 2, 2]),
        "n_300": (np.random.default_rng(3).integers(1, 60, 300),
                  np.random.default_rng(4).integers(0, 4, 300)),
    }

    @pytest.mark.parametrize("name", SAMPLES)
    def test_counts_and_estimates_equal_the_reference(self, name):
        # blocks of falling size, as the row blocks of a distribution come,
        # so later blocks run in a slice of the first block's workspace
        z, eps = (np.asarray(a) for a in self.SAMPLES[name])
        z = z.astype(float)
        times = event_grid(Dataset(z=z, epsilon=eps, tau=100.0))[0]
        draw, evaluate = _engine.bootstrap_kernel(z, eps, times, len(z))
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for rows in (40, 7, 1):
            got = draw(rng, rows)
            want = reference_bootstrap_counts(z, eps, times, ref_rng, rows)
            for g, w in zip(got, want):
                assert g.shape == (rows, len(times))
                assert g.dtype.kind == "i"
                np.testing.assert_array_equal(g, w)
            ref = reference_theta_sigma2_cif(*want, len(z))
            for g, w in zip(evaluate(*got), ref):
                np.testing.assert_array_equal(g, w)
            # the estimate and the harness call the kernel without a workspace
            for g, w in zip(_engine.theta_sigma2_cif_from_counts(*want, len(z)), ref):
                np.testing.assert_array_equal(g, w)

    def test_cube_from_the_square_is_exact_in_the_stated_range(self):
        # the kernel forms Y^3 as Y^2 * Y; every integer count up to 208,063
        # has its cube below 2^53, so both products are exact
        y = np.arange(1.0, 208_064.0)
        np.testing.assert_array_equal(y * y * y, np.power(y, 3))
        assert 208_063**3 < 2**53 < 208_064**3

    @pytest.mark.parametrize("name, skipped", [("all_censored", 50), ("all_type_2", 16)])
    def test_degenerate_samples_raise(self, name, skipped):
        z, eps = self.SAMPLES[name]
        data = Dataset(z=z, epsilon=eps, tau=10.0)
        with pytest.raises(DegenerateVariance, match=f"^{skipped} of 50 replicates"):
            bootstrap_distribution(data, InferenceConfig(method="bootstrap", b=50, seed=0))


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

    def test_is_the_record_level_reference_for_relabel_counts(self):
        rng = np.random.default_rng(3)
        z = np.sort(rng.integers(1, 6, 40).astype(float))
        data = Dataset(z=z, epsilon=rng.integers(0, 4, 40), tau=10.0)
        _, _, dn = event_grid(data)
        for seed in range(20):
            _, _, relabeled = event_grid(randomize_labels(data, seed=seed))
            dn2 = _engine.relabel_counts(dn, np.random.default_rng(seed), 1)
            np.testing.assert_array_equal(dn2[0], relabeled[1])


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
        _, _, dn = event_grid(sample)
        m = (dn[0] + dn[1]).astype(int)
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

    def test_pvalues_equal_exact_relabeling_oracle(self):
        # Lattice times make many relabelings tie with the observed labeling,
        # or with its mirror image, in exact arithmetic.
        rng = np.random.default_rng(2026)
        tested = 0
        while tested < 300:
            data = lattice_sample(rng)
            if exact_theta_sigma2_cif(data.z, data.epsilon)[1] == 0:
                continue
            tested += 1
            est = estimate_rte(data)
            cfg = InferenceConfig(method="randomization", b=100, seed=tested)
            try:
                want = relabeling_pvalues(data, cfg.b, cfg.seed)
            except (DegenerateVariance, InsufficientReplicates) as exc:
                with pytest.raises(type(exc)):
                    make_report(est, randomization_distribution(data, cfg), cfg)
                continue
            dist = randomization_distribution(data, cfg)
            for sided, p_value in want.items():
                assert make_report(est, dist, replace(cfg, sided=sided)).p_value == p_value

    def test_sample_without_events_is_degenerate(self):
        data = Dataset(z=[1.0, 2.0, 3.0], epsilon=[0, 0, 0], tau=5.0)
        with pytest.raises(DegenerateVariance):
            randomization_distribution(data, InferenceConfig(method="randomization", b=50))

    def test_at_risk_and_type3_preserved(self, sample):
        cfg = InferenceConfig(method="randomization", b=64, seed=2)
        dist = randomization_distribution(sample, cfg)
        assert dist.kind == "randomization"
        assert dist.theta_ref == 0.5
        out = randomize_labels(sample, seed=5)
        assert int((out.epsilon == 3).sum()) == int((sample.epsilon == 3).sum())
        assert int((out.epsilon == 0).sum()) == int((sample.epsilon == 0).sum())


# grid cells (type-1/2 events, type-3 events), at least one event each
relabel_cells = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 2)).filter(lambda c: sum(c) > 0),
    min_size=1, max_size=12)


class TestRelabelDraw:
    @settings(max_examples=200, deadline=None)
    @given(relabel_cells, st.integers(1, 30), st.integers(0, 2**32 - 1))
    @example([(1, 0)], 5, 0)  # one-cell grid
    @example([(0, 1), (0, 2)], 5, 1)  # no flippable event
    # type-3-only cells between and after flippable ones
    @example([(2, 0), (0, 1), (0, 2), (4, 1), (0, 1), (3, 0), (0, 2)], 9, 2)
    @example([(4, 0), (4, 2), (1, 0), (4, 0)], 9, 3)  # ties of multiplicity 4
    def test_equals_the_bincount_reference(self, cells, b, seed):
        m, dn3 = np.array(cells, dtype=float).T
        dn = np.stack([m // 2, m - m // 2, dn3])
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _engine.relabel_counts(dn, rng, b)
        np.testing.assert_array_equal(got, reference_relabel_counts(dn, ref_rng, b))
        assert got.dtype == float
        # the same uniforms were drawn, so the generators stand at one position
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("name", TestBootstrapKernel.SAMPLES)
    def test_kernel_blocks_equal_fresh_draws(self, name):
        # blocks of falling size run in leading rows of the first block's
        # workspace; each must equal a fresh draw and a fresh evaluation
        z, eps = (np.asarray(a) for a in TestBootstrapKernel.SAMPLES[name])
        _, at_risk, dn = event_grid(Dataset(z=z.astype(float), epsilon=eps, tau=100.0))
        draw, evaluate = _engine.relabel_kernel(at_risk, dn, len(z))
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for rows in (40, 7, 1):
            (got,) = draw(rng, rows)
            want = reference_relabel_counts(dn, ref_rng, rows)
            np.testing.assert_array_equal(got, want)
            fresh = _engine.relabel_kernel(at_risk, dn, len(z))[1](want)
            for g, w in zip(evaluate(got), fresh):
                np.testing.assert_array_equal(g, w)

    def test_allocates_only_the_uniforms_and_the_rows(self):
        rng = np.random.default_rng(9)
        data = Dataset(z=rng.permutation(100) + 1.0, epsilon=rng.integers(0, 4, 100), tau=1e3)
        _, _, dn = event_grid(data)
        b, k, flippable = 500, dn.shape[1], int((dn[0] + dn[1]).sum())
        tracemalloc.start()
        try:
            _engine.relabel_counts(dn, np.random.default_rng(10), b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * b * (flippable + k)


class TestRelabelKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fused_kernel(self, seed):
        rng = np.random.default_rng(seed)
        n = (12, 40, 300, 3000)[seed % 4]
        z = rng.integers(1, 8, n).astype(float) if seed % 2 else rng.exponential(1.0, n)
        data = Dataset(z=z, epsilon=rng.choice(4, n, p=rng.dirichlet(np.ones(4))), tau=100.0)
        _, at_risk, dn = event_grid(data)
        dn2 = _engine.relabel_counts(dn, np.random.default_rng(seed), 64)
        theta, sigma2 = _engine.relabel_kernel(at_risk, dn, n)[1](dn2)
        dn1 = dn[0] + dn[1] - dn2
        y, dn3 = (np.broadcast_to(a, dn2.shape) for a in (at_risk, dn[2]))
        theta0, sigma20 = _engine.theta_sigma2_cif_from_counts(y, dn1, dn2, dn3, n)
        np.testing.assert_allclose(theta, theta0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sigma2, sigma20, rtol=1e-12, atol=1e-15)

    def test_zero_variance_relabelings_are_exactly_zero(self):
        # no type-3 events and the last time an event: every type-1/2 event
        # on type 2 gives theta = 1 and variance 0, on type 1 theta = 0
        # (without the rule, this sample's all-type-2 variance is 2.2e-16)
        data = Dataset(z=[4.0, 2.0, 4.0, 4.0, 2.0, 3.0], epsilon=[2, 2, 2, 2, 1, 0], tau=9.0)
        _, at_risk, dn = event_grid(data)
        m = dn[0] + dn[1]
        theta, sigma2 = _engine.relabel_kernel(at_risk, dn, data.n)[1](
            np.stack([m, 0 * m, dn[1]]))
        assert theta[:2] == pytest.approx([1.0, 0.0], abs=1e-15)
        assert sigma2[0] == 0.0 and sigma2[1] == 0.0
        assert sigma2[2] > 0


class TestReportConstruction:
    def test_normal_path_reproduces_asymptotic(self, sample, est):
        for sided in ("right", "left", "two"):
            for transform in ("linear", "loglog"):
                cfg = InferenceConfig(method="asymptotic", sided=sided, transform=transform)
                via_run = run_inference(sample, ["asymptotic"], [transform], sided=sided, est=est)
                assert make_report(est, None, cfg) == via_run[0]

    def test_insufficient_replicates(self, sample, est):
        cfg = InferenceConfig(method="randomization", b=10, seed=1)
        dist = randomization_distribution(sample, cfg)
        with pytest.raises(InsufficientReplicates):
            make_report(est, dist, cfg)

    def test_estimate_and_replicates_of_different_sizes(self, sample, est):
        # the estimate and its replicates are studentized with one n
        cfg = InferenceConfig(method="randomization", b=40, seed=1)
        dist = randomization_distribution(censored_sample(seed=1, n=40), cfg)
        with pytest.raises(ValidationError, match="n=80 tested against replicates of n=40"):
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

    def test_critical_value_tying_the_statistic_does_not_reject(self):
        # on lattice samples the quantile of tied relabelings often equals the
        # statistic in exact arithmetic, while their floats differ by ulps
        rng = np.random.default_rng(77)
        ties = 0
        for i in range(200):
            data = lattice_sample(rng)
            est = estimate_rte(data)
            cfg = InferenceConfig(method="randomization", b=400, seed=i)
            try:
                dist = randomization_distribution(data, cfg)
            except DegenerateVariance:
                continue
            for sided in ("right", "left", "two"):
                try:
                    rep = make_report(est, dist, replace(cfg, sided=sided))
                except DegenerateVariance:
                    continue
                tol = 1e-9 * max(1.0, abs(rep.statistic))
                if any(abs(c - rep.statistic) <= tol for c in rep.critical_values):
                    ties += 1
                    assert 0.5 in (rep.ci_lower, rep.ci_upper) and not rep.reject
        assert ties >= 20

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

    def test_bootstrap_skips_degenerate_replicates(self):
        # 25 of the 400 resamples have a zero variance: the studentized
        # statistics skip them, and the quantiles come from the other 375
        rng = np.random.default_rng(1)
        z = rng.integers(1, 6, 10).astype(float)
        eps = rng.choice([0, 1, 2, 2, 2], 10)
        data = Dataset(z=z, epsilon=eps, tau=10.0)
        cfg = InferenceConfig(method="bootstrap", b=400, seed=1)
        dist = bootstrap_distribution(data, cfg)
        assert dist.skipped == 25
        assert len(dist.thetas) == 375
        assert len(dist.values) == 375
        rep = make_report(estimate_rte(data), dist, cfg)
        assert rep.skipped == 25
        assert rep.b == 400
        assert rep.critical_values == (np.quantile(dist.values, 0.025),
                                       np.quantile(dist.values, 0.975))

    def test_report_serializes(self, est):
        rep = make_report(est, None, InferenceConfig(method="asymptotic"))
        d = rep.to_dict()
        assert d["method"] == "asymptotic"
        assert set(d) >= {"theta_hat", "statistic", "p_value", "ci_lower", "ci_upper", "reject"}


class TestReplicateSeedDerivation:
    def test_tuple_seeds_are_flattened(self, sample):
        cfg = InferenceConfig(method="randomization", b=40, seed=(3, 5))
        dist = randomization_distribution(sample, cfg)
        rng = np.random.default_rng([3, 5, 13, 0])
        _, at_risk, dn = event_grid(sample)
        dn2 = _engine.relabel_counts(dn, rng, 40)
        dn1 = dn[0] + dn[1] - dn2
        y = np.broadcast_to(at_risk, dn1.shape)
        thetas, _ = _engine.theta_sigma2_cif_from_counts(y, dn1, dn2, dn[2], sample.n)
        np.testing.assert_allclose(dist.thetas, thetas)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", (3, -5)])
    @pytest.mark.parametrize("method", ["bootstrap", "randomization", "asymptotic"])
    def test_seed_words_must_be_nonnegative_integers(self, sample, method, seed):
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
            resample_distribution(sample, InferenceConfig(method=method, b=40, seed=seed))


def assert_rows_equal_reference(decisions, ests, dists, cfg):
    """Each row of ``_decisions`` against ``reference_test`` on its estimate and distribution.

    The refusal class and decision must be equal, the statistic, critical
    values and interval within 1e-12, and a decided row's usable count that
    of the reference. ``test_and_ci`` on the row, its one-row case, must give
    the block's fields exactly, and the reference's p-value, which the block
    does not compute.
    """
    refusal, counts, (stat, critical, lower, upper, reject, rows) = decisions
    assert (rows is None) == (dists[0] is None)
    k = 0
    for i, (est, dist) in enumerate(zip(ests, dists)):
        try:
            want = reference_test(est, dist, cfg)
        except pairedrte.InferenceRefused as exc:
            assert pairedrte.inference._REFUSALS[refusal[i]] is type(exc)
            with pytest.raises(type(exc)):
                make_report(est, dist, cfg)
            continue
        assert refusal[i] == -1
        assert reject[k] == want["reject"]
        got = [stat[k], *(c[k] for c in critical), lower[k], upper[k]]
        np.testing.assert_allclose(got, [want["statistic"], *want["critical_values"],
                                         want["ci_lower"], want["ci_upper"]],
                                   rtol=1e-12, atol=1e-12)
        if dist is not None:
            assert counts[i] == len(dist.thetas) + dist.skipped - want["skipped"]
        rep = make_report(est, dist, cfg)
        assert (rep.statistic, *rep.critical_values, rep.ci_lower, rep.ci_upper) == tuple(got)
        assert (rep.reject, rep.p_value, rep.skipped) == (reject[k], want["p_value"],
                                                          want["skipped"])
        k += 1
    assert k == len(stat)


class TestWaldDecisions:
    @pytest.mark.parametrize("sided", ["right", "left", "two"])
    @pytest.mark.parametrize("transform", ["linear", "loglog"])
    def test_rows_equal_reference(self, sample, sided, transform):
        rng = np.random.default_rng(43)
        # of the six edge rows, linear refuses the four without a positive
        # variance; log-log refuses the four at 0 or 1 for their domain first
        theta = np.concatenate([rng.uniform(0.2, 0.8, 60), [0.0, 1.0, 0.0, 1.0, 0.5, 0.6]])
        sigma2 = np.concatenate([rng.uniform(0.0, 0.5, 60), [0.0, -1.0, 0.3, 0.3, 0.0, -1.0]])
        cfg = InferenceConfig(method="asymptotic", sided=sided, transform=transform)
        decisions = pairedrte.inference._decisions(theta, sigma2, sample.n, transform, sided, 0.05)
        ests = [pairedrte.RteEstimate(theta_hat=float(th), sigma2_hat=float(s2), n=sample.n,
                                      tau=sample.tau) for th, s2 in zip(theta, sigma2)]
        assert_rows_equal_reference(decisions, ests, [None] * len(ests), cfg)
        assert list(decisions[0][60:]) == ([1, 1, -1, -1, 1, 1] if transform == "linear"
                                           else [0, 0, 0, 0, 1, 1])


class TestResampledDecisions:
    @pytest.mark.parametrize("sided", ["right", "left", "two"])
    @pytest.mark.parametrize("transform", ["linear", "loglog"])
    @pytest.mark.parametrize("method", ["bootstrap", "randomization"])
    def test_padded_rows_equal_reference(self, method, sided, transform):
        # samples of 8 records on the times 1 to 4 skip replicates, exclude
        # log-log ones and refuse whole distributions, so the padded rows
        # differ in length; each setting has refused and rejecting rows. A
        # refused distribution leaves its row NaN: its test refuses as the
        # reference does on no replicates
        rng = np.random.default_rng(44)
        samples = [Dataset(z=rng.integers(1, 5, 8).astype(float),
                           epsilon=rng.choice(4, 8, p=[0.3, 0.25, 0.25, 0.2]), tau=10.0)
                   for _ in range(60)]
        b = 30
        refs = np.full(len(samples), np.nan)
        thetas, sigmas2 = np.full((len(samples), b), np.nan), np.full((len(samples), b), np.nan)
        ests, dists = [], []
        for j, data in enumerate(samples):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", pairedrte.DegenerateRiskWarning)
                ests.append(estimate_rte(data))
            cfg = InferenceConfig(method=method, sided=sided, transform=transform, b=b, seed=j)
            try:
                dist = resample_distribution(data, cfg)
            except pairedrte.InferenceRefused:
                dist = pairedrte.ResampleDistribution(method, np.empty(0), np.empty(0), 8,
                                                      np.nan, b, b)
            else:
                m = len(dist.thetas)
                refs[j], thetas[j, :m], sigmas2[j, :m] = dist.theta_ref, dist.thetas, dist.sigmas2
            dists.append(dist)
        theta = np.array([e.theta_hat for e in ests])
        sigma2 = np.array([e.sigma2_hat for e in ests])
        decisions = pairedrte.inference._decisions(
            theta, sigma2, 8, transform, sided, 0.05, (refs, thetas, sigmas2))
        assert_rows_equal_reference(decisions, ests, dists, cfg)
        refusal, _, (*_, reject, _) = decisions
        assert (refusal >= 0).any() and reject.any()


lattice_samples = st.integers(1, 13).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 4), min_size=n, max_size=n),
    st.lists(st.integers(0, 3), min_size=n, max_size=n)))


class TestEdgeContract:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lattice_samples, st.integers(0, 2**32 - 1))
    def test_every_test_reports_finite_fields_or_refuses_typed(self, records, seed):
        # every method, transform and side on a sample of 1 to 13 records on
        # the times 1 to 4: a report whose every number is finite, or an
        # error of the package raised by the distribution or the test
        z, eps = records
        data = Dataset(z=np.array(z, dtype=float), epsilon=np.array(eps), tau=10.0)
        est = estimate_rte(data)
        for method in pairedrte.inference.METHODS:
            cfg = InferenceConfig(method=method, b=200, seed=seed)
            try:
                dist = resample_distribution(data, cfg)
            except pairedrte.PairedRteError:
                continue
            for transform in pairedrte.inference.TRANSFORMS:
                for sided in pairedrte.inference.SIDES:
                    try:
                        rep = make_report(est, dist, replace(cfg, transform=transform,
                                                             sided=sided))
                    except pairedrte.PairedRteError:
                        continue
                    numbers = [x for v in rep.to_dict().values()
                               for x in (v if isinstance(v, list) else [v])
                               if not isinstance(x, str)]
                    assert all(math.isfinite(x) for x in numbers), rep


class TestDecisionQuantiles:
    # (sided, alpha) settings that ask _decisions for the levels 0.005,
    # 0.025, 0.05, 0.5, 0.95, 0.975 and 0.995
    SETTINGS = (("two", 0.01), ("two", 0.05), ("left", 0.05), ("right", 0.05), ("left", 0.5))

    @staticmethod
    def probs(sided, alpha):
        return {"right": (1.0 - alpha,), "left": (alpha,),
                "two": (alpha / 2.0, 1.0 - alpha / 2.0)}[sided]

    def test_equals_numpy_quantile(self):
        # 3,400 rows of 20 to 2,500 replicates, in NaN-padded blocks, under
        # both transforms. Every other row is rounded and centered at 1/2, so
        # its replicates tie, at zero among others; sorting and numpy's
        # partition may order the two zeros differently, and float == lets a
        # result differ in the sign of a zero alone. About one replicate in
        # ten lies outside (0, 1), which log-log excludes, so a short row may
        # fall below 20 usable and be refused
        rng = np.random.default_rng(29)
        lengths = np.concatenate([np.arange(20, 120), rng.integers(20, 2501, 3300)])
        studentize = pairedrte.inference._studentize
        n, cases = 50, 0
        for part in np.array_split(lengths, 34):
            refs = np.where(np.arange(len(part)) % 2, rng.uniform(0.3, 0.7, len(part)), 0.5)
            thetas, sigmas2 = np.full((2, len(part), part.max()), np.nan)
            for i, m in enumerate(part):
                th, s2 = 0.5 + 0.3 * rng.standard_normal(m), rng.uniform(0.1, 0.2, m)
                thetas[i, :m], sigmas2[i, :m] = (th, s2) if i % 2 else np.round((th, s2), 2)
            estimate = np.full(len(part), 0.6), np.full(len(part), 0.1)
            for transform in pairedrte.inference.TRANSFORMS:
                values = []
                for ref, th, s2 in zip(refs, thetas, sigmas2):
                    keep = ~np.isnan(th) & ((th > 0.0) & (th < 1.0) | (transform == "linear"))
                    values.append(studentize(th[keep], ref, np.sqrt(s2[keep] / n), transform))
                decided = [v for v in values if len(v) >= 20]
                for sided, alpha in self.SETTINGS:
                    refusal, counts, (_, critical, *_) = pairedrte.inference._decisions(
                        *estimate, n, transform, sided, alpha, (refs, thetas, sigmas2))
                    assert list(counts) == [len(v) for v in values]
                    assert list(refusal) == [-1 if len(v) >= 20 else 2 for v in values]
                    for q, c in zip(self.probs(sided, alpha), critical):
                        assert list(c) == [np.quantile(v, q) for v in decided]
                        cases += len(decided)
        assert cases >= 30_000

    def test_randomization_report_reads_numpy_quantiles(self, sample, est):
        # test_bootstrap_skips_degenerate_replicates checks the bootstrap route
        cfg = InferenceConfig(method="randomization", b=400, seed=9)
        dist = randomization_distribution(sample, cfg)
        rep = make_report(est, dist, cfg)
        assert rep.critical_values == tuple(np.quantile(dist.values, (0.025, 0.975)))


class TestReplicateBlocks:
    @pytest.mark.parametrize("method", ["bootstrap", "randomization"])
    def test_row_blocks_change_nothing(self, sample, method, monkeypatch):
        cfg = InferenceConfig(method=method, b=600, seed=45)
        whole = resample_distribution(sample, cfg)
        # 7-row blocks: a bootstrap draw spends one cell per record and row,
        # a relabeling one per grid time
        width = sample.n if method == "bootstrap" else len(event_grid(sample)[0])
        monkeypatch.setattr(_engine, "BLOCK_CELLS", 7 * width)
        blocked = resample_distribution(sample, cfg)
        np.testing.assert_array_equal(blocked.thetas, whole.thetas)
        np.testing.assert_array_equal(blocked.sigmas2, whole.sigmas2)

    @staticmethod
    def workload(method, n):
        sim = pairedrte.simulation
        scenario = sim.table1_scenario("gumbel_hougaard", "exp_mix", "light", n=n)
        data = prepare_dataset(sim.draw_paired_sample(scenario, 46), scenario.tau)
        return data, InferenceConfig(method=method, b=64, seed=47)

    @classmethod
    def peak_memory(cls, method, n):
        data, cfg = cls.workload(method, n)
        tracemalloc.start()
        try:
            resample_distribution(data, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_bootstrap_memory_is_linear_in_n(self):
        assert self.peak_memory("bootstrap", 20_000) <= 2.5 * self.peak_memory("bootstrap", 10_000)

    def test_bootstrap_time_is_linear_in_n(self):
        # the two sizes alternate, so a slow spell of the machine reaches both
        workloads = {n: self.workload("bootstrap", n) for n in (10_000, 20_000)}
        best = dict.fromkeys(workloads, math.inf)
        for _ in range(5):
            for n, (data, cfg) in workloads.items():
                start = time.perf_counter()
                bootstrap_distribution(data, cfg)
                best[n] = min(best[n], time.perf_counter() - start)
        assert best[20_000] <= 2.5 * best[10_000]

    def test_randomization_memory_is_linear_in_n(self):
        assert (self.peak_memory("randomization", 20_000)
                <= 2.5 * self.peak_memory("randomization", 10_000))


class TestRunInferenceMemory:
    """tracemalloc peak of every method and transform at B = 512.

    Row blocks of at most ``_engine.BLOCK_CELLS`` cells, not n, set it:
    measured 3.6, 3.8 and 4.3 MB at n = 1,000, 4,000 and 16,000.
    """

    @staticmethod
    def peak(n):
        sim = pairedrte.simulation
        scenario = sim.table1_scenario("gumbel_hougaard", "exp_mix", "medium", n=n)
        data = prepare_dataset(sim.draw_paired_sample(scenario, 7), scenario.tau)
        tracemalloc.start()
        try:
            run_inference(data, ["asymptotic", "bootstrap", "randomization"],
                          ["linear", "loglog"], b=512, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_bounded_and_grows_linearly_in_n(self):
        peaks = {n: self.peak(n) for n in (1_000, 4_000, 16_000)}
        assert max(peaks.values()) < 8e6
        assert peaks[16_000] < 1.5 * peaks[1_000]


@pytest.mark.parametrize("b", [-5, 0, 2.5])
@pytest.mark.parametrize("method", ["asymptotic", "bootstrap", "randomization"])
def test_b_is_checked_for_every_method(method, b):
    # the normal limit draws nothing, but a run reports b whatever its methods
    with pytest.raises(ValidationError, match=f"b must be an integer at least 1, got {b}"):
        InferenceConfig(method=method, b=b)


def test_numpy_counts_are_stored_as_python_ints(sample):
    cfg = InferenceConfig("bootstrap", b=np.int64(30), seed=(np.uint32(1), 2))
    assert (type(cfg.b), cfg.seed, [type(w) for w in cfg.seed]) == (int, (1, 2), [int, int])
    reports = run_inference(sample, ["bootstrap"], ["linear"], b=np.int64(40), seed=np.uint32(1))
    assert (type(reports[0].b), type(reports[0].seed)) == (int, int)
    json.dumps([r.to_dict() for r in reports])


@pytest.mark.parametrize("methods, transforms", [
    ([], ["linear"]), (["asymptotic"], []), (["asymptotic", "asymptotic"], ["linear"]),
], ids=["no-method", "no-transform", "repeated-method"])
def test_run_inference_refuses_empty_or_repeated_names(sample, methods, transforms):
    # these returned [] or the same report twice; the size harness refuses them alike
    with pytest.raises(ValidationError, match="must be nonempty and distinct"):
        run_inference(sample, methods, transforms)


def test_one_shot_iterables_give_every_report(sample):
    reports = run_inference(sample, iter(["asymptotic", "bootstrap"]), iter(["linear", "loglog"]),
                            b=200)
    assert [(r.method, r.transform) for r in reports] == [
        ("asymptotic", "linear"), ("asymptotic", "loglog"),
        ("bootstrap", "linear"), ("bootstrap", "loglog"),
    ]
