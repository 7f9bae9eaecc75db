import numpy as np
import pytest

from oracles import naive_sigma2

from pairedrte import _engine
from pairedrte import (
    Dataset,
    DegenerateVariance,
    PairedObservation,
    counting_processes,
    estimate_rte,
    greenwood_curves,
    prepare_dataset,
    sigma_theta_plugin,
)


def random_dataset(rng, max_events=10):
    n = int(rng.integers(2, 40))
    z = rng.integers(1, max_events + 1, n).astype(float)
    eps = rng.integers(0, 4, n)
    if not (eps > 0).any():
        eps[0] = 1
    return Dataset(z=z, epsilon=eps, tau=float(z.max()) + 1.0)


def plugin_of(data):
    est = estimate_rte(data)
    return sigma_theta_plugin(est.curves, greenwood_curves(est.curves.cp), data.tau)


class TestGreenwoodCurves:
    def test_no_cause_events_zero(self):
        cp = counting_processes(Dataset(z=[1, 2], epsilon=[2, 0], tau=3.0))
        curves = greenwood_curves(cp)
        assert curves.sigma2[1].at(3.0) == 0.0
        assert curves.sigma2[3].at(3.0) == 0.0

    def test_tie_free_covariances_vanish(self):
        data = Dataset(z=[1, 2, 3, 4], epsilon=[1, 2, 3, 0], tau=5.0)
        curves = greenwood_curves(counting_processes(data))
        for pair, curve in curves.sigma_cross.items():
            assert curve.at(5.0) == 0.0, pair

    def test_hand_value(self):
        data = Dataset(z=[1, 2, 3, 4], epsilon=[1, 0, 2, 3], tau=5.0)
        curves = greenwood_curves(counting_processes(data))
        assert curves.sigma2[1].at(4.0) == pytest.approx(4 * 3 / 4**3)

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            data = random_dataset(rng, max_events=6)
            curves = greenwood_curves(counting_processes(data))
            for j in (1, 2, 3):
                assert np.all(np.diff(np.concatenate(([0.0], curves.sigma2[j].values))) >= 0)
            for curve in curves.sigma_cross.values():
                assert np.all(np.diff(np.concatenate(([0.0], curve.values))) <= 0)

    def test_all_cause_identity(self):
        # sigma2_all = sum_j sigma2_j + sum_{j != l} sigma_jl (ordered pairs)
        rng = np.random.default_rng(1)
        for _ in range(25):
            data = random_dataset(rng, max_events=5)
            curves = greenwood_curves(counting_processes(data))
            t = data.tau
            lhs = curves.sigma2_all.at(t)
            rhs = sum(curves.sigma2[j].at(t) for j in (1, 2, 3)) + 2 * sum(
                c.at(t) for c in curves.sigma_cross.values()
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)


    def test_increments_shared_with_engine(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            cp = counting_processes(random_dataset(rng, max_events=6))
            curves = greenwood_curves(cp)
            var, cov, var_all = _engine.greenwood_increments(cp.at_risk, *cp.dn, cp.n)
            for j in (1, 2, 3):
                np.testing.assert_array_equal(curves.sigma2[j].values, np.cumsum(var[j - 1]))
            np.testing.assert_array_equal(curves.sigma2_all.values, np.cumsum(var_all))
            np.testing.assert_array_equal(curves.sigma_cross[(1, 3)].values, np.cumsum(cov[1]))

    def test_empty_risk_set_increments_vanish(self):
        y = np.array([3.0, 0.0])
        var, cov, var_all = _engine.greenwood_increments(
            y, np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.zeros(2), 5)
        assert var[0].tolist() == [5 * 2 / 27, 0.0]
        assert cov[0].tolist() == [-5 / 27, 0.0]
        assert var_all.tolist() == [5 * 2 / 27, 0.0]


class TestSigmaThetaPlugin:
    def test_zero_events_degenerate(self):
        data = Dataset(z=[1, 2], epsilon=[0, 0], tau=3.0)
        est_curves = estimate_rte(data).curves
        with pytest.raises(DegenerateVariance):
            sigma_theta_plugin(est_curves, greenwood_curves(est_curves.cp), data.tau)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            data = random_dataset(rng)
            got = plugin_of(data)
            want = naive_sigma2(data.z, data.epsilon, data.n, data.tau)
            assert got == pytest.approx(max(want, 0.0), abs=1e-10)

    def test_evaluation_at_smaller_tau(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng)
        est = estimate_rte(data)
        var = greenwood_curves(est.curves.cp)
        mid = float(np.median(data.z))
        got = sigma_theta_plugin(est.curves, var, mid)
        want = naive_sigma2(data.z, data.epsilon, data.n, mid)
        assert got == pytest.approx(max(want, 0.0), abs=1e-10)

    def test_sign_test_variance_at_large_n(self):
        # Fully observed tie-free pairs: the effect estimate is the sign
        # fraction, whose binomial variance is the oracle.
        rng = np.random.default_rng(5)
        n = 1000
        x1 = rng.exponential(1.0, n)
        x2 = rng.exponential(1.3, n)
        obs = [PairedObservation(a, 1, b, 1) for a, b in zip(x1, x2)]
        est = estimate_rte(prepare_dataset(obs, 1e9))
        assert abs(est.sigma2_hat - est.theta_hat * (1 - est.theta_hat)) <= 0.02

    def test_scale_invariance(self):
        # Depends only on counts and ordering: common strictly increasing
        # time transformations leave the estimate unchanged.
        rng = np.random.default_rng(6)
        data = random_dataset(rng)
        base = plugin_of(data)
        for phi in (lambda t: 2.0 * t, lambda t: t**2, lambda t: np.log1p(t)):
            mapped = Dataset(z=phi(data.z), epsilon=data.epsilon, tau=float(phi(data.tau)))
            assert plugin_of(mapped) == pytest.approx(base, rel=1e-12)

    def test_single_record_clamps_to_zero(self):
        data = Dataset(z=[2.0], epsilon=[2], tau=3.0)
        est = estimate_rte(data)
        assert est.sigma2_hat == 0.0

    def test_mismatched_curves_rejected(self):
        d1 = Dataset(z=[1, 2], epsilon=[1, 2], tau=3.0)
        d2 = Dataset(z=[1, 3], epsilon=[1, 2], tau=4.0)
        est1 = estimate_rte(d1)
        var2 = greenwood_curves(counting_processes(d2))
        with pytest.raises(ValueError):
            sigma_theta_plugin(est1.curves, var2, 3.0)


class TestMonteCarloConsistency:
    def test_variance_tracks_replicate_spread(self):
        # Mean plug-in variance across replicates within 10% of the empirical
        # variance of sqrt(n) theta_hat under a fixed censored scenario.
        rng = np.random.default_rng(7)
        n, reps = 200, 2000
        sig2, th = [], []
        for _ in range(reps):
            t1 = rng.exponential(1.0, n)
            t2 = np.minimum(rng.exponential(1.2, n), rng.exponential(1.2, n))
            c1 = rng.uniform(0, 3.0, n)
            c2 = rng.uniform(0, 3.0, n)
            obs = [
                PairedObservation(min(a, b), int(a <= b), min(c, d), int(c <= d))
                for a, b, c, d in zip(t1, c1, t2, c2)
            ]
            est = estimate_rte(prepare_dataset(obs, tau=1.5))
            sig2.append(est.sigma2_hat)
            th.append(est.theta_hat)
        emp = n * np.var(th, ddof=1)
        assert abs(np.mean(sig2) - emp) <= 0.10 * emp
