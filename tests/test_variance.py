import numpy as np
import pytest

from pairedrte import Dataset, PairedObservation, estimate_rte, prepare_dataset


def random_dataset(rng, max_events=10):
    n = int(rng.integers(2, 40))
    z = rng.integers(1, max_events + 1, n).astype(float)
    eps = rng.integers(0, 4, n)
    if not (eps > 0).any():
        eps[0] = 1
    return Dataset(z=z, epsilon=eps, tau=float(z.max()) + 1.0)


class TestSigmaThetaPlugin:
    """The plug-in variance ``estimate_rte`` reports as ``sigma2_hat``."""

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
        base = estimate_rte(data).sigma2_hat
        for phi in (lambda t: 2.0 * t, lambda t: t**2, lambda t: np.log1p(t)):
            mapped = Dataset(z=phi(data.z), epsilon=data.epsilon, tau=float(phi(data.tau)))
            assert estimate_rte(mapped).sigma2_hat == pytest.approx(base, rel=1e-12)
