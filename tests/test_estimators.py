import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ipcw_form, naive_curves, naive_sigma2_cif, unique_event_grid

from pairedrte import _engine
from pairedrte import (
    Dataset,
    EmptyDataset,
    PairedObservation,
    estimate_rte,
    prepare_dataset,
)

# Small competing-risks samples on a lattice, so times tie within and across causes.
records = st.lists(st.tuples(st.integers(1, 8), st.integers(0, 3)), min_size=2, max_size=30)


@pytest.fixture
def four_records():
    # Hand enumeration: grid {1, 3, 4}; Y = 4, 2, 1; one event per cause.
    return Dataset(z=[1, 2, 3, 4], epsilon=[1, 0, 2, 3], tau=5.0)


def event_grid(data):
    return _engine.event_grid(data.z, data.epsilon)


class TestEventGrid:
    def test_hand_enumeration(self, four_records):
        times, at_risk, dn = event_grid(four_records)
        np.testing.assert_array_equal(times, [1, 3, 4])
        np.testing.assert_array_equal(at_risk, [4, 2, 1])
        np.testing.assert_array_equal(dn, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_all_censored(self):
        times, _, _ = event_grid(Dataset(z=[1, 2], epsilon=[0, 0], tau=3.0))
        assert len(times) == 0

    def test_tie_multiplicities(self):
        _, at_risk, dn = event_grid(Dataset(z=[2, 2], epsilon=[1, 1], tau=3.0))
        np.testing.assert_array_equal(dn[0], [2])
        np.testing.assert_array_equal(at_risk, [2])

    def test_monotone_at_risk(self, four_records):
        _, at_risk, dn = event_grid(four_records)
        assert np.all(np.diff(at_risk) <= 0)
        assert np.all(dn.sum(axis=0) <= at_risk)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)), max_size=30))
    def test_equals_unique_time_grid(self, recs):
        z = np.array([r[0] for r in recs], dtype=float)
        eps = np.array([r[1] for r in recs], dtype=np.int64)
        for got, expected in zip(_engine.event_grid(z, eps), unique_event_grid(z, eps)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            np.testing.assert_array_equal(got, expected)

    def test_sorted_grid_rows_compact_to_event_grids(self):
        rng = np.random.default_rng(41)
        z = rng.integers(0, 9, (20, 16)).astype(float)
        eps = rng.integers(0, 4, (20, 16))
        times, at_risk, dn = _engine.sorted_grid(z, eps)
        assert dn.shape == (3, 20, 16)
        for i in range(len(z)):
            keep = dn[:, i].any(axis=0)
            expected = _engine.event_grid(z[i], eps[i])
            np.testing.assert_array_equal(times[i][keep], expected[0])
            np.testing.assert_array_equal(at_risk[i][keep], expected[1])
            np.testing.assert_array_equal(dn[:, i][:, keep], expected[2])


class TestEstimateRte:
    def test_derived_dataset(self, four_records):
        est = estimate_rte(four_records)
        assert est.theta_hat == pytest.approx(9 / 16, abs=1e-15)

    def test_example_tables(self):
        table1 = [PairedObservation(*p) for p in ((2, 1, 1, 1), (4, 1, 3, 1), (6, 1, 5, 1), (8, 1, 7, 1))]
        table2 = [PairedObservation(*p) for p in ((2, 1, 1, 1), (4, 1, 3, 1), (5, 1, 6, 1), (8, 1, 7, 1))]
        assert estimate_rte(prepare_dataset(table1, 1e6)).theta_hat == 1.0
        assert estimate_rte(prepare_dataset(table2, 1e6)).theta_hat == pytest.approx(0.75, abs=1e-15)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            Dataset(z=[], epsilon=[], tau=1.0)

    def test_theta_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = rng.integers(1, 50)
            z = np.round(rng.exponential(1.0, n), 1)
            eps = rng.integers(0, 4, n)
            est = estimate_rte(Dataset(z=z, epsilon=eps, tau=float(z.max()) + 1))
            assert 0.0 <= est.theta_hat <= 1.0

    def test_streaming_matches_naive_oracle_small_datasets(self):
        rng = np.random.default_rng(11)
        for _ in range(250):
            n = rng.integers(1, 9)
            z = rng.integers(1, 6, n).astype(float)
            eps = rng.integers(0, 4, n)
            tau = float(z.max()) + 1
            _, _, f = naive_curves(z, eps, tau)
            theta_naive = f[2][-1] + 0.5 * f[3][-1]
            assert estimate_rte(Dataset(z=z, epsilon=eps, tau=tau)).theta_hat == pytest.approx(
                theta_naive, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)), min_size=1, max_size=30))
    def test_estimate_matches_loop_oracles(self, recs):
        z = np.array([r[0] for r in recs], dtype=float)
        eps = np.array([r[1] for r in recs], dtype=np.int64)
        est = estimate_rte(Dataset(z=z, epsilon=eps, tau=9.0))
        sigma2 = max(naive_sigma2_cif(z, eps, len(z)), 0.0)
        # where the plug-in is zero, both sides keep round-off of about 1e-17
        assert est.sigma2_hat == pytest.approx(sigma2, rel=1e-12, abs=1e-14)
        _, _, f = naive_curves(z, eps, 9.0)
        theta = f[2][-1] + f[3][-1] / 2
        assert est.theta_hat == pytest.approx(theta, rel=1e-12, abs=1e-14)

    def test_round_off_is_clamped(self):
        # all events of type 2: on these samples the counts put theta a
        # round-off above 1, and the variance plug-in a round-off below 0
        over = estimate_rte(Dataset(z=[1, 5, 3, 2, 4, 3, 2, 2, 4, 3], epsilon=[2] * 10, tau=6.0))
        assert over.theta_hat == 1.0
        below = estimate_rte(Dataset(z=[1, 3, 5, 4, 3, 5, 5, 1, 1, 1, 2], epsilon=[2] * 11,
                                     tau=6.0))
        assert below.sigma2_hat == 0.0 and below.se == 0.0

    def test_sign_test_reduction(self):
        # Fully observed, tie-free: theta_hat is the empirical sign fraction
        # (up to double rounding in the telescoping product).
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 80))
            x1 = rng.exponential(1.0, n)
            x2 = rng.exponential(1.0, n)
            obs = [PairedObservation(a, 1, b, 1) for a, b in zip(x1, x2)]
            est = estimate_rte(prepare_dataset(obs, 1e9))
            assert est.theta_hat == pytest.approx(np.mean(x1 > x2), abs=1e-12)

    def test_permutation_invariance(self, four_records):
        rng = np.random.default_rng(4)
        perm = rng.permutation(four_records.n)
        shuffled = Dataset(
            z=four_records.z[perm], epsilon=four_records.epsilon[perm], tau=four_records.tau
        )
        assert estimate_rte(shuffled).theta_hat == estimate_rte(four_records).theta_hat

    def test_single_record_clamps_to_zero(self):
        data = Dataset(z=[2.0], epsilon=[2], tau=3.0)
        est = estimate_rte(data)
        assert est.sigma2_hat == 0.0


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


class TestMetamorphic:
    TAU = 10.0

    @staticmethod
    def _dataset(recs, tau=TAU, transform=float):
        z = np.array([transform(float(t)) for t, _ in recs])
        return Dataset(z=z, epsilon=[e for _, e in recs], tau=tau)

    @given(recs=records, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_record_permutation(self, recs, data):
        perm = data.draw(st.permutations(range(len(recs))))
        a = estimate_rte(self._dataset(recs))
        b = estimate_rte(self._dataset([recs[i] for i in perm]))
        assert (a.theta_hat, a.sigma2_hat) == (b.theta_hat, b.sigma2_hat)

    @given(
        recs=records,
        phi=st.sampled_from([lambda t: 3.0 * t + 1.0, np.sqrt, lambda t: np.expm1(t / 4.0)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_increasing_time_transform(self, recs, phi):
        a = estimate_rte(self._dataset(recs))
        b = estimate_rte(self._dataset(recs, tau=float(phi(self.TAU)), transform=phi))
        assert a.theta_hat == b.theta_hat
        assert a.sigma2_hat == b.sigma2_hat

    @given(recs=records)
    @settings(max_examples=100, deadline=None)
    def test_label_swap_identity(self, recs):
        est = estimate_rte(self._dataset(recs))
        swapped = estimate_rte(self._dataset([(t, {1: 2, 2: 1}.get(e, e)) for t, e in recs]))
        _, s, _ = naive_curves([t for t, _ in recs], [e for _, e in recs], self.TAU)
        s_tau = s[-1]
        assert abs(est.theta_hat + swapped.theta_hat + s_tau - 1.0) <= 1e-12


class TestRiskSetExhaustion:
    def test_warns_when_risk_set_ends_before_horizon(self):
        import warnings as w
        from pairedrte import DegenerateRiskWarning

        data = Dataset(z=[1.0, 2.0], epsilon=[1, 0], tau=9.0)
        with pytest.warns(DegenerateRiskWarning):
            estimate_rte(data)
        # no warning when the grid reaches the horizon with no survival mass
        full = Dataset(z=[1.0, 2.0], epsilon=[1, 2], tau=2.0)
        with w.catch_warnings():
            w.simplefilter("error")
            estimate_rte(full)


class TestIpcwIdentity:
    """Identities of the estimate; their right-hand sides come from the loop oracles."""

    @staticmethod
    def _at_tau(data):
        """``(S, F1, F2)`` at ``tau`` from :func:`naive_curves`."""
        _, s, f = naive_curves(data.z, data.epsilon, data.tau)
        return s[-1], f[1][-1], f[2][-1]

    def test_derived_difference(self, four_records):
        _, f1, f2 = self._at_tau(four_records)
        assert f1 - f2 == pytest.approx(1 / 4 - 3 / 8, abs=1e-15)
        assert 1 - 2 * estimate_rte(four_records).theta_hat == pytest.approx(f1 - f2, abs=1e-15)

    def test_identity_exact_when_survival_exhausted(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            x1 = rng.exponential(1.0, n)
            x2 = rng.exponential(1.0, n)
            obs = [PairedObservation(a, 1, b, 1) for a, b in zip(x1, x2)]
            data = prepare_dataset(obs, 1e9)
            s_tail, f1, f2 = self._at_tau(data)
            assert s_tail == 0.0
            assert 1 - 2 * estimate_rte(data).theta_hat == pytest.approx(f1 - f2, abs=1e-12)

    def test_gap_equals_survival_tail_in_general(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            z = np.round(rng.exponential(1.0, n), 2)
            eps = rng.integers(0, 4, n)
            data = Dataset(z=z, epsilon=eps, tau=float(z.max()) + 1)
            s_tail, f1, f2 = self._at_tau(data)
            gap = 1 - 2 * estimate_rte(data).theta_hat - (f1 - f2)
            assert gap == pytest.approx(s_tail, abs=1e-12)

    def test_ipcw_form_equals_aj_difference(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            z = np.round(rng.exponential(1.0, n), 2)
            eps = rng.integers(0, 4, n)
            data = Dataset(z=z, epsilon=eps, tau=float(z.max()) + 1)
            _, f1, f2 = self._at_tau(data)
            assert ipcw_form(data) == pytest.approx(f1 - f2, abs=1e-12)

    def test_ipcw_ranks_events_before_censorings_at_ties(self):
        # Tie at t=2 with 3 at risk: the event leaves the censoring risk set
        # first, so G falls by 1 - 1/2 there and the type-2 event at 3 weighs
        # 1 / (3 * 1/2).
        data = Dataset(z=[2, 2, 3], epsilon=[1, 0, 2], tau=4.0)
        assert ipcw_form(data) == pytest.approx(1 / 3 - 2 / 3, abs=1e-15)

    def test_no_censoring_equals_count_difference(self):
        data = Dataset(z=[1, 2, 3, 4], epsilon=[1, 2, 2, 3], tau=5.0)
        assert ipcw_form(data) == pytest.approx((1 - 2) / 4.0, abs=1e-12)
