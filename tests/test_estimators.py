from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_curves

from pairedrte import (
    Dataset,
    EmptyDataset,
    InferenceConfig,
    NotFullyObserved,
    PairedObservation,
    StepCurve,
    aalen_johansen,
    counting_processes,
    estimate_rte,
    ipcw_form,
    ipcw_identity_check,
    kaplan_meier_censoring,
    kaplan_meier_event,
    mann_whitney_fully_observed,
    nelson_aalen,
    prepare_dataset,
    read_paired_csv,
    sigma_theta_cif_plugin,
    test_and_ci as make_report,
)

DATA = Path(__file__).resolve().parents[1] / "src" / "pairedrte" / "datasets"

# Small competing-risks samples on a lattice, so times tie within and across causes.
records = st.lists(st.tuples(st.integers(1, 8), st.integers(0, 3)), min_size=2, max_size=30)


@pytest.fixture
def four_records():
    # Hand enumeration: grid {1, 3, 4}; Y = 4, 2, 1; one event per cause.
    return Dataset(z=[1, 2, 3, 4], epsilon=[1, 0, 2, 3], tau=5.0)


class TestStepCurve:
    def test_evaluation_and_left_limits(self):
        c = StepCurve(times=[1.0, 3.0], values=[0.5, 0.2], initial=1.0)
        assert c.at(0.5) == 1.0
        assert c.at(1.0) == 0.5
        assert c.at(2.9) == 0.5
        assert c.at(3.0) == 0.2
        assert c.at_left(3.0) == 0.5
        assert c.at_left(1.0) == 1.0
        np.testing.assert_array_equal(c.at([0.0, 1.0, 10.0]), [1.0, 0.5, 0.2])

    def test_rejects_unordered_times(self):
        with pytest.raises(ValueError):
            StepCurve(times=[2.0, 1.0], values=[0.1, 0.2])

    def test_to_text(self):
        c = StepCurve(times=[1.0], values=[0.25], initial=1.0)
        assert c.to_text() == "0\t1\n1\t0.25\n"


class TestCountingProcesses:
    def test_hand_enumeration(self, four_records):
        cp = counting_processes(four_records)
        np.testing.assert_array_equal(cp.event_times, [1, 3, 4])
        np.testing.assert_array_equal(cp.at_risk, [4, 2, 1])
        np.testing.assert_array_equal(cp.dn_cause(1), [1, 0, 0])
        np.testing.assert_array_equal(cp.dn_cause(2), [0, 1, 0])
        np.testing.assert_array_equal(cp.dn_cause(3), [0, 0, 1])

    def test_all_censored(self):
        cp = counting_processes(Dataset(z=[1, 2], epsilon=[0, 0], tau=3.0))
        assert len(cp.event_times) == 0

    def test_tie_multiplicities(self):
        cp = counting_processes(Dataset(z=[2, 2], epsilon=[1, 1], tau=3.0))
        np.testing.assert_array_equal(cp.dn_cause(1), [2])
        np.testing.assert_array_equal(cp.at_risk, [2])

    def test_monotone_at_risk(self, four_records):
        cp = counting_processes(four_records)
        assert np.all(np.diff(cp.at_risk) <= 0)
        assert np.all(cp.dn_total <= cp.at_risk)


class TestNelsonAalen:
    def test_cause1_jump(self, four_records):
        curve = nelson_aalen(counting_processes(four_records), cause=1)
        assert curve.at(1.0) == pytest.approx(0.25)
        assert curve.at(5.0) == pytest.approx(0.25)
        assert curve.at(0.5) == 0.0

    def test_no_events_constant_zero(self):
        cp = counting_processes(Dataset(z=[1, 2], epsilon=[0, 2], tau=3.0))
        assert nelson_aalen(cp, cause=1).at(3.0) == 0.0

    def test_single_record_jumps_to_one(self):
        cp = counting_processes(Dataset(z=[5], epsilon=[2], tau=6.0))
        assert nelson_aalen(cp, cause=2).at(5.0) == 1.0


class TestKaplanMeier:
    def test_hand_product_limit(self, four_records):
        s = kaplan_meier_event(counting_processes(four_records))
        assert s.at(1.0) == pytest.approx(3 / 4)
        assert s.at(3.0) == pytest.approx(3 / 8)
        assert s.at(4.0) == 0.0
        assert s.at(0.5) == 1.0

    def test_no_events_constant_one(self):
        s = kaplan_meier_event(counting_processes(Dataset(z=[1, 2], epsilon=[0, 0], tau=3.0)))
        assert s.at(3.0) == 1.0

    def test_fully_observed_equals_empirical_survival(self):
        rng = np.random.default_rng(0)
        z = rng.exponential(1.0, 60)
        eps = rng.integers(1, 4, 60)
        data = Dataset(z=z, epsilon=eps, tau=float(z.max()) + 1)
        s = kaplan_meier_event(counting_processes(data))
        for t in np.linspace(0, z.max(), 23):
            assert s.at(t) == pytest.approx(np.mean(z > t), abs=1e-12)


class TestKaplanMeierCensoring:
    def test_no_censored_constant_one(self):
        g = kaplan_meier_censoring(Dataset(z=[1, 2], epsilon=[1, 2], tau=3.0))
        assert g.at(3.0) == 1.0

    def test_hand_computation(self):
        g = kaplan_meier_censoring(Dataset(z=[2, 3], epsilon=[0, 1], tau=4.0))
        assert g.at(2.0) == pytest.approx(0.5)

    def test_event_ranked_before_censoring_at_tie(self):
        # Tie at t=2 with 3 at risk: the event is removed from the censoring
        # risk set first, so the censoring factor is 1 - 1/2.
        g = kaplan_meier_censoring(Dataset(z=[2, 2, 3], epsilon=[1, 0, 2], tau=4.0))
        assert g.at(2.0) == pytest.approx(0.5)
        # product-limit identity S(t) G(t) = #{z > t} / n under this ranking
        data = Dataset(z=[2, 2, 3], epsilon=[1, 0, 2], tau=4.0)
        s = kaplan_meier_event(counting_processes(data))
        assert s.at(2.0) * g.at(2.0) == pytest.approx(1 / 3, abs=1e-12)


class TestAalenJohansen:
    def test_hand_computation(self, four_records):
        cp = counting_processes(four_records)
        assert aalen_johansen(cp, 2).at(4.0) == pytest.approx(3 / 8)
        assert aalen_johansen(cp, 3).at(4.0) == pytest.approx(3 / 8)
        assert aalen_johansen(cp, 1).at(4.0) == pytest.approx(1 / 4)

    def test_no_cause_events_constant_zero(self, four_records):
        cp = counting_processes(Dataset(z=[1, 4], epsilon=[1, 0], tau=5.0))
        assert aalen_johansen(cp, 2).at(5.0) == 0.0

    def test_additivity_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = rng.integers(1, 40)
            z = np.round(rng.exponential(1.0, n), 2)
            eps = rng.integers(0, 4, n)
            data = Dataset(z=z, epsilon=eps, tau=float(z.max()) + 1)
            cp = counting_processes(data)
            s = kaplan_meier_event(cp)
            total = sum(aalen_johansen(cp, j).at(data.tau) for j in (1, 2, 3))
            assert total + s.at(data.tau) == pytest.approx(1.0, abs=1e-12)


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
            data = Dataset(z=z, epsilon=eps, tau=tau)
            grid, s_naive, f_naive = naive_curves(z, eps, tau)
            cp = counting_processes(data)
            s = kaplan_meier_event(cp)
            np.testing.assert_allclose(s.at(np.array(grid)), s_naive, atol=1e-12) if grid else None
            for j in (1, 2, 3):
                fj = aalen_johansen(cp, j)
                if grid:
                    np.testing.assert_allclose(fj.at(np.array(grid)), f_naive[j], atol=1e-12)
            theta_naive = (f_naive[2][-1] if grid else 0.0) + 0.5 * (f_naive[3][-1] if grid else 0.0)
            assert estimate_rte(data).theta_hat == pytest.approx(theta_naive, abs=1e-12)

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

    @given(recs=records)
    @settings(max_examples=100, deadline=None)
    def test_label_swap_identity(self, recs):
        est = estimate_rte(self._dataset(recs))
        swapped = estimate_rte(self._dataset([(t, {1: 2, 2: 1}.get(e, e)) for t, e in recs]))
        s_tau = est.curves.survival.at(self.TAU)
        assert abs(est.theta_hat + swapped.theta_hat + s_tau - 1.0) <= 1e-12


class TestLazyCurves:
    def test_estimate_and_test_build_no_curve(self, monkeypatch):
        built = []
        post_init = StepCurve.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(StepCurve, "__post_init__", counted)
        rows = [o for o in read_paired_csv(DATA / "diabetic.csv") if o.group == "juvenile"]
        data = prepare_dataset(rows, 60.0, seed=0)
        est = estimate_rte(data)
        cp = counting_processes(data)
        assert est.sigma2_hat == sigma_theta_cif_plugin(cp, data.tau)
        make_report(est, None, InferenceConfig(method="asymptotic"))
        assert built == []

        curves = est.curves
        assert len(built) == 8 and est.curves is curves
        pairs = [
            (curves.survival, kaplan_meier_event(cp)),
            (curves.censoring_survival, kaplan_meier_censoring(data)),
            *((curves.cif[j - 1], aalen_johansen(cp, j)) for j in (1, 2, 3)),
            *((curves.hazard[j - 1], nelson_aalen(cp, j)) for j in (1, 2, 3)),
        ]
        for got, want in pairs:
            np.testing.assert_array_equal(got.times, want.times)
            np.testing.assert_array_equal(got.values, want.values)
            assert got.initial == want.initial
        np.testing.assert_array_equal(curves.cp.dn, cp.dn)


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


class TestMannWhitney:
    def test_example_table1(self):
        obs = [PairedObservation(*p) for p in ((2, 1, 1, 1), (4, 1, 3, 1), (6, 1, 5, 1), (8, 1, 7, 1))]
        assert mann_whitney_fully_observed(obs) == pytest.approx(10 / 16)

    def test_example_table2_brute_force(self):
        # The whole-sample value by direct double loop. The source narrative
        # quotes 7/16 for this table, but enumeration of the 16 ordered
        # cross-pairs gives 9/16; the subgroup values (3/4 and 1/2) do check
        # out, so the oracle value is asserted here.
        obs = [PairedObservation(*p) for p in ((2, 1, 1, 1), (4, 1, 3, 1), (5, 1, 6, 1), (8, 1, 7, 1))]
        brute = 0.0
        for a in obs:
            for b in obs:
                brute += (a.x1 > b.x2) + 0.5 * (a.x1 == b.x2)
        brute /= len(obs) ** 2
        assert brute == pytest.approx(9 / 16)
        assert mann_whitney_fully_observed(obs) == pytest.approx(brute)

    def test_identical_samples_half(self):
        obs = [PairedObservation(x, 1, x, 1) for x in (1.0, 2.0, 5.0)]
        assert mann_whitney_fully_observed(obs) == pytest.approx(0.5)

    def test_rejects_censored(self):
        with pytest.raises(NotFullyObserved):
            mann_whitney_fully_observed([PairedObservation(1, 1, 2, 0)])


class TestIpcwIdentity:
    def test_derived_difference(self, four_records):
        lhs, rhs = ipcw_identity_check(four_records)
        assert rhs == pytest.approx(1 / 4 - 3 / 8, abs=1e-15)

    def test_identity_exact_when_survival_exhausted(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            x1 = rng.exponential(1.0, n)
            x2 = rng.exponential(1.0, n)
            obs = [PairedObservation(a, 1, b, 1) for a, b in zip(x1, x2)]
            data = prepare_dataset(obs, 1e9)
            lhs, rhs = ipcw_identity_check(data)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_gap_equals_survival_tail_in_general(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            z = np.round(rng.exponential(1.0, n), 2)
            eps = rng.integers(0, 4, n)
            data = Dataset(z=z, epsilon=eps, tau=float(z.max()) + 1)
            lhs, rhs = ipcw_identity_check(data)
            s_tail = estimate_rte(data).curves.survival.at(data.tau)
            assert lhs - rhs == pytest.approx(s_tail, abs=1e-12)

    def test_ipcw_form_equals_aj_difference(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            z = np.round(rng.exponential(1.0, n), 2)
            eps = rng.integers(0, 4, n)
            data = Dataset(z=z, epsilon=eps, tau=float(z.max()) + 1)
            _, rhs = ipcw_identity_check(data)
            assert ipcw_form(data) == pytest.approx(rhs, abs=1e-12)

    def test_no_censoring_equals_count_difference(self):
        data = Dataset(z=[1, 2, 3, 4], epsilon=[1, 2, 2, 3], tau=5.0)
        assert ipcw_form(data) == pytest.approx((1 - 2) / 4.0, abs=1e-12)
