import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_competing_risks

from pairedrte import (
    CompetingRisksRecord,
    Dataset,
    EmptyDataset,
    JitterTooLarge,
    NonFiniteTime,
    NonPositiveTau,
    PairedObservation,
    PairedSample,
    ParseError,
    ValidationError,
    break_censoring_ties,
    counting_processes,
    prepare_dataset,
    read_paired_csv,
    to_competing_risks,
    truncate_at_tau,
)

times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
deltas = st.sampled_from([0, 1])
observations = st.builds(PairedObservation, x1=times, delta1=deltas, x2=times, delta2=deltas)
# Lattice times force within- and between-pair ties.
lattice = st.integers(0, 6).map(float)
lattice_rows = st.lists(
    st.builds(PairedObservation, x1=lattice, delta1=deltas, x2=lattice, delta2=deltas),
    min_size=1,
    max_size=30,
)


class TestPairedObservation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            PairedObservation(x1=-1.0, delta1=1, x2=2.0, delta2=0)

    def test_bad_delta_rejected(self):
        with pytest.raises(ValidationError):
            PairedObservation(x1=1.0, delta1=2, x2=2.0, delta2=0)


class TestPairedSample:
    @pytest.mark.parametrize(
        "row", [(1.0, 1, -2.0, 1), (-1.0, 1, 2.0, 0), (1.0, 2, 2.0, 0), (1.0, 1, 2.0, 0.5)]
    )
    def test_raises_the_row_error(self, row):
        with pytest.raises(ValidationError) as from_row:
            PairedObservation(*row)
        good = (3.0, 1, 4.0, 0)
        with pytest.raises(ValidationError) as from_columns:
            PairedSample([good[::2], row[::2]], [good[1::2], row[1::2]])
        assert str(from_columns.value) == str(from_row.value)

    def test_shape_checked(self):
        with pytest.raises(ValidationError):
            PairedSample([[1.0, 2.0]], [[1, 1], [0, 0]])
        with pytest.raises(ValidationError):
            PairedSample([1.0, 2.0], [1, 1])
        with pytest.raises(ValidationError):
            PairedSample([[1.0, 2.0]], [[1, 1]], group=["a", "b"])

    def test_row_view(self):
        rows = [PairedObservation(2.0, 1, 1.0, 0, "a"), PairedObservation(4.0, 0, 3.0, 1, "b")]
        sample = PairedSample.of(rows)
        assert PairedSample.of(sample) is sample
        assert len(sample) == 2
        assert sample[1] == rows[1] and sample[-1] == rows[1]
        assert list(sample) == rows
        np.testing.assert_array_equal(sample.x, [[2.0, 1.0], [4.0, 3.0]])
        np.testing.assert_array_equal(sample.delta, [[1, 0], [0, 1]])
        assert list(sample.group) == ["a", "b"]
        assert PairedSample.of([replace(rows[0], group=None)]).group is None


class TestTruncateAtTau:
    def test_censored_margin_above_tau_becomes_event_at_tau(self):
        obs = PairedObservation(5, 0, 2, 1)
        out = truncate_at_tau(obs, 3.0)
        assert (out.x1, out.delta1, out.x2, out.delta2) == (3.0, 1, 2, 1)

    def test_below_tau_unchanged(self):
        obs = PairedObservation(1, 1, 2, 0)
        assert truncate_at_tau(obs, 10.0) == obs

    def test_time_equal_tau_is_event(self):
        obs = PairedObservation(3, 0, 3, 0)
        out = truncate_at_tau(obs, 3.0)
        assert (out.x1, out.delta1, out.x2, out.delta2) == (3.0, 1, 3.0, 1)

    def test_nonfinite_time(self):
        with pytest.raises(NonFiniteTime):
            truncate_at_tau(PairedObservation(math.inf, 1, 1, 1), 5.0)
        with pytest.raises(NonFiniteTime):
            truncate_at_tau(PairedObservation(math.nan, 1, 1, 1), 5.0)

    def test_nonpositive_tau(self):
        with pytest.raises(NonPositiveTau):
            truncate_at_tau(PairedObservation(1, 1, 1, 1), 0.0)
        with pytest.raises(NonPositiveTau):
            truncate_at_tau(PairedObservation(1, 1, 1, 1), -2.0)

    @given(obs=observations, tau=st.floats(min_value=0.01, max_value=150.0))
    def test_idempotent(self, obs, tau):
        once = truncate_at_tau(obs, tau)
        assert truncate_at_tau(once, tau) == once


class TestToCompetingRisks:
    @pytest.mark.parametrize(
        "pair, expected",
        [
            ((2, 1, 1, 1), (1, 2)),
            ((3, 0, 5, 1), (3, 0)),
            ((4, 1, 4, 1), (4, 3)),
            ((2, 1, 5, 0), (2, 1)),
        ],
    )
    def test_examples(self, pair, expected):
        rec = to_competing_risks(PairedObservation(*pair))
        assert (rec.z, rec.epsilon) == expected

    def test_ambiguous_tie_is_censored(self):
        # x1 == x2 with exactly one event: the raw transform censors the pair.
        rec = to_competing_risks(PairedObservation(3, 1, 3, 0))
        assert (rec.z, rec.epsilon) == (3, 0)

    def test_exhaustive_classification_on_lattice(self):
        # Lattice times force plenty of ties; compare against an independent
        # vectorized classifier and check exactly one case fires per pair.
        rng = np.random.default_rng(7)
        n = 100_000
        x1 = rng.integers(0, 12, n).astype(float)
        x2 = rng.integers(0, 12, n).astype(float)
        d1 = rng.integers(0, 2, n)
        d2 = rng.integers(0, 2, n)
        c1 = (x1 < x2) & (d1 == 1)
        c2 = (x2 < x1) & (d2 == 1)
        c3 = (x1 == x2) & (d1 == 1) & (d2 == 1)
        c0 = ~(c1 | c2 | c3)
        assert np.all(c1.astype(int) + c2 + c3 + c0 == 1)
        expected = np.select([c1, c2, c3], [1, 2, 3], default=0)
        got = np.array(
            [
                to_competing_risks(PairedObservation(a, int(b), c, int(d))).epsilon
                for a, b, c, d in zip(x1[:2000], d1[:2000], x2[:2000], d2[:2000])
            ]
        )
        np.testing.assert_array_equal(got, expected[:2000])
        z = np.minimum(x1, x2)
        got_z = np.array(
            [
                to_competing_risks(PairedObservation(a, int(b), c, int(d))).z
                for a, b, c, d in zip(x1[:2000], d1[:2000], x2[:2000], d2[:2000])
            ]
        )
        np.testing.assert_array_equal(got_z, z[:2000])

    @given(obs=observations)
    def test_z_is_min(self, obs):
        rec = to_competing_risks(obs)
        assert rec.z == min(obs.x1, obs.x2)

    @pytest.mark.parametrize("phi", [lambda t: 2.0 * t, lambda t: t**2, lambda t: np.expm1(t / 50.0)])
    def test_monotone_invariance(self, phi):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x1, x2 = rng.integers(0, 8, 2).astype(float)
            d1, d2 = rng.integers(0, 2, 2)
            base = to_competing_risks(PairedObservation(x1, int(d1), x2, int(d2)))
            mapped = to_competing_risks(
                PairedObservation(float(phi(x1)), int(d1), float(phi(x2)), int(d2))
            )
            assert mapped.epsilon == base.epsilon
            assert mapped.z == pytest.approx(phi(base.z))


class TestBreakCensoringTies:
    def test_no_censored_rows_unchanged(self):
        data = [PairedObservation(1, 1, 2, 1), PairedObservation(3, 1, 4, 1)]
        assert break_censoring_ties(data, 1e-9, seed=1) == data

    def test_increment_within_bounds(self):
        data = [PairedObservation(2, 0, 5, 1)]
        out = break_censoring_ties(data, 1e-9, seed=5)[0]
        assert 2.0 < out.x1 < 2.0 + 1e-9
        assert out.x2 == 5.0

    def test_at_risk_counts_after_tie_break(self):
        # Event at 2.0 in one pair, censoring at 2.0 in another: after the
        # jitter the censored record still counts as at risk at t=2.0.
        data = [PairedObservation(2.0, 1, 5.0, 0), PairedObservation(3.0, 0, 2.0, 0)]
        ds = prepare_dataset(data, tau=10.0, seed=0)
        cp = counting_processes(ds)
        # Hand enumeration: grid {2.0}; both records have z >= 2.0.
        assert list(cp.event_times) == [2.0]
        assert list(cp.at_risk) == [2.0]
        assert cp.dn_cause(1)[0] == 1.0

    def test_jitter_too_large(self):
        data = [PairedObservation(2.0, 1, 5.0, 0), PairedObservation(2.5, 0, 9.0, 1)]
        with pytest.raises(JitterTooLarge):
            break_censoring_ties(data, jitter=0.5, seed=0)
        break_censoring_ties(data, jitter=0.4999, seed=0)

    def test_deterministic_given_seed(self):
        data = [PairedObservation(2, 0, 3, 0), PairedObservation(4, 0, 7, 1)]
        a = break_censoring_ties(data, 1e-6, seed=11)
        b = break_censoring_ties(data, 1e-6, seed=11)
        c = break_censoring_ties(data, 1e-6, seed=12)
        assert a == b
        assert a != c

    def test_draws_follow_row_order(self):
        # One draw per censored cell, pair by pair and x1 before x2: the
        # stream of a row-by-row loop with scalar draws.
        rng = np.random.default_rng(4)
        data = [
            PairedObservation(float(rng.integers(0, 20)), int(rng.integers(0, 2)),
                              float(rng.integers(0, 20)), int(rng.integers(0, 2)))
            for _ in range(40)
        ]
        draws = np.random.default_rng(9)
        expected = []
        for o in data:
            x1 = o.x1 + draws.uniform(0.0, 1e-6) if o.delta1 == 0 else o.x1
            x2 = o.x2 + draws.uniform(0.0, 1e-6) if o.delta2 == 0 else o.x2
            expected.append(replace(o, x1=x1, x2=x2))
        assert break_censoring_ties(data, 1e-6, seed=9) == expected

    def test_order_preservation(self):
        rng = np.random.default_rng(2)
        data = [
            PairedObservation(float(rng.integers(0, 20)), int(rng.integers(0, 2)),
                              float(rng.integers(0, 20)), int(rng.integers(0, 2)))
            for _ in range(60)
        ]
        out = break_censoring_ties(data, 1e-9, seed=3)
        ev_before = sorted(x for o in data for x, d in ((o.x1, o.delta1), (o.x2, o.delta2)) if d == 1)
        ev_after = sorted(x for o in out for x, d in ((o.x1, o.delta1), (o.x2, o.delta2)) if d == 1)
        assert ev_before == ev_after
        for o_new, o_old in zip(out, data):
            for x_new, x_old, d in ((o_new.x1, o_old.x1, o_old.delta1), (o_new.x2, o_old.x2, o_old.delta2)):
                if d == 0:
                    assert x_old < x_new < x_old + 1e-9
                    # strictly later than any event at the old (tied) time
                    assert all(x_new > e for e in ev_before if e <= x_old)


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            Dataset(z=np.array([]), epsilon=np.array([]), tau=1.0)

    def test_z_beyond_tau_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(z=[2.0], epsilon=[1], tau=1.0)

    def test_records_roundtrip(self):
        ds = Dataset(z=[1.0, 2.0], epsilon=[1, 0], tau=5.0)
        assert ds.records == (CompetingRisksRecord(1.0, 1), CompetingRisksRecord(2.0, 0))
        again = Dataset.from_records(ds.records, tau=5.0)
        np.testing.assert_array_equal(again.z, ds.z)
        np.testing.assert_array_equal(again.epsilon, ds.epsilon)


class TestReadPairedCsv:
    def test_reads_example_file(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("x1,delta1,x2,delta2\n2,1,1,1\n4,1,3,1\n6,1,5,1\n8,1,7,1\n")
        obs = read_paired_csv(p)
        assert len(obs) == 4
        assert obs[0] == PairedObservation(2.0, 1, 1.0, 1)
        assert all(o.delta1 == 1 and o.delta2 == 1 for o in obs)

    def test_group_column(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("x1,delta1,x2,delta2,group\n2,1,1,1,a\n4,1,3,1,b\n")
        obs = read_paired_csv(p)
        assert [o.group for o in obs] == ["a", "b"]

    def test_empty_data_section(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("x1,delta1,x2,delta2\n")
        with pytest.raises(ValidationError):
            read_paired_csv(p)

    def test_bad_delta_value(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("x1,delta1,x2,delta2\n2,2,1,1\n")
        with pytest.raises(ValidationError):
            read_paired_csv(p)

    def test_parse_error_carries_row_and_column(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("x1,delta1,x2,delta2\n2,1,1,1\nfoo,1,1,1\n")
        with pytest.raises(ParseError) as exc:
            read_paired_csv(p)
        assert exc.value.row == 3
        assert exc.value.column == "x1"

    def test_negative_time_rejected(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("x1,delta1,x2,delta2\n-2,1,1,1\n")
        with pytest.raises(ValidationError):
            read_paired_csv(p)


class TestPrepareDataset:
    def test_pipeline_matches_manual_steps(self):
        data = [PairedObservation(5, 0, 2, 1), PairedObservation(1, 1, 2, 0)]
        ds = prepare_dataset(data, tau=3.0)
        manual = [to_competing_risks(truncate_at_tau(o, 3.0)) for o in data]
        np.testing.assert_array_equal(ds.z, [r.z for r in manual])
        np.testing.assert_array_equal(ds.epsilon, [r.epsilon for r in manual])

    @given(rows=lattice_rows, tau=st.sampled_from([0.5, 2.0, 3.0, 4.5, 6.0, 10.0]))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_definitions(self, rows, tau):
        ds = prepare_dataset(rows, tau, jitter=None)
        z, eps = naive_competing_risks(rows, tau)
        np.testing.assert_array_equal(ds.z, z)
        np.testing.assert_array_equal(ds.epsilon, eps)
        same = prepare_dataset(PairedSample.of(rows), tau, jitter=None)
        np.testing.assert_array_equal(same.z, z)

    def test_auto_jitter_resolves_within_pair_event_censoring_tie(self):
        # Tied (x1 == x2, one event): censoring it would lose the observed
        # within-pair ordering; the jitter keeps the event first.
        data = [PairedObservation(3.0, 1, 3.0, 0), PairedObservation(1.0, 1, 2.0, 1)]
        ds = prepare_dataset(data, tau=10.0, seed=0)
        assert ds.epsilon[0] == 1
        plain = prepare_dataset(data, tau=10.0, jitter=None)
        assert plain.epsilon[0] == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_truncation_keeps_z_at_tau(self, seed):
        rng = np.random.default_rng(seed)
        data = [
            PairedObservation(float(rng.exponential(2)), int(rng.integers(0, 2)),
                              float(rng.exponential(2)), int(rng.integers(0, 2)))
            for _ in range(20)
        ]
        ds = prepare_dataset(data, tau=1.5, seed=seed)
        assert np.all(ds.z <= 1.5)
