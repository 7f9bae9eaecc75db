import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_competing_risks

from pairedrte import (
    Dataset,
    EmptyDataset,
    JitterTooLarge,
    NonFiniteTime,
    NonPositiveTau,
    PairedObservation,
    PairedSample,
    ParseError,
    ValidationError,
    prepare_dataset,
    read_competing_csv,
    read_paired_csv,
)
from pairedrte import _engine
from pairedrte.paired_data import _prepare_rows

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


def records(rows, tau, **kwargs):
    """The records ``(z, epsilon)`` that :func:`prepare_dataset` makes of ``rows``."""
    ds = prepare_dataset([PairedObservation(*r) for r in rows], tau, **kwargs)
    return [(float(z), int(e)) for z, e in zip(ds.z, ds.epsilon)]


class TestTruncateAtTau:
    def test_censored_margin_above_tau_becomes_event_at_tau(self):
        # (5, 0) becomes (3, 1), which ties the event of the other margin
        assert records([(5, 0, 4, 1)], 3.0, jitter=None) == [(3.0, 3)]
        assert records([(5, 0, 2, 1)], 3.0, jitter=None) == [(2.0, 2)]

    def test_below_tau_unchanged(self):
        assert records([(1, 1, 2, 0)], 10.0, jitter=None) == [(1.0, 1)]

    def test_time_equal_tau_is_event(self):
        assert records([(3, 0, 3, 0)], 3.0, jitter=None) == [(3.0, 3)]

    def test_nonfinite_time(self):
        for bad, jitter in itertools.product((math.inf, math.nan), ("auto", None)):
            with pytest.raises(NonFiniteTime):
                records([(bad, 1, 1, 1)], 5.0, jitter=jitter)

    def test_nonpositive_tau(self):
        for tau, jitter in itertools.product((0.0, -2.0, math.nan, math.inf), ("auto", None)):
            with pytest.raises(NonPositiveTau):
                records([(1, 1, 1, 1)], tau, jitter=jitter)

    def test_tau_is_checked_before_the_jitter(self):
        # every time is 0, so the jitter would fail too
        with pytest.raises(NonPositiveTau):
            records([(0, 1, 0, 0)], -1.0)


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
        assert records([pair], 10.0, jitter=None) == [expected]

    def test_ambiguous_tie_is_censored(self):
        # x1 == x2 with exactly one event: without the jitter the pair is censored.
        assert records([(3, 1, 3, 0)], 10.0, jitter=None) == [(3.0, 0)]

    def test_exhaustive_classification_on_lattice(self):
        # Lattice times force plenty of ties; compare against an independent
        # classifier and check exactly one case fires per pair.
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
        ds = prepare_dataset(
            PairedSample(np.column_stack([x1, x2]), np.column_stack([d1, d2])), 12.0, jitter=None
        )
        np.testing.assert_array_equal(ds.epsilon, np.select([c1, c2, c3], [1, 2, 3], default=0))
        np.testing.assert_array_equal(ds.z, np.minimum(x1, x2))

    @given(obs=observations)
    def test_z_is_min(self, obs):
        ds = prepare_dataset([obs], 101.0, jitter=None)
        assert ds.z[0] == min(obs.x1, obs.x2)

    @pytest.mark.parametrize("phi", [lambda t: 2.0 * t, lambda t: t**2, lambda t: np.expm1(t / 50.0)])
    def test_monotone_invariance(self, phi):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 8, (200, 2)).astype(float)
        delta = rng.integers(0, 2, (200, 2))
        base = prepare_dataset(PairedSample(x, delta), 100.0, jitter=None)
        mapped = prepare_dataset(PairedSample(phi(x), delta), 100.0, jitter=None)
        np.testing.assert_array_equal(mapped.epsilon, base.epsilon)
        np.testing.assert_allclose(mapped.z, phi(base.z), rtol=1e-12)


def lattice_sample(seed, n):
    rng = np.random.default_rng(seed)
    return PairedSample(rng.integers(0, 20, (n, 2)).astype(float), rng.integers(0, 2, (n, 2)))


class TestBreakCensoringTies:
    def test_no_censored_rows_unchanged(self):
        rows = [(1, 1, 2, 1), (3, 1, 1, 1)]
        assert records(rows, 10.0, seed=1) == records(rows, 10.0, jitter=None)

    def test_increment_within_bounds(self):
        # the censored 2 ties the event 2 of the second pair; width 1e-9 * 6
        ds = prepare_dataset([PairedObservation(2, 0, 5, 1), PairedObservation(2, 1, 6, 1)],
                             tau=10.0, seed=5)
        assert 2.0 < ds.z[0] < 2.0 + 6e-9 and ds.epsilon[0] == 0
        assert (ds.z[1], ds.epsilon[1]) == (2.0, 1)

    def test_at_risk_counts_after_tie_break(self):
        # Event at 2.0 in one pair, censoring at 2.0 in another: after the
        # jitter the censored record still counts as at risk at t=2.0.
        data = [PairedObservation(2.0, 1, 5.0, 0), PairedObservation(3.0, 0, 2.0, 0)]
        ds = prepare_dataset(data, tau=10.0, seed=0)
        times, at_risk, dn = _engine.event_grid(ds.z, ds.epsilon)
        # Hand enumeration: grid {2.0}; both records have z >= 2.0.
        assert list(times) == [2.0]
        assert list(at_risk) == [2.0]
        assert dn[0, 0] == 1.0

    def test_jitter_too_large(self):
        # the censoring tie at 1.0 fires the jitter; the censoring time 2e-8
        # above the event is the smallest gap, and the width is 1e-9 times
        # the largest time
        def rows(largest):
            return [PairedObservation(1.0, 1, largest, 1), PairedObservation(1.0, 0, 1.0 + 2e-8, 0)]

        prepare_dataset(rows(10.0), tau=100.0)
        with pytest.raises(JitterTooLarge):
            prepare_dataset(rows(30.0), tau=100.0)

    def test_all_times_zero_name_the_cause(self):
        # the censoring time ties the event at 0, and the width, a fraction of
        # the largest time, is 0
        with pytest.raises(ValidationError, match="every time is 0") as info:
            prepare_dataset([PairedObservation(0, 1, 0, 0)], 5.0)
        assert "jitter must be positive" not in str(info.value)
        with pytest.raises(ValidationError, match="every time is 0"):
            prepare_dataset(PairedSample(np.zeros((3, 2)), [[1, 0], [0, 0], [1, 1]]), 5.0)
        assert records([(0, 1, 0, 0)], 5.0, jitter=None) == [(0.0, 0)]

    def test_deterministic_given_seed(self):
        sample = lattice_sample(0, 20)
        a = prepare_dataset(sample, 30.0, seed=11)
        b = prepare_dataset(sample, 30.0, seed=11)
        c = prepare_dataset(sample, 30.0, seed=12)
        np.testing.assert_array_equal(a.z, b.z)
        assert not np.array_equal(a.z, c.z)

    def test_draws_follow_row_order(self):
        # One draw per censored cell, pair by pair and x1 before x2: the
        # stream of a row-by-row loop with scalar draws.
        data = list(lattice_sample(4, 40))
        width = 1e-9 * max(max(o.x1, o.x2) for o in data)
        draws = np.random.default_rng(9)
        expected = []
        for o in data:
            x1 = o.x1 + draws.uniform(0.0, width) if o.delta1 == 0 else o.x1
            x2 = o.x2 + draws.uniform(0.0, width) if o.delta2 == 0 else o.x2
            expected.append(replace(o, x1=x1, x2=x2))
        ds = prepare_dataset(data, 30.0, seed=9)
        z, eps = naive_competing_risks(expected, 30.0)
        np.testing.assert_array_equal(ds.z, z)
        np.testing.assert_array_equal(ds.epsilon, eps)

    def test_order_preservation(self):
        sample = lattice_sample(2, 60)
        width = 1e-9 * sample.x.max()
        out = prepare_dataset(sample, 30.0, seed=3)
        plain = prepare_dataset(sample, 30.0, jitter=None)
        x, delta = sample.x, sample.delta
        # the jitter only orders within-pair ties of an event and a censoring
        # time, putting the event first
        tie = (x[:, 0] == x[:, 1]) & (delta[:, 0] != delta[:, 1])
        assert tie.any()
        np.testing.assert_array_equal(out.epsilon[~tie], plain.epsilon[~tie])
        np.testing.assert_array_equal(out.epsilon[tie], np.where(delta[tie, 0] == 1, 1, 2))
        # event times are untouched; each censoring time moves up by less
        # than the width, strictly past every event at or before it
        events = out.epsilon > 0
        np.testing.assert_array_equal(out.z[events], plain.z[events])
        for z_new, z_old in zip(out.z[~events], plain.z[~events]):
            assert z_old < z_new < z_old + width
            assert all(z_new > e for e in x[delta == 1] if e <= z_old)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
            prepare_dataset(lattice_sample(0, 20), 30.0, seed=seed)

    @pytest.mark.parametrize("jitter", ["auto", None])
    def test_seed_is_checked_when_jitter_does_not_fire(self, jitter):
        # no censoring time equals an event time, so auto jitter draws nothing
        tie_free = PairedSample([[1, 2], [3, 1.5], [2.5, 4], [5, 0.5]],
                                [[1, 1], [0, 1], [1, 0], [1, 1]])
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer, got -3"):
            prepare_dataset(tie_free, 10.0, jitter=jitter, seed=-3)

    @pytest.mark.parametrize("jitter", [0.5, 1e-9, 0.0, "fixed"])
    def test_only_auto_or_none(self, jitter):
        with pytest.raises(ValidationError, match="jitter must be 'auto' or None"):
            prepare_dataset([PairedObservation(2, 0, 5, 1)], 10.0, jitter=jitter)


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            Dataset(z=np.array([]), epsilon=np.array([]), tau=1.0)

    def test_z_beyond_tau_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(z=[2.0], epsilon=[1], tau=1.0)

    @pytest.mark.parametrize("z, epsilon", [([1.0, 2.0], [1]), ([[1.0, 2.0]], [[1, 2]])],
                             ids=["misaligned", "two-dimensional"])
    def test_arrays_must_be_aligned_and_flat(self, z, epsilon):
        with pytest.raises(ValidationError, match="one-dimensional and aligned"):
            Dataset(z=z, epsilon=epsilon, tau=5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, bad):
        with pytest.raises(NonFiniteTime, match="all record times must be finite"):
            Dataset(z=[1.0, bad], epsilon=[1, 0], tau=5.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError, match="z must be nonnegative, got -1.0"):
            Dataset(z=[2.0, -1.0], epsilon=[1, 0], tau=5.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1.0])
    def test_horizon_must_be_positive_and_finite(self, tau):
        with pytest.raises(NonPositiveTau, match="tau must be a positive finite number"):
            Dataset(z=[0.0], epsilon=[1], tau=tau)

    def test_non_integer_labels_rejected(self):
        # the int64 cast alone would store [1, 2]
        with pytest.raises(ValidationError, match="epsilon labels must be in"):
            Dataset(z=[1.0, 2.0], epsilon=[1.5, 2.7], tau=3.0)
        data = Dataset(z=[1.0, 2.0], epsilon=[1.0, 3.0], tau=3.0)
        assert data.epsilon.dtype == np.int64
        np.testing.assert_array_equal(data.epsilon, [1, 3])

    @pytest.mark.parametrize(
        "labels, accepted",
        [([True, False], True), ([0.0, 1.0, 2.0, 3.0], True), ([-0.0, 2.0], True),
         (np.array([3, 1], dtype=np.int8), True), (np.array([2, 0], dtype=np.uint64), True),
         ([1.5, 2.0], False), ([-1, 2], False), ([4, 2], False), ([math.nan, 1.0], False),
         ([math.inf, 1.0], False), ([-math.inf, 1.0], False), ([2.0**63, 1.0], False),
         (np.array([2**64 - 1, 1], dtype=np.uint64), False), (["1", "2"], False),
         (["a", "2"], False), ([b"1", b"2"], False)],
    )
    def test_label_values_accepted_and_refused(self, labels, accepted):
        # the cast of NaN or inf must neither warn nor pass as a label
        z = np.arange(1.0, len(labels) + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if accepted:
                data = Dataset(z=z, epsilon=labels, tau=10.0)
                assert data.epsilon.dtype == np.int64
                np.testing.assert_array_equal(data.epsilon, np.asarray(labels, dtype=np.int64))
            else:
                with pytest.raises(ValidationError, match="epsilon labels must be in"):
                    Dataset(z=z, epsilon=labels, tau=10.0)


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

    def test_decimal_indicators_are_read(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("x1,delta1,x2,delta2\n2,1.0,1,0.0\n")
        obs = read_paired_csv(p)
        assert obs[0] == PairedObservation(2.0, 1, 1.0, 0)
        assert obs.delta.dtype == np.int64

    def test_indicator_that_is_no_number_is_a_parse_error(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("x1,delta1,x2,delta2\n2,1,1,x\n")
        with pytest.raises(ParseError, match="not a 0/1 indicator: 'x'") as exc:
            read_paired_csv(p)
        assert (exc.value.row, exc.value.column) == (2, "delta2")

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


class TestReadCompetingCsv:
    def test_reads_records_and_skips_blank_rows(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text("Z, Epsilon\n1.5,1\n\n , \n2, 0\n")
        data = read_competing_csv(p, tau=3.0)
        np.testing.assert_array_equal(data.z, [1.5, 2.0])
        np.testing.assert_array_equal(data.epsilon, [1, 0])

    @pytest.mark.parametrize("reader, header, expected", [
        (read_paired_csv, "x1,delta1,x2", "expected header x1,delta1,x2,delta2[,group]"),
        (read_paired_csv, "x1,delta1,x2,delta2,group,site",
         "expected header x1,delta1,x2,delta2[,group]"),
        (lambda p: read_competing_csv(p, 1.0), "epsilon,z", "expected header z,epsilon"),
    ], ids=["paired-short", "paired-long", "competing"])
    def test_wrong_header_is_a_parse_error(self, tmp_path, reader, header, expected):
        p = tmp_path / "records.csv"
        p.write_text(header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
        with pytest.raises(ParseError, match=re.escape(expected)) as exc:
            reader(p)
        assert (exc.value.row, exc.value.column) == (1, header)

    @pytest.mark.parametrize("label", ["4", "1.0", "-1"])
    def test_competing_label_outside_the_four_causes(self, tmp_path, label):
        p = tmp_path / "records.csv"
        p.write_text(f"z,epsilon\n0.5,1\n0.7,{label}\n")
        with pytest.raises(ValidationError,
                           match=f"row 3: epsilon must be in {{0,1,2,3}}, got '{label}'"):
            read_competing_csv(p, tau=1.0)

    @pytest.mark.parametrize("reader", [read_paired_csv, lambda p: read_competing_csv(p, 1.0)],
                             ids=["paired", "competing"])
    def test_empty_file(self, tmp_path, reader):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValidationError, match="empty file"):
            reader(p)


class TestEmptyInput:
    """Every input without a record raises :class:`EmptyDataset`, a ``ValidationError``."""

    def test_dataset(self):
        with pytest.raises(EmptyDataset, match="dataset must contain at least one record"):
            Dataset(z=[], epsilon=[], tau=1.0)

    @pytest.mark.parametrize("data", [[], PairedSample(np.empty((0, 2)), np.empty((0, 2)))],
                             ids=["rows", "sample"])
    def test_prepare_dataset(self, data):
        with pytest.raises(EmptyDataset, match="^empty dataset$"):
            prepare_dataset(data, 1.0)

    @pytest.mark.parametrize("reader, header", [
        (read_paired_csv, "x1,delta1,x2,delta2"),
        (lambda p: read_competing_csv(p, 1.0), "z,epsilon"),
    ], ids=["paired", "competing"])
    def test_header_only_csv(self, tmp_path, reader, header):
        p = tmp_path / "records.csv"
        p.write_text(header + "\n\n")
        with pytest.raises(EmptyDataset, match="records.csv: empty dataset$"):
            reader(p)

    def test_is_a_validation_error(self):
        assert issubclass(EmptyDataset, ValidationError)


class TestPrepareDataset:
    def test_pipeline_matches_manual_steps(self):
        # pair 1 truncates to (3, 1, 2, 1); the censored 2 of pair 2 ties the
        # event 2 of pair 1, so the jitter fires without changing a record
        data = [PairedObservation(5, 0, 2, 1), PairedObservation(1, 1, 2, 0)]
        ds = prepare_dataset(data, tau=3.0)
        np.testing.assert_array_equal(ds.z, [2.0, 1.0])
        np.testing.assert_array_equal(ds.epsilon, [2, 1])

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_time_beside_a_censoring_tie(self, bad):
        # the censored x2 = 1 ties the event x1 = 1 of the second pair
        sample = PairedSample([[bad, 1.0], [1.0, 2.0], [3.0, 1.5]], [[1, 0], [1, 1], [0, 1]])
        with pytest.raises(NonFiniteTime, match="x1 is not finite"):
            prepare_dataset(sample, tau=10.0)

    def test_auto_jitter_leaves_the_sample_as_it_is(self):
        sample = PairedSample([[3.0, 3.0], [1.0, 2.0]], [[1, 0], [1, 1]])
        ds = prepare_dataset(sample, tau=10.0, seed=0)
        assert ds.z[0] == 3.0 and ds.epsilon[0] == 1
        np.testing.assert_array_equal(sample.x, [[3.0, 3.0], [1.0, 2.0]])

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


class TestPrepareRows:
    # pair 1's censored x2 = 1 ties pair 2's event x1 = 1, so auto jitter fires
    X = [[[2.0, 1.0], [1.0, 2.0], [3.0, 1.5]]] * 2
    DELTA = [[[1, 0], [1, 1], [0, 1]]] * 2

    def test_rows_are_not_jittered_in_place(self):
        x = np.array(self.X)
        _prepare_rows(x, np.array(self.DELTA), 5.0, [0, 1])
        np.testing.assert_array_equal(x, self.X)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_time_beside_a_censoring_tie(self, bad):
        x = np.array(self.X)
        x[1, 0, 0] = bad
        z, eps, errors = _prepare_rows(x, np.array(self.DELTA), 5.0, [0, 1])
        assert list(errors) == [1]
        assert isinstance(errors[1], NonFiniteTime)
        assert str(errors[1]) == f"x1 is not finite: {bad}"

    def test_each_failed_sample_keeps_its_own_error(self):
        # sample 1 holds an infinite x2; sample 2's times are all 0, so its
        # jitter has no width; sample 0 is prepared as on its own
        x = np.array([self.X[0], self.X[0], np.zeros((3, 2))])
        x[1, 1, 1] = math.inf
        delta = np.array(self.DELTA[:1] * 3)
        z, eps, errors = _prepare_rows(x, delta, 5.0, [0, 1, 2])
        assert sorted(errors) == [1, 2]
        assert str(errors[1]) == "x2 is not finite: inf"
        assert "every time is 0" in str(errors[2])
        alone = prepare_dataset(PairedSample(x[0], delta[0]), 5.0, seed=0)
        np.testing.assert_array_equal(z[0], alone.z)
        np.testing.assert_array_equal(eps[0], alone.epsilon)
        assert not z[1:].any() and not eps[1:].any()
