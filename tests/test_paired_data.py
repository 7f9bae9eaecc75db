import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_competing_risks, reference_jittered_dataset

from pairedrte import (
    Dataset,
    DegenerateRiskWarning,
    EmptyDataset,
    InferenceConfig,
    NonFiniteTime,
    NonPositiveTau,
    PairedObservation,
    PairedSample,
    ParseError,
    PairedRteError,
    ValidationError,
    estimate_rte,
    prepare_dataset,
    read_competing_csv,
    read_paired_csv,
    run_inference,
)
from pairedrte import _engine
from pairedrte.inference import METHODS, TRANSFORMS, resample_distribution
from pairedrte.inference import test_and_ci as make_report
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
        assert records([(5, 0, 4, 1)], 3.0) == [(3.0, 3)]
        assert records([(5, 0, 2, 1)], 3.0) == [(2.0, 2)]

    def test_below_tau_unchanged(self):
        assert records([(1, 1, 2, 0)], 10.0) == [(1.0, 1)]

    def test_time_equal_tau_is_event(self):
        assert records([(3, 0, 3, 0)], 3.0) == [(3.0, 3)]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_time(self, bad):
        with pytest.raises(NonFiniteTime):
            records([(bad, 1, 1, 1)], 5.0)

    @pytest.mark.parametrize("tau", [0.0, -2.0, math.nan, math.inf])
    def test_nonpositive_tau(self, tau):
        with pytest.raises(NonPositiveTau):
            records([(1, 1, 1, 1)], tau)

    def test_tau_is_checked_before_the_times(self):
        with pytest.raises(NonPositiveTau):
            records([(math.inf, 1, 0, 0)], -1.0)


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
        assert records([pair], 10.0) == [expected]

    def test_tie_of_an_event_and_a_censoring_takes_the_event_label(self):
        # x1 == x2 with exactly one event: the event comes first
        assert records([(3, 1, 3, 0)], 10.0) == [(3.0, 1)]
        assert records([(3, 0, 3, 1)], 10.0) == [(3.0, 2)]

    def test_exhaustive_classification_on_lattice(self):
        # Lattice times force plenty of ties; compare against an independent
        # classifier and check exactly one case fires per pair.
        rng = np.random.default_rng(7)
        n = 100_000
        x1 = rng.integers(0, 12, n).astype(float)
        x2 = rng.integers(0, 12, n).astype(float)
        d1 = rng.integers(0, 2, n)
        d2 = rng.integers(0, 2, n)
        c1 = (d1 == 1) & ((x1 < x2) | ((x1 == x2) & (d2 == 0)))
        c2 = (d2 == 1) & ((x2 < x1) | ((x1 == x2) & (d1 == 0)))
        c3 = (x1 == x2) & (d1 == 1) & (d2 == 1)
        c0 = ~(c1 | c2 | c3)
        assert np.all(c1.astype(int) + c2 + c3 + c0 == 1)
        ds = prepare_dataset(
            PairedSample(np.column_stack([x1, x2]), np.column_stack([d1, d2])), 12.0
        )
        np.testing.assert_array_equal(ds.epsilon, np.select([c1, c2, c3], [1, 2, 3], default=0))
        np.testing.assert_array_equal(ds.z, np.minimum(x1, x2))

    @given(obs=observations)
    def test_z_is_min(self, obs):
        ds = prepare_dataset([obs], 101.0)
        assert ds.z[0] == min(obs.x1, obs.x2)

    @pytest.mark.parametrize("phi", [lambda t: 2.0 * t, lambda t: t**2, lambda t: np.expm1(t / 50.0)])
    def test_monotone_invariance(self, phi):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 8, (200, 2)).astype(float)
        delta = rng.integers(0, 2, (200, 2))
        base = prepare_dataset(PairedSample(x, delta), 100.0)
        mapped = prepare_dataset(PairedSample(phi(x), delta), 100.0)
        np.testing.assert_array_equal(mapped.epsilon, base.epsilon)
        np.testing.assert_allclose(mapped.z, phi(base.z), rtol=1e-12)


def lattice_sample(seed, n):
    rng = np.random.default_rng(seed)
    return PairedSample(rng.integers(0, 20, (n, 2)).astype(float), rng.integers(0, 2, (n, 2)))


# Lattice samples of 1 to 14 pairs on the times 0 to 4: ties within and between pairs.
small_lattice = st.integers(0, 4).map(float)
small_lattice_rows = st.lists(
    st.builds(PairedObservation, x1=small_lattice, delta1=deltas, x2=small_lattice,
              delta2=deltas),
    min_size=1,
    max_size=14,
)


def outcomes(data, seed):
    """Every test of ``data``: its report as a dict, or its refusal's class name."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateRiskWarning)
        est = estimate_rte(data)
    out = [est.theta_hat, est.sigma2_hat]
    for method in METHODS:
        cfg = InferenceConfig(method=method, b=200, seed=seed)
        try:
            dist = resample_distribution(data, cfg)
        except PairedRteError as exc:
            out += [type(exc).__name__] * len(TRANSFORMS)
            continue
        for transform in TRANSFORMS:
            try:
                out.append(make_report(est, dist, replace(cfg, transform=transform)).to_dict())
            except PairedRteError as exc:
                out.append(type(exc).__name__)
    return out


class TestCensoringTies:
    """An event precedes a censoring at the same time, and nothing is drawn."""

    def test_censoring_tied_with_an_event_keeps_its_time(self):
        # the censored 2 ties the event 2 of the second pair
        assert records([(2, 0, 5, 1), (2, 1, 6, 1)], 10.0) == [(2.0, 0), (2.0, 1)]

    def test_at_risk_counts_at_a_tie(self):
        # Event at 2.0 in one pair, censoring at 2.0 in another: the censored
        # record counts as at risk at t=2.0.
        data = [PairedObservation(2.0, 1, 5.0, 0), PairedObservation(3.0, 0, 2.0, 0)]
        ds = prepare_dataset(data, tau=10.0)
        times, at_risk, dn = _engine.event_grid(ds.z, ds.epsilon)
        # Hand enumeration: grid {2.0}; both records have z >= 2.0.
        assert list(times) == [2.0]
        assert list(at_risk) == [2.0]
        assert dn[0, 0] == 1.0

    def test_censored_time_just_below_tau_stays_censored(self):
        # the censoring 1e-10 below tau ties the event of the second pair; the
        # jitter, of width 1e-9 * 20, carried it past tau, where it became an
        # event tied with its partner's
        c = 10.0 - 1e-10
        rows = [(c, 0, 15, 1), (c, 1, 20, 1)]
        assert records(rows, 10.0) == [(c, 0), (c, 1)]
        jittered = reference_jittered_dataset([PairedObservation(*r) for r in rows], 10.0)
        assert (jittered.z[0], jittered.epsilon[0]) == (10.0, 3)

    def test_all_zero_times_are_analyzed(self):
        # the jitter, a fraction of the largest time, had no width and refused
        rows = [PairedObservation(0, 1, 0, 0), PairedObservation(0, 0, 0, 1),
                PairedObservation(0, 1, 0, 1)]
        with pytest.raises(ValidationError, match="every time is 0"):
            reference_jittered_dataset(rows, 10.0)
        ds = prepare_dataset(rows, 10.0)
        assert list(ds.z) == [0.0] * 3 and list(ds.epsilon) == [1, 2, 3]
        (report,) = run_inference(ds, ["asymptotic"], ["linear"])
        assert report.theta_hat == 0.5

    def test_sample_the_jitter_refused_is_analyzed(self):
        # the censoring at 1 ties the event at 1, so the jitter fired, with a
        # width of 1e-9 * 1e10 = 10; the censoring at 2 lies 1e-6 below an
        # event, so the jitter was refused
        rows = [PairedObservation(1, 1, 1e10, 1), PairedObservation(1, 0, 3, 0),
                PairedObservation(2, 0, 2 + 1e-6, 1)]
        with pytest.raises(ValidationError, match="gap"):
            reference_jittered_dataset(rows, 1e10)
        ds = prepare_dataset(rows, 1e10)
        assert list(zip(ds.z, ds.epsilon)) == [(1.0, 1), (1.0, 0), (2.0, 0)]
        assert estimate_rte(ds).theta_hat == 0.0

    def test_censoring_tied_with_an_event_stays_below_the_next_event(self):
        # the jitter's gap check missed the event 1e-6 above the tied censoring
        # at 1, and its width of 10 carried the censoring past that event
        rows = [PairedObservation(1, 1, 1e10, 1), PairedObservation(1, 0, 1 + 1e-6, 1)]
        assert reference_jittered_dataset(rows, 1e10).epsilon[1] == 2
        ds = prepare_dataset(rows, 1e10)
        assert list(zip(ds.z, ds.epsilon)) == [(1.0, 1), (1.0, 0)]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(small_lattice_rows, st.sampled_from([3.0, 10.0]), st.integers(0, 2**32 - 1))
    def test_reports_equal_the_jittered_reference(self, rows, tau, seed):
        # wherever the jitter prepared a sample, the rule gives its labels and
        # every test its report or its refusal
        data = prepare_dataset(rows, tau)
        try:
            jittered = reference_jittered_dataset(rows, tau, seed)
        except ValidationError:
            assert all(x == 0 for r in rows for x in (r.x1, r.x2))
            return
        np.testing.assert_array_equal(data.epsilon, jittered.epsilon)
        assert np.all(np.abs(data.z - jittered.z) < 1e-9 * 4)
        assert outcomes(data, seed) == outcomes(jittered, seed)

    def test_seed_is_ignored_and_deprecated(self):
        sample = lattice_sample(0, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = prepare_dataset(sample, 30.0)
        for seed in (0, 12, -1):
            with pytest.warns(DeprecationWarning, match="seed is ignored"):
                ds = prepare_dataset(sample, 30.0, seed=seed)
            np.testing.assert_array_equal(ds.z, plain.z)
            np.testing.assert_array_equal(ds.epsilon, plain.epsilon)


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
        with pytest.raises(ParseError, match="not a number: 'x'") as exc:
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
        (read_paired_csv, "x1,delta1,x2,delta2,site",
         "expected header x1,delta1,x2,delta2[,group]"),
        (lambda p: read_competing_csv(p, 1.0), "epsilon,z", "expected header z,epsilon"),
        (lambda p: read_competing_csv(p, 1.0), "z,epsilon,group", "expected header z,epsilon"),
    ], ids=["paired-short", "paired-long", "paired-fifth-name", "competing",
            "competing-long"])
    def test_wrong_header_is_a_parse_error(self, tmp_path, reader, header, expected):
        p = tmp_path / "records.csv"
        p.write_text(header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
        with pytest.raises(ParseError, match=re.escape(expected)) as exc:
            reader(p)
        assert (exc.value.row, exc.value.column) == (1, header)

    @pytest.mark.parametrize("label", ["4", "-1", "2.5", "nan"])
    def test_competing_label_outside_the_four_causes(self, tmp_path, label):
        p = tmp_path / "records.csv"
        p.write_text(f"z,epsilon\n0.5,1\n0.7,{label}\n")
        with pytest.raises(ValidationError,
                           match=f"^row 3, column 'epsilon': not an integer in 0..3: '{label}'$"):
            read_competing_csv(p, tau=1.0)

    def test_integral_decimal_labels_are_read(self, tmp_path):
        # the paired reader reads 1.0 as the indicator 1; the records reader reads it alike
        p = tmp_path / "records.csv"
        p.write_text("z,epsilon\n0.5,1.0\n0.7,2.0\n0.9,0\n")
        data = read_competing_csv(p, tau=1.0)
        np.testing.assert_array_equal(data.epsilon, [1, 2, 0])
        assert data.epsilon.dtype == np.int64

    def test_label_that_is_no_number_is_a_parse_error(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text("z,epsilon\n0.5,1\n0.7,x\n")
        with pytest.raises(ParseError, match="not a number: 'x'") as exc:
            read_competing_csv(p, tau=1.0)
        assert (exc.value.row, exc.value.column) == (3, "epsilon")

    @pytest.mark.parametrize("time", ["-1", "nan"])
    @pytest.mark.parametrize("reader, text, column", [
        (read_paired_csv, "x1,delta1,x2,delta2\n2,1,1,1\n{t},1,{t},0\n", "x1"),
        (lambda p: read_competing_csv(p, 1.0), "z,epsilon\n0.5,1\n{t},2\n", "z"),
    ], ids=["paired", "competing"])
    def test_negative_or_nan_time_names_its_row_and_column(self, tmp_path, reader, text,
                                                           column, time):
        p = tmp_path / "records.csv"
        p.write_text(text.format(t=time))
        with pytest.raises(ValidationError,
                           match=f"^row 3, column '{column}': not a nonnegative time: '{time}'$"):
            reader(p)

    @pytest.mark.parametrize("reader", [read_paired_csv, lambda p: read_competing_csv(p, 1.0)],
                             ids=["paired", "competing"])
    def test_empty_file(self, tmp_path, reader):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(EmptyDataset, match="empty.csv: empty file$"):
            reader(p)


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as spreadsheets export "CSV UTF-8", is not part of the header."""

    def test_paired(self, tmp_path):
        text = "x1,delta1,x2,delta2,group\n2,1,1,0,a\n3,0,4,1,b\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = read_paired_csv(plain), read_paired_csv(marked)
        np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(got.delta, want.delta)
        assert list(got.group) == list(want.group) == ["a", "b"]

    def test_competing(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text("z,epsilon\n1.5,1\n2,0\n", encoding="utf-8-sig")
        data = read_competing_csv(p, tau=3.0)
        np.testing.assert_array_equal(data.z, [1.5, 2.0])
        np.testing.assert_array_equal(data.epsilon, [1, 0])


class TestEmptyInput:
    """Every input without a record raises :class:`EmptyDataset`, a ``ValidationError``."""

    def test_dataset(self):
        with pytest.raises(EmptyDataset, match="dataset must contain at least one record"):
            Dataset(z=[], epsilon=[], tau=1.0)

    @pytest.mark.parametrize("data", [[], PairedSample(np.empty((0, 2)), np.empty((0, 2)))],
                             ids=["rows", "sample"])
    def test_prepare_dataset(self, data):
        with pytest.raises(EmptyDataset, match="^dataset must contain at least one record$"):
            prepare_dataset(data, 1.0)

    def test_prepare_dataset_reports_an_invalid_tau_first(self):
        with pytest.raises(NonPositiveTau):
            prepare_dataset([], -1.0)

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
        # event 2 of pair 1 and stays at 2
        data = [PairedObservation(5, 0, 2, 1), PairedObservation(1, 1, 2, 0)]
        ds = prepare_dataset(data, tau=3.0)
        np.testing.assert_array_equal(ds.z, [2.0, 1.0])
        np.testing.assert_array_equal(ds.epsilon, [2, 1])

    @given(rows=lattice_rows, tau=st.sampled_from([0.5, 2.0, 3.0, 4.5, 6.0, 10.0]))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_definitions(self, rows, tau):
        ds = prepare_dataset(rows, tau)
        z, eps = naive_competing_risks(rows, tau)
        np.testing.assert_array_equal(ds.z, z)
        np.testing.assert_array_equal(ds.epsilon, eps)
        same = prepare_dataset(PairedSample.of(rows), tau)
        np.testing.assert_array_equal(same.z, z)

    def test_within_pair_event_censoring_tie_keeps_the_event_first(self):
        # Tied (x1 == x2, one event): censoring it would lose the observed
        # within-pair ordering.
        data = [PairedObservation(3.0, 1, 3.0, 0), PairedObservation(1.0, 1, 2.0, 1)]
        ds = prepare_dataset(data, tau=10.0)
        assert (ds.z[0], ds.epsilon[0]) == (3.0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_time_beside_a_censoring_tie(self, bad):
        # the censored x2 = 1 ties the event x1 = 1 of the second pair
        sample = PairedSample([[bad, 1.0], [1.0, 2.0], [3.0, 1.5]], [[1, 0], [1, 1], [0, 1]])
        with pytest.raises(NonFiniteTime, match="x1 is not finite"):
            prepare_dataset(sample, tau=10.0)

    def test_leaves_the_sample_as_it_is(self):
        sample = PairedSample([[3.0, 3.0], [1.0, 2.0]], [[1, 0], [1, 1]])
        ds = prepare_dataset(sample, tau=10.0)
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
        ds = prepare_dataset(data, tau=1.5)
        assert np.all(ds.z <= 1.5)


class TestPrepareRows:
    # pair 1's censored x2 = 1 ties pair 2's event x1 = 1
    X = [[[2.0, 1.0], [1.0, 2.0], [3.0, 1.5]]] * 2
    DELTA = [[[1, 0], [1, 1], [0, 1]]] * 2

    def test_rows_are_not_changed_in_place(self):
        # tau = 1.5 truncates every pair but the second
        x = np.array(self.X)
        _prepare_rows(x, np.array(self.DELTA), 1.5)
        np.testing.assert_array_equal(x, self.X)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_time_beside_a_censoring_tie(self, bad):
        x = np.array(self.X)
        x[1, 0, 0] = bad
        z, eps, errors = _prepare_rows(x, np.array(self.DELTA), 5.0)
        assert list(errors) == [1]
        assert isinstance(errors[1], NonFiniteTime)
        assert str(errors[1]) == f"x1 is not finite: {bad}"

    def test_each_failed_sample_keeps_its_own_error(self):
        # sample 1 holds an infinite x2 and sample 2 a NaN x1; sample 0 is
        # prepared as on its own
        x = np.array([self.X[0]] * 3)
        x[1, 1, 1], x[2, 0, 0] = math.inf, math.nan
        delta = np.array(self.DELTA[:1] * 3)
        z, eps, errors = _prepare_rows(x, delta, 5.0)
        assert sorted(errors) == [1, 2]
        assert str(errors[1]) == "x2 is not finite: inf"
        assert str(errors[2]) == "x1 is not finite: nan"
        alone = prepare_dataset(PairedSample(x[0], delta[0]), 5.0)
        np.testing.assert_array_equal(z[0], alone.z)
        np.testing.assert_array_equal(eps[0], alone.epsilon)
        assert not z[1:].any() and not eps[1:].any()

    @pytest.mark.parametrize("tau", [3.0, 10.0])
    def test_each_sample_is_prepared_as_on_its_own(self, tau):
        # lattice times 0 to 4 tie within and between pairs, and tau = 3
        # truncates some of them to events at tau; the block applies the tie
        # rule to every sample as prepare_dataset does to it alone
        rng = np.random.default_rng(11)
        x = rng.integers(0, 5, (40, 12, 2)).astype(float)
        delta = rng.integers(0, 2, (40, 12, 2))
        z, eps, errors = _prepare_rows(x, delta, tau)
        assert errors == {}
        for r in range(len(x)):
            alone = prepare_dataset(PairedSample(x[r], delta[r]), tau)
            np.testing.assert_array_equal(z[r], alone.z)
            np.testing.assert_array_equal(eps[r], alone.epsilon)
