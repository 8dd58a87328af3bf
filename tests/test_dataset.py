import datetime as dt

import numpy as np
import pytest

from cryptobench import dataset
from cryptobench.dataset import (
    DataWarning,
    DegenerateRangeError,
    EmptyAfterCleanError,
    EmptySplitError,
    InvalidRecordError,
    MissingHeaderError,
    NonMonotonicDatesError,
    OhlcvRecord,
    PriceSeries,
    ScalerParams,
    SeriesTooShortError,
    UnknownColumnError,
    UnparseableDateError,
)

HEADER = "Date,Open,High,Low,Close,Adj Close,Volume\n"


def make_record(day, price=100.0, **overrides):
    fields = dict(
        date=dt.date(2020, 1, day),
        open=price,
        high=price * 1.01,
        low=price * 0.99,
        close=price,
        adj_close=price,
        volume=1000.0,
    )
    fields.update(overrides)
    return OhlcvRecord(**fields)


class TestParseCsv:
    def test_sample_row_values(self):
        text = HEADER + "10/01/2020,7878.3076,8166.5541,7726.7749,8166.5541,8166.5541,28714583844\n"
        series = dataset.parse_csv(text)
        assert len(series) == 1
        rec = series[0]
        assert rec.date == dt.date(2020, 1, 10)
        assert rec.close == 8166.5541
        assert rec.volume == 28714583844
        assert not rec.has_missing

    def test_header_only_gives_empty_series(self):
        series = dataset.parse_csv(HEADER)
        assert len(series) == 0

    def test_empty_close_is_flagged_missing_not_dropped(self):
        text = HEADER + "10/01/2020,7878.3,8166.5,7726.7,,8166.5,28714583844\n"
        series = dataset.parse_csv(text)
        assert len(series) == 1
        assert series[0].close is None
        assert series[0].has_missing

    def test_unparseable_number_is_flagged_missing(self):
        text = HEADER + "10/01/2020,7878.3,8166.5,7726.7,n/a,8166.5,28714583844\n"
        series = dataset.parse_csv(text)
        assert series[0].close is None

    def test_header_is_order_and_case_insensitive(self):
        text = (
            "volume,CLOSE,low,HIGH,open,adj close,DATE\n"
            "100,9,8,10,9.5,9,10/01/2020\n"
        )
        rec = dataset.parse_csv(text)[0]
        assert rec.close == 9.0
        assert rec.volume == 100.0
        assert rec.date == dt.date(2020, 1, 10)

    def test_iso_dates_accepted(self):
        text = HEADER + "2020-01-10,9,10,8,9,9,100\n2020-01-11,9,10,8,9,9,100\n"
        series = dataset.parse_csv(text)
        assert series.dates == [dt.date(2020, 1, 10), dt.date(2020, 1, 11)]

    def test_missing_header_column(self):
        with pytest.raises(MissingHeaderError, match="volume"):
            dataset.parse_csv("Date,Open,High,Low,Close,Adj Close\n")

    def test_no_header_at_all(self):
        with pytest.raises(MissingHeaderError):
            dataset.parse_csv("")

    def test_unknown_column(self):
        with pytest.raises(UnknownColumnError, match="Ticker"):
            dataset.parse_csv("Date,Open,High,Low,Close,Adj Close,Volume,Ticker\n")

    def test_unparseable_date_reports_row(self):
        text = HEADER + "10/01/2020,9,10,8,9,9,100\nnot-a-date,9,10,8,9,9,100\n"
        with pytest.raises(UnparseableDateError, match="row 3"):
            dataset.parse_csv(text)

    @pytest.mark.parametrize("text, expected", [
        ("29/02/2020", dt.date(2020, 2, 29)),
        ("2020-02-29", dt.date(2020, 2, 29)),
        ("29/02/2021", None),
        ("2021-02-29", None),
        ("01/13/2020", None),
        ("2020-13-01", None),
        ("31/04/2020", None),
        ("2020-04-31", None),
        ("1o/01/2020", None),
        ("2020-01-1o", None),
        ("2O20-01-10", None),
    ])
    def test_date_table(self, text, expected):
        csv_text = HEADER + f"{text},9,10,8,9,9,100\n"
        if expected is None:
            with pytest.raises(UnparseableDateError, match=f"^row 2: cannot parse date '{text}'$"):
                dataset.parse_csv(csv_text)
        else:
            assert dataset.parse_csv(csv_text).dates == [expected]

    @pytest.mark.parametrize("last, error", [
        ("not-a-date,9,10,8,9,9,100", UnparseableDateError),
        ("x" * 131_073, InvalidRecordError),
    ], ids=["bad_date", "oversized_field"])
    def test_one_row_number_after_a_multiline_field(self, last, error):
        # the quoted volume spans two lines, so the last record is row 3 on line 4
        text = HEADER + '10/01/2020,9,10,8,9,9,"1\n00"\n' + last + "\n"
        with pytest.raises(error, match="^row 3: "):
            dataset.parse_csv(text)

    def test_mixed_date_formats_rejected(self):
        text = HEADER + "10/01/2020,9,10,8,9,9,100\n2020-01-11,9,10,8,9,9,100\n"
        with pytest.raises(UnparseableDateError, match="mixes formats"):
            dataset.parse_csv(text)

    def test_non_monotonic_dates(self):
        text = HEADER + "11/01/2020,9,10,8,9,9,100\n10/01/2020,9,10,8,9,9,100\n"
        with pytest.raises(NonMonotonicDatesError):
            dataset.parse_csv(text)

    def test_low_above_high_is_hard_error(self):
        text = HEADER + "10/01/2020,9,8,10,9,9,100\n"
        with pytest.raises(InvalidRecordError, match="row 2"):
            dataset.parse_csv(text)

    def test_field_over_csv_limit_is_hard_error(self):
        text = HEADER + "10/01/2020,9,10,8,9,9,100\n" + "x" * 131_073 + "\n"
        with pytest.raises(InvalidRecordError, match="row 3: field larger than field limit"):
            dataset.parse_csv(text)

    def test_negative_price_is_hard_error(self):
        text = HEADER + "10/01/2020,-9,10,8,9,9,100\n"
        with pytest.raises(InvalidRecordError):
            dataset.parse_csv(text)

    def test_close_outside_range_warns_only(self):
        text = HEADER + "10/01/2020,9,10,8,11,11,100\n"
        with pytest.warns(DataWarning):
            series = dataset.parse_csv(text)
        assert series[0].close == 11.0

    def test_parses_sample_fixture(self):
        import cryptobench

        series = dataset.parse_csv(cryptobench.sample_data_path().read_text())
        assert len(series) == 60
        assert not any(r.has_missing for r in series)


class TestClean:
    def test_drops_only_missing_rows(self):
        records = [make_record(d) for d in range(1, 11)]
        records[4] = make_record(5, close=None)
        cleaned = dataset.clean(PriceSeries(tuple(records)))
        assert len(cleaned) == 9
        assert dt.date(2020, 1, 5) not in cleaned.dates

    def test_identity_when_nothing_missing(self):
        series = PriceSeries(tuple(make_record(d) for d in range(1, 6)))
        assert dataset.clean(series) == series

    def test_all_missing_raises(self):
        series = PriceSeries(tuple(make_record(d, volume=None) for d in range(1, 4)))
        with pytest.raises(EmptyAfterCleanError):
            dataset.clean(series)


class TestScaler:
    def test_fit(self):
        params = dataset.fit_scaler([2.0, 4.0, 6.0])
        assert params.min == 2.0
        assert params.max == 6.0

    def test_constant_values_degenerate(self):
        with pytest.raises(DegenerateRangeError):
            dataset.fit_scaler([5.0, 5.0, 5.0])

    def test_single_value_degenerate(self):
        with pytest.raises(DegenerateRangeError):
            dataset.fit_scaler([3.0])

    def test_direct_construction_validates(self):
        with pytest.raises(DegenerateRangeError):
            ScalerParams(min=4.0, max=4.0)

    def test_scale_values(self):
        params = ScalerParams(min=2.0, max=6.0)
        np.testing.assert_array_equal(dataset.scale([2.0, 4.0, 6.0], params), [0.0, 0.5, 1.0])

    def test_out_of_range_not_clipped(self):
        params = ScalerParams(min=2.0, max=6.0)
        np.testing.assert_array_equal(dataset.scale([8.0], params), [1.5])

    def test_inverse(self):
        params = ScalerParams(min=2.0, max=6.0)
        np.testing.assert_array_equal(dataset.inverse_scale([0.5], params), [4.0])

    def test_roundtrip_within_1e12_including_extrapolation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            values = rng.uniform(-50.0, 150.0, size=64)
            train = rng.uniform(10.0, 90.0, size=32)
            params = dataset.fit_scaler(train)
            back = dataset.inverse_scale(dataset.scale(values, params), params)
            np.testing.assert_allclose(back, values, rtol=1e-12, atol=1e-12)


class TestSplit:
    def _series(self, n):
        return PriceSeries(tuple(make_record(d) for d in range(1, n + 1)))

    def test_80_20(self):
        train, test = dataset.chronological_split(self._series(10), 0.8)
        assert (len(train), len(test)) == (8, 2)

    def test_floor_behaviour(self):
        train, test = dataset.chronological_split(self._series(11), 0.8)
        assert (len(train), len(test)) == (8, 3)

    def test_single_record_raises(self):
        with pytest.raises(EmptySplitError):
            dataset.chronological_split(self._series(1), 0.8)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            dataset.chronological_split(self._series(10), 1.0)

    def test_concatenation_recovers_series(self):
        series = self._series(13)
        train, test = dataset.chronological_split(series, 0.7)
        assert train.records + test.records == series.records
        assert train.dates[-1] < test.dates[0]


class TestMakeWindows:
    def test_basic(self):
        ds = dataset.make_windows([1.0, 2.0, 3.0, 4.0, 5.0], 2)
        np.testing.assert_array_equal(ds.inputs, [[1, 2], [2, 3], [3, 4]])
        np.testing.assert_array_equal(ds.targets, [3, 4, 5])

    def test_boundary_single_sample(self):
        ds = dataset.make_windows([1.0, 2.0, 3.0], 2)
        assert len(ds) == 1
        np.testing.assert_array_equal(ds.inputs, [[1, 2]])

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            dataset.make_windows([1.0, 2.0], 2)

    def test_targets_reproduce_tail(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=40)
        for w in (1, 5, 17):
            ds = dataset.make_windows(values, w)
            assert len(ds) == values.size - w
            np.testing.assert_array_equal(ds.targets, values[w:])
            np.testing.assert_array_equal(ds.inputs[:, -1], values[w - 1 : -1])


def test_column_values_nan_for_missing():
    series = PriceSeries((make_record(1), make_record(2, close=None)))
    values = dataset.column_values(series, "close")
    assert values[0] == 100.0
    assert np.isnan(values[1])
