import datetime as dt

import numpy as np
import pytest

from cryptobench import dataset
from cryptobench.dataset import (
    DatasetError,
    DataWarning,
    OhlcvRecord,
    ScalerParams,
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
        assert [r.date for r in series] == [dt.date(2020, 1, 10), dt.date(2020, 1, 11)]

    def test_missing_header_column(self):
        with pytest.raises(DatasetError, match="^header is missing columns: volume$"):
            dataset.parse_csv("Date,Open,High,Low,Close,Adj Close\n")

    def test_no_header_at_all(self):
        with pytest.raises(DatasetError, match="^input has no header row$"):
            dataset.parse_csv("")

    def test_unknown_column(self):
        with pytest.raises(DatasetError, match="^unknown column 'Ticker' in header$"):
            dataset.parse_csv("Date,Open,High,Low,Close,Adj Close,Volume,Ticker\n")

    def test_unparseable_date_reports_row(self):
        text = HEADER + "10/01/2020,9,10,8,9,9,100\nnot-a-date,9,10,8,9,9,100\n"
        with pytest.raises(DatasetError, match="^row 3: cannot parse date 'not-a-date'$"):
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
            with pytest.raises(DatasetError, match=f"^row 2: cannot parse date '{text}'$"):
                dataset.parse_csv(csv_text)
        else:
            assert [r.date for r in dataset.parse_csv(csv_text)] == [expected]

    @pytest.mark.parametrize("last, message", [
        ("not-a-date,9,10,8,9,9,100", "cannot parse date 'not-a-date'"),
        ("x" * 131_073, "field larger than field limit"),
    ], ids=["bad_date", "oversized_field"])
    def test_one_row_number_after_a_multiline_field(self, last, message):
        # the quoted volume spans two lines, so the last record is row 3 on line 4
        text = HEADER + '10/01/2020,9,10,8,9,9,"1\n00"\n' + last + "\n"
        with pytest.raises(DatasetError, match=f"^row 3: {message}"):
            dataset.parse_csv(text)

    def test_mixed_date_formats_rejected(self):
        text = HEADER + "10/01/2020,9,10,8,9,9,100\n2020-01-11,9,10,8,9,9,100\n"
        with pytest.raises(DatasetError, match="^row 3: date '2020-01-11' mixes formats within one file$"):
            dataset.parse_csv(text)

    def test_non_monotonic_dates(self):
        text = HEADER + "11/01/2020,9,10,8,9,9,100\n10/01/2020,9,10,8,9,9,100\n"
        with pytest.raises(DatasetError, match="^row 3: dates must strictly increase: 2020-01-11 followed by 2020-01-10$"):
            dataset.parse_csv(text)

    def test_non_monotonic_dates_in_a_row_clean_would_drop(self):
        # the out-of-order row has an empty close, so it never reaches clean's output
        text = HEADER + "11/01/2020,9,10,8,9,9,100\n10/01/2020,9,10,8,,9,100\n"
        with pytest.raises(DatasetError, match="^row 3: dates must strictly increase: 2020-01-11 followed by 2020-01-10$"):
            dataset.parse_csv(text)

    def test_low_above_high_is_hard_error(self):
        text = HEADER + "10/01/2020,9,8,10,9,9,100\n"
        with pytest.raises(DatasetError, match="^row 2: 2020-01-10: low 10.0 exceeds high 8.0$"):
            dataset.parse_csv(text)

    def test_field_over_csv_limit_is_hard_error(self):
        text = HEADER + "10/01/2020,9,10,8,9,9,100\n" + "x" * 131_073 + "\n"
        with pytest.raises(DatasetError, match="^row 3: field larger than field limit"):
            dataset.parse_csv(text)

    def test_negative_price_is_hard_error(self):
        text = HEADER + "10/01/2020,-9,10,8,9,9,100\n"
        with pytest.raises(DatasetError, match="^row 2: 2020-01-10: open must be a positive finite price, got -9.0$"):
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
        cleaned = dataset.clean(tuple(records))
        assert len(cleaned) == 9
        assert dt.date(2020, 1, 5) not in [r.date for r in cleaned]

    def test_identity_when_nothing_missing(self):
        series = tuple(make_record(d) for d in range(1, 6))
        assert dataset.clean(series) == series

    def test_all_missing_raises(self):
        series = tuple(make_record(d, volume=None) for d in range(1, 4))
        with pytest.raises(DatasetError, match="^no records left after dropping missing fields$"):
            dataset.clean(series)


class TestScaler:
    def test_fit(self):
        params = dataset.fit_scaler([2.0, 4.0, 6.0])
        assert params.min == 2.0
        assert params.max == 6.0

    def test_constant_values_degenerate(self):
        with pytest.raises(DatasetError, match="^all values equal 5.0; range is degenerate$"):
            dataset.fit_scaler([5.0, 5.0, 5.0])

    def test_single_value_degenerate(self):
        with pytest.raises(DatasetError, match="^all values equal 3.0; range is degenerate$"):
            dataset.fit_scaler([3.0])

    def test_direct_construction_validates(self):
        with pytest.raises(DatasetError, match="^scaler needs max > min, got min=4.0 max=4.0$"):
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
    def test_80_20(self):
        assert dataset.chronological_split(10, 0.8) == 8

    def test_floor_behaviour(self):
        assert dataset.chronological_split(11, 0.8) == 8

    def test_single_record_raises(self):
        with pytest.raises(DatasetError, match=r"^split at 0/1 leaves one side empty \(fraction 0.8\)$"):
            dataset.chronological_split(1, 0.8)


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
        with pytest.raises(DatasetError, match="^need more than 2 values to build windows, got 2$"):
            dataset.make_windows([1.0, 2.0], 2)

    def test_targets_reproduce_tail(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=40)
        for w in (1, 5, 17):
            ds = dataset.make_windows(values, w)
            assert len(ds) == values.size - w
            np.testing.assert_array_equal(ds.targets, values[w:])
            np.testing.assert_array_equal(ds.inputs[:, -1], values[w - 1 : -1])


class TestTimeFolds:
    # k + 1 blocks of n samples, the first ceil(n / (k + 1)) long: it holds
    # 2 training points exactly when n >= k + 2
    def test_folds_are_the_forward_chaining_plan(self):
        for n in range(1, 61):
            for k in range(2, 11):
                if n < k + 2:
                    with pytest.raises(DatasetError):
                        dataset.time_folds(n, k)
                    continue
                blocks = [b.tolist() for b in np.array_split(np.arange(n), k + 1)]
                folds = dataset.time_folds(n, k)
                assert len(folds) == k
                assert [e.tolist() for _, e in folds] == blocks[1:]
                for i, (fit, _) in enumerate(folds):
                    assert fit.tolist() == [j for block in blocks[: i + 1] for j in block]

    def test_no_fold_fits_on_a_later_day(self):
        for n in range(1, 61):
            for k in range(2, 11):
                if n < k + 2:
                    continue
                folds = dataset.time_folds(n, k)
                for fit, evaluate in folds:
                    assert fit.max() < evaluate.min(), (n, k)
                evals = np.concatenate([e for _, e in folds])
                assert np.array_equal(evals, np.arange(evals[0], n)), (n, k)

    @pytest.mark.parametrize("n, k, message", [
        (3, 5, "3 samples cannot fill 5 folds"),
        (3, 2, "3 samples leave fewer than 2 training points per 2-fold split"),
    ], ids=["too_few_samples", "too_few_to_fit"])
    def test_refused(self, n, k, message):
        with pytest.raises(DatasetError, match=f"^{message}$"):
            dataset.time_folds(n, k)
