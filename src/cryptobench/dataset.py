"""OHLCV ingestion: parse, validate, clean, normalize, split and window.

The CSV contract is a Yahoo-Finance-style daily bar file with the seven
columns Date, Open, High, Low, Close, Adj Close, Volume (any order,
case-insensitive).  Dates are either DD/MM/YYYY or ISO YYYY-MM-DD; a
single file must stick to one format.  Rows with empty or unparseable
numeric fields are kept by the parser and flagged missing; ``clean``
drops them in a separate step so row accounting stays explicit.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "OhlcvRecord",
    "PriceSeries",
    "ScalerParams",
    "WindowedDataset",
    "DatasetError",
    "MissingHeaderError",
    "UnknownColumnError",
    "UnparseableDateError",
    "InvalidRecordError",
    "NonMonotonicDatesError",
    "EmptyAfterCleanError",
    "DegenerateRangeError",
    "EmptySplitError",
    "SeriesTooShortError",
    "DataWarning",
    "COLUMNS",
    "parse_csv",
    "clean",
    "fit_scaler",
    "scale",
    "inverse_scale",
    "chronological_split",
    "make_windows",
    "column_values",
]


class DatasetError(ValueError):
    """Base class for ingestion and preprocessing failures."""


class MissingHeaderError(DatasetError):
    pass


class UnknownColumnError(DatasetError):
    pass


class UnparseableDateError(DatasetError):
    pass


class InvalidRecordError(DatasetError):
    pass


class NonMonotonicDatesError(DatasetError):
    pass


class EmptyAfterCleanError(DatasetError):
    pass


class DegenerateRangeError(DatasetError):
    pass


class EmptySplitError(DatasetError):
    pass


class SeriesTooShortError(DatasetError):
    pass


class DataWarning(UserWarning):
    """Suspicious but tolerated data, e.g. open/close outside [low, high]."""


COLUMNS = ("date", "open", "high", "low", "close", "adj close", "volume")

_PRICE_FIELDS = ("open", "high", "low", "close", "adj_close")


@dataclass(frozen=True)
class OhlcvRecord:
    """One daily market bar.  ``None`` marks a missing numeric field.

    Prices must be positive and finite when present, low <= high, and
    volume non-negative; violating rows are rejected outright rather
    than flagged, since they indicate a corrupt feed, not a gap.
    """

    date: dt.date
    open: float | None
    high: float | None
    low: float | None
    close: float | None
    adj_close: float | None
    volume: float | None

    def __post_init__(self):
        for name in _PRICE_FIELDS:
            value = getattr(self, name)
            if value is not None and (not math.isfinite(value) or value <= 0.0):
                raise InvalidRecordError(
                    f"{self.date}: {name} must be a positive finite price, got {value!r}"
                )
        if self.volume is not None and (not math.isfinite(self.volume) or self.volume < 0.0):
            raise InvalidRecordError(
                f"{self.date}: volume must be non-negative, got {self.volume!r}"
            )
        if self.low is not None and self.high is not None and self.low > self.high:
            raise InvalidRecordError(
                f"{self.date}: low {self.low} exceeds high {self.high}"
            )
        for name in ("open", "close"):
            value = getattr(self, name)
            if value is None or self.low is None or self.high is None:
                continue
            if not (self.low <= value <= self.high):
                warnings.warn(
                    f"{self.date}: {name} {value} outside [low, high] range",
                    DataWarning,
                    stacklevel=2,
                )

    @property
    def has_missing(self) -> bool:
        return any(
            getattr(self, name) is None for name in _PRICE_FIELDS + ("volume",)
        )


@dataclass(frozen=True)
class PriceSeries:
    """An ordered sequence of bars with strictly increasing dates."""

    records: tuple[OhlcvRecord, ...]

    def __post_init__(self):
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.date <= prev.date:
                raise NonMonotonicDatesError(
                    f"dates must strictly increase: {prev.date} followed by {cur.date}"
                )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> OhlcvRecord:
        return self.records[index]

    @property
    def dates(self) -> list[dt.date]:
        return [r.date for r in self.records]


@dataclass(frozen=True)
class ScalerParams:
    """Min-max parameters mapping [min, max] onto [0, 1].

    Values outside the fitted range map outside [0, 1] without
    clipping, so a scaler fitted on the training slice extrapolates
    over test values and the inverse transform stays exact.
    """

    min: float
    max: float

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise DegenerateRangeError("scaler bounds must be finite")
        if self.max <= self.min:
            raise DegenerateRangeError(
                f"scaler needs max > min, got min={self.min} max={self.max}"
            )

    @property
    def span(self) -> float:
        return self.max - self.min


@dataclass(frozen=True)
class WindowedDataset:
    """Sliding-window samples: inputs[k] holds the ``window`` values
    immediately preceding targets[k]."""

    inputs: np.ndarray  # (n_samples, window)
    targets: np.ndarray  # (n_samples,)
    window: int

    def __post_init__(self):
        if self.inputs.shape != (len(self.targets), self.window):
            raise ValueError(
                f"inputs shape {self.inputs.shape} inconsistent with "
                f"{len(self.targets)} targets and window {self.window}"
            )

    def __len__(self) -> int:
        return len(self.targets)


def _normalise_header_cell(cell: str) -> str:
    return cell.strip().lower().replace("_", " ")


def _parse_header(row: Sequence[str]) -> dict[str, int]:
    names = [_normalise_header_cell(c) for c in row]
    mapping: dict[str, int] = {}
    for idx, name in enumerate(names):
        if name not in COLUMNS:
            raise UnknownColumnError(f"unknown column {row[idx]!r} in header")
        if name in mapping:
            raise UnknownColumnError(f"duplicate column {row[idx]!r} in header")
        mapping[name] = idx
    missing = [c for c in COLUMNS if c not in mapping]
    if missing:
        raise MissingHeaderError(f"header is missing columns: {', '.join(missing)}")
    return mapping


def _detect_date_format(text: str) -> str | None:
    if len(text) == 10 and text[2] == "/" and text[5] == "/":
        return "dmy"
    if len(text) == 10 and text[4] == "-" and text[7] == "-":
        return "iso"
    return None


def _parse_date(text: str, date_format: str) -> dt.date:
    """The date of a string ``_detect_date_format`` classed as
    ``date_format``; its other eight characters must be ASCII digits.
    Raises ValueError for any other character or an impossible date."""
    if date_format == "dmy":
        text = f"{text[6:]}-{text[3:5]}-{text[:2]}"
    return dt.date.fromisoformat(text)


def _parse_number(cell: str) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        return None
    if math.isnan(value):
        return None
    return value


def _rows(reader):
    """The reader's records, numbered from 1, blank ones included; a
    record the csv module rejects (say, a field over its size limit)
    raises InvalidRecordError naming its number instead of ``csv.Error``.
    A quoted field may span lines, so a number can be below the line's."""
    row_no = 0
    try:
        for row_no, row in enumerate(reader, 1):
            yield row_no, row
    except csv.Error as exc:
        raise InvalidRecordError(f"row {row_no + 1}: {exc}") from exc


def parse_csv(source: str | Iterable[str]) -> PriceSeries:
    """Parse OHLCV CSV text (a string or an iterable of lines).

    Numeric fields that are empty or unparseable become ``None`` on the
    record; dropping such rows is ``clean``'s job.  Comment lines
    starting with ``#`` before the header are skipped.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)

    header_map = None
    date_format: str | None = None
    records: list[OhlcvRecord] = []

    for row_no, row in _rows(reader):
        if not row or all(not c.strip() for c in row):
            continue
        if header_map is None:
            if row[0].lstrip().startswith("#"):
                continue
            header_map = _parse_header(row)
            continue

        if len(row) != len(COLUMNS):
            raise InvalidRecordError(
                f"row {row_no}: expected {len(COLUMNS)} fields, got {len(row)}"
            )

        raw_date = row[header_map["date"]].strip()
        fmt = _detect_date_format(raw_date)
        if fmt is None:
            raise UnparseableDateError(f"row {row_no}: cannot parse date {raw_date!r}")
        if date_format is None:
            date_format = fmt
        elif fmt != date_format:
            raise UnparseableDateError(
                f"row {row_no}: date {raw_date!r} mixes formats within one file"
            )
        try:
            date = _parse_date(raw_date, fmt)
        except ValueError as exc:
            raise UnparseableDateError(f"row {row_no}: cannot parse date {raw_date!r}") from exc

        try:
            record = OhlcvRecord(
                date=date,
                open=_parse_number(row[header_map["open"]]),
                high=_parse_number(row[header_map["high"]]),
                low=_parse_number(row[header_map["low"]]),
                close=_parse_number(row[header_map["close"]]),
                adj_close=_parse_number(row[header_map["adj close"]]),
                volume=_parse_number(row[header_map["volume"]]),
            )
        except InvalidRecordError as exc:
            raise InvalidRecordError(f"row {row_no}: {exc}") from exc
        records.append(record)

    if header_map is None:
        raise MissingHeaderError("input has no header row")
    return PriceSeries(tuple(records))


def clean(series: PriceSeries) -> PriceSeries:
    """Drop every record with a missing field, preserving order."""
    kept = tuple(r for r in series if not r.has_missing)
    if not kept:
        raise EmptyAfterCleanError("no records left after dropping missing fields")
    return PriceSeries(kept)


def column_values(series: PriceSeries, column: str = "close") -> np.ndarray:
    """Extract one numeric column as float64, with NaN for missing."""
    if column not in _PRICE_FIELDS + ("volume",):
        raise UnknownColumnError(f"no such value column: {column!r}")
    values = [getattr(r, column) for r in series]
    return np.array([math.nan if v is None else v for v in values], dtype=np.float64)


def fit_scaler(values) -> ScalerParams:
    """Fit min-max bounds.  Call with training values only."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise DegenerateRangeError("cannot fit a scaler on no values")
    if not np.all(np.isfinite(arr)):
        raise DegenerateRangeError("scaler input contains non-finite values")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi == lo:
        raise DegenerateRangeError(f"all values equal {lo}; range is degenerate")
    return ScalerParams(min=lo, max=hi)


def scale(values, params: ScalerParams) -> np.ndarray:
    """Map values through (v - min) / (max - min); no clipping."""
    arr = np.asarray(values, dtype=np.float64)
    return (arr - params.min) / params.span


def inverse_scale(values, params: ScalerParams) -> np.ndarray:
    """Exact inverse of :func:`scale`."""
    arr = np.asarray(values, dtype=np.float64)
    return arr * params.span + params.min


def chronological_split(
    series: PriceSeries, train_fraction: float
) -> tuple[PriceSeries, PriceSeries]:
    """First floor(n * fraction) records become train, the rest test."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(series)
    if n == 0:
        raise EmptySplitError("cannot split an empty series")
    cut = int(math.floor(n * train_fraction))
    if cut == 0 or cut == n:
        raise EmptySplitError(
            f"split at {cut}/{n} leaves one side empty (fraction {train_fraction})"
        )
    return PriceSeries(series.records[:cut]), PriceSeries(series.records[cut:])


def make_windows(values, window: int) -> WindowedDataset:
    """Slide a length-``window`` input over ``values``; the value right
    after each window is its target."""
    arr = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    if arr.ndim != 1:
        raise ValueError("make_windows expects a 1-D value sequence")
    if arr.size <= window:
        raise SeriesTooShortError(
            f"need more than {window} values to build windows, got {arr.size}"
        )
    view = np.lib.stride_tricks.sliding_window_view(arr, window)
    inputs = np.ascontiguousarray(view[:-1])
    targets = arr[window:].copy()
    return WindowedDataset(inputs=inputs, targets=targets, window=window)
