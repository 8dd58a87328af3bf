"""OHLCV ingestion: parse, validate, clean, normalize, split, window, fold.

The CSV contract is a Yahoo-Finance-style daily bar file with the seven
columns Date, Open, High, Low, Close, Adj Close, Volume (any order,
case-insensitive).  Dates are either DD/MM/YYYY or ISO YYYY-MM-DD; a
single file must stick to one format.  Rows with empty or unparseable
numeric fields are kept by the parser and flagged missing; ``clean``
drops them in a separate step so row accounting stays explicit.

Every failure here raises ``DatasetError``, a ``ValueError``; a parse
error names the CSV record at fault.  ``DataWarning`` flags data that
is suspicious but kept.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "OhlcvRecord",
    "ScalerParams",
    "WindowedDataset",
    "DatasetError",
    "DataWarning",
    "COLUMNS",
    "parse_csv",
    "clean",
    "fit_scaler",
    "scale",
    "inverse_scale",
    "chronological_split",
    "make_windows",
    "time_folds",
    "column_values",
]


class DatasetError(ValueError):
    """An ingestion or preprocessing failure."""


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
                raise DatasetError(
                    f"{self.date}: {name} must be a positive finite price, got {value!r}"
                )
        if self.volume is not None and (not math.isfinite(self.volume) or self.volume < 0.0):
            raise DatasetError(
                f"{self.date}: volume must be non-negative, got {self.volume!r}"
            )
        if self.low is not None and self.high is not None and self.low > self.high:
            raise DatasetError(
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
            raise DatasetError("scaler bounds must be finite")
        if self.max <= self.min:
            raise DatasetError(
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
            raise DatasetError(
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
            raise DatasetError(f"unknown column {row[idx]!r} in header")
        if name in mapping:
            raise DatasetError(f"duplicate column {row[idx]!r} in header")
        mapping[name] = idx
    missing = [c for c in COLUMNS if c not in mapping]
    if missing:
        raise DatasetError(f"header is missing columns: {', '.join(missing)}")
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
    raises DatasetError naming its number instead of ``csv.Error``.
    A quoted field may span lines, so a number can be below the line's."""
    row_no = 0
    try:
        for row_no, row in enumerate(reader, 1):
            yield row_no, row
    except csv.Error as exc:
        raise DatasetError(f"row {row_no + 1}: {exc}") from exc


def parse_csv(text: str) -> tuple[OhlcvRecord, ...]:
    """The records of OHLCV CSV text, in file order; their dates must
    strictly increase.

    Numeric fields that are empty or unparseable become ``None`` on the
    record; dropping such rows is ``clean``'s job.  Comment lines
    starting with ``#`` before the header are skipped.
    """
    reader = csv.reader(io.StringIO(text))

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
            raise DatasetError(
                f"row {row_no}: expected {len(COLUMNS)} fields, got {len(row)}"
            )

        raw_date = row[header_map["date"]].strip()
        fmt = _detect_date_format(raw_date)
        if fmt is None:
            raise DatasetError(f"row {row_no}: cannot parse date {raw_date!r}")
        if date_format is None:
            date_format = fmt
        elif fmt != date_format:
            raise DatasetError(
                f"row {row_no}: date {raw_date!r} mixes formats within one file"
            )
        try:
            date = _parse_date(raw_date, fmt)
        except ValueError as exc:
            raise DatasetError(f"row {row_no}: cannot parse date {raw_date!r}") from exc

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
        except DatasetError as exc:
            raise DatasetError(f"row {row_no}: {exc}") from exc
        if records and date <= records[-1].date:
            raise DatasetError(f"row {row_no}: dates must strictly increase: "
                               f"{records[-1].date} followed by {date}")
        records.append(record)

    if header_map is None:
        raise DatasetError("input has no header row")
    return tuple(records)


def clean(records: Sequence[OhlcvRecord]) -> tuple[OhlcvRecord, ...]:
    """The records without a missing field, in order."""
    kept = tuple(r for r in records if not r.has_missing)
    if not kept:
        raise DatasetError("no records left after dropping missing fields")
    return kept


def column_values(records: Sequence[OhlcvRecord], column: str = "close") -> np.ndarray:
    """One numeric column as float64, with NaN for missing."""
    if column not in _PRICE_FIELDS + ("volume",):
        raise DatasetError(f"no such value column: {column!r}")
    return np.array([getattr(r, column) for r in records], dtype=np.float64)


def fit_scaler(values) -> ScalerParams:
    """Fit min-max bounds.  Call with training values only."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise DatasetError("cannot fit a scaler on no values")
    if not np.all(np.isfinite(arr)):
        raise DatasetError("scaler input contains non-finite values")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi == lo:
        raise DatasetError(f"all values equal {lo}; range is degenerate")
    return ScalerParams(min=lo, max=hi)


def scale(values, params: ScalerParams) -> np.ndarray:
    """Map values through (v - min) / (max - min); no clipping."""
    arr = np.asarray(values, dtype=np.float64)
    return (arr - params.min) / params.span


def inverse_scale(values, params: ScalerParams) -> np.ndarray:
    """Exact inverse of :func:`scale`."""
    arr = np.asarray(values, dtype=np.float64)
    return arr * params.span + params.min


def chronological_split(n: int, train_fraction: float) -> int:
    """The train size of ``n`` time-ordered records: the first
    floor(n * fraction) train, the rest test.  Refuses an empty series
    and a cut that leaves either side empty."""
    if n == 0:
        raise DatasetError("cannot split an empty series")
    cut = int(math.floor(n * train_fraction))
    if cut == 0 or cut == n:
        raise DatasetError(
            f"split at {cut}/{n} leaves one side empty (fraction {train_fraction})"
        )
    return cut


def make_windows(values, window: int) -> WindowedDataset:
    """Slide a length-``window`` input over ``values``; the value right
    after each window is its target.  Refuses values that are not 1-D or
    number ``window`` or fewer."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DatasetError("make_windows expects a 1-D value sequence")
    if arr.size <= window:
        raise DatasetError(
            f"need more than {window} values to build windows, got {arr.size}"
        )
    view = np.lib.stride_tricks.sliding_window_view(arr, window)
    inputs = np.ascontiguousarray(view[:-1])
    targets = arr[window:].copy()
    return WindowedDataset(inputs=inputs, targets=targets, window=window)


def time_folds(n: int, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Forward-chaining CV over ``n`` time-ordered samples: one
    (fit_indices, eval_indices) pair per fold, so no fold fits on a day
    after the block it scores.

    The samples are cut into k + 1 contiguous blocks, the first n % (k + 1)
    one sample longer; fold i fits blocks 0..i and scores block i + 1.
    Refuses n < k + 1 and a first block shorter than 2."""
    if n < k + 1:
        raise DatasetError(f"{n} samples cannot fill {k} folds")
    blocks = np.array_split(np.arange(n), k + 1)
    if len(blocks[0]) < 2:
        raise DatasetError(
            f"{n} samples leave fewer than 2 training points per {k}-fold split")
    return [(np.arange(block[0]), block) for block in blocks[1:]]
