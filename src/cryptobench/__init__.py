"""Crypto price forecasting benchmark.

Trains three model families from scratch on daily OHLCV bars -- an
LSTM regressor, epsilon-SVR with a kernel grid search, and polynomial
regression -- and ranks them by mean square error.  See the ``cli``
module (installed as the ``cryptobench`` command) for the pipeline:
prepare -> run {lstm,svr,poly} -> compare.
"""

from pathlib import Path

__version__ = "0.1.0"

__all__ = ["__version__", "sample_data_path"]


def sample_data_path() -> Path:
    """Path of the bundled 60-day BTC-USD sample CSV used in tests and docs."""
    from importlib import resources

    return Path(resources.files(__package__) / "data" / "btc_usd_sample.csv")
