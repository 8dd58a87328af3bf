"""Mean-square-error metric and the cross-model ranking.

MSE is the sole benchmark.  Raw-scale squared errors on USD prices
reach 1e8 and beyond, so the accumulation uses numpy's pairwise
summation rather than a naive running total.  Every model is scored on
both the normalized ([0, 1] close) scale and the raw price scale; the
ranking uses the normalized number so all models compare in identical
units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = ["ModelResult", "mse", "compare"]


def mse(y_true, y_pred) -> float:
    """(1/n) sum (y_true - y_pred)^2 with pairwise accumulation."""
    t = np.asarray(y_true, dtype=np.float64)
    p = np.asarray(y_pred, dtype=np.float64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("mse of empty vectors is undefined")
    diff = t - p
    return float(np.sum(diff * diff) / t.size)


@dataclass(frozen=True)
class ModelResult:
    """One model family's score in both units plus its winning config."""

    model_name: str
    mse_normalized: float
    mse_raw: float
    config_summary: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        for label, value in (("mse_normalized", self.mse_normalized),
                             ("mse_raw", self.mse_raw)):
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{label} must be finite and >= 0, got {value}")


def compare(results: Sequence[ModelResult]) -> list[ModelResult]:
    """The results ranked by mse_normalized, ties broken by model name;
    the winner is first."""
    if not results:
        raise ValueError("cannot compare an empty result list")
    return sorted(results, key=lambda r: (r.mse_normalized, r.model_name))
