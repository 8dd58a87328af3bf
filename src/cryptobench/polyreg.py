"""Polynomial regression: bias-free power expansion + least squares.

The feature expansion omits the constant column (matching an
``include_bias=False`` pipeline) and the intercept is fitted
separately by centering, which reaches the same optimum as an explicit
constant column.  Inputs are affinely mapped onto [0, 1] before taking
powers -- raw day indices raised to the 11th power would swamp double
precision -- and the map is stored on the model so predictions work for
inputs beyond the fitted range.  The normal equations are never formed;
the solve goes through numpy's SVD-based ``lstsq``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evaluation import mse

__all__ = [
    "PolyModel",
    "fit",
    "predict",
    "degree_sweep",
]


@dataclass(frozen=True)
class PolyModel:
    """y ~ intercept + sum_k coefficients[k-1] * x_scaled^k."""

    degree: int
    intercept: float
    coefficients: np.ndarray  # (degree,)
    feature_scale: tuple[float, float]  # (offset, span): x_scaled = (x - offset)/span

    def __post_init__(self):
        if len(self.coefficients) != self.degree:
            raise ValueError(
                f"degree {self.degree} needs {self.degree} coefficients, "
                f"got {len(self.coefficients)}")
        if not np.all(np.isfinite(self.coefficients)) or not np.isfinite(self.intercept):
            raise ValueError("polynomial coefficients must be finite")
        if not self.feature_scale[1] > 0:
            raise ValueError("feature span must be positive")


def _design_matrix(x_scaled: np.ndarray, degree: int) -> np.ndarray:
    """Bias-free Vandermonde columns x, x^2, ..., x^degree."""
    return np.vander(x_scaled, N=degree + 1, increasing=True)[:, 1:]


def fit(xs, ys, degree: int) -> PolyModel:
    """Least-squares polynomial of the given degree."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    if np.unique(xs).size < degree + 1:
        raise ValueError(
            f"degree {degree} needs at least {degree + 1} distinct inputs, "
            f"got {np.unique(xs).size}")

    offset = float(xs.min())
    span = float(xs.max() - offset)
    x_scaled = (xs - offset) / span
    design = _design_matrix(x_scaled, degree)

    # separately fitted intercept via centering; equivalent optimum to a
    # constant column but keeps the expansion itself bias-free
    col_means = design.mean(axis=0)
    y_mean = float(ys.mean())
    coefs, _, rank, _ = np.linalg.lstsq(design - col_means, ys - y_mean, rcond=None)
    if rank < degree:
        raise ValueError(
            f"design matrix rank {rank} < degree {degree}; inputs are degenerate")
    intercept = y_mean - float(col_means @ coefs)
    return PolyModel(degree=degree, intercept=intercept, coefficients=coefs,
                     feature_scale=(offset, span))


def predict(model: PolyModel, x):
    """Evaluate by Horner's scheme on the scaled input; vectorized."""
    x = np.asarray(x, dtype=np.float64)
    offset, span = model.feature_scale
    x_scaled = (x - offset) / span
    result = np.zeros_like(x_scaled)
    for coef in model.coefficients[::-1]:
        result = result * x_scaled + coef
    return result * x_scaled + model.intercept


def degree_sweep(
    train: tuple[np.ndarray, np.ndarray],
    test: tuple[np.ndarray, np.ndarray],
    degrees: Sequence[int],
) -> tuple[list[tuple[int, float]], PolyModel]:
    """Fit each degree on train and score its MSE on test: the
    (degree, test_mse) rows in input order, and the fit of the argmin
    degree, ties going to the lower degree."""
    train_x, train_y = train
    test_x, test_y = test
    models = [fit(train_x, train_y, int(degree)) for degree in degrees]
    rows = [(model.degree, mse(test_y, predict(model, test_x))) for model in models]
    best = min(range(len(rows)), key=lambda k: (rows[k][1], rows[k][0]))
    return rows, models[best]
