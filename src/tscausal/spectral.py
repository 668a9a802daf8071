"""One-sided amplitude spectra and train-fitted feature scaling.

The amplitude spectrum of a real series keeps bins 0..floor(N/2); the
min-max scaler maps features into [0, 1) with a small headroom below 1 so
scaled values stay inside the chaotic-neuron domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_HEADROOM = 1e-6


def amplitude_spectra(matrix: np.ndarray) -> np.ndarray:
    """Row-wise one-sided DFT amplitude spectra of a stack of equal-length series.

    A non-finite value in a series makes its DC bin non-finite, so the check
    on the spectra refuses non-finite series and also finite ones whose
    transform overflows; the error names the first such row.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("matrix must be 2-D with at least 2 columns")
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.abs(np.fft.rfft(x, axis=1))
    finite = np.isfinite(amps).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(
            f"non-finite amplitude spectrum at row {row}: the series holds a "
            "non-finite value or values too large to transform"
        )
    return amps


def demean(series: np.ndarray) -> np.ndarray:
    """Subtract the sample mean (removes any DC component)."""
    x = np.asarray(series, dtype=np.float64)
    return x - x.mean(axis=-1, keepdims=True)


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-feature min-max map into [0, 1 - headroom], fitted on training data."""

    minimum: np.ndarray = field(repr=False)
    maximum: np.ndarray = field(repr=False)
    headroom: float = DEFAULT_HEADROOM

    def __post_init__(self):
        if np.any(self.minimum > self.maximum):
            raise ValueError("per-feature minimum exceeds maximum")


def fit_scaler(train: np.ndarray, headroom: float = DEFAULT_HEADROOM) -> MinMaxScaler:
    """Fit per-feature minima and maxima on the training matrix only."""
    x = np.asarray(train, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("training matrix must be 2-D and non-empty")
    if not 0 < headroom < 0.1:
        raise ValueError(f"headroom must lie in (0, 0.1), got {headroom}")
    return MinMaxScaler(minimum=x.min(axis=0), maximum=x.max(axis=0), headroom=headroom)


def apply_scaler(scaler: MinMaxScaler, matrix: np.ndarray) -> np.ndarray:
    """Scale a matrix into [0, 1 - headroom], clipping out-of-range values.

    Constant training features map to 0; values outside the fitted range are
    clipped, never rejected, so shifted test sets always stay in domain.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != scaler.minimum.size:
        raise ValueError(
            f"matrix has {x.shape[-1] if x.ndim else 0} features, "
            f"scaler was fitted on {scaler.minimum.size}"
        )
    return _minmax(x, scaler.minimum, scaler.maximum, scaler.headroom)


def scale_per_instance(matrix: np.ndarray, headroom: float = DEFAULT_HEADROOM) -> np.ndarray:
    """Min-max scale each row by its own range (sensitivity-study variant)."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("matrix must be 2-D")
    return _minmax(x, x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True), headroom)


def _minmax(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, headroom: float) -> np.ndarray:
    """``(x - lo) / (hi - lo)`` where the span is positive and 0 elsewhere,
    clipped to [0, 1 - headroom]; the bounds broadcast against ``x``, per
    column for a fitted scaler and per row for per-instance scaling."""
    span = hi - lo
    ok = span > 0
    out = np.subtract(x, lo, out=np.zeros_like(x), where=ok)
    np.divide(out, span, out=out, where=ok)
    return np.clip(out, 0.0, 1.0 - headroom, out=out)
