"""One-sided amplitude spectra and train-fitted feature scaling.

The amplitude spectrum of a real series keeps bins 0..floor(N/2); the
min-max scaler maps features into [0, 1) with a small headroom below 1 so
scaled values stay inside the chaotic-neuron domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_HEADROOM = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """One-sided amplitude spectrum of a real-valued series."""

    amplitudes: np.ndarray = field(repr=False)
    source_length: int

    def __post_init__(self):
        n = self.source_length
        if self.amplitudes.shape != (n // 2 + 1,):
            raise ValueError(
                f"expected {n // 2 + 1} bins for source length {n}, "
                f"got {self.amplitudes.shape}"
            )


def amplitude_spectrum(series: np.ndarray) -> Spectrum:
    """One-sided DFT amplitude spectrum of a real series (FFT-based)."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("series must be 1-D with at least 2 points")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    return Spectrum(amplitudes=np.abs(np.fft.rfft(x)), source_length=x.size)


def amplitude_spectra(matrix: np.ndarray) -> np.ndarray:
    """Row-wise amplitude spectra of a stack of equal-length series."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("matrix must be 2-D with at least 2 columns")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix contains non-finite values")
    return np.abs(np.fft.rfft(x, axis=1))


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
    span = scaler.maximum - scaler.minimum
    out = np.zeros_like(x)
    ok = span > 0
    out[:, ok] = (x[:, ok] - scaler.minimum[ok]) / span[ok]
    np.clip(out, 0.0, 1.0 - scaler.headroom, out=out)
    return out


def scale_per_instance(matrix: np.ndarray, headroom: float = DEFAULT_HEADROOM) -> np.ndarray:
    """Min-max scale each row by its own range (sensitivity-study variant)."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("matrix must be 2-D")
    lo = x.min(axis=1, keepdims=True)
    span = x.max(axis=1, keepdims=True) - lo
    out = np.zeros_like(x)
    ok = (span > 0).ravel()
    out[ok] = (x[ok] - lo[ok]) / span[ok]
    return np.clip(out, 0.0, 1.0 - headroom)
