"""Chaotic-neuron simulation and trajectory-based feature extraction.

Each input feature drives one neuron governed by a skew-tent map on [0, 1).
Starting from a fixed initial activity, the neuron iterates until its
trajectory first enters the epsilon neighborhood of the stimulus; the
extracted feature is the fraction of the trajectory spent above the
discrimination threshold (the TTSS feature).

The map is expansive, so trajectories amplify rounding differences; all
arithmetic here is plain IEEE double precision and the vectorized extractor
reproduces the scalar reference bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_ONE_BELOW = math.nextafter(1.0, 0.0)
_CHUNK = 32768
_BLOCK = 256


@dataclass(frozen=True)
class GlsParams:
    """Neuron hyperparameters: initial activity q, threshold b, neighborhood
    radius eps, and the trajectory cap."""

    q: float = 0.33
    b: float = 0.499
    eps: float = 0.01
    max_len: int = 1000

    def __post_init__(self):
        if not 0 <= self.q < 1:
            raise ValueError(f"q must lie in [0, 1), got {self.q}")
        if not 0 < self.b < 1:
            raise ValueError(f"b must lie in (0, 1), got {self.b}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


@dataclass(frozen=True)
class FiringResult:
    firing_time: int
    ttss: float
    timed_out: bool


def gls_map(y: float, b: float) -> float:
    """One application of the skew-tent map: y/b below the threshold,
    (1-y)/(1-b) at or above it."""
    if not 0 <= y < 1:
        raise ValueError(f"map input must lie in [0, 1), got {y}")
    if not 0 < b < 1:
        raise ValueError(f"b must lie in (0, 1), got {b}")
    r = y / b if y < b else (1.0 - y) / (1.0 - b)
    # the second branch can round up to exactly 1.0 when y is barely above b;
    # clamp to keep the codomain [0, 1)
    return r if r < 1.0 else _ONE_BELOW


def trajectory(params: GlsParams) -> np.ndarray:
    """The neuron's orbit from its initial activity: max_len iterates."""
    out = np.empty(params.max_len)
    y = params.q
    for n in range(params.max_len):
        out[n] = y
        y = gls_map(y, params.b)
    out.setflags(write=False)
    return out


def fire(stimulus: float, params: GlsParams = GlsParams()) -> FiringResult:
    """Iterate the neuron until it enters (stimulus - eps, stimulus + eps).

    Returns the firing time N (number of iterates before the first
    in-neighborhood value), the above-threshold fraction over those N
    iterates, and whether the cap was hit instead. By convention the
    fraction is 0 when the neuron fires immediately (N = 0).
    """
    if not 0 <= stimulus < 1:
        raise ValueError(f"stimulus must lie in [0, 1), got {stimulus}")
    y = params.q
    count = 0
    for n in range(params.max_len):
        if abs(y - stimulus) < params.eps:
            return FiringResult(n, count / n if n else 0.0, False)
        if y > params.b:
            count += 1
        y = gls_map(y, params.b)
    return FiringResult(params.max_len, count / params.max_len, True)


def _first_entry(stimuli: np.ndarray, traj: np.ndarray, eps: float, max_len: int) -> np.ndarray:
    """First trajectory index within eps of each stimulus; max_len if none."""
    out = np.full(stimuli.size, max_len, dtype=np.int64)
    alive = np.arange(stimuli.size)
    for start in range(0, max_len, _BLOCK):
        seg = traj[start : start + _BLOCK]
        hit = np.abs(stimuli[alive, None] - seg[None, :]) < eps
        found = hit.any(axis=1)
        out[alive[found]] = start + hit[found].argmax(axis=1)
        alive = alive[~found]
        if alive.size == 0:
            break
    return out


def fire_batch(
    stimuli: np.ndarray, params: GlsParams = GlsParams(), threads: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``fire`` over a flat stimulus array.

    Returns (firing_time, ttss, timed_out) arrays. Results are identical to
    calling ``fire`` per element; duplicated stimuli are evaluated once.
    """
    s = np.asarray(stimuli, dtype=np.float64).ravel()
    if s.size and (not np.all(np.isfinite(s)) or s.min() < 0 or s.max() >= 1):
        bad = int(np.argmax(~((s >= 0) & (s < 1))))
        raise ValueError(f"stimulus must lie in [0, 1), got {s[bad]} at index {bad}")

    traj = trajectory(params)
    above = np.concatenate(([0], np.cumsum(traj > params.b)))
    uniq, inverse = np.unique(s, return_inverse=True)

    n_uniq = np.empty(uniq.size, dtype=np.int64)
    spans = [(lo, min(lo + _CHUNK, uniq.size)) for lo in range(0, uniq.size, _CHUNK)]

    def scan(span):
        lo, hi = span
        n_uniq[lo:hi] = _first_entry(uniq[lo:hi], traj, params.eps, params.max_len)

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(scan, spans))
    else:
        for span in spans:
            scan(span)

    n = n_uniq[inverse]
    ttss = above[n] / np.maximum(n, 1)
    ttss[n == 0] = 0.0
    return n, ttss, n == params.max_len


def extract_ttss(
    matrix: np.ndarray, params: GlsParams = GlsParams(), threads: int = 1
) -> np.ndarray:
    """TTSS feature for every entry of a feature matrix, shape preserved.

    Entry (i, j) is ``fire(matrix[i, j], params).ttss``. Entries must already
    lie in [0, 1) (the upstream scaler guarantees this); the first offending
    entry, if any, is reported by position.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {x.shape}")
    ok = np.isfinite(x) & (x >= 0) & (x < 1)
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise ValueError(
            f"stimulus out of [0, 1) at row {i}, column {j}: {x[i, j]}"
        )
    _, ttss, _ = fire_batch(x.ravel(), params, threads=threads)
    return ttss.reshape(x.shape)
