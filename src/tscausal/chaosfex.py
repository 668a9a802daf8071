"""Chaotic-neuron simulation and trajectory-based feature extraction.

Each input feature drives one neuron governed by a skew-tent map on [0, 1).
Starting from a fixed initial activity, the neuron iterates until its
trajectory first enters the epsilon neighborhood of the stimulus; the
extracted feature is the fraction of the trajectory spent above the
discrimination threshold (the TTSS feature).

The orbit depends only on (q, b, max_len), so the firing time is a
piecewise-constant function of the stimulus with at most 2 * max_len
breakpoints. ``firing_table`` locates each breakpoint at its exact double
once per parameter set, on first use, and ``fire_batch`` looks stimuli up
in it through a uniform grid of power-of-two cells: a stimulus's segment is
its cell's, unless a table edge splits the cell, when bisection finds it.
The map is expansive, so trajectories amplify rounding differences; all
arithmetic here is plain IEEE double precision and the lookup reproduces the
scalar reference ``fire`` bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_ONE_BELOW = math.nextafter(1.0, 0.0)


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
        if not self.eps > 0:
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


def _least_true(lo: np.ndarray, hi: np.ndarray, pred) -> np.ndarray:
    """Per element, the least bit pattern in (lo, hi] of a non-negative
    double where ``pred`` holds, for a ``pred`` monotone in the double, false
    at ``lo`` and true at ``hi``. ``lo`` = -1 stands for a pattern below 0.0."""
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        ok = pred(mid.view(np.float64))
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi


@functools.lru_cache(maxsize=16)
def firing_table(params: GlsParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fire`` as an exact lookup table, built once per parameter set.

    Returns read-only arrays (edges, firing_time, ttss): every stimulus s with
    ``edges[k] <= s < edges[k + 1]`` fires at ``firing_time[k]`` with feature
    ``ttss[k]``; ``edges[0]`` is 0.0, every edge lies below 1.0 and
    neighbouring segments differ in firing time.

    ``fl(y - s)`` is monotone in s, so the stimuli within eps of iterate y
    form one run of doubles; bisection over the bit patterns of the
    non-negative doubles finds its exact ends. Painting the runs from the
    last iterate down to the first leaves each segment with the first
    iterate that covers it, and uncovered segments with the timeout max_len.
    """
    traj = trajectory(params)
    eps, max_len = params.eps, params.max_len
    # + 0.0 turns an orbit stuck at -0.0 into +0.0, whose bits order correctly
    own = (traj + 0.0).view(np.int64)
    one = np.full(max_len, np.float64(1.0).view(np.int64))
    lo = _least_true(np.full(max_len, -1), own, lambda s: traj - s < eps)
    hi = _least_true(own, one, lambda s: traj - s <= -eps)
    lo, hi = lo.view(np.float64), hi.view(np.float64)

    # a run that reaches past every double below 1.0 ends at the 1.0 bound;
    # it cuts off no stimulus, so it ends at the top of the table instead
    cuts = np.sort(np.concatenate(([0.0], lo, hi[hi < 1.0])))
    cuts = cuts[np.r_[True, cuts[1:] != cuts[:-1]]]
    first = np.full(cuts.size, max_len, dtype=np.int64)
    starts, stops = np.searchsorted(cuts, lo), np.searchsorted(cuts, hi)
    for n in range(max_len - 1, -1, -1):
        first[starts[n] : stops[n]] = n
    keep = np.r_[True, first[1:] != first[:-1]]
    edges, n = cuts[keep], first[keep]

    above = np.concatenate(([0], np.cumsum(traj > params.b)))
    # an immediate hit (n = 0) gives 0 / 1 = 0.0, fire's convention
    ttss = above[n] / np.maximum(n, 1)
    for a in (edges, n, ttss):
        a.setflags(write=False)
    return edges, n, ttss


@functools.lru_cache(maxsize=16)
def lookup_grid(params: GlsParams) -> tuple[np.ndarray, np.ndarray]:
    """The uniform grid ``fire_batch`` finds table segments with, built once
    per parameter set.

    The grid has G cells, G the least power of two at least
    max(4096, 4 * segments), so cell c of a stimulus s in [0, 1) is exactly
    ``int(s * G)`` and holds exactly the s with c / G <= s < (c + 1) / G.
    Returns read-only (base, split): ``base[c]`` is the segment of c / G, and
    ``split[c]`` is whether (c + 1) / G lies in a later segment. The segment
    never decreases with s, so every stimulus of a cell that is not split
    lies in ``base[c]``.
    """
    edges = firing_table(params)[0]
    size = 1 << max(12, (4 * edges.size - 1).bit_length())
    ends = np.searchsorted(edges, np.arange(size + 1) / size, side="right") - 1
    base, split = ends[:-1], ends[1:] != ends[:-1]
    for a in (base, split):
        a.setflags(write=False)
    return base, split


def fire_batch(
    stimuli: np.ndarray, params: GlsParams = GlsParams()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``fire`` over a flat stimulus array.

    Returns (firing_time, ttss, timed_out) arrays, identical to calling
    ``fire`` per element: each stimulus's segment of ``firing_table(params)``
    is its ``lookup_grid(params)`` cell's, or is found by bisection when
    the cell is split.
    """
    s = np.asarray(stimuli, dtype=np.float64).ravel()
    # NaN fails both comparisons, and +-inf fails one
    if s.size and not (s.min() >= 0 and s.max() < 1):
        bad = int(np.argmax(~((s >= 0) & (s < 1))))
        raise ValueError(f"stimulus must lie in [0, 1), got {s[bad]} at index {bad}")

    edges, firing_time, ttss = firing_table(params)
    base, split = lookup_grid(params)
    # exact: the cell count is a power of two and 0 <= s < 1
    cell = (s * base.size).astype(np.intp)
    k = base[cell]
    hit = np.flatnonzero(split[cell])
    k[hit] = np.searchsorted(edges, s[hit], side="right") - 1
    n = firing_time[k]
    return n, ttss[k], n == params.max_len


def extract_ttss(
    matrix: np.ndarray, params: GlsParams = GlsParams(), threads: int = 1
) -> np.ndarray:
    """TTSS feature for every entry of a feature matrix, shape preserved.

    Entry (i, j) is ``fire(matrix[i, j], params).ttss``. Entries must already
    lie in [0, 1) (the upstream scaler guarantees this); ``fire_batch``
    checks them, and the first offending entry is reported by position.

    ``threads`` is ignored: a table lookup leaves nothing to parallelise. It
    is still accepted because the benchmark tracer (``bench/layertrace.py``)
    passes it; it goes when the tracer stops doing so.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {x.shape}")
    try:
        _, ttss, _ = fire_batch(x.ravel(), params)
    except ValueError:
        i, j = np.argwhere(~((x >= 0) & (x < 1)))[0]
        raise ValueError(f"stimulus out of [0, 1) at row {i}, column {j}: {x[i, j]}") from None
    return ttss.reshape(x.shape)
