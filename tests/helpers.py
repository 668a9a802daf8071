"""Independent reference implementations used to cross-check the package.

Everything here is deliberately slow and simple: direct DFT summation,
exact rational arithmetic for the chaotic map, binary search for the
firing-table segment of a stimulus, brute-force grid search for
the classifier, closed-form gamma ratios for the fractional weights, a
per-series scalar recursion for the simulated processes, and one fresh
generator per row for a dataset's specs and seeds. None of it shares code
with the library under test, bar the spec drawing and seed derivation of
the dataset oracle, which define a dataset. ``persist_built`` is a fixture,
not a reference: it persists the manifest of a built dataset, the source
the dataset is simulated from.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def naive_dft_amplitudes(series) -> np.ndarray:
    """One-sided DFT amplitudes by direct O(n^2) summation."""
    x = list(map(float, series))
    n = len(x)
    out = []
    for k in range(n // 2 + 1):
        re = sum(x[t] * math.cos(2.0 * math.pi * k * t / n) for t in range(n))
        im = -sum(x[t] * math.sin(2.0 * math.pi * k * t / n) for t in range(n))
        out.append(math.hypot(re, im))
    return np.array(out)


def rational_gls_step(y: float, b: float) -> float:
    """One skew-tent step evaluated in exact rational arithmetic.

    Each floating-point operation of the production map is reproduced by
    computing the exact rational result and rounding it to the nearest
    double, so the reference trajectory is reachable without trusting the
    float pipeline.
    """
    if y < b:
        r = float(Fraction(y) / Fraction(b))
    else:
        num = float(1 - Fraction(y))
        den = float(1 - Fraction(b))
        r = float(Fraction(num) / Fraction(den))
    return r if r < 1.0 else math.nextafter(1.0, 0.0)


def rational_fire(stimulus: float, q: float, b: float, eps: float, max_len: int):
    """Firing time and above-threshold fraction via the rational map.

    Returns (firing_time, ttss, timed_out) with the same conventions as the
    production neuron: the stopping value is excluded from the count and an
    immediate hit reports a zero fraction.
    """
    y = q
    count = 0
    for n in range(max_len):
        gap = float(Fraction(y) - Fraction(stimulus))
        if abs(gap) < eps:
            return n, count / n if n else 0.0, False
        if y > b:
            count += 1
        y = rational_gls_step(y, b)
    return max_len, count / max_len, True


def table_segment(edges: np.ndarray, stimuli) -> np.ndarray:
    """Index k of the firing-table segment ``edges[k] <= s < edges[k + 1]``
    of each stimulus, by binary search over the sorted edges."""
    return np.searchsorted(edges, stimuli, side="right") - 1


def _softplus(z: float) -> float:
    # log(1 + exp(z)) without overflow
    if z > 35.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def lr_loss(weights, bias: float, features, labels, c: float) -> float:
    """Scalar-loop evaluation of the regularized logistic loss."""
    total = 0.0
    for row, label in zip(features, labels):
        sign = 1.0 if label == 1 else -1.0
        margin = sign * (sum(w * v for w, v in zip(weights, row)) + bias)
        total += _softplus(-margin)
    return c * total + 0.5 * sum(w * w for w in weights)


def grid_search_lr(features, labels, c: float, radius: float = 10.0,
                   points: int = 13, rounds: int = 6):
    """Brute-force minimizer of the 2-feature logistic loss.

    Iteratively refines a (w0, w1, bias) lattice around the best point.
    Returns (params, loss).
    """
    assert len(features[0]) == 2
    center = (0.0, 0.0, 0.0)
    span = radius
    best = (center, lr_loss(center[:2], center[2], features, labels, c))
    for _ in range(rounds):
        axes = [np.linspace(v - span, v + span, points) for v in best[0]]
        for w0 in axes[0]:
            for w1 in axes[1]:
                for bias in axes[2]:
                    loss = lr_loss((w0, w1), bias, features, labels, c)
                    if loss < best[1]:
                        best = ((float(w0), float(w1), float(bias)), loss)
        span *= 2.0 / (points - 1)
    return best


def gamma_ratio_weights(d: float, n: int) -> np.ndarray:
    """Closed-form fractional integration weights Γ(j+d) / (Γ(d) Γ(j+1))."""
    out = np.empty(n)
    out[0] = 1.0
    for j in range(1, n):
        out[j] = math.gamma(j + d) / (math.gamma(d) * math.gamma(j + 1))
    return out


def scalar_series(spec, seed: int) -> np.ndarray:
    """Values of one simulated series, one Python step per time index.

    Reads only the fields of ``spec``. Noise kinds draw i.i.d. values; causal
    kinds draw ``start`` (the largest lag) initial values and then the noise
    sequence from the same generator, add each step's terms to a literal 0.0
    in the spec's order, and ARFIMA convolves that core with weights from
    w[j] = w[j-1] * (j - 1 + d) / j by ``exact_convolution``. Non-finite
    values are returned, not refused.
    """
    rng = np.random.default_rng(seed)
    kind = spec.kind.value
    sd = math.sqrt(spec.noise_variance)
    if kind == "noise_normal":
        return rng.normal(spec.noise_mean, sd, spec.length)
    if kind == "noise_uniform":
        return rng.uniform(spec.uniform_lo, spec.uniform_hi, spec.length)
    start = max([lag for lag, _ in spec.ar_terms] + [lag for lag, _ in spec.ma_terms], default=0)
    init = rng.normal(spec.noise_mean, sd, start)
    eps = rng.normal(spec.noise_mean, sd, spec.length)
    # a pure-AR spec carries no MA terms; its instantaneous noise is implicit
    ma_terms = spec.ma_terms if spec.ma_terms else ((0, 1.0),)
    values = np.empty(spec.length)
    values[:start] = init
    for t in range(start, spec.length):
        acc = 0.0
        for lag, a in spec.ar_terms:
            acc += a * values[t - lag]
        for lag, b in ma_terms:
            acc += b * eps[t - lag]
        values[t] = acc
    if kind == "arfima":
        w = [1.0]
        for j in range(1, spec.length):
            w.append(w[j - 1] * (j - 1 + spec.d) / j)
        values = exact_convolution(w, values)
    return values


def build_dataset_oracle(recipe, n_per_class: int, length: int, master_seed: int):
    """Specs and series seeds of ``pipeline.build_dataset``, in its row
    order, each row from its own ``np.random.default_rng``.

    Row i of a class seeds a generator with ``derive_seed(master_seed,
    recipe.name, part, i)``, ``part`` being "causal" or "noncausal"; a causal
    row draws its spec from it, and every row then draws its series seed.
    """
    from tscausal.pipeline import _draw_spec, _noise_spec, derive_seed

    specs, seeds = [], []
    if recipe.causal is not None:
        for i in range(n_per_class):
            rng = np.random.default_rng(derive_seed(master_seed, recipe.name, "causal", i))
            specs.append(_draw_spec(recipe.causal, length, rng))
            seeds.append(int(rng.integers(0, 2**63)))
    if recipe.noncausal is not None:
        spec = _noise_spec(recipe.noncausal, length)
        for i in range(n_per_class):
            rng = np.random.default_rng(derive_seed(master_seed, recipe.name, "noncausal", i))
            specs.append(spec)
            seeds.append(int(rng.integers(0, 2**63)))
    return specs, seeds


def persist_built(dir_path, recipe, n_per_class: int, length: int, master_seed: int):
    """Persist the manifest of ``build_dataset``'s dataset to ``dir_path``;
    return the dataset, built here."""
    from tscausal.pipeline import DatasetSource, build_dataset, persist_dataset

    persist_dataset(dir_path, DatasetSource(master_seed, recipe, n_per_class, length))
    return build_dataset(recipe, n_per_class, length, master_seed)


def exact_convolution(w, x) -> np.ndarray:
    """The first ``len(x)`` outputs of the convolution of ``w`` with ``x``,
    each the exact sum of its exact products, rounded once.

    Each product w[j] * x[t - j] is held exactly as its rounded value plus
    Dekker's error term, from Veltkamp's split of both factors into halves
    of 26 bits, and one ``math.fsum`` per output rounds the sum of all of
    them. Products must neither overflow nor underflow; an output whose
    terms are not finite, or whose sum overflows, is their plain sum.
    """
    w, x = np.asarray(w, dtype=np.float64), np.asarray(x, dtype=np.float64)
    (wh, wl), (xh, xl) = _split(w), _split(x)
    out = np.empty(len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(x)):
            n = min(t + 1, len(w))
            past = slice(t, t - n if t >= n else None, -1)  # x[t], ..., x[t - n + 1]
            p = w[:n] * x[past]
            err = (((wh[:n] * xh[past] - p) + wh[:n] * xl[past] + wl[:n] * xh[past])
                   + wl[:n] * xl[past])
            terms = p.tolist() + err.tolist()
            try:
                out[t] = math.fsum(terms)
            except (OverflowError, ValueError):
                out[t] = sum(terms)
    return out


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Veltkamp: a == hi + lo exactly, each half with at most 26 significant bits
    with np.errstate(over="ignore", invalid="ignore"):
        c = 134217729.0 * a  # 2**27 + 1
        hi = c - (c - a)
    return hi, a - hi


def count_local_extrema(curve) -> int:
    """Strict turning points of a curve, with plateaus compressed first."""
    diffs = np.diff(np.asarray(curve, dtype=np.float64))
    signs = np.sign(diffs)
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] != signs[:-1]))


def lag_autocorr(series, lag: int) -> float:
    """Sample autocorrelation at a fixed lag."""
    x = np.asarray(series, dtype=np.float64)
    x = x - x.mean()
    return float(np.dot(x[lag:], x[:-lag]) / np.dot(x, x))
