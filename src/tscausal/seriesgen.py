"""Seeded simulation of causal and non-causal time series.

Causal series come from autoregressive families (AR, ARMA, ARFIMA) where the
present value depends linearly on past values; ARFIMA is Hosking's fractional
differencing (Biometrika, 1981) applied to an ARMA core, as one FFT
convolution per series on the calling thread. Non-causal series are
i.i.d. draws from a normal or uniform distribution. ``ProcessSpec`` decides
whether a process is valid, so a bad spec fails when it is built, and
``generate_many`` is the one simulation entry point: each row of the matrix
it returns is a pure function of its (spec, seed), bit-identical for the
same inputs whatever else shares the batch. A ``Dataset`` holds such a
matrix with the labels, specs and seeds of its rows.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

GENERATOR_NAME = "numpy.random.Generator(PCG64)"


class Kind(str, Enum):
    AR = "ar"
    ARMA = "arma"
    ARFIMA = "arfima"
    NOISE_NORMAL = "noise_normal"
    NOISE_UNIFORM = "noise_uniform"


CAUSAL_KINDS = frozenset({Kind.AR, Kind.ARMA, Kind.ARFIMA})

NON_CAUSAL = 0
CAUSAL = 1


@dataclass(frozen=True)
class ProcessSpec:
    """Parametric description of one stochastic process.

    ``ar_terms`` and ``ma_terms`` are sparse (lag, coefficient) pairs. An AR
    spec needs at least one AR term and no MA terms; an ARMA/ARFIMA spec must
    carry the instantaneous noise term (0, 1.0) in ``ma_terms``. A single AR
    term needs |a| < 1; dense term lists are only guarded by the finiteness
    check in ``generate_many``. ``d`` is the fractional difference parameter
    and must stay 0 except for ARFIMA; noise kinds carry no terms. Noise is
    Normal(noise_mean, noise_variance) except for NOISE_UNIFORM, which draws
    from U(uniform_lo, uniform_hi).
    """

    kind: Kind
    length: int
    ar_terms: tuple[tuple[int, float], ...] = ()
    ma_terms: tuple[tuple[int, float], ...] = ()
    d: float = 0.0
    noise_mean: float = 0.0
    noise_variance: float = 1.0
    uniform_lo: float = 0.0
    uniform_hi: float = 1.0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        # normalize term lists to hashable tuples regardless of input container
        object.__setattr__(
            self, "ar_terms", tuple((int(l), float(a)) for l, a in self.ar_terms)
        )
        object.__setattr__(
            self, "ma_terms", tuple((int(l), float(b)) for l, b in self.ma_terms)
        )
        for lag, _ in self.ar_terms:
            if lag < 1:
                raise ValueError(f"AR lag must be >= 1, got {lag}")
            if lag > self.length:
                raise ValueError(f"AR lag {lag} exceeds series length {self.length}")
        for lag, _ in self.ma_terms:
            if lag < 0:
                raise ValueError(f"MA lag must be >= 0, got {lag}")
            if lag > self.length:
                raise ValueError(f"MA lag {lag} exceeds series length {self.length}")
        if self.kind == Kind.NOISE_UNIFORM:
            if not self.uniform_lo < self.uniform_hi:
                raise ValueError(
                    f"uniform bounds must satisfy lo < hi, got "
                    f"[{self.uniform_lo}, {self.uniform_hi}]"
                )
        elif self.noise_variance <= 0:
            raise ValueError(
                f"noise_variance must be positive, got {self.noise_variance}"
            )
        if self.kind not in CAUSAL_KINDS and (self.ar_terms or self.ma_terms):
            raise ValueError(f"{self.kind.value} spec must not carry AR or MA terms")
        if self.kind == Kind.ARFIMA:
            if not abs(self.d) < 1:
                raise ValueError(f"fractional difference parameter |d| must be < 1, got {self.d}")
        elif self.d != 0:
            raise ValueError(f"{self.kind.value} spec must have d = 0, got {self.d}")
        if self.kind == Kind.AR:
            if not self.ar_terms:
                raise ValueError("AR spec needs at least one AR term")
            if self.ma_terms:
                raise ValueError("AR spec must not carry MA terms")
        elif self.kind in CAUSAL_KINDS and (0, 1.0) not in self.ma_terms:
            raise ValueError("ma_terms must include the instantaneous term (0, 1.0)")
        # a single-lag recursion with |a| >= 1 diverges
        if self.kind in CAUSAL_KINDS and len(self.ar_terms) == 1 and abs(self.ar_terms[0][1]) >= 1:
            raise ValueError(
                f"single-lag AR coefficient must satisfy |a| < 1, got {self.ar_terms[0][1]}"
            )

    @property
    def label(self) -> int:
        return CAUSAL if self.kind in CAUSAL_KINDS else NON_CAUSAL


@dataclass(frozen=True, eq=False)
class Dataset:
    """Simulated series: row i of the read-only float64 ``values`` matrix is
    ``specs[i]`` simulated from ``seeds[i]``; read-only int64 ``labels`` follow."""

    values: np.ndarray = field(repr=False)
    specs: tuple[ProcessSpec, ...]
    seeds: tuple[int, ...]
    labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", np.array([s.label for s in self.specs], dtype=np.int64))
        self.values.setflags(write=False)
        self.labels.setflags(write=False)


def fractional_integration_weights(d: float | Sequence[float], n: int) -> np.ndarray:
    """Coefficients of the inverse fractional difference filter.

    Returns the first ``n`` weights of the binomial-series expansion of the
    backshift polynomial raised to the power -d, via the recursion
    w[0] = 1, w[j] = w[j-1] * (j - 1 + d) / j. A sequence of ``k`` values of
    ``d`` gives a (k, n) matrix, one row per value, computed with the same
    per-element operations as a single value.
    """
    d = np.asarray(d, dtype=np.float64)
    if not np.all(np.abs(d) < 1):
        raise ValueError(f"|d| must be < 1, got {d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # lag-major, so each step writes one contiguous row
    w = np.empty((n, *d.shape))
    w[0] = 1.0
    for j in range(1, n):
        w[j] = w[j - 1] * (j - 1 + d) / j
    return np.ascontiguousarray(np.moveaxis(w, 0, -1))


def _by_position(terms: list, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lags and coefficients of ``k`` term lists of ``n`` terms each, as two
    (n, k) arrays: one row per term position, one column per spec."""
    a = np.array(terms, dtype=np.float64).reshape(k, n, 2).transpose(2, 1, 0)
    return np.ascontiguousarray(a[0], dtype=np.intp), np.ascontiguousarray(a[1])


def _arma_batch(specs: list[ProcessSpec], rngs: list[np.random.Generator],
                length: int, n_ar: int, n_ma: int) -> np.ndarray:
    """AR/ARMA recursion for specs that share a length and their term counts,
    as a time-major (length, k) matrix: column i is the series of specs[i].

    Row i's first ``start`` values, its largest lag, are drawn i.i.d. from
    its noise law; each later value is its lagged terms plus fresh noise.
    Every row keeps its own generator and draw order (initial values, then
    the noise sequence). One time loop updates all rows at once, adding the
    terms in each spec's order from a literal 0.0, so every value equals
    that of a scalar recursion bit for bit; a row whose ``start`` lies ahead
    keeps its initial values.
    """
    k = len(specs)
    ar_lag, ar_coef = _by_position([s.ar_terms for s in specs], k, n_ar)
    # a pure-AR spec carries no MA terms; its instantaneous noise is implicit
    ma_lag, ma_coef = _by_position([s.ma_terms or ((0, 1.0),) for s in specs], k, n_ma or 1)
    start = np.concatenate([ar_lag, ma_lag]).max(axis=0)

    # time-major, so each step reads the last few time rows and writes one;
    # zeros, not empty: a row whose start lies ahead reads unwritten cells,
    # which must stay finite so that no spurious warning is raised
    values = np.zeros((length, k))
    eps = np.empty((length, k))
    for col, (spec, rng, s) in enumerate(zip(specs, rngs, start)):
        sd = math.sqrt(spec.noise_variance)
        values[:s, col] = rng.normal(spec.noise_mean, sd, s)
        eps[:, col] = rng.normal(spec.noise_mean, sd, length)

    # flat index of [t - lag, col] is t * k + (col - lag * k); a row whose
    # start lies ahead may index cells before time 0, which wrap to the end
    # of the buffer, and its result is dropped
    cols = np.arange(k)
    ar_off, ma_off = cols - ar_lag * k, cols - ma_lag * k
    flat_values, flat_eps = values.reshape(-1), eps.reshape(-1)
    for t in range(int(start.min()), length):
        at = t * k
        acc = 0.0
        for off, coef in zip(ar_off, ar_coef):
            acc = acc + coef * flat_values[at + off]
        for off, coef in zip(ma_off, ma_coef):
            acc = acc + coef * flat_eps[at + off]
        np.copyto(values[t], acc, where=start <= t)
    return values


FFT_BLOCK_ROWS = 128


def _fractionally_integrate(out: np.ndarray, idx: list[int], d: list[float],
                            core: np.ndarray) -> None:
    """Write row ``idx[j]`` of ``out``: column j of the time-major ``core``
    convolved with the fractional integration weights of ``d[j]``, truncated
    at the series start.

    The convolution is a product of real FFTs (Jensen and Nielsen, J. Time
    Series Analysis, 2014), O(n log n) per series where the direct sum is
    O(n^2); each output lies within 64 eps ||w||_2 ||core||_2 of the exact
    sum. The transform size is the least power of two at or above
    2 * length - 1, the length of the full linear convolution, so no output
    wraps around. Each row is transformed on its own, so its bits do not
    depend on the rest of the batch; rows go ``FFT_BLOCK_ROWS`` at a time,
    which bounds the complex spectra held at once: at 2,000 values, one
    spectrum of a whole 1,250-row group would take 41 MB. A row whose ``d``
    is 0 has weights [1, 0, ...], which the transform returns only to within
    rounding, so it keeps its core as it is.
    """
    length = out.shape[1]
    size = 1 << (2 * length - 2).bit_length()
    weights = fractional_integration_weights(d, length)
    for a in range(0, len(idx), FFT_BLOCK_ROWS):
        b = a + FFT_BLOCK_ROWS
        spectra = np.fft.rfft(weights[a:b], size) * np.fft.rfft(core.T[a:b], size)
        out[idx[a:b]] = np.fft.irfft(spectra, size)[:, :length]
    for j, dj in enumerate(d):
        if dj == 0:
            out[idx[j]] = core[:, j]


def generate_many(specs: Sequence[ProcessSpec], seeds: Sequence[int]) -> np.ndarray:
    """Simulate ``specs[i]`` from the generator seeded by ``seeds[i]``, for every i.

    The simulation entry point. All specs share one length; row i of the
    read-only result is the series of ``specs[i]``, a pure function of its
    own (spec, seed): batching changes no bit. Noise kinds draw i.i.d.
    values. Causal kinds run the AR/ARMA recursion, one vectorised time loop
    per group of specs sharing a kind and their term counts, written straight
    into the group's rows; ARFIMA then convolves each core with its
    fractional integration weights, truncated at the series start, by
    FFT in blocks of rows on the calling thread.
    """
    if len(specs) != len(seeds):
        raise ValueError(f"got {len(specs)} specs but {len(seeds)} seeds")
    lengths = {spec.length for spec in specs}
    if len(lengths) != 1:
        raise ValueError(f"need specs of one length, got lengths {sorted(lengths)}")
    (length,) = lengths
    groups: dict[tuple[Kind, int, int], list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.kind, len(spec.ar_terms), len(spec.ma_terms)), []).append(i)

    out = np.empty((len(specs), length))
    for (kind, n_ar, n_ma), idx in groups.items():
        batch = [specs[i] for i in idx]
        rngs = [np.random.default_rng(seeds[i]) for i in idx]
        if kind == Kind.NOISE_NORMAL:
            for i, s, rng in zip(idx, batch, rngs):
                out[i] = rng.normal(s.noise_mean, math.sqrt(s.noise_variance), length)
        elif kind == Kind.NOISE_UNIFORM:
            for i, s, rng in zip(idx, batch, rngs):
                out[i] = rng.uniform(s.uniform_lo, s.uniform_hi, length)
        elif kind == Kind.ARFIMA:
            core = _arma_batch(batch, rngs, length, n_ar, n_ma)
            _fractionally_integrate(out, idx, [s.d for s in batch], core)
        else:
            out[idx] = _arma_batch(batch, rngs, length, n_ar, n_ma).T
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        kind = specs[int(np.argmin(finite))].kind
        raise ValueError(f"generated series contains non-finite values (kind={kind.value})")
    out.setflags(write=False)
    return out


def generate(spec: ProcessSpec, rng_seed: int) -> np.ndarray:
    """The read-only series of ``spec`` simulated from a generator seeded by ``rng_seed``."""
    return generate_many([spec], [rng_seed])[0]
