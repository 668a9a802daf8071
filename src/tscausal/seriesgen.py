"""Seeded simulation of causal and non-causal time series.

Causal series come from autoregressive families (AR, ARMA, ARFIMA) where the
present value depends linearly on past values; ARFIMA is Hosking's fractional
differencing (Biometrika, 1981) applied to an ARMA core, as one FFT
convolution per series on the calling thread. Non-causal series are
i.i.d. draws from a normal or uniform distribution. ``ProcessSpec`` decides
whether a process is valid, so a bad spec fails when it is built, and
``generate_many`` is the one simulation entry point, one loop over the runs
of consecutive like specs: each row of the matrix it returns is a pure
function of its (spec, seed), bit-identical for the same inputs whatever
else shares the batch. A seed names the stream of
``np.random.default_rng(seed)``; ``streams`` re-points one generator to each
seed's stream instead of building one per series. The module simulates
processes and knows nothing of classes: ``pipeline.build_dataset`` labels
each row by the recipe family it drew the row's spec from.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

# NumPy keeps a seeded stream only within a release (NEP 19), so the name
# of what simulates a dataset carries the NumPy version
GENERATOR_NAME = f"numpy {np.__version__} random.Generator(PCG64)"


class Kind(str, Enum):
    AR = "ar"
    ARMA = "arma"
    ARFIMA = "arfima"
    NOISE_NORMAL = "noise_normal"
    NOISE_UNIFORM = "noise_uniform"


CAUSAL_KINDS = frozenset({Kind.AR, Kind.ARMA, Kind.ARFIMA})


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
        # a kind given by its value is the same spec; an unknown one is refused
        object.__setattr__(self, "kind", Kind(self.kind))
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


# SeedSequence's hash constants; XSHIFT is half a 32-bit word
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of uint32 words with hash constant ``const``;
    returns the hashed words and the next constant."""
    after = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(after)
    return value ^ value >> np.uint32(_XSHIFT), after


def seed_words(seeds: Sequence[int]) -> np.ndarray:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` for each
    seed in [0, 2**64), as the rows of an (n, 4) uint64 matrix.

    A port of ``SeedSequence``'s hashmix and mix on uint32 words, vectorised
    over all seeds (NumPy NEP 19 keeps this seeding stable): a seed below
    2**32 mixes as one whose high word is 0, so every seed takes the
    two-word path. A seed outside [0, 2**64) is refused with its row.
    """
    seeds = [operator.index(seed) for seed in seeds]
    for row, seed in enumerate(seeds):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed} at row {row}")
    wide = np.array(seeds, dtype=np.uint64)
    low, high = wide.astype(np.uint32), (wide >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    const, pool = _INIT_A, []
    for word in (low, high, zero, zero):
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src], const, _MULT_A)
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed
                pool[dst] = mixed ^ mixed >> np.uint32(_XSHIFT)
    const, words = _INIT_B, np.empty((len(seeds), 8), dtype="<u4")
    for i in range(8):
        words[:, i], const = _hashmix(pool[i % 4], const, _MULT_B)
    # little-endian pairs of uint32 words are the four uint64 words
    return words.view("<u8").astype(np.uint64)


def streams(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """One generator, re-pointed in turn to the stream of
    ``np.random.default_rng(seed)`` for each seed, from its ``seed_words``
    row. A caller draws from it before it takes the next; a seed outside
    [0, 2**64) is refused with its row when the first is taken.

    Setting ``bit_generator.state`` costs a fraction of building a
    generator. The state is PCG64's seeding step (O'Neill, HMC-CS-2014-0905)
    on Python ints: the first two words are the initial state, the last two
    the stream; from state 0, step, add the initial state, step again.
    """
    rng = np.random.Generator(np.random.PCG64())
    for row in seed_words(seeds):
        s_high, s_low, i_high, i_low = row.tolist()
        inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        state = ((inc + (s_high << 64 | s_low)) * _PCG64_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        yield rng


def fractional_integration_weights(d: float | Sequence[float], n: int) -> np.ndarray:
    """Coefficients of the inverse fractional difference filter.

    Returns the first ``n`` weights of the binomial-series expansion of the
    backshift polynomial raised to the power -d: w[0] = 1 and w[j] the
    cumulative product of the ratios (j - 1 + d) / j. A sequence of ``k``
    values of ``d`` gives a (k, n) matrix, one row per value, computed with
    the same per-element operations as a single value.
    """
    d = np.asarray(d, dtype=np.float64)
    if not np.all(np.abs(d) < 1):
        raise ValueError(f"|d| must be < 1, got {d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    w = np.empty((*d.shape, n))
    w[..., 0] = 1.0
    w[..., 1:] = np.arange(n - 1) + d[..., None]
    w[..., 1:] /= np.arange(1, n)
    return np.cumprod(w, axis=-1, out=w)


def _by_position(terms: list, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lags and coefficients of ``k`` term lists of ``n`` terms each, as two
    (n, k) arrays: one row per term position, one column per spec."""
    a = np.array(terms, dtype=np.float64).reshape(k, n, 2).transpose(2, 1, 0)
    return np.ascontiguousarray(a[0], dtype=np.intp), np.ascontiguousarray(a[1])


def _noise(spec: ProcessSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` i.i.d. draws from the noise law of ``spec``."""
    if spec.kind == Kind.NOISE_UNIFORM:
        return rng.uniform(spec.uniform_lo, spec.uniform_hi, n)
    return rng.normal(spec.noise_mean, math.sqrt(spec.noise_variance), n)


def _simulate_run(specs: list[ProcessSpec], rngs: Iterator[np.random.Generator],
                  values: np.ndarray, n_ar: int, n_ma: int) -> None:
    """Simulate specs that share a kind, a length and their term counts into
    the zeroed row-major (k, length) ``values``: row i is the series of
    specs[i].

    Row i takes the next generator of ``rngs`` and draws (``_noise``) its
    first ``start`` values, its largest lag, i.i.d. from its noise law, then
    its noise sequence, each written contiguously into its row. Each later
    value is its lagged terms plus fresh noise. An ARMA run keeps its noise
    in a (k, length) matrix, since its MA terms read the noise of past
    steps. An AR or white-noise run reads only the current step's, so each
    row's noise is drawn into the row itself from its start on. A
    white-noise row has no lag, so its start is 0 and it is done once
    drawn. An AR recursion runs in place: a block reads its noise before it
    overwrites it, and the run needs no matrix beside ``values``. A value m
    or more steps back is final once the steps before the current block
    are, so one iteration advances every row by m, the run's least AR lag
    (AR100 takes 19 iterations for 1,900 steps). A term whose lag every row
    shares reads a slice of columns, any other a gather. Each value adds its
    terms in its spec's order to a literal 0.0, so it equals that of a
    scalar recursion bit for bit; before the last row's start, a row whose
    start lies ahead keeps its initial values.
    """
    k = len(specs)
    ar_lag, ar_coef = _by_position([s.ar_terms for s in specs], k, n_ar)
    # a pure-AR spec carries no MA terms; its instantaneous noise is implicit
    ma_lag, ma_coef = _by_position([s.ma_terms or ((0, 1.0),) for s in specs], k, n_ma or 1)
    start = np.concatenate([ar_lag, ma_lag]).max(axis=0)

    length = values.shape[1]
    eps = np.empty((k, length)) if n_ma else values
    for row, (spec, s) in enumerate(zip(specs, start.tolist())):
        rng = next(rngs)
        values[row, :s] = _noise(spec, rng, s)
        # in place, the noise of the steps before the start is drawn and dropped
        first = 0 if n_ma else s
        eps[row, first:] = _noise(spec, rng, length)[first:]
    if not (n_ar or n_ma):
        return

    # with no AR term nothing recurs, and a block of one column keeps the
    # temporaries small
    step = int(ar_lag.min()) if n_ar else 1
    # the flat index of [row, t + j - lag] is row * length - lag + j, plus t;
    # for a row whose start lies ahead it can fall in the row before (or wrap
    # to the last row), cells that stay finite because ``values`` came
    # zeroed, so no spurious warning is raised, and the result is dropped
    rows, cols = np.arange(k) * length, np.arange(step)
    terms = []
    for src, lags, coefs in ((values, ar_lag, ar_coef), (eps, ma_lag, ma_coef)):
        for lag, coef in zip(lags, coefs):
            shared = lag.min() == lag.max()
            terms.append((src, coef[:, None], int(lag[0]),
                          None if shared else (rows - lag)[:, None] + cols))
    last = int(start.max())
    t = int(start.min())
    while t < length:
        m = min(step, length - t)
        acc = 0.0
        for src, coef, lag, index in terms:
            block = src[:, t - lag:t - lag + m] if index is None else src.take(index[:, :m] + t)
            acc = acc + coef * block
        if t < last:
            np.copyto(values[:, t:t + m], acc, where=start[:, None] <= t + np.arange(m))
        else:
            values[:, t:t + m] = acc
        t += m


# rows convolved at a time: a block's weights and spectra take about 2.7 MB
# at 2,000 values
FFT_BLOCK_ROWS = 32


def _fractionally_integrate(core: np.ndarray, d: list[float]) -> None:
    """Convolve row j of ``core``, in place, with the fractional integration
    weights of ``d[j]``, truncated at the series start.

    The convolution is a product of real FFTs (Jensen and Nielsen, J. Time
    Series Analysis, 2014), O(n log n) per series where the direct sum is
    O(n^2); each output lies within 64 eps ||w||_2 ||core||_2 of the exact
    sum. The transform size is the least power of two at or above
    2 * length - 1, the length of the full linear convolution, so no output
    wraps around. Each row is transformed on its own, so its bits do not
    depend on the rest of the batch. Rows go ``FFT_BLOCK_ROWS`` at a time:
    a block makes its weights, transforms them and its cores, and is written
    back before the next begins, so the temporaries are one block of weights
    and spectra. A row whose ``d`` is 0 has weights [1, 0, ...], which the
    transform returns only to within rounding, so it keeps its core as it is.
    """
    length = core.shape[1]
    size = 1 << (2 * length - 2).bit_length()
    moved = (np.asarray(d) != 0)[:, None]
    for a in range(0, len(d), FFT_BLOCK_ROWS):
        b = a + FFT_BLOCK_ROWS
        # in place: numpy elides the temporary of a product only on some call paths
        spectra = np.fft.rfft(fractional_integration_weights(d[a:b], length), size)
        spectra *= np.fft.rfft(core[a:b], size)
        np.copyto(core[a:b], np.fft.irfft(spectra, size)[:, :length], where=moved[a:b])
        del spectra  # before the next block makes its weights


def generate_many(specs: Sequence[ProcessSpec], seeds: Sequence[int]) -> np.ndarray:
    """Simulate ``specs[i]`` from the stream of ``np.random.default_rng(seeds[i])``,
    for every i.

    The simulation entry point. All specs share one length; row i of the
    read-only result is the series of ``specs[i]``, a pure function of its
    own (spec, seed): batching changes no bit. One generator, local to the
    call, is re-pointed to each seed's stream in row order (``streams``), so
    no series builds its own; a seed outside [0, 2**64) is refused. Each
    run of consecutive specs that share a kind and their term counts is
    simulated in place in its rows of the result (``_simulate_run``);
    ARFIMA then convolves each core, in place, with its fractional
    integration weights, truncated at the series start, by FFT in blocks of
    rows on the calling thread.
    """
    if len(specs) != len(seeds):
        raise ValueError(f"got {len(specs)} specs but {len(seeds)} seeds")
    lengths = {spec.length for spec in specs}
    if len(lengths) != 1:
        raise ValueError(f"need specs of one length, got lengths {sorted(lengths)}")
    (length,) = lengths
    out = np.zeros((len(specs), length))
    rngs, a = streams(seeds), 0
    # a row that overflows is refused below, by the kind of its spec
    with np.errstate(over="ignore", invalid="ignore"):
        for (kind, n_ar, n_ma), run in itertools.groupby(
                specs, lambda s: (s.kind, len(s.ar_terms), len(s.ma_terms))):
            run = list(run)
            values = out[a:a + len(run)]
            a += len(run)
            _simulate_run(run, rngs, values, n_ar, n_ma)
            if kind == Kind.ARFIMA:
                _fractionally_integrate(values, [s.d for s in run])
    # NaN reaches a row's max and min, +inf its max and -inf its min
    finite = np.isfinite(out.max(axis=1)) & np.isfinite(out.min(axis=1))
    if not finite.all():
        kind = specs[int(np.argmin(finite))].kind
        raise ValueError(f"generated series contains non-finite values (kind={kind.value})")
    out.setflags(write=False)
    return out


def generate(spec: ProcessSpec, rng_seed: int) -> np.ndarray:
    """The read-only series of ``spec`` simulated from a generator seeded by ``rng_seed``."""
    return generate_many([spec], [rng_seed])[0]
